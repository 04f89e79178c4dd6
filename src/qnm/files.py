"""JSON interchange formats for ensembles, channels, states and reports.

Matrices are stored as nested lists of [re, im] pairs, row by row. Every
file carries a "format" version field; numbers round-trip losslessly at
double precision.
"""

import dataclasses
import hashlib
import json

import numpy as np

from . import __version__
from .channels import KrausChannel
from .design import CertificationReport, UnitaryEnsemble
from .nmes import AttackReport

FORMAT_VERSION = 1


def matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _numbers(values, what: str, form: str = "a list of numbers") -> np.ndarray:
    """One numpy conversion of nested JSON lists, which must be regular and hold numbers only."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be {form}")
    return arr.astype(float)


def pairs_to_matrix(rows, what: str = "matrix") -> np.ndarray:
    """Complex array from nested lists of matrix rows whose entries are [re, im] pairs."""
    form = "rows of [re, im] pairs of numbers"
    arr = _numbers(rows, what, form)
    if arr.ndim < 3 or arr.shape[-1] != 2:
        raise ValueError(f"{what} must be {form}")
    return arr.view(complex)[..., 0]  # bit-exact: keeps -0.0 and does not mix inf into nan


def _dimension(obj: dict) -> int:
    d = obj["d"]
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not float(d).is_integer():
        raise ValueError(f"d must be an integer, got {d!r}")
    return int(d)


def _check_format(obj: dict, path: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    version = obj.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version!r}")


def ensemble_to_dict(e: UnitaryEnsemble, meta: dict | None = None) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "d": int(e.d),
        "weights": e.weights.tolist(),
        "unitaries": matrix_to_pairs(e.unitaries),
    }
    if meta:
        out["meta"] = meta
    return out


def ensemble_from_dict(obj: dict, path: str = "<memory>") -> UnitaryEnsemble:
    _check_format(obj, path)
    try:
        d = _dimension(obj)
        weights = _numbers(obj["weights"], "weights")
        unitaries = pairs_to_matrix(obj["unitaries"], "unitaries")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed ensemble file ({exc})") from exc
    return UnitaryEnsemble(d=d, weights=weights, unitaries=unitaries)


def save_ensemble(path: str, e: UnitaryEnsemble, meta: dict | None = None):
    with open(path, "w") as fh:
        json.dump(ensemble_to_dict(e, meta), fh, indent=1)
        fh.write("\n")


def load_ensemble(path: str) -> UnitaryEnsemble:
    with open(path) as fh:
        obj = json.load(fh)
    return ensemble_from_dict(obj, path)


def load_kraus_channel(path: str) -> KrausChannel:
    """Read an adversary channel stored as {"format": 1, "d": d, "kraus": [matrix...]}."""
    with open(path) as fh:
        obj = json.load(fh)
    _check_format(obj, path)
    try:
        d = _dimension(obj)
        ops = [pairs_to_matrix(k, f"Kraus operator {m}") for m, k in enumerate(obj["kraus"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed Kraus file ({exc})") from exc
    return KrausChannel(d_in=d, d_out=d, kraus_ops=ops)


def load_matrix(path: str, key: str) -> np.ndarray:
    """Read a single matrix file, e.g. {"format": 1, "d": d, "matrix": ...}."""
    with open(path) as fh:
        obj = json.load(fh)
    _check_format(obj, path)
    try:
        m = pairs_to_matrix(obj[key], key)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed matrix file ({exc})") from exc
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: {key} must be finite")
    return m


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def certification_report_to_dict(report: CertificationReport, input_digest: str) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "kind": "certification",
        "tool_version": __version__,
        "input_digest": input_digest,
    }
    out.update(dataclasses.asdict(report))
    return out


def attack_report_to_dict(report: AttackReport, input_digest: str) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "attack",
        "tool_version": __version__,
        "input_digest": input_digest,
        "alpha": report.decomposition.alpha,
        "beta": report.decomposition.beta,
        "malleability_residual": report.malleability_residual,
        "diamond_upper_bound": report.diamond_upper_bound,
        "scheme_one_design_dist": report.scheme_one_design_dist,
        "effective_choi": matrix_to_pairs(report.effective_choi),
    }

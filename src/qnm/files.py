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
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def pairs_to_matrix(rows) -> np.ndarray:
    return np.array([[complex(entry[0], entry[1]) for entry in row] for row in rows])


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
        "weights": [float(w) for w in e.weights],
        "unitaries": [matrix_to_pairs(u) for u in e.unitaries],
    }
    if meta:
        out["meta"] = meta
    return out


def ensemble_from_dict(obj: dict, path: str = "<memory>") -> UnitaryEnsemble:
    _check_format(obj, path)
    try:
        d = int(obj["d"])
        weights = np.array([float(w) for w in obj["weights"]])
        unitaries = np.array([pairs_to_matrix(u) for u in obj["unitaries"]])
    except (KeyError, TypeError, IndexError) as exc:
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
        d = int(obj["d"])
        ops = [pairs_to_matrix(k) for k in obj["kraus"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{path}: malformed Kraus file ({exc})") from exc
    return KrausChannel(d_in=d, d_out=d, kraus_ops=ops)


def load_matrix(path: str, key: str) -> np.ndarray:
    """Read a single matrix file, e.g. {"format": 1, "d": d, "matrix": ...}."""
    with open(path) as fh:
        obj = json.load(fh)
    _check_format(obj, path)
    try:
        m = pairs_to_matrix(obj[key])
    except (KeyError, TypeError, IndexError) as exc:
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

"""JSON interchange formats for ensembles, channels, states and reports.

Every file carries a "format" version field; numbers round-trip losslessly
at double precision. Kraus, matrix and report files are format 1: matrices
are nested lists of [re, im] pairs, row by row. Ensemble files are format 2:
"unitaries" is the padded base64 of the N*d*d little-endian complex128 values
in C order (key, row, column), N = len(weights), so no float is parsed or
printed per entry. Format 1 ensemble files (pairs, as above) still load.
"""

import base64
import dataclasses
import hashlib
import json

import numpy as np

from . import __version__
from .channels import KrausChannel
from .design import CertificationReport, UnitaryEnsemble
from .nmes import AttackReport

FORMAT_VERSION = 1  # Kraus, matrix and report files, and the ensemble files that still load
ENSEMBLE_FORMAT_VERSION = 2


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
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not float(d).is_integer() or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    return int(d)


def _check_format(obj: dict, path: str, versions=(FORMAT_VERSION,)) -> int:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    version = obj.get("format")
    if isinstance(version, bool) or version not in versions:  # True == 1 in Python
        raise ValueError(f"{path}: unsupported format version {version!r}")
    return version


def _read_json(path: str):
    """json.load of ``path``; a parse failure, deep nesting included, is a ValueError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ValueError(f"{path}: not readable as JSON ({exc})") from exc


def _unpack_unitaries(text, n: int, d: int) -> np.ndarray:
    """Writable (n, d, d) complex array from format 2's base64 block of <c16 values."""
    if not isinstance(text, str):
        raise ValueError(f"unitaries must be a padded base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # not ASCII, or not padded base64
        raise ValueError(f"unitaries must be a padded base64 string ({exc})") from exc
    if len(raw) != 16 * n * d * d:
        raise ValueError(f"unitaries holds {len(raw)} bytes, expected 16*N*d^2 = {16 * n * d * d}")
    return np.frombuffer(bytearray(raw), "<c16").reshape(n, d, d)


def ensemble_to_dict(e: UnitaryEnsemble, meta: dict | None = None) -> dict:
    out = {
        "format": ENSEMBLE_FORMAT_VERSION,
        "d": int(e.d),
        "weights": e.weights.tolist(),
        "unitaries": base64.b64encode(np.ascontiguousarray(e.unitaries, "<c16")).decode("ascii"),
    }
    if meta:
        out["meta"] = meta
    return out


def ensemble_from_dict(obj: dict, path: str = "<memory>") -> UnitaryEnsemble:
    version = _check_format(obj, path, (FORMAT_VERSION, ENSEMBLE_FORMAT_VERSION))
    try:
        d = _dimension(obj)
        weights = _numbers(obj["weights"], "weights")
        if version == FORMAT_VERSION:
            unitaries = pairs_to_matrix(obj["unitaries"], "unitaries")
        else:
            unitaries = _unpack_unitaries(obj["unitaries"], weights.size, d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed ensemble file ({exc})") from exc
    return UnitaryEnsemble(d=d, weights=weights, unitaries=unitaries)


def save_ensemble(path: str, e: UnitaryEnsemble, meta: dict | None = None):
    text = json.dumps(ensemble_to_dict(e, meta))  # one dumps, no indent: the C encoder
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_ensemble(path: str) -> UnitaryEnsemble:
    return ensemble_from_dict(_read_json(path), path)


def load_kraus_channel(path: str) -> KrausChannel:
    """Read an adversary channel stored as {"format": 1, "d": d, "kraus": [matrix...]}."""
    obj = _read_json(path)
    _check_format(obj, path)
    try:
        d = _dimension(obj)
        ops = [pairs_to_matrix(k, f"Kraus operator {m}") for m, k in enumerate(obj["kraus"])]
        return KrausChannel(d=d, kraus_ops=ops)  # it checks each shape against d
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed Kraus file ({exc})") from exc


def load_matrix(path: str, key: str) -> np.ndarray:
    """Read a single d x d matrix file, e.g. {"format": 1, "d": d, "matrix": ...}."""
    obj = _read_json(path)
    _check_format(obj, path)
    try:
        d = _dimension(obj)
        m = pairs_to_matrix(obj[key], key)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed matrix file ({exc})") from exc
    if m.shape != (d, d):
        raise ValueError(f"{path}: {key} must be d x d = {d} x {d}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: {key} must be finite")
    return m


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def report_dict(kind: str, **fields) -> dict:
    """A report: the format, kind and tool version, then ``fields`` in order."""
    return {"format": FORMAT_VERSION, "kind": kind, "tool_version": __version__, **fields}


def certification_report_to_dict(report: CertificationReport, input_digest: str) -> dict:
    return report_dict("certification", input_digest=input_digest, **dataclasses.asdict(report))


def attack_report_to_dict(report: AttackReport, input_digest: str) -> dict:
    return report_dict(
        "attack",
        input_digest=input_digest,
        alpha=report.decomposition.alpha,
        beta=report.decomposition.beta,
        malleability_residual=report.malleability_residual,
        diamond_upper_bound=report.diamond_upper_bound,
        scheme_one_design_dist=report.scheme_one_design_dist,
        effective_choi=matrix_to_pairs(report.effective_choi),
    )

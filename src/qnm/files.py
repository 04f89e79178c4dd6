"""JSON interchange formats for ensembles, channels, states and reports.

Every file carries a "format" version field; numbers round-trip losslessly
at double precision. Kraus, matrix and report files are format 1: matrices
are nested lists of [re, im] pairs, row by row. Ensemble files are format 2:
"unitaries" is the padded base64 of the N*d*d little-endian complex128 values
in C order (key, row, column), N = len(weights), so no float is parsed or
printed per entry. Each kind of file has that one format.
Every input file is opened once, by read_json, which parses and digests the same bytes;
every output file is written by write_json, except that save_ensemble streams the same text.
"""

import base64
import dataclasses
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .channels import KrausChannel
from .design import MAX_D, CertificationReport, UnitaryEnsemble
from .nmes import AttackReport

FORMAT_VERSION = 1  # Kraus, matrix and report files
ENSEMBLE_FORMAT_VERSION = 2


def _dimension(obj: dict) -> int:
    d = obj["d"]
    if not (type(d) is int or (isinstance(d, float) and d.is_integer())) or not 2 <= d <= MAX_D:
        raise ValueError(f"d must be an integer in [2, {MAX_D}]")  # no bool; no echo of a huge d
    return int(d)


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


def read_json(path: str, version: int = FORMAT_VERSION) -> tuple[dict, str]:
    """Open ``path`` once: its JSON object and the ``sha256:`` digest of the very bytes parsed. A
    missing file, a parse failure (deep nesting too) or a format other than ``version`` is a
    ValueError naming the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError as exc:  # a missing input is a usage error, not an I/O failure
        raise ValueError(str(exc)) from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")  # UTF-8 only: json.loads(bytes) would take UTF-16 too
        del raw  # the parse holds the text and the object it builds, not the bytes as well
        obj = json.loads(text)
    except (RecursionError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ValueError(f"{path}: not readable as JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    found = obj.get("format")
    if isinstance(found, bool) or found != version:  # True == 1 in Python
        raise ValueError(f"{path}: unsupported format version {found!r}")
    return obj, digest


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


def write_json(obj: dict, path: str | None):
    """Write ``obj`` as one line of JSON to ``path`` (stdout if None): every file qnm writes, but
    ensemble files, whose same text save_ensemble streams."""
    text = json.dumps(obj) + "\n"  # one dumps, no indent: the C encoder
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def save_ensemble(path: str, e: UnitaryEnsemble, meta: dict | None = None):
    """Write the one-line JSON of {"format", "d", "weights", "unitaries"} (and "meta" if ``meta``
    is not empty), with the keys' base64 held once, as bytes.

    The text around it is dumped with an empty placeholder in its place. Only numbers come before
    "unitaries", so its first '"unitaries": ""' is that placeholder, even if ``meta`` has one.
    """
    obj = {"format": ENSEMBLE_FORMAT_VERSION, "d": int(e.d), "weights": e.weights.tolist()}
    obj["unitaries"] = ""  # the placeholder
    if meta:
        obj["meta"] = meta
    head, tail = json.dumps(obj).split('"unitaries": ""', 1)
    with open(path, "wb") as fh:
        fh.write(f'{head}"unitaries": "'.encode("ascii"))  # json.dumps escapes to ASCII
        fh.write(base64.b64encode(np.ascontiguousarray(e.unitaries, "<c16")))
        fh.write(f'"{tail}\n'.encode("ascii"))


def load_ensemble(path: str) -> tuple[UnitaryEnsemble, str]:
    """Read an ensemble file: the ensemble and the digest of the bytes it holds."""
    obj, digest = read_json(path, ENSEMBLE_FORMAT_VERSION)
    try:
        d = _dimension(obj)
        weights = _numbers(obj["weights"], "weights")
        if weights.ndim != 1:  # [[w], ...] or a bare number
            raise ValueError("weights must be a list of numbers")
        unitaries = _unpack_unitaries(obj["unitaries"], weights.size, d)
        ensemble = UnitaryEnsemble(d=d, weights=weights, unitaries=unitaries)  # it checks the keys
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed ensemble file ({exc})") from exc
    return ensemble, digest


def load_kraus_channel(path: str) -> KrausChannel:
    """Read an adversary channel stored as {"format": 1, "d": d, "kraus": [matrix...]}."""
    obj, _ = read_json(path)
    try:
        d = _dimension(obj)
        ops = [pairs_to_matrix(k, f"Kraus operator {m}") for m, k in enumerate(obj["kraus"])]
        return KrausChannel(d=d, kraus_ops=ops)  # it checks each shape against d
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed Kraus file ({exc})") from exc


def load_matrix(path: str, key: str) -> np.ndarray:
    """Read a single d x d matrix file, e.g. {"format": 1, "d": d, "matrix": ...}."""
    obj, _ = read_json(path)
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

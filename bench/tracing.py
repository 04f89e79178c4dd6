"""In-memory spans around qnm's layer functions, installed from outside the package.

The tracer replaces each listed function at module-attribute level in every
loaded ``qnm`` module that holds it (so ``qnm.design.trace_norm`` is wrapped
along with ``qnm.linalg.trace_norm``), plus ``UnitaryEnsemble.__post_init__``
and numpy's Hermitian/SVD solvers. No qnm source is edited: the wrappers are
installed by :func:`installed` and removed when it exits.

A span is ``[id, parent_id, request, name, start, end, attrs]``; ``request``
is the index of the CLI command that caused it. :func:`layer_metrics` turns a
span list into the per-layer figures the benchmark reports.
"""

import contextlib
import functools
import importlib
import math
import os
import sys
import time

import numpy as np

# metric stem -> functions that make up that layer, as "module:qualname"
LAYERS = {
    "construct.clifford_prime": ["qnm.construct:clifford_prime"],
    "construct.sample_design": ["qnm.construct:sample_design"],
    "files.save_ensemble": ["qnm.files:save_ensemble"],
    "files.load_ensemble": ["qnm.files:load_ensemble"],
    "files.load_kraus_channel": ["qnm.files:load_kraus_channel"],
    "files.report_to_dict": [
        "qnm.files:certification_report_to_dict",
        "qnm.files:attack_report_to_dict",
    ],
    "design.ingest": ["qnm.design:UnitaryEnsemble.__post_init__"],
    "design.certify_design": ["qnm.design:certify_design"],
    "design.ensemble_choi": ["qnm.design:ensemble_choi"],
    "design.ideal_choi": ["qnm.design:ideal_choi"],
    "design.one_design_distance": ["qnm.design:one_design_distance"],
    "design.multiplicative_theta": ["qnm.design:multiplicative_theta"],
    "design.frame_potential": ["qnm.design:frame_potential"],
    "design.iso_project": ["qnm.design:iso_project"],
    "linalg.trace_norm": ["qnm.linalg:trace_norm"],
    "linalg.herm_eig": ["qnm.linalg:herm_eig"],
    "linalg.num_rank": ["qnm.linalg:num_rank"],
    "nmes.attack_report": ["qnm.nmes:attack_report"],
    "nmes.effective_channel": ["qnm.nmes:effective_channel"],
    "channels.choi_of": ["qnm.channels:choi_of"],
    "channels.validate_cptni": ["qnm.channels:validate_cptni"],
}

# layers whose self time (span minus child spans) is reported as well
SELF_TIME = ("design.certify_design", "nmes.attack_report")

# numpy solvers counted as linalg.eig_calls / linalg.eig_gflop
EIG_SOLVERS = ("eigh", "eigvalsh", "svd")

# metrics derived from a cost model rather than measured
COMPUTED = ("linalg.eig_gflop",)

# Real flop model for one n x n solve (Golub & Van Loan, "Matrix
# Computations", 4th ed., sections 8.3 and 8.6): tridiagonal reduction
# 4n^3/3, with eigenvectors 9n^3; bidiagonal SVD values only 8n^3/3, with
# both singular-vector sets 21n^3. Complex arithmetic costs four times as much.
_FLOP_PER_N3 = {
    ("eigvalsh", False): 4 / 3,
    ("eigh", False): 9.0,
    ("svd", False): 8 / 3,
    ("svd", True): 21.0,
}


def solver_gflop(kind: str, shape, is_complex: bool, compute_uv: bool = True) -> float:
    """Computed (not measured) Gflop of one numpy eigen/SVD call on a stack of square matrices."""
    n = shape[-1]
    batch = math.prod(shape[:-2])
    key = (kind, kind == "svd" and compute_uv)
    return batch * _FLOP_PER_N3[key] * n**3 * (4 if is_complex else 1) / 1e9


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = None
        self.kept = {}
        self._stack = []

    def wrap(self, name, fn, attrs=None, keep=False):
        """Wrapper of ``fn`` that records a span; ``attrs(args, kwargs, result)`` adds fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                    self.request, name, self.clock(), None, None]
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = self.clock()
                self._stack.pop()
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            if keep:
                self.kept[name] = result
            return result

        return wrapper


def _solver_attrs(kind):
    def attrs(args, kwargs, result):
        a = np.asarray(args[0])
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        return {"n": int(a.shape[-1]),
                "gflop": solver_gflop(kind, a.shape, a.dtype.kind == "c", bool(uv))}
    return attrs


def _ensemble_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _kraus_products(args, kwargs, result):
    return {"kraus_products": len(result.kraus_ops)}


_ATTRS = {
    "files.save_ensemble": _ensemble_bytes,
    "nmes.effective_channel": _kraus_products,
}


def _resolve(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def installed(tracer, keep=()):
    """Install span wrappers on every layer function and numpy solver; restore on exit.

    Every loaded ``qnm`` module attribute that is the same object as a
    wrapped function is replaced, so calls through names bound by
    ``from .x import f`` are recorded too. The last result of each layer
    named in ``keep`` is kept in ``tracer.kept``.
    """
    patches = []  # (owner, attr, original)

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        resolved = {stem: [_resolve(t) for t in targets] for stem, targets in LAYERS.items()}
        modules = [m for n, m in list(sys.modules.items()) if n == "qnm" or n.startswith("qnm.")]
        for stem, owners in resolved.items():
            for owner, attr in owners:
                original = getattr(owner, attr)
                wrapper = tracer.wrap(stem, original, _ATTRS.get(stem), stem in keep)
                if isinstance(owner, type):
                    patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            patch(module, name, wrapper)
        for kind in EIG_SOLVERS:
            patch(np.linalg, kind,
                  tracer.wrap(f"numpy.linalg.{kind}", getattr(np.linalg, kind), _solver_attrs(kind)))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that direct child spans cover."""
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))
    return {s[0]: (s[5] - s[4]) - covered(s[4], s[5], children.get(s[0], ())) for s in spans}


def per_layer_metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for stem in LAYERS:
        names.append((f"{stem}_s", "s"))
        names.append((f"{stem}.calls", "count"))
        if stem in SELF_TIME:
            names.append((f"{stem}.self_s", "s"))
    names += [("linalg.eig_calls", "count"), ("linalg.eig_gflop", "Gflop"),
              ("nmes.kraus_products", "count"), ("files.ensemble_bytes", "bytes")]
    return names


def layer_metrics(spans) -> dict:
    """Per-layer figures from a span list; layers that were never called read 0.

    ``<layer>_s`` sums the wall time of the layer's outermost spans (a span
    nested inside another of the same layer is not counted twice);
    ``<layer>.calls`` counts every span; ``<layer>.self_s`` subtracts child
    spans, numpy solver spans included.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    out = {name: 0 for name, _ in per_layer_metric_names()}
    for s in spans:
        name, attrs = s[3], s[6] or {}
        if name.startswith("numpy.linalg."):
            out["linalg.eig_calls"] += 1
            out["linalg.eig_gflop"] += attrs["gflop"]
            continue
        out[f"{name}.calls"] += 1
        out["nmes.kraus_products"] += attrs.get("kraus_products", 0)
        out["files.ensemble_bytes"] += attrs.get("bytes", 0)
        if name in SELF_TIME:
            out[f"{name}.self_s"] += selfs[s[0]]
        parent = by_id.get(s[1])
        while parent is not None and parent[3] != name:
            parent = by_id.get(parent[1])
        if parent is None:
            out[f"{name}_s"] += s[5] - s[4]
    return out

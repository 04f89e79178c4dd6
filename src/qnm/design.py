"""Twirls, isotropic projections and unitary 2-design certification.

An encryption scheme is modelled as a weighted ensemble of unitaries
{p_k, U_k} on a d-level system. Its second-moment behaviour is captured by
the operator

    Omega = sum_k p_k (U_k (x) conj(U_k) (x) 1) Phi_{d^2} (...)^dagger

on four d-level systems, whose ideal (Haar) value has the closed form

    Omega_haar = 1/d^2 * P1 + 1/(d^2 (d^2-1)) * P2,
    P1 = Phi_d (x) Phi_d,   P2 = (1 - Phi_d) (x) (1 - Phi_d).

The ensemble is a unitary 2-design exactly when Omega equals Omega_haar,
which is what :func:`certify_design` measures.

Omega is held in the real Liouville basis (:func:`ensemble_choi`), which fixes Omega_haar, and is
graded, in real arithmetic, in the adjoint frame whose first basis element is 1/sqrt(d). There
U (x) conj(U) is 1 (+) R_U, and Omega_haar, its support and the sandwich A are diagonal, with 0 on
the mixed entries (Gross, Audenaert and Eisert, J. Math. Phys. 48, 052104 (2007)). So is Omega, up
to a bound certify adds. :func:`_support_deviation`, the one way into that frame, reads Omega's
block on the 1 + (d^2 - 1)^2 support slab by slab, with no rotated copy. :func:`_grade`, certify's
one grader, solves it twice, as it is for T and sandwiched by A for theta and the rank.

Every per-key loop here, nmes.attack_report (the attack's one walk over the keys) and
_support_deviation's groups of slabs walk :func:`key_blocks`; Omega adds up groups of d^4 keys.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_TOL, check_tol, gram_choi, trace_norm

MAX_D = 2**11  # the largest d of an input file and of gen sampled: a d x d key is 64 MiB
UNITARY_INGEST_TOL = 1e-8  # the largest allowed entry of U^dagger U - 1, per key
WEIGHT_TOL = 1e-12  # the bound on |sum of the weights - 1|
DEFAULT_CERT_TOL = 1e-9  # the default pass/fail bound for every grade (certify's tol)
SUPPORT_LEAK_TOL = 1e-9  # multiplicative_theta is None (null) when support_leak is above it
_ROW_BLOCK = 1 << 16  # complex entries (1 MiB) per block of key_blocks, unless one item holds more
_KEY_LAST_MAX_D = 5  # unitary_deviation's key-last route; from d = 6 a BLAS call per key is as fast


def key_blocks(n: int, entries_per_item: int) -> list[slice]:
    """The slices of range(n), in order, that hold at most ``_ROW_BLOCK`` complex entries each at
    ``entries_per_item`` per item, and never fewer than one item."""
    step = max(1, _ROW_BLOCK // max(1, entries_per_item))
    return [slice(k, min(k + step, n)) for k in range(0, n, step)]


def unitary_deviation(unitaries: np.ndarray) -> np.ndarray:
    """max |U_k^dagger U_k - 1| entrywise, per key of an (N, d, d) stack; inf or NaN where huge
    finite entries overflow U_k^dagger U_k. Key block by key block. Up to ``_KEY_LAST_MAX_D`` in
    key-last layout: a contiguous (d, d, b) copy, then d broadcast multiply-adds, with no BLAS call
    per key. Above it, one BLAS product per key, which is d^3 work at BLAS speed."""
    n, d, _ = unitaries.shape
    dev = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in key_blocks(n, 4 * d * d):  # a copy, U^dagger U, its shifted copy and |.|
            if d > _KEY_LAST_MAX_D:
                u = unitaries[block]
                g = np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d))
                dev[block] = g.max(axis=(1, 2))
                continue
            ut = np.ascontiguousarray(unitaries[block].transpose(1, 2, 0))  # [i, j, k] = U_k[i, j]
            g = ut[0].conj()[:, None] * ut[0]  # g[a, c, k] = sum_i conj(U_k[i, a]) U_k[i, c]
            for i in range(1, d):
                g += ut[i].conj()[:, None] * ut[i]
            g = g.reshape(d * d, -1)
            g[:: d + 1] -= 1
            dev[block] = np.abs(g).max(axis=0)
    return dev


@dataclass
class UnitaryEnsemble:
    """A weighted collection {p_k, U_k} of d x d unitaries.

    d must be an integer >= 2 and ``unitaries`` an (N, d, d) stack with N weights. The weights
    must be finite, nonnegative and sum to 1 within ``WEIGHT_TOL``; each key must be finite and
    unitary within ``UNITARY_INGEST_TOL`` by :func:`unitary_deviation`. Anything else is a
    ValueError, which names the first key that is not unitary.
    """

    d: int
    weights: np.ndarray
    unitaries: np.ndarray

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d < 2:  # a bool is 0 or 1
            raise ValueError(f"d must be an integer >= 2, got {self.d!r}")
        self.d = d = int(self.d)  # a Python int: reports serialize it as JSON
        self.weights = np.asarray(self.weights, dtype=float)
        self.unitaries = np.asarray(self.unitaries, dtype=complex)
        if self.unitaries.ndim != 3 or self.unitaries.shape[1:] != (d, d):
            raise ValueError(
                f"unitaries must have shape (N, {d}, {d}), got {self.unitaries.shape}"
            )
        if self.weights.shape != (self.unitaries.shape[0],):
            raise ValueError("weights and unitaries disagree on ensemble size")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if not np.all(np.isfinite(self.unitaries)):
            raise ValueError("unitaries must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        with np.errstate(over="ignore"):  # huge finite weights sum to inf
            total = self.weights.sum()
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {float(total)!r}")
        dev = unitary_deviation(self.unitaries)
        bad = np.flatnonzero(~(dev <= UNITARY_INGEST_TOL))  # NaN too: inf - inf in U^dagger U
        if bad.size:
            k = bad[0]
            raise ValueError(f"ensemble element {k} is not unitary (deviation {dev[k]:.3e})")

    @property
    def size(self) -> int:
        return self.unitaries.shape[0]

    @classmethod
    def uniform(cls, d: int, unitaries) -> "UnitaryEnsemble":
        n = len(unitaries)
        return cls(d=d, weights=np.full(n, 1.0 / n), unitaries=unitaries)


@dataclass
class IsotropicDecomposition:
    """Coordinates of a bipartite operator in the span of Phi_d and 1 - Phi_d."""

    alpha: float
    beta: float
    residual: float


@dataclass
class CertificationReport:
    """Design grades for an ensemble, with the associated key-size bounds."""

    d: int
    n: int
    distinct_keys: int
    one_design_dist: float
    two_design_trace_dist: float
    two_design_diamond_upper: float
    multiplicative_theta: float | None
    support_leak: float
    omega_rank: int
    rank_bound: int
    conjectured_rank_bound: int
    frame_potential: float
    entropy_bits: float
    entropy_bound_bits: float | None
    passes_2design_at: float
    passes_one_design: bool
    passes_two_design: bool
    passes_multiplicative: bool | None
    passes_rank_bound: bool


def iso_project(x: np.ndarray, d: int) -> IsotropicDecomposition:
    """Decompose a d^2 x d^2 operator X by its projection alpha * Phi_d + beta * (1 - Phi_d)
    onto the isotropic span, where

        alpha = tr(X Phi_d),   beta = tr(X (1 - Phi_d)) / (d^2 - 1),

    and residual is the trace norm of the off-span part, X minus that projection. The map coincides
    with averaging (U (x) conj(U)) X (U (x) conj(U))^dagger over the Haar measure. Phi_d is 1/d on
    x[::d + 1, ::d + 1], the entries ((i, i), (j, j)), and 0 elsewhere: no Phi_d is built.
    """
    x = np.array(x, dtype=complex)  # a copy: the projection is subtracted in place
    if x.shape != (d * d, d * d):
        raise ValueError(f"expected a {d * d} x {d * d} operator, got shape {x.shape}")
    block = x[:: d + 1, :: d + 1]  # a view of x
    alpha = float(np.real(np.sum(block))) / d
    beta = float(np.real(np.trace(x)) - alpha) / (d * d - 1)
    x.flat[:: d * d + 1] -= beta  # x - beta 1 - (alpha - beta) Phi_d
    block -= (alpha - beta) / d
    return IsotropicDecomposition(alpha=alpha, beta=beta, residual=trace_norm(x))


def _haar_diagonal(d: int) -> np.ndarray:
    """h with Omega_haar = diag(h) in the adjoint frame; h is 0 on the 2 (d^2 - 1) mixed entries."""
    h = np.pad(np.full((d * d - 1, d * d - 1), 1 / (d**2 * (d**2 - 1))), (1, 0))
    h[0, 0] = 1 / d**2
    return h.reshape(-1)


def ideal_choi(d: int) -> np.ndarray:
    """Omega_haar = P1 / d^2 + P2 / (d^2 (d^2 - 1)) in closed form (d^4 x d^4, real), with
    P1 = p (x) p, P2 = q (x) q, p = phi phi^T = Phi_d, q = 1 - p and phi = vec(1)/sqrt(d). The real
    Liouville basis fixes phi, so this is Omega_haar there as in the computational basis."""
    p = np.outer(*[np.eye(d).reshape(-1)] * 2) / d
    q = np.eye(d * d) - p
    return np.kron(p, p) / d**2 + np.kron(q, q) / (d**2 * (d**2 - 1))


def ensemble_choi(e: UnitaryEnsemble) -> np.ndarray:
    """Second-moment operator T Omega T^dagger of an ensemble (d^4 x d^4, real PSD, trace 1).

    T = t (x) conj(t), where the unitary t maps a Hermitian d x d matrix to its real coordinates
    (Gross, Audenaert and Eisert, J. Math. Phys. 48, 052104 (2007)): (i, i) stays, and for
    i < a, (i, a) becomes sqrt(2) Re and (a, i) sqrt(2) Im. As t fixes vec(1), T fixes
    Phi (x) 1, 1 (x) Phi, Omega_haar and Phi_{d^2}, so every (unitarily invariant) grade is
    unchanged. The real rows sqrt(p_k) vec(t (U_k (x) conj(U_k)) t^dagger) are filled key
    block by key block into one buffer of at most d^4 rows, whose Gram is added up over groups of
    d^4 keys; so nothing held is larger than Omega, and N <= d^4 keys give one Gram.
    """
    d = e.d
    # t z = c1 z + c2 z_swap on a vec z over (i, a), where z_swap[i, a] = z[a, i]
    up = np.triu(np.ones((d, d)), 1) / math.sqrt(2)
    c1, c2 = np.eye(d) + up + 1j * up.T, up - 1j * up.T
    rows = np.empty((min(e.size, d**4), d**4))
    for start in range(0, e.size, d**4):
        us, ws = e.unitaries[start : start + d**4], e.weights[start : start + d**4]
        for block in key_blocks(len(us), d**4):
            u = us[block]
            scaled = np.sqrt(ws[block])[:, None, None] * u
            # [k, i, a, j, b] = U[i, j] conj(U[a, b]); apply conj(t) on (j, b), then t on (i, a)
            w = np.einsum("kij,kab->kiajb", scaled, u.conj())
            w = w * c1.conj() + w.swapaxes(3, 4) * c2.conj()
            w = w * c1[:, :, None, None] + w.swapaxes(1, 2) * c2[:, :, None, None]
            rows[block] = w.real.reshape(len(w), -1)
        if start:
            omega += gram_choi(rows[: len(us)], d * d)  # no group's Gram outlives the group
        else:
            omega = gram_choi(rows[: len(us)], d * d)
    return omega


def one_design_distance(e: UnitaryEnsemble) -> float:
    """Trace distance of the average encryption Choi operator from tau (x) tau = 1/d^2. Its
    d^2 x d^2 Gram is added up over the groups of d^4 keys that Omega's is, so the scaled keys
    held (at most d^6 entries) do not grow with N."""
    d = e.d
    groups = [slice(s, s + d**4) for s in range(0, e.size, d**4)]
    g = sum(gram_choi(np.sqrt(e.weights[k])[:, None] * e.unitaries[k].reshape(-1, d * d), d)
            for k in groups)
    g.flat[:: d * d + 1] -= 1 / d**2
    return trace_norm(g)


def frame_potential(e: UnitaryEnsemble, omega: np.ndarray | None = None) -> float:
    """Second frame potential sum_{k,l} p_k p_l |tr(U_k^dagger U_l)|^4, as d^4 tr Omega^2.

    Omega is ``omega`` when given (it must be ``ensemble_choi(e)``), else it
    is built here; the d^4 x d^4 operator replaces the N^2 pairwise traces,
    so memory does not grow with N^2. Since FP - 2 = d^4 ||Omega - Omega_haar||_F^2,
    the minimum value 2 is attained exactly on unitary 2-designs.
    """
    if omega is None:
        omega = ensemble_choi(e)
    return e.d**4 * float(np.vdot(omega, omega).real)


def ensemble_entropy(e: UnitaryEnsemble) -> float:
    """Shannon entropy of the key distribution, in bits."""
    w = e.weights[e.weights > 0]
    return float(-np.sum(w * np.log2(w)))


def _binary_entropy_bits(x: float) -> float:
    if x == 0 or x == 1:
        return 0.0
    return float(-x * math.log2(x) - (1 - x) * math.log2(1 - x))


def entropy_bound(d: int, theta: float) -> float:
    """Lower bound, in bits, on the key entropy of a theta-approximate scheme.

    Evaluates H2(1/d^2) + 2 (1 - 1/d^2) log2(d^2 - 1) - 4 theta log2(d) - H2(theta),
    valid for 0 <= theta <= 1/e. At theta = 0 this is the entropy of the ideal
    second-moment operator.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not 0 <= theta <= 1 / math.e:
        raise ValueError(f"theta must lie in [0, 1/e], got {theta}")
    dd = d * d
    return (
        _binary_entropy_bits(1 / dd)
        + 2 * (1 - 1 / dd) * math.log2(dd - 1)
        - 4 * theta * math.log2(d)
        - _binary_entropy_bits(theta)
    )


def rank_bound(d: int) -> int:
    """Minimum number of unitaries in any exact 2-design: (d^2 - 1)^2 + 1."""
    return (d * d - 1) ** 2 + 1


def conjectured_rank_bound(d: int) -> int:
    """Conjectured (unenforced) improvement d^2 (d^2 - 1); informational only."""
    return d * d * (d * d - 1)


def _support_deviation(omega: np.ndarray, d: int):
    """(X_s, r, leak) of X = (H (x) H) (Omega - Omega_haar) (H (x) H), where Omega_haar = diag(h):
    X_s is X's block on the support h > 0 (a new array), r the Frobenius norm of X's 2 (d^2 - 1)
    mixed rows (h = 0) and leak the sum of their diagonal, tr Omega - tr((P1 + P2) Omega).

    H is the Householder reflection taking phi = vec(1)/sqrt(d) to e_0: on a d^2 axis, it is the
    d x d block ``house`` on the d diagonal coordinates (i, i) and 1 elsewhere; H^2 = 1.
    ``omega`` is only read, a few first-axis slabs at a time: H mixes only the d diagonal slabs
    (i, i), which are rotated together, and the others go in the groups of :func:`key_blocks`, at
    d^6 entries per slab. So no rotated d^4 x d^4 copy is made.
    """
    dd = d * d
    v = np.eye(d)[0] - 1 / math.sqrt(d)
    house = np.eye(d) - 2 * np.outer(v, v) / (v @ v)
    h = _haar_diagonal(d)
    support = h > 0
    at = np.where(support, np.cumsum(support), np.cumsum(~support)) - 1  # row index in xs or mixed
    y = omega.reshape((dd,) * 4)
    dtype = np.result_type(omega, np.float64)
    xs = np.empty((np.count_nonzero(support),) * 2, dtype=dtype)
    mixed = np.empty((dd * dd - len(xs), dd * dd), dtype=dtype)
    diagonal, rest = range(0, dd, d + 1), [m for m in range(dd) if m % (d + 1)]
    for slabs in [diagonal] + [rest[block] for block in key_blocks(len(rest), d**6)]:
        if slabs is diagonal:
            slab = np.tensordot(house, y[:: d + 1], axes=1)  # a new array
        else:
            slab = y[slabs].astype(dtype, copy=False)  # a copy
        for axis in (1, 2, 3):
            z = np.moveaxis(slab, axis, 0)[:: d + 1]  # a view of slab: the diagonal coordinates
            z[...] = np.tensordot(house, z, axes=1)
        for m, rows in zip(slabs, slab.reshape(len(slabs), dd, dd * dd)):
            idx = m * dd + np.arange(dd)  # the rows' indices in X
            rows[np.arange(dd), idx] -= h[idx]
            keep = support[idx]
            xs[at[idx[keep]]] = rows[keep].compress(support, axis=1)
            mixed[at[idx[~keep]]] = rows[~keep]
        del slab, rows, z  # views of slab too: free it before the next is made
    leak = np.sum(mixed[np.arange(len(mixed)), np.flatnonzero(~support)])
    return xs, float(np.linalg.norm(mixed)), float(np.real(leak))


def _grade(xs: np.ndarray, mixed: float, leak: float, d: int) -> tuple[float, float | None, int]:
    """(T, theta, rank) from :func:`_support_deviation`'s (X_s, r, leak): the one place certify's
    grades are decided; ``xs`` is scaled in place. T = sum |eig(X_s)| + 2 sqrt(2 (d^2 - 1)) r >=
    ||X_s||_1 + ||R||_1 >= ||X||_1, R being X's mixed rows and columns (rank <= 4 (d^2 - 1),
    ||R||_F <= sqrt(2) r), which vanish for unitary keys and are O(eps) within UNITARY_INGEST_TOL.
    mu = eig(A X_s A), A = diag(h^(-1/2)) on h > 0 (0 on the mixed entries, which drop only zero
    eigenvalues); theta = max |mu|, or None if ``leak`` > SUPPORT_LEAK_TOL. mu + 1 = eig(A Omega A),
    each t in [d^2, d^2 (d^2 - 1)] times one of Omega's (Ostrowski); the rank counts those above
    d^2 (d^2 - 1) RANK_TOL, so an eigenvalue of Omega above (d^2 - 1) RANK_TOL always counts and one
    at or below RANK_TOL never does. One below minus that cut: Omega is not PSD, a ValueError."""
    mixed *= 2 * math.sqrt(2 * (d * d - 1))
    two_dist = float(np.sum(np.abs(np.linalg.eigvalsh(xs)))) + mixed  # xs is symmetric
    h = _haar_diagonal(d)
    s = h[h > 0] ** -0.5
    xs *= s[:, None]
    xs *= s
    mu = np.linalg.eigvalsh(xs)
    theta = None if leak > SUPPORT_LEAK_TOL else float(np.max(np.abs(mu)))
    cut = d * d * (d * d - 1) * RANK_TOL
    if mu[0] + 1 < -cut:
        raise ValueError(f"Omega is not positive semidefinite (min eig(A Omega A) {mu[0] + 1:.3e})")
    return two_dist, theta, int(np.count_nonzero(mu + 1 > cut))


def multiplicative_theta(omega: np.ndarray, d: int) -> float | None:
    """Certify's theta of ``omega`` (see :func:`_grade`): max |eig(A (Omega - Omega_haar) A)|, the
    smallest theta with (1-theta) Omega_haar <= Omega <= (1+theta) Omega_haar when Omega lies in
    P1 + P2; None if the support leak exceeds SUPPORT_LEAK_TOL; a ValueError if Omega is not PSD."""
    return _grade(*_support_deviation(omega, d), d)[1]


def _merge_equal_keys(e: UnitaryEnsemble) -> UnitaryEnsemble:
    """``e`` with keys of equal complex128 bytes merged, weights summed, in first-occurrence order
    (``e`` itself if no two are equal). No tolerance: a bit, a -0.0 or a phase keeps keys apart.
    No key is copied: a stable index sort by key bytes, then a compare of neighbours' words."""
    keys = np.ascontiguousarray(e.unitaries).reshape(e.size, -1)
    order = np.argsort(keys.view(np.dtype((np.void, keys[0].nbytes)))[:, 0], kind="stable")
    words, starts = keys.view(np.uint64), np.ones(e.size, dtype=bool)
    for block in key_blocks(e.size - 1, e.d * e.d):  # the neighbours (j, j + 1) for j in block
        w = words[order[block.start : block.stop + 1]]
        starts[block.start + 1 : block.stop + 1] = np.any(w[1:] != w[:-1], axis=1)
    first = order[starts]  # each run's first key: the stable sort keeps a run in key order
    if len(first) == e.size:
        return e
    rank = np.argsort(first)
    weights = np.bincount(np.cumsum(starts) - 1, weights=e.weights[order])[rank]
    return UnitaryEnsemble(e.d, weights, e.unitaries[first[rank]])


def certify_design(e: UnitaryEnsemble, tol: float = DEFAULT_CERT_TOL) -> CertificationReport:
    """Grade an ensemble as an encryption scheme (1-design) and 2-design.

    The additive grade is the trace norm ||Omega - Omega_haar||_1 on second-moment operators;
    d^2 times it upper-bounds the diamond distance of the corresponding twirls. The
    multiplicative grade is the operator sandwich deviation (see :func:`multiplicative_theta`),
    next to the support leak that decides whether it exists. :func:`_grade` decides both, the rank
    of Omega and the PSD check from one eigensolve each of the support block, which is read off
    Omega slab by slab. Frame potential (FP = d^4 tr Omega^2, read off the same Omega) and
    key-entropy diagnostics are filled in alongside; nothing held is larger than Omega. ``tol``
    must be finite and > 0.

    Omega, FP and the 1-design distance are built from the ``distinct_keys`` keys left when keys of
    equal complex128 bytes are merged, weights summed: equal keys give equal rows, so the sums are
    unchanged and the merge is exact. ``n`` and ``entropy_bits`` describe the keys of ``e``.
    """
    check_tol(tol, "tol")
    d = e.d
    merged = _merge_equal_keys(e)
    omega = ensemble_choi(merged)
    fp = frame_potential(merged, omega)
    xs, mixed, leak = _support_deviation(omega, d)  # omega itself is left as built
    del omega  # freed before the grader's two eigensolves
    two_dist, theta, rank = _grade(xs, mixed, leak, d)
    one_dist = one_design_distance(merged)
    bound = rank_bound(d)
    return CertificationReport(
        d=d,
        n=e.size,
        distinct_keys=merged.size,
        one_design_dist=one_dist,
        two_design_trace_dist=two_dist,
        two_design_diamond_upper=d * d * two_dist,
        multiplicative_theta=theta,
        support_leak=leak,
        omega_rank=rank,
        rank_bound=bound,
        conjectured_rank_bound=conjectured_rank_bound(d),
        frame_potential=fp,
        entropy_bits=ensemble_entropy(e),
        entropy_bound_bits=entropy_bound(d, two_dist) if two_dist <= 1 / math.e else None,
        passes_2design_at=tol,
        passes_one_design=one_dist <= tol,
        passes_two_design=two_dist <= tol,
        passes_multiplicative=None if theta is None else theta <= tol,
        passes_rank_bound=rank >= bound,
    )

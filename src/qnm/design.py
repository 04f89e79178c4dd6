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

Omega is held in the real Liouville basis (:func:`ensemble_choi`) and graded, in real
arithmetic, in the adjoint frame whose first basis element is 1/sqrt(d). There U (x) conj(U)
is 1 (+) R_U, and Omega_haar, its support and the sandwich A are diagonal, with 0 on the mixed
entries (Gross, Audenaert and Eisert, J. Math. Phys. 48, 052104 (2007)). Certifying takes one
d^4 eigensolve (the trace norm) and one on the 1 + (d^2 - 1)^2 support (theta and rank).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_TOL, check_tol, gram_choi, maximally_mixed, trace_norm

UNITARY_INGEST_TOL = 1e-8  # the largest allowed entry of U^dagger U - 1, per key
WEIGHT_TOL = 1e-12  # the bound on |sum of the weights - 1|
DEFAULT_CERT_TOL = 1e-9  # the default pass/fail bound for every grade (certify's tol)
SUPPORT_LEAK_TOL = 1e-9  # multiplicative_theta is None (null) when support_leak is above it


@dataclass
class UnitaryEnsemble:
    """A weighted collection {p_k, U_k} of d x d unitaries."""

    d: int
    weights: np.ndarray
    unitaries: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.unitaries = np.asarray(self.unitaries, dtype=complex)
        d = int(self.d)
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
        if abs(self.weights.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {self.weights.sum()!r}")
        gram = self.unitaries.conj().transpose(0, 2, 1) @ self.unitaries
        dev = np.max(np.abs(gram - np.eye(d)), axis=(1, 2))
        bad = np.flatnonzero(dev > UNITARY_INGEST_TOL)
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


def max_entangled(d: int) -> np.ndarray:
    """Maximally entangled state Phi_d = 1/d sum_{ij} |ii><jj| on two d-level systems."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0
    return np.outer(phi, phi) / d


def iso_project(x: np.ndarray, d: int):
    """Project a d^2 x d^2 operator onto the isotropic span.

    Returns (IsotropicDecomposition, projected) where
    projected = alpha * Phi_d + beta * (1 - Phi_d) with

        alpha = tr(X Phi_d),   beta = tr(X (1 - Phi_d)) / (d^2 - 1),

    and residual is the trace norm of the off-span part X - projected.
    The map coincides with averaging (U (x) conj(U)) X (U (x) conj(U))^dagger
    over the Haar measure.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (d * d, d * d):
        raise ValueError(f"expected a {d * d} x {d * d} operator, got shape {x.shape}")
    phi = max_entangled(d)
    alpha = float(np.real(np.trace(x @ phi)))
    beta = float(np.real(np.trace(x)) - alpha) / (d * d - 1)
    projected = alpha * phi + beta * (np.eye(d * d) - phi)
    residual = trace_norm(x - projected)
    return IsotropicDecomposition(alpha=alpha, beta=beta, residual=residual), projected


def _adjoint_frame(x: np.ndarray, d: int) -> np.ndarray:
    """(H (x) H) x (H (x) H) of a d^4 x d^4 ``x``, as a new array; H^2 = 1, so it also maps back.

    H, the Householder reflection taking phi = vec(1)/sqrt(d) to e_0, moves only the d diagonal
    coordinates (i, i) of a d^2 axis: one d x d product on each of the four axes.
    """
    v = np.eye(d)[0] - 1 / math.sqrt(d)
    h = np.eye(d) - 2 * np.outer(v, v) / (v @ v)
    y = np.array(x, dtype=np.result_type(x, np.float64)).reshape((d * d,) * 4)
    for axis in range(4):
        z = np.moveaxis(y, axis, 0)[:: d + 1]  # a view of y: the diagonal coordinates
        z[...] = np.tensordot(h, z, axes=1)
    return y.reshape(x.shape)


def _haar_diagonal(d: int) -> np.ndarray:
    """h with Omega_haar = diag(h) in the adjoint frame; h is 0 on the 2 (d^2 - 1) mixed entries."""
    h = np.pad(np.full((d * d - 1, d * d - 1), 1 / (d**2 * (d**2 - 1))), (1, 0))
    h[0, 0] = 1 / d**2
    return h.reshape(-1)


def ideal_choi(d: int) -> np.ndarray:
    """Second-moment operator of the Haar twirl, in closed form (d^4 x d^4, real)."""
    return _adjoint_frame(np.diag(_haar_diagonal(d)), d)


_ROW_BLOCK = 1 << 18  # complex entries per key block of ensemble_choi's intermediate


def ensemble_choi(e: UnitaryEnsemble) -> np.ndarray:
    """Second-moment operator T Omega T^dagger of an ensemble (d^4 x d^4, real PSD, trace 1).

    T = t (x) conj(t), where the unitary t maps a Hermitian d x d matrix to its real coordinates
    (Gross, Audenaert and Eisert, J. Math. Phys. 48, 052104 (2007)): (i, i) stays, and for
    i < a, (i, a) becomes sqrt(2) Re and (a, i) sqrt(2) Im. As t fixes vec(1), T fixes
    Phi (x) 1, 1 (x) Phi, Omega_haar and Phi_{d^2}, so every (unitarily invariant) grade is
    unchanged. The real rows sqrt(p_k) vec(t (U_k (x) conj(U_k)) t^dagger) are filled key
    block by key block.
    """
    d = e.d
    # t z = c1 z + c2 z_swap on a vec z over (i, a), where z_swap[i, a] = z[a, i]
    up = np.triu(np.ones((d, d)), 1) / math.sqrt(2)
    c1, c2 = np.eye(d) + up + 1j * up.T, up - 1j * up.T
    scaled = np.sqrt(e.weights)[:, None, None] * e.unitaries
    rows = np.empty((e.size, d**4))
    step = max(1, _ROW_BLOCK // d**4)
    for k in range(0, e.size, step):
        # [k, i, a, j, b] = U[i, j] conj(U[a, b]); apply conj(t) on (j, b), then t on (i, a)
        w = np.einsum("kij,kab->kiajb", scaled[k : k + step], e.unitaries[k : k + step].conj())
        w = w * c1.conj() + w.swapaxes(3, 4) * c2.conj()
        w = w * c1[:, :, None, None] + w.swapaxes(1, 2) * c2[:, :, None, None]
        rows[k : k + step] = w.real.reshape(len(w), -1)
    return gram_choi(rows, d * d)


def one_design_distance(e: UnitaryEnsemble) -> float:
    """Trace distance of the average encryption Choi operator from tau (x) tau."""
    d = e.d
    tau = maximally_mixed(d)
    rows = np.sqrt(e.weights)[:, None] * e.unitaries.reshape(e.size, -1)
    return trace_norm(gram_choi(rows, d) - np.kron(tau, tau))


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
    if x < 0 or x > 1:
        raise ValueError(f"binary entropy argument must lie in [0, 1], got {x}")
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


def _haar_deviation(omega: np.ndarray, d: int):
    """(X, h, leak): X = (H (x) H) (Omega - Omega_haar) (H (x) H) as a new array, with
    Omega_haar = diag(h) there, and the support leak, the sum of X's diagonal where h is 0."""
    x = _adjoint_frame(omega, d)
    h = _haar_diagonal(d)
    x.flat[:: len(h) + 1] -= h
    return x, h, float(np.real(np.sum(np.diagonal(x)[h == 0])))


def _sandwich_spectrum(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Ascending eig(A X A) on the support of h, A = diag(h^(-1/2)) there; ``x`` is left as is.
    A is 0 on the 2 (d^2 - 1) mixed entries, so dropping them drops only zero eigenvalues."""
    s = h[h > 0] ** -0.5
    return np.linalg.eigvalsh(x[np.ix_(h > 0, h > 0)] * s[:, None] * s)


def multiplicative_theta(omega: np.ndarray, d: int) -> float | None:
    """Largest relative eigenvalue deviation of Omega on the ideal support.

    In the adjoint frame Omega_haar = diag(h), so its pseudo-inverse square root is A = diag(s),
    s = h^(-1/2) on P1 + P2 and 0 on the mixed entries. The result, max |eig(A (Omega -
    Omega_haar) A)|, is the smallest theta with (1-theta) Omega_haar <= Omega <= (1+theta)
    Omega_haar when Omega lies inside P1 + P2; it is None, as in :func:`certify_design`, if the
    support leak tr Omega - tr((P1 + P2) Omega) exceeds ``SUPPORT_LEAK_TOL``.
    """
    x, h, leak = _haar_deviation(omega, d)
    return None if leak > SUPPORT_LEAK_TOL else float(np.max(np.abs(_sandwich_spectrum(x, h))))


def certify_design(e: UnitaryEnsemble, tol: float = DEFAULT_CERT_TOL) -> CertificationReport:
    """Grade an ensemble as an encryption scheme (1-design) and 2-design.

    The additive grade is the trace norm ||Omega - Omega_haar||_1 on second-moment operators;
    d^2 times it upper-bounds the diamond distance of the corresponding twirls. The
    multiplicative grade is the operator sandwich deviation (see :func:`multiplicative_theta`),
    next to the support leak that decides whether it exists. The rank of Omega (at
    ``RANK_TOL``) comes from the same support eigensolve as theta. Frame potential (FP = d^4 tr
    Omega^2, read off the same Omega) and key-entropy diagnostics are filled in alongside;
    nothing held grows with N^2. ``tol`` must be finite and > 0.
    """
    check_tol(tol, "tol")
    d = e.d
    omega = ensemble_choi(e)
    fp = frame_potential(e, omega)
    x, h, leak = _haar_deviation(omega, d)  # a rotated copy: omega itself is left as built
    del omega
    two_dist = float(np.sum(np.abs(np.linalg.eigvalsh(x))))  # x is symmetric by construction
    mu = _sandwich_spectrum(x, h)  # mu + 1 = eig(A Omega A), of Omega's rank (Sylvester)
    theta = None if leak > SUPPORT_LEAK_TOL else float(np.max(np.abs(mu)))
    cut = d * d * (d * d - 1) * RANK_TOL
    if mu[0] + 1 < -cut:
        raise ValueError(f"Omega is not positive semidefinite (min eig(A Omega A) {mu[0] + 1:.3e})")
    rank = int(np.count_nonzero(mu + 1 > cut))
    one_dist = one_design_distance(e)
    bound = rank_bound(d)
    return CertificationReport(
        d=d,
        n=e.size,
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

"""Quantum channels in Kraus form and the Choi representation.

A channel Lambda with Kraus operators {K_m} acts as rho -> sum_m K_m rho
K_m^dagger. Its Choi operator is omega = (Lambda (x) id) Phi_d (trace at
most 1, exactly 1 for trace-preserving channels), and the channel is
recovered through Lambda(rho) = d tr_2((1 (x) rho^T) omega), with the
transpose taken in the computational basis. :func:`channel_from_choi` is the
one way from a PSD operator to Kraus operators: the replacement attack
rho -> eta tr(rho) is the channel whose Choi operator is eta (x) tau.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import HERM_TOL, gram_choi, hermitian_defect

CPTNI_TOL = 1e-10  # for sum K^dagger K - 1 (TP, TNI), Choi negativity and a state's trace
KRAUS_CUTOFF = 1e-12  # eigenvalues of d * omega at or below it give no Kraus operator


@dataclass
class KrausChannel:
    """A completely positive map on a d-level system given by M Kraus operators of shape d x d.

    ``kraus_ops`` may be passed as any sequence of such matrices; it is
    stored as one complex array of shape (M, d, d), so ``kraus_ops[m]``
    is K_m and M may be 0.
    """

    d: int
    kraus_ops: np.ndarray

    def __post_init__(self):
        shape = (self.d, self.d)
        try:
            ops = np.asarray(self.kraus_ops, dtype=complex)
        except ValueError:  # operators of unequal shapes
            ops = None
        if ops is None or (ops.size and ops.shape[1:] != shape):
            m = next(m for m, k in enumerate(self.kraus_ops) if np.shape(k) != shape)
            raise ValueError(
                f"Kraus operator {m} has shape {np.shape(self.kraus_ops[m])}, expected {shape}"
            )
        # a NaN or inf makes the sum non-finite; only then (or on overflow) is each entry tested
        with np.errstate(over="ignore", invalid="ignore"):
            total = ops.sum()
        if not np.isfinite(total) and not np.all(np.isfinite(ops)):
            raise ValueError("Kraus operators must be finite")
        self.kraus_ops = ops.reshape(-1, *shape)


@dataclass
class CptniReport:
    is_tni: bool
    is_tp: bool
    defect: float


def validate_cptni(ch: KrausChannel) -> CptniReport:
    """Classify a Kraus channel as trace preserving / non-increasing.

    ``defect`` is the operator norm of sum K^dagger K - 1, read off the eigenvalues of that
    Hermitian sum. Kraus form is completely positive by construction.
    """
    stacked = ch.kraus_ops.reshape(-1, ch.d)  # the K_m on top of each other
    evs = np.linalg.eigvalsh(stacked.conj().T @ stacked)
    defect = float(max(1 - evs[0], evs[-1] - 1))
    is_tni = bool(evs[-1] <= 1 + CPTNI_TOL)
    return CptniReport(is_tni=is_tni, is_tp=defect <= CPTNI_TOL, defect=defect)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    """Conjugation by ``u``; a ValueError if u^dagger u is not 1 within ``CPTNI_TOL``."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or len(u) != u.shape[1]:  # before len(u) is read as d
        raise ValueError(f"u must be a square matrix, got shape {u.shape}")
    ch = KrausChannel(d=len(u), kraus_ops=[u])
    rep = validate_cptni(ch)
    if not rep.is_tp:
        raise ValueError(f"matrix is not unitary (defect {rep.defect:.3e})")
    return ch


def constant_channel(eta0: np.ndarray) -> KrausChannel:
    """The replacement attack rho -> eta0 * tr(rho): the channel with Choi operator eta0 (x) tau."""
    eta0 = np.asarray(eta0, dtype=complex)
    if eta0.ndim != 2 or len(eta0) != eta0.shape[1]:
        raise ValueError(f"replacement state eta0 must be a square matrix, got shape {eta0.shape}")
    if not np.all(np.isfinite(eta0)):
        raise ValueError("replacement state must be finite")
    if not abs(np.trace(eta0) - 1) <= CPTNI_TOL:
        raise ValueError(f"replacement state has trace {complex(np.trace(eta0)):.6g}, not 1")
    try:  # eta0 (x) tau is Hermitian and PSD exactly when eta0 is
        return channel_from_choi(np.kron(eta0, np.eye(len(eta0)) / len(eta0)))
    except ValueError as exc:
        raise ValueError(f"replacement state must be Hermitian and PSD ({exc})") from None


def choi_of(ch: KrausChannel) -> np.ndarray:
    """Choi operator (Lambda (x) id) Phi_d of a channel on a d-level system.

    Computed as 1/d sum_m vec(K_m) vec(K_m)^dagger with row-major vec, which
    places the channel output on the first tensor factor and the reference
    on the second.
    """
    return gram_choi(ch.kraus_ops.reshape(-1, ch.d * ch.d), ch.d)


def channel_from_choi(omega: np.ndarray) -> KrausChannel:
    """Kraus representation recovered from a Choi operator.

    Eigendecomposes d * omega and keeps modes with eigenvalue above ``KRAUS_CUTOFF``; the result
    reproduces d tr_2((1 (x) rho^T) omega) on any input. Raises ValueError if omega is not
    Hermitian within ``linalg.HERM_TOL`` or has an eigenvalue of d * omega below -``CPTNI_TOL``.
    """
    omega = np.asarray(omega, dtype=complex)
    dd = omega.shape[0]
    d = int(round(np.sqrt(dd)))
    if omega.shape != (dd, dd) or d * d != dd:
        raise ValueError(f"Choi operator must be d^2 x d^2, got shape {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise ValueError("Choi operator must be finite")
    if not hermitian_defect(omega) <= HERM_TOL:
        raise ValueError("Choi operator must be Hermitian")
    vals, vecs = np.linalg.eigh(omega * d)
    if vals[0] < -CPTNI_TOL:
        raise ValueError(f"Choi operator is not PSD (min eigenvalue {vals[0]:.3e})")
    keep = vals > KRAUS_CUTOFF
    ops = (np.sqrt(vals[keep]) * vecs[:, keep]).T.reshape(-1, d, d)
    return KrausChannel(d=d, kraus_ops=ops)


def random_cptni_channel(
    d: int, rng: "np.random.Generator", num_kraus: int | None = None
) -> KrausChannel:
    """A random completely positive trace non-increasing channel.

    Draws a Haar-random Stinespring isometry with ``num_kraus`` environment
    levels (random in 1..d^2 when omitted) and rescales it by a random
    factor in (0, 1], so roughly half the draws are strictly subnormalized.
    """
    if num_kraus is None:
        num_kraus = int(rng.integers(1, d * d + 1))
    g = rng.normal(size=(num_kraus * d, d)) + 1j * rng.normal(size=(num_kraus * d, d))
    v, _ = np.linalg.qr(g)
    scale = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 1.0))
    return KrausChannel(d=d, kraus_ops=np.sqrt(scale) * v.reshape(num_kraus, d, d))

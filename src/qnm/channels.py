"""Quantum channels in Kraus form and the Choi representation.

A channel Lambda with Kraus operators {K_m} acts as rho -> sum_m K_m rho
K_m^dagger. Its Choi operator is omega = (Lambda (x) id) Phi_d (trace at
most 1, exactly 1 for trace-preserving channels), and the channel is
recovered through Lambda(rho) = d tr_2((1 (x) rho^T) omega), with the
transpose taken in the computational basis. The replacement attack
rho -> eta tr(rho) is its state eta (replacement_state) or its Kraus form (constant_channel).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import HERM_TOL, gram_choi, hermitian_defect

CPTNI_TOL = 1e-10  # for sum K^dagger K - 1 (TP, TNI) and a state's trace and negativity
KRAUS_CUTOFF = 1e-12  # eigenvalues of a replacement state eta at or below it give no Kraus operator


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
        except (TypeError, ValueError):  # operators of unequal shapes, or entries not numbers
            ops = None
        if ops is None or (ops.size and ops.shape[1:] != shape):
            m = next((m for m, k in enumerate(self.kraus_ops) if np.shape(k) != shape), None)
            if m is None:  # every shape is right, so numpy could not convert an entry
                raise ValueError("Kraus operators must be numbers")
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
    Hermitian sum, which must be finite (huge finite operators can overflow it). Kraus form is
    completely positive by construction.
    """
    stacked = ch.kraus_ops.reshape(-1, ch.d)  # the K_m on top of each other
    with np.errstate(over="ignore", invalid="ignore"):
        total = stacked.conj().T @ stacked
    if not np.all(np.isfinite(total)):  # eigvalsh would fail with LAPACK's bare message
        raise ValueError("sum K^dagger K must be finite")
    evs = np.linalg.eigvalsh(total)
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


def replacement_state(eta0: np.ndarray) -> np.ndarray:
    """eta0 as a complex array, once checked to be a state (else a ValueError): finite and square,
    of trace 1 and PSD within ``CPTNI_TOL`` and Hermitian within ``HERM_TOL``."""
    eta0 = np.asarray(eta0, dtype=complex)
    if eta0.ndim != 2 or len(eta0) != eta0.shape[1]:
        raise ValueError(f"replacement state eta0 must be a square matrix, got shape {eta0.shape}")
    if not np.all(np.isfinite(eta0)):
        raise ValueError("replacement state must be finite")
    if not abs(np.trace(eta0) - 1) <= CPTNI_TOL:
        raise ValueError(f"replacement state has trace {complex(np.trace(eta0)):.6g}, not 1")
    low = np.linalg.eigvalsh(eta0)[0]  # reads the lower triangle only: the defect covers the rest
    if not (hermitian_defect(eta0) <= HERM_TOL and low >= -CPTNI_TOL):
        raise ValueError("replacement state must be Hermitian and PSD (Hermiticity defect "
                         f"{hermitian_defect(eta0):.3e}, min eigenvalue {low:.3e})")
    return eta0


def constant_channel(eta0: np.ndarray) -> KrausChannel:
    """The replacement attack rho -> eta0 tr(rho) in Kraus form, eta0 checked by replacement_state:
    its eigenpairs (lambda_i, psi_i) with lambda_i > ``KRAUS_CUTOFF``, ascending, give the Kraus
    operators sqrt(lambda_i) |psi_i><j|, i-major: rank(eta0) * d of them."""
    eta0 = replacement_state(eta0)
    vals, vecs = np.linalg.eigh(eta0)
    keep, d = vals > KRAUS_CUTOFF, len(eta0)
    ops = np.einsum("ai,jb->ijab", np.sqrt(vals[keep]) * vecs[:, keep], np.eye(d))
    return KrausChannel(d=d, kraus_ops=ops.reshape(-1, d, d))


def choi_of(ch: KrausChannel) -> np.ndarray:
    """Choi operator (Lambda (x) id) Phi_d of a channel on a d-level system.

    Computed as 1/d sum_m vec(K_m) vec(K_m)^dagger with row-major vec, which
    places the channel output on the first tensor factor and the reference
    on the second.
    """
    return gram_choi(ch.kraus_ops.reshape(-1, ch.d * ch.d), ch.d)


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

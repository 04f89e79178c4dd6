"""Quantum channels in Kraus form and the Choi representation.

A channel Lambda with Kraus operators {K_m} acts as rho -> sum_m K_m rho
K_m^dagger. Its Choi operator is omega = (Lambda (x) id) Phi_d (trace at
most 1, exactly 1 for trace-preserving channels), and the channel is
recovered through Lambda(rho) = d tr_2((1 (x) rho^T) omega), with the
transpose taken in the computational basis.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import gram_choi, maximally_mixed, partial_trace

CPTNI_TOL = 1e-10
KRAUS_CUTOFF = 1e-12


@dataclass
class KrausChannel:
    """A completely positive map given by M Kraus operators of shape d_out x d_in.

    ``kraus_ops`` may be passed as any sequence of such matrices; it is
    stored as one complex array of shape (M, d_out, d_in), so ``kraus_ops[m]``
    is K_m and M may be 0.
    """

    d_in: int
    d_out: int
    kraus_ops: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        shape = (self.d_out, self.d_in)
        try:
            ops = np.asarray(self.kraus_ops, dtype=complex)
        except ValueError:  # operators of unequal shapes
            ops = None
        if ops is None or (ops.size and ops.shape[1:] != shape):
            m = next(m for m, k in enumerate(self.kraus_ops) if np.shape(k) != shape)
            raise ValueError(
                f"Kraus operator {m} has shape {np.shape(self.kraus_ops[m])}, expected {shape}"
            )
        if not np.all(np.isfinite(ops)):
            raise ValueError("Kraus operators must be finite")
        self.kraus_ops = ops.reshape(-1, *shape)

    def completeness(self) -> np.ndarray:
        """sum_m K_m^dagger K_m (equals 1 for trace-preserving channels)."""
        stacked = self.kraus_ops.reshape(-1, self.d_in)  # the K_m on top of each other
        return stacked.conj().T @ stacked


@dataclass
class CptniReport:
    is_cp: bool
    is_tni: bool
    is_tp: bool
    defect: float


def validate_cptni(ch: KrausChannel) -> CptniReport:
    """Classify a Kraus channel as trace preserving / non-increasing.

    ``defect`` is the operator norm of sum K^dagger K - 1. Kraus form is
    completely positive by construction, so is_cp is always true.
    """
    comp = ch.completeness()
    eye = np.eye(ch.d_in)
    defect = float(np.linalg.norm(comp - eye, ord=2))
    evs = np.linalg.eigvalsh((comp + comp.conj().T) / 2)
    is_tni = bool(evs[-1] <= 1 + CPTNI_TOL)
    is_tp = defect <= CPTNI_TOL
    return CptniReport(is_cp=True, is_tni=is_tni, is_tp=is_tp, defect=defect)


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Evaluate sum_m K_m rho K_m^dagger."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.d_in, ch.d_in):
        raise ValueError(f"state has shape {rho.shape}, channel expects ({ch.d_in}, {ch.d_in})")
    if not np.all(np.isfinite(rho)):
        raise ValueError("state must be finite")
    return np.sum(ch.kraus_ops @ rho @ ch.kraus_ops.conj().transpose(0, 2, 1), axis=0)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(d_in=d, d_out=d, kraus_ops=[np.eye(d, dtype=complex)])


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    return KrausChannel(d_in=d, d_out=d, kraus_ops=[u])


def constant_channel(eta0: np.ndarray, tol: float = 1e-10) -> KrausChannel:
    """The replacement attack rho -> eta0 * tr(rho) for a density matrix eta0."""
    eta0 = np.asarray(eta0, dtype=complex)
    if not np.all(np.isfinite(eta0)):
        raise ValueError("replacement state must be finite")
    d = eta0.shape[0]
    if eta0.shape != (d, d) or np.max(np.abs(eta0 - eta0.conj().T)) > tol:
        raise ValueError("replacement state must be a Hermitian square matrix")
    vals, vecs = np.linalg.eigh(eta0)
    if vals[0] < -tol or abs(vals.sum() - 1.0) > tol:
        raise ValueError("replacement state must be positive semidefinite with unit trace")
    keep = vals > KRAUS_CUTOFF
    cols = np.sqrt(vals[keep]) * vecs[:, keep]
    # K_(l, j) = sqrt(lam_l) v_l <j| for each kept eigenpair (lam_l, v_l) and basis state j
    ops = cols.T[:, None, :, None] * np.eye(d)[None, :, None, :]
    return KrausChannel(d_in=d, d_out=d, kraus_ops=ops.reshape(-1, d, d))


def depolarizing_channel(d: int) -> KrausChannel:
    """The completely forgetful channel rho -> tau * tr(rho)."""
    return constant_channel(maximally_mixed(d))


def choi_of(ch: KrausChannel) -> np.ndarray:
    """Choi operator (Lambda (x) id) Phi_d of a channel with d_in = d_out = d.

    Computed as 1/d sum_m vec(K_m) vec(K_m)^dagger with row-major vec, which
    places the channel output on the first tensor factor and the reference
    on the second.
    """
    if ch.d_in != ch.d_out:
        raise ValueError("Choi operator requires d_in = d_out")
    return gram_choi(ch.kraus_ops.reshape(-1, ch.d_in * ch.d_out), ch.d_in)


def channel_from_choi(omega: np.ndarray, tol: float = 1e-10) -> KrausChannel:
    """Kraus representation recovered from a Choi operator.

    Eigendecomposes d * omega and keeps modes with eigenvalue above 1e-12;
    the result reproduces d tr_2((1 (x) rho^T) omega) on any input. Raises
    ValueError if omega is not PSD within ``tol``.
    """
    omega = np.asarray(omega, dtype=complex)
    dd = omega.shape[0]
    d = int(round(np.sqrt(dd)))
    if omega.shape != (dd, dd) or d * d != dd:
        raise ValueError(f"Choi operator must be d^2 x d^2, got shape {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise ValueError("Choi operator must be finite")
    if np.max(np.abs(omega - omega.conj().T)) > tol:
        raise ValueError("Choi operator must be Hermitian")
    vals, vecs = np.linalg.eigh(omega * d)
    if vals[0] < -tol:
        raise ValueError(f"Choi operator is not PSD (min eigenvalue {vals[0]:.3e})")
    keep = vals > KRAUS_CUTOFF
    ops = (np.sqrt(vals[keep]) * vecs[:, keep]).T.reshape(-1, d, d)
    return KrausChannel(d_in=d, d_out=d, kraus_ops=ops)


def choi_inverse_action(omega: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action d tr_2((1 (x) rho^T) omega), straight from the Choi operator."""
    omega = np.asarray(omega, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if omega.shape != (d * d, d * d):
        raise ValueError("Choi operator and state dimensions disagree")
    lifted = np.kron(np.eye(d), rho.T) @ omega
    return d * partial_trace(lifted, (d, d), keep=(0,))


def random_cptni_channel(d: int, rng: np.random.Generator, num_kraus: int | None = None) -> KrausChannel:
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
    return KrausChannel(d_in=d, d_out=d, kraus_ops=np.sqrt(scale) * v.reshape(num_kraus, d, d))

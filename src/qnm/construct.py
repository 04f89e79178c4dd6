"""The Weyl operators and the ensembles they generate: the one-time pad, the Clifford 2-design.

The single-qudit operators are the shift X|j> = |j+1 mod d> and the phase
Z|k> = exp(2 pi i k / d)|k>, combined as W(a, b) = X^a Z^b. Conjugating a
plaintext by a uniformly random Weyl operator is the standard d-dimensional
one-time pad, a 1-design: it hides the state perfectly but is maximally malleable.

For prime dimension p the Weyl operators and the Fourier and quadratic-phase
gates generate the full Clifford group; modulo global phases it has
p^5 - p^3 elements and, as a uniform ensemble, is an exact unitary
2-design (hence a perfect non-malleable encryption scheme with key length
at most 5 log2(p) bits). Approximate designs are produced by sampling
i.i.d. from an exact design; an operator Chernoff argument makes the
multiplicative error theta shrink like 1/sqrt(N).
"""

import math
from dataclasses import dataclass

import numpy as np

from .design import MAX_D, UnitaryEnsemble, rank_bound

PAULI_MAX_ENTRIES = 2**22  # most complex entries p^{4n} pauli_ensemble builds (64 MiB)
CLIFFORD_PRIME_CAP = 5  # the largest Clifford prime: certify at p = 7 takes 3.8 s and 226 MB
_PHASE_PICK_TOL = 0.1  # picks the phase entry: Clifford entries have modulus 0 or >= 1/sqrt(5)
_KEY_DECIMALS = 6  # a key's rounding: far coarser than round-off, far finer than entry gaps


def _shown(n: int) -> str:  # an integer in a range error: itself to 18 digits, else sign and size
    return str(n) if abs(n) < 10**18 else f"a{' negative' if n < 0 else 'n'} integer of 19+ digits"


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def weyl(d: int, a: int, b: int) -> np.ndarray:
    """The unitary W(a, b) = X^a Z^b on a d-level system.

    Exponents are reduced mod d; the global phase is fixed by this operator
    ordering (no extra prefactor).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    a %= d
    b %= d
    js = np.arange(d)
    w = np.zeros((d, d), dtype=complex)
    w[(js + a) % d, js] = np.exp(2j * np.pi * (b * js % d) / d)
    return w


def pauli_ensemble(p: int, n: int = 1) -> UnitaryEnsemble:
    """Uniform ensemble of the p^{2n} tensor-product Weyl operators on d = p^n.

    Key integers map to exponent vectors little-endian: base-p^2 digit i of
    the key is a_i + p * b_i for the i-th tensor factor. Each weight is
    p^{-2n}. This is a perfect 1-design (the quantum one-time pad) but never
    a 2-design.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {_shown(n)}")
    # the bound before trial division, which is slow for a huge p; logarithms never form p^{4n}
    if p >= 2 and n > math.log(PAULI_MAX_ENTRIES) / (4 * math.log(p)):
        raise ValueError(f"p^(4n) must be <= {PAULI_MAX_ENTRIES} entries, "
                         f"got p = {_shown(p)}, n = {_shown(n)}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {_shown(p)}")
    singles = np.array([weyl(p, digit % p, digit // p) for digit in range(p * p)])
    u = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):  # the next factor's digit is the slow axis: u[digit, key] = u[key] (x) W
        k, m = u.shape[0] * p * p, u.shape[1] * p
        u = (u[None, :, :, None, :, None] * singles[:, None, None, :, None, :]).reshape(k, m, m)
    return UnitaryEnsemble.uniform(p**n, u)


@dataclass
class SamplerConfig:
    """Parameters for drawing an i.i.d. sampled ensemble."""

    d: int
    n_samples: int
    seed: int
    source: str = "clifford"

    def __post_init__(self):
        for name in ("d", "n_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {_shown(self.d)}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {_shown(self.n_samples)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {_shown(self.seed)}")
        if self.source not in ("clifford", "haar"):
            raise ValueError(f"source must be 'clifford' or 'haar', got {self.source!r}")
        if self.source == "clifford" and not (self.d <= CLIFFORD_PRIME_CAP and is_prime(self.d)):
            raise ValueError(f"d must be a prime <= {CLIFFORD_PRIME_CAP} for clifford, "
                             f"got {_shown(self.d)}")
        if self.d > MAX_D:  # checked before drawing: qnm reads no ensemble file of larger d
            raise ValueError(f"d must be <= {MAX_D}, the largest d of an ensemble file")
        most = np.iinfo(np.intp).max // (16 * self.d**2)  # the keys numpy holds in one array
        if self.n_samples > most:
            raise ValueError(f"n_samples must be <= {most} at d = {self.d}: one array of the keys")


def _clifford_generators(p: int) -> np.ndarray:
    om = np.exp(2j * np.pi / p)
    fourier = np.array([[om ** ((j * k) % p) for k in range(p)] for j in range(p)]) / np.sqrt(p)
    quad = np.diag([1.0, 1j] if p == 2 else [om ** ((k * (k + 1) // 2) % p) for k in range(p)])
    return np.array([fourier, quad, weyl(p, 1, 0), weyl(p, 0, 1)])


def _canonical(us: np.ndarray) -> tuple:
    """Each matrix of an (n, p, p) stack times |z|/z, z its first entry (C order) of modulus above
    _PHASE_PICK_TOL, and its byte key: that product's rounded real part, then imaginary part."""
    flat = us.reshape(len(us), -1)
    z = flat[np.arange(len(us)), np.argmax(np.abs(flat) > _PHASE_PICK_TOL, axis=1)]
    # |z| by hypot: np.abs on a complex array can differ in the last bit from scalar abs(z)
    phased = us * (np.hypot(z.real, z.imag) / z)[:, None, None]
    # +0.0 normalizes -0.0 so byte keys are stable
    parts = np.round(np.stack([phased.real, phased.imag], axis=1), _KEY_DECIMALS) + 0.0
    return phased, [k.tobytes() for k in parts]


def _clifford_elements(p: int) -> np.ndarray:
    gens = _clifford_generators(p)
    seen, levels = set(), []
    products = np.eye(p, dtype=complex)[None]  # the identity, then one breadth-first level per step
    while len(products):
        phased, keys = _canonical(products)
        fresh = []
        for i, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        levels.append(phased[fresh])
        # the new elements, unphased, times each generator: element-major, generator-minor
        products = (gens @ products[fresh, None]).reshape(-1, p, p)
    elements = np.concatenate(levels)
    expected = p**5 - p**3
    if len(elements) != expected:
        raise RuntimeError(
            f"Clifford closure at p={p} produced {len(elements)} elements, expected {expected}"
        )
    return elements


def clifford_prime(p: int) -> UnitaryEnsemble:
    """Uniform ensemble over the full prime-dimension Clifford group mod phases.

    Enumerated by breadth-first closure over the Fourier, quadratic-phase,
    shift and phase generators, with one phase-fixed representative per
    class; the result has exactly p^5 - p^3 elements and is an exact
    unitary 2-design. ``CLIFFORD_PRIME_CAP`` bounds p for certify's sake, not the enumeration's.
    """
    if p > CLIFFORD_PRIME_CAP or not is_prime(p):  # the cap first: trial division is slow
        raise ValueError(f"p must be a prime <= {CLIFFORD_PRIME_CAP}, got {_shown(p)}")
    return UnitaryEnsemble.uniform(p, _clifford_elements(p))


def _haar_unitaries(d: int, n: int, rng: "np.random.Generator") -> np.ndarray:
    """n Haar unitaries from one draw of ``rng`` and one stacked QR with the diagonal phase fix that
    makes them exactly Haar; bit-identical to drawing them one by one (the test reference loop_haar)."""
    g = rng.normal(size=(n, 2, d, d))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def sample_design(cfg: SamplerConfig) -> UnitaryEnsemble:
    """Uniform-weight ensemble of n_samples i.i.d. draws from the source design.

    Deterministic given the seed; draws are with repetition. Source
    'clifford' requires a prime dimension within the enumeration cap.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    if cfg.source == "clifford":
        pool = clifford_prime(cfg.d).unitaries
        unitaries = pool[rng.integers(0, len(pool), size=cfg.n_samples)]
    else:
        unitaries = _haar_unitaries(cfg.d, cfg.n_samples, rng)
    return UnitaryEnsemble.uniform(cfg.d, unitaries)


def recommended_n(d: int, theta: float, delta: float) -> int:
    """Sample count for a target multiplicative error theta at failure rate delta.

    Solves the operator Chernoff tail 2 r exp(-theta^2 mu N / 2) <= delta
    for N, with mu = 1/(d^2 (d^2 - 1)) the smallest nonzero eigenvalue of
    the ideal second-moment operator and r its rank. The constant carries a
    safety factor 2 and is a heuristic: measured theta is what certifies an
    ensemble, never this formula.
    """
    if not 0 < theta <= 0.5:
        raise ValueError(f"theta must lie in (0, 1/2], got {theta}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    log_term = math.log(2 * rank_bound(d)) - math.log(delta)
    try:  # 2 / (theta^2 mu) * log(2 r / delta), ordered so that no underflow divides by 0
        n = 2.0 / theta / theta * d * d * (d * d - 1) * log_term
    except OverflowError:  # d, or d^2 - 1, beyond a float
        n = math.inf
    if not math.isfinite(n):
        raise ValueError(f"recommended_n overflows for this d at theta = {theta}, delta = {delta}")
    return math.ceil(n)

"""Builders for exact and approximate 2-designs.

For prime dimension p the full Clifford group modulo global phases has
p^5 - p^3 elements and, as a uniform ensemble, is an exact unitary
2-design (hence a perfect non-malleable encryption scheme with key length
at most 5 log2(p) bits). Approximate designs are produced by sampling
i.i.d. from an exact design; an operator Chernoff argument makes the
multiplicative error theta shrink like 1/sqrt(N).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .design import UnitaryEnsemble, rank_bound
from .weyl import is_prime, weyl

CLIFFORD_PRIME_CAP = 5
_PHASE_PICK_TOL = 0.1
_KEY_DECIMALS = 6


@dataclass
class SamplerConfig:
    """Parameters for drawing an i.i.d. sampled ensemble."""

    d: int
    n_samples: int
    seed: int
    source: str = "clifford"

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.source not in ("clifford", "haar"):
            raise ValueError(f"source must be 'clifford' or 'haar', got {self.source!r}")
        if self.source == "clifford" and not (is_prime(self.d) and self.d <= CLIFFORD_PRIME_CAP):
            raise ValueError(f"d must be a prime <= {CLIFFORD_PRIME_CAP} for clifford, got {self.d}")


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


@lru_cache(maxsize=None)
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
    unitary 2-design. The cap p <= 5 guards certify, not the enumeration (p = 7 takes
    under a second): certify's N x d^4 rows at p = 7 would hold 16464 * 2401 reals, 316 MB.
    """
    if not is_prime(p) or p > CLIFFORD_PRIME_CAP:
        raise ValueError(f"p must be a prime <= {CLIFFORD_PRIME_CAP}, got {p}")
    return UnitaryEnsemble.uniform(p, _clifford_elements(p).copy())


def _haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
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
    mu = 1.0 / (d * d * (d * d - 1))
    return math.ceil(2.0 / (theta * theta * mu) * math.log(2 * rank_bound(d) / delta))

"""Discrete Weyl (generalized Pauli) operators and the quantum one-time pad.

The single-qudit operators are the shift X|j> = |j+1 mod d> and the phase
Z|k> = exp(2 pi i k / d)|k>, combined as W(a, b) = X^a Z^b. Conjugating a
plaintext by a uniformly random Weyl operator is the standard d-dimensional
one-time pad; it hides the state perfectly but is maximally malleable.
"""

import math

import numpy as np

from .design import UnitaryEnsemble


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


def weyl_commutation_phase(d: int, a: int, b: int, a2: int, b2: int) -> complex:
    """Phase zeta with W(a,b) W(a2,b2) = zeta * W(a2,b2) W(a,b).

    Equals exp(2 pi i (a2 b - a b2) / d); for d = 2 this reproduces the
    anticommutation of the Pauli X and Z.
    """
    return complex(np.exp(2j * np.pi * ((a2 * b - a * b2) % d) / d))


def weyl_labels(d: int):
    """All d^2 index pairs (a, b) in row-major order."""
    return [(a, b) for a in range(d) for b in range(d)]


def pauli_ensemble(p: int, n: int = 1) -> UnitaryEnsemble:
    """Uniform ensemble of the p^{2n} tensor-product Weyl operators on d = p^n.

    Key integers map to exponent vectors little-endian: base-p^2 digit i of
    the key is a_i + p * b_i for the i-th tensor factor. Each weight is
    p^{-2n}. This is a perfect 1-design (the quantum one-time pad) but never
    a 2-design.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    d = p**n
    singles = {(a, b): weyl(p, a, b) for a in range(p) for b in range(p)}
    num_keys = p ** (2 * n)
    unitaries = np.empty((num_keys, d, d), dtype=complex)
    for key in range(num_keys):
        u = np.ones((1, 1), dtype=complex)
        rem = key
        for _ in range(n):
            digit = rem % (p * p)
            rem //= p * p
            u = np.kron(u, singles[(digit % p, digit // p)])
        unitaries[key] = u
    return UnitaryEnsemble.uniform(d, unitaries)

"""Dense linear algebra primitives used throughout the package.

All operators are plain square ``numpy`` arrays; real input stays real and
takes numpy's real LAPACK and BLAS paths. Everything here is a pure function
of its inputs.
"""

import math

import numpy as np

HERM_TOL = 1e-10  # the largest allowed entry of |m - m^dagger| for a Hermitian m
RANK_TOL = 1e-10
"""num_rank counts eigenvalues above RANK_TOL. certify_design counts eigenvalues of A Omega A
above d^2 (d^2 - 1) RANK_TOL. Each is t times one of Omega's, t in [d^2, d^2 (d^2 - 1)]
(Ostrowski), so an eigenvalue of Omega above (d^2 - 1) RANK_TOL always counts towards its rank,
and one at or below RANK_TOL never does. An eigenvalue of A Omega A below minus that cut fails
the PSD check."""


def maximally_mixed(d: int) -> np.ndarray:
    """The state 1/d on a d-level system."""
    return np.eye(d, dtype=complex) / d


def check_tol(tol: float, name: str) -> float:
    """``tol`` itself if it is a finite number > 0; else a ValueError naming ``name``."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and > 0, got {float(tol)!r}")
    return tol


def hermitian_defect(m: np.ndarray) -> float:
    """max |m - m^dagger| of a square matrix; NaN if ``m`` holds a NaN."""
    return float(np.max(np.abs(m - m.conj().T)))


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    m = m.astype(np.result_type(m, np.float64), copy=False)  # real input stays real
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = hermitian_defect(m)
    if not dev <= HERM_TOL:  # a NaN deviation fails too
        raise ValueError(f"matrix is not Hermitian within {HERM_TOL} (deviation {dev:.3e})")
    return m


def trace_norm(m: np.ndarray) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix, its unnormalized trace norm; ValueError if m is
    not Hermitian within ``HERM_TOL``."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(_check_hermitian(m)))))


def herm_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with orthonormal
    columns). Raises ValueError if the input is not Hermitian within ``HERM_TOL``.
    """
    return np.linalg.eigh(_check_hermitian(m))


def num_rank(m: np.ndarray) -> int:
    """How many eigenvalues of a PSD Hermitian m exceed RANK_TOL; ValueError if one < -RANK_TOL."""
    vals = np.linalg.eigvalsh(_check_hermitian(m))
    if vals[0] < -RANK_TOL:
        raise ValueError(
            f"matrix is not positive semidefinite within {RANK_TOL} (min eigenvalue {vals[0]:.3e})"
        )
    return int(np.count_nonzero(vals > RANK_TOL))


def gram_choi(rows: np.ndarray, d: int) -> np.ndarray:
    """Exactly Hermitian (1/d) sum_k r_k r_k^dagger over the rows r_k of ``rows``.

    Rows sqrt(p_k) vec(W_k) (row-major vec) give the Choi operator of
    rho -> sum_k p_k W_k rho W_k^dagger, as (W (x) 1) Phi_d (...)^dagger = vec(W) vec(W)^dagger / d.
    One real syrk: a complex row x + iy is read, uncopied, as the real row of pairs (x, y), so
    Re g = xx^T + yy^T and Im g = yx^T - xy^T come out exactly symmetric and antisymmetric.
    """
    rows = np.ascontiguousarray(rows, dtype=np.result_type(rows, np.float64))
    v = rows.view(np.float64)
    g = v.T @ v
    if np.iscomplexobj(rows):
        g = g[0::2, 0::2] + g[1::2, 1::2] + 1j * (g[1::2, 0::2] - g[0::2, 1::2])
    g /= d
    return g

"""Dense linear algebra primitives used throughout the package.

All operators are plain square ``numpy`` arrays; real input stays real and
takes numpy's real LAPACK and BLAS paths. Tensor factor structure is described
by a tuple of factor dimensions where needed. Everything here is a pure
function of its inputs.
"""

import math

import numpy as np

HERM_TOL = 1e-10


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def kron(*ops) -> np.ndarray:
    """Kronecker product of one or more operators, left factor first."""
    if not ops:
        raise ValueError("kron needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def maximally_mixed(d: int) -> np.ndarray:
    """The state 1/d on a d-level system."""
    return np.eye(d, dtype=complex) / d


def check_tol(tol: float, name: str) -> float:
    """``tol`` itself if it is a finite number > 0; else a ValueError naming ``name``."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and > 0, got {tol!r}")
    return tol


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m - m.conj().T))) <= tol


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    m = m.astype(np.result_type(m, np.float64), copy=False)  # real input stays real
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out the tensor factors of ``m`` that are not listed in ``keep``.

    ``dims`` gives the dimension of every factor (their product must equal
    the matrix dimension); ``keep`` is a nonempty collection of factor
    indices. Kept factors retain their original order.
    """
    m = _check_square(m)
    dims = tuple(int(x) for x in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != m.shape[0]:
        raise ValueError(
            f"factor dims {dims} do not multiply to matrix dimension {m.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep={keep} is not a nonempty subset of factor indices 0..{n - 1}")

    t = m.reshape(dims + dims)
    row_sub = list(range(n))
    col_sub = [n + i if i in keep else i for i in range(n)]
    out_sub = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row_sub + col_sub, out_sub)
    dk = math.prod(dims[i] for i in keep)
    return reduced.reshape(dk, dk)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values (unnormalized trace norm).

    Hermitian inputs are routed through the eigendecomposition for accuracy;
    everything else falls back to a full SVD.
    """
    m = _check_square(m)
    if is_hermitian(m):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def _check_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    m = _check_square(m)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if not dev <= tol:  # a NaN deviation fails too
        raise ValueError(f"matrix is not Hermitian within {tol} (deviation {dev:.3e})")
    return m


def herm_eig(m: np.ndarray, tol: float = HERM_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with orthonormal
    columns). Raises ValueError if the input is not Hermitian within ``tol``.
    """
    return np.linalg.eigh(_check_hermitian(m, tol))


def num_rank(m: np.ndarray, tol: float) -> int:
    """Number of eigenvalues above ``tol`` for a PSD Hermitian matrix.

    Raises ValueError if any eigenvalue lies below ``-tol``, or if ``tol`` is not finite and > 0.
    """
    check_tol(tol, "tol")
    vals = np.linalg.eigvalsh(_check_hermitian(m, HERM_TOL))
    if vals[0] < -tol:
        raise ValueError(
            f"matrix is not positive semidefinite within {tol} (min eigenvalue {vals[0]:.3e})"
        )
    return int(np.count_nonzero(vals > tol))


def gram_choi(rows: np.ndarray, d: int) -> np.ndarray:
    """Exactly Hermitian (1/d) sum_k r_k r_k^dagger over the rows r_k of ``rows``.

    Rows sqrt(p_k) vec(W_k) (row-major vec) give the Choi operator of
    rho -> sum_k p_k W_k rho W_k^dagger, as (W (x) 1) Phi_d (...)^dagger = vec(W) vec(W)^dagger / d.
    Real rows stay real: ``conj()`` returns them uncopied, so numpy takes its syrk path.
    """
    rows = np.asarray(rows)
    g = rows.T @ rows.conj()
    g += g.conj().T
    g /= 2 * d
    return g

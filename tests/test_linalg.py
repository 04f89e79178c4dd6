import numpy as np
import pytest

from qnm import design, trace_norm
from qnm.design import ideal_choi
from qnm.linalg import HERM_TOL, RANK_TOL, check_tol, gram_choi, herm_eig, hermitian_defect
from qnm.linalg import num_rank

from helpers import max_entangled, philox

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("keep", [(0,), (1,)])
def test_partial_trace_max_entangled_marginal(d, keep):
    pattern = "iaja->ij" if keep == (0,) else "aiaj->ij"  # trace out the other factor
    marginal = np.einsum(pattern, max_entangled(d).reshape(d, d, d, d))
    assert np.max(np.abs(marginal - np.eye(d) / d)) <= 1e-14


def test_partial_trace_ideal_choi_marginal():
    # tracing the reference pair of the ideal second-moment operator leaves tau (x) tau
    marginal = np.einsum("iaja->ij", ideal_choi(2).reshape(4, 4, 4, 4))
    assert np.max(np.abs(marginal - np.eye(4) / 4)) <= 1e-13


def test_trace_norm_zero():
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_orthogonal_pure_states():
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) <= 1e-14


def test_trace_norm_ideal_choi():
    assert abs(trace_norm(ideal_choi(2)) - 1.0) <= 1e-12


def _random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


def test_trace_norm_triangle_and_unitary_invariance():
    rng = philox(4)
    for _ in range(10):
        a, b = _random_hermitian(rng, 3), _random_hermitian(rng, 3)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        assert abs(trace_norm(q @ a @ q.conj().T) - trace_norm(a)) <= 1e-10


def test_trace_norm_rejects_a_non_hermitian_matrix():
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_herm_eig_diag():
    vals, _ = herm_eig(np.diag([1.0, -1.0]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_herm_eig_max_entangled():
    vals, _ = herm_eig(max_entangled(3))
    assert np.allclose(sorted(vals), [0.0] * 8 + [1.0], atol=1e-12)


def test_herm_eig_ideal_choi_spectrum():
    vals, _ = herm_eig(ideal_choi(2))
    want = np.array([0.0] * 6 + [1.0 / 12] * 9 + [0.25])
    assert np.max(np.abs(np.sort(vals) - want)) <= 1e-12


def test_herm_eig_reconstruction_and_orthonormality():
    rng = philox(5)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = g + g.conj().T
    vals, vecs = herm_eig(m)
    assert np.max(np.abs(m - vecs @ np.diag(vals) @ vecs.conj().T)) <= 1e-10
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) <= 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_num_rank_rank_one_projector():
    assert num_rank(max_entangled(5)) == 1


def test_num_rank_ideal_choi():
    assert num_rank(ideal_choi(2)) == 10


def test_num_rank_weyl_second_moment():
    # oracle built from literal Pauli matrices: the one-time-pad second-moment
    # operator has rank d^2 = 4, far below the 2-design floor of 10
    paulis = [I2, X, Z, X @ Z]
    phi16 = np.zeros(16, dtype=complex)
    phi16[:: 4 + 1] = 0.5
    phi16 = np.outer(phi16, phi16)
    omega = np.zeros((16, 16), dtype=complex)
    for w in paulis:
        big = np.kron(np.kron(w, w.conj()), np.eye(4))
        omega += big @ phi16 @ big.conj().T / 4
    evs = np.linalg.eigvalsh(omega)
    assert int(np.sum(evs > 1e-10)) == 4
    assert num_rank(omega) == 4


def test_num_rank_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        num_rank(np.diag([1.0, -0.5]))


def test_real_symmetric_input_stays_real():
    g = philox(9).normal(size=(6, 4))
    psd = g @ g.T  # rank 4
    indefinite = psd - 2 * np.eye(6)
    for m in (psd, indefinite):
        assert hermitian_defect(m) <= HERM_TOL and hermitian_defect(m.astype(complex)) <= HERM_TOL
        assert abs(trace_norm(m) - trace_norm(m.astype(complex))) <= 1e-12
        vals, vecs = herm_eig(m)
        cvals, _ = herm_eig(m.astype(complex))
        assert vals.dtype == vecs.dtype == np.float64
        assert np.max(np.abs(vals - cvals)) <= 1e-12
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - m)) <= 1e-12
    assert num_rank(psd) == num_rank(psd.astype(complex)) == 4


def test_gram_choi_of_real_rows_is_real_and_exactly_symmetric():
    rows = philox(10).normal(size=(7, 9))
    g = gram_choi(rows, 3)
    assert g.dtype == np.float64 and np.array_equal(g, g.T)
    assert np.max(np.abs(g - rows.T @ rows / 3)) <= 1e-14


def test_gram_choi_of_complex_rows_is_exactly_hermitian():
    rng = philox(12)
    wide = (rng.normal(size=(40, 18)) + 1j * rng.normal(size=(40, 18))) / np.sqrt(40)
    rows = wide[:, :9]
    g = gram_choi(rows, 3)
    assert g.dtype == np.complex128 and np.array_equal(g, g.conj().T)
    assert np.max(np.abs(g - rows.T @ rows.conj() / 3)) <= 1e-14
    for part in (wide[:, ::2], wide[::3, 5:14]):  # strided slices, not copies
        assert not part.flags.c_contiguous
        assert np.array_equal(gram_choi(part, 3), gram_choi(part.copy(), 3))


def test_num_rank_counts_and_rejects_at_rank_tol():
    assert design.RANK_TOL is RANK_TOL  # the one rank tolerance, also certify_design's
    assert num_rank(np.diag([1.0, 1.01 * RANK_TOL, 0.99 * RANK_TOL])) == 2
    assert num_rank(np.diag([1.0, -0.99 * RANK_TOL])) == 1
    with pytest.raises(ValueError, match="not positive semidefinite"):
        num_rank(np.diag([1.0, -1.01 * RANK_TOL]))


@pytest.mark.parametrize(
    "bad", [np.float64(np.nan), np.float64(0.0), np.float32(-1.0)], ids=["nan", "zero", "negative"]
)
def test_check_tol_prints_a_numpy_scalar_as_a_plain_float(bad):
    with pytest.raises(ValueError) as info:
        check_tol(bad, "tol")
    assert str(info.value) == f"tol must be finite and > 0, got {float(bad)!r}"
    assert "np." not in str(info.value)

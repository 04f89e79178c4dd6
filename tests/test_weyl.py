import importlib
import itertools

import numpy as np
import pytest

import qnm
from qnm import certify_design, num_rank, one_design_distance, pauli_ensemble, weyl
from qnm.construct import is_prime
from qnm.design import ensemble_choi

from helpers import loop_pauli_unitaries


def test_weyl_qubit_shift():
    assert np.allclose(weyl(2, 1, 0), [[0, 1], [1, 0]])


def test_weyl_qubit_phase():
    assert np.allclose(weyl(2, 0, 1), [[1, 0], [0, -1]])


def test_weyl_qubit_product_convention():
    # X^a Z^b ordering: W(1,1) = X Z
    assert np.allclose(weyl(2, 1, 1), [[0, -1], [1, 0]])


def test_weyl_rejects_a_dimension_below_two():
    with pytest.raises(ValueError, match="^dimension must be at least 2$"):
        weyl(1, 0, 0)


def test_pauli_module_is_patchable_and_qnm_weyl_stays_the_function(monkeypatch):
    construct = importlib.import_module("qnm.construct")
    assert qnm.construct is construct and importlib.import_module("qnm.weyl") is construct
    monkeypatch.setattr(construct, "is_prime", lambda n: False)
    with pytest.raises(ValueError, match="p must be prime, got 3"):
        pauli_ensemble(3)
    assert np.array_equal(qnm.weyl(2, 1, 0), [[0, 1], [1, 0]])


def _labels(d: int):
    return itertools.product(range(d), repeat=2)


def _commutation_phase(d: int, a: int, b: int, a2: int, b2: int) -> complex:
    """zeta with W(a, b) W(a2, b2) = zeta W(a2, b2) W(a, b): exp(2 pi i (a2 b - a b2) / d)."""
    return np.exp(2j * np.pi * ((a2 * b - a * b2) % d) / d)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weyl_unitary(d):
    for a, b in _labels(d):
        w = weyl(d, a, b)
        assert np.max(np.abs(w.conj().T @ w - np.eye(d))) <= 1e-12


def test_commutation_phase_qubit_anticommute():
    x, z = weyl(2, 1, 0), weyl(2, 0, 1)
    assert np.max(np.abs(x @ z + z @ x)) <= 1e-14


def test_commutation_phase_qutrit_defining_relation():
    # Z X = omega X Z
    omega = np.exp(2j * np.pi / 3)
    x, z = weyl(3, 1, 0), weyl(3, 0, 1)
    assert np.max(np.abs(z @ x - omega * x @ z)) <= 1e-14


def test_commutation_phase_self():
    # W(1, 1) commutes with W(k, k), which is proportional to its k-th power
    for d in (2, 3, 5):
        for k in range(d):
            w, wk = weyl(d, 1, 1), weyl(d, k, k)
            assert np.max(np.abs(w @ wk - wk @ w)) <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 5])
def test_commutation_phase_matches_matrices(d):
    for a, b in _labels(d):
        for a2, b2 in _labels(d):
            lhs = weyl(d, a, b) @ weyl(d, a2, b2)
            rhs = _commutation_phase(d, a, b, a2, b2) * weyl(d, a2, b2) @ weyl(d, a, b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_group_law_up_to_phase(d):
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(12):
        a, b, a2, b2 = rng.integers(0, d, size=4)
        prod = weyl(d, a, b) @ weyl(d, a2, b2)
        target = weyl(d, (a + a2) % d, (b + b2) % d)
        phase = np.trace(target.conj().T @ prod) / d
        assert abs(abs(phase) - 1) <= 1e-12
        assert np.max(np.abs(prod - phase * target)) <= 1e-12
        # swapping the factors changes the extracted phase by the commutation phase
        prod_swapped = weyl(d, a2, b2) @ weyl(d, a, b)
        phase_swapped = np.trace(target.conj().T @ prod_swapped) / d
        zeta = _commutation_phase(d, a, b, a2, b2)
        assert abs(phase / phase_swapped - zeta) <= 1e-12


def test_pauli_ensemble_qubit():
    e = pauli_ensemble(2, 1)
    assert e.size == 4 and e.d == 2
    assert np.allclose(e.weights, 0.25)
    # contains 1, X, Z, XZ in key order
    assert np.allclose(e.unitaries[0], np.eye(2))
    assert np.allclose(e.unitaries[1], weyl(2, 1, 0))
    assert np.allclose(e.unitaries[2], weyl(2, 0, 1))
    assert np.allclose(e.unitaries[3], weyl(2, 1, 1))


def test_pauli_ensemble_qutrit_count():
    e = pauli_ensemble(3, 1)
    assert e.size == 9 and e.d == 3
    assert np.allclose(e.weights, 1 / 9)


def test_pauli_ensemble_two_qudits():
    e = pauli_ensemble(2, 2)
    assert e.size == 16 and e.d == 4


def test_pauli_ensemble_rejects_composite():
    with pytest.raises(ValueError):
        pauli_ensemble(4, 1)
    with pytest.raises(ValueError):
        pauli_ensemble(2, 0)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 1)])
def test_pauli_ensemble_matches_the_per_key_kron_loop(p, n):
    got = pauli_ensemble(p, n).unitaries
    want = loop_pauli_unitaries(p, n)
    assert got.shape == want.shape
    if p == 2:  # real phases +-1: the same products, bit for bit
        assert np.array_equal(got, want)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_pauli_ensemble_is_perfect_one_design(p, n):
    assert one_design_distance(pauli_ensemble(p, n)) <= 1e-12


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_pauli_ensemble_is_not_a_two_design(p, n):
    e = pauli_ensemble(p, n)
    report = certify_design(e)
    assert report.two_design_trace_dist > 0.1 and not report.passes_two_design
    d = p**n
    assert num_rank(ensemble_choi(e)) == d * d
    assert (report.n, report.omega_rank, report.passes_one_design) == (d * d, d * d, True)
    assert d * d < (d * d - 1) ** 2 + 1


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

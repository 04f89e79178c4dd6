import pytest

from qnm import SamplerConfig, clifford_prime, pauli_ensemble, sample_design


@pytest.fixture(scope="session")
def clifford2():
    return clifford_prime(2)


@pytest.fixture(scope="session")
def clifford3():
    return clifford_prime(3)


@pytest.fixture(scope="session")
def clifford5():
    return clifford_prime(5)


@pytest.fixture(scope="session")
def pauli21():
    return pauli_ensemble(2, 1)


@pytest.fixture(scope="session")
def pauli31():
    return pauli_ensemble(3, 1)


@pytest.fixture
def sampled3():
    return sample_design(SamplerConfig(d=3, n_samples=300, seed=11, source="clifford"))

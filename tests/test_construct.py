import numpy as np
import pytest

from qnm import (
    SamplerConfig,
    certify_design,
    clifford_prime,
    recommended_n,
    sample_design,
    weyl,
)
from qnm.construct import _canonical, _clifford_elements
from qnm.design import MAX_D

from helpers import (
    haar_batch,
    loop_canonical_key,
    loop_canonical_phase,
    loop_clifford_elements,
    loop_haar,
    philox,
)


def _keys(us) -> set:
    return set(_canonical(us)[1])


def test_clifford_sizes():
    assert clifford_prime(2).size == 24
    assert clifford_prime(3).size == 216


def test_clifford_rejects_bad_dimension():
    with pytest.raises(ValueError):
        clifford_prime(4)
    with pytest.raises(ValueError):
        clifford_prime(7)


def test_clifford_elements_unitary_and_distinct(clifford3):
    eye = np.eye(3)
    for u in clifford3.unitaries:
        assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
    assert len(_keys(clifford3.unitaries)) == 216


@pytest.mark.parametrize("p", [2, 3])
def test_clifford_closed_under_multiplication(p):
    e = clifford_prime(p)
    rng = philox(80 + p)
    i, j = rng.integers(0, e.size, size=(2, 40))
    assert _keys(e.unitaries[i] @ e.unitaries[j]) <= _keys(e.unitaries)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_clifford_elements_bit_identical_to_the_loop_reference(p):
    assert _clifford_elements(p).tobytes() == loop_clifford_elements(p).tobytes()


def test_canonical_keys_a_stack_as_the_single_matrix_reference():
    rng = philox(79)
    us = haar_batch(3, 50, rng) * np.exp(2j * np.pi * rng.random(50))[:, None, None]
    us[:10, 0, 0] = 0  # the phase is then picked from a later entry
    us[10:20] = clifford_prime(3).unitaries[:10] * -1j  # exact zeros, some phased to -0.0
    phased, keys = _canonical(us)
    rounded = np.round(phased.real, 6)
    assert np.any((rounded == 0) & np.signbit(rounded))  # the keys must map these to +0.0
    assert keys == [loop_canonical_key(u) for u in us]
    assert phased.tobytes() == np.array([loop_canonical_phase(u) for u in us]).tobytes()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_clifford_normalizes_weyl_operators(p):
    e = clifford_prime(p)
    weyls = np.array([weyl(p, a, b) for a in range(p) for b in range(p)])
    flat = weyls.reshape(p * p, -1)
    rng = philox(84 + p)
    for i in rng.integers(0, e.size, size=20):
        c = e.unitaries[i]
        for w in (weyl(p, 1, 0), weyl(p, 0, 1)):
            conj = c @ w @ c.conj().T
            overlaps = np.abs(flat.conj() @ conj.reshape(-1))
            assert np.any(np.abs(overlaps - p) <= 1e-8), "conjugated shift left the Weyl group"


@pytest.mark.parametrize("p", [2, 3])
def test_clifford_certifies_as_two_design(p):
    report = certify_design(clifford_prime(p), tol=1e-9)
    assert report.passes_two_design
    assert report.passes_multiplicative


def _haar_draw(d: int, seed: int) -> np.ndarray:
    return sample_design(SamplerConfig(d=d, n_samples=1, seed=seed, source="haar")).unitaries[0]


def test_haar_unitary_is_unitary_and_deterministic():
    u = _haar_draw(4, 123)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
    assert np.array_equal(u, _haar_draw(4, 123))
    assert not np.allclose(u, _haar_draw(4, 124))


def test_haar_first_moments():
    rng = philox(90)
    u = haar_batch(2, 100_000, rng)
    # E|U_00|^2 = 1/d within 3 standard errors
    m = np.abs(u[:, 0, 0]) ** 2
    assert abs(m.mean() - 0.5) <= 3 * m.std() / np.sqrt(len(m))
    # averaged conjugation sends |0><0| to tau
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    avg = np.einsum("bik,kl,bjl->ij", u, rho0, u.conj()) / len(u)
    assert np.max(np.abs(avg - np.eye(2) / 2)) <= 3e-3


def test_haar_left_invariance():
    # multiplying by a fixed unitary leaves the distribution unchanged
    rng = philox(91)
    u = haar_batch(2, 50_000, rng)
    v = _haar_draw(2, 999)
    vu = np.einsum("ij,bjk->bik", v, u)
    m = np.abs(vu[:, 0, 0]) ** 2
    assert abs(m.mean() - 0.5) <= 3 * m.std() / np.sqrt(len(m))


def test_sample_design_singleton():
    e = sample_design(SamplerConfig(d=2, n_samples=1, seed=3, source="clifford"))
    assert e.size == 1
    assert _keys(e.unitaries) <= _keys(clifford_prime(2).unitaries)


def test_sample_design_deterministic_and_seed_sensitive():
    cfg = SamplerConfig(d=2, n_samples=40, seed=11, source="clifford")
    a = sample_design(cfg)
    b = sample_design(SamplerConfig(d=2, n_samples=40, seed=11, source="clifford"))
    assert np.array_equal(a.unitaries, b.unitaries)
    c = sample_design(SamplerConfig(d=2, n_samples=40, seed=12, source="clifford"))
    assert not np.array_equal(a.unitaries, c.unitaries)


@pytest.mark.parametrize("d", [2, 7])
@pytest.mark.parametrize("seed", [0, 31])
def test_batched_haar_draws_match_the_per_key_loop_bit_for_bit(d, seed):
    e = sample_design(SamplerConfig(d=d, n_samples=60, seed=seed, source="haar"))
    assert e.unitaries.tobytes() == loop_haar(d, 60, philox(seed)).tobytes()


def test_sample_design_haar_source():
    e = sample_design(SamplerConfig(d=3, n_samples=5, seed=2, source="haar"))
    assert e.size == 5 and e.d == 3
    for u in e.unitaries:
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-12


def test_sampled_clifford_reaches_quarter_theta():
    e = sample_design(SamplerConfig(d=2, n_samples=2000, seed=7, source="clifford"))
    report = certify_design(e)
    assert report.multiplicative_theta is not None
    assert report.multiplicative_theta <= 0.25


def test_sampler_config_validation():
    for d in (1, 0):
        with pytest.raises(ValueError, match=f"d must be >= 2, got {d}"):
            SamplerConfig(d=d, n_samples=3, seed=1, source="haar")
    with pytest.raises(ValueError, match=f"d must be <= {MAX_D}"):
        SamplerConfig(d=MAX_D + 1, n_samples=1, seed=1, source="haar")
    with pytest.raises(ValueError):
        SamplerConfig(d=2, n_samples=0, seed=1, source="clifford")
    with pytest.raises(ValueError):
        SamplerConfig(d=2, n_samples=5, seed=1, source="fourier")
    with pytest.raises(ValueError):
        sample_design(SamplerConfig(d=4, n_samples=3, seed=1, source="clifford"))
    for d in (4, 7):
        with pytest.raises(ValueError, match=f"d must be a prime <= 5 for clifford, got {d}"):
            SamplerConfig(d=d, n_samples=3, seed=1, source="clifford")
        SamplerConfig(d=d, n_samples=3, seed=1, source="haar")


@pytest.mark.parametrize(
    "fields, name",
    [
        ((2.0, 5, 0, "haar"), "d"),
        ((3, 5.0, 0, "clifford"), "n_samples"),
        ((3, 5, 0.5, "clifford"), "seed"),
        ((True, 5, 0, "haar"), "d"),
        ((3, True, 0, "clifford"), "n_samples"),
        ((3, 5, False, "clifford"), "seed"),
        ((3, 5, "1", "clifford"), "seed"),
    ],
)
def test_sampler_config_requires_integer_fields(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        SamplerConfig(*fields)


def test_sampler_config_takes_numpy_integers():
    cfg = SamplerConfig(np.int64(2), np.int32(4), np.uint8(3), "clifford")
    assert sample_design(cfg).size == 4


def test_recommended_n_quadratic_in_theta():
    for d in (2, 3):
        ratio = recommended_n(d, 0.05, 0.01) / recommended_n(d, 0.1, 0.01)
        assert 3.9 <= ratio <= 4.1


def test_recommended_n_dimension_scaling():
    # ~d^4 up to the logarithmic factor
    ns = {d: recommended_n(d, 0.1, 0.01) for d in (2, 3, 4, 5)}
    for d in (3, 4, 5):
        raw = ns[d] / ns[2]
        guide = (d**2 * (d**2 - 1)) / (4 * 3)
        assert 0.5 * guide <= raw <= 3.0 * guide
    assert all(n > 0 for n in ns.values())


def test_recommended_n_monotone_and_domain():
    assert recommended_n(2, 0.1, 0.01) >= recommended_n(2, 0.2, 0.01)
    assert recommended_n(2, 0.1, 0.01) >= recommended_n(2, 0.1, 0.05)
    with pytest.raises(ValueError):
        recommended_n(2, 0.0, 0.01)
    with pytest.raises(ValueError):
        recommended_n(2, 0.6, 0.01)
    with pytest.raises(ValueError):
        recommended_n(2, 0.1, 1.5)

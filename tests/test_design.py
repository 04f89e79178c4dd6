import json
import math
import re

import numpy as np
import pytest

from qnm import (
    IsotropicDecomposition,
    UnitaryEnsemble,
    certify_design,
    ensemble_choi,
    ensemble_entropy,
    entropy_bound,
    frame_potential,
    iso_project,
    one_design_distance,
    pauli_ensemble,
    trace_norm,
)
from qnm import design, files
from qnm.construct import SamplerConfig, clifford_prime, sample_design
from qnm.design import ideal_choi, multiplicative_theta
from qnm.linalg import gram_choi, num_rank

from helpers import (
    adjoint_frame,
    computational_choi,
    dense_sandwich_spectrum,
    eigh_rank,
    eigh_theta,
    full_frame_trace_dist,
    haar_batch,
    haar_deviation,
    haar_diagonal,
    haar_projectors,
    isotropic_operator,
    liouville_t,
    max_entangled,
    mc_haar_twirl,
    pairwise_frame_potential,
    philox,
    projector_theta,
    random_density,
    single_gram_choi,
    traced_peak,
)


def singleton(d):
    return UnitaryEnsemble.uniform(d, np.eye(d, dtype=complex)[None])


def test_max_entangled_qubit_entries():
    phi = max_entangled(2)
    want = np.zeros((4, 4))
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
    assert np.array_equal(phi, want)


def test_max_entangled_trace_and_rank():
    phi = max_entangled(3)
    assert abs(np.trace(phi) - 1) <= 1e-14
    assert num_rank(phi) == 1


def test_max_entangled_twirl_symmetry():
    rng = philox(60)
    for d in (2, 3):
        u = haar_batch(d, 1, rng)[0]
        big = np.kron(u, u.conj())
        phi = max_entangled(d)
        assert np.max(np.abs(big @ phi @ big.conj().T - phi)) <= 1e-13


def test_iso_project_fixed_point():
    dec = iso_project(max_entangled(2), 2)
    proj = isotropic_operator(dec, 2)
    assert abs(dec.alpha - 1) <= 1e-14 and abs(dec.beta) <= 1e-14
    assert dec.residual <= 1e-13
    assert np.max(np.abs(proj - max_entangled(2))) <= 1e-13


def test_iso_project_identity_input():
    dec = iso_project(np.eye(4, dtype=complex), 2)
    proj = isotropic_operator(dec, 2)
    assert abs(dec.alpha - 1) <= 1e-14 and abs(dec.beta - 1) <= 1e-14
    assert np.max(np.abs(proj - np.eye(4))) <= 1e-13


def test_iso_project_computational_basis_state():
    x = np.zeros((4, 4), dtype=complex)
    x[0, 0] = 1.0
    dec = iso_project(x, 2)
    assert abs(dec.alpha - 0.5) <= 1e-14
    assert abs(dec.beta - 1 / 6) <= 1e-14


def test_iso_project_idempotent():
    rng = philox(61)
    for d in (2, 3):
        x = random_density(d * d, rng)
        proj = isotropic_operator(iso_project(x, d), d)
        dec2 = iso_project(proj, d)
        proj2 = isotropic_operator(dec2, d)
        assert dec2.residual <= 1e-12
        assert np.max(np.abs(proj - proj2)) <= 1e-12


def test_iso_project_dimension_mismatch():
    with pytest.raises(ValueError):
        iso_project(np.eye(4), 3)


def test_iso_project_invariant_inputs_have_no_residual():
    phi = max_entangled(3)
    x = 0.4 * phi + 0.05 * (np.eye(9) - phi)
    dec = iso_project(x, 3)
    assert dec.residual <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_iso_project_matches_monte_carlo_twirl(d):
    rng = philox(62 + d)
    inputs = np.array([random_density(d * d, rng) for _ in range(10)])
    estimates = mc_haar_twirl(inputs, d, n_samples=100_000, seed=700 + d)
    for x, mc in zip(inputs, estimates):
        proj = isotropic_operator(iso_project(x, d), d)
        assert trace_norm(mc - proj) <= 2e-3


def test_ideal_choi_spectrum_and_rank():
    omega = ideal_choi(2)
    vals = np.sort(np.linalg.eigvalsh(omega))
    want = np.array([0.0] * 6 + [1 / 12] * 9 + [0.25])
    assert np.max(np.abs(vals - want)) <= 1e-12
    assert num_rank(omega) == 10
    assert abs(np.trace(omega) - 1) <= 1e-13


def test_ensemble_choi_singleton_is_max_entangled():
    d = 2
    omega = ensemble_choi(singleton(d))
    assert np.max(np.abs(omega - max_entangled(d * d))) <= 1e-13


def test_ensemble_choi_pauli_rank(pauli21):
    assert num_rank(ensemble_choi(pauli21)) == 4


def test_ensemble_choi_clifford_matches_ideal(clifford2):
    assert trace_norm(ensemble_choi(clifford2) - ideal_choi(2)) <= 1e-10


def test_certify_clifford(clifford2):
    report = certify_design(clifford2)
    assert report.two_design_trace_dist <= 1e-10
    assert report.multiplicative_theta is not None and report.multiplicative_theta <= 1e-9
    assert report.omega_rank == 10
    assert report.passes_two_design and report.passes_multiplicative
    assert report.passes_rank_bound
    assert report.two_design_diamond_upper <= 4e-10


def test_certify_pauli(pauli21):
    report = certify_design(pauli21)
    assert report.one_design_dist <= 1e-12
    assert abs(report.two_design_trace_dist - 1.0) <= 1e-12
    assert report.omega_rank == 4
    assert not report.passes_two_design
    assert not report.passes_rank_bound


def test_certify_singleton_fails_encryption():
    report = certify_design(singleton(2))
    assert report.one_design_dist > 0
    assert abs(report.one_design_dist - 1.5) <= 1e-12


def test_frame_potential_singleton():
    assert abs(frame_potential(singleton(2)) - 16.0) <= 1e-12


def test_frame_potential_matches_explicit_double_sum(pauli21, clifford2):
    for e, want in ((pauli21, 4.0), (clifford2, 2.0)):
        total = 0.0
        for pk, uk in zip(e.weights, e.unitaries):
            for pl, ul in zip(e.weights, e.unitaries):
                total += pk * pl * abs(np.trace(uk.conj().T @ ul)) ** 4
        assert abs(total - want) <= 1e-9
        assert abs(frame_potential(e) - total) <= 1e-10


@pytest.fixture
def singleton2():
    return singleton(2)


@pytest.fixture
def weighted3():
    # non-uniform weights with a zero-weight key
    weights = np.array([0.3, 0.0, 0.1, 0.25, 0.35])
    return UnitaryEnsemble(d=3, weights=weights, unitaries=haar_batch(3, 5, philox(31)))


@pytest.fixture
def haar3_few():
    return UnitaryEnsemble.uniform(3, haar_batch(3, 40, philox(32)))  # N = 40 < d^4 = 81


@pytest.fixture
def haar3_many():
    return UnitaryEnsemble.uniform(3, haar_batch(3, 200, philox(33)))  # N = 200 > d^4 = 81


# sampled3 draws 300 keys from the 216 Cliffords (up to phase) at d = 3, so keys repeat
@pytest.mark.parametrize(
    "name",
    ["singleton2", "pauli21", "clifford2", "clifford3", "weighted3", "haar3_few", "haar3_many",
     "sampled3"],
)
def test_frame_potential_matches_pairwise_reference(name, request):
    e = request.getfixturevalue(name)
    want = pairwise_frame_potential(e.weights, e.unitaries)
    assert abs(frame_potential(e) - want) <= 1e-12 * want
    assert frame_potential(e) == frame_potential(e, ensemble_choi(e))


@pytest.mark.parametrize("name", ["pauli21", "clifford2", "clifford3", "haar3_50"])
def test_frame_potential_identity(name, request):
    # FP - 2 = d^4 ||Omega - Omega_haar||_F^2, against the closed-form Omega_haar
    if name == "haar3_50":
        e = UnitaryEnsemble.uniform(3, haar_batch(3, 50, philox(34)))
    else:
        e = request.getfixturevalue(name)
    fp = frame_potential(e)
    deviation = ensemble_choi(e) - ideal_choi(e.d)
    assert abs(fp - 2 - e.d**4 * np.sum(deviation**2)) <= 1e-12 * fp


def test_entropy_bound_value():
    assert abs(entropy_bound(2, 0.0) - 3.188721875540867) <= 1e-12


def test_entropy_bound_consistent_with_rank_bound():
    # uniform distribution over the minimum number of unitaries satisfies the bound
    assert math.log2(10) >= entropy_bound(2, 0.0)


def test_entropy_bound_domain():
    entropy_bound(2, 1 / math.e)  # boundary accepted
    with pytest.raises(ValueError):
        entropy_bound(2, 0.4)
    with pytest.raises(ValueError):
        entropy_bound(2, -0.1)
    with pytest.raises(ValueError, match="^dimension must be at least 2$"):
        entropy_bound(1, 0)


def test_ensemble_entropy():
    assert abs(ensemble_entropy(UnitaryEnsemble.uniform(2, np.array([np.eye(2)] * 4))) - 2.0) <= 1e-12
    assert abs(ensemble_entropy(UnitaryEnsemble.uniform(2, np.array([np.eye(2)] * 24))) - math.log2(24)) <= 1e-12
    point = UnitaryEnsemble(d=2, weights=np.array([1.0, 0.0]), unitaries=np.array([np.eye(2)] * 2))
    assert ensemble_entropy(point) == 0.0


@pytest.fixture
def pauli22():
    return pauli_ensemble(2, 2)


@pytest.fixture
def sampled2():
    return sample_design(SamplerConfig(d=2, n_samples=2000, seed=7, source="clifford"))


@pytest.mark.parametrize(
    "name", ["pauli21", "pauli31", "pauli22", "clifford2", "clifford3", "sampled2", "singleton2"]
)
def test_shipped_ensemble_grades_agree(name, request):
    # a 2-design is a 1-design, meets the rank bound, has frame potential 2 and enough entropy
    e = request.getfixturevalue(name)
    report = certify_design(e, tol=1e-9)
    is_design = report.two_design_trace_dist <= 1e-9
    if is_design:
        assert report.one_design_dist <= 1e-8
        assert e.size >= report.omega_rank >= report.rank_bound
    assert is_design == (abs(report.frame_potential - 2.0) <= 1e-8)
    assert report.frame_potential >= 2.0 - 1e-9
    if report.entropy_bound_bits is not None:
        assert report.entropy_bits >= report.entropy_bound_bits - 1e-9


def test_ensemble_validation():
    with pytest.raises(ValueError):
        UnitaryEnsemble(d=2, weights=np.array([0.5, 0.6]), unitaries=np.array([np.eye(2)] * 2))
    with pytest.raises(ValueError):
        UnitaryEnsemble(d=2, weights=np.array([1.0]), unitaries=np.array([[[1, 0], [1, 1]]], dtype=complex))
    with pytest.raises(ValueError):
        UnitaryEnsemble(d=2, weights=np.array([1.5, -0.5]), unitaries=np.array([np.eye(2)] * 2))
    with pytest.raises(ValueError, match=re.escape("unitaries must have shape (N, 2, 2), got (1, 3, 3)")):
        UnitaryEnsemble.uniform(2, np.eye(3, dtype=complex)[None])
    with pytest.raises(ValueError, match="^weights and unitaries disagree on ensemble size$"):
        UnitaryEnsemble(d=2, weights=np.array([1.0]), unitaries=np.array([np.eye(2)] * 2))


@pytest.mark.parametrize("field", ["weights", "unitaries"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ensemble_rejects_non_finite_input(field, bad):
    fields = {"weights": np.array([0.5, 0.5]), "unitaries": np.array([np.eye(2)] * 2, dtype=complex)}
    fields[field].reshape(-1)[-1] = bad  # a view: the last entry of the field
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        UnitaryEnsemble(d=2, **fields)


@pytest.mark.parametrize("d", [2.0, True, False, 1, 0], ids=["float", "true", "false", "one", "zero"])
def test_ensemble_requires_an_integer_dimension_of_at_least_two(d):
    keys = np.eye(int(d), dtype=complex)[None]  # keys of the shape that d names
    with pytest.raises(ValueError, match=f"^d must be an integer >= 2, got {d!r}$"):
        UnitaryEnsemble.uniform(d, keys)


def test_ensemble_stores_a_numpy_integer_dimension_as_an_int(clifford2):
    e = UnitaryEnsemble.uniform(np.int64(2), clifford2.unitaries)
    assert type(e.d) is int and e.d == 2
    report = json.loads(json.dumps(files.certification_report_to_dict(certify_design(e), "")))
    assert report["d"] == 2 and report["passes_two_design"]


def test_ensemble_names_first_non_unitary_element():
    unitaries = np.array([np.eye(2)] * 4, dtype=complex)
    unitaries[2] *= 2
    unitaries[3] *= 3
    with pytest.raises(ValueError, match="ensemble element 2 is not unitary"):
        UnitaryEnsemble.uniform(2, unitaries)


@pytest.mark.parametrize("keys_per_block", [5, None], ids=["five-keys", "default"])
@pytest.mark.parametrize("d", range(2, 8))
def test_unitary_deviation_matches_a_per_key_product(d, keys_per_block, monkeypatch):
    if keys_per_block is not None:  # the check holds 4 d^2 entries a key
        monkeypatch.setattr(design, "_ROW_BLOCK", 4 * d * d * keys_per_block)
    n = 2 * (design._ROW_BLOCK // (4 * d * d)) + 3  # three blocks, the last one short
    rng = philox(d)
    keys = haar_batch(d, n, rng)
    keys += np.logspace(-12, -3, n)[:, None, None] * rng.normal(size=(n, d, d))  # near-unitary
    got = design.unitary_deviation(keys)
    want = [np.max(np.abs(u.conj().T @ u - np.eye(d))) for u in keys]
    assert len(design.key_blocks(n, 4 * d * d)) == 3
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("d, dev", [(2, "nan"), (design._KEY_LAST_MAX_D + 1, "(nan|inf)")],
                         ids=["key-last", "blas"])
def test_a_key_whose_gram_overflows_is_rejected_by_index(d, dev):
    # U^dagger U holds 1e400 - 1e400 = inf - inf = NaN off the diagonal (a BLAS product may give
    # inf); a deviation that is not <= the tolerance fails
    keys = np.array([np.eye(d)] * 3, dtype=complex)
    keys[1, :2, :2] = [[1e200, 1e200], [1e200, -1e200]]
    assert re.fullmatch(dev, str(design.unitary_deviation(keys)[1]))
    with pytest.raises(ValueError, match=rf"^ensemble element 1 is not unitary \(deviation {dev}\)$"):
        UnitaryEnsemble.uniform(d, keys)


def test_unitary_deviation_takes_one_blas_product_per_key_above_the_key_last_bound():
    # a key-last pass is d broadcast multiply-adds over (d, d, b): at d = 64 it was 17x slower
    d = design._KEY_LAST_MAX_D + 1
    u = np.array([np.eye(d)] * 2, dtype=complex)
    calls = []

    class Stack(np.ndarray):
        def __matmul__(self, other):
            calls.append(self.shape)
            return np.ndarray.__matmul__(self, other)

    design.unitary_deviation(u.view(Stack))
    assert calls == [(2, d, d)]


@pytest.mark.parametrize(
    "n, per_item, want",
    [
        (0, 4, []),
        (12, 4, [(0, 4), (4, 8), (8, 12)]),  # an exact multiple
        (10, 4, [(0, 4), (4, 8), (8, 10)]),  # a remainder
        (3, 17, [(0, 1), (1, 2), (2, 3)]),  # an item above the block: one item per block
        (5, 0, [(0, 5)]),  # items of no entries
        (5, 16, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),  # an item exactly the block
    ],
    ids=["empty", "multiple", "remainder", "big-item", "zero-entries", "one-block-items"],
)
def test_key_blocks_cover_range_n_in_order_with_at_most_a_block_of_entries(
    n, per_item, want, monkeypatch
):
    monkeypatch.setattr(design, "_ROW_BLOCK", 16)
    assert [(b.start, b.stop) for b in design.key_blocks(n, per_item)] == want


def test_non_unitary_key_in_a_later_block_is_named_by_its_global_index(monkeypatch):
    unitaries = np.array([np.eye(2)] * 8, dtype=complex)
    unitaries[5] *= 2  # the sixth block: a key holds 4 d^2 = 16 entries, so _ROW_BLOCK = 8 fits one
    unitaries[7] *= 3
    with pytest.raises(ValueError) as whole:
        UnitaryEnsemble.uniform(2, unitaries)
    monkeypatch.setattr(design, "_ROW_BLOCK", 2 * 2 * 2)
    with pytest.raises(ValueError) as blocked:
        UnitaryEnsemble.uniform(2, unitaries)
    assert str(blocked.value) == str(whole.value)
    assert str(whole.value) == "ensemble element 5 is not unitary (deviation 3.000e+00)"


@pytest.mark.parametrize("name", ["clifford3", "weighted3", "sampled3"])
def test_one_key_per_block_gives_bit_identical_results(name, request, monkeypatch):
    e = request.getfixturevalue(name)
    omega = ensemble_choi(e)
    keys = e.unitaries.copy()
    keys[-1, 0, 0] += 1e-3  # the last key, off by 1e-3 from unitary
    with pytest.raises(ValueError) as whole:
        UnitaryEnsemble(e.d, e.weights, keys)
    monkeypatch.setattr(design, "_ROW_BLOCK", 1)
    assert np.array_equal(ensemble_choi(e), omega)
    UnitaryEnsemble(e.d, e.weights, e.unitaries)  # every key still passes
    with pytest.raises(ValueError) as blocked:
        UnitaryEnsemble(e.d, e.weights, keys)
    assert str(blocked.value) == str(whole.value)
    assert f"ensemble element {e.size - 1} is not unitary" in str(whole.value)


@pytest.fixture
def haar4():
    return UnitaryEnsemble.uniform(4, haar_batch(4, 100, philox(12)))  # N = 100 < d^4 = 256


@pytest.mark.parametrize("name", ["clifford2", "clifford3", "sampled3", "haar4"])
def test_closed_form_theta_and_rank_match_eigh_reference(name, request):
    e = request.getfixturevalue(name)
    omega = ensemble_choi(e)
    report = certify_design(e)
    assert abs(report.multiplicative_theta - eigh_theta(omega, e.d)) <= 1e-12
    assert report.omega_rank == eigh_rank(omega, 1e-10)
    if name == "haar4":
        assert report.omega_rank == 100 and report.multiplicative_theta >= 1


def test_multiplicative_theta_reports_support_leak():
    # Phi (x) (1 - Phi) / (d^2 - 1) lies wholly outside the support of Omega_haar
    phi = max_entangled(2)
    outside = np.kron(phi, np.eye(4) - phi) / 3
    assert abs(design._support_deviation(outside, 2)[2] - 1) <= 1e-14
    assert multiplicative_theta(outside, 2) is None
    assert eigh_theta(outside, 2) is None
    assert projector_theta(outside, 2) is None


# clifford5's 3000 keys span several key blocks of ensemble_choi; haar4 has N < d^4
@pytest.mark.parametrize(
    "name", ["pauli21", "clifford2", "clifford3", "clifford5", "sampled3", "haar4", "weighted3"]
)
def test_real_basis_grades_match_computational_reference(name, request):
    e = request.getfixturevalue(name)
    d = e.d
    ref = computational_choi(e.weights, e.unitaries)
    p1, p2 = haar_projectors(d)
    ref_dist = float(np.sum(np.abs(np.linalg.eigvalsh(ref - p1 / d**2 - p2 / (d**2 * (d**2 - 1))))))
    ref_fp = d**4 * float(np.vdot(ref, ref).real)
    report = certify_design(e)
    assert abs(report.two_design_trace_dist - ref_dist) <= 1e-12
    assert abs(report.multiplicative_theta - projector_theta(ref, d)) <= 1e-12
    assert report.omega_rank == eigh_rank(ref, 1e-10)
    assert abs(report.frame_potential - ref_fp) <= 1e-12 * ref_fp
    if ref_dist <= 1 / math.e:
        assert abs(report.entropy_bound_bits - entropy_bound(d, ref_dist)) <= 1e-12
    else:
        assert report.entropy_bound_bits is None
    assert abs(report.support_leak) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_liouville_basis_fixes_the_haar_span(d):
    t = liouville_t(d)
    assert np.max(np.abs(t @ t.conj().T - np.eye(d * d))) <= 1e-14
    one = np.eye(d).reshape(-1)
    assert np.max(np.abs(t @ one - one)) <= 1e-14  # so t (x) conj(t) fixes P1 and P2
    p1, p2 = haar_projectors(d)
    haar = p1 / d**2 + p2 / (d**2 * (d**2 - 1))
    del p1, p2
    assert np.max(np.abs(ideal_choi(d) - haar)) <= 1e-14
    if d <= 5:  # at d = 7 the dense complex conjugations below would hold ~0.5 GB
        big = np.kron(t, t.conj())
        assert np.max(np.abs(big @ haar @ big.conj().T - haar)) <= 1e-14
        phi = max_entangled(d * d)
        assert np.max(np.abs(big @ phi @ big.conj().T - phi)) <= 1e-14


@pytest.mark.parametrize("name", ["clifford2", "weighted3", "haar3_few", "sampled3"])
def test_ensemble_choi_is_the_reference_in_the_real_basis(name, request):
    e = request.getfixturevalue(name)
    omega = ensemble_choi(e)
    assert omega.dtype == np.float64 and np.array_equal(omega, omega.T)
    big = np.kron(liouville_t(e.d), liouville_t(e.d).conj())
    ref = computational_choi(e.weights, e.unitaries)
    assert np.max(np.abs(big @ ref @ big.conj().T - omega)) <= 1e-14


@pytest.mark.parametrize("name", ["clifford3", "haar4", "weighted3"])
def test_certify_design_leaves_the_built_omega_untouched(name, request, monkeypatch):
    e = request.getfixturevalue(name)
    built = design.ensemble_choi
    kept = []

    def keep(*args, **kwargs):  # wraps the module attribute, as the benchmark's tracer does
        omega = built(*args, **kwargs)
        kept.append((omega, omega.copy()))
        return omega

    def forbidden(d):
        raise AssertionError("certify_design must not build ideal_choi")

    monkeypatch.setattr(design, "ensemble_choi", keep)
    monkeypatch.setattr(design, "ideal_choi", forbidden)
    report = certify_design(e)
    [(omega, before)] = kept
    assert omega.tobytes() == before.tobytes()
    assert report.multiplicative_theta is not None


@pytest.mark.parametrize("d", [2, 3])
def test_frame_grades_match_dense_projectors_off_the_ensemble_manifold(d):
    omega = random_density(d**4, philox(80 + d))  # trace one, PSD, mostly off the Haar support
    p1, p2 = haar_projectors(d)
    support = p1 + p2
    want = float(np.real(np.trace(omega) - np.trace(support @ omega)))
    assert want >= 0.1
    assert abs(design._support_deviation(omega, d)[2] - want) <= 1e-12
    assert multiplicative_theta(omega, d) is None and projector_theta(omega, d) is None
    inside = support @ omega @ support
    assert abs(design._support_deviation(inside, d)[2]) <= 1e-12
    theta = multiplicative_theta(inside, d)
    assert theta >= 0.1 and abs(theta - projector_theta(inside, d)) <= 1e-12


@pytest.mark.parametrize("name", ["clifford3", "haar4"])
def test_certify_design_makes_two_support_eigensolves(name, request, monkeypatch):
    e = request.getfixturevalue(name)
    d = e.d
    calls = []
    for kind in ("eigvalsh", "eigh", "svd"):
        def counted(a, *args, _kind=kind, _solve=getattr(np.linalg, kind), **kwargs):
            calls.append((_kind, np.shape(a)[-1]))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, kind, counted)
    certify_design(e)
    # besides the d^2 x d^2 solve of the 1-design distance, only the support block is solved
    assert sorted(c for c in calls if c[1] > d * d) == [("eigvalsh", 1 + (d * d - 1) ** 2)] * 2
    assert {kind for kind, _ in calls} == {"eigvalsh"}  # no eigh, no svd


@pytest.fixture
def repeated3():
    keys = haar_batch(3, 40, philox(34))
    return UnitaryEnsemble.uniform(3, np.concatenate([keys] * 3))  # 120 keys, 40 distinct


@pytest.mark.parametrize("name", ["clifford3", "pauli21", "haar4", "weighted3", "repeated3"])
def test_support_block_grades_match_the_full_frame(name, request):
    e = request.getfixturevalue(name)
    omega = ensemble_choi(e)
    report = certify_design(e)
    assert abs(report.two_design_trace_dist - full_frame_trace_dist(omega, e.d)) <= 1e-12
    # the frame-potential identity FP - 2 = d^4 ||X||_F^2, on the support block of X alone
    support, _, _ = design._support_deviation(omega, e.d)
    fp = report.frame_potential
    assert abs(e.d**4 * np.sum(support**2) - (fp - 2)) <= 1e-12 * fp


def test_near_unitary_keys_are_graded_no_lower_than_the_full_frame(clifford2):
    # U^dagger U - 1 has entries 8e-9, inside UNITARY_INGEST_TOL: the mixed block holds O(delta)
    keys = clifford2.unitaries @ np.diag([1 + 4e-9, 1 - 4e-9])  # each key times 1 + delta Z
    e = UnitaryEnsemble(2, clifford2.weights, keys)
    full = full_frame_trace_dist(ensemble_choi(e), 2)
    assert full > design.DEFAULT_CERT_TOL
    report = certify_design(e)
    assert report.two_design_trace_dist >= full and not report.passes_two_design


def _dense_iso_reference(x, d):
    """(alpha, beta, residual) of the isotropic projection, from a dense Phi_d."""
    alpha = float(np.real(np.trace(x @ max_entangled(d))))
    beta = (float(np.real(np.trace(x))) - alpha) / (d * d - 1)
    projected = isotropic_operator(IsotropicDecomposition(alpha, beta, residual=math.nan), d)
    return alpha, beta, trace_norm(x - projected)


@pytest.mark.parametrize("d", [2, 3, 4, "hermitian3"])
def test_iso_project_matches_the_dense_phi_reference(d):
    rng = philox(64)
    if d == "hermitian3":  # Hermitian, trace one, not PSD
        d = 3
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        x = g + g.conj().T
        x /= np.trace(x).real
        assert np.linalg.eigvalsh(x)[0] < 0
    else:
        x = random_density(d * d, rng)
    before = x.copy()
    dec = iso_project(x, d)
    assert np.array_equal(x, before)  # the projection is subtracted from a copy
    alpha, beta, residual = _dense_iso_reference(x, d)
    assert abs(dec.alpha - alpha) <= 1e-12 and abs(dec.beta - beta) <= 1e-12
    assert abs(dec.residual - residual) <= 1e-12


# clifford2 (24 keys) and haar3_many (200) span several groups of d^4 keys
@pytest.mark.parametrize(
    "name", ["singleton2", "pauli21", "clifford2", "haar3_many", "weighted3", "haar4"]
)
def test_one_design_distance_matches_the_kron_reference(name, request):
    e = request.getfixturevalue(name)
    tau = np.eye(e.d) / e.d
    rows = np.sqrt(e.weights)[:, None] * e.unitaries.reshape(e.size, -1)
    want = trace_norm(gram_choi(rows, e.d) - np.kron(tau, tau))
    assert abs(one_design_distance(e) - want) <= 1e-15


@pytest.mark.parametrize("name, rank", [("singleton2", 1), ("repeated3", 40), ("haar4", 100)])
def test_omega_rank_matches_eigh_of_the_computational_choi(name, rank, request):
    e = request.getfixturevalue(name)
    want = eigh_rank(computational_choi(e.weights, e.unitaries), 1e-10)
    assert certify_design(e).omega_rank == want == rank


def _support_omega(d, first, rest, seed):
    """PSD Omega (real Liouville basis) with eigenvalue ``first`` on 1/sqrt(d) (x) 1/sqrt(d) and
    ``rest``, in a random basis, on the traceless block: inside the support of Omega_haar."""
    dd = d * d
    rest = np.concatenate([rest, np.zeros((dd - 1) ** 2 - len(rest))])
    q, _ = np.linalg.qr(philox(seed).normal(size=((dd - 1) ** 2,) * 2))
    frame = np.zeros((dd,) * 4)
    frame[0, 0, 0, 0] = first
    frame[1:, 1:, 1:, 1:] = ((q * rest) @ q.T).reshape((dd - 1,) * 4)
    return adjoint_frame(frame.reshape(dd * dd, dd * dd), d)


def _rank_of(omega, d, monkeypatch):
    """certify_design's omega_rank when ensemble_choi returns ``omega``."""
    monkeypatch.setattr(design, "ensemble_choi", lambda e: omega)
    report = certify_design(singleton(d))
    assert abs(report.support_leak) <= 1e-14
    return report.omega_rank


@pytest.mark.parametrize("d", [2, 3])
def test_omega_rank_counts_outside_the_rank_tol_window(d, monkeypatch):
    tol, wide = design.RANK_TOL, (d * d - 1) * design.RANK_TOL
    # on 1/sqrt(d) A^2 is smallest (d^2), on the traceless block largest (d^2 (d^2 - 1)):
    # the two ends of the window, where a count is decided closest to the cut
    rest = [0.5, 1e-3, 1.01 * wide, 0.99 * tol, 0.5 * tol, 1e-14]
    assert _rank_of(_support_omega(d, 1.01 * wide, rest, 90 + d), d, monkeypatch) == 4
    assert _rank_of(_support_omega(d, 0.99 * tol, rest, 90 + d), d, monkeypatch) == 3
    # inside the window the count depends on the direction, as documented
    assert _rank_of(_support_omega(d, 0.99 * wide, [1.01 * tol], 90 + d), d, monkeypatch) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_omega_rank_keeps_the_psd_check(d, monkeypatch):
    tol = design.RANK_TOL
    assert _rank_of(_support_omega(d, 0.25, [0.5, -0.5 * tol], 95 + d), d, monkeypatch) == 2
    with pytest.raises(ValueError, match="not positive semidefinite"):
        _rank_of(_support_omega(d, 0.25, [0.5, -2 * tol], 95 + d), d, monkeypatch)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-9])
def test_certify_design_rejects_a_bad_tol(bad, pauli21):
    # at tol = inf the one-time pad would pass as a 2-design
    with pytest.raises(ValueError, match="^tol must be finite and > 0"):
        certify_design(pauli21, tol=bad)


def _clifford2_repeats():
    """One d = 2 Clifford key at three unequal weights, plus zero-weight copies of two others."""
    keys = clifford_prime(2).unitaries
    unitaries = np.concatenate([keys, keys[[5, 5, 5, 7, 9, 9]]])
    weights = np.concatenate([np.full(24, 0.75 / 24), [0.125, 0.0625, 0.0625, 0.0, 0.0, 0.0]])
    return UnitaryEnsemble(2, weights, unitaries)


def _clifford2_picks():
    """97 draws from the d = 2 Clifford group at random weights, zero for one key, then a copy of
    key 3 with a -0.0 (equal to it, other bytes) and a phased copy of it."""
    rng = philox(71)
    keys = clifford_prime(2).unitaries
    picks = rng.integers(0, 24, size=97)
    weights = np.where(picks == 4, 0.0, rng.random(97))
    edge = keys[3].copy()
    edge[tuple(np.argwhere(edge == 0)[0])] = complex(-0.0, 0.0)
    unitaries = np.concatenate([keys[picks], [edge, np.exp(0.3j) * keys[3]]])
    weights = np.concatenate([weights, [0.5, 0.25]])
    return UnitaryEnsemble(2, weights / weights.sum(), unitaries)


MERGE_CASES = {
    "sampled300": lambda: sample_design(SamplerConfig(3, 300, 5)),
    "clifford2_repeats": _clifford2_repeats,
    "clifford2_picks": _clifford2_picks,
    "one_key_copies": lambda: UnitaryEnsemble.uniform(
        3, np.repeat(haar_batch(3, 1, philox(37)), 50, axis=0)),
}


def _merged_and_unmerged(e, monkeypatch):
    """certify_design's report on ``e``, and the one built from every key with no merge; Omega
    must be built once per report, from its ``distinct_keys`` keys."""
    built, sizes = design.ensemble_choi, []

    def counted(ensemble):
        sizes.append(ensemble.size)
        return built(ensemble)

    monkeypatch.setattr(design, "ensemble_choi", counted)
    merged = certify_design(e)
    with monkeypatch.context() as m:
        m.setattr(design, "_merge_equal_keys", lambda e: e)
        unmerged = certify_design(e)
    assert sizes == [merged.distinct_keys, e.size]
    return merged, unmerged


@pytest.mark.parametrize("name", sorted(MERGE_CASES))
def test_certify_merges_equal_keys_with_the_grades_of_every_key(name, monkeypatch):
    e = MERGE_CASES[name]()
    merged, unmerged = _merged_and_unmerged(e, monkeypatch)
    distinct = len({u.tobytes() for u in e.unitaries})
    assert merged.distinct_keys == distinct < e.size and unmerged.distinct_keys == e.size
    for field in ("one_design_dist", "two_design_trace_dist", "two_design_diamond_upper",
                  "multiplicative_theta", "support_leak", "frame_potential", "entropy_bound_bits"):
        a, b = getattr(merged, field), getattr(unmerged, field)
        assert (a is None) == (b is None), field
        assert a is None or abs(a - b) <= 1e-12, (field, a, b)
    for field in ("d", "n", "entropy_bits", "omega_rank", "rank_bound", "passes_one_design",
                  "passes_two_design", "passes_multiplicative", "passes_rank_bound"):
        assert getattr(merged, field) == getattr(unmerged, field), field
    # independent of Omega: the N^2 pairwise traces over every unmerged key
    want = pairwise_frame_potential(e.weights, e.unitaries)
    assert abs(merged.frame_potential - want) <= 1e-12 * want


def test_certify_merges_only_byte_equal_keys(monkeypatch):
    key = clifford_prime(2).unitaries[3].copy()
    zero = tuple(np.argwhere(key == 0)[0])  # a zero entry, whose sign bit is flipped below
    negzero = key.copy()
    negzero[zero] = complex(-0.0, 0.0)
    assert np.array_equal(negzero, key) and negzero.tobytes() != key.tobytes()
    keys = np.stack([key, np.exp(0.3j) * key, negzero, key])
    merged, unmerged = _merged_and_unmerged(UnitaryEnsemble.uniform(2, keys), monkeypatch)
    assert merged.distinct_keys == 3  # only the two exact copies of key are one
    fp = unmerged.frame_potential
    assert abs(merged.frame_potential - fp) <= 1e-12 * fp


def _merge_reference(e):
    """Keys in first-occurrence order by their exact bytes, each with its weights summed in key
    order, from a plain dict over every key."""
    keys, weights = {}, {}
    for u, w in zip(e.unitaries, e.weights):
        keys.setdefault(u.tobytes(), u)
        weights[u.tobytes()] = weights.get(u.tobytes(), 0.0) + w
    return np.array(list(keys.values())), np.array(list(weights.values()))


@pytest.mark.parametrize("row_block", [1, 4 * 9, None], ids=["one-key", "36-entries", "default"])
@pytest.mark.parametrize("name", sorted(MERGE_CASES))
def test_merge_equal_keys_is_the_exact_set_of_bytes(name, row_block, monkeypatch):
    if row_block is not None:  # neighbours compared in blocks of one key, or 36 entries
        monkeypatch.setattr(design, "_ROW_BLOCK", row_block)
    e = MERGE_CASES[name]()
    keys, weights = _merge_reference(e)
    merged = design._merge_equal_keys(e)
    assert merged.unitaries.tobytes() == keys.tobytes()  # order, and the keys' exact bytes
    assert merged.weights.tobytes() == weights.tobytes()
    assert certify_design(e).distinct_keys == len(keys) < e.size


@pytest.mark.parametrize("row_block", [1, None])
def test_merge_equal_keys_returns_e_when_no_key_repeats(clifford3, row_block, monkeypatch):
    if row_block is not None:
        monkeypatch.setattr(design, "_ROW_BLOCK", row_block)
    assert design._merge_equal_keys(clifford3) is clifford3


def test_merge_equal_keys_copies_no_key(clifford3):
    e = UnitaryEnsemble.uniform(3, np.tile(clifford3.unitaries, (100, 1, 1)))  # 21 600 keys
    merged = design._merge_equal_keys(e)
    assert merged.size == 216 and np.all(merged.weights == merged.weights[0])
    _, peak = traced_peak(lambda: design._merge_equal_keys(e))
    # an index sort and a 1 MiB key block of neighbours; a sorted byte copy would be 3 MiB more
    assert peak <= 3 * 2**20, (peak, e.unitaries.nbytes)


def _near_unitary_haar(d, n, seed):
    """n Haar keys, each plus 1e-9 times a complex Gaussian matrix: U^dagger U - 1 ~ 1e-9, inside
    UNITARY_INGEST_TOL, and U^dagger U != U U^dagger."""
    keys = haar_batch(d, n, philox(seed))
    rng = philox(seed + 1)
    return keys + 1e-9 * (rng.normal(size=keys.shape) + 1j * rng.normal(size=keys.shape))


def _phase_duplicate():
    keys = haar_batch(3, 30, philox(41))
    return UnitaryEnsemble.uniform(3, np.concatenate([keys, np.exp(0.7j) * keys[:1]]))


def _zero_weights():
    weights = np.concatenate([philox(42).uniform(0.5, 1.5, size=20), np.zeros(5)])
    return UnitaryEnsemble(3, weights / weights.sum(), haar_batch(3, 25, philox(43)))


def _haar2(n, seed):
    return UnitaryEnsemble.uniform(2, haar_batch(2, n, philox(seed)))


# (ensemble, omega_rank); the support is 1 + (d^2 - 1)^2: 10 at d = 2, 65 at d = 3, 226 at d = 4
FEW_KEY_CASES = {
    "haar3_near_unitary": (lambda: UnitaryEnsemble.uniform(3, _near_unitary_haar(3, 40, 44)), 40),
    "haar4_near_unitary": (lambda: UnitaryEnsemble.uniform(4, _near_unitary_haar(4, 150, 46)), 150),
    "phase_duplicate": (_phase_duplicate, 30),  # 31 distinct keys, two of them equal up to phase
    "zero_weights": (_zero_weights, 20),
    "pauli_pad_two_qubits": (lambda: pauli_ensemble(2, 2), 16),
    "haar2_support_minus_one": (lambda: _haar2(9, 48), 9),
    "haar2_support": (lambda: _haar2(10, 49), 10),
}


@pytest.mark.parametrize("name", sorted(FEW_KEY_CASES))
def test_theta_and_rank_of_few_keys_match_the_dense_sandwich(name):
    make, rank = FEW_KEY_CASES[name]
    e = make()
    d, support = e.d, design.rank_bound(e.d)
    omega = ensemble_choi(e)
    dense = dense_sandwich_spectrum(omega, d)
    report = certify_design(e)
    assert abs(report.multiplicative_theta - multiplicative_theta(omega, d)) <= 1e-12
    cut = d * d * (d * d - 1) * design.RANK_TOL
    assert report.omega_rank == int(np.count_nonzero(dense > cut)) == rank
    if e.size < support:
        assert report.multiplicative_theta >= 1  # A Omega A has a zero eigenvalue on the support


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ideal_choi_is_diagonal_in_the_adjoint_frame(d):
    omega = ideal_choi(d)
    assert np.max(np.abs(omega - adjoint_frame(np.diag(haar_diagonal(d)), d))) <= 1e-15
    xs, mixed, leak = design._support_deviation(omega, d)
    assert np.max(np.abs(xs)) <= 1e-15 and mixed <= 1e-15 and abs(leak) <= 1e-15
    assert abs(d**4 * np.vdot(omega, omega) - 2) <= 1e-12  # the frame potential of a 2-design


def _leaky3():
    """A real PSD Omega of trace one at d = 3 with most of its weight off the Haar support."""
    g = philox(50).normal(size=(81, 81))
    omega = g @ g.T
    return omega / np.trace(omega)


@pytest.mark.parametrize(
    "name, row_block",
    [
        pytest.param(name, row_block, id=name + tag)
        for row_block, tag in [(None, ""), (1, "-one-slab"), (4 * 3**6, "-four-slabs")]
        for name in ["clifford3", "haar4", "repeated3", "leaky3"]
    ],
)
def test_support_deviation_matches_the_full_rotation(name, row_block, request, monkeypatch):
    # the default puts every off-diagonal slab of d <= 4 in one group; 1 gives one slab per group,
    # and 4 * 3^6 groups of four slabs at d = 3
    if row_block is not None:
        monkeypatch.setattr(design, "_ROW_BLOCK", row_block)
    if name == "leaky3":
        d, omega = 3, _leaky3()
    else:
        e = request.getfixturevalue(name)
        d, omega = e.d, ensemble_choi(e)
    before = omega.copy()
    xs, mixed, leak = design._support_deviation(omega, d)
    assert np.array_equal(omega, before)
    x, h, want_leak = haar_deviation(omega, d)
    assert np.array_equal(xs, x[np.ix_(h > 0, h > 0)])
    assert mixed == np.linalg.norm(x[h == 0]) and leak == want_leak
    if name == "leaky3":
        assert leak >= 0.1


def test_support_deviation_makes_no_second_d4_copy():
    d = 5
    g = philox(51).normal(size=(d**4, d**4))
    omega = g @ g.T
    (xs, _, _), peak = traced_peak(lambda: design._support_deviation(omega, d))
    # X_s, plus slab transients of about 2 d^7 entries (1.5 MB here); a second d^4 x d^4 array
    # would add omega.nbytes (3.1 MB) to X_s (2.7 MB)
    assert xs.nbytes < peak < xs.nbytes + 0.75 * omega.nbytes, (peak, xs.nbytes, omega.nbytes)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1, "3d^4 + 5"])
def test_ensemble_choi_adds_up_groups_of_d4_keys(d, extra):
    n = 3 * d**4 + 5 if extra == "3d^4 + 5" else d**4 + extra
    rng = philox(60 + n)
    weights = rng.random(n)
    weights[[0, n // 2]] = 0
    e = UnitaryEnsemble(d, weights / weights.sum(), haar_batch(d, n, rng))
    omega, ref = ensemble_choi(e), single_gram_choi(e.weights, e.unitaries)
    assert omega.dtype == np.float64 and np.array_equal(omega, omega.T)
    assert np.max(np.abs(omega - ref)) <= 1e-12
    if n <= d**4:  # one group: the single Gram, bit for bit
        assert np.array_equal(omega, ref)


def test_ensemble_choi_holds_no_copy_of_the_keys(clifford5):
    omega, peak = traced_peak(lambda: ensemble_choi(clifford5))
    # one group's d^4 rows, Omega and one group's Gram, plus key-block transients; the 3000 rows
    # of a single Gram alone would be 15 MB
    assert peak <= 3 * omega.nbytes + 4 * 2**20, (peak, omega.nbytes)


def test_one_design_distance_holds_one_group_of_d4_keys(clifford3):
    e = UnitaryEnsemble.uniform(3, np.tile(clifford3.unitaries, (100, 1, 1)))  # 21 600 keys
    _, peak = traced_peak(lambda: one_design_distance(e))
    # one group of 81 scaled keys (12 kB); all of them would be 3.1 MB
    assert peak <= 2**18, peak

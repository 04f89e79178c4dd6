import math

import numpy as np
import pytest

from qnm import (
    UnitaryEnsemble,
    certify_design,
    ensemble_choi,
    ensemble_entropy,
    entropy_bound,
    frame_potential,
    ideal_choi,
    iso_project,
    max_entangled,
    multiplicative_theta,
    num_rank,
    trace_norm,
)
from qnm import design
from qnm.construct import SamplerConfig, clifford_prime, sample_design

from helpers import (
    computational_choi,
    eigh_rank,
    eigh_theta,
    haar_batch,
    haar_projectors,
    liouville_t,
    mc_haar_twirl,
    pairwise_frame_potential,
    philox,
    projector_theta,
    random_density,
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
    dec, proj = iso_project(max_entangled(2), 2)
    assert abs(dec.alpha - 1) <= 1e-14 and abs(dec.beta) <= 1e-14
    assert dec.residual <= 1e-13
    assert np.max(np.abs(proj - max_entangled(2))) <= 1e-13


def test_iso_project_identity_input():
    dec, proj = iso_project(np.eye(4, dtype=complex), 2)
    assert abs(dec.alpha - 1) <= 1e-14 and abs(dec.beta - 1) <= 1e-14
    assert np.max(np.abs(proj - np.eye(4))) <= 1e-13


def test_iso_project_computational_basis_state():
    x = np.zeros((4, 4), dtype=complex)
    x[0, 0] = 1.0
    dec, _ = iso_project(x, 2)
    assert abs(dec.alpha - 0.5) <= 1e-14
    assert abs(dec.beta - 1 / 6) <= 1e-14


def test_iso_project_idempotent():
    rng = philox(61)
    for d in (2, 3):
        x = random_density(d * d, rng)
        _, proj = iso_project(x, d)
        dec2, proj2 = iso_project(proj, d)
        assert dec2.residual <= 1e-12
        assert np.max(np.abs(proj - proj2)) <= 1e-12


def test_iso_project_dimension_mismatch():
    with pytest.raises(ValueError):
        iso_project(np.eye(4), 3)


def test_iso_project_invariant_inputs_have_no_residual():
    phi = max_entangled(3)
    x = 0.4 * phi + 0.05 * (np.eye(9) - phi)
    dec, _ = iso_project(x, 3)
    assert dec.residual <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_iso_project_matches_monte_carlo_twirl(d):
    rng = philox(62 + d)
    inputs = np.array([random_density(d * d, rng) for _ in range(10)])
    estimates = mc_haar_twirl(inputs, d, n_samples=100_000, seed=700 + d)
    for x, mc in zip(inputs, estimates):
        _, proj = iso_project(x, d)
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


def test_ensemble_entropy():
    assert abs(ensemble_entropy(UnitaryEnsemble.uniform(2, np.array([np.eye(2)] * 4))) - 2.0) <= 1e-12
    assert abs(ensemble_entropy(UnitaryEnsemble.uniform(2, np.array([np.eye(2)] * 24))) - math.log2(24)) <= 1e-12
    point = UnitaryEnsemble(d=2, weights=np.array([1.0, 0.0]), unitaries=np.array([np.eye(2)] * 2))
    assert ensemble_entropy(point) == 0.0


def _shipped_ensembles(pauli21, pauli31, clifford2, clifford3):
    from qnm import pauli_ensemble

    sampled = sample_design(SamplerConfig(d=2, n_samples=2000, seed=7, source="clifford"))
    return [pauli21, pauli31, pauli_ensemble(2, 2), clifford2, clifford3, sampled, singleton(2)]


def test_two_design_implies_one_design(pauli21, pauli31, clifford2, clifford3):
    for e in _shipped_ensembles(pauli21, pauli31, clifford2, clifford3):
        report = certify_design(e, tol=1e-9)
        if report.two_design_trace_dist <= 1e-9:
            assert report.one_design_dist <= 1e-8


def test_rank_bound_on_exact_designs(pauli21, pauli31, clifford2, clifford3):
    for e in _shipped_ensembles(pauli21, pauli31, clifford2, clifford3):
        report = certify_design(e, tol=1e-9)
        if report.two_design_trace_dist <= 1e-9:
            assert e.size >= report.omega_rank >= report.rank_bound


def test_frame_potential_concordance(pauli21, pauli31, clifford2, clifford3):
    for e in _shipped_ensembles(pauli21, pauli31, clifford2, clifford3):
        report = certify_design(e, tol=1e-9)
        is_design = report.two_design_trace_dist <= 1e-9
        fp_minimal = abs(report.frame_potential - 2.0) <= 1e-8
        assert is_design == fp_minimal
        assert report.frame_potential >= 2.0 - 1e-9


def test_entropy_consistency(pauli21, pauli31, clifford2, clifford3):
    for e in _shipped_ensembles(pauli21, pauli31, clifford2, clifford3):
        report = certify_design(e, tol=1e-9)
        if report.entropy_bound_bits is not None:
            assert report.entropy_bits >= report.entropy_bound_bits - 1e-9


def test_ensemble_validation():
    with pytest.raises(ValueError):
        UnitaryEnsemble(d=2, weights=np.array([0.5, 0.6]), unitaries=np.array([np.eye(2)] * 2))
    with pytest.raises(ValueError):
        UnitaryEnsemble(d=2, weights=np.array([1.0]), unitaries=np.array([[[1, 0], [1, 1]]], dtype=complex))
    with pytest.raises(ValueError):
        UnitaryEnsemble(d=2, weights=np.array([1.5, -0.5]), unitaries=np.array([np.eye(2)] * 2))


@pytest.mark.parametrize("field", ["weights", "unitaries"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ensemble_rejects_non_finite_input(field, bad):
    fields = {"weights": np.array([0.5, 0.5]), "unitaries": np.array([np.eye(2)] * 2, dtype=complex)}
    fields[field].reshape(-1)[-1] = bad  # a view: the last entry of the field
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        UnitaryEnsemble(d=2, **fields)


def test_ensemble_names_first_non_unitary_element():
    unitaries = np.array([np.eye(2)] * 4, dtype=complex)
    unitaries[2] *= 2
    unitaries[3] *= 3
    with pytest.raises(ValueError, match="ensemble element 2 is not unitary"):
        UnitaryEnsemble.uniform(2, unitaries)


@pytest.fixture
def sampled3():
    return sample_design(SamplerConfig(d=3, n_samples=300, seed=11, source="clifford"))


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
    assert abs(design._haar_deviation(outside, 2)[2] - 1) <= 1e-14
    assert multiplicative_theta(outside, 2) is None
    assert eigh_theta(outside, 2) is None
    assert projector_theta(outside, 2) is None


@pytest.fixture(scope="module")
def clifford5():
    return clifford_prime(5)


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
    assert abs(design._haar_deviation(omega, d)[2] - want) <= 1e-12
    assert multiplicative_theta(omega, d) is None and projector_theta(omega, d) is None
    inside = support @ omega @ support
    assert abs(design._haar_deviation(inside, d)[2]) <= 1e-12
    theta = multiplicative_theta(inside, d)
    assert theta >= 0.1 and abs(theta - projector_theta(inside, d)) <= 1e-12


@pytest.mark.parametrize("name", ["clifford3", "haar4"])
def test_certify_design_makes_one_full_and_one_support_eigensolve(name, request, monkeypatch):
    e = request.getfixturevalue(name)
    d = e.d
    calls = []
    for kind in ("eigvalsh", "eigh", "svd"):
        def counted(a, *args, _kind=kind, _solve=getattr(np.linalg, kind), **kwargs):
            calls.append((_kind, np.shape(a)[-1]))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, kind, counted)
    certify_design(e)
    assert sorted(c for c in calls if c[1] > d * d) == [("eigvalsh", 1 + (d * d - 1) ** 2),
                                                        ("eigvalsh", d**4)]
    assert {kind for kind, _ in calls} == {"eigvalsh"}  # no eigh, no svd


@pytest.fixture
def repeated3():
    keys = haar_batch(3, 40, philox(34))
    return UnitaryEnsemble.uniform(3, np.concatenate([keys] * 3))  # 120 keys, 40 distinct


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
    return design._adjoint_frame(frame.reshape(dd * dd, dd * dd), d)


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

import re

import numpy as np
import pytest

from qnm import (
    EncryptionScheme,
    KrausChannel,
    attack_report,
    choi_of,
    constant_channel,
    design,
    effective_channel,
    random_cptni_channel,
    trace_norm,
    unitary_channel,
    weyl,
)
from qnm import nmes
from qnm.design import UnitaryEnsemble

from helpers import (
    apply_channel,
    haar_batch,
    loop_attack_reference,
    loop_effective_kraus,
    loop_replacement_mean,
    max_entangled,
    philox,
    random_density,
    traced_peak,
)


@pytest.fixture
def pauli_scheme(pauli21):
    return EncryptionScheme(pauli21)


@pytest.fixture
def clifford_scheme(clifford2):
    return EncryptionScheme(clifford2)


def test_effective_channel_identity_adversary(clifford_scheme):
    eff = effective_channel(clifford_scheme, unitary_channel(np.eye(2)))
    dist = trace_norm(choi_of(eff) - choi_of(unitary_channel(np.eye(2))))
    assert dist <= 1e-12


@pytest.fixture
def haar3_uneven():
    # 30 Haar keys with uneven weights: not a 1-design
    return UnitaryEnsemble(3, np.arange(1, 31) / 465, haar_batch(3, 30, philox(73)))


def test_effective_channel_replacement_adversary(clifford2, haar3_uneven):
    # rho -> eta tr(rho) becomes rho -> (sum_k p_k U_k^dagger eta U_k) tr(rho), whose Choi
    # operator is that state (x) tau: the sum is taken key by key
    for e in (clifford2, haar3_uneven):
        eta = random_density(e.d, philox(72))
        choi = choi_of(effective_channel(EncryptionScheme(e), constant_channel(eta)))
        mean = sum(p * u.conj().T @ eta @ u for p, u in zip(e.weights, e.unitaries))
        tau = np.eye(e.d) / e.d
        assert trace_norm(choi - np.kron(mean, tau)) <= 1e-12
        if e is clifford2:  # a 1-design sends every state to tau
            assert trace_norm(choi - np.kron(tau, tau)) <= 1e-10


def test_effective_channel_traceless_unitary(clifford_scheme):
    d = 2
    eff = effective_channel(clifford_scheme, unitary_channel(weyl(d, 1, 0)))
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            got = apply_channel(eff, unit)
            want = (d * np.eye(d) * (1.0 if i == j else 0.0) - unit) / (d * d - 1)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_effective_channel_rejects_trace_increasing(clifford_scheme):
    bad = KrausChannel(d=2, kraus_ops=[2.0 * np.eye(2)])
    with pytest.raises(ValueError):
        effective_channel(clifford_scheme, bad)


def test_effective_channel_linear_in_adversary(clifford_scheme):
    rng = philox(73)
    ch_a = random_cptni_channel(2, rng)
    ch_b = random_cptni_channel(2, rng)
    q = 0.4
    mixed = KrausChannel(
        d=2,
        kraus_ops=[np.sqrt(q) * k for k in ch_a.kraus_ops]
        + [np.sqrt(1 - q) * k for k in ch_b.kraus_ops],
    )
    choi_mixed = choi_of(effective_channel(clifford_scheme, mixed))
    want = q * choi_of(effective_channel(clifford_scheme, ch_a)) + (1 - q) * choi_of(
        effective_channel(clifford_scheme, ch_b)
    )
    assert np.max(np.abs(choi_mixed - want)) <= 1e-12


def test_effective_channel_preserves_choi_trace(clifford_scheme):
    rng = philox(74)
    adv = random_cptni_channel(2, rng)
    t_in = np.trace(choi_of(adv))
    t_out = np.trace(choi_of(effective_channel(clifford_scheme, adv)))
    assert abs(t_in - t_out) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_attack_on_two_design_stays_isotropic(d, request):
    # the twirl over a 2-design leaves alpha = sum |tr K_m|^2 / d^2 and
    # beta = (sum tr K_m^dagger K_m / d - alpha) / (d^2 - 1); clifford5's 3000 keys fill 29 key
    # blocks of replace:tau's d^2 Kraus operators
    scheme = EncryptionScheme(request.getfixturevalue(f"clifford{d}"))
    rng = philox(75 + d)
    adversaries = [random_cptni_channel(d, rng) for _ in range(5)] + [
        random_cptni_channel(d, rng, num_kraus=d * d),
        constant_channel(np.eye(d) / d),  # replace:tau: alpha = beta = 1/d^2
        constant_channel(np.diag(np.eye(d)[0])),  # replace:0
        constant_channel(random_density(d, rng, rank=2)),
        unitary_channel(weyl(d, 1, 2)),  # traceless: alpha = 0, beta = 1/(d^2 - 1)
    ]
    for adversary in adversaries:
        ops = adversary.kraus_ops
        alpha = sum(abs(np.trace(k)) ** 2 for k in ops) / d**2
        beta = (np.vdot(ops, ops).real / d - alpha) / (d * d - 1)
        report = attack_report(scheme, adversary)
        got = report.decomposition
        assert max(abs(got.alpha - alpha), abs(got.beta - beta)) <= 1e-12, (got, alpha, beta)
        assert report.malleability_residual <= 1e-10
        assert report.diamond_upper_bound == d * report.malleability_residual


def test_attack_identity_is_alpha_one(clifford_scheme):
    report = attack_report(clifford_scheme, unitary_channel(np.eye(2)))
    assert abs(report.decomposition.alpha - 1) <= 1e-12
    assert abs(report.decomposition.beta) <= 1e-12
    assert report.malleability_residual <= 1e-12


def test_pauli_scheme_is_malleable(pauli_scheme):
    report = attack_report(pauli_scheme, unitary_channel(weyl(2, 1, 0)))
    assert abs(report.malleability_residual - 4 / 3) <= 1e-12
    assert report.malleability_residual > 1
    # the effective channel IS the X conjugation
    assert np.max(np.abs(report.effective_choi - choi_of(unitary_channel(weyl(2, 1, 0))))) <= 1e-12


def test_pauli_attack_exact_forwarding(pauli_scheme, pauli31):
    report = attack_report(pauli_scheme, unitary_channel(weyl(2, 1, 0)))
    assert np.max(np.abs(report.effective_choi - choi_of(unitary_channel(weyl(2, 1, 0))))) <= 1e-12
    report3 = attack_report(EncryptionScheme(pauli31), unitary_channel(weyl(3, 1, 2)))
    assert np.max(np.abs(report3.effective_choi - choi_of(unitary_channel(weyl(3, 1, 2))))) <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pauli_attack_forwards_every_weyl_operator_on_the_pad(p):
    from qnm import pauli_ensemble

    scheme = EncryptionScheme(pauli_ensemble(p, 1))
    for a in range(p):
        for b in range(p):
            attack = unitary_channel(weyl(p, a, b))
            report = attack_report(scheme, attack)
            assert np.max(np.abs(report.effective_choi - choi_of(attack))) <= 1e-12


def test_pauli_attack_identity_index(pauli_scheme):
    report = attack_report(pauli_scheme, unitary_channel(weyl(2, 0, 0)))
    assert report.malleability_residual <= 1e-12
    assert abs(report.decomposition.alpha - 1) <= 1e-12


def test_pauli_attack_on_clifford_scheme(clifford_scheme):
    # non-Weyl keys: no exact forwarding, the attack is depolarized instead
    report = attack_report(clifford_scheme, unitary_channel(weyl(2, 1, 0)))
    assert report.malleability_residual <= 1e-9
    assert abs(report.decomposition.alpha) <= 1e-9
    assert abs(report.decomposition.beta - 1 / 3) <= 1e-9


def test_attack_report_flags_non_one_design_scheme():
    lone = EncryptionScheme(
        __import__("qnm").UnitaryEnsemble.uniform(2, np.eye(2, dtype=complex)[None])
    )
    report = attack_report(lone, unitary_channel(np.eye(2)))
    assert report.scheme_one_design_dist > 1.0


def test_subnormalized_adversary_scales_cone_coefficients(clifford_scheme):
    half = KrausChannel(d=2, kraus_ops=[np.sqrt(0.5) * np.eye(2)])
    report = attack_report(clifford_scheme, half)
    assert abs(report.decomposition.alpha - 0.5) <= 1e-12
    assert report.malleability_residual <= 1e-12


def test_two_qudit_pad_forwards_tensor_weyl_attacks():
    from qnm import pauli_ensemble

    scheme = EncryptionScheme(pauli_ensemble(2, 2))
    attack_unitary = np.kron(weyl(2, 1, 0), weyl(2, 0, 1))
    report = attack_report(scheme, unitary_channel(attack_unitary))
    assert np.max(np.abs(report.effective_choi - choi_of(unitary_channel(attack_unitary)))) <= 1e-12
    assert report.malleability_residual > 1


def test_pauli_attack_on_two_qudit_pad_is_not_forwarded():
    from qnm import pauli_ensemble

    # single-qudit Weyl on d=4 is not in the two-qubit key group, so the
    # exact-forwarding identity must not be asserted (and does not hold)
    scheme = EncryptionScheme(pauli_ensemble(2, 2))
    report = attack_report(scheme, unitary_channel(weyl(4, 1, 0)))
    assert np.max(np.abs(report.effective_choi - choi_of(unitary_channel(weyl(4, 1, 0))))) > 1e-6


def _blocked_scheme(monkeypatch, rng, num_kraus):
    """11 Haar keys at d = 3, two of zero weight, and blocks of 4 keys for M = num_kraus."""
    weights = rng.random(11)
    weights[[2, 7]] = 0
    ensemble = UnitaryEnsemble(d=3, weights=weights / weights.sum(), unitaries=haar_batch(3, 11, rng))
    # the nine kept keys fill blocks of 4, 4 and 1
    monkeypatch.setattr(design, "_ROW_BLOCK", 4 * max(9 * num_kraus, 1))
    return EncryptionScheme(ensemble)


@pytest.mark.parametrize("num_kraus", [1, 5, 12])
def test_one_key_per_block_gives_the_same_kraus_stack(monkeypatch, num_kraus):
    rng = philox(23)
    weights = rng.random(9)
    weights[[0, 4]] = 0
    ensemble = UnitaryEnsemble(d=3, weights=weights / weights.sum(), unitaries=haar_batch(3, 9, rng))
    scheme = EncryptionScheme(ensemble)
    adversary = random_cptni_channel(3, rng, num_kraus=num_kraus)
    ops = effective_channel(scheme, adversary).kraus_ops
    monkeypatch.setattr(design, "_ROW_BLOCK", 1)
    blocked = effective_channel(scheme, adversary).kraus_ops
    assert ops.shape == blocked.shape == (7 * num_kraus, 3, 3)
    assert np.array_equal(blocked, ops)


def test_batched_effective_channel_matches_per_key_loop(monkeypatch):
    rng = philox(21)
    scheme = _blocked_scheme(monkeypatch, rng, 5)
    adversary = random_cptni_channel(3, rng, num_kraus=5)
    ops = effective_channel(scheme, adversary).kraus_ops
    e = scheme.ensemble
    expected = loop_effective_kraus(e.weights, e.unitaries, adversary.kraus_ops)
    assert ops.shape == (9 * 5, 3, 3) and len(expected) == 9 * 5
    assert np.max(np.abs(ops - np.array(expected))) <= 1e-12  # key-major, as the loop


def test_effective_channel_of_no_kraus_operators_is_zero(monkeypatch):
    scheme = _blocked_scheme(monkeypatch, philox(22), 0)
    adversary = KrausChannel(d=3, kraus_ops=np.zeros((0, 3, 3)))
    effective = effective_channel(scheme, adversary)
    assert effective.kraus_ops.shape == (0, 3, 3)
    assert np.array_equal(choi_of(effective), np.zeros((9, 9)))
    report = attack_report(scheme, adversary)
    assert report.decomposition.alpha == report.decomposition.beta == 0
    assert report.malleability_residual == 0


@pytest.mark.parametrize("scheme_name", ["clifford3", "sampled3"])
@pytest.mark.parametrize("adversary", ["replace:tau", "replace:0", "weyl:1,0", "kraus5"])
def test_attack_report_matches_the_loop_reference(request, scheme_name, adversary):
    ensemble = request.getfixturevalue(scheme_name)
    adv = {
        "replace:tau": lambda: constant_channel(np.eye(3) / 3),
        "replace:0": lambda: constant_channel(np.diag([1.0, 0.0, 0.0])),
        "weyl:1,0": lambda: unitary_channel(weyl(3, 1, 0)),
        "kraus5": lambda: random_cptni_channel(3, philox(31), num_kraus=5),
    }[adversary]()
    report = attack_report(EncryptionScheme(ensemble), adv)
    alpha, beta, residual, choi = loop_attack_reference(
        ensemble.weights, ensemble.unitaries, adv.kraus_ops, 3
    )
    got = report.decomposition
    assert abs(got.alpha - alpha) <= 1e-12 and abs(got.beta - beta) <= 1e-12
    assert abs(report.malleability_residual - residual) <= 1e-12
    assert np.max(np.abs(report.effective_choi - choi)) <= 1e-12


def _edge_weighted_scheme(monkeypatch, num_kraus):
    """12 Haar keys at d = 3 in blocks of 4 for M = num_kraus; zero weights end the first block,
    fill the second and end the last."""
    rng = philox(24)
    weights = rng.random(12)
    weights[[3, 4, 5, 6, 7, 11]] = 0
    ensemble = UnitaryEnsemble(d=3, weights=weights / weights.sum(), unitaries=haar_batch(3, 12, rng))
    monkeypatch.setattr(design, "_ROW_BLOCK", 4 * max(num_kraus * 9, 1))
    assert design.key_blocks(12, num_kraus * 9) == [slice(0, 4), slice(4, 8), slice(8, 12)]
    if num_kraus == 0:
        return EncryptionScheme(ensemble), KrausChannel(d=3, kraus_ops=np.zeros((0, 3, 3)))
    return EncryptionScheme(ensemble), random_cptni_channel(3, rng, num_kraus=num_kraus)


@pytest.mark.parametrize("num_kraus", [0, 1, 9, 25])
def test_attack_report_sums_the_effective_choi_over_key_blocks(monkeypatch, num_kraus):
    scheme, adversary = _edge_weighted_scheme(monkeypatch, num_kraus)
    report = attack_report(scheme, adversary)
    whole = choi_of(effective_channel(scheme, adversary))
    assert np.max(np.abs(report.effective_choi - whole)) <= 1e-12
    assert np.array_equal(report.effective_choi, report.effective_choi.conj().T)


@pytest.mark.parametrize("num_kraus", [1, 9, 25])
def test_effective_channel_over_a_key_partition_is_the_whole_call(monkeypatch, num_kraus):
    scheme, adversary = _edge_weighted_scheme(monkeypatch, num_kraus)
    parts = [effective_channel(scheme, adversary, block).kraus_ops
             for block in design.key_blocks(12, num_kraus * 9)]
    assert [len(p) for p in parts] == [3 * num_kraus, 0, 3 * num_kraus]
    whole = effective_channel(scheme, adversary).kraus_ops
    assert np.array_equal(np.concatenate(parts), whole)
    monkeypatch.undo()
    assert np.array_equal(effective_channel(scheme, adversary).kraus_ops, whole)


def test_attack_report_is_the_one_walk_over_the_key_blocks(monkeypatch):
    scheme, adversary = _edge_weighted_scheme(monkeypatch, 9)
    walks = []
    key_blocks = design.key_blocks
    monkeypatch.setattr(design, "key_blocks", lambda *args: walks.append(args) or key_blocks(*args))
    attack_report(scheme, adversary)
    assert walks == [(12, 9 * 9)]  # three blocks, and effective_channel walks none of its own


def test_attack_report_rejects_a_trace_increasing_adversary(clifford_scheme):
    adversary = KrausChannel(d=2, kraus_ops=[1.1 * np.eye(2)])
    want = r"^adversary channel is not trace non-increasing \(defect 2\.100e-01\)$"
    with pytest.raises(ValueError, match=want):
        attack_report(clifford_scheme, adversary)


def test_attack_report_holds_one_key_block_of_kraus_products(clifford5):
    scheme = EncryptionScheme(clifford5)
    adversary = random_cptni_channel(5, philox(25), num_kraus=25)
    _, peak = traced_peak(lambda: attack_report(scheme, adversary))
    # a 1 MiB block of products and its transients; all 3000 * 25 of them are 29 MiB
    assert peak <= 5 * 2**20, peak


def _zero_weight_scheme():
    """40 Haar keys at d = 2, three of zero weight: not a 1-design, in three groups of d^4 = 16."""
    rng = philox(26)
    weights = rng.random(40)
    weights[[0, 16, 39]] = 0
    return UnitaryEnsemble(2, weights / weights.sum(), haar_batch(2, 40, rng))


def _replacement_states(d: int):
    """tau, every basis state |j><j| and a random mixed non-diagonal state."""
    mixed = random_density(d, philox(27 + d))
    assert np.max(np.abs(mixed - np.diag(np.diag(mixed)))) > 0.05
    return [np.eye(d) / d, *(np.diag(np.eye(d)[j]) for j in range(d)), mixed]


def _report_values(report):
    dec = report.decomposition
    return np.array([dec.alpha, dec.beta, report.malleability_residual,
                     report.diamond_upper_bound, report.scheme_one_design_dist])


@pytest.mark.parametrize("scheme_name", ["haar3_uneven", "sampled3", "zero-weight", "clifford2",
                                         "clifford3", "pauli21", "pauli31"])
def test_replacement_state_route_matches_the_kraus_route_and_the_loop(request, scheme_name):
    # sampled3's 300 keys and zero-weight's 40 fill more than one group of d^4 keys in J1
    if scheme_name == "zero-weight":
        e = _zero_weight_scheme()
    else:
        e = request.getfixturevalue(scheme_name)
    d, scheme = e.d, EncryptionScheme(e)
    for eta in _replacement_states(d):
        report = attack_report(scheme, eta)
        kraus = attack_report(scheme, constant_channel(eta))
        assert np.max(np.abs(_report_values(report) - _report_values(kraus))) <= 1e-12
        assert np.max(np.abs(report.effective_choi - kraus.effective_choi)) <= 1e-12
        alpha, beta, residual, choi = loop_attack_reference(e.weights, e.unitaries,
                                                            constant_channel(eta).kraus_ops, d)
        got = _report_values(report)
        assert np.max(np.abs(got[:3] - [alpha, beta, residual])) <= 1e-12
        assert np.max(np.abs(report.effective_choi - choi)) <= 1e-12
        assert np.array_equal(report.effective_choi, report.effective_choi.conj().T)
        # the residual is the decrypted state's distance from tau, 0 on every 1-design
        mean = loop_replacement_mean(e.weights, e.unitaries, eta)
        tau = np.eye(d) / d
        assert abs(report.malleability_residual - trace_norm(mean - tau)) <= 1e-12
        assert np.max(np.abs(report.effective_choi - np.kron(mean, tau))) <= 1e-12
        if scheme_name.startswith(("clifford", "pauli")):
            assert np.max(np.abs(mean - tau)) <= 1e-12
            assert report.scheme_one_design_dist <= 1e-12
        elif not np.array_equal(eta, tau):  # every key fixes tau; these keys move any other eta
            assert report.malleability_residual > 1e-6


def test_replacement_state_route_builds_no_kraus_product(monkeypatch, clifford3):
    def refuse(*args):
        raise AssertionError("the Kraus route was taken")

    monkeypatch.setattr(nmes, "effective_channel", refuse)
    monkeypatch.setattr(nmes, "choi_of", refuse)
    walks = []
    monkeypatch.setattr(design, "encryption_choi",
                        lambda e, build=design.encryption_choi: walks.append(e) or build(e))
    report = attack_report(EncryptionScheme(clifford3), np.diag([0.0, 1.0, 0.0]))
    assert len(walks) == 1  # J1 is built once, for eta_bar and the 1-design distance
    assert abs(report.decomposition.alpha - 1 / 9) <= 1e-12


@pytest.mark.parametrize("eta, error", [
    (np.eye(2), "replacement state has trace 2+0j, not 1"),
    (np.ones((2, 3)) / 2, "replacement state eta0 must be a square matrix, got shape (2, 3)"),
    (np.eye(3) / 3, "adversary acts on dimension 3, scheme has dimension 2"),
], ids=["trace-2", "non-square", "other-dimension"])
def test_attack_report_checks_a_replacement_state(clifford_scheme, eta, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        attack_report(clifford_scheme, eta)

"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the toolkit at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they happen).
"""

import math
import time

import numpy as np

from qnm import (
    EncryptionScheme,
    attack_report,
    certify_design,
    choi_of,
    clifford_prime,
    constant_channel,
    effective_channel,
    ensemble_choi,
    ensemble_entropy,
    entropy_bound,
    frame_potential,
    pauli_ensemble,
    random_cptni_channel,
    trace_norm,
    unitary_channel,
    weyl,
)
from qnm.construct import SamplerConfig, sample_design
from qnm.design import ideal_choi, multiplicative_theta
from qnm.linalg import num_rank

from helpers import apply_channel, channel_from_choi, choi_inverse_action, philox, random_density


def _report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_exact_clifford_designs():
    budgets = {2: 1.0, 3: 60.0, 5: 600.0}
    tols = {2: 1e-9, 3: 1e-8, 5: 1e-8}
    ok = True
    details = []
    for p in (2, 3, 5):
        start = time.perf_counter()
        e = clifford_prime(p)
        dist = trace_norm(ensemble_choi(e) - ideal_choi(p))
        elapsed = time.perf_counter() - start
        good = e.size == p**5 - p**3 and dist <= tols[p] and elapsed <= budgets[p]
        ok = ok and good
        details.append(f"p={p}: N={e.size}, dist={dist:.2e}, {elapsed:.2f}s")
    _report(1, ok, "; ".join(details))


def test_criterion_02_rank_bound():
    ok = True
    details = []
    for p in (2, 3, 5):
        e = clifford_prime(p)
        rank = num_rank(ensemble_choi(e))
        bound = (p * p - 1) ** 2 + 1
        ok = ok and rank == bound and e.size >= bound
        details.append(f"p={p}: rank={rank}=bound")
    rep = certify_design(pauli_ensemble(2, 1))
    pauli_ok = rep.omega_rank == 4 and rep.omega_rank < 10 and rep.two_design_trace_dist > 0.1
    ok = ok and pauli_ok
    details.append(f"pauli d=2: rank={rep.omega_rank}<10, dist={rep.two_design_trace_dist:.3f}")
    _report(2, ok, "; ".join(details))


def test_criterion_03_two_design_implies_one_design():
    ensembles = {
        "clifford2": clifford_prime(2),
        "clifford3": clifford_prime(3),
        "clifford5": clifford_prime(5),
        "pauli2": pauli_ensemble(2, 1),
        "pauli3": pauli_ensemble(3, 1),
        "sampled": sample_design(SamplerConfig(d=2, n_samples=2000, seed=7, source="clifford")),
    }
    ok = True
    checked = []
    for name, e in ensembles.items():
        rep = certify_design(e, tol=1e-9)
        if rep.two_design_trace_dist <= 1e-9:
            ok = ok and rep.one_design_dist <= 1e-8
            checked.append(f"{name}: one-design dist {rep.one_design_dist:.2e}")
    _report(3, ok and len(checked) == 3, "; ".join(checked))


def test_criterion_04_effective_channel_formulas():
    ok = True
    details = []
    for p in (2, 3):
        scheme = EncryptionScheme(clifford_prime(p))
        d = p
        eff = effective_channel(scheme, unitary_channel(weyl(d, 1, 0)))
        worst = 0.0
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                got = apply_channel(eff, unit)
                want = (d * np.eye(d) * (1.0 if i == j else 0.0) - unit) / (d * d - 1)
                worst = max(worst, float(np.max(np.abs(got - want))))
        ok = ok and worst <= 1e-9
        id_dist = trace_norm(
            choi_of(effective_channel(scheme, unitary_channel(np.eye(d))))
            - choi_of(unitary_channel(np.eye(d)))
        )
        eta = random_density(d, philox(140 + p))
        rep_dist = trace_norm(
            choi_of(effective_channel(scheme, constant_channel(eta)))
            - np.eye(d * d) / d**2
        )
        ok = ok and id_dist <= 1e-10 and rep_dist <= 1e-10
        details.append(f"d={d}: traceless dev {worst:.1e}, id {id_dist:.1e}, replace {rep_dist:.1e}")
    _report(4, ok, "; ".join(details))


def test_criterion_05_one_time_pad_malleability():
    ok = True
    worst = 0.0
    for p in (2, 3):
        scheme = EncryptionScheme(pauli_ensemble(p, 1))
        for a in range(p):
            for b in range(p):
                if a == b == 0:
                    continue
                attack = unitary_channel(weyl(p, a, b))
                rep = attack_report(scheme, attack)
                expected = choi_of(attack)
                dev = float(np.max(np.abs(rep.effective_choi - expected)))
                worst = max(worst, dev)
                ok = ok and dev <= 1e-12
    _report(5, ok, f"all non-identity Weyl attacks forwarded exactly (worst dev {worst:.1e})")


def test_criterion_06_two_designs_are_non_malleable():
    ok = True
    worst = 0.0
    for d in (2, 3):
        scheme = EncryptionScheme(clifford_prime(d))
        rng = philox(150 + d)
        for _ in range(20):
            rep = attack_report(scheme, random_cptni_channel(d, rng))
            worst = max(worst, rep.malleability_residual)
            ok = ok and rep.malleability_residual <= 1e-8
    _report(6, ok, f"40 random adversaries, worst residual {worst:.1e}")


def test_criterion_07_sampled_design_concentration():
    start = time.perf_counter()

    def theta_hat(n, seed):
        e = sample_design(SamplerConfig(d=2, n_samples=n, seed=seed, source="clifford"))
        theta = multiplicative_theta(ensemble_choi(e), 2)
        assert theta is not None
        return theta

    seeds = range(20)
    at2000 = [theta_hat(2000, s) for s in seeds]
    all_quarter = max(at2000) <= 0.25
    medians = {n: float(np.median([theta_hat(n, s) for s in seeds])) for n in (250, 1000, 4000)}
    r1 = medians[250] / medians[1000]
    r2 = medians[1000] / medians[4000]
    scaling = 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6
    elapsed = time.perf_counter() - start
    ok = all_quarter and scaling and elapsed <= 300
    _report(
        7,
        ok,
        f"max theta@N=2000 {max(at2000):.3f} <= 0.25; median ratios {r1:.2f}, {r2:.2f}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_entropy_bound():
    value = entropy_bound(2, 0.0)
    ok = abs(value - 3.1887) <= 1e-4
    for p in (2, 3, 5):
        e = clifford_prime(p)
        ok = ok and ensemble_entropy(e) >= entropy_bound(p, 0.0)
    key_bits = math.log2(24)
    ok = ok and key_bits < 5 * math.log2(2)
    _report(8, ok, f"bound(2,0)={value:.5f}; log2(24)={key_bits:.3f} < 5")


def test_criterion_09_frame_potential_concordance():
    ok = True
    details = []
    for name, e, want in (
        ("clifford2", clifford_prime(2), 2.0),
        ("clifford3", clifford_prime(3), 2.0),
        ("clifford5", clifford_prime(5), 2.0),
        ("pauli2", pauli_ensemble(2, 1), 4.0),
        ("pauli3", pauli_ensemble(3, 1), 9.0),
    ):
        fp = frame_potential(e)
        rep = certify_design(e, tol=1e-9)
        ok = ok and abs(fp - want) <= 1e-8
        ok = ok and (rep.two_design_trace_dist <= 1e-9) == (abs(fp - 2.0) <= 1e-8)
        details.append(f"{name}: {fp:.6f}")
    _report(9, ok, "; ".join(details))


def test_criterion_10_choi_jamiolkowski_machinery():
    worst_rt = 0.0
    worst_inv = 0.0
    for d in (2, 3, 4):
        rng = philox(160 + d)
        for _ in range(50):
            ch = random_cptni_channel(d, rng)
            omega = choi_of(ch)
            again = choi_of(channel_from_choi(omega))
            worst_rt = max(worst_rt, float(np.max(np.abs(omega - again))))
            w = random_density(d * d, rng)
            rho = random_density(d, rng)
            lhs = choi_inverse_action(w, rho)
            rhs = apply_channel(channel_from_choi(w), rho)
            worst_inv = max(worst_inv, float(np.max(np.abs(lhs - rhs))))
    ok = worst_rt <= 1e-12 and worst_inv <= 1e-10
    _report(10, ok, f"round trip {worst_rt:.1e} <= 1e-12, inverse action {worst_inv:.1e} <= 1e-10")

"""Tests of the benchmark's own machinery, on d = 2 and d = 3 analogues of its workloads.

Run with: PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import run
import traced_run
import tracing
import workloads
from qnm import (
    EncryptionScheme,
    SamplerConfig,
    attack_report,
    certify_design,
    clifford_prime,
    ensemble_choi,
    frame_potential,
    sample_design,
)
from qnm.channels import constant_channel, random_cptni_channel, unitary_channel
from qnm.weyl import weyl


def _span(sid, parent, name, start, end):
    return [sid, parent, 0, name, start, end, None]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered(0, 10, [(2, 5), (1, 3), (9, 12)]) == 5
    assert tracing.covered(0, 10, []) == 0


def test_self_time_subtracts_child_spans_only():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("linalg.trace_norm", lambda: None)
    outer = tracer.wrap("design.certify_design", lambda: (inner(), inner()))
    outer()
    m = tracing.layer_metrics(tracer.spans)
    assert m["design.certify_design_s"] == 10
    assert m["design.certify_design.self_s"] == 6
    assert m["linalg.trace_norm_s"] == 4
    assert m["linalg.trace_norm.calls"] == 2
    assert m["construct.sample_design_s"] == 0


def test_nested_spans_of_one_layer_are_timed_once():
    spans = [
        _span(0, None, "design.certify_design", 0.0, 10.0),
        _span(1, 0, "linalg.trace_norm", 1.0, 5.0),
        _span(2, 1, "linalg.trace_norm", 2.0, 3.0),
        _span(3, 0, "linalg.herm_eig", 6.0, 8.0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["linalg.trace_norm_s"] == 4
    assert m["linalg.trace_norm.calls"] == 2
    assert m["design.certify_design.self_s"] == 4
    assert tracing.self_times(spans)[1] == 3


def test_peak_rss_is_read_per_child():
    big = [sys.executable, "-c", "b = b'x' * (192 << 20)"]
    small = [sys.executable, "-c", "pass"]
    code_big, _, rss_big = run.run_child(big)
    code_small, _, rss_small = run.run_child(small)
    assert code_big == code_small == 0
    assert rss_big >= 192
    # RUSAGE_CHILDREN would repeat rss_big; the small child's own peak can
    # include its parent's size at fork, so allow for that much
    assert rss_small < rss_big - 128


def test_child_exit_code_is_reported():
    assert run.run_child([sys.executable, "-c", "raise SystemExit(3)"])[0] == 3


ENSEMBLES = {
    2: lambda: clifford_prime(2),
    3: lambda: sample_design(SamplerConfig(d=3, n_samples=300, seed=5)),
}


@pytest.mark.parametrize("d", sorted(ENSEMBLES))
def test_wrappers_pass_results_through_bit_identically(d):
    import qnm.design
    import qnm.nmes

    ensemble = ENSEMBLES[d]()
    scheme = EncryptionScheme(ensemble)
    adversary = constant_channel(np.eye(d) / d)
    herm = ensemble_choi(ensemble)
    plain = (certify_design(ensemble), attack_report(scheme, adversary), np.linalg.eigh(herm),
             np.linalg.eigvalsh(herm), np.linalg.svd(herm, compute_uv=False))

    originals = (np.linalg.eigh, qnm.design.trace_norm, qnm.design.UnitaryEnsemble.__post_init__)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = (qnm.design.certify_design(ensemble), qnm.nmes.attack_report(scheme, adversary),
                  np.linalg.eigh(herm), np.linalg.eigvalsh(herm),
                  np.linalg.svd(herm, compute_uv=False))
    assert originals == (np.linalg.eigh, qnm.design.trace_norm,
                         qnm.design.UnitaryEnsemble.__post_init__)

    assert dataclasses.asdict(traced[0]) == dataclasses.asdict(plain[0])
    assert np.array_equal(traced[1].effective_choi, plain[1].effective_choi)
    assert traced[1].decomposition == plain[1].decomposition
    for a, b in zip(traced[2], plain[2]):
        assert np.array_equal(a, b)
    assert np.array_equal(traced[3], plain[3])
    assert np.array_equal(traced[4], plain[4])

    m = tracing.layer_metrics(tracer.spans)
    assert m["design.certify_design.calls"] == 1
    assert m["design.ensemble_choi.calls"] == 1
    assert m["nmes.kraus_products"] == ensemble.size * d * d
    assert m["linalg.eig_calls"] >= 5


@pytest.mark.parametrize("d", sorted(ENSEMBLES))
def test_frame_potential_identity_crosscheck(d):
    ensemble = ENSEMBLES[d]()
    check = traced_run.frame_potential_crosscheck(ensemble_choi(ensemble), frame_potential(ensemble))
    assert check["d"] == d
    assert check["rel_err"] <= 1e-12
    if d == 3:  # a sampled ensemble is no exact design
        assert check["d4_frob2"] > 1e-3


@pytest.mark.parametrize("d", sorted(ENSEMBLES))
def test_attack_coordinates_do_not_depend_on_the_scheme(d):
    scheme = EncryptionScheme(ENSEMBLES[d]())
    cases = [
        ("identity", unitary_channel(np.eye(d))),
        ("weyl:1,0", unitary_channel(weyl(d, 1, 0))),
        ("weyl:0,0", unitary_channel(weyl(d, 0, 0))),
        ("replace:tau", constant_channel(np.eye(d) / d)),
    ]
    for selector, channel in cases:
        got = attack_report(scheme, channel).decomposition
        alpha, beta = workloads.alpha_beta_of_selector(selector, d)
        assert abs(got.alpha - alpha) <= workloads.ALPHA_BETA_TOL
        assert abs(got.beta - beta) <= workloads.ALPHA_BETA_TOL
    channel = random_cptni_channel(d, np.random.default_rng(d), 4)
    got = attack_report(scheme, channel).decomposition
    alpha, beta = workloads.alpha_beta_of_kraus(channel.kraus_ops, d)
    assert abs(got.alpha - alpha) <= workloads.ALPHA_BETA_TOL
    assert abs(got.beta - beta) <= workloads.ALPHA_BETA_TOL


def test_solver_flop_model():
    assert tracing.solver_gflop("eigvalsh", (3000, 3000), False) == pytest.approx(36.0)
    assert tracing.solver_gflop("eigh", (2, 10, 10), True) == pytest.approx(2 * 4 * 9e3 / 1e9)
    assert tracing.solver_gflop("svd", (10, 10), False, compute_uv=False) == pytest.approx(8e3 / 3e9)


def test_gate_counts_each_failing_call(tmp_path):
    commands = workloads.build("haar7", 0, tmp_path)
    (tmp_path / workloads.SCHEME).write_text("{}")
    digest = run._digest(tmp_path / workloads.SCHEME)
    cert = {"input_digest": digest, "d": 7, "n": 2000, "omega_rank": 2000}
    (tmp_path / workloads.CERT_REPORT).write_text(json.dumps(cert))
    attack = {"input_digest": digest, "alpha": 1 / 49, "beta": 1 / 49, "malleability_residual": 0.0}
    (tmp_path / commands[2].report).write_text(json.dumps(attack))
    assert run.check_pass(commands, [[0], [1], [0]], tmp_path) == []

    # haar7 must fail certification (exit 1); one attack repeat exits 2
    bad = run.check_pass(commands, [[0], [0], [0, 2, 0]], tmp_path)
    assert [(i, k) for i, k, _ in bad] == [(1, 0), (2, 1)]

    attack["alpha"] += 1e-9
    (tmp_path / commands[2].report).write_text(json.dumps(attack))
    cert["input_digest"] = "sha256:0"
    (tmp_path / workloads.CERT_REPORT).write_text(json.dumps(cert))
    bad = run.check_pass(commands, [[0], [1], [0]], tmp_path)
    assert [i for i, _, _ in bad] == [1, 2]
    assert "alpha" in bad[1][2]

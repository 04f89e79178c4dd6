import base64
import builtins
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qnm import cli, construct, design, files
from qnm.design import DEFAULT_CERT_TOL, UnitaryEnsemble

from helpers import ensemble_dict, haar_batch, philox, traced_peak


def run(argv):
    return cli.main(argv)


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def test_gen_clifford_and_certify(tmp_path, capsys):
    out = tmp_path / "c2.json"
    assert run(["gen", "clifford", "--p", "2", "-o", str(out)]) == 0
    ensemble, _ = files.load_ensemble(str(out))
    assert ensemble.size == 24 and ensemble.d == 2
    capsys.readouterr()
    assert run(["certify", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "certification"
    assert report["two_design_trace_dist"] <= 1e-10
    assert report["omega_rank"] == 10
    assert report["input_digest"].startswith("sha256:")


def test_gen_pauli_and_certify_fails(tmp_path, capsys):
    out = tmp_path / "p3.json"
    assert run(["gen", "pauli", "--p", "3", "--n", "1", "-o", str(out)]) == 0
    assert files.load_ensemble(str(out))[0].size == 9
    capsys.readouterr()
    assert run(["certify", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["omega_rank"] == 9
    assert report["rank_bound"] == 65


def test_gen_sampled_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["gen", "sampled", "--d", "2", "--n", "50", "--seed", "7", "--from", "clifford"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert obj["meta"] == {"source": "clifford", "seed": 7, "n": 50}
    assert obj["format"] == 2 and len(obj["weights"]) == 50
    assert files.load_ensemble(str(a))[0].size == 50


def test_gen_sampled_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["gen", "sampled", "--d", "2", "--n", "5", "--seed", "-1", "-o", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d", ["4", "7"])
def test_gen_sampled_clifford_names_d_and_the_cap(tmp_path, capsys, d):
    out = tmp_path / "s.json"
    assert run(["gen", "sampled", "--d", d, "--n", "5", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"d must be a prime <= 5 for clifford, got {d}" in err and "--p" not in err
    assert not out.exists()
    assert run(["gen", "sampled", "--d", d, "--n", "5", "--from", "haar", "-o", str(out)]) == 0


@pytest.mark.parametrize(
    "argv", [["clifford", "--p"], ["sampled", "--n", "5", "--d"]], ids=["clifford", "sampled"]
)
def test_gen_checks_the_clifford_cap_before_primality(tmp_path, monkeypatch, capsys, argv):
    is_prime = construct.is_prime

    def capped_is_prime(n):
        assert n <= construct.CLIFFORD_PRIME_CAP, f"trial division of {n}"
        return is_prime(n)

    monkeypatch.setattr(construct, "is_prime", capped_is_prime)
    out = tmp_path / "x.json"
    assert run(["gen", *argv, "100000000000000000039", "-o", str(out)]) == 2
    assert "must be a prime <= 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "p, n", [("100000000000000000039", "1"), ("2", "7"), ("2", "1" + "0" * 400)],
    ids=["huge-p", "4.3GB", "huge-n"],
)
def test_gen_pauli_checks_the_size_bound_before_primality(tmp_path, monkeypatch, capsys, p, n):
    is_prime = construct.is_prime

    def bounded_is_prime(q):
        assert q**4 <= construct.PAULI_MAX_ENTRIES, f"trial division of {q}"
        return is_prime(q)

    monkeypatch.setattr(construct, "is_prime", bounded_is_prime)
    out = tmp_path / "x.json"
    assert run(["gen", "pauli", "--p", p, "--n", n, "-o", str(out)]) == 2
    assert f"p^(4n) must be <= {construct.PAULI_MAX_ENTRIES} entries, got p = {p}, n = {n}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_gen_requires_params(tmp_path):
    assert run(["gen", "clifford", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["gen", "sampled", "--d", "2", "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["pauli", "--p", "3", "--d", "9"], "--d"),
        (["clifford", "--p", "2", "--n", "7"], "--n"),
        (["clifford", "--p", "3", "--seed", "4"], "--seed"),
        (["clifford", "--p", "3", "--from", "haar"], "--from"),
        (["sampled", "--d", "3", "--n", "4", "--p", "5"], "--p"),
    ],
    ids=["pauli", "clifford", "clifford-seed", "clifford-from", "sampled"],
)
def test_gen_rejects_an_option_its_kind_does_not_read(tmp_path, capsys, argv, option):
    out = tmp_path / "x.json"
    assert run(["gen", *argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qnm gen {argv[0]} ")
    assert f"error: unrecognized arguments: {option} {argv[-1]}\n" in err
    assert not out.exists()


def test_gen_sampled_defaults_to_seed_0_from_clifford(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "sampled", "--d", "2", "--n", "5", "-o", str(a)]) == 0
    argv = ["gen", "sampled", "--d", "2", "--n", "5", "--seed", "0", "--from", "clifford"]
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["meta"] == {"source": "clifford", "seed": 0, "n": 5}


def test_gen_io_failure(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
    assert run(["gen", "clifford", "--p", "2", "-o", str(missing_dir)]) == 3


def test_certify_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": 99}")
    assert run(["certify", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("][")
    assert run(["certify", str(notjson)]) == 2
    assert run(["certify", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "encode", [lambda t: b"\xef\xbb\xbf" + t, lambda t: t.decode().encode("utf-16")],
    ids=["utf-8-bom", "utf-16"],
)
def test_input_files_are_plain_utf8(tmp_path, capsys, encode):
    path = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(path)])
    path.write_bytes(encode(path.read_bytes()))
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    assert f"error: {path}: not readable as JSON" in capsys.readouterr().err


def test_certify_ignores_qnm_tol(tmp_path, monkeypatch, capsys):
    # --tol is the one way to set the tolerance; the environment sets nothing
    out = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(out)])
    capsys.readouterr()
    assert run(["certify", str(out)]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("QNM_TOL", "1e-18")
    assert run(["certify", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passes_2design_at"] == DEFAULT_CERT_TOL
    assert report == json.loads(plain)


def test_certify_multiplicative_mode(tmp_path, capsys):
    out = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(out)])
    capsys.readouterr()
    assert run(["certify", str(out), "--mode", "both"]) == 0


def test_attack_weyl_on_pauli_scheme(tmp_path, capsys):
    scheme = tmp_path / "p2.json"
    run(["gen", "pauli", "--p", "2", "--n", "1", "-o", str(scheme)])
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", "weyl:1,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "attack"
    assert report["malleability_residual"] > 1


def test_attack_presets_on_clifford_scheme(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    capsys.readouterr()

    assert run(["attack", "--scheme", str(scheme), "--adv", "identity"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["alpha"] - 1) <= 1e-9 and abs(rep["beta"]) <= 1e-9

    assert run(["attack", "--scheme", str(scheme), "--adv", "weyl:1,0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["alpha"]) <= 1e-9
    assert abs(rep["beta"] - 1 / 3) <= 1e-9
    assert rep["malleability_residual"] <= 1e-9

    assert run(["attack", "--scheme", str(scheme), "--adv", "replace:tau"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["alpha"] - 0.25) <= 1e-9 and abs(rep["beta"] - 0.25) <= 1e-9


def test_attack_kraus_file_and_unitary_file(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    kraus_path = tmp_path / "adv.json"
    k0 = np.sqrt(0.5) * np.eye(2)
    k1 = np.sqrt(0.5) * np.array([[1.0, 0.0], [0.0, -1.0]])
    kraus_path.write_text(
        json.dumps(
            {"format": 1, "d": 2, "kraus": [files.matrix_to_pairs(k0), files.matrix_to_pairs(k1)]}
        )
    )
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", str(kraus_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["malleability_residual"] <= 1e-9

    u_path = tmp_path / "u.json"
    u_path.write_text(
        json.dumps({"format": 1, "d": 2, "matrix": files.matrix_to_pairs(np.diag([1.0, 1.0j]))})
    )
    assert run(["attack", "--scheme", str(scheme), "--adv", f"unitary:{u_path}"]) == 0
    json.loads(capsys.readouterr().out)


def test_attack_rejects_a_non_unitary_matrix(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    u_path = tmp_path / "u.json"
    half = files.matrix_to_pairs(0.5 * np.eye(2))
    u_path.write_text(json.dumps({"format": 1, "d": 2, "matrix": half}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", f"unitary:{u_path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {u_path}: matrix is not unitary (defect 7.500e-01)\n"


@pytest.mark.parametrize(
    "state, error",
    [
        (np.ones((2, 3)) / 2, "{path}: state must be d x d = 2 x 2, got shape (2, 3)"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "{path}: replacement state must be Hermitian and PSD"),
        (np.diag([1.5, -0.5]), "{path}: replacement state must be Hermitian and PSD"),
        (np.eye(2), "{path}: replacement state has trace 2+0j, not 1"),
    ],
    ids=["non-square", "non-hermitian", "non-psd", "trace-2"],
)
def test_attack_rejects_a_replacement_that_is_not_a_state(tmp_path, capsys, state, error):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"format": 1, "d": 2, "state": files.matrix_to_pairs(state)}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", f"replace:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {error.format(path=path)}" in captured.err


def test_attack_bounds_a_replacement_state_hermiticity_by_its_own_entries(tmp_path, capsys):
    # a defect of 2e-10 in eta is 4e-11 in eta (x) tau at d = 5, but the 1e-10 bound is eta's
    scheme = tmp_path / "p5.json"
    run(["gen", "pauli", "--p", "5", "-o", str(scheme)])
    path = tmp_path / "state.json"
    eta = np.eye(5, dtype=complex) / 5
    eta[0, 1] += 2e-10
    path.write_text(json.dumps({"format": 1, "d": 5, "state": files.matrix_to_pairs(eta)}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", f"replace:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: replacement state must be Hermitian and PSD (")


@pytest.mark.parametrize("prefix, key", [("replace", "state"), ("unitary", "matrix")])
@pytest.mark.parametrize(
    "d, m", [(2, np.ones((2, 3)) / 2), (3, np.eye(2))], ids=["non-square", "mismatched-d"]
)
def test_matrix_file_must_hold_a_d_by_d_matrix(tmp_path, capsys, prefix, key, d, m):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": 1, "d": d, key: files.matrix_to_pairs(m)}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", f"{prefix}:{path}"]) == 2
    captured = capsys.readouterr()
    shape = f"{d} x {d}, got shape {m.shape}"
    assert captured.out == "" and f"error: {path}: {key} must be d x d = {shape}" in captured.err


@pytest.mark.parametrize(
    "adv", ["{kraus}", "unitary:{unitary}", "replace:{state}"], ids=["kraus", "unitary", "replace"]
)
def test_an_adversary_of_another_dimension_is_a_usage_error(tmp_path, capsys, adv):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    eye = files.matrix_to_pairs(np.eye(3))
    paths = {key: tmp_path / f"{key}.json" for key in ("kraus", "unitary", "state")}
    paths["kraus"].write_text(json.dumps({"format": 1, "d": 3, "kraus": [eye]}))
    paths["unitary"].write_text(json.dumps({"format": 1, "d": 3, "matrix": eye}))
    tau3 = files.matrix_to_pairs(np.eye(3) / 3)
    paths["state"].write_text(json.dumps({"format": 1, "d": 3, "state": tau3}))
    out = tmp_path / "report.json"
    capsys.readouterr()
    selector = adv.format(**paths)
    argv = ["attack", "--scheme", str(scheme), "--adv", selector, "-o", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    path = selector.split(":", 1)[-1]
    assert captured.err == f"error: {path}: adversary acts on dimension 3, scheme has dimension 2\n"
    assert not out.exists()


def test_kraus_file_shape_error_names_the_file(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    path = tmp_path / "k.json"
    kraus = [files.matrix_to_pairs(np.ones((2, 3)))]
    path.write_text(json.dumps({"format": 1, "d": 2, "kraus": kraus}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: malformed Kraus file (Kraus operator 0 has shape (2, 3)" in err


def test_a_trace_increasing_kraus_file_is_named_in_its_error(tmp_path, capsys):
    scheme, path, out = tmp_path / "c2.json", tmp_path / "big.json", tmp_path / "report.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    kraus = [files.matrix_to_pairs(1.1 * np.eye(2))]
    path.write_text(json.dumps({"format": 1, "d": 2, "kraus": kraus}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", str(path), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    want = f"error: {path}: adversary channel is not trace non-increasing (defect 2.100e-01)\n"
    assert captured.err == want


@pytest.mark.parametrize(
    "adv", ["{path}", "replace:{path}", "unitary:{path}"], ids=["kraus", "replace", "unitary"]
)
def test_too_deeply_nested_json_is_a_usage_error(tmp_path, capsys, adv):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", adv.format(path=path)]) == 2
    assert f"error: {path}: not readable as JSON" in capsys.readouterr().err


def test_too_deeply_nested_ensemble_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["certify", str(path), "--mode", "both"]) == 2
    assert f"error: {path}: not readable as JSON" in capsys.readouterr().err


def test_a_json_array_is_not_an_input_file(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[]")
    out = tmp_path / "report.json"
    assert run(["certify", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: expected a JSON object at top level\n"
    assert not out.exists()


def test_kraus_entries_must_be_re_im_pairs(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    kraus = tmp_path / "kraus.json"
    triples = [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]
    kraus.write_text(json.dumps({"format": 1, "d": 2, "kraus": [triples]}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", str(kraus)]) == 2
    want = "malformed Kraus file (Kraus operator 0 must be rows of [re, im] pairs of numbers)"
    assert capsys.readouterr().err == f"error: {kraus}: {want}\n"


def test_attack_invalid_adversary(tmp_path):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    assert run(["attack", "--scheme", str(scheme), "--adv", "weyl:banana"]) == 2
    assert run(["attack", "--scheme", str(scheme), "--adv", "replace:9"]) == 2


@pytest.mark.parametrize("index", ["-1", "2", "+2", "9"])
def test_attack_replace_index_out_of_range(tmp_path, capsys, index):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    assert run(["attack", "--scheme", str(scheme), "--adv", f"replace:{index}"]) == 2
    err = capsys.readouterr().err
    assert f"error: replacement basis state {int(index)} out of range 0..1" in err


@pytest.mark.parametrize(
    "arg", ["\u0661,\u0662", " 1 , 2", "1_0,2"], ids=["arabic-indic", "spaces", "underscore"]
)
def test_attack_weyl_reads_only_ascii_integers(tmp_path, capsys, arg):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", f"weyl:{arg}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "weyl adversary needs 'weyl:<a>,<b>'" in captured.err


def test_attack_replace_non_ascii_digits_name_a_file(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", "replace:\u00b2"]) == 2
    err = capsys.readouterr().err
    assert "No such file or directory: '\u00b2'" in err and "invalid literal" not in err


@pytest.mark.parametrize(
    "d, theta, delta",
    [("2", "1e-200", "0.01"), ("2", "1e-160", "0.01"), (str(10**80), "0.1", "0.01"),
     (str(10**400), "0.1", "0.01")],
    ids=["theta-1e-200", "theta-1e-160", "d-1e80", "d-1e400"],
)
def test_bounds_recommended_n_overflow_is_a_usage_error(capsys, d, theta, delta):
    assert run(["bounds", "--d", d, "--theta", theta, "--delta", delta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"recommended_n overflows at d = {d}, theta = {float(theta)}, delta = {delta}" in (
        captured.err
    )


@pytest.mark.parametrize(
    "d, theta, delta, n", [("2", "0.1", "1e-320", 1775576), ("3", "0.3", "5e-324", 1198893)],
    ids=["delta-1e-320", "delta-5e-324"],
)
def test_bounds_recommended_n_is_finite_for_a_subnormal_delta(capsys, d, theta, delta, n):
    # log(delta) is finite, so the count is too: exit 0, where 2 r / delta used to overflow
    assert run(["bounds", "--d", d, "--theta", theta, "--delta", delta]) == 0
    assert json.loads(capsys.readouterr().out)["recommended_n"] == n


def test_bounds_output(capsys):
    assert run(["bounds", "--d", "2", "--theta", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["format"], out["kind"], out["d"], out["theta"]) == (1, "bounds", 2, 0.0)
    assert out["rank_bound"] == 10
    assert round(out["entropy_bound_bits"], 4) == 3.1887
    assert out["key_bits_4log2d"] == 4.0 and out["key_bits_5log2d"] == 5.0
    assert out["recommended_n"] is None  # needs 0 < theta <= 1/2


def test_bounds_reference_key_length_qutrit(capsys):
    assert run(["bounds", "--d", "3", "--theta", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert round(out["key_bits_5log2d"], 4) == 7.9248  # 5 log2(3)


def test_bounds_recommended_n(capsys):
    assert run(["bounds", "--d", "2", "--theta", "0.1", "--delta", "0.01"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recommended_n"] == 18243 and out["delta"] == 0.01


def test_bounds_entropy_domain_error(capsys):
    assert run(["bounds", "--d", "2", "--theta", "0.4"]) == 2
    captured = capsys.readouterr()
    # the other fields are still reported
    out = json.loads(captured.out)
    assert out["rank_bound"] == 10 and out["recommended_n"] is not None
    assert out["entropy_bound_bits"] is None
    assert "entropy bound needs theta <= 1/e" in captured.err


def test_bounds_out_flag_and_bad_arguments(tmp_path, capsys):
    path = tmp_path / "bounds.json"
    assert run(["bounds", "--d", "2", "--theta", "0.1", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text())["recommended_n"] == 18243
    assert run(["bounds", "--d", "2", "--out", str(tmp_path / "no" / "dir" / "b.json")]) == 3
    for argv, name in [(["--theta", "nan"], "theta"), (["--delta", "1.5"], "delta"),
                       (["--d", "1"], "d")]:
        capsys.readouterr()
        assert run(["bounds", "--d", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{name} must" in captured.err


def test_report_out_flag(tmp_path):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    report_path = tmp_path / "report.json"
    assert run(["certify", str(scheme), "--out", str(report_path)]) == 0
    obj = json.loads(report_path.read_text())
    assert obj["format"] == 1
    # report writes that fail are I/O errors, not usage errors
    assert run(["certify", str(scheme), "--out", str(tmp_path / "no" / "dir" / "r.json")]) == 3


@pytest.mark.parametrize(
    "argv, error",
    [
        (["certify"], "the following arguments are required: input"),
        (["gen", "sampled", "--d", "2"], "the following arguments are required: --n"),
        (["gen", "pauli", "--p", "3", "--d", "9"], "unrecognized arguments: --d 9"),
    ],
    ids=["certify-input", "sampled-n", "pauli-d"],
)
def test_argparse_errors_are_returned_as_exit_2(tmp_path, capsys, argv, error):
    out = tmp_path / "x.json"
    assert run(argv + ["-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {error}\n" in captured.err
    assert not out.exists()


def test_a_stray_argument_is_reported_with_its_sub_command_usage(tmp_path, capsys):
    path = str(tmp_path / "c2.json")
    run(["gen", "clifford", "--p", "2", "-o", path])
    capsys.readouterr()
    assert run(["certify", path, "extra.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: qnm certify ")
    assert "qnm certify: error: unrecognized arguments: extra.json\n" in captured.err


def test_gen_kind_help_is_returned_as_exit_0_and_lists_only_its_options(capsys):
    assert run(["gen", "clifford", "-h"]) == 0
    text = capsys.readouterr().out
    assert "--p" in text and "--out" in text and "--seed" not in text and "--n" not in text


def test_reports_written_with_out_equal_the_stdout_reports(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    for argv in (["certify", str(scheme), "--mode", "both"],
                 ["attack", "--scheme", str(scheme), "--adv", "replace:tau"],
                 ["bounds", "--d", "3", "--theta", "0.1"]):
        capsys.readouterr()
        assert run(argv) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "report.json"
        assert run(argv + ["-o", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == printed


def test_every_gen_file_and_report_is_one_line_of_json(tmp_path, capsys):
    texts = []
    for argv in (["pauli", "--p", "2"], ["clifford", "--p", "3"],
                 ["sampled", "--d", "3", "--n", "7", "--from", "haar"]):
        path = tmp_path / f"{argv[0]}.json"
        assert run(["gen", *argv, "-o", str(path)]) == 0
        texts.append(path.read_text())
    scheme = str(tmp_path / "clifford.json")
    capsys.readouterr()
    for argv in (["certify", scheme, "--mode", "both"], ["attack", "--scheme", scheme,
                 "--adv", "weyl:1,2"], ["bounds", "--d", "2", "--theta", "0.1"]):
        assert run(argv) == 0
        texts.append(capsys.readouterr().out)
    for text in texts:
        assert text.endswith("\n") and text.count("\n") == 1
        assert isinstance(json.loads(text), dict)


def test_certify_output_is_deterministic(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    capsys.readouterr()
    run(["certify", str(scheme)])
    first = capsys.readouterr().out
    run(["certify", str(scheme)])
    second = capsys.readouterr().out
    assert first == second


def test_report_numbers_round_trip_losslessly(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    capsys.readouterr()
    run(["certify", str(scheme)])
    report = json.loads(capsys.readouterr().out)
    again = json.loads(json.dumps(report))
    assert again["two_design_trace_dist"] == report["two_design_trace_dist"]
    assert again == report


def test_attack_replace_state_file(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    state_path = tmp_path / "state.json"
    state_path.write_text(
        json.dumps({"format": 1, "d": 2, "state": files.matrix_to_pairs(np.diag([1.0, 0.0]))})
    )
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", f"replace:{state_path}"]) == 0
    rep = json.loads(capsys.readouterr().out)
    # any replacement decrypts to tau under a 1-design scheme
    assert abs(rep["alpha"] - 0.25) <= 1e-9 and abs(rep["beta"] - 0.25) <= 1e-9


@pytest.mark.parametrize(
    "adv, twin",
    [("identity", "weyl:0,0"), ("replace:tau", "replace:{tau}"), ("replace:1", "replace:{e1}")],
    ids=["id", "tau", "basis-1"],
)
def test_rerouted_selectors_give_byte_identical_reports(tmp_path, capsys, adv, twin):
    scheme = str(tmp_path / "c2.json")
    run(["gen", "clifford", "--p", "2", "-o", scheme])
    states = {"tau": np.eye(2) / 2, "e1": np.diag([0.0, 1.0])}  # e1 is |1><1|
    paths = {name: tmp_path / f"{name}.json" for name in states}
    for name, state in states.items():
        paths[name].write_text(
            json.dumps({"format": 1, "d": 2, "state": files.matrix_to_pairs(state)})
        )
    capsys.readouterr()
    reports = []
    for selector in (adv, twin.format(**paths)):
        assert run(["attack", "--scheme", scheme, "--adv", selector]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def _scaled_key(obj, u):
    u = u.copy()
    u[3] *= 1.001
    obj["unitaries"] = base64.b64encode(np.ascontiguousarray(u, "<c16")).decode("ascii")


def _negative_weight(obj, u):
    obj["weights"][0] = -0.1


def _nested_weights(obj, u):
    obj["weights"] = [[w] for w in obj["weights"]]


def _number_weights(obj, u):
    obj["weights"] = 1.0


@pytest.mark.parametrize(
    "command", [["certify"], ["attack", "--adv", "identity", "--scheme"]], ids=["certify", "attack"]
)
@pytest.mark.parametrize(
    "spoil, error",
    [
        (_scaled_key, "ensemble element 3 is not unitary (deviation 2.001e-03)"),
        (_negative_weight, "weights must be nonnegative"),
        (_nested_weights, "weights must be a list of numbers"),
        (_number_weights, "weights must be a list of numbers"),
    ],
    ids=["scaled-key", "negative-weight", "nested-weights", "number-weights"],
)
def test_ensemble_content_error_names_the_file(tmp_path, capsys, clifford2, command, spoil, error):
    path = tmp_path / "c2.json"
    obj = ensemble_dict(clifford2)
    spoil(obj, clifford2.unitaries)
    path.write_text(json.dumps(obj))
    assert run([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: malformed ensemble file ({error})\n"


def test_ensemble_file_round_trip(tmp_path):
    path = tmp_path / "e.json"
    run(["gen", "sampled", "--d", "2", "--n", "8", "--seed", "5", "--from", "haar", "-o", str(path)])
    e, _ = files.load_ensemble(str(path))
    assert isinstance(e, UnitaryEnsemble)
    files.save_ensemble(str(path), e)
    again, _ = files.load_ensemble(str(path))
    assert np.array_equal(again.unitaries, e.unitaries)
    assert np.array_equal(again.weights, e.weights)


@pytest.mark.parametrize("flag", [["--tol", "nan"], ["--tol", "inf"]], ids=["tol-nan", "tol-inf"])
def test_certify_rejects_bad_tolerance(tmp_path, capsys, flag):
    out = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(out)])
    capsys.readouterr()
    assert run(["certify", str(out), *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be finite and > 0" in captured.err


@pytest.mark.parametrize("argv", [["certify", "{path}", "--mode", "both"],
                                  ["attack", "--scheme", "{path}", "--adv", "replace:tau"]],
                         ids=["certify", "attack"])
def test_an_ensemble_file_is_opened_once(tmp_path, monkeypatch, capsys, argv):
    path = str(tmp_path / "c2.json")
    run(["gen", "clifford", "--p", "2", "-o", path])
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert run([a.format(path=path) for a in argv]) == 0
    assert opened.count(path) == 1


def test_input_digest_is_of_the_bytes_certified(tmp_path, monkeypatch, capsys):
    # the file is replaced while the grade runs: the report must still name what it graded
    path, other = tmp_path / "c2.json", tmp_path / "p2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(path)])
    run(["gen", "pauli", "--p", "2", "-o", str(other)])
    certified = path.read_bytes()
    real_certify = cli.certify_design

    def certify_design(ensemble, tol):
        path.write_bytes(other.read_bytes())
        return real_certify(ensemble, tol=tol)

    monkeypatch.setattr(cli, "certify_design", certify_design)
    capsys.readouterr()
    assert run(["certify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 24
    assert report["input_digest"] == _sha256(certified) != _sha256(path.read_bytes())


def test_import_leaves_numpy_random_unloaded():
    # numpy 1.x imports numpy.random itself; the CLI must add nothing numpy did not load
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import qnm.cli; "
            "assert ('numpy.random' in sys.modules) == before, 'qnm.cli imported numpy.random'")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("field", ["weights", "unitaries"])
def test_non_finite_ensemble_file_is_a_usage_error(tmp_path, capsys, clifford2, field):
    path = tmp_path / "c2.json"
    weights, unitaries = clifford2.weights.copy(), clifford2.unitaries.copy()
    if field == "weights":
        weights[0] = np.nan
    else:
        unitaries[0, 0, 0] = complex(np.nan, 0.0)
    _write_format2(path, clifford2, weights=weights.tolist(),
                   unitaries=base64.b64encode(unitaries.astype("<c16").tobytes()).decode())
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert run(["attack", "--scheme", str(path), "--adv", "identity"]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("prefix, key", [("replace", "state"), ("unitary", "matrix")])
def test_non_finite_matrix_file_is_a_usage_error(tmp_path, capsys, prefix, key):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    m = np.diag([1.0, 0.0]).astype(complex)
    m[1, 1] = complex(0, np.inf)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": 1, "d": 2, key: files.matrix_to_pairs(m)}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", f"{prefix}:{path}"]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err


_HUGE = files.matrix_to_pairs(1e200 * np.eye(2))  # finite, but its square overflows


def _keys(*unitaries):
    return base64.b64encode(np.array(unitaries, "<c16").tobytes()).decode()


_OVERFLOWS = {  # (adversary file and its selector, or an ensemble file's fields and None; error)
    "kraus-file": ({"format": 1, "d": 2, "kraus": [_HUGE]}, "{path}",
                   "malformed Kraus file (sum K^dagger K must be finite)"),
    "unitary-file": ({"format": 1, "d": 2, "matrix": _HUGE}, "unitary:{path}",
                     "sum K^dagger K must be finite"),
    "weights-sum": ({"weights": [1e308, 1e308], "unitaries": _keys(np.eye(2), np.eye(2))}, None,
                    "malformed ensemble file (weights must sum to 1, got inf)"),
    "key-gram": ({"weights": [0.5, 0.5],
                  "unitaries": _keys(np.eye(2), [[1e200, 1e200], [1e200, -1e200]])}, None,
                 "malformed ensemble file (ensemble element 1 is not unitary (deviation nan))"),
}


@pytest.mark.parametrize("case", _OVERFLOWS)
def test_an_input_that_overflows_a_check_is_a_usage_error_naming_its_file(tmp_path, capsys,
                                                                           clifford2, case):
    # every warning is an error here (pyproject's filter covers only RuntimeWarning and
    # DeprecationWarning), so each check must run under np.errstate
    obj, selector, error = _OVERFLOWS[case]
    path, scheme = tmp_path / "huge.json", tmp_path / "c2.json"
    files.save_ensemble(str(scheme), clifford2)
    if selector is None:
        _write_format2(path, clifford2, **obj)
        argvs = [["certify", str(path)], ["attack", "--scheme", str(path), "--adv", "identity"]]
    else:
        path.write_text(json.dumps(obj))
        argvs = [["attack", "--scheme", str(scheme), "--adv", selector.format(path=path)]]
    capsys.readouterr()
    for argv in argvs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {error}\n"


def _loop_pairs(m):
    """The per-entry encoding the vectorised codec must reproduce byte for byte."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def test_matrix_codec_is_byte_identical_to_the_per_entry_encoding(tmp_path):
    m = np.array([[complex(-0.0, -0.0), complex(1.5, -0.0)], [complex(0.0, -2.0), 1e-300 + 3j]])
    assert json.dumps(files.matrix_to_pairs(m)) == json.dumps(_loop_pairs(m))
    back = files.pairs_to_matrix(files.matrix_to_pairs(m))
    assert np.array_equal(np.signbit(back.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))
    matrix = tmp_path / "m.json"  # and through a matrix file
    matrix.write_text(json.dumps({"format": 1, "d": 2, "matrix": files.matrix_to_pairs(m)}))
    assert files.load_matrix(str(matrix), "matrix").tobytes() == m.tobytes()

    path = tmp_path / "s.json"
    argv = ["gen", "sampled", "--d", "3", "--n", "20", "--seed", "4", "--from", "haar"]
    run(argv + ["-o", str(path)])
    obj = json.loads(path.read_text())
    again = tmp_path / "again.json"
    files.save_ensemble(str(again), files.load_ensemble(str(path))[0], obj["meta"])
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "entry", [[1.0, 0.0, 5.0], [1.0], ["1.0", "0.0"]], ids=["three", "one", "strings"]
)
def test_matrix_entries_must_be_pairs_of_numbers(tmp_path, capsys, entry):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    matrix = files.matrix_to_pairs(np.eye(2))
    matrix[1][0] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": 1, "d": 2, "matrix": matrix}))
    ops = [files.matrix_to_pairs(np.eye(2) / np.sqrt(2)) for _ in range(2)]
    ops[1][0][1] = entry
    kraus = tmp_path / "kraus.json"
    kraus.write_text(json.dumps({"format": 1, "d": 2, "kraus": ops}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"format": 1, "d": 2, "state": ops[1]}))
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", f"unitary:{bad}"]) == 2
    assert str(bad) in capsys.readouterr().err
    assert run(["attack", "--scheme", str(scheme), "--adv", str(kraus)]) == 2
    err = capsys.readouterr().err
    assert str(kraus) in err and "Kraus operator 1" in err
    assert run(["attack", "--scheme", str(scheme), "--adv", f"replace:{state}"]) == 2
    assert str(state) in capsys.readouterr().err


@pytest.mark.parametrize("d", [2.7, True, "2"], ids=["fraction", "bool", "string"])
def test_dimension_field_must_be_an_integer(tmp_path, capsys, d):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    obj = json.loads(scheme.read_text())
    obj["d"] = d
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    kraus = tmp_path / "kraus.json"
    kraus.write_text(json.dumps({"format": 1, "d": d, "kraus": [files.matrix_to_pairs(np.eye(2))]}))
    capsys.readouterr()
    assert run(["certify", str(bad)]) == 2
    assert "d must be an integer" in capsys.readouterr().err
    assert run(["attack", "--scheme", str(scheme), "--adv", str(kraus)]) == 2
    assert "d must be an integer" in capsys.readouterr().err
    obj["d"] = 2.0  # integral floats are accepted
    bad.write_text(json.dumps(obj))
    assert run(["certify", str(bad)]) == 0


_HUGE = {"": 10**400, "-negative": -(10**400), "-above-max": files.MAX_D + 1}


@pytest.mark.parametrize(("adv", "d"), [
    pytest.param(adv, d, id=kind + suffix)
    for suffix, d in _HUGE.items()
    for kind, adv in [("ensemble", None), ("kraus", "{kraus}"), ("unitary", "unitary:{matrix}")]])
def test_a_dimension_too_large_for_a_float_names_the_file(tmp_path, capsys, adv, d):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    obj = json.loads(scheme.read_text())  # float(10**400) raises OverflowError
    paths = {name: tmp_path / f"{name}.json" for name in ("ensemble", "kraus", "matrix")}
    paths["ensemble"].write_text(json.dumps({**obj, "d": d}))
    pairs = files.matrix_to_pairs(np.eye(2))
    paths["kraus"].write_text(json.dumps({"format": 1, "d": d, "kraus": [pairs]}))
    paths["matrix"].write_text(json.dumps({"format": 1, "d": d, "matrix": pairs}))
    capsys.readouterr()
    if adv is None:
        argv, bad = ["certify", str(paths["ensemble"])], paths["ensemble"]
    else:
        argv = ["attack", "--scheme", str(scheme), "--adv", adv.format(**paths)]
        bad = paths["kraus" if adv.startswith("{") else "matrix"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {bad}: ")
    assert f"d must be an integer in [2, {files.MAX_D}]" in captured.err
    assert len(captured.err) < 200  # the value of d, up to 401 characters, is not echoed


def test_gen_sampled_rejects_a_dimension_no_reader_takes(tmp_path, capsys):
    out = tmp_path / "big.json"
    argv = ["gen", "sampled", "--from", "haar", "--d", str(files.MAX_D + 1), "--n", "1"]
    assert run(argv + ["-o", str(out)]) == 2
    assert f"error: d must be <= {files.MAX_D}" in capsys.readouterr().err
    assert not out.exists()


def test_an_unnormalized_weight_error_prints_a_plain_float(tmp_path, capsys, clifford2):
    weights = clifford2.weights.copy()
    weights[0] = 0.0
    path = tmp_path / "c2.json"
    _write_format2(path, clifford2, weights=weights.tolist())
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"weights must sum to 1, got {float(weights.sum())!r})" in err
    assert "np.float64" not in err


def test_gen_pauli_rejects_zero_qudits(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run(["gen", "pauli", "--p", "2", "--n", "0", "-o", str(out)]) == 2
    assert "n must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def _edge_ensemble():
    """A 2-key ensemble whose entries include -0.0 and subnormals, so bit-exactness shows."""
    tiny = 5e-324
    u = np.array(
        [[complex(-0.0, 1.0), complex(tiny, -0.0)], [complex(-0.0, -tiny), complex(1.0, -0.0)]]
    )
    return UnitaryEnsemble(d=2, weights=np.array([0.25, 0.75]), unitaries=np.array([u, -u.conj()]))


def test_format2_round_trip_is_bit_exact_and_writable(tmp_path):
    e = _edge_ensemble()
    path = tmp_path / "e.json"
    files.save_ensemble(str(path), e, {"note": "edge"})
    obj = json.loads(path.read_text())
    assert obj["format"] == files.ENSEMBLE_FORMAT_VERSION == 2
    assert base64.b64decode(obj["unitaries"]) == e.unitaries.astype("<c16").tobytes()
    back, _ = files.load_ensemble(str(path))
    assert back.unitaries.tobytes() == e.unitaries.tobytes()  # keeps -0.0 and subnormals
    assert back.weights.tobytes() == e.weights.tobytes()
    assert back.unitaries.flags.writeable and back.weights.flags.writeable
    back.unitaries[0, 0, 0] = 1.0
    again = tmp_path / "again.json"
    files.save_ensemble(str(again), files.load_ensemble(str(path))[0], obj["meta"])
    assert again.read_bytes() == path.read_bytes()


_SAMPLED3 = construct.SamplerConfig(3, 21826, 0, "clifford")  # the benchmark's sampled3 file
_HAAR5 = construct.SamplerConfig(5, 2623, 0, "haar")  # 1 049 200 key bytes, not a multiple of 3


@pytest.mark.parametrize(
    "cfg, meta",
    [(None, None), (None, {}), (None, {"note": "edge"}), (None, {"unitaries": "", "weights": [1.0]}),
     (None, {"x": {"unitaries": ""}}), (None, {"s": '"unitaries": ""', "\u00e9": "\u2603"}),
     (_SAMPLED3, {"source": "clifford", "seed": 0, "n": 21826}),
     (_HAAR5, {"source": "haar", "seed": 0, "n": 2623})],
    ids=["none", "empty", "note", "own-unitaries", "nested-unitaries", "quoted-and-non-ascii",
         "sampled3-21826", "haar5-several-chunks"],
)
def test_streamed_ensemble_file_is_the_json_dumps_text(tmp_path, cfg, meta):
    # a sampled ensemble's keys are written and read as base64 in several chunks, and its
    # weights in several blocks of one JSON text per distinct weight
    e = _edge_ensemble() if cfg is None else construct.sample_design(cfg)
    path = tmp_path / "e.json"
    files.save_ensemble(str(path), e, meta)
    assert path.read_bytes() == (json.dumps(ensemble_dict(e, meta)) + "\n").encode()
    assert files.load_ensemble(str(path))[0].unitaries.tobytes() == e.unitaries.tobytes()


def _write_format2(path, e, **fields):
    """Write ``e`` as a format-2 ensemble file with ``fields`` overriding its entries."""
    path.write_text(json.dumps({**ensemble_dict(e), **fields}))


@pytest.mark.parametrize(
    "unitaries",
    ["not base64!", "QUJD", "AAAAAAAAAAAAAAAA", [[[[1.0, 0.0]]]], 7, None],
    ids=["bad-chars", "short", "wrong-length", "list", "number", "null"],
)
def test_format2_malformed_unitaries_are_usage_errors(tmp_path, capsys, pauli21, unitaries):
    path = tmp_path / "bad.json"
    _write_format2(path, pauli21, unitaries=unitaries)
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "unitaries" in err
    assert run(["attack", "--scheme", str(path), "--adv", "identity"]) == 2
    assert "unitaries" in capsys.readouterr().err


@pytest.mark.parametrize("stray", ["\n", " ", "!"])
def test_format2_rejects_stray_characters_in_a_valid_block(tmp_path, capsys, pauli21, stray):
    text = ensemble_dict(pauli21)["unitaries"]
    path = tmp_path / "bad.json"
    _write_format2(path, pauli21, unitaries=text[:8] + stray + text[8:])
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    assert "unitaries must be a padded base64 string" in capsys.readouterr().err


def test_format2_wrong_length_names_the_expected_size(tmp_path, capsys, pauli21):
    block = pauli21.unitaries.astype("<c16").tobytes()
    path = tmp_path / "bad.json"
    _write_format2(path, pauli21, unitaries=base64.b64encode(block[:-16]).decode())
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    assert f"unitaries holds {len(block) - 16} bytes, expected 16*N*d^2 = {len(block)}" in (
        capsys.readouterr().err
    )


def test_format2_non_finite_bytes_are_rejected(tmp_path, capsys, pauli21):
    u = pauli21.unitaries.copy()
    u[2, 1, 0] = complex(np.nan, 0.0)
    path = tmp_path / "nan.json"
    _write_format2(path, pauli21, unitaries=base64.b64encode(u.astype("<c16").tobytes()).decode())
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    assert "unitaries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("row_block", [1, 4 * 11, None], ids=["one-unit", "few-units", "default"])
@pytest.mark.parametrize("n", [3, 4, 5])  # 64 n key bytes: 0, 1 and 2 mod 3
def test_chunked_base64_round_trip(tmp_path, monkeypatch, n, row_block):
    # at _ROW_BLOCK = 1 every chunk is one 48-byte unit both ways; at 44 the writer's chunks
    # hold 11 units and the reader's 4
    if row_block is not None:
        monkeypatch.setattr(design, "_ROW_BLOCK", row_block)
    e = UnitaryEnsemble(2, np.arange(1, n + 1) / (n * (n + 1) / 2), haar_batch(2, n, philox(n)))
    assert e.unitaries.nbytes % 3 == n % 3
    path = tmp_path / "e.json"
    files.save_ensemble(str(path), e, {"n": n})
    assert path.read_bytes() == (json.dumps(ensemble_dict(e, {"n": n})) + "\n").encode()
    back, _ = files.load_ensemble(str(path))
    assert back.unitaries.tobytes() == e.unitaries.tobytes()
    assert back.weights.tobytes() == e.weights.tobytes()
    assert back.unitaries.flags.writeable


WEIGHT_CASES = {
    "uniform-21826": np.full(21826, 1 / 21826),
    "all-distinct": np.arange(1, 41) / 820,
    "signed-zeros-and-subnormal": np.array([-0.0, 0.5, 0.0, 5e-324, 0.5, -0.0, 0.0]),
    "single-key": np.array([1.0]),
}


@pytest.mark.parametrize("meta", [None, {"seed": 0, "s": '"weights": [], "unitaries": ""'}],
                         ids=["no-meta", "meta"])
@pytest.mark.parametrize("row_block", [1, 7, 4 * 7, None],
                         ids=["one-weight", "seven-entries", "seven-weights", "default"])
@pytest.mark.parametrize("weights", WEIGHT_CASES.values(), ids=WEIGHT_CASES.keys())
def test_weight_stream_is_the_json_dumps_text(tmp_path, monkeypatch, pauli21, weights, row_block,
                                              meta):
    # the weights are written in blocks of _ROW_BLOCK // 4 (at least one), each distinct weight's
    # text dumped once: the bytes must still be those of one json.dumps
    if row_block is not None:
        monkeypatch.setattr(design, "_ROW_BLOCK", row_block)
    e = UnitaryEnsemble(2, weights, np.resize(pauli21.unitaries, (len(weights), 2, 2)))
    path = tmp_path / "e.json"
    files.save_ensemble(str(path), e, meta)
    assert path.read_bytes() == (json.dumps(ensemble_dict(e, meta)) + "\n").encode()
    assert files.load_ensemble(str(path))[0].weights.tobytes() == weights.tobytes()


def test_save_ensemble_holds_no_list_of_the_weights(tmp_path, monkeypatch, pauli21):
    n = 21826
    e = UnitaryEnsemble.uniform(2, np.resize(pauli21.unitaries, (n, 2, 2)))
    monkeypatch.setattr(design, "_ROW_BLOCK", 2**10)  # 16 KiB blocks: what is left grows with N
    path = str(tmp_path / "e.json")
    files.save_ensemble(path, e)  # numpy's first calls may import modules
    _, peak = traced_peak(lambda: files.save_ensemble(path, e))
    # np.sort's copy of the weights' int64 bits is 8 N bytes; a list of N floats would be 32 N
    assert peak <= 16 * n, peak


@pytest.mark.parametrize("padding", ["A===", "AA==", "AAA="])
def test_format2_padding_before_the_last_chunk_is_rejected(tmp_path, capsys, monkeypatch, pauli21,
                                                           padding):
    monkeypatch.setattr(design, "_ROW_BLOCK", 11)  # read in chunks of 64 characters
    text = ensemble_dict(pauli21)["unitaries"]
    path = tmp_path / "bad.json"
    _write_format2(path, pauli21, unitaries=text[:60] + padding + text[64:])  # ends chunk one
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    assert "unitaries must be a padded base64 string" in capsys.readouterr().err


def _tiled_clifford3(clifford3):
    return UnitaryEnsemble.uniform(3, np.tile(clifford3.unitaries, (100, 1, 1)))  # 21 600 keys


def test_save_ensemble_holds_no_whole_base64_copy(tmp_path, clifford3):
    e, path = _tiled_clifford3(clifford3), str(tmp_path / "e.json")
    _, peak = traced_peak(lambda: files.save_ensemble(path, e))
    # the weights' list and text, and a 1 MiB chunk of base64; all of it would be 4 MiB
    assert peak <= 4 * 2**20, peak


def test_load_ensemble_holds_no_second_copy_of_the_keys(tmp_path, clifford3):
    path = tmp_path / "e.json"
    files.save_ensemble(str(path), _tiled_clifford3(clifford3))
    _, peak = traced_peak(lambda: files.load_ensemble(str(path)))
    # the file's bytes and their text, which json.loads needs, set the floor; the decoded bytes
    # and a bytearray copy beside the base64 text would add 3 MiB
    assert peak <= 2 * path.stat().st_size + 2**20, (peak, path.stat().st_size)


@pytest.mark.parametrize("version", [0, 3, "2", None, True])
def test_other_ensemble_format_versions_are_rejected(tmp_path, capsys, pauli21, version):
    path = tmp_path / "v.json"
    _write_format2(path, pauli21, format=version)
    capsys.readouterr()
    assert run(["certify", str(path)]) == 2
    assert f"unsupported format version {version!r}" in capsys.readouterr().err


def test_kraus_and_matrix_files_stay_at_format_1(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    pairs = files.matrix_to_pairs(np.eye(2))
    kraus, state = tmp_path / "kraus.json", tmp_path / "state.json"
    for version in (2, True):
        kraus.write_text(json.dumps({"format": version, "d": 2, "kraus": [pairs]}))
        state.write_text(json.dumps({"format": version, "d": 2, "state": pairs}))
        for adv in (str(kraus), f"replace:{state}"):
            capsys.readouterr()
            assert run(["attack", "--scheme", str(scheme), "--adv", adv]) == 2
            assert f"unsupported format version {version!r}" in capsys.readouterr().err


def test_a_format1_ensemble_is_refused(tmp_path, capsys, clifford2):
    # the older ensemble encoding: each key entry as its own [re, im] pair
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({"format": 1, "d": 2, "weights": clifford2.weights.tolist(),
                              "unitaries": files.matrix_to_pairs(clifford2.unitaries)}))
    out = tmp_path / "report.json"
    for argv in (["certify", str(v1)], ["attack", "--scheme", str(v1), "--adv", "identity"]):
        capsys.readouterr()
        assert run(argv + ["-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {v1}: unsupported format version 1\n"
        assert not out.exists()


@pytest.mark.parametrize("d", [1, 0])
def test_dimension_below_two_is_a_usage_error(tmp_path, capsys, d):
    one = base64.b64encode(np.ones(1, "<c16")).decode()  # the 1 x 1 key 1
    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps({"format": 2, "d": d, "weights": [1.0], "unitaries": one}))
    kraus = tmp_path / "kraus.json"
    kraus.write_text(json.dumps({"format": 1, "d": d, "kraus": [files.matrix_to_pairs(np.eye(2))]}))
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    for argv in (["certify", str(v2)], ["attack", "--scheme", str(v2), "--adv", "identity"],
                 ["attack", "--scheme", str(scheme), "--adv", str(kraus)]):
        capsys.readouterr()
        assert run(argv) == 2
        assert f"d must be an integer in [2, {files.MAX_D}]" in capsys.readouterr().err
    out = tmp_path / "s.json"
    assert run(["gen", "sampled", "--from", "haar", "--d", str(d), "--n", "3", "-o", str(out)]) == 2
    assert f"d must be >= 2, got {d}" in capsys.readouterr().err
    assert not out.exists()



def test_certify_out_of_memory_exits_2_naming_d_and_size(tmp_path, monkeypatch, capsys):
    def certify_design(ensemble, tol):
        raise MemoryError("Unable to allocate 191. GiB for an array with shape (160000, 160000)")

    path = tmp_path / "c3.json"
    assert run(["gen", "clifford", "--p", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "certify_design", certify_design)
    assert run(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory: certifying d = 3 needs d^4 x d^4 = 81 x 81 operators\n"
    )


@pytest.mark.parametrize("message, err", [
    ("", "error: out of memory\n"),
    ("Unable to allocate 191. GiB", "error: out of memory: Unable to allocate 191. GiB\n"),
])
def test_gen_out_of_memory_exits_2(tmp_path, monkeypatch, capsys, message, err):
    def sample_design(cfg):
        raise MemoryError(message)

    out = tmp_path / "big.json"
    monkeypatch.setattr(construct, "sample_design", sample_design)
    assert run(["gen", "sampled", "--from", "haar", "--d", "20", "--n", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        ("gen clifford --p 2 -o {nodir}", 3),
        ("certify {c2} --out {nodir}", 3),
        ("attack --scheme {c2} --adv identity --out {nodir}", 3),
        ("bounds --d 2 --out {nodir}", 3),
        ("certify {missing}", 2),
        ("attack --scheme {missing} --adv identity", 2),
        ("attack --scheme {c2} --adv {missing}", 2),
        ("attack --scheme {c2} --adv replace:{missing}", 2),
        ("attack --scheme {c2} --adv unitary:{missing}", 2),
        ("certify {p3}", 1),
        ("certify {p3} --mode multiplicative", 1),
        ("attack --scheme {p3} --adv weyl:1,2", 0),
        ("bounds --d 3 --theta 0.5", 2),
    ],
    ids=["gen-io", "certify-io", "attack-io", "bounds-io", "missing-ensemble",
         "missing-scheme", "missing-kraus", "missing-replace", "missing-unitary",
         "certify-fail", "certify-fail-multiplicative", "malleable-attack", "bounds-domain"],
)
def test_exit_code_table(tmp_path, capsys, argv, code):
    # 1 is only certify's verdict; a missing input is a usage error (2); a failed write is 3
    paths = {name: str(tmp_path / f"{name}.json") for name in ("c2", "p3", "missing")}
    paths["nodir"] = str(tmp_path / "no" / "dir" / "out.json")
    assert run(["gen", "clifford", "--p", "2", "-o", paths["c2"]]) == 0
    assert run(["gen", "pauli", "--p", "3", "-o", paths["p3"]]) == 0
    capsys.readouterr()
    assert run(argv.format(**paths).split()) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.out == "" and captured.err.startswith("error: ")
        assert paths["nodir"] in captured.err
    if code == 2 and "{missing}" in argv:
        assert f"No such file or directory: '{paths['missing']}'" in captured.err

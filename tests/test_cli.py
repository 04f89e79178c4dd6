import base64
import json

import numpy as np
import pytest

from qnm import cli, construct, files
from qnm.design import UnitaryEnsemble

from helpers import format1_ensemble_dict, save_format1_ensemble


def run(argv):
    return cli.main(argv)


def test_gen_clifford_and_certify(tmp_path, capsys):
    out = tmp_path / "c2.json"
    assert run(["gen", "clifford", "--p", "2", "-o", str(out)]) == 0
    ensemble = files.load_ensemble(str(out))
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
    assert files.load_ensemble(str(out)).size == 9
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
    assert files.load_ensemble(str(a)).size == 50


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
    assert f"error: gen {argv[0]} does not read {option}" in capsys.readouterr().err
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


def test_certify_env_tolerance(tmp_path, monkeypatch, capsys):
    out = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(out)])
    monkeypatch.setenv("QNM_TOL", "1e-18")
    capsys.readouterr()
    assert run(["certify", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passes_2design_at"] == 1e-18


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
    assert captured.out == "" and "matrix is not unitary (defect 7.500e-01)" in captured.err


@pytest.mark.parametrize(
    "state, error",
    [
        (np.ones((2, 3)) / 2, "{path}: state must be d x d = 2 x 2, got shape (2, 3)"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "replacement state must be Hermitian and PSD"),
        (np.diag([1.5, -0.5]), "replacement state must be Hermitian and PSD"),
        (np.eye(2), "replacement state must be a square matrix with unit trace"),
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


def test_attack_replace_non_ascii_digits_name_a_file(tmp_path, capsys):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    capsys.readouterr()
    assert run(["attack", "--scheme", str(scheme), "--adv", "replace:\u00b2"]) == 2
    err = capsys.readouterr().err
    assert "No such file or directory: '\u00b2'" in err and "invalid literal" not in err


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


def test_ensemble_file_round_trip(tmp_path):
    path = tmp_path / "e.json"
    run(["gen", "sampled", "--d", "2", "--n", "8", "--seed", "5", "--from", "haar", "-o", str(path)])
    e = files.load_ensemble(str(path))
    assert isinstance(e, UnitaryEnsemble)
    again = files.ensemble_from_dict(files.ensemble_to_dict(e))
    assert np.array_equal(again.unitaries, e.unitaries)
    assert np.array_equal(again.weights, e.weights)


@pytest.mark.parametrize(
    "env, flag, name",
    [("nan", [], "QNM_TOL"), ("-1", [], "QNM_TOL"), (None, ["--tol", "nan"], "--tol"),
     (None, ["--tol", "inf"], "--tol")],
    ids=["QNM_TOL=nan", "QNM_TOL=-1", "tol-nan", "tol-inf"],
)
def test_certify_rejects_bad_tolerance(tmp_path, monkeypatch, capsys, env, flag, name):
    out = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(out)])
    if env is not None:
        monkeypatch.setenv("QNM_TOL", env)
    capsys.readouterr()
    assert run(["certify", str(out), *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be finite and > 0" in captured.err


@pytest.mark.parametrize("field", ["weights", "unitaries"])
def test_non_finite_ensemble_file_is_a_usage_error(tmp_path, capsys, clifford2, field):
    path = tmp_path / "c2.json"
    save_format1_ensemble(path, clifford2)
    obj = json.loads(path.read_text())
    if field == "weights":
        obj["weights"][0] = float("nan")
    else:
        obj["unitaries"][0][0][0][0] = float("nan")
    path.write_text(json.dumps(obj))
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


def _loop_pairs(m):
    """The per-entry encoding the vectorised codec must reproduce byte for byte."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def test_matrix_codec_is_byte_identical_to_the_per_entry_encoding(tmp_path):
    m = np.array([[complex(-0.0, -0.0), complex(1.5, -0.0)], [complex(0.0, -2.0), 1e-300 + 3j]])
    assert json.dumps(files.matrix_to_pairs(m)) == json.dumps(_loop_pairs(m))
    back = files.pairs_to_matrix(files.matrix_to_pairs(m))
    assert np.array_equal(np.signbit(back.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))

    path = tmp_path / "s.json"
    argv = ["gen", "sampled", "--d", "3", "--n", "20", "--seed", "4", "--from", "haar"]
    run(argv + ["-o", str(path)])
    obj = json.loads(path.read_text())
    again = tmp_path / "again.json"
    files.save_ensemble(str(again), files.load_ensemble(str(path)), obj["meta"])
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "entry", [[1.0, 0.0, 5.0], [1.0], ["1.0", "0.0"]], ids=["three", "one", "strings"]
)
def test_matrix_entries_must_be_pairs_of_numbers(tmp_path, capsys, clifford2, entry):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    save_format1_ensemble(tmp_path / "c2-format1.json", clifford2)
    obj = json.loads((tmp_path / "c2-format1.json").read_text())
    obj["unitaries"][3][1][0] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    ops = [files.matrix_to_pairs(np.eye(2) / np.sqrt(2)) for _ in range(2)]
    ops[1][0][1] = entry
    kraus = tmp_path / "kraus.json"
    kraus.write_text(json.dumps({"format": 1, "d": 2, "kraus": ops}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"format": 1, "d": 2, "state": ops[1]}))
    capsys.readouterr()
    assert run(["certify", str(bad)]) == 2
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
    back = files.load_ensemble(str(path))
    assert back.unitaries.tobytes() == e.unitaries.tobytes()  # keeps -0.0 and subnormals
    assert back.weights.tobytes() == e.weights.tobytes()
    assert back.unitaries.flags.writeable and back.weights.flags.writeable
    back.unitaries[0, 0, 0] = 1.0
    again = tmp_path / "again.json"
    files.save_ensemble(str(again), files.load_ensemble(str(path)), obj["meta"])
    assert again.read_bytes() == path.read_bytes()


def _write_format2(path, e, **fields):
    """Write ``e`` as a format-2 ensemble file with ``fields`` overriding its entries."""
    path.write_text(json.dumps({**files.ensemble_to_dict(e), **fields}))


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
    text = files.ensemble_to_dict(pauli21)["unitaries"]
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


def test_format1_file_loads_like_format2(tmp_path, capsys):
    v2 = tmp_path / "v2.json"
    argv = ["gen", "sampled", "--d", "3", "--n", "40", "--seed", "4", "--from", "haar"]
    assert run(argv + ["-o", str(v2)]) == 0
    e = files.load_ensemble(str(v2))
    v1 = tmp_path / "v1.json"
    save_format1_ensemble(v1, e)
    back = files.load_ensemble(str(v1))
    assert back.unitaries.tobytes() == e.unitaries.tobytes()
    assert back.weights.tobytes() == e.weights.tobytes()
    reports = []
    for path in (v2, v1):
        capsys.readouterr()
        code = run(["certify", str(path), "--mode", "both"])
        report = json.loads(capsys.readouterr().out)
        assert report.pop("input_digest") == files.file_digest(str(path))
        reports.append((code, report))
    assert reports[0] == reports[1]
    save_format1_ensemble(v1, _edge_ensemble())
    assert files.load_ensemble(str(v1)).unitaries.tobytes() == _edge_ensemble().unitaries.tobytes()


@pytest.mark.parametrize("d", [1, 0])
def test_dimension_below_two_is_a_usage_error(tmp_path, capsys, d):
    one = UnitaryEnsemble(d=1, weights=np.array([1.0]), unitaries=np.ones((1, 1, 1)))
    v2 = tmp_path / "v2.json"
    _write_format2(v2, one, d=d)
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({**format1_ensemble_dict(one), "d": d}))
    kraus = tmp_path / "kraus.json"
    kraus.write_text(json.dumps({"format": 1, "d": d, "kraus": [files.matrix_to_pairs(np.eye(2))]}))
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    for argv in (["certify", str(v2)], ["certify", str(v1)],
                 ["attack", "--scheme", str(v1), "--adv", "identity"],
                 ["attack", "--scheme", str(scheme), "--adv", str(kraus)]):
        capsys.readouterr()
        assert run(argv) == 2
        assert f"d must be an integer >= 2, got {d}" in capsys.readouterr().err
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

import json

import numpy as np
import pytest

from qnm import cli, files
from qnm.design import UnitaryEnsemble


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
    assert len(obj["unitaries"]) == 50


def test_gen_sampled_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["gen", "sampled", "--d", "2", "--n", "5", "--seed", "-1", "-o", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_requires_params(tmp_path):
    assert run(["gen", "clifford", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["gen", "sampled", "--d", "2", "-o", str(tmp_path / "x.json")]) == 2


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


def test_attack_invalid_adversary(tmp_path):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    assert run(["attack", "--scheme", str(scheme), "--adv", "weyl:banana"]) == 2
    assert run(["attack", "--scheme", str(scheme), "--adv", "replace:9"]) == 2


def test_bounds_output(capsys):
    assert run(["bounds", "--d", "2", "--theta", "0"]) == 0
    out = capsys.readouterr().out
    assert "10" in out
    assert "3.1887" in out
    assert "5.0000 bits" in out


def test_bounds_reference_key_length_qutrit(capsys):
    assert run(["bounds", "--d", "3", "--theta", "0"]) == 0
    out = capsys.readouterr().out
    assert "7.9248" in out  # 5 log2(3)


def test_bounds_recommended_n(capsys):
    assert run(["bounds", "--d", "2", "--theta", "0.1", "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "N = 18243" in out


def test_bounds_entropy_domain_error(capsys):
    assert run(["bounds", "--d", "2", "--theta", "0.4"]) == 2
    captured = capsys.readouterr()
    # other rows still printed
    assert "minimum unitaries" in captured.out
    assert "entropy bound needs theta <= 1/e" in captured.err


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
def test_non_finite_ensemble_file_is_a_usage_error(tmp_path, capsys, field):
    path = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(path)])
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
    obj["unitaries"] = [_loop_pairs(u) for u in files.load_ensemble(str(path)).unitaries]
    assert path.read_text() == json.dumps(obj, indent=1) + "\n"
    again = tmp_path / "again.json"
    files.save_ensemble(str(again), files.load_ensemble(str(path)), obj["meta"])
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "entry", [[1.0, 0.0, 5.0], [1.0], ["1.0", "0.0"]], ids=["three", "one", "strings"]
)
def test_matrix_entries_must_be_pairs_of_numbers(tmp_path, capsys, entry):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    obj = json.loads(scheme.read_text())
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

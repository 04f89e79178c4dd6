import base64
import builtins
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from qnm import channels, cli, construct, design, files, nmes
from qnm.design import DEFAULT_CERT_TOL, UnitaryEnsemble

from helpers import (ensemble_dict, haar_batch, loop_replacement_mean, philox, random_density,
                     traced_peak)


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
    "p, n, got", [("100000000000000000039", "1", "p = 100000000000000000039, n = 1"),
                  ("2", "7", "p = 2, n = 7"),
                  ("2", "1" + "0" * 38, f"p = 2, n = {10**38}")],
    ids=["huge-p", "4.3GB", "huge-n"],
)
def test_gen_pauli_checks_the_size_bound_before_primality(tmp_path, monkeypatch, capsys, p, n,
                                                          got):
    # the error shows p and n, each of at most cli._MAX_DIGITS digits
    is_prime = construct.is_prime

    def bounded_is_prime(q):
        assert q**4 <= construct.PAULI_MAX_ENTRIES, f"trial division of {q}"
        return is_prime(q)

    monkeypatch.setattr(construct, "is_prime", bounded_is_prime)
    out = tmp_path / "x.json"
    assert run(["gen", "pauli", "--p", p, "--n", n, "-o", str(out)]) == 2
    assert f"p^(4n) must be <= {construct.PAULI_MAX_ENTRIES} entries, got {got}\n" in (
        capsys.readouterr().err
    )
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
    for argv, error in [(["--theta", "nan"], "theta must"), (["--delta", "1.5"], "delta must"),
                        (["--d", "1"], "d must"), (["--d", "-" + "9" * 39], "d must"),
                        (["--d", "1" * 40], "argument --d: has 40 digits, too many")]:
        capsys.readouterr()
        assert run(["bounds", "--d", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and error in captured.err
        assert len(captured.err.splitlines()[-1]) < 100  # the error line: no echo of a long value


def test_report_out_flag(tmp_path):
    scheme = tmp_path / "c2.json"
    run(["gen", "clifford", "--p", "2", "-o", str(scheme)])
    report_path = tmp_path / "report.json"
    assert run(["certify", str(scheme), "--out", str(report_path)]) == 0
    obj = json.loads(report_path.read_text())
    assert obj["format"] == 1
    # report writes that fail are I/O errors, not usage errors
    assert run(["certify", str(scheme), "--out", str(tmp_path / "no" / "dir" / "r.json")]) == 3


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


def test_every_replace_selector_reads_the_state_off_the_first_moment(tmp_path, capsys,
                                                                       monkeypatch):
    # no replace: selector builds a Kraus operator or a Kraus Choi operator
    def refuse(*args, **kwargs):
        raise AssertionError("the Kraus route was taken")

    for owner, name in [(nmes, "effective_channel"), (nmes, "choi_of"), (channels, "choi_of"),
                        (channels, "constant_channel")]:
        monkeypatch.setattr(owner, name, refuse)
    ensemble = UnitaryEnsemble(3, np.arange(1, 31) / 465, haar_batch(3, 30, philox(73)))
    scheme, state = tmp_path / "h3.json", tmp_path / "state.json"
    scheme.write_text(json.dumps(ensemble_dict(ensemble)))
    eta = random_density(3, philox(28))
    state.write_text(json.dumps(_matrix("state", eta, d=3)))
    for arg, want in [("tau", np.eye(3) / 3), *((str(j), np.diag(np.eye(3)[j])) for j in range(3)),
                      (str(state), eta)]:
        assert run(["attack", "--scheme", str(scheme), "--adv", f"replace:{arg}"]) == 0
        report = json.loads(capsys.readouterr().out)
        mean = loop_replacement_mean(ensemble.weights, ensemble.unitaries, want)
        choi = np.array(report["effective_choi"]) @ [1, 1j]
        assert np.max(np.abs(choi - np.kron(mean, np.eye(3) / 3))) <= 1e-12
        assert abs(report["alpha"] - 1 / 9) <= 1e-12 and abs(report["beta"] - 1 / 9) <= 1e-12


def test_ensemble_file_round_trip(tmp_path):
    path = tmp_path / "e.json"
    run(["gen", "sampled", "--d", "2", "--n", "8", "--seed", "5", "--from", "haar", "-o", str(path)])
    e, _ = files.load_ensemble(str(path))
    assert isinstance(e, UnitaryEnsemble)
    files.save_ensemble(str(path), e)
    again, _ = files.load_ensemble(str(path))
    assert np.array_equal(again.unitaries, e.unitaries)
    assert np.array_equal(again.weights, e.weights)


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
     (None, {"s": '"weights": [], "unitaries": ""'}),
     (_SAMPLED3, {"source": "clifford", "seed": 0, "n": 21826}),
     (_HAAR5, {"source": "haar", "seed": 0, "n": 2623})],
    ids=["none", "empty", "note", "own-unitaries", "nested-unitaries", "quoted-and-non-ascii",
         "placeholder-text", "sampled3-21826", "haar5-several-chunks"],
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
    "uniform-35": np.full(35, 1 / 35),  # in default blocks: sampled3-21826's 21 826 above
    "all-distinct": np.arange(1, 41) / 820,
    "signed-zeros-and-subnormal": np.array([-0.0, 0.5, 0.0, 5e-324, 0.5, -0.0, 0.0]),
    "single-key": np.array([1.0]),
}
ROW_BLOCKS = {"one-weight": 1, "seven-entries": 7, "seven-weights": 4 * 7, "default": None}


@pytest.mark.parametrize("weights, row_block", [
    pytest.param(weights, row_block, id=f"{name}-{block}")
    for name, weights in WEIGHT_CASES.items() for block, row_block in ROW_BLOCKS.items()
    if name != "uniform-35" or row_block is not None])
def test_weight_stream_is_the_json_dumps_text(tmp_path, monkeypatch, pauli21, weights, row_block):
    # the weights are written in blocks of _ROW_BLOCK // 4 (at least one), each distinct weight's
    # text dumped once: the bytes must still be those of one json.dumps
    if row_block is not None:
        monkeypatch.setattr(design, "_ROW_BLOCK", row_block)
    e = UnitaryEnsemble(2, weights, np.resize(pauli21.unitaries, (len(weights), 2, 2)))
    path = tmp_path / "e.json"
    files.save_ensemble(str(path), e)
    assert path.read_bytes() == (json.dumps(ensemble_dict(e)) + "\n").encode()
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


class Whole(str):
    """A usage-error check: stderr is exactly this text."""


class Prefix(str):
    """A usage-error check: stderr starts with this text."""


class Absent(str):
    """A usage-error check: stderr does not hold this text."""


class AtMost(int):
    """A usage-error check: stderr holds at most this many bytes."""


@pytest.fixture
def usage_error(tmp_path, capsys):
    """The one usage-error check: ``usage_error(*commands, **inputs)`` writes ``inputs`` as files,
    then runs each command, (argv, *checks). Each exits 2, prints nothing to stdout, writes no
    output file and leaves stderr as its checks say; a plain str check is text stderr holds. argv
    is split at spaces unless it is a list; ``{name}`` in argv and checks is that file's path, and
    c2.json holds what gen clifford --p 2 writes unless ``inputs`` gives its own."""

    def check(*commands, **inputs):
        paths = {name: str(tmp_path / f"{name}.json") for name in ("c2", "out", "missing", *inputs)}
        for name, content in {"c2": _C2_FILE, **inputs}.items():
            text = content if isinstance(content, (str, bytes)) else json.dumps(content)
            text = text if isinstance(text, bytes) else text.encode()
            (tmp_path / f"{name}.json").write_bytes(text)
        for argv, *checks in commands:
            argv = argv.split() if isinstance(argv, str) else argv
            assert run([arg.format(**paths) for arg in argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not os.path.exists(paths["out"])
            for c in checks:
                if isinstance(c, AtMost):
                    assert len(captured.err.encode()) <= c, (c, captured.err[:200])
                    continue
                want = c.format(**paths)
                holds = {str: want in captured.err, Whole: captured.err == want,
                         Prefix: captured.err.startswith(want), Absent: want not in captured.err}
                assert holds[type(c)], (c, captured.err)

    return check


def _set(a, index, value):
    """A copy of the array ``a`` with ``a[index] = value``."""
    a = np.array(a)
    a[index] = value
    return a


def _matrix(key, m, d=2, version=1):
    """A Kraus, matrix or state file's object."""
    return {"format": version, "d": d, key: files.matrix_to_pairs(m)}


def _pairs_with(m, index, entry):
    """``m``'s [re, im] pairs with the one at ``index`` replaced by ``entry``."""
    pairs = files.matrix_to_pairs(m)
    pairs[index[0]][index[1]] = entry
    return pairs


_C2, _P21 = construct.clifford_prime(2), construct.pauli_ensemble(2, 1)
_C2D, _P21D = ensemble_dict(_C2), ensemble_dict(_P21)
_C2_FILE = (json.dumps(ensemble_dict(_C2, {"source": "clifford", "p": 2})) + "\n").encode()
_P21_BYTES = _P21.unitaries.astype("<c16").tobytes()
_DEEP = "[" * 100_000 + "]" * 100_000
_HALF = np.eye(2) / np.sqrt(2)
_UNNORMALIZED = _set(_C2.weights, 0, 0.0)


def test_gen_sampled_rejects_negative_seed(usage_error):
    usage_error(("gen sampled --d 2 --n 5 --seed -1 -o {out}", "seed must be >= 0, got -1"))


@pytest.mark.parametrize("source", ["clifford", "haar"])
def test_gen_sampled_names_n_beyond_one_array_of_keys(usage_error, source):
    # 16 n d^2 bytes of keys past numpy's largest array size: checked before anything is drawn
    most = np.iinfo(np.intp).max // (16 * 9)
    usage_error((f"gen sampled --d 3 --n {10**20} --from {source} -o {{out}}",
                 Whole(f"error: n_samples must be <= {most} at d = 3: one array of the keys\n")),
                (f"gen sampled --d 3 --n {most + 1} --from {source} -o {{out}}", "n_samples must"))


def test_gen_requires_params(usage_error):
    usage_error(("gen clifford -o {out}",), ("gen sampled --d 2 -o {out}",))


@pytest.mark.parametrize("argv", ["pauli --p 3 --d 9", "clifford --p 2 --n 7",
                                  "clifford --p 3 --seed 4", "clifford --p 3 --from haar",
                                  "sampled --d 3 --n 4 --p 5"],
                         ids=["pauli", "clifford", "clifford-seed", "clifford-from", "sampled"])
def test_gen_rejects_an_option_its_kind_does_not_read(usage_error, argv):
    usage_error((f"gen {argv} -o {{out}}", Prefix(f"usage: qnm gen {argv.split()[0]} "),
                 f"error: unrecognized arguments: {' '.join(argv.split()[-2:])}\n"))


def test_certify_malformed_file(usage_error):
    usage_error(("certify {bad}",), ("certify {notjson}",), ("certify {missing}",),
                bad={"format": 99}, notjson="][")


@pytest.mark.parametrize("text", [b"\xef\xbb\xbf" + _C2_FILE, _C2_FILE.decode().encode("utf-16")],
                         ids=["utf-8-bom", "utf-16"])
def test_input_files_are_plain_utf8(usage_error, text):
    usage_error(("certify {c2}", "error: {c2}: not readable as JSON"), c2=text)


def test_attack_rejects_a_non_unitary_matrix(usage_error):
    usage_error(("attack --scheme {c2} --adv unitary:{u}",
                 Whole("error: {u}: matrix is not unitary (defect 7.500e-01)\n")),
                u=_matrix("matrix", 0.5 * np.eye(2)))


@pytest.mark.parametrize("m, error", [
    (np.ones((2, 3)) / 2, "state must be d x d = 2 x 2, got shape (2, 3)"),
    ([[0.5, 0.1], [0, 0.5]], "replacement state must be Hermitian and PSD"),
    (np.diag([1.5, -0.5]), "replacement state must be Hermitian and PSD"),
    (np.eye(2), "replacement state has trace 2+0j, not 1"),
], ids=["non-square", "non-hermitian", "non-psd", "trace-2"])
def test_attack_rejects_a_replacement_that_is_not_a_state(usage_error, m, error):
    usage_error(("attack --scheme {c2} --adv replace:{state}", f"error: {{state}}: {error}"),
                state=_matrix("state", m))


def test_attack_bounds_a_replacement_state_hermiticity_by_its_own_entries(usage_error):
    # a defect of 2e-10 in eta is 4e-11 in eta (x) tau at d = 5, but the 1e-10 bound is eta's
    usage_error(("attack --scheme {p5} --adv replace:{state}",
                 Prefix("error: {state}: replacement state must be Hermitian and PSD (")),
                p5=ensemble_dict(construct.pauli_ensemble(5, 1)),
                state=_matrix("state", _set(np.eye(5) / 5, (0, 1), 2e-10), d=5))


@pytest.mark.parametrize("d, m, prefix, key", [
    pytest.param(d, m, prefix, key, id=f"{shape}-{prefix}-{key}")
    for shape, d, m in [("non-square", 2, np.ones((2, 3)) / 2), ("mismatched-d", 3, np.eye(2))]
    for prefix, key in [("replace", "state"), ("unitary", "matrix")]])
def test_matrix_file_must_hold_a_d_by_d_matrix(usage_error, d, m, prefix, key):
    usage_error((f"attack --scheme {{c2}} --adv {prefix}:{{m}}",
                 f"error: {{m}}: {key} must be d x d = {d} x {d}, got shape {np.shape(m)}"),
                m=_matrix(key, m, d))


@pytest.mark.parametrize("prefix, key, m", [("", "kraus", np.eye(3)[None]),
                                            ("unitary:", "matrix", np.eye(3)),
                                            ("replace:", "state", np.eye(3) / 3)],
                         ids=["kraus", "unitary", "replace"])
def test_an_adversary_of_another_dimension_is_a_usage_error(usage_error, prefix, key, m):
    usage_error((f"attack --scheme {{c2}} --adv {prefix}{{adv}} -o {{out}}",
                 Whole("error: {adv}: adversary acts on dimension 3, scheme has dimension 2\n")),
                adv=_matrix(key, m, d=3))


def test_kraus_file_shape_error_names_the_file(usage_error):
    usage_error(("attack --scheme {c2} --adv {k}",
                 "error: {k}: malformed Kraus file (Kraus operator 0 has shape (2, 3)"),
                k=_matrix("kraus", np.ones((1, 2, 3))))


def test_a_trace_increasing_kraus_file_is_named_in_its_error(usage_error):
    usage_error(("attack --scheme {c2} --adv {big} -o {out}", Whole(
        "error: {big}: adversary channel is not trace non-increasing (defect 2.100e-01)\n")),
        big=_matrix("kraus", 1.1 * np.eye(2)[None]))


@pytest.mark.parametrize("prefix", ["", "replace:", "unitary:"],
                         ids=["kraus", "replace", "unitary"])
def test_too_deeply_nested_json_is_a_usage_error(usage_error, prefix):
    usage_error((f"attack --scheme {{c2}} --adv {prefix}{{deep}}",
                 "error: {deep}: not readable as JSON"), deep=_DEEP)


def test_too_deeply_nested_ensemble_file_is_a_usage_error(usage_error):
    usage_error(("certify {deep} --mode both", "error: {deep}: not readable as JSON"), deep=_DEEP)


def test_a_json_array_is_not_an_input_file(usage_error):
    usage_error(("certify {array} --out {out}",
                 Whole("error: {array}: expected a JSON object at top level\n")), array="[]")


def test_kraus_entries_must_be_re_im_pairs(usage_error):
    usage_error(("attack --scheme {c2} --adv {kraus}",
                 Whole("error: {kraus}: malformed Kraus file (Kraus operator 0 must be rows of "
                       "[re, im] pairs of numbers)\n")),
                kraus={"format": 1, "d": 2, "kraus": [[[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                                       [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]]})


def test_attack_invalid_adversary(usage_error):
    usage_error(("attack --scheme {c2} --adv weyl:banana",),
                ("attack --scheme {c2} --adv replace:9",))


@pytest.mark.parametrize("index, error", [
    # the error names the selector, its field and the range, not the value
    *(pytest.param(index, Whole("error: replace:<j>: j out of range 0..1\n"), id=name)
      for name, index in {"-1": "-1", "2": "2", "+2": "+2", "9": "9"}.items()),
    # more digits than cli._MAX_DIGITS
    pytest.param("1" * 4300, Whole("error: replace:<j>: j has 4300 digits, too many\n"),
                 id="4300-digits"),
    pytest.param("9" * 5000, Whole("error: replace:<j>: j has 5000 digits, too many\n"),
                 id="5000-digits"),
])
def test_attack_replace_index_out_of_range(usage_error, index, error):
    usage_error((f"attack --scheme {{c2}} --adv replace:{index}", error))


@pytest.mark.parametrize("arg, error", [
    *((arg, "weyl adversary needs 'weyl:<a>,<b>'") for arg in ["\u0661,\u0662", " 1 , 2", "1_0,2"]),
    ("1,-" + "9" * 5000, Whole("error: weyl:<a>,<b>: b has 5000 digits, too many\n")),
    ("x" * 5000, Whole("error: weyl adversary needs 'weyl:<a>,<b>'\n")),
], ids=["arabic-indic", "spaces", "underscore", "5000-digits", "5000-chars"])
def test_attack_weyl_reads_only_ascii_integers(usage_error, arg, error):
    usage_error((["attack", "--scheme", "{c2}", "--adv", f"weyl:{arg}"], error))


def test_attack_replace_non_ascii_digits_name_a_file(usage_error):
    usage_error(("attack --scheme {c2} --adv replace:\u00b2", "No such file or directory: '\u00b2'",
                 Absent("invalid literal")))


@pytest.mark.parametrize("d, theta", [("2", "1e-200"), ("2", "1e-160"), (str(10**80), "0.1"),
                                      (str(10**400), "0.1"), ("1" * 500, "0.1")],
                         ids=["theta-1e-200", "theta-1e-160", "d-1e80", "d-1e400", "d-500-digits"])
def test_bounds_recommended_n_overflow_is_a_usage_error(usage_error, d, theta):
    # a tiny theta overflows; a d large enough to overflow has more digits than the CLI reads,
    # so test_recommended_n_overflow_names_theta_and_delta_not_d holds those d in the library
    if len(d) > cli._MAX_DIGITS:
        checks = (Prefix("usage: qnm bounds"), f"argument --d: has {len(d)} digits, too many",
                  Absent(d), AtMost(512))
    else:
        checks = (Whole(f"error: recommended_n overflows for this d at theta = {float(theta)}, "
                        f"delta = 0.01\n"),)
    usage_error((f"bounds --d {d} --theta {theta} --delta 0.01", *checks))


@pytest.mark.parametrize("value", ["1" * 5000, "x" * 5000, "\u0663", "1_0", " 3"],
                         ids=["5000-digits", "5000-chars", "arabic-indic", "underscore", "space"])
@pytest.mark.parametrize("argv", [
    "gen pauli --p V --n 1 -o {out}", "gen pauli --p 2 --n V -o {out}",
    "gen clifford --p V -o {out}", "gen sampled --d V --n 3 -o {out}",
    "gen sampled --d 2 --n V -o {out}", "gen sampled --d 2 --n 3 --seed V -o {out}",
    "certify {c2} --tol V", "bounds --d V", "bounds --d 2 --theta V", "bounds --d 2 --delta V",
], ids=["pauli-p", "pauli-n", "clifford-p", "sampled-d", "sampled-n", "sampled-seed", "certify-tol",
        "bounds-d", "bounds-theta", "bounds-delta"])
def test_a_bad_number_names_its_option_and_not_its_text(usage_error, argv, value):
    words = argv.split()
    option = words[words.index("V") - 1]
    real = option in ("--tol", "--theta", "--delta")
    if value == "1" * 5000:  # a real of 5000 digits reads as inf, which the command refuses itself
        reason = f"{option[2:]} must" if real else f"argument {option}: has 5000 digits, too many"
    else:
        reason = f"argument {option}: not {'a number' if real else 'an integer'}"
    usage_error(([value if w == "V" else w for w in words], reason, Absent(value), AtMost(512)))


def test_a_long_bad_real_is_refused_in_linear_time(usage_error):
    # a real pattern that can split a run of digits two ways backtracks over every split: 12 s here
    start = time.perf_counter()
    usage_error((["bounds", "--d", "2", "--theta", "1" * 20000 + "_"], "argument --theta: not a"))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("digits", [19, 4300])
@pytest.mark.parametrize("argv, head", [
    ("gen clifford --p V -o {out}", "p must be a prime <= 5, got "),
    ("gen pauli --p V -o {out}", "p^(4n) must be <= 4194304 entries, got p = "),
    ("gen pauli --p -V -o {out}", "p must be prime, got "),
    ("gen pauli --p 2 --n -V -o {out}", "n must be a positive integer, got "),
    ("gen sampled --d V --n 3 -o {out}", "d must be a prime <= 5 for clifford, got "),
    ("gen sampled --d -V --n 3 -o {out}", "d must be >= 2, got "),
    ("gen sampled --d 2 --n -V -o {out}", "n_samples must be >= 1, got "),
    ("gen sampled --d 2 --n 3 --seed -V -o {out}", "seed must be >= 0, got "),
], ids=["clifford-p", "pauli-p", "pauli-negative-p", "pauli-n", "sampled-d", "sampled-negative-d",
        "sampled-n", "sampled-seed"])
def test_a_range_error_names_a_long_integer_by_its_size(usage_error, argv, head, digits):
    # an integer of up to cli._MAX_DIGITS digits is shown in its range error; a longer one is
    # refused before any range check, by its option and its size, and never echoed
    negative, tail = "-V" in argv, ", n = 1" if "--p V" in argv and "pauli" in argv else ""
    words = argv.split()
    option = words[next(i for i, word in enumerate(words) if "V" in word) - 1]

    def command(n):
        value = "1" * n
        if n > cli._MAX_DIGITS:
            return (argv.replace("V", value), Prefix("usage: qnm gen "),
                    f"argument {option}: has {n} digits, too many", Absent(value))
        sign = "-" if negative else ""
        return argv.replace("V", value), Whole(f"error: {head}{sign}{value}{tail}\n")

    usage_error(command(digits), command(cli._MAX_DIGITS))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int() digit limit")
def test_the_digit_bound_is_the_interpreters_limit(usage_error, capsys, tmp_path):
    # whatever the interpreter's int() limit (the least, 640; none, 0; or the one in effect), the
    # CLI reads cli._MAX_DIGITS digits and refuses one more, naming the option or field
    limit, most = sys.get_int_max_str_digits(), "9" * cli._MAX_DIGITS
    scheme, keys = tmp_path / "scheme.json", str(tmp_path / "keys.json")
    scheme.write_bytes(_C2_FILE)
    try:
        for setting in (640, 0, limit):
            sys.set_int_max_str_digits(setting)
            assert run(["gen", "sampled", "--d", "2", "--n", "3", "--seed", most, "-o", keys]) == 0
            assert run(["attack", "--scheme", str(scheme), "--adv", f"weyl:{most},-{most}"]) == 0
            capsys.readouterr()
            assert run(["bounds", "--d", most, "--theta", "0.1"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["d"] == int(most) and report["rank_bound"] == (int(most)**2 - 1)**2 + 1
            usage_error((f"attack --scheme {{c2}} --adv replace:{most}",
                         Whole("error: replace:<j>: j out of range 0..1\n")),
                        (f"attack --scheme {{c2}} --adv replace:-1{most}",
                         Whole("error: replace:<j>: j has 40 digits, too many\n")),
                        (f"attack --scheme {{c2}} --adv weyl:0,0{most}",
                         Whole("error: weyl:<a>,<b>: b has 40 digits, too many\n")),
                        (["bounds", "--d", f"0{most}"], Prefix("usage: qnm bounds"),
                         "argument --d: has 40 digits, too many", Absent(most)),
                        (f"gen sampled --d 2 --n 3 --seed +1{most} -o {{out}}",
                         Prefix("usage: qnm gen sampled"),
                         "argument --seed: has 40 digits, too many", Absent(most)))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("spelled, plain", [
    ("gen sampled --d +3 --n +3 --seed 00 -o {out}", "gen sampled --d 3 --n 3 --seed 0 -o {out}"),
    ("gen pauli --p 03 --n +1 -o {out}", "gen pauli --p 3 --n 1 -o {out}"),
    ("gen clifford --p +2 -o {out}", "gen clifford --p 2 -o {out}"),
    ("certify {c2} --tol 1E2", "certify {c2} --tol 100.0"),
    ("certify {c2} --tol .5", "certify {c2} --tol 0.5"),
    ("bounds --d 03 --theta .5E-1 --delta 1e-3", "bounds --d 3 --theta 0.05 --delta 0.001"),
], ids=["sampled", "pauli", "clifford", "tol-1E2", "tol-.5", "bounds"])
def test_every_spelling_of_a_number_gives_the_same_result(tmp_path, capsys, spelled, plain):
    paths = {"c2": str(tmp_path / "c2.json"), "out": str(tmp_path / "out.json")}
    (tmp_path / "c2.json").write_bytes(_C2_FILE)
    results = []
    for argv in (spelled, plain):
        code = run([arg.format(**paths) for arg in argv.split()])
        written = (tmp_path / "out.json").read_bytes() if "{out}" in argv else None
        results.append((code, capsys.readouterr().out, written))
    assert results[0] == results[1] and results[0][0] == 0


@pytest.mark.parametrize("argv, error", [
    ("certify", "the following arguments are required: input"),
    ("gen sampled --d 2", "the following arguments are required: --n"),
    ("gen pauli --p 3 --d 9", "unrecognized arguments: --d 9"),
], ids=["certify-input", "sampled-n", "pauli-d"])
def test_argparse_errors_are_returned_as_exit_2(usage_error, argv, error):
    usage_error((f"{argv} -o {{out}}", f"error: {error}\n"))


def test_a_stray_argument_is_reported_with_its_sub_command_usage(usage_error):
    usage_error(("certify {c2} extra.json", Prefix("usage: qnm certify "),
                 "qnm certify: error: unrecognized arguments: extra.json\n"))


@pytest.mark.parametrize("fields, error, argv", [
    pytest.param(fields, error, argv, id=f"{name}-{command}")
    for name, fields, error in [
        ("scaled-key", {"unitaries": _keys(*_set(_C2.unitaries, 3, 1.001 * _C2.unitaries[3]))},
         "ensemble element 3 is not unitary (deviation 2.001e-03)"),
        ("negative-weight", {"weights": _set(_C2.weights, 0, -0.1).tolist()},
         "weights must be nonnegative"),
        ("nested-weights", {"weights": [[w] for w in _C2.weights.tolist()]},
         "weights must be a list of numbers"),
        ("number-weights", {"weights": 1.0}, "weights must be a list of numbers")]
    for command, argv in [("certify", "certify"), ("attack", "attack --adv identity --scheme")]])
def test_ensemble_content_error_names_the_file(usage_error, fields, error, argv):
    usage_error((f"{argv} {{bad}}", Whole(f"error: {{bad}}: malformed ensemble file ({error})\n")),
                bad={**_C2D, **fields})


@pytest.mark.parametrize("tol", ["nan", "inf"], ids=["tol-nan", "tol-inf"])
def test_certify_rejects_bad_tolerance(usage_error, tol):
    usage_error((f"certify {{c2}} --tol {tol}", "--tol must be finite and > 0"))


@pytest.mark.parametrize("field, value", [
    ("weights", _set(_C2.weights, 0, np.nan).tolist()),
    ("unitaries", _keys(*_set(_C2.unitaries, (0, 0, 0), np.nan))),
], ids=["weights", "unitaries"])
def test_non_finite_ensemble_file_is_a_usage_error(usage_error, field, value):
    usage_error(("certify {bad}", f"{field} must be finite"),
                ("attack --scheme {bad} --adv identity", f"{field} must be finite"),
                bad={**_C2D, field: value})


@pytest.mark.parametrize("prefix, key", [("replace", "state"), ("unitary", "matrix")],
                         ids=["replace-state", "unitary-matrix"])
def test_non_finite_matrix_file_is_a_usage_error(usage_error, prefix, key):
    usage_error((f"attack --scheme {{c2}} --adv {prefix}:{{m}}", f"{key} must be finite"),
                m=_matrix(key, np.diag([1, complex(0, np.inf)])))


@pytest.mark.parametrize("entry", [[1.0, 0.0, 5.0], [1.0], ["1.0", "0.0"]],
                         ids=["three", "one", "strings"])
def test_matrix_entries_must_be_pairs_of_numbers(usage_error, entry):
    usage_error(("attack --scheme {c2} --adv unitary:{bad}", "{bad}"),
                ("attack --scheme {c2} --adv {kraus}", "{kraus}", "Kraus operator 1"),
                ("attack --scheme {c2} --adv replace:{state}", "{state}"),
                bad={"format": 1, "d": 2, "matrix": _pairs_with(np.eye(2), (1, 0), entry)},
                kraus={"format": 1, "d": 2, "kraus": [files.matrix_to_pairs(_HALF),
                                                      _pairs_with(_HALF, (0, 1), entry)]},
                state={"format": 1, "d": 2, "state": _pairs_with(_HALF, (0, 1), entry)})


def test_gen_sampled_rejects_a_dimension_no_reader_takes(usage_error):
    usage_error((f"gen sampled --from haar --d {files.MAX_D + 1} --n 1 -o {{out}}",
                 f"error: d must be <= {files.MAX_D}"))


def test_an_unnormalized_weight_error_prints_a_plain_float(usage_error):
    usage_error(("certify {w}", f"weights must sum to 1, got {float(_UNNORMALIZED.sum())!r})",
                 Absent("np.float64")), w={**_C2D, "weights": _UNNORMALIZED.tolist()})


def test_gen_pauli_rejects_zero_qudits(usage_error):
    usage_error(("gen pauli --p 2 --n 0 -o {out}", "n must be a positive integer"))


@pytest.mark.parametrize("unitaries", ["not base64!", "QUJD", "AAAAAAAAAAAAAAAA", [[[[1.0, 0.0]]]],
                                       7, None],
                         ids=["bad-chars", "short", "wrong-length", "list", "number", "null"])
def test_format2_malformed_unitaries_are_usage_errors(usage_error, unitaries):
    usage_error(("certify {bad}", "{bad}", "unitaries"),
                ("attack --scheme {bad} --adv identity", "unitaries"),
                bad={**_P21D, "unitaries": unitaries})


@pytest.mark.parametrize("stray", ["\n", " ", "!"])
def test_format2_rejects_stray_characters_in_a_valid_block(usage_error, stray):
    usage_error(("certify {bad}", "unitaries must be a padded base64 string"),
                bad={**_P21D, "unitaries": _P21D["unitaries"][:8] + stray + _P21D["unitaries"][8:]})


def test_format2_wrong_length_names_the_expected_size(usage_error):
    usage_error(("certify {bad}", f"unitaries holds {len(_P21_BYTES) - 16} bytes, "
                                  f"expected 16*N*d^2 = {len(_P21_BYTES)}"),
                bad={**_P21D, "unitaries": base64.b64encode(_P21_BYTES[:-16]).decode()})


def test_format2_non_finite_bytes_are_rejected(usage_error):
    usage_error(("certify {nan}", "unitaries must be finite"),
                nan={**_P21D, "unitaries": _keys(*_set(_P21.unitaries, (2, 1, 0), np.nan))})


@pytest.mark.parametrize("version", [0, 3, "2", None, True])
def test_other_ensemble_format_versions_are_rejected(usage_error, version):
    usage_error(("certify {v}", f"unsupported format version {version!r}"),
                v={**_P21D, "format": version})


def test_kraus_and_matrix_files_stay_at_format_1(usage_error):
    usage_error(("attack --scheme {c2} --adv {kraus2}", "unsupported format version 2"),
                ("attack --scheme {c2} --adv replace:{state2}", "unsupported format version 2"),
                ("attack --scheme {c2} --adv {kraus_true}", "unsupported format version True"),
                ("attack --scheme {c2} --adv replace:{state_true}",
                 "unsupported format version True"),
                kraus2=_matrix("kraus", np.eye(2)[None], version=2),
                state2=_matrix("state", np.eye(2), version=2),
                kraus_true=_matrix("kraus", np.eye(2)[None], version=True),
                state_true=_matrix("state", np.eye(2), version=True))


def test_a_format1_ensemble_is_refused(usage_error):
    # the older ensemble encoding: each key entry as its own [re, im] pair
    v1_error = Whole("error: {v1}: unsupported format version 1\n")
    usage_error(("certify {v1} -o {out}", v1_error),
                ("attack --scheme {v1} --adv identity -o {out}", v1_error),
                v1={**_matrix("unitaries", _C2.unitaries), "weights": _C2.weights.tolist()})


@pytest.mark.parametrize("d", [1, 0])
def test_dimension_below_two_is_a_usage_error(usage_error, d):
    usage_error(*((argv, f"d must be an integer in [2, {files.MAX_D}]") for argv in [
                    "certify {v2}", "attack --scheme {v2} --adv identity",
                    "attack --scheme {c2} --adv {kraus}"]),
                (f"gen sampled --from haar --d {d} --n 3 -o {{out}}", f"d must be >= 2, got {d}"),
                v2={"format": 2, "d": d, "weights": [1.0], "unitaries": _keys(np.ones((1, 1)))},
                kraus=_matrix("kraus", np.eye(2)[None], d))

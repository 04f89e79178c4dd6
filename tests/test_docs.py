"""The README's examples and the workflow's console-script smoke run against the library and do
what they say, every public name has a user outside the package's own exports, and no code the
workflow's floor job runs uses a numpy name newer than its numpy 1.24."""

import contextlib
import inspect
import io
import itertools
import json
import re
import shlex
from pathlib import Path

import qnm
from qnm import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_readme_library_example_prints_the_stated_coordinates():
    text = README.read_text()
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    (alpha, beta), (residual,) = [[float(x) for x in line.split()] for line in lines]
    assert abs(alpha) <= 1e-12 and abs(beta - 1 / 3) <= 1e-12
    assert abs(residual - 4 / 3) <= 1e-12


def test_readme_cli_block_has_the_stated_outcomes(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    section = text[text.index("## CLI") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    outcomes = {}  # command without "qnm " -> (exit code, parsed stdout report or None)
    for line in block.splitlines():
        command = line.split("#", 1)[0].strip()
        if not command or "my_kraus.json" in command:  # no such file ships with the README
            continue
        argv = shlex.split(command)
        assert argv[0] == "qnm"
        code = cli.main(argv[1:])
        out = capsys.readouterr().out
        outcomes[" ".join(argv[1:])] = code, json.loads(out) if out else None
    assert [c for c, (code, _) in outcomes.items() if code != 0] == ["certify p3.json"]

    code, report = outcomes["certify c2.json"]
    assert code == 0 and report["passes_two_design"] and report["passes_2design_at"] == 1e-9
    code, report = outcomes["certify p3.json"]
    assert code == 1 and report["omega_rank"] == 9 and report["rank_bound"] == 65
    assert abs(report["two_design_trace_dist"] - 14 / 9) <= 1e-12
    code, report = outcomes["attack --scheme c2.json --adv weyl:1,0"]
    assert code == 0 and report["malleability_residual"] <= 1e-12


def test_readme_states_the_clis_digit_bound():
    text = README.read_text()
    start = text.index("Every number on the command line")
    paragraph = " ".join(text[start : text.index("\n\n", start)].split())
    assert f"at most {cli._MAX_DIGITS} digits" in paragraph


def test_workflow_smoke_is_qnm_calls_with_the_stated_exit_codes(tmp_path, monkeypatch, capsys):
    # a check is a tier-1 case, never a workflow line: the installed-script step may hold only
    # its setup, comments and qnm calls, each with the exit code it expects
    lines = WORKFLOW.read_text().splitlines()
    step = lines.index("      - name: Installed qnm console script")
    run = next(i for i in itertools.count(step) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = itertools.takewhile(lambda line: not line.strip() or line[: indent + 1].isspace(),
                                lines[run + 1 :])
    monkeypatch.chdir(tmp_path)
    codes = []
    for line in filter(None, (line.strip() for line in block)):
        if line.startswith("#") or line in ("python -m pip install .", 'cd "$RUNNER_TEMP"'):
            continue
        coded = re.fullmatch(r'rc=0; qnm ([^|;>]+) \|\| rc=\$\?; test "\$rc" -eq (\d)', line)
        plain = re.fullmatch(r"qnm ([^|;>]+?)(?: > /dev/null)?", line)
        assert coded or plain, f"not a qnm call: {line}"
        args, want = (coded[1], int(coded[2])) if coded else (plain[1], 0)
        assert cli.main(shlex.split(args)) == want, line
        out = capsys.readouterr().out  # nothing, or a one-line report
        assert out == "" or (out.count("\n") == 1 and isinstance(json.loads(out), dict)), line
        codes.append(want)
    assert sorted(set(codes)) == [0, 1, 2, 3]


def test_every_public_name_has_a_user():
    # a public name stays only while the CLI, the README or the benchmark uses it
    names = [n for n in dir(qnm) if not n.startswith("_") and not inspect.ismodule(getattr(qnm, n))]
    src = [p for p in (ROOT / "src" / "qnm").glob("*.py") if p.name != "__init__.py"]
    texts = [p.read_text() for p in src + [README] + sorted((ROOT / "bench").glob("*.py"))]
    lines = [line for text in texts for line in text.splitlines()]

    def used(name):
        own = re.compile(rf"\s*(def|class) {name}\b")  # the name's own definition line
        word = re.compile(rf"\b{name}\b")
        return any(word.search(line) and not own.match(line) for line in lines)

    assert [n for n in names if not used(n)] == []


# numpy names added after 1.24: exceptions and dtypes in 1.25, astype, unstack and cumulative_* in
# 2.1, matvec and vecmat in 2.2, the rest in 2.0
NUMPY_AFTER_1_24 = [
    "concat", "astype", "unique_values", "unique_counts", "unique_inverse", "unique_all", "vecdot",
    "matvec", "vecmat", "permute_dims", "matrix_transpose", "cumulative_sum", "cumulative_prod",
    "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "isdtype",
    "trapezoid", "unstack", "pow", "acos", "asin", "atan", "atan2", "acosh", "asinh", "atanh",
    "exceptions", "dtypes", "strings", "linalg.matrix_norm", "linalg.vector_norm",
    "linalg.vecdot", "linalg.matrix_transpose", "linalg.outer", "linalg.svdvals",
    "linalg.diagonal", "linalg.trace", "linalg.cross", "linalg.tensordot", "linalg.matmul",
]


def test_no_numpy_name_newer_than_the_floor():
    # only the floor job runs numpy 1.24: this finds a newer name in any numpy the suite runs on
    newer = re.compile(rf"\b(?:np|numpy)\.(?:{'|'.join(map(re.escape, NUMPY_AFTER_1_24))})\b")
    paths = [*(ROOT / "src" / "qnm").glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "bench").glob("*.py")]
    found = [f"{p.name}:{i}: {m[0]}" for p in sorted(paths)
             for i, line in enumerate(p.read_text().splitlines(), 1) for m in newer.finditer(line)]
    assert found == []

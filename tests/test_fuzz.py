"""Seeded fuzz regression guard for the input layer.

Each of ``MUTATIONS`` Philox-seeded mutations edits one ensemble, Kraus, state or matrix file, by
its parsed JSON value or by its text, and runs every command that reads the file through
``cli.main``: ``certify`` and ``attack`` with every adversary selector for an ensemble file, and
the attack that reads it for an adversary file. Whatever the mutation, each command must return
0, 1 or 2 without raising, and an exit-2 error must name the mutated file.

Each of ``ARGV_MUTATIONS`` more edits the numeric arguments of a cheap command (``bounds``, ``gen
clifford``, ``gen sampled``, ``certify --tol``) with digits, signs, Unicode digits, "_", spaces or a
5000-character run. Each command must return 0, 1 or 2 without raising, with a short error.
"""

import json
from pathlib import Path

import numpy as np

from qnm import cli, construct, files
from qnm.channels import random_cptni_channel

from helpers import haar_batch, philox, random_density

MUTATIONS = 300
SELECTORS = ("identity", "replace:tau", "replace:1", "weyl:1,0", "replace:{state}",
             "unitary:{matrix}", "{kraus}")
VALUES = (None, True, "x", "", -1, 0, 1, 2, 0.5, -0.0, 1e-300, 1e308, 10**400, float("nan"),
          float("inf"), [], {}, [0.0, 0.0], [[0.0, 0.0]], [[[1.0, 0.0]]], "AAAA")
FACTORS = (0.0, -1.0, 1 + 1e-9, 1 + 1e-13, 1e200, 1j)
TEXT_CHARS = '{}[],:"0123456789-+.eE aZ=/\\'
BASE64_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
DELETE = object()
ARGV_MUTATIONS = 200
NUMBER_CHARS = "0123456789+-\u0661\u0663\u00b2_ "
NUMBER_COMMANDS = ("bounds --d 3 --theta 0.1 --delta 0.01", "gen clifford --p 2 -o {out}",
                   "gen sampled --d 2 --n 3 --seed 0 -o {out}", "certify {scheme} --tol 1e-9")
NUMBER_OPTIONS = ("--d", "--theta", "--delta", "--p", "--n", "--seed", "--tol")


def _base_files(tmp_path) -> dict:
    """Valid d = 2 inputs: the Clifford group, a Kraus channel, a state and a unitary."""
    rng = philox(900)
    paths = {kind: str(tmp_path / f"{kind}.json") for kind in ("scheme", "kraus", "state", "matrix")}
    files.save_ensemble(paths["scheme"], construct.clifford_prime(2), {"source": "clifford"})
    ops = random_cptni_channel(2, rng, 3).kraus_ops
    objects = {
        "kraus": {"format": 1, "d": 2, "kraus": [files.matrix_to_pairs(k) for k in ops]},
        "state": {"format": 1, "d": 2, "state": files.matrix_to_pairs(random_density(2, rng))},
        "matrix": {"format": 1, "d": 2, "matrix": files.matrix_to_pairs(haar_batch(2, 1, rng)[0])},
    }
    for kind, obj in objects.items():
        files.write_json(obj, paths[kind])
    return paths


def _nodes(value, path=()):
    """Every (path, value) in a parsed JSON value, the root included."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _nodes(child, path + (key,))


def _set(root, path, new):
    """``root`` with the node at ``path`` replaced by ``new``, or deleted if ``new`` is DELETE."""
    if not path:
        return new
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return root


def _mutate(text: str, rng: np.random.Generator) -> str:
    """One random edit of a JSON file's text; it may or may not leave the file valid."""
    edit = int(rng.integers(6))
    if edit >= 4:  # an edit of the text itself: overwrite, insert, delete or truncate
        at = int(rng.integers(len(text)))
        char = TEXT_CHARS[int(rng.integers(len(TEXT_CHARS)))]
        return [text[:at] + char + text[at + 1:], text[:at] + char + text[at:],
                text[:at] + text[at + int(rng.integers(1, 8)):], text[:at]][int(rng.integers(4))]
    root = json.loads(text)
    nodes = list(_nodes(root))
    if edit == 3:  # mass moved from one entry of a list of numbers to another: the sum is kept
        lists = [v for _, v in nodes if isinstance(v, list) and len(v) > 1
                 and all(type(x) is float for x in v)]
        value = lists[int(rng.integers(len(lists)))]
        a, b = rng.choice(len(value), 2, replace=False)
        value[a], value[b] = value[a] / 2, value[b] + value[a] / 2
        return json.dumps(root)
    depth = int(rng.integers(max(len(path) for path, _ in nodes) + 1))  # shallow nodes as often
    at_depth = [(path, value) for path, value in nodes if len(path) == depth]
    path, value = at_depth[int(rng.integers(len(at_depth)))]
    if edit == 0:
        return json.dumps(_set(root, path, VALUES[int(rng.integers(len(VALUES)))]))
    if edit == 1 and path:
        return json.dumps(_set(root, path, DELETE))
    if isinstance(value, str) and value:  # one character of the base64 keys
        at = int(rng.integers(len(value)))
        char = BASE64_CHARS[int(rng.integers(len(BASE64_CHARS)))]
        return json.dumps(_set(root, path, value[:at] + char + value[at + 1:]))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        new = value * FACTORS[int(rng.integers(len(FACTORS)))]
        return json.dumps(_set(root, path, [new.real, new.imag] if isinstance(new, complex) else new))
    return json.dumps(_set(root, path, [value, value]))  # a list or object doubled in place


def _commands(kind: str, path: str, paths: dict) -> list:
    if kind != "scheme":
        selector = {"kraus": path, "state": f"replace:{path}", "matrix": f"unitary:{path}"}[kind]
        return [["attack", "--scheme", paths["scheme"], "--adv", selector]]
    return [["certify", path]] + [
        ["attack", "--scheme", path, "--adv", s.format(**paths)] for s in SELECTORS
    ]


def test_mutated_inputs_exit_0_1_or_2_and_name_the_file(tmp_path, capsys):
    paths = _base_files(tmp_path)
    texts = {kind: Path(p).read_text() for kind, p in paths.items()}
    kinds = sorted(paths)
    rng = philox(901)
    problems, exits = [], {0: 0, 1: 0, 2: 0}
    for n in range(MUTATIONS):
        kind = kinds[n % len(kinds)]
        mutated = str(tmp_path / f"mutated-{kind}.json")
        Path(mutated).write_text(_mutate(texts[kind], rng))
        for argv in _commands(kind, mutated, paths):
            code = cli.main(argv)  # an exception that escapes fails the test with its traceback
            err = capsys.readouterr().err
            if code not in exits or (code == 2 and not err.startswith(f"error: {mutated}: ")):
                problems.append((n, argv, code, err))
            else:
                exits[code] += 1
    assert problems == []
    assert all(exits.values()), exits  # the mutations reach every outcome


def _mutate_number(text: str, rng: np.random.Generator) -> str:
    """One random edit of a numeric argument: a character inserted, overwritten or deleted, or the
    whole argument replaced by a 5000-character run of one character."""
    char = NUMBER_CHARS[int(rng.integers(len(NUMBER_CHARS)))]
    at = int(rng.integers(len(text) + 1))
    return [text[:at] + char + text[at:], text[:at] + char + text[at + 1:],
            text[:at] + text[at + 1:], char * 5000][int(rng.integers(4))]


def test_mutated_numeric_arguments_exit_0_1_or_2_with_a_short_error(tmp_path, capsys):
    paths = {"scheme": str(tmp_path / "c2.json"), "out": str(tmp_path / "out.json")}
    files.save_ensemble(paths["scheme"], construct.clifford_prime(2), {"source": "clifford"})
    rng = philox(902)
    problems, exits = [], {0: 0, 1: 0, 2: 0}
    for n in range(ARGV_MUTATIONS):
        command = NUMBER_COMMANDS[n % len(NUMBER_COMMANDS)]
        argv = [arg.format(**paths) for arg in command.split()]
        numeric = [i for i in range(1, len(argv)) if argv[i - 1] in NUMBER_OPTIONS]
        for _ in range(1 + int(rng.integers(2))):  # one or two edits
            i = numeric[int(rng.integers(len(numeric)))]
            argv[i] = _mutate_number(argv[i], rng)
        code = cli.main(argv)  # an exception that escapes fails the test with its traceback
        err = capsys.readouterr().err
        if code not in exits or len(err.encode()) > 512:
            problems.append((n, [a[:20] for a in argv], code, err[:200]))
        else:
            exits[code] += 1
    assert problems == []
    assert all(exits.values()), exits  # the mutations reach every outcome

"""The benchmark's workloads: qnm CLI command lists made from a seed, and the checks on their output.

Why these three (one exercises each end of the certifier's cost model):

- clifford5: the full p = 5 Clifford group, an exact 2-design at the largest
  enumerable prime. Time goes to the breadth-first enumeration, JSON writes
  and the attacks' Kraus products (75 000 per replace:tau); Omega is only
  625 x 625.
- haar7: 2000 Haar unitaries at d = 7. Dense 2401 x 2401 Hermitian
  eigenproblems dominate certify; N < d^4, so Omega is rank deficient.
- sampled3: 21826 = recommended_n(3, 0.25, 0.01) i.i.d. Clifford draws at
  d = 3. N-bound work dominates (O(N^2 d^2) frame potential, per-key loops,
  a 13 MB JSON file); keys repeat, which haar7's never do.

The expected attack coordinates hold for every scheme: for an adversary with
Kraus operators K_m, alpha = sum_m |tr K_m|^2 / d^2 and
beta = (sum_m tr K_m^dagger K_m / d - alpha) / (d^2 - 1), because the
effective channel conjugates each K_m by key unitaries, which preserves both
traces. Only the residual depends on whether the scheme is a 2-design.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("clifford5", "haar7", "sampled3")

ALPHA_BETA_TOL = 1e-12
EXACT_RESIDUAL_TOL = 1e-10
FRAME_POTENTIAL_TOL = 1e-9
SAMPLED3_N = 21826  # construct.recommended_n(3, 0.25, 0.01)
SAMPLED3_TOL = 0.25

# Calls per pass of each phase's commands. On a machine whose speed swings
# by a fifth from one second to the next, a few calls of a ~1 s command are
# too noisy a sample, so the short commands repeat: haar7 and sampled3 fit
# one pass in a run, clifford5 two or three (its seven attacks are summed).
REPEATS = {
    "clifford5": {"gen": 2, "certify": 2, "attack": 1},
    "haar7": {"gen": 5, "certify": 1, "attack": 5},
    "sampled3": {"gen": 5, "certify": 1, "attack": 5},
}

SCHEME = "scheme.json"
CERT_REPORT = "certify.json"


@dataclass
class Command:
    """One CLI call: ``qnm <argv>``, its JSON report (if any) and the check on its result."""

    phase: str  # "gen", "certify" or "attack"
    argv: list
    report: str | None
    check: Callable  # (exit_code, parsed report or None) -> list of problems
    repeat: int = 1  # calls per pass, in separate rounds; the pass takes their median


def _expect(cond: bool, what: str) -> list:
    return [] if cond else [what]


def _check_gen(code, report):
    return _expect(code == 0, f"gen exited {code}, expected 0")


def _certify_checks(workload: str):
    def check(code, r):
        if workload == "clifford5":
            return (_expect(code == 0, f"exit {code}, expected 0")
                    + _expect((r["d"], r["n"]) == (5, 3000), f"(d, n) = ({r['d']}, {r['n']})")
                    + _expect(r["omega_rank"] == 577, f"omega_rank {r['omega_rank']} != 577")
                    + _expect(abs(r["frame_potential"] - 2) <= FRAME_POTENTIAL_TOL,
                              f"frame_potential {r['frame_potential']!r} != 2"))
        if workload == "haar7":
            return (_expect(code == 1, f"exit {code}, expected 1")
                    + _expect((r["d"], r["n"]) == (7, 2000), f"(d, n) = ({r['d']}, {r['n']})")
                    + _expect(r["omega_rank"] == 2000, f"omega_rank {r['omega_rank']} != 2000"))
        theta = r["multiplicative_theta"]
        if theta is None:
            return ["multiplicative_theta is null"]
        want = 0 if theta <= SAMPLED3_TOL else 1
        return (_expect(code == want, f"exit {code} but theta {theta!r} means {want}")
                + _expect((r["d"], r["n"]) == (3, SAMPLED3_N), f"(d, n) = ({r['d']}, {r['n']})"))

    return check


def alpha_beta_of_kraus(ops, d: int):
    """Isotropic coordinates (alpha, beta) every scheme gives for this adversary."""
    alpha = sum(abs(np.trace(k)) ** 2 for k in ops) / d**2
    weight = sum(np.vdot(k, k).real for k in ops) / d
    return alpha, (weight - alpha) / (d * d - 1)


def alpha_beta_of_selector(selector: str, d: int):
    """(alpha, beta) for the built-in adversaries identity, weyl:a,b and replace:*."""
    if selector == "identity":
        return 1.0, 0.0
    if selector.startswith("weyl:"):
        a, b = (int(x) % d for x in selector[5:].split(","))
        alpha = 1.0 if a == b == 0 else 0.0  # tr X^a Z^b vanishes unless a = b = 0 mod d
        return alpha, (1 - alpha) / (d * d - 1)
    if selector.startswith("replace:"):
        return 1 / d**2, 1 / d**2
    raise ValueError(f"no closed form for adversary {selector!r}")


def _attack_check(alpha, beta, max_residual):
    def check(code, r):
        res = r["malleability_residual"]
        return (_expect(code == 0, f"exit {code}, expected 0")
                + _expect(abs(r["alpha"] - alpha) <= ALPHA_BETA_TOL,
                          f"alpha {r['alpha']!r}, expected {alpha!r}")
                + _expect(abs(r["beta"] - beta) <= ALPHA_BETA_TOL,
                          f"beta {r['beta']!r}, expected {beta!r}")
                + _expect(math.isfinite(res) and 0 <= res <= max_residual,
                          f"residual {res!r} outside [0, {max_residual}]"))

    return check


def build(workload: str, seed: int, work) -> list:
    """Commands for one pass of ``workload``; writes any adversary files into ``work`` first.

    Requires ``qnm`` to be importable (it supplies the random CPTNI channels).
    """
    from qnm.channels import random_cptni_channel
    from qnm.files import FORMAT_VERSION, matrix_to_pairs

    gen_cmd = {
        "clifford5": ["gen", "clifford", "--p", "5"],
        "haar7": ["gen", "sampled", "--from", "haar", "--d", "7", "--n", "2000", "--seed", str(seed)],
        "sampled3": ["gen", "sampled", "--from", "clifford", "--d", "3",
                     "--n", str(SAMPLED3_N), "--seed", str(seed)],
    }[workload]
    cert_cmd = {
        "clifford5": ["--mode", "both"],
        "haar7": ["--mode", "both"],
        "sampled3": ["--mode", "multiplicative", "--tol", str(SAMPLED3_TOL)],
    }[workload]
    commands = [
        Command("gen", gen_cmd + ["-o", SCHEME], None, _check_gen, REPEATS[workload]["gen"]),
        Command("certify", ["certify", SCHEME, *cert_cmd, "--out", CERT_REPORT], CERT_REPORT,
                _certify_checks(workload), REPEATS[workload]["certify"]),
    ]

    d = {"clifford5": 5, "haar7": 7, "sampled3": 3}[workload]
    adversaries = []  # (selector, (alpha, beta))
    if workload == "clifford5":
        rng = np.random.Generator(np.random.Philox(seed))
        pairs = [(a, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)]
        picked = [pairs[i] for i in rng.choice(len(pairs), size=2, replace=False)]
        adversaries += [(s, alpha_beta_of_selector(s, d)) for s in
                        ["identity", *(f"weyl:{a},{b}" for a, b in picked), "replace:tau", "replace:0"]]
        for num_kraus in (25, 5):
            ops = random_cptni_channel(d, rng, num_kraus).kraus_ops
            name = f"kraus{num_kraus}.json"
            with open(work / name, "w") as fh:
                json.dump({"format": FORMAT_VERSION, "d": d,
                           "kraus": [matrix_to_pairs(k) for k in ops]}, fh)
            adversaries.append((name, alpha_beta_of_kraus(ops, d)))
        max_residual = EXACT_RESIDUAL_TOL
    elif workload == "haar7":
        adversaries.append(("replace:tau", alpha_beta_of_selector("replace:tau", d)))
        max_residual = EXACT_RESIDUAL_TOL  # replacing by tau commutes with every key
    else:
        adversaries.append(("weyl:1,0", alpha_beta_of_selector("weyl:1,0", d)))
        max_residual = math.inf  # an approximate design leaves a residual
    for i, (selector, (alpha, beta)) in enumerate(adversaries):
        out = f"attack{i}.json"
        commands.append(Command("attack", ["attack", "--scheme", SCHEME, "--adv", selector, "--out", out],
                                out, _attack_check(alpha, beta, max_residual),
                                REPEATS[workload]["attack"]))
    return commands

"""Command-line front end: generate ensembles, certify designs, run attacks, report bounds.

Exit codes: 0 success / certification pass, 1 certification fail, 2 usage or validation error
(an input too large for memory included), 3 I/O failure. Reports go to stdout (or --out);
diagnostics go to stderr. QNM_TOL overrides design.DEFAULT_CERT_TOL, the default tolerance.
"""

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import construct, files
from .channels import constant_channel, depolarizing_channel, identity_channel, unitary_channel
from .design import DEFAULT_CERT_TOL, certify_design, entropy_bound, rank_bound
from .linalg import check_tol
from .nmes import EncryptionScheme, attack_report
from .weyl import pauli_ensemble, weyl

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _default_tol() -> float:
    raw = os.environ.get("QNM_TOL")
    if raw is None:
        return DEFAULT_CERT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ValueError(f"QNM_TOL is not a number: {raw!r}")
    return check_tol(tol, "QNM_TOL")


def _write_json(obj: dict, out_path: str | None) -> int:
    """Write a report to ``out_path`` (stdout if None); EXIT_IO if that fails, else EXIT_OK."""
    text = json.dumps(obj, indent=1) + "\n"
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_gen(args) -> int:
    reads = {"pauli": ("p", "n"), "clifford": ("p",), "sampled": ("d", "n", "seed", "source")}
    for dest in ("p", "n", "d", "seed", "source"):
        if getattr(args, dest) is not None and dest not in reads[args.kind]:
            raise ValueError(f"gen {args.kind} does not read --{'from' if dest == 'source' else dest}")
    if args.kind in ("pauli", "clifford") and args.p is None:
        raise ValueError(f"gen {args.kind} requires --p")
    if args.kind == "pauli":
        n = 1 if args.n is None else args.n
        ensemble = pauli_ensemble(args.p, n)
        meta = {"source": "pauli", "p": args.p, "n": n}
    elif args.kind == "clifford":
        ensemble = construct.clifford_prime(args.p)
        meta = {"source": "clifford", "p": args.p}
    else:
        if args.d is None or args.n is None:
            raise ValueError("gen sampled requires --d and --n")
        seed = 0 if args.seed is None else args.seed
        source = args.source or "clifford"
        ensemble = construct.sample_design(construct.SamplerConfig(args.d, args.n, seed, source))
        meta = {"source": source, "seed": seed, "n": args.n}
    try:
        files.save_ensemble(args.out, ensemble, meta)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {ensemble.size} unitaries (d={ensemble.d}) to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_certify(args) -> int:
    tol = check_tol(args.tol, "--tol") if args.tol is not None else _default_tol()
    ensemble = files.load_ensemble(args.input)
    try:
        report = certify_design(ensemble, tol=tol)
    except MemoryError:
        n = ensemble.d**4
        raise MemoryError(f"certifying d = {ensemble.d} needs d^4 x d^4 = {n} x {n} operators")
    digest = files.file_digest(args.input)
    if _write_json(files.certification_report_to_dict(report, digest), args.out) == EXIT_IO:
        return EXIT_IO
    if args.mode in ("trace", "both") and not report.passes_two_design:
        return EXIT_CERT_FAIL
    if args.mode in ("multiplicative", "both") and not report.passes_multiplicative:
        return EXIT_CERT_FAIL
    return EXIT_OK


def _parse_adversary(selector: str, d: int):
    if selector == "identity":
        return identity_channel(d)
    if selector.startswith("replace:"):
        arg = selector.split(":", 1)[1]
        if arg == "tau":
            return depolarizing_channel(d)
        if re.fullmatch(r"[+-]?[0-9]+", arg):
            j = int(arg)
            if not 0 <= j < d:
                raise ValueError(f"replacement basis state {j} out of range 0..{d - 1}")
            return constant_channel(np.diag(np.eye(d)[j]))
        return constant_channel(files.load_matrix(arg, "state"))
    if selector.startswith("weyl:"):
        try:
            a, b = (int(x) for x in selector.split(":", 1)[1].split(","))
        except ValueError:
            raise ValueError(f"weyl adversary needs 'weyl:<a>,<b>', got {selector!r}")
        return unitary_channel(weyl(d, a, b))
    if selector.startswith("unitary:"):
        return unitary_channel(files.load_matrix(selector.split(":", 1)[1], "matrix"))
    return files.load_kraus_channel(selector)


def cmd_attack(args) -> int:
    scheme = EncryptionScheme(files.load_ensemble(args.scheme))
    adversary = _parse_adversary(args.adv, scheme.d)
    report = attack_report(scheme, adversary)
    digest = files.file_digest(args.scheme)
    return _write_json(files.attack_report_to_dict(report, digest), args.out)


def cmd_bounds(args) -> int:
    d, theta, delta = args.d, args.theta, args.delta
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    entropy_ok = theta <= 1 / math.e
    report = files.report_dict(
        "bounds", d=d, theta=theta, delta=delta, rank_bound=rank_bound(d),
        key_bits_4log2d=4 * math.log2(d), key_bits_5log2d=5 * math.log2(d),
        recommended_n=construct.recommended_n(d, theta, delta) if 0 < theta <= 0.5 else None,
        entropy_bound_bits=entropy_bound(d, theta) if entropy_ok else None,
    )
    status = _write_json(report, args.out)
    if status == EXIT_OK and not entropy_ok:
        print(f"error: entropy bound needs theta <= 1/e, got {theta}", file=sys.stderr)
        return EXIT_USAGE
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnm",
        description="Build, certify and attack non-malleable quantum encryption schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an ensemble file")
    gen.add_argument("kind", choices=["pauli", "clifford", "sampled"])
    gen.add_argument("--p", type=int, help="prime (pauli, clifford)")
    gen.add_argument("--n", type=int, help="qudit count (pauli) or sample count (sampled)")
    gen.add_argument("--d", type=int, help="dimension (sampled)")
    gen.add_argument("--seed", type=int, help="sampler seed (sampled; default 0)")
    gen.add_argument("--from", dest="source", choices=["clifford", "haar"],
                     help="sampling source (sampled; default clifford)")
    gen.add_argument("-o", "--out", required=True, help="output ensemble file")

    cert = sub.add_parser("certify", help="certify an ensemble file as a 2-design")
    cert.add_argument("input", help="ensemble file")
    cert.add_argument("--tol", type=float, default=None,
                      help=f"pass/fail tolerance (default QNM_TOL or {DEFAULT_CERT_TOL})")
    cert.add_argument("--mode", choices=["trace", "multiplicative", "both"], default="trace")
    cert.add_argument("--out", default=None, help="write report here instead of stdout")

    atk = sub.add_parser("attack", help="simulate an adversary against a scheme")
    atk.add_argument("--scheme", required=True, help="ensemble file holding the keys")
    atk.add_argument("--adv", required=True,
                     help="identity | replace:<tau|j|file> | weyl:<a>,<b> | "
                          "unitary:<file> | <kraus file>")
    atk.add_argument("--out", default=None, help="write report here instead of stdout")

    bnd = sub.add_parser("bounds", help="report size and entropy bounds")
    bnd.add_argument("--d", type=int, required=True)
    bnd.add_argument("--theta", type=float, default=0.0)
    bnd.add_argument("--delta", type=float, default=0.01)
    bnd.add_argument("--out", default=None, help="write report here instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"gen": cmd_gen, "certify": cmd_certify, "attack": cmd_attack, "bounds": cmd_bounds}
    try:
        return handler[args.command](args)
    except (ValueError, FileNotFoundError) as exc:  # ValueError includes unreadable JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an input too large for memory is a usage error, not a verdict
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: generate ensembles, certify designs, run attacks, report bounds.

argparse declares every option, each gen kind only its own. Every file and report is one line of
JSON from files.write_json (an ensemble file from files.save_ensemble), to -o/--out (which gen
requires) or else stdout; diagnostics go to stderr. Exit codes, all returned by main (argparse's
too): 0 success, -h or certification pass, 1 only a failed certification grade, 2 usage or
validation error (a missing input file or an input too large for memory included), 3 any other
read or write failure. Each input file is read once; a report's input_digest is the sha256 of the
bytes that were parsed.
"""

import argparse
import math
import re
import sys

import numpy as np

from . import construct, files
from .channels import constant_channel, unitary_channel
from .design import DEFAULT_CERT_TOL, certify_design, entropy_bound, rank_bound
from .linalg import check_tol
from .nmes import EncryptionScheme, attack_report

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
_MAX_DIGITS = 4300  # most digits read: int()'s limit from Python 3.10.7 on; 3.10.0-3.10.6 have none
_INTEGER = r"[+-]?[0-9]+"  # ASCII: int() and float() also read "\u0663", "1_0", " 3"
_REAL = r"(?ai)[+-]?(?:([0-9]+(\.[0-9]*)?|\.[0-9]+)(e[+-]?[0-9]+)?|inf(inity)?|nan)"  # linear time


def cmd_gen(args) -> int:
    if args.kind == "pauli":
        ensemble = construct.pauli_ensemble(args.p, args.n)
        meta = {"source": "pauli", "p": args.p, "n": args.n}
    elif args.kind == "clifford":
        ensemble = construct.clifford_prime(args.p)
        meta = {"source": "clifford", "p": args.p}
    else:
        cfg = construct.SamplerConfig(args.d, args.n, args.seed, args.source)
        ensemble = construct.sample_design(cfg)
        meta = {"source": args.source, "seed": args.seed, "n": args.n}
    files.save_ensemble(args.out, ensemble, meta)
    print(f"wrote {ensemble.size} unitaries (d={ensemble.d}) to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_certify(args) -> int:
    tol = check_tol(args.tol, "--tol")
    ensemble, digest = files.load_ensemble(args.input)
    try:
        report = certify_design(ensemble, tol=tol)
    except MemoryError:
        n = ensemble.d**4
        raise MemoryError(f"certifying d = {ensemble.d} needs d^4 x d^4 = {n} x {n} operators")
    files.write_json(files.certification_report_to_dict(report, digest), args.out)
    if args.mode in ("trace", "both") and not report.passes_two_design:
        return EXIT_CERT_FAIL
    if args.mode in ("multiplicative", "both") and not report.passes_multiplicative:
        return EXIT_CERT_FAIL
    return EXIT_OK


def _number(text: str, kind: type = int, name: str = ""):  # every number the CLI reads
    if not re.fullmatch(_INTEGER if kind is int else _REAL, text):
        raise argparse.ArgumentTypeError(f"{name}not {'an integer' if kind is int else 'a number'}")
    if kind is int and len(text.lstrip("+-")) > _MAX_DIGITS:  # the reason, never the text
        raise argparse.ArgumentTypeError(f"{name}has {len(text.lstrip('+-'))} digits, too many")
    return kind(text)


def _parse_adversary(selector: str, d: int):
    if selector == "identity":
        return unitary_channel(np.eye(d))
    if selector.startswith("replace:"):
        arg = selector.split(":", 1)[1]
        if arg == "tau":
            return constant_channel(np.eye(d) / d)
        if re.fullmatch(_INTEGER, arg):
            j = _number(arg, int, "replace:<j>: j ")
            if not 0 <= j < d:
                raise ValueError(f"replace:<j>: j out of range 0..{d - 1}")  # no echo of j
            return constant_channel(np.diag(np.eye(d)[j]))
        path, key, make = arg, "state", constant_channel
    elif selector.startswith("weyl:"):
        a, _, b = selector[5:].partition(",")
        if not (re.fullmatch(_INTEGER, a) and re.fullmatch(_INTEGER, b)):
            raise ValueError("weyl adversary needs 'weyl:<a>,<b>'")
        a, b = _number(a, int, "weyl:<a>,<b>: a "), _number(b, int, "weyl:<a>,<b>: b ")
        return unitary_channel(construct.weyl(d, a, b))
    elif selector.startswith("unitary:"):
        path, key, make = selector.split(":", 1)[1], "matrix", unitary_channel
    else:
        path, key, make = selector, None, None
    m = files.load_kraus_channel(path) if make is None else files.load_matrix(path, key)
    try:
        adv = m if make is None else make(m)
    except ValueError as exc:  # the matrix's content: name its file, as every input error does
        raise ValueError(f"{path}: {exc}") from None
    if adv.d != d:
        raise ValueError(f"{path}: adversary acts on dimension {adv.d}, scheme has dimension {d}")
    return adv


def cmd_attack(args) -> int:
    ensemble, digest = files.load_ensemble(args.scheme)
    adversary = _parse_adversary(args.adv, ensemble.d)
    report = attack_report(EncryptionScheme(ensemble), adversary)
    files.write_json(files.attack_report_to_dict(report, digest), args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    d, theta, delta = args.d, args.theta, args.delta
    if rank_bound(d) >= 10**_MAX_DIGITS:  # the report prints it, and str() converts no more
        raise ValueError("--d must have fewer digits: rank_bound(d) has too many")
    if d < 2:
        raise ValueError("d must be at least 2")  # no echo of d, which may have 1075 digits
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
    files.write_json(report, args.out)
    if not entropy_ok:  # raised after the write, so the other fields are still reported
        raise ValueError(f"entropy bound needs theta <= 1/e, got {theta}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnm",
        description="Build, certify and attack non-malleable quantum encryption schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gen_out = argparse.ArgumentParser(add_help=False)
    gen_out.add_argument("-o", "--out", required=True, help="output ensemble file")
    report_out = argparse.ArgumentParser(add_help=False)
    report_out.add_argument("-o", "--out", help="write the report here instead of stdout")

    gen = sub.add_parser("gen", help="generate an ensemble file")
    kinds = gen.add_subparsers(dest="kind", required=True)
    pauli = kinds.add_parser("pauli", parents=[gen_out], help="Weyl operators on n qudits")
    pauli.add_argument("--p", type=_number, required=True, help="prime")
    pauli.add_argument("--n", type=_number, default=1, help="qudit count (default 1)")
    clifford = kinds.add_parser("clifford", parents=[gen_out], help="the full Clifford group")
    clifford.add_argument("--p", type=_number, required=True, help="prime")
    sampled = kinds.add_parser("sampled", parents=[gen_out], help="sampled keys")
    sampled.add_argument("--d", type=_number, required=True, help="dimension")
    sampled.add_argument("--n", type=_number, required=True, help="sample count")
    sampled.add_argument("--seed", type=_number, default=0, help="sampler seed (default 0)")
    sampled.add_argument("--from", dest="source", choices=["clifford", "haar"],
                         default="clifford", help="sampling source (default clifford)")

    cert = sub.add_parser("certify", parents=[report_out], help="certify an ensemble as a 2-design")
    cert.add_argument("input", help="ensemble file")
    cert.add_argument("--tol", type=lambda text: _number(text, float), default=DEFAULT_CERT_TOL,
                      help=f"pass/fail tolerance (default {DEFAULT_CERT_TOL})")
    cert.add_argument("--mode", choices=["trace", "multiplicative", "both"], default="trace")

    atk = sub.add_parser("attack", parents=[report_out], help="simulate an attack on a scheme")
    atk.add_argument("--scheme", required=True, help="ensemble file holding the keys")
    atk.add_argument("--adv", required=True,
                     help="identity | replace:<tau|j|file> | weyl:<a>,<b> | "
                          "unitary:<file> | <kraus file>")

    bnd = sub.add_parser("bounds", parents=[report_out], help="report size and entropy bounds")
    bnd.add_argument("--d", type=_number, required=True)
    bnd.add_argument("--theta", type=lambda text: _number(text, float), default=0.0)
    bnd.add_argument("--delta", type=lambda text: _number(text, float), default=0.01)

    for leaf in (pauli, clifford, sampled, cert, atk, bnd):
        leaf.set_defaults(parser=leaf)  # so main reports a stray argument with its own usage line
    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse has printed a usage error (2) or the help (0)
        return exc.code
    handler = {"gen": cmd_gen, "certify": cmd_certify, "attack": cmd_attack, "bounds": cmd_bounds}
    try:
        return handler[args.command](args)
    except (ValueError, argparse.ArgumentTypeError) as exc:  # selector numbers, bad JSON, no file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an input too large for memory is a usage error, not a verdict
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # any other read or write failure; its text names the path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

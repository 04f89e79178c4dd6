"""Traced pass: run a list of qnm CLI commands in this one process, with layer spans on.

Usage: python3 traced_run.py SPEC OUT  (run from the pass's work directory)

SPEC is a JSON list of argument lists for ``qnm.cli.main``. OUT receives
``{"commands": [[exit_code, wall_s], ...], "spans": [...], "crosschecks": [...]}``.
Spans stay in memory until every command has run.

After each certify command the Omega returned by ``design.ensemble_choi``
and the value of ``design.frame_potential`` are checked against the
identity FP - 2 = d^4 ||Omega - Omega_haar||_F^2, with Omega_haar built here
from its closed form.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402  (the benchmark's own module, beside this file)


def haar_second_moment(d: int) -> np.ndarray:
    """Phi (x) Phi / d^2 + (1 - Phi) (x) (1 - Phi) / (d^2 (d^2 - 1)), Phi maximally entangled."""
    dd = d * d
    phi = np.eye(d).reshape(dd) / np.sqrt(d)
    proj = np.outer(phi, phi)
    comp = np.eye(dd) - proj
    return np.kron(proj, proj) / dd + np.kron(comp, comp) / (dd * (dd - 1))


def frame_potential_crosscheck(omega: np.ndarray, fp: float) -> dict:
    """Relative disagreement |FP - 2 - d^4 ||Omega - Omega_haar||_F^2| / FP."""
    d = round(omega.shape[0] ** 0.25)
    diff = omega - haar_second_moment(d)
    d4_frob2 = d**4 * float(np.vdot(diff, diff).real)
    return {"d": d, "frame_potential": fp, "d4_frob2": d4_frob2,
            "rel_err": abs(fp - 2 - d4_frob2) / fp}


def main(spec_path: str, out_path: str) -> int:
    import qnm.cli

    argvs = json.loads(Path(spec_path).read_text())
    tracer = tracing.Tracer()
    commands, crosschecks = [], []
    with tracing.installed(tracer, keep=("design.ensemble_choi", "design.frame_potential")):
        for i, argv in enumerate(argvs):
            tracer.request = i
            t0 = time.perf_counter()
            code = qnm.cli.main(argv)
            commands.append([code, time.perf_counter() - t0])
            kept, tracer.kept = tracer.kept, {}
            if argv[0] == "certify" and len(kept) == 2:
                check = frame_potential_crosscheck(kept["design.ensemble_choi"],
                                                   kept["design.frame_potential"])
                crosschecks.append({"command": i, **check})
    Path(out_path).write_text(json.dumps(
        {"commands": commands, "spans": tracer.spans, "crosschecks": crosschecks}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

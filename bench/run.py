"""Benchmark of the qnm CLI pipeline (gen -> certify -> attack) on three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload clifford5 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                  # all workloads, seed 0, untraced

Each CLI call runs as ``python -m qnm.cli`` in a fresh child process, one at
a time (a closed loop with one client), with PYTHONPATH=src and BLAS threads
capped at the CPU count. The workload's command list runs in passes until
--seconds have gone by (at least one pass, and none that would likely end
after 1.5 x --seconds); a command's time in a pass is
the median of its repeats (workloads.py), and each end-to-end metric is the
median over the passes:

    setup_s      one fresh-process ``import qnm.cli``, probed at every round
    gen_s        the pass's ``qnm gen``
    certify_s    the pass's ``qnm certify``
    attack_s     the pass's ``qnm attack`` calls together
    pipeline_s   one gen -> certify -> attack sequence (the sum of the above)
    peak_rss_mb  the largest peak RSS of any command, read per child from os.wait4

Every command's exit code and JSON report are checked (see workloads.py); a
command that fails its check counts in ``failed`` (ops_failed) out of
``attempted``.

With --trace 1, one untraced pass is followed by one traced pass in a fresh
process (traced_run.py): the per-layer metrics come from its spans, and the
tracing overhead of each command is printed. End-to-end metrics always come
from untraced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Work files go under bench/.work and are
removed at the end.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
WORK_ROOT = BENCH / ".work"

CROSSCHECK_TOL = 1e-9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("gen_s", "s"), ("certify_s", "s"), ("attack_s", "s"),
              ("pipeline_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_child(argv, env=None, cwd=None, stderr=subprocess.DEVNULL):
    """Run ``argv`` to completion; return (exit code, wall s, peak RSS in MB of this child alone).

    The RSS comes from os.wait4 on this child's pid, so an earlier, larger
    child does not leak into it the way RUSAGE_CHILDREN would. Linux keeps
    the high-water mark across exec, so it is never below this process's
    own RSS at the fork.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def child_env(cpus: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, str(cpus))
    return env


def probe_environment(env: dict, cpus: int) -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "envprobe.py")], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    info = json.loads(out.stdout)
    info["nproc"] = cpus
    threads = info["blas_threads"]
    if threads is not None and threads > cpus:
        raise BenchError(f"BLAS would use {threads} threads on {cpus} CPUs; "
                         f"set {BLAS_THREAD_VARS[0]} to at most {cpus}")
    return info


def import_probe(env, work) -> float:
    """Wall time of one fresh process that only imports qnm.cli."""
    code, wall, _ = run_child([sys.executable, "-c", "import qnm.cli"], env, work)
    if code != 0:
        raise BenchError(f"'import qnm.cli' exited {code}")
    return wall


def _digest(path: Path):
    if not path.is_file():
        return None
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def check_pass(commands, codes, work) -> list:
    """Problems with a pass's outputs: (command index, call index, message) per failing call.

    ``codes[i]`` lists the exit codes of command i's repeats. The repeats
    rewrite the same report from the same input, so it is read once.
    """
    digest = _digest(work / workloads.SCHEME)
    problems = []
    for i, (cmd, cmd_codes) in enumerate(zip(commands, codes)):
        report, unreadable = None, []
        if cmd.report is not None:
            try:
                report = json.loads((work / cmd.report).read_text())
            except (OSError, ValueError) as exc:
                unreadable = [f"no readable report ({exc})"]
            else:
                if report.get("input_digest") != digest:
                    unreadable = ["report input_digest does not match the ensemble file"]
        for k, code in enumerate(cmd_codes):
            try:
                found = unreadable or cmd.check(code, report)
            except (KeyError, TypeError) as exc:
                found = [f"malformed report ({exc!r})"]
            if found:
                problems.append((i, k, "; ".join(found)))
    return problems


def _clear_outputs(commands, work):
    for name in [workloads.SCHEME] + [c.report for c in commands if c.report]:
        (work / name).unlink(missing_ok=True)


@dataclass
class Pass:
    """One untraced pass of a workload's command list."""

    runs: list  # per command, (exit code, wall s, peak RSS MB) of each repeat
    probes: list  # wall s of the import probes
    problems: list  # from check_pass


def run_pass(commands, env, work, repeat=True) -> Pass:
    """Run the command list in rounds; a command with ``repeat`` r runs in r of them.

    The rounds of a repeated command are centred on the middle round, where
    the commands that run once sit, so its calls land both before and after
    the long ones. That, and an import probe at the start of every round,
    spreads each metric's samples over the whole pass, so that none rests on
    a single moment's machine speed. Every round regenerates the same
    ensemble and reports from the same seed. With ``repeat`` false each
    command runs once.
    """
    _clear_outputs(commands, work)
    runs, probes = [[] for _ in commands], []
    rounds = max(c.repeat for c in commands) if repeat else 1
    for round_ in range(rounds):
        probes.append(import_probe(env, work))
        for i, cmd in enumerate(commands):
            first = (rounds - 1) // 2 - (cmd.repeat - 1) // 2
            if repeat and not first <= round_ < first + cmd.repeat:
                continue
            with open(work / f"cmd{i}.err", "wb") as err:
                runs[i].append(run_child([sys.executable, "-m", "qnm.cli", *cmd.argv], env, work, err))
    return Pass(runs, probes, check_pass(commands, [[r[0] for r in rs] for rs in runs], work))


def command_wall(runs) -> float:
    """A command's time in one pass: the median over its repeats."""
    return statistics.median(r[1] for r in runs)


def end_to_end_metrics(commands, passes) -> dict:
    """Medians over passes; pipeline_s is one gen -> certify -> attack sequence."""
    def phase_time(p, phases):
        return sum(command_wall(rs) for cmd, rs in zip(commands, p.runs) if cmd.phase in phases)

    med = statistics.median
    return {
        "setup_s": med(t for p in passes for t in p.probes),
        "gen_s": med(phase_time(p, ("gen",)) for p in passes),
        "certify_s": med(phase_time(p, ("certify",)) for p in passes),
        "attack_s": med(phase_time(p, ("attack",)) for p in passes),
        "pipeline_s": med(phase_time(p, ("gen", "certify", "attack")) for p in passes),
        "peak_rss_mb": med(max(r[2] for rs in p.runs for r in rs) for p in passes),
    }


def traced_pass(commands, env, work):
    """The traced pass in one fresh process, each command once.

    Returns (per-command [exit code, wall s], spans, cross-checks, problems).
    """
    _clear_outputs(commands, work)
    spec, out = work / "traced_spec.json", work / "traced_out.json"
    spec.write_text(json.dumps([c.argv for c in commands]))
    with open(work / "traced.err", "wb") as err:
        code, _, _ = run_child([sys.executable, str(BENCH / "traced_run.py"), str(spec), str(out)],
                               env, work, err)
    if code != 0:
        tail = (work / "traced.err").read_text(errors="replace")[-2000:]
        raise BenchError(f"traced pass exited {code}:\n{tail}")
    data = json.loads(out.read_text())
    problems = check_pass(commands, [[c[0]] for c in data["commands"]], work)
    checked = {c["command"]: c for c in data["crosschecks"]}
    for i, cmd in enumerate(commands):
        if cmd.phase != "certify":
            continue
        if i not in checked:
            problems.append((i, 0, "no Omega / frame-potential cross-check was recorded"))
        elif not checked[i]["rel_err"] <= CROSSCHECK_TOL:
            problems.append((i, 0, f"FP - 2 != d^4 ||Omega - Omega_haar||_F^2: {checked[i]}"))
    return data["commands"], data["spans"], data["crosschecks"], problems


def run_workload(name, seed, seconds, trace, env, environment) -> dict:
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        commands = workloads.build(name, seed, work)
        import_probe(env, work)  # warms bytecode caches; not a sample
        start = time.perf_counter()
        # a traced run needs one untraced pass only, to set the overhead against
        passes = [run_pass(commands, env, work, repeat=not trace)]
        while not trace:
            elapsed = time.perf_counter() - start
            # stop at --seconds, and start no pass likely to end past 1.5 x --seconds
            if elapsed >= seconds or elapsed * (1 + 1 / len(passes)) > 1.5 * seconds:
                break
            passes.append(run_pass(commands, env, work))
        e2e = end_to_end_metrics(commands, passes)
        problems = [(n, *problem) for n, p in enumerate(passes) for problem in p.problems]
        attempted = sum(len(rs) for p in passes for rs in p.runs)
        record = {"workload": name, "seed": seed, "environment": environment,
                  "passes": len(passes),
                  "commands": [" ".join(c.argv) for c in commands],
                  "command_wall_s": [[[r[1] for r in rs] for rs in p.runs] for p in passes]}

        print(f"workload {name}, seed {seed}: {len(passes)} untraced passes of {len(commands)} commands")
        for metric, unit in END_TO_END:
            print(f"  {metric:<12} {e2e[metric]:.6g} {unit}")
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}

        if trace:
            traced_cmds, spans, crosschecks, traced_problems = traced_pass(commands, env, work)
            problems += [("traced", *problem) for problem in traced_problems]
            attempted += len(commands)
            layers = tracing.layer_metrics(spans)
            metrics = {m: {"value": layers[m], "unit": u} for m, u in tracing.per_layer_metric_names()}
            # untraced wall includes a fresh interpreter and import; the traced
            # pass imported once, so compare against untraced minus setup_s
            overhead = []
            for i, (cmd, (_, traced_s)) in enumerate(zip(commands, traced_cmds)):
                untraced_s = statistics.median(command_wall(p.runs[i]) for p in passes)
                overhead.append(traced_s - (untraced_s - e2e["setup_s"]))
                print(f"  trace overhead {overhead[-1]:+.4f} s  (traced {traced_s:.4f} s, "
                      f"untraced {untraced_s:.4f} s incl. setup)  qnm {' '.join(cmd.argv)}")
            for metric, unit in tracing.per_layer_metric_names():
                note = " (computed)" if metric in tracing.COMPUTED else ""
                print(f"  {metric:<36} {layers[metric]:.6g} {unit}{note}")
            record.update(trace_overhead_s=overhead, crosschecks=crosschecks,
                          span_count=len(spans))

        failed = len({(n, i, k) for n, i, k, _ in problems})
        print(f"  ops_failed   {failed} of {attempted} commands")
        record["problems"] = [[n, " ".join(commands[i].argv), msg] for n, i, _, msg in problems]
        for n, argv, msg in record["problems"]:
            print(f"  FAILED (pass {n}) qnm {argv}: {msg}")
        print("record: " + json.dumps(record))
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so run_child kills and reaps the running command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "qnm" / "cli.py").is_file():
        print(f"error: qnm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpus = len(os.sched_getaffinity(0))
    env = child_env(cpus)
    try:
        environment = probe_environment(env, cpus)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, env, environment)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""shelterplan benchmark: the CLI pipeline on seeded workloads.

    python3 bench/run.py --workload desk_cli --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The seed picks one instance; a run repeats the workload's command
sequence on it (one pass) until ``--seconds`` have been measured. With
``--trace 0`` every command is its own ``python -m shelterplan.cli``
process (closed loop: one command, then the next) and the end-to-end
metrics are printed. With ``--trace 1`` the same commands run in-process
under the span tracer of ``bench/tracing.py`` and the per-layer metrics
are printed. Either way every solution is re-checked by the ``verify``
command, its status and gap against the workload's target, and its sha256
against the other passes and earlier runs of the same code; any miss makes
the run exit with code 1. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".bench")
WORK = os.path.join(STATE, "work")
DETERMINISM = os.path.join(STATE, "determinism.json")

# A run must end within 180 s; no new pass starts that could cross this.
DEADLINE_S = 170.0
# Every command, in a child process or in-process, runs with one BLAS
# thread, as ``--threads 1`` asks of the solver. Otherwise numpy starts a
# helper thread per CPU, and on a 2-vCPU machine a command's wall time then
# follows the busier vCPU (README, "Noise").
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}
# Printed by name for every run, but not in the result line; README.md
# says why none of them can carry a bound.
REPORTED = {"plan_cost": "cost", "final_gap": "ratio", "fail_frac": "ratio"}

DESK_YOUTH = 30
TREE_NODES = 4

# Generation seeds of 30-youth desk instances (60 days, bed scale 0.1),
# screened once from seeds 3000-3129 so that the seed changes which
# instance runs but hardly how much work it is: kept are those whose public
# model's nonzeros and whose HiGHS iterations at gap 0.01 both lie within
# 5% of the medians of all 130, and whose solve calls the schedule
# heuristic once (5 more such instances call it twice, about 0.3 s more).
DESK_POOL = (3008, 3023, 3092, 3118, 3123, 3127)

# Of the 28 instances of that screen whose gap-0 search does not close at
# the root, those whose HiGHS iterations over the first TREE_NODES nodes lie
# within 5%, and whose nonzeros within 10%, of the 28's medians.
TREE_POOL = (3026, 3045, 3081, 3088, 3108, 3112, 3114, 3120)


@dataclass(frozen=True)
class Job:
    """One instance and the commands the workload runs on it."""

    label: str
    generate: tuple[str, ...]
    solve: tuple[str, ...]
    gap_target: float | None  # None: no gap target (node-limited search)
    expect_solve: frozenset  # allowed (exit code, status) pairs
    report: bool = False


def _desk_args(seed: int) -> tuple[str, ...]:
    return ("--youth", str(DESK_YOUTH), "--days", "60", "--bed-scale", "0.1", "--seed", str(seed))


def desk_cli(seed: int) -> Job:
    """The full pipeline on one desk instance, with MPS export."""
    gen_seed = random.Random(seed).choice(DESK_POOL)
    return Job("desk", _desk_args(gen_seed),
               ("--gap", "0.01", "--threads", "1", "--mps-out", "{work}/desk.mps"), 0.01,
               frozenset({(0, "Optimal"), (0, "GapReached")}), report=True)


def tree_gap0(seed: int) -> Job:
    """Gap-0 search to a node limit on one desk instance that branches."""
    gen_seed = random.Random(seed).choice(TREE_POOL)
    return Job("tree", _desk_args(gen_seed),
               ("--gap", "0", "--node-limit", str(TREE_NODES), "--threads", "1"), None,
               frozenset({(4, "NodeLimit"), (0, "Optimal")}))


WORKLOADS = {"desk_cli": desk_cli, "tree_gap0": tree_gap0}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    argv: list[str]
    rc: int
    wall_s: float
    rss_mb: float | None
    cpu_s: float | None = None
    step: str = ""


class SubprocessRunner:
    """Each command is a fresh ``python -m shelterplan.cli`` process."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(WORK, "commands.log"), "ab")

    def close(self) -> None:
        self.log.close()

    def __call__(self, argv: list[str]) -> CommandResult:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "shelterplan.cli", *argv],
            cwd=WORK, env=self.env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        # A timer kills a command that would overrun the run's deadline;
        # the blocking wait4 then returns and reports the child's peak RSS.
        killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        return CommandResult(argv, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                             usage.ru_utime + usage.ru_stime)


class InProcessRunner:
    """Each command is ``shelterplan.cli.main(argv)`` inside a ``cli`` span."""

    def __init__(self, cli_module, tracer):
        self.cli = cli_module
        self.tracer = tracer
        self.log = open(os.path.join(WORK, "commands.log"), "a", encoding="utf-8")

    def close(self) -> None:
        self.log.close()

    def __call__(self, argv: list[str]) -> CommandResult:
        name = "cli." + argv[0].lstrip("-")
        t0 = time.perf_counter()
        idx = self.tracer.open(name)
        rc = 0
        try:
            with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
                self.cli.main(list(argv), standalone_mode=False)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        finally:
            self.tracer.close(idx)
        return CommandResult(list(argv), rc, time.perf_counter() - t0, None)


# ---------------------------------------------------------------------------
# One pass: the job's command sequence, then the correctness gate
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_pass(job: Job, run, launch: bool) -> dict:
    """Run the job's commands once; return their results and the checked outcome.

    With ``launch``, the pass starts with a no-op launch (``--version``),
    timed for ``setup_s``; it pays every import the commands pay.
    """
    base = os.path.join(WORK, job.label)
    inst, sol, ver = base + ".instance.json", base + ".solution.json", base + ".verify.json"
    for path in (inst, sol, ver):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    solve_args = [a.replace("{work}", WORK) for a in job.solve]
    steps = [("setup", ["--version"])] if launch else []
    steps += [
        ("generate", ["generate", *job.generate, "--out", inst]),
        ("solve", ["solve", "--instance", inst, "--out", sol, *solve_args]),
        ("verify", ["verify", "--instance", inst, "--solution", sol, "--out", ver]),
    ]
    if job.report:
        steps.append(("report", ["report", "--instance", inst, "--solution", sol,
                                 "--out-dir", base + ".report"]))
    results, misses = [], []
    doc = None
    for step, argv in steps:
        res = run(argv)
        res.step = step
        results.append(res)
        if step in ("setup", "generate") and res.rc != 0:
            misses.append((step, f"exit {res.rc}"))
            break
        if step == "solve":
            doc = _load_json(sol)
            status = doc.get("status") if doc else None
            if doc is None or (res.rc, status) not in job.expect_solve:
                misses.append((step, f"exit {res.rc}, status {status}"))
                break
            if job.gap_target is not None and not doc["gap"] <= job.gap_target + 1e-12:
                misses.append((step, f"gap {doc['gap']} > {job.gap_target}"))
        if step == "verify":
            rep = _load_json(ver)
            if res.rc != 0 or not rep or not rep.get("ok"):
                misses.append((step, f"exit {res.rc}, solution rejected"))
            elif abs(rep["objective_recomputed"] - doc["objective"]) > 1e-6 * max(
                1.0, abs(doc["objective"])
            ):
                misses.append((step, f"objective {doc['objective']} != "
                                     f"recomputed {rep['objective_recomputed']}"))
        if step == "report" and res.rc != 0:
            misses.append((step, f"exit {res.rc}"))
    outcome = {"label": job.label, "misses": misses}
    if doc is not None:
        outcome.update(
            objective=doc["objective"], gap=doc["gap"], status=doc["status"],
            nodes=doc.get("node_count"), solution_sha256=_sha256(sol),
            key=f"{' '.join(job.generate)} | {' '.join(job.solve)}",
        )
    return {"results": results, "outcome": outcome}


def run_passes(job: Job, run, seconds: float, deadline: float, launch: bool) -> list[dict]:
    """Closed loop: whole passes while another one fits in ``seconds``."""
    passes = []
    t0 = time.monotonic()
    while True:
        t_pass = time.monotonic()
        passes.append(run_pass(job, run, launch))
        now = time.monotonic()
        last = now - t_pass
        if now + last > min(t0 + seconds, deadline):
            return passes


# ---------------------------------------------------------------------------
# Determinism record and environment
# ---------------------------------------------------------------------------


def code_digest() -> str:
    """sha256 over the program's source files, so records compare like code."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "shelterplan")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_determinism(passes: list[dict]) -> None:
    """Compare solution digests across passes and with earlier runs."""
    record = _load_json(DETERMINISM) or {}
    seen = record.setdefault(code_digest(), {})
    for p in passes:
        out = p["outcome"]
        if "key" not in out:
            continue
        old = seen.setdefault(out["key"], out["solution_sha256"])
        if old != out["solution_sha256"]:
            out["misses"].append(("solve", "solution sha256 differs from an earlier run"))
    with open(DETERMINISM, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def cpu_probe_ms(samples: int = 15) -> float:
    """Median time of a fixed pure-Python loop: a slow machine shows here."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def environment() -> dict:
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "loadavg_before": os.getloadavg(),
        "cpu_probe_ms_before": cpu_probe_ms(),
    }


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------


def step_times(passes: list[dict]) -> dict[str, list[float]]:
    """Each command of the pass, with its wall times over the passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p["results"]:
            times.setdefault(r.step, []).append(r.wall_s)
    return times


def untraced(job: Job, seconds: float, deadline: float) -> tuple[dict, list[dict], list]:
    runner = SubprocessRunner(deadline)
    try:
        # Untimed: warms the file cache for the first pass.
        warm = runner(["--version"])
        passes = run_passes(job, runner, seconds, deadline, launch=True)
    finally:
        runner.close()
    setup_misses = [("--version", f"exit {warm.rc}")] if warm.rc != 0 else []
    times = step_times(passes)
    setup = times.pop("setup")
    # Every pass repeats the same deterministic commands, so each command's
    # median over the passes is its time; the machine's own speed varies
    # from one command to the next by more than the bounds (README, "Noise").
    med = {step: statistics.median(ts) for step, ts in times.items()}
    out = passes[0]["outcome"]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(med.values()),
        "solve_s": med.get("solve", float("nan")),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p["results"]),
        "plan_cost": out.get("objective", float("nan")),
        "final_gap": out.get("gap", float("nan")),
    }
    return metrics, passes, setup_misses


def traced(job: Job, seconds: float, deadline: float):
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import shelterplan.cli  # noqa: F401  (timed: the import every command pays)

    import_s = time.perf_counter() - t0
    import shelterplan

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    problems = []
    if not os.path.abspath(shelterplan.__file__).startswith(SRC + os.sep):
        problems.append(f"imported shelterplan from {shelterplan.__file__}, not {SRC}")
    tracer = tracing.Tracer()
    tracing.install(tracer, shelterplan)
    runner = InProcessRunner(shelterplan.cli, tracer)
    try:
        t_run = time.perf_counter()
        passes = run_passes(job, runner, seconds, deadline, launch=False)
        wall = time.perf_counter() - t_run
    finally:
        runner.close()
        tracer.restore()
    problems += [f"not restored: {name}" for name in tracer.unrestored()]
    problems += tracing.self_check(tracer)
    # Every LP solve inside a branch and bound is one node of its Solution.
    for span_idx, span in enumerate(tracer.spans):
        if span.name != "solver.bnb":
            continue
        lps = sum(1 for s in tracer.spans if s.name == "solver.lp" and s.parent == span_idx)
        if lps != span.attrs["nodes"]:
            problems.append(f"branch and bound ran {lps} LPs but reports {span.attrs['nodes']} nodes")
    metrics = tracing.layer_metrics(tracer, len(passes), wall, import_s)
    return metrics, passes, problems, tracing.PER_LAYER


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    os.environ.update(SINGLE_THREAD_ENV)
    if not os.path.isfile(os.path.join(SRC, "shelterplan", "cli.py")):
        print(f"error: no shelterplan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    env = environment()
    job = WORKLOADS[args.workload](args.seed)
    problems, setup_misses = [], []
    if args.trace:
        metrics, passes, problems, units = traced(job, args.seconds, deadline)
        reported = units
    else:
        metrics, passes, setup_misses = untraced(job, args.seconds, deadline)
        units, reported = {**END_TO_END, **REPORTED}, END_TO_END
    check_determinism(passes)
    env["loadavg_after"] = os.getloadavg()
    env["cpu_probe_ms_after"] = cpu_probe_ms()

    attempted = sum(len(p["results"]) for p in passes)
    # A command counts once in ``failed``, however many checks it missed.
    failed = len({(i, step) for i, p in enumerate(passes)
                  for step, _ in p["outcome"]["misses"]})
    problems += [f"pass {i} {step}: {msg}" for i, p in enumerate(passes)
                 for step, msg in p["outcome"]["misses"]]
    problems += [f"setup {step}: {msg}" for step, msg in setup_misses]
    correct = not problems

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es), {attempted} commands")
    print("# env " + json.dumps(env, sort_keys=True))
    out = passes[0]["outcome"]
    if "objective" in out:
        print(f"# {job.label} {' '.join(job.generate)}: status {out['status']} "
              f"objective {out['objective']} gap {out['gap']:.3g} nodes {out['nodes']} "
              f"sha256 {out['solution_sha256'][:16]}")
    for step, ts in step_times(passes).items():
        print(f"# {step}: best {min(ts):.4f} s, median {statistics.median(ts):.4f} s "
              f"over {len(ts)} pass(es)")
    for problem in problems:
        print(f"# FAIL {problem}")
    if not args.trace:
        metrics["fail_frac"] = failed / attempted
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "outcome": out,
                   "commands": [[r.step, r.rc, r.wall_s, r.cpu_s, r.rss_mb]
                                for p in passes for r in p["results"]],
                   "problems": problems}, fh, indent=1, sort_keys=True)
    shutil.rmtree(WORK, ignore_errors=True)
    shown = {k: {"value": metrics[k], "unit": units[k]} for k in reported}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

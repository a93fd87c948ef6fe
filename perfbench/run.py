"""Benchmark for puselect: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload synth-trials --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is loaded from its
``src/`` directory.  The workloads, their metrics and the bounds live in
``BENCHMARK.json``; ``perfbench/README.md`` explains them.

With ``--trace 0`` every round runs the ``puselect`` CLI as a separate
process, as a user would, and the end-to-end metrics are printed.  With
``--trace 1`` the same rounds run inside this process through
``puselect.cli.main``, first with the tracing wrappers of ``tracing.py`` and
then without, and the per-layer metrics are printed, the difference of the
two being the tracing overhead.  Either way the outputs are checked against
ground truth, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS is pinned to one thread and work comes from this one process (plus the
CLI processes it starts, one at a time).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5

sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str]) -> tuple[int, float, int, str]:
    """Run one process to its end: (exit code, wall seconds, peak RSS in KiB, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, err


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "puselect.cli", *args]


def write_inputs(wl, r: int) -> None:
    for args in wl.input_argvs(r):
        code, _, _, err = run_process(cli_argv(args))
        if code != 0:
            raise SystemExit(f"writing inputs failed: {' '.join(args)}\n{err}")


def prepare(wl) -> None:
    """Fresh work directory with the inputs of round 0."""
    if wl.work_dir.exists():
        shutil.rmtree(wl.work_dir)
    wl.work_dir.mkdir(parents=True)
    write_inputs(wl, 0)


def measure_setup(wl) -> float:
    """Median wall time of fresh processes that do the CLI's set-up work."""
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, err = run_process([sys.executable, "-c", wl.setup_code()])
        if code != 0:
            raise SystemExit(f"set-up probe failed:\n{err}")
        times.append(wall)
    return median(times)


def run_rounds(wl, seconds: float, do_round) -> list[float]:
    """Whole rounds until the next one would end after ``seconds``; at least one.

    ``do_round(r)`` returns the wall time it measured; writing the round's
    inputs comes before it and is not timed.
    """
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        if walls:
            write_inputs(wl, len(walls))
        walls.append(do_round(len(walls)))
        if time.perf_counter() - start + median(walls) > seconds:
            return walls


class Tally:
    def __init__(self, ops_per_call: int):
        self.ops_per_call = ops_per_call
        self.attempted = 0
        self.failed = 0
        self.good_rounds: list[int] = []
        self.errors: list[str] = []
        self.walls: list[float] = []  # measured seconds per round

    def record(self, r: int, results: list[tuple[list[str], bool, str]]) -> None:
        for args, ok, err in results:
            self.attempted += self.ops_per_call
            if not ok:
                self.failed += self.ops_per_call
                self.errors.append(f"round {r}: {' '.join(args)}: {err.strip()[-500:]}")
        if all(ok for _, ok, _ in results):
            self.good_rounds.append(r)


def untraced(wl, seconds: float) -> tuple[Tally, dict]:
    setup_s = measure_setup(wl)
    tally = Tally(wl.ops_per_call)
    peak_kib = 0

    def do_round(r):
        nonlocal peak_kib
        results, wall = [], 0.0
        for args in wl.round_argvs(r, jobs=nproc()):
            code, seconds_taken, peak, err = run_process(cli_argv(args))
            wall += seconds_taken
            peak_kib = max(peak_kib, peak)
            results.append((args, code == 0, err))
        tally.record(r, results)
        return wall

    walls = tally.walls = run_rounds(wl, seconds, do_round)
    completed = tally.attempted - tally.failed
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_min": (60.0 * completed / sum(walls), "1/min"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return tally, metrics


def in_process(args: list[str]) -> tuple[bool, str]:
    """``puselect.cli.main(args)`` in this process: (succeeded, its stderr)."""
    from puselect import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except Exception:  # a crash fails this operation, as it would the CLI process
            traceback.print_exc()
            code = 1
    return code == 0, err.getvalue()


def traced(wl, seconds: float) -> tuple[Tally, dict]:
    from tracing import Tracer

    # Tracing needs all the work in this process, so rounds run with one job.
    tally = Tally(wl.ops_per_call)
    tracer = Tracer()

    def do_traced(r):
        tracer.install()
        t0 = time.perf_counter()
        try:
            results = [(args, *in_process(args)) for args in wl.round_argvs(r, jobs=1)]
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        tally.record(r, results)
        return wall

    traced_walls = tally.walls = run_rounds(wl, seconds / 2.0, do_traced)
    rounds = len(traced_walls)
    plain_walls = []
    for r in range(rounds):
        t0 = time.perf_counter()
        for args in wl.round_argvs(r, jobs=1):
            in_process(args)
        plain_walls.append(time.perf_counter() - t0)
    tracer.write(wl.work_dir / "trace.jsonl")
    overhead = (sum(traced_walls) - sum(plain_walls)) / rounds
    return tally, tracer.metrics(rounds, overhead)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    from workloads import WORKLOADS, CheckFailed

    work_dir = WORK_ROOT / f"{workload}-seed{seed}{'-small' if small else ''}"
    wl = WORKLOADS[workload](work_dir, seed, small=small)
    prepare(wl)
    tally, metrics = (traced if trace else untraced)(wl, seconds)
    # Failed operations are counted in ``failed``; ``correct`` speaks of the
    # outputs of the rounds that did not fail.
    correct, quality, info = False, {}, {}
    if tally.good_rounds:
        try:
            quality, info = wl.check(tally.good_rounds)
            correct = True
        except CheckFailed as exc:
            tally.errors.append(f"check failed: {exc}")
    if not trace:
        metrics["f1_rel_spm"] = (quality.get("f1_rel_spm", 0.0), "1")
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {"round_s": [round(w, 2) for w in tally.walls], **info},
        "errors": tally.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "puselect" / "__init__.py").is_file():
        print(f"error: {SRC}/puselect not found; run from a puselect source checkout",
              file=sys.stderr)
        return 2
    import puselect

    if Path(puselect.__file__).resolve().parent != SRC / "puselect":
        print(f"error: puselect was imported from {puselect.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("errors"):
        print(line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {json.dumps(result.pop('info'))}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

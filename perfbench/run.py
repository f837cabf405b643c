"""ovalkit benchmark: one workload run, checked, with every metric printed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; ovalkit is imported from its src/
directory, so nothing needs installing. Workloads: vertical-cert,
singular-branch, pencil-verify, cli-verbs (see workloads.py and README.md).

Each run spawns the workload process (worker.py) for the timed passes and,
before and after it, several more times to time set-up. Times are reported
at the reference speed of meter.py, which takes the measuring machine's
speed phases out of them; raw wall times are printed beside them. The last
stdout line is one JSON object with keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.
The exit code is 1 if any job raised, was refused where no refusal is
expected, or failed its output check, and 2 if the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

import meter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SPAWNS = 15  # set-up-only spawns, around the timed worker
READY_TIMEOUT_S = 120
# Only a guard against a hung job: a slower but correct program should still
# report its figures, so the timed worker gets no tighter whole-run limit.
HANG_GUARD_S = 900
MAX_PROBLEMS_SHOWN = 10
# One client and no threads: numpy's BLAS would otherwise spin a second
# thread on the 2-core machine, which adds noise to every job after it.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def stop(proc: subprocess.Popen):
    """Stop a workload process (SIGTERM lets it kill a running CLI child)."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def spawn(args: list[str]) -> tuple[float, subprocess.Popen]:
    """Start a workload process; returns the seconds until it printed 'ready'."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True, cwd=ROOT, env=ENV)
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"workload process did not get ready (exit {proc.returncode})")
    return ready, proc


def finish(proc: subprocess.Popen) -> str:
    """Wait for a workload process; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=HANG_GUARD_S)
    finally:
        stop(proc)
    return out


def measure(args) -> tuple[list[tuple[float, float]], dict]:
    """Returns the set-up times, each as (at reference speed, wall), and
    the timed worker's result."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups = []

    def setup_only():
        # The speed is sampled while no workload process runs.
        before = meter.slices()
        ready, proc = spawn(base + ["--setup-only"])
        finish(proc)
        setups.append((ready * meter.factor(before + meter.slices()), ready))

    # Half the set-up spawns run before the timed worker and half after it,
    # so a slow phase of the machine at one end of the run weighs less.
    for _ in range(SETUP_SPAWNS // 2 + 1):
        setup_only()
    _, proc = spawn(base + ["--trace", str(args.trace)])
    lines = finish(proc).strip().splitlines()
    for _ in range(SETUP_SPAWNS // 2):
        setup_only()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"workload process printed no result (exit {proc.returncode})")
    return setups, json.loads(lines[-1])


def fmt(value: float, unit: str) -> str:
    return f"{value:.6g} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: exit through Python so the worker is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "ovalkit", "__init__.py")):
        print(f"error: no ovalkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        setups, res = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lat = res["latency"]
    print(
        f"{res['workload']} seed {res['seed']}: {res['passes']} pass(es), {res['attempted']} jobs attempted, "
        f"{res['correct']} correct, {res['refused']} refused (DeskScopeError), {res['failed']} failed; "
        f"failed_frac {1 - res['correct'] / res['attempted']:.4f}"
    )
    tail = f", p{lat['tail_pct']} {lat['tail']:.6g} s" if "tail" in lat else ", no percentile has ten samples beyond it"
    if lat["n"]:
        print(f"job latency at reference speed: n={lat['n']}, p50 {lat['p50']:.6g} s{tail}")
        print(
            f"wall time: jobs_per_s {res['wall']['jobs_per_s']:.6g} 1/s, job p50 {res['wall']['p50']:.6g} s, "
            f"setup {statistics.median(w for _, w in setups):.6g} s"
            + (f"; reference slice {res['ref_slice_ms']:.4g} ms" if "ref_slice_ms" in res else "")
        )
    else:
        print("job latency: no correct job")
    for name, p50 in res["job_p50_by_name"].items():
        print(f"  {name}: p50 {p50:.6g} s")
    for problem in res["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {problem}")
    if len(res["problems"]) > MAX_PROBLEMS_SHOWN:
        print(f"... and {len(res['problems']) - MAX_PROBLEMS_SHOWN} more problems")

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(res["layers"].items())}
        print("no layer queues or waits: ovalkit is single-threaded, so no wait time is reported")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r for r, _ in setups), "unit": "s"},
            "jobs_per_s": {"value": res["jobs_per_s"], "unit": "1/s"},
            "job_p50_s": {"value": lat["p50"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name}: {fmt(m['value'], m['unit']) if m['value'] is not None else 'none'}")
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

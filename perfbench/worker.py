"""One workload run in a fresh Python process.

Set-up (import ovalkit, generate and parse the seeded inputs) ends with a
line "ready" on stdout, which run.py times from spawn. Then the job pool runs
in whole passes, one job at a time, for the requested seconds; outputs are
checked after the timed passes; the last stdout line is a JSON result for
run.py. Job times are taken at the reference speed of meter.py, with raw
wall times beside them.

With --trace 1 the first half of the time runs untraced and the second half
traced, so the result carries the tracing overhead and the per-layer
metrics; the spans are written to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import meter  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Only singular-branch expects refusals: at the seed commit
# rational_singular_points refuses its sextic loops with DeskScopeError. On
# every other workload a refusal fails the run like any other exception.
REFUSALS_EXPECTED = ("singular-branch",)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs one ovalkit process per job: `python -m ovalkit.cli`, or the
    traced child bootstrap, which reports its spans on stderr."""

    def __init__(self):
        self.env = child_env()
        self.traced = False
        self.dumps: list[tuple[int, dict]] = []
        self.job_id = None

    def __call__(self, args: list[str]) -> tuple[int, str]:
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), str(self.job_id), *args]
        else:
            cmd = [sys.executable, "-m", "ovalkit.cli", *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=120, cwd=ROOT)
        if self.traced:
            mark = [ln for ln in proc.stderr.splitlines() if ln.startswith(tracer.TRACE_MARK)]
            if mark:
                self.dumps.append((self.job_id, json.loads(mark[-1][len(tracer.TRACE_MARK):])))
        return proc.returncode, proc.stdout


def build_pool(ovk, workload: str, seed: int, cli_runner):
    if workload == "vertical-cert":
        return workloads.vertical_pool(ovk, seed)
    if workload == "singular-branch":
        return workloads.singular_pool(ovk, seed)
    if workload == "pencil-verify":
        return workloads.pencil_pool(ovk, seed)
    return workloads.cli_pool(ovk, seed, cli_runner)


class Outcome(NamedTuple):
    job: workloads.Job
    status: str  # "ok", "refused" or "error"
    output: object
    seconds: float  # at the reference speed
    wall_s: float
    state: dict
    job_id: int | None


def run_passes(pool, seconds: float, refused_type, in_process: bool, recorder=None, cli_runner=None, job_ids=None):
    """Whole passes over the pool until another pass would end past the
    budget (at least one). Returns (outcomes, the speed meter)."""
    outcomes = []
    speed = meter.Meter(on_inner=recorder.exclude if recorder is not None else None)
    speed.edge()
    start = time.perf_counter()
    while True:
        state: dict = {}
        pass_start = time.perf_counter()
        for job in pool:
            job_id = next(job_ids) if job_ids is not None else None
            if recorder is not None:
                recorder.begin_job(job_id)
            if cli_runner is not None:
                cli_runner.job_id = job_id
            speed.start_job(in_process)
            t0 = time.perf_counter()
            try:
                output, status = job.run(state), "ok"
            except refused_type as exc:
                output, status = exc, "refused"
            except Exception as exc:  # a failed job is counted, not fatal
                output, status = exc, "error"
            wall = time.perf_counter() - t0
            spent, factor = speed.stop_job()
            # A traced job's excluded time holds the meter's slices too.
            wall -= recorder.end_job() if recorder is not None else spent
            outcomes.append(Outcome(job, status, output, wall * factor, wall, state, job_id))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return outcomes, speed


def check_outcomes(outcomes, refusals_ok: bool) -> tuple[list[bool], list[str]]:
    """Check each ok output; an output equal to one already checked for the
    same job passes without a second full check. Every job that raised, was
    refused (unless refusals_ok) or failed its check gives a problem."""
    passed_outputs: dict[str, list] = {}
    verdicts, problems = [], []
    for job, status, output, *_, state, _ in outcomes:
        if status != "ok":
            verdicts.append(False)
            if status == "error" or not refusals_ok:
                how = "raised" if status == "error" else "was refused with"
                problems.append(f"{job.name}: {how} {type(output).__name__}: {output}")
            continue
        seen = passed_outputs.setdefault(job.name, [])
        if any(output == prior for prior in seen):
            verdicts.append(True)
            continue
        try:
            job.check(output, state)
        except workloads.CheckFailure as exc:
            verdicts.append(False)
            problems.append(f"{job.name}: check failed: {exc}")
            continue
        seen.append(output)
        verdicts.append(True)
    return verdicts, problems


def latency_summary(times: list[float]) -> dict:
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered) if ordered else None}
    if n > 10:
        k = n - 10
        out["tail_pct"] = 100 * k // n
        out["tail"] = ordered[k - 1]
    return out


def rate_and_p50(outcomes, verdicts, pool_size: int, field: str) -> tuple[float, float | None]:
    """jobs_per_s, the median over passes of correct jobs per second of the
    pass's job time (a failed job adds its time but no job), and the median
    time of correct jobs; times read from the outcome field given."""
    rates = []
    for i in range(0, len(outcomes), pool_size):
        chunk = range(i, i + pool_size)
        rates.append(sum(verdicts[j] for j in chunk) / sum(getattr(outcomes[j], field) for j in chunk))
    good = [getattr(o, field) for o, ok in zip(outcomes, verdicts) if ok]
    return statistics.median(rates), statistics.median(good) if good else None


def end_to_end(outcomes, verdicts, pool_size: int) -> dict:
    """Counts, latency of correct jobs and jobs_per_s at the reference
    speed, and the same two figures in raw wall time."""
    good = [o.seconds for o, ok in zip(outcomes, verdicts) if ok]
    by_job: dict[str, list[float]] = {}
    for o, ok in zip(outcomes, verdicts):
        if ok:
            by_job.setdefault(o.job.name, []).append(o.seconds)
    jobs_per_s, _ = rate_and_p50(outcomes, verdicts, pool_size, "seconds")
    wall_jobs_per_s, wall_p50 = rate_and_p50(outcomes, verdicts, pool_size, "wall_s")
    return {
        "attempted": len(outcomes),
        "correct": len(good),
        "refused": sum(1 for o in outcomes if o.status == "refused"),
        "jobs_per_s": jobs_per_s,
        "latency": latency_summary(good),
        "wall": {"jobs_per_s": wall_jobs_per_s, "p50": wall_p50},
        "job_p50_by_name": {name: statistics.median(ts) for name, ts in by_job.items()},
    }


def traced_run(pool, seconds: float, refused_type, in_process: bool, refusals_ok: bool, cli_runner, spans_path: str):
    """First half untraced, second half traced. Returns (outcomes,
    verdicts, problems, passes traced, per-layer metrics)."""
    untraced, speed = run_passes(pool, seconds / 2, refused_type, in_process)
    u_verdicts, u_problems = check_outcomes(untraced, refusals_ok)
    recorder = tracer.Recorder().install()
    cli_runner.traced = True
    try:
        traced, _ = run_passes(pool, seconds / 2, refused_type, in_process, recorder, cli_runner, itertools.count())
    finally:
        recorder.uninstall()
    verdicts, problems = check_outcomes(traced, refusals_ok)
    passes = len(traced) // len(pool)
    dumps = [(-1, recorder.dump())] + cli_runner.dumps
    summaries = [tracer.summarize(d) for _, d in dumps]
    metrics = tracer.layer_metrics(tracer.merge(summaries), passes)
    metrics.update(tracer.import_times(sys.executable, child_env()))
    covered = sum(sum(s["covered"].values()) for s in summaries)
    job_s = sum(o.wall_s for o in traced)
    t = end_to_end(traced, verdicts, len(pool))
    u = end_to_end(untraced, u_verdicts, len(pool))
    metrics.update(
        {
            "job_s": (job_s / passes, "s"),
            "unattributed_s": ((job_s - covered) / passes, "s"),
            "failed_frac": (1 - t["correct"] / t["attempted"], "ratio"),
            "trace.jobs_per_s_traced": (t["jobs_per_s"], "1/s"),
            "trace.jobs_per_s_untraced": (u["jobs_per_s"], "1/s"),
            "trace.overhead_frac": (1 - t["jobs_per_s"] / u["jobs_per_s"] if u["jobs_per_s"] else 0.0, "ratio"),
            "wall.jobs_per_s": (u["wall"]["jobs_per_s"], "1/s"),
            "wall.job_p50_s": (u["wall"]["p50"], "s"),
            "speed.ref_slice_ms": (1000 * statistics.fmean(speed.all_slices), "ms"),
        }
    )
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write_spans(spans_path, dumps)
    return untraced + traced, u_verdicts + verdicts, u_problems + problems, passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Stopped by run.py: exit through Python so a running CLI child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import ovalkit
    import ovalkit.cli
    from ovalkit.errors import DeskScopeError

    if not os.path.abspath(ovalkit.__file__).startswith(SRC + os.sep):
        print(f"ovalkit imported from {ovalkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cli_runner = CliRunner()
    pool = build_pool(ovalkit, args.workload, args.seed, cli_runner)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: dict = {"workload": args.workload, "seed": args.seed}
    refusals_ok = args.workload in REFUSALS_EXPECTED
    in_process = args.workload != "cli-verbs"
    if args.trace:
        spans_path = os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-seed{args.seed}.spans.jsonl")
        outcomes, verdicts, problems, passes, layers = traced_run(
            pool, args.seconds, DeskScopeError, in_process, refusals_ok, cli_runner, spans_path
        )
        result["layers"] = layers
    else:
        outcomes, speed = run_passes(pool, args.seconds, DeskScopeError, in_process)
        result["ref_slice_ms"] = 1000 * statistics.fmean(speed.all_slices)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-verbs" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        verdicts, problems = check_outcomes(outcomes, refusals_ok)
        passes = len(outcomes) // len(pool)
    result.update(end_to_end(outcomes, verdicts, len(pool)), passes=passes)
    # failed counts the problems: jobs that raised, were refused where no
    # refusal is expected, or whose output failed its check. Any one of them
    # makes the run incorrect. Expected refusals are reported apart.
    result["failed"] = len(problems)
    result["problems"] = problems
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

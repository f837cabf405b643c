"""Tests of the benchmark itself: deterministic generators, checks that
reject corrupted outputs, the span recorder, and metric names that match
BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import meter  # noqa: E402
import ovalkit  # noqa: E402
import ovalkit.cli  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from ovalkit.curves import Point  # noqa: E402

ORIGIN = Point(0, 0)


def _texts(seed):
    import random

    rng = random.Random(seed)
    loops = [wl.cubic_loop(rng), wl.node_loop(rng, 4), wl.node_loop(rng, 6)]
    pairs = wl.vertical_pairs(loops[0].control, rng, 3)
    return [loop.text for loop in loops], pairs, wl.cli_argvs(seed)


def test_generators_are_deterministic():
    assert _texts(11) == _texts(11)
    assert _texts(11) != _texts(12)


def test_pool_texts_are_byte_identical_across_processes():
    code = (
        "import sys; sys.path[:0] = [{!r}]; import workloads as wl; import random; "
        "rng = random.Random('x/5'); print(wl.node_loop(rng, 6).text, wl.cli_argvs(5))"
    ).format(HERE)
    runs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout for _ in range(2)}
    assert len(runs) == 1


@pytest.mark.parametrize("seed", range(20))
def test_generated_loops_meet_their_constraints(seed):
    import random

    rng = random.Random(seed)
    cubic = wl.cubic_loop(rng)
    cp = ovalkit.validate_centered(ovalkit.cli.parse_curve_text(cubic.text), ORIGIN)
    xs, _ = wl.bezier_power_basis(cubic.control)
    for t1, t2 in wl.vertical_pairs(cubic.control, rng, 3):
        assert 0 < t1 < t2 < 1
        assert cp.curve.g.evaluate(t1) == cp.curve.g.evaluate(t2) == wl._peval(xs, t1)
    for degree in (4, 6):
        loop = wl.node_loop(rng, degree)
        assert loop.control[0] == loop.control[-1] == (0, 0)
        assert loop.degree == degree


@pytest.fixture(scope="module")
def cubic():
    curve = ovalkit.cli.parse_curve_text(wl.CUBIC_PARAM)
    return curve, ovalkit.validate_centered(curve, ORIGIN)


@pytest.fixture(scope="module")
def quartic_poly():
    return ovalkit.parse_polynomial(wl.QUARTIC_TEXT, ("x", "y"))


def _plus_one(cert):
    return replace(cert, q=cert.q + 1)


def test_vertical_check_rejects_q_plus_one(cubic):
    curve, cp = cubic
    import random

    control = ((0, 0), *wl.CUBIC_CONTROL, (0, 0))
    pairs = wl.vertical_pairs(control, random.Random(3), 3)
    cert = ovalkit.vertical_certificate(cp)
    wl.check_vertical(ovalkit, cp, curve, control, pairs, cert)
    with pytest.raises(wl.CheckFailure, match="Q\\(S, c\\)"):
        wl.check_vertical(ovalkit, cp, curve, control, pairs, _plus_one(cert))


def test_pencil_check_rejects_q_plus_one(cubic):
    _, cp = cubic
    cert = ovalkit.pencil_certificate(cp)
    wl.check_pencil(ovalkit, cp, cert)
    with pytest.raises(wl.CheckFailure):
        wl.check_pencil(ovalkit, cp, _plus_one(cert))


def test_report_check_rejects_a_failing_report(cubic):
    curve, cp = cubic
    report = ovalkit.verify_certificate(ovalkit.pencil_certificate(cp), curve, n_samples=10)
    wl.check_report(report, 10)
    with pytest.raises(wl.CheckFailure):
        wl.check_report(replace(report, tolerance=report.max_relative_residual / 2), 10)


def test_singular_check_rejects_a_shifted_point(quartic_poly):
    points = ovalkit.rational_singular_points(quartic_poly)
    wl.check_singular(quartic_poly, points, [(0, 0)])
    shifted = [Point(0, 0), Point(Fraction(1, 2), 0)]
    with pytest.raises(wl.CheckFailure, match="not a singular point"):
        wl.check_singular(quartic_poly, shifted)
    with pytest.raises(wl.CheckFailure, match="origin"):
        wl.check_singular(quartic_poly, [Point(1, 0)])


def test_branch_check_rejects_a_changed_coefficient(quartic_poly):
    series = ovalkit.expand_branch(quartic_poly, 8)
    wl.check_branch(ovalkit, quartic_poly, 8, series, wl.QUARTIC_SERIES_HEAD, 2)
    terms = list(series.terms)
    exponent, coeff = terms[5]
    terms[5] = (exponent, coeff + 1)
    with pytest.raises(wl.CheckFailure, match="residual order"):
        wl.check_branch(ovalkit, quartic_poly, 8, replace(series, terms=tuple(terms)))


def test_implicit_check_rejects_a_wrong_curve(quartic_poly):
    curve = ovalkit.cli.parse_curve_text(wl.QUARTIC_PARAM)
    wl.check_implicit(ovalkit, curve, 4, quartic_poly, wl.QUARTIC_TEXT)
    with pytest.raises(wl.CheckFailure):
        wl.check_implicit(ovalkit, curve, 4, quartic_poly + ovalkit.Polynomial.variable("x"))


def test_cli_check_rejects_wrong_stdout():
    args = ["singular", "--curve", wl.QUARTIC_TEXT]
    expected = wl.run_cli_in_process(ovalkit, args)
    assert expected == (0, "(0, 0)\n")
    wl.check_cli(expected, (0, "(0, 0)\n"))
    with pytest.raises(wl.CheckFailure, match="stdout"):
        wl.check_cli(expected, (0, "(0, 1)\n"))
    with pytest.raises(wl.CheckFailure, match="exit code"):
        wl.check_cli(expected, (1, "(0, 0)\n"))


def test_recorder_wraps_every_binding_and_restores_them(quartic_poly):
    original = ovalkit.elimination.resultant
    rec = tracer.Recorder().install()
    try:
        assert ovalkit.curves.resultant is ovalkit.elimination.resultant is not original
        assert ovalkit.resultant is ovalkit.curves.resultant
        ovalkit.rational_singular_points(quartic_poly)  # outside a job: not recorded
        assert rec.spans == []
        rec.begin_job(0)
        ovalkit.rational_singular_points(quartic_poly)
        rec.end_job()
    finally:
        rec.uninstall()
    assert ovalkit.curves.resultant is original is ovalkit.resultant
    summary = tracer.summarize(rec.dump())
    sums = summary["sums"]
    assert sums["calls:rational_singular_points"] == 1
    assert sums["calls:resultant"] == 2
    assert sums["subs@curves"] > 0
    assert [s for s in rec.spans if s[5] < 0][0][0] == "ovalkit.curves.rational_singular_points"
    total = sum(v for k, v in sums.items() if k.startswith("self_s:"))
    assert total == pytest.approx(summary["covered"]["0"])


def test_meter_samples_inside_an_in_process_job_and_excludes_the_slices():
    speed = meter.Meter()
    speed.edge()
    speed.start_job(in_process=True)
    start = time.perf_counter()
    while time.perf_counter() - start < 5 * meter.PERIOD_S:
        pass
    spent, factor = speed.stop_job()
    inner = speed.all_slices[meter.EDGE_SLICES : -meter.EDGE_SLICES]
    assert len(inner) >= 3
    assert spent == pytest.approx(sum(inner))
    assert factor == pytest.approx(meter.NOMINAL_SLICE_S / statistics.fmean(speed.all_slices))
    speed.start_job(in_process=False)
    time.sleep(2 * meter.PERIOD_S)
    assert speed.stop_job()[0] == 0.0


def test_job_times_are_scaled_to_the_reference_speed(monkeypatch):
    # A machine twice as slow as the reference: every slice takes twice its
    # nominal time, so a job's time at reference speed is half its wall time.
    monkeypatch.setattr(meter, "reference_slice", lambda: 2 * meter.NOMINAL_SLICE_S)
    job = wl.Job("sleep", lambda state: time.sleep(0.05), lambda out, state: None)
    outcomes, _ = worker.run_passes([job], 0.0, RuntimeError, in_process=False)
    (o,) = outcomes
    assert o.wall_s >= 0.05
    assert o.seconds == pytest.approx(o.wall_s / 2)


def _run_bench(cwd, *args, workload="cli-verbs"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_match_benchmark_json(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _run_bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# Appended to a copy of ovalkit/__init__.py: pencil_certificate raises on
# calls after the first N, so some jobs of a pass succeed and the rest raise.
_BROKEN = """
from .errors import DeskScopeError

_real_pencil_certificate = pencil_certificate
_pencil_calls = [0]


def pencil_certificate(cp):
    _pencil_calls[0] += 1
    if _pencil_calls[0] > {ok}:
        raise {exc}("injected")
    return _real_pencil_certificate(cp)
"""


@pytest.mark.parametrize(
    "exc, ok",
    [("RuntimeError", 1), ("DeskScopeError", 0)],
    ids=["some-jobs-raise", "all-jobs-refused"],
)
def test_a_raising_or_refused_job_fails_the_run(tmp_path, exc, ok):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "ovalkit" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write(_BROKEN.format(exc=exc, ok=ok))
    proc = _run_bench(tmp_path, "--trace", "0", workload="pencil-verify")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert f"{exc}: injected" in proc.stdout

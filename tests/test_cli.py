import math
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import ovalkit.cli as cli
from ovalkit import elimination, quadrature
from ovalkit.algebra import Interval
from ovalkit.cli import _rational, main, parse_curve_text
from ovalkit.errors import DeskScopeError, OvalkitError
from ovalkit.parsing import MAX_POWER_BITS

from conftest import CUBIC_PARAM, QUARTIC_PARAM, QUARTIC_TEXT


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_verb(capsys):
    code, out, _ = run(capsys, ["parse", "--expr", "(y^2-x)^2 - x^3", "--vars", "x,y"])
    assert code == 0
    assert out.strip() == "y^4 - 2*x*y^2 - x^3 + x^2"
    code, out, _ = run(capsys, ["parse", "--expr", "3/4^2*x", "--vars", "x"])
    assert (code, out) == (0, "3/16*x\n")
    code, out, err = run(capsys, ["parse", "--expr", "x/(1-x)", "--vars", "x"])
    assert (code, out) == (1, "") and err.count("\n") == 1


def test_area_verb(capsys):
    code, out, _ = run(capsys, ["area", "--param", CUBIC_PARAM])
    assert code == 0
    assert out.startswith("3/20")


def test_area_chord_and_vertical(capsys):
    code, out, _ = run(capsys, ["area", "--param", CUBIC_PARAM, "--chord", "3/4"])
    assert code == 0
    # '=' form keeps argparse from reading the leading '-' as an option
    code, out, _ = run(capsys, ["area", "--param", QUARTIC_PARAM, "--vertical=-1/2,1/2"])
    assert code == 0
    assert out.startswith("617/1680")


def test_area_vertical_needs_two_parameters(capsys):
    for value in ("1/2", "1/4,1/2,3/4"):
        code, out, err = run(capsys, ["area", "--param", QUARTIC_PARAM, f"--vertical={value}"])
        assert code == 1 and out == ""
        assert err == f"error: --vertical expects t1,t2, not {value!r}\n"


def test_area_decimal_past_the_float_range(capsys):
    # The exact area 10^400/60 overflows a float; its decimal is rounded from
    # the Fraction instead, and so is that of 10^-400/60, which underflows.
    code, out, _ = run(capsys, ["area", "--param", "x=10^400*t*(1-t)^2; y=t^2*(1-t); t in [0,1]"])
    assert code == 0
    assert out == f"{Fraction(10**400, 60)} = 1.66666666667e+398\n"
    code, out, _ = run(capsys, ["area", "--param", "x=t*(1-t)^2/10^400; y=-t^2*(1-t); t in [0,1]"])
    assert code == 0
    assert out == f"{Fraction(1, 60 * 10**400)} = 1.66666666667e-402\n"
    assert cli._decimal(Fraction(-10**320)) == "-1e+320"
    assert cli._decimal(Fraction(2 * 10**400 - 1, 3)) == "6.66666666667e+399"


def test_area_decimal_of_a_float_keeps_the_float_digits():
    rng = random.Random(13)
    values = [Fraction(0), Fraction(3, 20), Fraction(617, 1680), Fraction(-1, 3), Fraction(10**308), Fraction(1, 10**307)]
    values += [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) * Fraction(10) ** rng.randint(-300, 300) for _ in range(300)]
    for v in values:
        assert cli._decimal(v) == f"{float(v):.12g}"


def test_puiseux_verb(capsys):
    code, out, _ = run(capsys, ["puiseux", "--curve", "y^4-2*x*y^2-x^3+x^2", "--terms", "5"])
    assert code == 0
    assert out.strip() == "x^(1/2) + 1/2*x - 1/8*x^(3/2) + 1/16*x^2 - 5/128*x^(5/2) + ..."


def test_puiseux_verb_skips_ramified_negative_branch(capsys):
    code, out, _ = run(capsys, ["puiseux", "--curve", "(y^3 + x)*(y - x^2)", "--terms", "3"])
    assert code == 0
    assert out.strip() == "x^2"


def test_implicitize_verb(capsys):
    code, out, _ = run(capsys, ["implicitize", "--param", QUARTIC_PARAM])
    assert code == 0
    assert out.strip() == "y^4 - 2*x*y^2 - x^3 + x^2"


def test_implicitize_verb_past_the_float_range(capsys):
    # The convexity probe cannot hold 10^400 in a float; the exact equation
    # is still printed, after a one-line warning that the probe was skipped.
    E = 10**400
    code, out, err = run(capsys, ["implicitize", "--param", "x=10^400*t*(1-t)^2; y=t^2*(1-t); t in [0,1]"])
    assert code == 0
    assert out == f"{E**3}*y^3 + {3 * E**2}*x*y^2 + {3 * E}*x^2*y + x^3 - {E**2}*x*y\n"
    assert err == "warning: numeric convexity probe skipped (integer division result too large for a float)\n"


def test_implicitize_verb_warns_on_a_boundary_that_is_not_convex(capsys):
    code, out, err = run(capsys, ["implicitize", "--param", "x=t^3-t; y=(t^2-1)*(1-4*t^2); t in [-1,1]"])
    assert code == 0
    assert out == "64*x^4 + y^3 - 4*x^2*y + y^2 - 9*x^2\n"
    assert err == "warning: boundary fails a numeric convexity probe\n"


def test_area_of_a_rational_curve_warns_in_one_line():
    # Run as its own process, where Python's default warning display would
    # print the warning and the source line that raised it.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    param = "x=t*(1-t)/(1+t^2); y=t^2*(1-t); t in [0,1]"
    proc = subprocess.run(
        [sys.executable, "-m", "ovalkit.cli", "area", "--param", param],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == "warning: rational curve components: total area measured with the numeric oracle\n"
    assert proc.stdout.startswith("0.01826611")


def test_a_warning_raised_as_an_error_is_refused_in_one_line(capsys):
    # Under -W error the numeric-oracle fallback's warning is an exception,
    # refused like any other domain error.
    param = "x=t*(1-t)/(1+t^2); y=t^2*(1-t); t in [0,1]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["area", "--param", param])
    assert (code, out) == (1, "")
    assert err == "error: rational curve components: total area measured with the numeric oracle\n"


def test_singular_verb(capsys):
    code, out, _ = run(capsys, ["singular", "--curve", "y^4-2*x*y^2-x^3+x^2"])
    assert code == 0
    assert out.strip() == "(0, 0)"
    code, out, _ = run(capsys, ["singular", "--curve", "x^2+y^2-1"])
    assert code == 0
    assert "no rational singular points" in out


def test_big_prime_coefficients_need_no_divisors(capsys):
    # Leading and trailing coefficients carry the product of two 10-digit
    # primes; rational roots are found without factoring them.
    code, out, _ = run(capsys, ["singular", "--curve", "y^2 - x^2*(1000000007*1000000009*x^2 + 1)"])
    assert code == 0
    assert out.strip() == "(0, 0)"
    code, _, err = run(capsys, ["puiseux", "--curve", "y^2 - x^3 - 1000000007*x^2*1000000009", "--terms", "3"])
    assert code == 1
    assert err.splitlines() == ["error: no polygon edge has a positive rational branch coefficient"]


def test_missing_verb_is_usage_error(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_domain_error_exit_code(capsys):
    # chord parameter at the interval endpoint violates the precondition
    code, _, err = run(capsys, ["area", "--param", CUBIC_PARAM, "--chord", "0"])
    assert code == 1
    assert "error:" in err


def test_pencil_certificate_of_zero_area_is_a_domain_error(capsys):
    # The same one-line message as `area` gives on this retraced segment.
    zero_area = "bezier (0,0) (1,-1) (2,-2) (0,0)"
    for argv in (["certify", "--family", "pencil"], ["area", "--chord", "1/2"]):
        code, out, err = run(capsys, argv + ["--param", zero_area])
        assert (code, out, err) == (1, "", "error: curve encloses zero signed area\n")


def test_deep_nesting_is_a_one_line_domain_error():
    # Run as its own process so an uncaught RecursionError would show as a traceback.
    expr = "(" * 3000 + "x" + ")" * 3000
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ovalkit.cli", "parse", "--expr", expr],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_large_power_is_a_one_line_domain_error():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    # A power, and a product of 120 factors that ran for ~6 s unbudgeted.
    for expr in ("(x+y+1)^400", "*".join(["(x+y+1)"] * 120)):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ovalkit.cli", "parse", "--expr", expr, "--vars", "x,y"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["area", "--in", "{missing}"],
        ["verify", "--cert-file", "{missing}", "--param", CUBIC_PARAM],
        ["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1", "--steps", "3", "--out", "{dir}"],
        ["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1", "--steps", "3", "--svg", "{missing}/a.svg"],
    ],
    ids=["area-in", "verify-cert-file", "damper-out-directory", "damper-svg-missing-dir"],
)
def test_file_errors_are_one_line(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "ovalkit.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_arithmetic_errors_are_one_line(capsys, monkeypatch, tmp_path):
    # A damper-table value too large for the float axes of its SVG plot, and
    # the vertical eliminant's check of its own arithmetic, at a Kronecker
    # width too narrow for the cubic's digits: exit 1 with one message, no
    # traceback.
    argv = ["damper-table", "--param", "x=10^400*t*(1-t)^2; y=t^2*(1-t); t in [0,1]", "--range", "1/2,1", "--steps", "3"]
    code, _, err = run(capsys, argv + ["--svg", str(tmp_path / "s2.svg")])
    assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1, err

    monkeypatch.setattr(elimination, "_kronecker_width", lambda *args: 2)
    code, _, err = run(capsys, ["certify", "--param", CUBIC_PARAM, "--family", "vertical"])
    assert code == 1 and err == "error: the Kronecker digits exceed the degree bound\n"


def test_verify_sample_count_is_bounded():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["verify", "--cert", "S - m\nroles: S=area m=slope", "--param", CUBIC_PARAM, "--samples", "100000000"]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ovalkit.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert time.monotonic() - start < 2.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--cert", "S - m\nroles: S=area m=slope", "--param", "x=0; y=t^2-t; t in [0,1]", "--samples", "10"],
        [
            "verify",
            "--cert",
            "S - m\nroles: S=area m=slope",
            "--param",
            "x=t/1000000000000; y=t^2-t; t in [0,1]",
            "--samples",
            "10",
        ],
        ["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1", "--steps", "1000000000"],
        ["puiseux", "--curve", "y^4-2*x*y^2-x^3+x^2", "--terms", "101"],
        [
            "certify",
            "--family",
            "vertical",
            "--param",
            "bezier (0,0) (2,-2) (3,-2) (4,0) (4,0) (4,2) (3,2) (2,4) (0,0)",
        ],
        ["implicitize", "--param", "x=t^40; y=t^39+t; t in [0,1]"],
    ],
    ids=[
        "verify-chords-x-zero",
        "verify-chords-x-tiny",
        "damper-table-steps",
        "puiseux-terms",
        "vertical-degree-8",
        "implicitize-sylvester-79",
    ],
)
def test_unbounded_inputs_end_in_one_line_error(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ovalkit.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert time.monotonic() - start < 2.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["area", "--param", CUBIC_PARAM, "--chord", "1e-30000000"], "rational 1e-30000000 exceeds the supported 10000 bits"),
        (["area", "--param", CUBIC_PARAM, "--chord", "1e-100000"], "rational 1e-100000 exceeds the supported 10000 bits"),
        (["area", "--param", CUBIC_PARAM, "--chord", "1/0"], "zero denominator in 1/0"),
        (
            ["implicitize", "--param", "bezier (0,0) (1e-30000000,1) (2,0) (0,0)"],
            "rational 1e-30000000 exceeds the supported 10000 bits",
        ),
        (
            ["area", "--param", "x=3*(1-t)^2*t; y=3*(1-t)*t^2; t in [0,1e30000000]"],
            "rational 1e30000000 exceeds the supported 10000 bits",
        ),
        (["area", "--param", QUARTIC_PARAM, "--vertical=-1/2,5e-30000000"], "rational 5e-30000000 exceeds the supported 10000 bits"),
        (
            ["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1e99999999999999999999", "--steps", "3"],
            "rational 1e99999999999999999999 exceeds the supported 10000 bits",
        ),
        (["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1/0_0", "--steps", "3"], "zero denominator in 1/0_0"),
    ],
    ids=["chord-tiny", "chord-past-digit-limit", "chord-zero-denominator", "bezier-point", "interval-bound", "vertical", "range", "range-zero-denominator"],
)
def test_wide_or_undefined_literals_end_in_one_line(argv, message):
    # Read by Fraction() unchecked, 1e-30000000 ran for more than 20 s,
    # 1e-100000 failed on Python's digit limit for printing an int, and 1/0
    # printed "error: Fraction(1, 0)".
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ovalkit.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert time.monotonic() - start < 2.0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [f"error: {message}"]


def test_rational_literals_read_as_fraction_reads_them():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    digits = st.text("0123456789", min_size=1, max_size=30)
    sign = st.sampled_from(("", "-", "+"))
    decimal = st.builds(
        lambda s, a, b, e: f"{s}{a}{b}{e}",
        sign,
        st.one_of(digits, st.just("")),
        st.one_of(st.just(""), st.builds(lambda d: "." + d, st.one_of(digits, st.just("")))),
        st.one_of(st.just(""), st.builds(lambda c, n: f"{c}{n}", st.sampled_from("eE"), st.integers(-60, 60))),
    ).filter(lambda t: any(c.isdigit() for c in t.split("e")[0].split("E")[0]))
    ratio = st.builds(lambda s, p, q: f"{s}{p}/{q}", sign, digits, digits.filter(lambda q: int(q)))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(decimal, ratio))
    def check(text):
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(ValueError):
                _rational(text)
        else:
            assert _rational(text) == expected

    check()
    # The bound is exact at its edge, for numerators and denominators.
    edge, past = str(2**MAX_POWER_BITS - 1), str(2**MAX_POWER_BITS)
    assert _rational(edge) == 2**MAX_POWER_BITS - 1
    assert _rational(f"-1/{edge}") == Fraction(-1, 2**MAX_POWER_BITS - 1)
    assert _rational("1e-3010") == Fraction(1, 10**3010)
    for text in (past, f"1/{past}", "1e-3011", "2e3010", f"{past}e-5"):
        with pytest.raises(DeskScopeError):
            _rational(text)
    # Zeros and trailing zeros cost nothing, whatever the exponent.
    assert _rational("0e-30000000") == _rational("-0.000e99999999999999") == 0
    assert _rational("1" + "0" * 5000 + "e-5000") == 1
    with pytest.raises(OvalkitError, match="zero denominator"):
        _rational("3/000")


def test_importing_the_package_and_cli_does_not_load_numpy():
    # numpy serves only the float oracle; exact verbs should not pay for it.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, ovalkit, ovalkit.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_damper_table_golden(capsys, cubic_centered):
    csv_text = cli._damper_csv(cli.damper_rows(cubic_centered, Interval(Fraction(1, 2), Fraction(1)), 6))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t_P,alpha_deg,S2,S2_exact"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == 45.0
    last = lines[-1].split(",")
    assert last[2] == "0.15"
    assert last[3] == "3/20"
    # byte-for-byte determinism
    again = cli._damper_csv(cli.damper_rows(cubic_centered, Interval(Fraction(1, 2), Fraction(1)), 6))
    assert again == csv_text


def test_damper_table_two_steps(capsys, cubic_centered):
    csv_text = cli._damper_csv(cli.damper_rows(cubic_centered, Interval(Fraction(1, 2), Fraction(1)), 2))
    assert len(csv_text.strip().splitlines()) == 3


def test_damper_table_monotone_rows(cubic_centered):
    from ovalkit.cli import damper_rows

    rows = damper_rows(cubic_centered, Interval(Fraction(1, 2), Fraction(1)), 9)
    ts = [row.t_P for row in rows]
    assert ts == sorted(ts)


def test_damper_table_cli_with_svg(tmp_path, capsys):
    out_csv = tmp_path / "table.csv"
    out_svg = tmp_path / "plot.svg"
    code, _, _ = run(
        capsys,
        [
            "damper-table",
            "--param",
            CUBIC_PARAM,
            "--range",
            "1/2,1",
            "--steps",
            "6",
            "--out",
            str(out_csv),
            "--svg",
            str(out_svg),
        ],
    )
    assert code == 0
    assert out_csv.read_text().startswith("t_P,alpha_deg,S2,S2_exact")
    svg = out_svg.read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_damper_table_cli_computes_rows_once(capsys, monkeypatch, cubic_centered):
    expected = cli._damper_csv(cli.damper_rows(cubic_centered, Interval(Fraction(1, 2), Fraction(1)), 6))
    build = cli.damper_rows
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "damper_rows", counting)
    code, out, _ = run(capsys, ["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1", "--steps", "6"])
    assert code == 0
    assert out == expected
    assert len(calls) == 1


def test_damper_table_past_the_float_range(capsys, cubic_centered, quartic_centered):
    # S2 overflows a float on the first curve, the chord slope on the second:
    # the decimals are rounded from the Fractions, and the angle is taken as
    # 90 degrees - atan(1/m).
    code, out, _ = run(capsys, ["damper-table", "--param", "x=10^400*t*(1-t)^2; y=t^2*(1-t); t in [0,1]", "--range", "1/2,1", "--steps", "3"])
    assert code == 0
    assert out.splitlines()[2:] == [
        f"0.75,0,1.32161458333e+398,{Fraction(203 * 10**400, 15360)}",
        f"1,90,1.66666666667e+398,{Fraction(10**400, 60)}",
    ]
    code, out, _ = run(capsys, ["damper-table", "--param", "x=t*(1-t)^2; y=10^400*t^2*(1-t); t in [0,1]", "--range", "1/2,1", "--steps", "3"])
    assert code == 0
    assert [row.split(",")[:3] for row in out.splitlines()] == [
        ["t_P", "alpha_deg", "S2"],
        ["0.5", "90", "0"],
        ["0.75", "90", "1.32161458333e+398"],
        ["1", "90", "1.66666666667e+398"],
    ]
    rows = cli.damper_rows(cli._centered_origin(parse_curve_text("x=t*(1-t)^2; y=-10^400*t^2*(1-t); t in [0,1]")), Interval(Fraction(1, 2), Fraction(3, 4)), 2)
    assert [row.alpha_deg for row in rows] == [-90.0, -90.0]
    # On either side of slope +-1 the angle is the float atan of the slope.
    for cp, lo, hi in ((cubic_centered, 0, 1), (quartic_centered, -1, 1)):
        slope = quadrature.slope_function(cp)
        for row in cli.damper_rows(cp, Interval(lo, hi), 41):
            if slope.den.evaluate(row.t_P):
                assert abs(row.alpha_deg - math.degrees(math.atan(slope.evaluate(row.t_P)))) <= 1e-13


def test_damper_table_range_must_lie_on_the_curve(capsys):
    for value in ("1/2,3", "-1/2,1/2"):
        code, out, err = run(capsys, ["damper-table", "--param", CUBIC_PARAM, f"--range={value}", "--steps", "4"])
        assert code == 1 and out == ""
        assert err == "error: the t_P range must lie in the parameter interval [0, 1]\n"


def test_damper_table_invalid_range(capsys):
    code, _, err = run(
        capsys,
        ["damper-table", "--param", CUBIC_PARAM, "--range", "1,1/2", "--steps", "4"],
    )
    assert code == 1


def test_certify_and_verify_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run(capsys, ["certify", "--param", CUBIC_PARAM, "--family", "pencil"])
    assert code == 0
    cert_path.write_text(out)
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--cert-file",
            str(cert_path),
            "--param",
            CUBIC_PARAM,
            "--samples",
            "20",
            "--tol",
            "1e-6",
        ],
    )
    assert code == 0
    assert "PASS" in out
    lines = out.splitlines()
    assert lines[0] == "sampled lines: 20"
    assert lines[-2].startswith("oracle error estimate: ") and float(lines[-2].split(": ")[1]) > 0.0
    assert lines[-1].endswith("-> PASS")


def test_verify_bad_certificate_fails(capsys, tmp_path):
    cert = "S\nroles: S=area m=slope\n"
    code, out, _ = run(
        capsys,
        ["verify", "--cert", cert, "--param", CUBIC_PARAM, "--samples", "15", "--tol", "1e-6"],
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_refuses_a_tolerance_that_is_not_finite_and_positive(capsys):
    cert = "S - m\nroles: S=area m=slope\n"
    for tol in ("inf", "nan", "-1", "0"):
        code, out, err = run(capsys, ["verify", "--cert", cert, "--param", CUBIC_PARAM, f"--tol={tol}"])
        assert code == 1 and out == ""
        assert err == f"error: tolerance must be finite and positive, not {float(tol)}\n"


def test_verify_refuses_a_repeated_role_in_one_line(capsys):
    # The role map is checked when the certificate is read, before any line
    # is drawn; it once ended in a KeyError traceback from the residuals.
    cert = "S - m - k\nroles: S=area m=slope k=slope"
    code, out, err = run(capsys, ["verify", "--cert", cert, "--param", CUBIC_PARAM])
    assert code == 1 and out == ""
    assert err == "error: role 'slope' is given to both 'm' and 'k'\n"


def test_verify_refuses_a_roles_item_without_equals_in_one_line(capsys):
    # An item with no '=' was read as a variable with the empty role and
    # refused as "unknown role '' for 'x'"; it is refused by name.
    cert = "S - c\nroles: S=area c=abscissa x"
    code, out, err = run(capsys, ["verify", "--cert", cert, "--param", CUBIC_PARAM])
    assert code == 1 and out == ""
    assert err == "error: roles item 'x' is not var=role\n"


def test_verify_fails_a_certificate_whose_power_overflows(capsys):
    # m^480 overflows a float at the steeper sampled chords; it is inf
    # there, as an overflowing product is, and the report fails instead of
    # raising.
    cert = "S*m^480 - 1\nroles: S=area m=slope"
    code, out, err = run(capsys, ["verify", "--cert", cert, "--param", CUBIC_PARAM])
    assert code == 1 and err == ""
    assert out.splitlines()[-1].endswith("-> FAIL")


def test_verify_refuses_a_curve_beyond_the_float_range_in_one_line(capsys, tmp_path):
    # The exact certificate is printed; the numeric oracle cannot sample a
    # coefficient of 10^400, and says so instead of an OverflowError text.
    param = "x=10^400*t*(1-t)^2; y=t^2*(1-t); t in [0,1]"
    code, cert, _ = run(capsys, ["certify", "--param", param, "--family", "pencil"])
    assert code == 0 and cert.splitlines()[-1] == "roles: S=area m=slope"
    (tmp_path / "cert.txt").write_text(cert)
    code, out, err = run(capsys, ["verify", "--cert-file", str(tmp_path / "cert.txt"), "--param", param])
    assert code == 1 and out == ""
    assert err == "error: the curve is beyond the float range of the numeric oracle\n"


def test_verify_refuses_a_certificate_beyond_the_float_range_in_one_line(capsys):
    # A coefficient of 10^400 cannot be a float in the residuals; one of
    # 10^-400 can, as 0.0, and the certificate fails.
    param = "x=3*(1-t)^2*t; y=3*(1-t)*t^2; t in [0,1]"
    code, out, err = run(capsys, ["verify", "--cert", "10^400*S - m\nroles: S=area m=slope", "--param", param])
    assert code == 1 and out == ""
    assert err == "error: the certificate is beyond the float range of the numeric oracle\n"
    code, out, err = run(capsys, ["verify", "--cert", "S/10^400 - m\nroles: S=area m=slope", "--param", param])
    assert code == 1 and out.splitlines()[-1].endswith("-> FAIL") and err == ""


def test_implicitize_refuses_a_parameter_named_x_or_y_in_one_line(capsys):
    for param, name in (("x=x^2; y=x^3-x; x in [-1,1]", "x"), ("x=y^2; y=y^3-y; y in [-1,1]", "y")):
        code, out, err = run(capsys, ["implicitize", "--param", param])
        assert code == 1 and out == ""
        assert err == f"error: parameter variable '{name}' collides with an implicit coordinate\n"


def test_curve_text_errors():
    with pytest.raises(Exception):
        parse_curve_text("x=t; y=t")
    bez = parse_curve_text("bezier (0,0) (1,0) (1,1)")
    assert bez.interval.lo == 0 and bez.interval.hi == 1


def test_malformed_bezier_text_is_refused_in_one_line(capsys):
    # Only control points '(x,y)' separated by whitespace follow 'bezier';
    # a malformed point or a stray word is refused, not skipped.
    message = "error: bezier text must be control points '(x,y)' separated by whitespace\n"
    for text in (
        "bezier (0,0) (1,2) (3,0 (0,0)",
        "bezier (0,0) xyz (1,2) (3,0) (0,0)",
        "bezier (0,0) (1,2) (3,0) (0,0) end",
        "bezier (0,0) (1 2,3) (0,0)",
        "bezier (" + " " * 3000 + "," + " " * 3000 + "1",
    ):
        code, out, err = run(capsys, ["implicitize", "--param", text])
        assert (code, out, err) == (1, "", message)
    assert parse_curve_text("bezier(0,0)  ( 1/2 , -2 )\t(3,0)  ") == parse_curve_text("bezier (0,0) (1/2,-2) (3,0)")


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("param x=3*(1-t)^2*t; y=3*(1-t)*t^2; t in [0,1]\n")
    code, out, _ = run(capsys, ["area", "--in", str(path)])
    assert code == 0
    assert out.startswith("3/20")


TRIVIAL_CERT = "S - m\nroles: S=area m=slope"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["implicitize"], "no input given (use the flag or --in <path>)"),
        (["parse"], "no input given (use the flag or --in <path>)"),
        (["verify", "--param", CUBIC_PARAM], "no certificate given (--cert or --cert-file)"),
        (["verify", "--cert", "S", "--param", CUBIC_PARAM], "certificate text needs a polynomial line and a 'roles:' line"),
        (["verify", "--cert", TRIVIAL_CERT, "--param", CUBIC_PARAM, "--samples", "5"], "use at least 10 sample lines"),
        (["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1", "--steps", "1"], "damper table needs at least 2 steps"),
        (
            ["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1", "--steps", "10001"],
            "10001 damper table rows exceed the supported 10000",
        ),
        (["puiseux", "--curve", QUARTIC_TEXT, "--terms", "0"], "num_terms must be positive"),
        (["puiseux", "--curve", QUARTIC_TEXT, "--terms", "101"], "101 series terms exceed the supported 100"),
        (
            ["verify", "--cert", "S - m\nroles: S=area m=slope m=abscissa", "--param", CUBIC_PARAM],
            "variable 'm' is given two roles",
        ),
    ],
    ids=[
        "implicitize-no-input",
        "parse-no-input",
        "verify-no-certificate",
        "verify-certificate-without-roles",
        "verify-too-few-samples",
        "damper-table-one-step",
        "damper-table-too-many-steps",
        "puiseux-no-terms",
        "puiseux-too-many-terms",
        "verify-variable-with-two-roles",
    ],
)
def test_refusals_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv, second",
    [
        (["area", "--param", CUBIC_PARAM, "--chord", "1/2", "--vertical=0,1"], "--vertical"),
        (["verify", "--cert", "S - m\nroles: S=area m=slope", "--cert-file", "{file}", "--param", CUBIC_PARAM], "--cert-file"),
        (["area", "--param", CUBIC_PARAM, "--in", "{file}"], "--in"),
    ],
    ids=["area-chord-and-vertical", "verify-cert-and-cert-file", "area-param-and-in"],
)
def test_conflicting_inputs_are_usage_errors(tmp_path, capsys, argv, second):
    # Each pair used to run on one input and drop the other silently.
    path = tmp_path / "input.txt"
    path.write_text(QUARTIC_PARAM)
    code, out, err = run(capsys, [a.format(file=path) for a in argv])
    assert (code, out) == (2, "")
    assert f"error: argument {second}: not allowed with argument" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--expr", "(y^2-x)^2 - x^3", "--vars", "x,y"],
        ["implicitize", "--param", CUBIC_PARAM],
        ["puiseux", "--curve", QUARTIC_TEXT, "--terms", "4"],
        ["singular", "--curve", QUARTIC_TEXT],
        ["area", "--param", CUBIC_PARAM, "--chord", "3/4"],
        ["damper-table", "--param", CUBIC_PARAM, "--range", "1/2,1", "--steps", "3"],
        ["certify", "--param", CUBIC_PARAM, "--family", "vertical"],
        ["verify", "--cert", TRIVIAL_CERT, "--param", CUBIC_PARAM, "--samples", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_verb_reads_its_input_from_a_file(tmp_path, capsys, argv):
    k = next(i for i, a in enumerate(argv) if a in ("--expr", "--param", "--curve"))
    path = tmp_path / "input.txt"
    path.write_text(argv[k + 1])
    direct = run(capsys, argv)
    from_file = run(capsys, argv[:k] + ["--in", str(path)] + argv[k + 2 :])
    assert from_file[:2] == direct[:2]
    assert direct[1]

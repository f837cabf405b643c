"""Command-line front end.

Verbs: parse, implicitize, puiseux, singular, area, damper-table, certify,
verify. Exit codes: 0 success, 1 domain error (message names the violated
condition), 2 usage error.
"""

from __future__ import annotations

import argparse
import decimal
import math
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import certify as certify_mod
from . import curves as curves_mod
from . import quadrature as quad
from .algebra import Interval
from .curves import ORIGIN, BezierControlPolygon, ParametricCurve, Point, validate_centered
from .errors import DeskScopeError, OvalkitError
from .parsing import MAX_POWER_BITS, parse_polynomial, parse_rational_function, render_polynomial
from .puiseux import expand_branch, render_series

_PARAM_RE = re.compile(
    r"^\s*x\s*=\s*(?P<x>[^;]+);\s*y\s*=\s*(?P<y>[^;]+);\s*(?P<var>[A-Za-z_]\w*)\s+in\s*"
    r"\[\s*(?P<lo>[^,\]]+)\s*,\s*(?P<hi>[^,\]]+)\s*\]\s*$"
)
_POINT_RE = re.compile(r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)")
_POINTS_RE = re.compile(rf"(?:\s*{_POINT_RE.pattern})*\s*")

MAX_TABLE_ROWS = 10_000

# A rational literal in Fraction()'s grammar (Python 3.12's, which allows
# spaces around '/'): p/q, or a decimal with an optional exponent, digits
# grouped by single underscores.
_RATIONAL_RE = re.compile(
    r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)"
    r"(?:\s*/\s*(?P<den>\d+(?:_\d+)*)|(?:\.(?P<frac>\d*|\d+(?:_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*"
)
# 10^_MAX_DIGITS exceeds 2^MAX_POWER_BITS.
_MAX_DIGITS = int(MAX_POWER_BITS / math.log2(10)) + 1


def _too_wide(digits: str, zeros: int) -> bool:
    """Whether int(digits) * 10^zeros, digits free of leading zeros, has
    more than MAX_POWER_BITS bits, read off the digit count where that
    decides it, so that nothing wide is built."""
    if not digits:
        return False
    if len(digits) - 1 + zeros >= _MAX_DIGITS:
        return True
    return (int(digits) * 10**zeros).bit_length() > MAX_POWER_BITS


def _rational(text: str) -> Fraction:
    """The rational a command-line literal names, as Fraction(text) reads
    it, its size checked before any integer is built. A literal p/q is
    refused (DeskScopeError) when p or q as written has more than
    MAX_POWER_BITS bits, and a nonzero decimal M*10^x, M without trailing
    zeros, when M*10^x does or, for x < 0, M or 10^-x does. A zero
    denominator is refused as such; text outside the grammar gets
    Fraction's own error."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        return Fraction(text)
    shown = text.strip()
    if len(shown) > 40:
        shown = shown[:37] + "..."
    num = m["num"].replace("_", "").lstrip("0")
    if m["den"] is not None:
        den = m["den"].replace("_", "").lstrip("0")
        if not den:
            raise OvalkitError(f"zero denominator in {shown}")
        # (digits, zeros) of the numerator and of the denominator.
        p, q = (num, 0), (den, 0)
    else:
        frac = (m["frac"] or "").replace("_", "")
        exp = (m["exp"] or "0").replace("_", "")
        e = exp.lstrip("+-").lstrip("0")
        # Past 12 digits only the exponent's sign matters: it is too wide.
        x = (-1 if exp[0] == "-" else 1) * (int(e or "0") if len(e) <= 12 else 10**12)
        digits = (num + frac).lstrip("0")
        mantissa = digits.rstrip("0")
        if not mantissa:
            return Fraction(0)
        x += len(digits) - len(mantissa) - len(frac)
        p, q = (mantissa, max(x, 0)), ("1", max(-x, 0))
    if _too_wide(*p) or _too_wide(*q):
        raise DeskScopeError(f"rational {shown} exceeds the supported {MAX_POWER_BITS} bits")
    p, q = int(p[0] or "0") * 10 ** p[1], int(q[0]) * 10 ** q[1]
    return Fraction(-p if m["sign"] == "-" else p, q)


def parse_curve_text(text: str) -> ParametricCurve:
    """Read a curve description.

    Accepted forms (a leading 'param'/'bezier' keyword is optional for the
    first form and mandatory for control polygons):

        param x=<expr(t)>; y=<expr(t)>; t in [a,b]
        bezier (x0,y0) (x1,y1) ...
    """
    body = text.strip()
    if body.startswith("bezier"):
        points = body[len("bezier") :]
        if not _POINTS_RE.fullmatch(points):
            raise OvalkitError("bezier text must be control points '(x,y)' separated by whitespace")
        pts = [Point(_rational(a), _rational(b)) for a, b in _POINT_RE.findall(points)]
        return curves_mod.bezier_to_parametric(BezierControlPolygon(tuple(pts)))
    if body.startswith("param"):
        body = body[len("param") :]
    m = _PARAM_RE.match(body)
    if not m:
        raise OvalkitError(
            "curve text must look like 'x=<expr>; y=<expr>; t in [a,b]' or 'bezier (x0,y0) ...'"
        )
    var = m.group("var")
    g = parse_rational_function(m.group("x"), var)
    f = parse_rational_function(m.group("y"), var)
    interval = Interval(_rational(m.group("lo")), _rational(m.group("hi")))
    return ParametricCurve(g, f, interval)


@dataclass(frozen=True)
class TableRow:
    t_P: Fraction
    alpha_deg: float
    S2: Fraction


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def damper_rows(cp, t_range: Interval, steps: int) -> list[TableRow]:
    if steps < 2:
        raise OvalkitError("damper table needs at least 2 steps")
    if steps > MAX_TABLE_ROWS:
        raise DeskScopeError(f"{steps} damper table rows exceed the supported {MAX_TABLE_ROWS}")
    interval = cp.curve.interval
    if not (interval.contains(t_range.lo) and interval.contains(t_range.hi)):
        raise OvalkitError(f"the t_P range must lie in the parameter interval [{interval.lo}, {interval.hi}]")
    s2 = quad.free_inlet_function(cp)
    slope = quad.slope_function(cp)
    rows = []
    for k in range(steps):
        t = t_range.lo + (t_range.hi - t_range.lo) * Fraction(k, steps - 1)
        den = slope.den.evaluate(t)
        if den == 0:
            alpha = 90.0
        elif abs(m := slope.num.evaluate(t) / den) <= 1:
            alpha = math.degrees(math.atan(m))
        else:
            # atan(m) = +-90 degrees - atan(1/m), finite where float(m) is not.
            alpha = (90.0 if m > 0 else -90.0) - math.degrees(math.atan(1 / m))
        rows.append(TableRow(t_P=t, alpha_deg=alpha, S2=s2.evaluate(t)))
    return rows


def _damper_csv(rows: list[TableRow]) -> str:
    lines = ["t_P,alpha_deg,S2,S2_exact"]
    for row in rows:
        lines.append(
            f"{_fmt(float(row.t_P))},{_fmt(row.alpha_deg)},{_decimal(row.S2)},{row.S2}"
        )
    return "\n".join(lines) + "\n"


def _svg_plot(xs: list[float], ys: list[float], xlabel: str, ylabel: str) -> str:
    width, height, margin = 640, 480, 60
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x: float) -> float:
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for k in range(5):
        xt = x0 + (x1 - x0) * k / 4
        yt = y0 + (y1 - y0) * k / 4
        parts.append(
            f'<line x1="{sx(xt):.1f}" y1="{height - margin}" x2="{sx(xt):.1f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(xt):.1f}" y="{height - margin + 20}" font-size="11" '
            f'text-anchor="middle">{xt:.3g}</text>'
        )
        parts.append(
            f'<line x1="{margin - 5}" y1="{sy(yt):.1f}" x2="{margin}" y2="{sy(yt):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(yt):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yt:.3g}</text>'
        )
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="2"/>')
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 15}" font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(f'<text x="18" y="{margin - 20}" font-size="13">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_input(args) -> str:
    if args.text:
        return args.text
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return fh.read()
    raise OvalkitError("no input given (use the flag or --in <path>)")


def _curve_from_args(args) -> ParametricCurve:
    return parse_curve_text(_read_input(args))


def _centered_origin(curve: ParametricCurve):
    return validate_centered(curve, ORIGIN)


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _decimal(value: Fraction) -> str:
    """The decimal of value to 12 significant digits: that of the float
    where a float holds value at full precision, and rounded from the
    Fraction where the float would overflow or lose digits."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not value or sys.float_info.min <= abs(x) < math.inf:
        return _fmt(x)
    digits = decimal.Context(prec=12).divide(decimal.Decimal(value.numerator), value.denominator)
    return f"{digits.normalize():.12g}"


def _pair(text: str, flag: str, form: str) -> tuple[Fraction, Fraction]:
    """The two rationals of a flag's 'a,b' value."""
    parts = text.split(",")
    if len(parts) != 2:
        raise OvalkitError(f"{flag} expects {form}, not {text!r}")
    return _rational(parts[0]), _rational(parts[1])


def _cmd_parse(args) -> int:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    poly = parse_polynomial(_read_input(args), variables)
    print(render_polynomial(poly))
    return 0


def _cmd_implicitize(args) -> int:
    curve = _curve_from_args(args)
    try:
        convex = curves_mod.convexity_probe(curve)
    except ArithmeticError as exc:
        # Floats cannot hold the curve's values; the exact equation still exists.
        print(f"warning: numeric convexity probe skipped ({exc})", file=sys.stderr)
        convex = True
    if not convex:
        print("warning: boundary fails a numeric convexity probe", file=sys.stderr)
    print(render_polynomial(curves_mod.implicitize(curve)))
    return 0


def _cmd_puiseux(args) -> int:
    poly = parse_polynomial(_read_input(args), ("x", "y"))
    series = expand_branch(poly, args.terms)
    text = render_series(series)
    if not series.is_exact:
        text += " + ..."
    print(text)
    return 0


def _cmd_singular(args) -> int:
    poly = parse_polynomial(_read_input(args), ("x", "y"))
    points = curves_mod.rational_singular_points(poly)
    if not points:
        print("no rational singular points")
    for p in points:
        print(f"({p.x}, {p.y})")
    return 0


def _cmd_area(args) -> int:
    curve = _curve_from_args(args)
    if args.chord is not None:
        cp = _centered_origin(curve)
        result = quad.origin_chord_segment_area(cp, _rational(args.chord))
    elif args.vertical is not None:
        t1, t2 = _pair(args.vertical, "--vertical", "t1,t2")
        cp = _centered_origin(curve)
        result = quad.vertical_segment_area(cp, t1, t2)
    else:
        result = quad.total_area(curve)
    print(f"{result.value} = {_decimal(result.value)}")
    return 0


def _cmd_damper_table(args) -> int:
    curve = _curve_from_args(args)
    cp = _centered_origin(curve)
    t_range = Interval(*_pair(args.range, "--range", "a,b"))
    rows = damper_rows(cp, t_range, args.steps)
    _write_out(args, _damper_csv(rows))
    if args.svg:
        svg = _svg_plot(
            [float(r.t_P) for r in rows], [float(r.S2) for r in rows], "t_P", "S2"
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def _cmd_certify(args) -> int:
    curve = _curve_from_args(args)
    cp = _centered_origin(curve)
    if args.family == "pencil":
        cert = certify_mod.pencil_certificate(cp)
    else:
        cert = certify_mod.vertical_certificate(cp)
    sys.stdout.write(certify_mod.serialize_certificate(cert))
    return 0


def _cmd_verify(args) -> int:
    if args.cert_file:
        with open(args.cert_file, "r", encoding="utf-8") as fh:
            cert_text = fh.read()
    elif args.cert:
        cert_text = args.cert
    else:
        raise OvalkitError("no certificate given (--cert or --cert-file)")
    cert = certify_mod.parse_certificate(cert_text)
    curve = _curve_from_args(args)
    report = certify_mod.verify_certificate(
        cert, curve, n_samples=args.samples, tol=args.tol
    )
    verdict = "PASS" if report.passed else "FAIL"
    print(f"sampled lines: {len(report.values) // 5}")
    print(f"max relative residual: {report.max_relative_residual:.3e}")
    print(f"oracle error estimate: {report.oracle_error:.3e}")
    print(f"tolerance: {report.tolerance:.3e} -> {verdict}")
    return 0 if report.passed else 1


def _input_parser(flag: str, help_text: str, what: str) -> argparse.ArgumentParser:
    """A verb's input: flag, or --in <path> naming a file with the same
    text, not both; _read_input reads whichever is given."""
    parser = argparse.ArgumentParser(add_help=False)
    source = parser.add_mutually_exclusive_group()
    source.add_argument(flag, dest="text", metavar=flag[2:].upper(), help=help_text)
    source.add_argument("--in", dest="infile", metavar="INFILE", help=f"read the {what} from a file")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovalkit",
        description="Exact segment areas, branch expansions and squarability "
        "certificates for algebraic ovals.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    expr = _input_parser("--expr", "polynomial expression", "expression")
    curve_text = _input_parser(
        "--param", "curve text: x=<expr>; y=<expr>; t in [a,b] (or bezier ...)", "curve text"
    )
    implicit = _input_parser("--curve", "implicit polynomial in x and y", "polynomial")

    p = sub.add_parser("parse", parents=[expr], help="parse a polynomial and print its canonical form")
    p.add_argument("--vars", default="x,y", help="comma-separated variable order")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("implicitize", parents=[curve_text], help="implicit equation of a parametric curve")
    p.set_defaults(func=_cmd_implicitize)

    p = sub.add_parser("puiseux", parents=[implicit], help="fractional power-series branch at the origin")
    p.add_argument("--terms", type=int, default=5, help="number of series terms")
    p.set_defaults(func=_cmd_puiseux)

    p = sub.add_parser("singular", parents=[implicit], help="rational singular points of an implicit curve")
    p.set_defaults(func=_cmd_singular)

    p = sub.add_parser("area", parents=[curve_text], help="exact total or segment area")
    segment = p.add_mutually_exclusive_group()
    segment.add_argument("--chord", help="chord parameter t0 (origin-centered curves)")
    segment.add_argument("--vertical", help="parameters t1,t2 of a vertical-line segment (--vertical=t1,t2)")
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("damper-table", parents=[curve_text], help="free-section table S2(t_P) as CSV")
    p.add_argument("--range", required=True, help="t_P range as 'a,b' (rationals; --range=a,b when a is negative)")
    p.add_argument("--steps", type=int, required=True, help="number of rows")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--svg", help="also write an SVG plot of S2 vs t_P")
    p.set_defaults(func=_cmd_damper_table)

    p = sub.add_parser("certify", parents=[curve_text], help="generate a squarability certificate")
    p.add_argument(
        "--family",
        choices=("pencil", "vertical"),
        default="pencil",
        help="line family: chords through the center, or vertical lines",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", parents=[curve_text], help="verify a certificate against sampled areas")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--cert", help="certificate text (polynomial + roles line)")
    source.add_argument("--cert-file", help="read the certificate from a file")
    p.add_argument("--samples", type=int, default=50, help="number of sampled lines")
    p.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with warnings.catch_warnings():
            # A warning is one line on stderr, as every other message is.
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    # A Warning is caught where warnings are raised as errors (-W error).
    except (OvalkitError, ValueError, ArithmeticError, OSError, Warning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs, job pools and output checks for the four benchmark workloads.

Everything here that generates inputs is plain Python on `Fraction`s and
produces curve *text*; ovalkit only ever receives that text. Checks run
outside the timed interval of each job and raise `CheckFailure`. Pools and
checks take the imported ovalkit package as `ovk` and call through its
attributes, so a traced run sees the rebound functions.

Workloads (each a closed loop with one client; one job is one verb-level
call on one curve):

- ``vertical-cert``: ``vertical_certificate`` on the cubic fixture and on
  seeded cubic loops. Resultant determinants dominate; an elimination or
  determinant change must show here.
- ``singular-branch``: ``implicitize``, ``rational_singular_points`` and
  ``expand_branch`` per curve, on the apple sextic and quartic fixtures,
  seeded quartic loops and a minority of seeded sextic loops. Rational-root
  search dominates; the sextic loops' singular jobs are refused with
  ``DeskScopeError`` at the seed commit and stay in the pool.
- ``pencil-verify``: ``pencil_certificate`` then ``verify_certificate``
  per curve. The numpy clipping oracle dominates; elimination and root
  changes should leave it alone.
- ``cli-verbs``: each of the 8 CLI verbs once per pass as its own
  ``ovalkit`` process. Interpreter start, import and parsing dominate.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Fixed curves, copied as text from tests/conftest.py.
QUARTIC_TEXT = "y^4-2*x*y^2-x^3+x^2"
CUBIC_TEXT = "x^3+y^3+3*(x^2*y-x*y+x*y^2)"
QUARTIC_PARAM = "x=(t^2-1)^2; y=t^3-t; t in [-1,1]"
CUBIC_PARAM = "x=3*(1-t)^2*t; y=3*(1-t)*t^2; t in [0,1]"
APPLE_BEZIER = "bezier (0,0) (-3,0) (-1,2) (0,2) (1,2) (3,0) (0,0)"
# CUBIC_PARAM is the Bezier loop with these inner control points.
CUBIC_CONTROL = ((1, 0), (0, 1))

# Values the acceptance tests pin for the quartic fixture.
QUARTIC_SERIES_HEAD = (
    (Fraction(1, 2), Fraction(1)),
    (Fraction(1), Fraction(1, 2)),
    (Fraction(3, 2), Fraction(-1, 8)),
    (Fraction(2), Fraction(1, 16)),
    (Fraction(5, 2), Fraction(-5, 128)),
)

WORKLOADS = ("vertical-cert", "singular-branch", "pencil-verify", "cli-verbs")

# Pool sizes. At the seed commit a pass takes ~2 s (cli-verbs), ~3 s
# (pencil-verify), ~9 s (singular-branch) and ~25 s (vertical-cert), so a
# 20 s run covers whole passes. singular-branch keeps to 2 quartic loops and
# 1 sextic loop so that a run usually gets two passes; each further sextic
# loop adds a ~2.5 s refusal and more seeds on which the slow divisor
# enumeration swings the run's time and peak memory (see README.md).
VERTICAL_LOOPS = 3
SINGULAR_QUARTIC_LOOPS = 2
SINGULAR_SEXTIC_LOOPS = 1
PENCIL_LOOPS = 3
VERTICAL_PAIRS = 3
QUARTIC_FIXTURE_TERMS = 20
APPLE_TERMS = 5
QUARTIC_LOOP_TERMS = 10
VERIFY_LINES = 50
CLI_VERIFY_LINES = 10
TOL = 1e-6


class CheckFailure(Exception):
    """An output did not pass its check."""


# -- exact univariate helpers (ascending coefficient lists) -------------


def _trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmod(a: list, b: list) -> list:
    a = _trim(a)
    b = _trim(b)
    while len(a) >= len(b):
        q = Fraction(a[-1]) / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _trim(a)
    return a


def _pgcd_degree(a: list, b: list) -> int:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(a, b)
    return len(a) - 1


def _peval(p, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def bezier_power_basis(points) -> tuple[list[int], list[int]]:
    """Power-basis coefficients (ascending) of a Bezier curve's x and y."""
    n = len(points) - 1
    xs, ys = [], []
    for k in range(n + 1):
        cx = cy = 0
        for i in range(k + 1):
            w = math.comb(n, k) * math.comb(k, i) * (-1) ** (k - i)
            cx += w * points[i][0]
            cy += w * points[i][1]
        xs.append(cx)
        ys.append(cy)
    return xs, ys


def _is_proper_loop(points) -> bool:
    """Polynomial map t -> (x, y) is injective away from finitely many
    parameters, and the loop meets the origin only at t = 0 and t = 1."""
    xs, ys = bezier_power_basis(points)
    for s in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)):
        dx = [c - (_peval(xs, s) if i == 0 else 0) for i, c in enumerate(xs)]
        dy = [c - (_peval(ys, s) if i == 0 else 0) for i, c in enumerate(ys)]
        if _pgcd_degree(dx, dy) == 1:
            break
    else:
        return False
    # x and y vanish at t = 0 and t = 1; any further common root is an
    # extra pass through the origin.
    return _pgcd_degree(xs, ys) <= 2


def _full_degree(points) -> bool:
    """Both coordinates have the Bezier curve's full degree. A lower-degree
    coordinate changes the Sylvester sizes, and with them the cost of a job
    several-fold, so it would make a job's cost depend on the seed."""
    xs, ys = bezier_power_basis(points)
    return xs[-1] != 0 and ys[-1] != 0


def bezier_text(points) -> str:
    return "bezier " + " ".join(f"({x},{y})" for x, y in points)


@dataclass(frozen=True)
class Loop:
    """A Bezier loop through the origin; its implicit degree is its Bezier
    degree (both coordinates have full degree and the map is proper)."""

    control: tuple[tuple[int, int], ...]

    @property
    def text(self) -> str:
        return bezier_text(self.control)

    @property
    def degree(self) -> int:
        return len(self.control) - 1


def cubic_loop(rng: random.Random) -> Loop:
    """(0,0) P1 P2 (0,0) with P1.x >= 1, P2.x >= 0, P1 and P2 not collinear
    with the origin: a centered oval (x > 0 inside the parameter range)."""
    while True:
        p1 = (rng.randint(1, 3), rng.randint(-3, 3))
        p2 = (rng.randint(0, 3), rng.randint(-3, 3))
        control = ((0, 0), p1, p2, (0, 0))
        if p1[0] * p2[1] - p1[1] * p2[0] != 0 and _full_degree(control):
            return Loop(control)


def node_loop(rng: random.Random, degree: int) -> Loop:
    """Bezier loop of the given degree with a node at the origin whose two
    tangents have distinct rational slopes, at least one positive, so the
    positive branch is a graph y(x) with rational coefficients."""
    while True:
        inner = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(degree - 1)]
        first, last = inner[0], inner[-1]
        if first[0] == 0 or last[0] == 0:
            continue
        s1, s2 = Fraction(first[1], first[0]), Fraction(last[1], last[0])
        if s1 == s2 or max(s1, s2) <= 0:
            continue
        control = ((0, 0), *inner, (0, 0))
        if _full_degree(control) and _is_proper_loop(control):
            return Loop(control)


def vertical_pairs(control, rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    """Rational (t1, t2) with 0 < t1 < t2 < 1 and x(t1) = x(t2) on a cubic loop.

    (x(t1) - x(t2)) / (t1 - t2) = 0 is a conic through (0, 1); the line
    t2 = 1 + k*t1 meets it once more at a rational t1.
    """
    xs, _ = bezier_power_basis(control)
    _, _, b, c = (Fraction(v) for v in xs)
    slopes = [Fraction(-p, q) for q in range(1, 12) for p in range(1, 4 * q) if math.gcd(p, q) == 1]
    rng.shuffle(slopes)
    pairs = []
    for k in slopes:
        if c == 0:
            # Quadratic abscissa: the conic is the line t1 + t2 = 1 itself.
            t1 = -k / (1 - k) / 2
            t2 = 1 - t1
        else:
            t1 = -(b * (1 + k) + c * (1 + 2 * k)) / (c * (1 + k + k * k))
            t2 = 1 + k * t1
        if 0 < t1 < t2 < 1 and (t1, t2) not in pairs:
            if _peval(xs, t1) != _peval(xs, t2):
                raise ArithmeticError(f"x({t1}) != x({t2}) on {control}")
            pairs.append((t1, t2))
        if len(pairs) == count:
            return sorted(pairs)
    raise ValueError(f"found only {len(pairs)} vertical pairs for {control}")


# -- jobs --------------------------------------------------------------


@dataclass
class Job:
    """One verb-level call on one curve.

    run(state) performs the call and returns its output; state is the
    pass-local dict that chains jobs on the same curve. check(output,
    state) raises CheckFailure and runs outside the timed interval.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], None]


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


def poly_value(poly, assignment, d=None) -> Fraction:
    """Exact value of an ovalkit Polynomial, or of its partial derivative
    in the variable d, read off its public terms."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = Fraction(coeff)
        for var, e in zip(poly.vars, exps):
            if var == d:
                term *= e
                e -= 1
            if e > 0:
                term *= Fraction(assignment[var]) ** e
        total += term
    return total


def check_vertical(ovk, cp, curve, control, pairs, cert):
    """Q(S, c) = 0 exactly at every pair, and the oracle accepts Q."""
    area_var = cert.area_var
    abscissa_var = next(v for v, r in cert.roles.items() if r == "abscissa")
    xs, _ = bezier_power_basis(control)
    for t1, t2 in pairs:
        S = ovk.vertical_segment_area(cp, t1, t2).signed_value
        value = poly_value(cert.q, {area_var: S, abscissa_var: _peval(xs, t1)})
        _require(value == 0, f"Q(S, c) = {value} at (t1, t2) = ({t1}, {t2})")
    report = ovk.verify_certificate(cert, curve, n_samples=VERIFY_LINES, tol=TOL)
    _require(report.passed, f"oracle residual {report.max_relative_residual:.3e} > {TOL}")


def check_implicit(ovk, curve, degree, F, pinned=None):
    residual = ovk.on_curve_residual(F, curve)
    _require(residual.num.is_zero, "the parametrization does not lie on F = 0")
    _require(F.total_degree() == degree, f"total degree {F.total_degree()}, expected {degree}")
    if pinned is not None:
        expected = ovk.parse_polynomial(pinned, ("x", "y"))
        _require(F == expected or F == -expected, f"F = {F}, expected +-({pinned})")


def check_singular(F, points, expected=None):
    _require((0, 0) in [(p.x, p.y) for p in points], "the origin is not among the singular points")
    for p in points:
        at = {"x": p.x, "y": p.y}
        _require(
            poly_value(F, at) == poly_value(F, at, "x") == poly_value(F, at, "y") == 0,
            f"({p.x}, {p.y}) is not a singular point",
        )
    if expected is not None:
        _require([(p.x, p.y) for p in points] == expected, f"singular set {points}")


def check_branch(ovk, F, terms, series, head=None, ramification=None):
    order = ovk.residual_order(F, series)
    _require(order == series.truncation_order, f"residual order {order} != {series.truncation_order}")
    _require(len(series.terms) == terms or series.is_exact, f"{len(series.terms)} terms, expected {terms}")
    if head is not None:
        _require(series.terms[: len(head)] == head, f"series head {series.terms[: len(head)]}")
    if ramification is not None:
        _require(series.ramification == ramification, f"ramification {series.ramification}")


def check_pencil(ovk, cp, cert):
    S = ovk.RationalFunction(ovk.quadrature.chord_area_function(cp))
    m = ovk.quadrature.slope_function(cp)
    roles = {r: v for v, r in cert.roles.items()}
    residual = ovk.annihilation_residual(cert, {roles["area"]: S, roles["slope"]: m})
    _require(residual.num.is_zero, "Q does not annihilate the exact (S, m) relation")


def check_report(report, lines):
    _require(report.passed, f"oracle residual {report.max_relative_residual:.3e} > {report.tolerance}")
    _require(len(report.samples) == lines, f"{len(report.samples)} lines sampled, expected {lines}")


def run_cli_in_process(ovk, args: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the CLI run inside this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ovk.cli.main(list(args))
    return code, out.getvalue()


def check_cli(expected, output):
    code, stdout = output
    _require(code == 0, f"exit code {code}")
    _require(stdout == expected[1] and expected[0] == 0, f"stdout {stdout!r} != in-process {expected[1]!r}")


# -- pools ---------------------------------------------------------------


def _in_process_curves(ovk, texts):
    return {name: ovk.cli.parse_curve_text(text) for name, text in texts.items()}


def vertical_pool(ovk, seed: int) -> list[Job]:
    rng = random.Random(f"vertical-cert/{seed}")
    controls = {"cubic": ((0, 0), *CUBIC_CONTROL, (0, 0))}
    texts = {"cubic": CUBIC_PARAM}
    for i in range(VERTICAL_LOOPS):
        loop = cubic_loop(rng)
        controls[f"loop{i + 1}"] = loop.control
        texts[f"loop{i + 1}"] = loop.text
    curves = _in_process_curves(ovk, texts)
    jobs = []
    for name, curve in curves.items():
        cp = ovk.validate_centered(curve, ovk.curves.Point(0, 0))
        pairs = vertical_pairs(controls[name], rng, VERTICAL_PAIRS)
        jobs.append(
            Job(
                f"vertical_certificate:{name}",
                lambda state, cp=cp: ovk.vertical_certificate(cp),
                lambda cert, state, cp=cp, c=curve, ctl=controls[name], pr=pairs: check_vertical(
                    ovk, cp, c, ctl, pr, cert
                ),
            )
        )
    return jobs


def singular_pool(ovk, seed: int) -> list[Job]:
    rng = random.Random(f"singular-branch/{seed}")
    # The acceptance tests pin the quartic fixture's outputs.
    quartic_pins = {
        "implicit": QUARTIC_TEXT,
        "singular": [(0, 0)],
        "head": QUARTIC_SERIES_HEAD,
        "ramification": 2,
    }
    # (name, text, implicit degree, branch terms or None, pinned outputs)
    specs = [
        ("apple", APPLE_BEZIER, 6, APPLE_TERMS, {}),
        ("quartic", QUARTIC_PARAM, 4, QUARTIC_FIXTURE_TERMS, quartic_pins),
    ]
    for i in range(SINGULAR_QUARTIC_LOOPS):
        loop = node_loop(rng, 4)
        specs.append((f"quartic-loop{i + 1}", loop.text, loop.degree, QUARTIC_LOOP_TERMS, {}))
    for i in range(SINGULAR_SEXTIC_LOOPS):
        loop = node_loop(rng, 6)
        specs.append((f"sextic-loop{i + 1}", loop.text, loop.degree, None, {}))
    curves = _in_process_curves(ovk, {name: text for name, text, *_ in specs})
    jobs = []
    for name, _, degree, terms, pins in specs:
        curve = curves[name]

        def implicit(state, curve=curve, name=name):
            state[name] = F = ovk.implicitize(curve)
            return F

        jobs.append(
            Job(
                f"implicitize:{name}",
                implicit,
                lambda F, state, curve=curve, degree=degree, pins=pins: check_implicit(
                    ovk, curve, degree, F, pins.get("implicit")
                ),
            )
        )
        jobs.append(
            Job(
                f"rational_singular_points:{name}",
                lambda state, name=name: ovk.rational_singular_points(state[name]),
                lambda pts, state, name=name, pins=pins: check_singular(state[name], pts, pins.get("singular")),
            )
        )
        if terms is not None:
            jobs.append(
                Job(
                    f"expand_branch:{name}",
                    lambda state, name=name, terms=terms: ovk.expand_branch(state[name], terms),
                    lambda s, state, name=name, terms=terms, pins=pins: check_branch(
                        ovk, state[name], terms, s, pins.get("head"), pins.get("ramification")
                    ),
                )
            )
    return jobs


def pencil_pool(ovk, seed: int) -> list[Job]:
    rng = random.Random(f"pencil-verify/{seed}")
    texts = {"cubic": CUBIC_PARAM, "quartic": QUARTIC_PARAM}
    for i in range(PENCIL_LOOPS):
        texts[f"loop{i + 1}"] = cubic_loop(rng).text
    curves = _in_process_curves(ovk, texts)
    jobs = []
    for name, curve in curves.items():
        cp = ovk.validate_centered(curve, ovk.curves.Point(0, 0))

        def certify(state, cp=cp, name=name):
            state[name] = cert = ovk.pencil_certificate(cp)
            return cert

        jobs.append(
            Job(f"pencil_certificate:{name}", certify, lambda cert, state, cp=cp: check_pencil(ovk, cp, cert))
        )
        jobs.append(
            Job(
                f"verify_certificate:{name}",
                lambda state, name=name, curve=curve: ovk.verify_certificate(
                    state[name], curve, n_samples=VERIFY_LINES, tol=TOL
                ),
                lambda report, state: check_report(report, VERIFY_LINES),
            )
        )
    return jobs


def cli_argvs(seed: int) -> list[list[str]]:
    """The 8 verbs of one cli-verbs pass; the verify certificate is a
    placeholder filled from the certify job's output in the same pass."""
    rng = random.Random(f"cli-verbs/{seed}")
    loop = cubic_loop(rng).text
    a, b, c = (rng.randint(1, 9) for _ in range(3))
    t0 = Fraction(rng.randint(1, 9), 10)
    lo = Fraction(rng.randint(1, 4), 10)
    hi = lo + Fraction(rng.randint(2, 5), 10)
    return [
        ["parse", "--expr", f"(y^2-{a}*x)^2-{b}*x^3+{c}*x*y", "--vars", "x,y"],
        ["implicitize", "--param", loop],
        ["puiseux", "--curve", QUARTIC_TEXT, "--terms", str(rng.randint(4, 8))],
        ["singular", "--curve", rng.choice([QUARTIC_TEXT, CUBIC_TEXT])],
        ["area", "--param", loop, "--chord", str(t0)],
        ["damper-table", "--param", loop, "--range", f"{lo},{hi}", "--steps", str(rng.randint(3, 6))],
        ["certify", "--param", loop, "--family", "pencil"],
        ["verify", "--cert", "", "--param", loop, "--samples", str(CLI_VERIFY_LINES), "--tol", str(TOL)],
    ]


def cli_pool(ovk, seed: int, run_cli: Callable[[list[str]], tuple[int, str]]) -> list[Job]:
    """run_cli(args) runs one ovalkit process and returns (exit code, stdout)."""
    expected: dict[tuple[str, ...], tuple[int, str]] = {}

    def args_for(base, state):
        if base[0] != "verify":
            return base
        args = list(base)
        args[args.index("--cert") + 1] = state["certify"][1]
        return args

    def check(output, state, base):
        args = tuple(args_for(base, state))
        if args not in expected:
            expected[args] = run_cli_in_process(ovk, list(args))
        check_cli(expected[args], output)

    jobs = []
    for base in cli_argvs(seed):

        def run(state, base=base):
            state[base[0]] = out = run_cli(args_for(base, state))
            return out

        jobs.append(Job(f"cli:{base[0]}", run, lambda out, state, base=base: check(out, state, base)))
    return jobs

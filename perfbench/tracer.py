"""Outside-in span recorder for the traced benchmark run.

ovalkit carries no tracing of its own, so this module wraps its public
functions from outside and rebinds every module attribute that refers to
them (``ovalkit.curves.resultant``, ``ovalkit.certify.clip_polygon_halfplane``,
the package namespace, ...), which covers every call site inside the
package. Nothing under ``src/`` is edited.

Each call of a wrapped function records a span: name, start, end, parent
and job id. The two hot public methods ``Polynomial.subs`` and
``UnivariatePolynomial.evaluate`` run up to ~10^6 times per job, so they are
counted against the innermost open span instead of getting spans of their
own; their time stays in that span's self time. Spans stay in memory and
are written out when the run ends.

Size counters come from probes that read a call's arguments and result
through public API. A probe runs after its span has closed and its time is
subtracted from every enclosing span and from the job, so probes do not
inflate self times or ``unattributed_s``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

MODULES = (
    "ovalkit",
    "ovalkit.algebra",
    "ovalkit.parsing",
    "ovalkit.elimination",
    "ovalkit.curves",
    "ovalkit.puiseux",
    "ovalkit.quadrature",
    "ovalkit.certify",
    "ovalkit.cli",
)

# unit -> (defining module, public functions). A unit is a layer, named
# after its module, or a named part of one ("algebra.roots"); the layer is
# the part before the dot. Names a later version no longer has are skipped.
UNITS = {
    "parsing": (
        "ovalkit.parsing",
        (
            "parse_polynomial",
            "parse_rational_function",
            "render_polynomial",
            "render_rational_function",
        ),
    ),
    "algebra": (
        "ovalkit.algebra",
        (
            "squarefree_part",
            "sturm_chain",
            "sturm_count_roots",
            "substitute_rational",
            "pure_variable_content",
        ),
    ),
    "algebra.roots": (
        "ovalkit.algebra",
        ("rational_roots",),
    ),
    "algebra.gcd": (
        "ovalkit.algebra",
        ("gcd_univariate",),
    ),
    "elimination": (
        "ovalkit.elimination",
        (
            "sylvester_matrix",
            "resultant",
            "det_interpolated",
            "det_bareiss",
            "det_cofactor",
            "eliminate_two",
            "primitive_squarefree",
        ),
    ),
    "curves": (
        "ovalkit.curves",
        (
            "bezier_to_parametric",
            "validate_centered",
            "implicitize",
            "on_curve_residual",
            "is_singular_at",
            "rational_singular_points",
            "convexity_probe",
        ),
    ),
    "puiseux": (
        "ovalkit.puiseux",
        ("newton_polygon", "branch_starts", "expand_branch", "residual_order", "render_series"),
    ),
    "quadrature.exact": (
        "ovalkit.quadrature",
        (
            "total_area",
            "orientation",
            "chord_area_function",
            "origin_chord_segment_area",
            "vertical_area_parts",
            "vertical_segment_area",
            "free_inlet_function",
            "slope_function",
            "segment_area",
        ),
    ),
    "quadrature.oracle": (
        "ovalkit.quadrature",
        ("sample_boundary", "clip_polygon_halfplane", "shoelace_area", "numeric_segment_area"),
    ),
    "certify": (
        "ovalkit.certify",
        (
            "pencil_certificate",
            "vertical_certificate",
            "annihilation_residual",
            "verify_certificate",
            "serialize_certificate",
            "parse_certificate",
        ),
    ),
    "cli": (
        "ovalkit.cli",
        ("main", "parse_curve_text", "damper_rows", "emit_damper_table"),
    ),
}

# Counted, not spanned: (module, class, method).
METHODS = (
    ("ovalkit.algebra", "Polynomial", "subs"),
    ("ovalkit.algebra", "UnivariatePolynomial", "evaluate"),
)

# Prefix of the stderr line on which a traced CLI process reports its spans.
TRACE_MARK = "PERFBENCH-TRACE "

LAYERS = ("elimination", "algebra", "puiseux", "curves", "quadrature", "certify", "parsing", "cli")


def _coeff_bits(coeffs) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs), default=0)


# -- probes: (recorder, args, kwargs, result) -> None -------------------


def _probe_sylvester(rec, args, kwargs, matrix):
    rec.maxes["elimination.sylvester_size_max"] = max(rec.maxes["elimination.sylvester_size_max"], matrix.size)


def _probe_resultant(rec, args, kwargs, res):
    f, g, var = args[:3]
    matrix = rec.original("ovalkit.elimination", "sylvester_matrix")(f, g, var)
    if res.is_zero:
        return
    remaining = {v for row in matrix.entries for e in row for v in e.used_vars()}
    for v in remaining:
        # Row-wise degree bound: the determinant's degree in v is at most
        # the sum over rows of the largest entry degree in that row.
        rec.sums["elimination.degree_bound"] += sum(max(e.degree_in(v) for e in row) for row in matrix.entries)
        rec.sums["elimination.degree_actual"] += max(res.degree_in(v), 0)
    bits = _coeff_bits(res.terms.values())
    rec.maxes["elimination.coeff_bits_max"] = max(rec.maxes["elimination.coeff_bits_max"], bits)


def _probe_roots(rec, args, kwargs, roots):
    rec.sums["algebra.roots_found"] += len(roots)
    bits = _coeff_bits(args[0].coeffs)
    rec.maxes["algebra.roots_coeff_bits_max"] = max(rec.maxes["algebra.roots_coeff_bits_max"], bits)


def _probe_branch(rec, args, kwargs, series):
    rec.sums["puiseux.terms"] += len(series.terms)
    rec.maxes["puiseux.ramification_max"] = max(rec.maxes["puiseux.ramification_max"], series.ramification)


def _probe_clip(rec, args, kwargs, out):
    points = args[0]
    rec.sums["quadrature.oracle_vertices"] += len(points)
    # Computed from array sizes: the input polygon read plus the clipped
    # polygon written; temporaries and cache misses are not counted.
    rec.sums["quadrature.oracle_bytes_computed"] += points.nbytes + out.nbytes


def _probe_verify(rec, args, kwargs, report):
    rec.sums["certify.lines_sampled"] += len(report.samples)


def _probe_certificate(rec, args, kwargs, cert):
    rec.sums["certify.q_terms"] += len(cert.q.terms)
    rec.maxes["certify.q_degree_max"] = max(rec.maxes["certify.q_degree_max"], cert.q.total_degree())


PROBES = {
    "sylvester_matrix": _probe_sylvester,
    "resultant": _probe_resultant,
    "rational_roots": _probe_roots,
    "expand_branch": _probe_branch,
    "clip_polygon_halfplane": _probe_clip,
    "verify_certificate": _probe_verify,
    "pencil_certificate": _probe_certificate,
    "vertical_certificate": _probe_certificate,
}


class Recorder:
    """Span recorder; install() rebinds ovalkit, uninstall() restores it.

    Only calls made between begin_job() and end_job() are recorded; outside
    a job every wrapper passes straight through.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, unit, start, end, dur, parent, job, error]
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.maxes: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []  # open frames: [span index, unit, excluded seconds]
        self._job = None
        self._job_excluded = 0.0
        self._originals: dict[tuple[str, str], object] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------

    def original(self, module: str, name: str):
        return self._originals[(module, name)]

    def install(self) -> "Recorder":
        modules = [importlib.import_module(m) for m in MODULES]
        for unit, (home, names) in UNITS.items():
            home_mod = importlib.import_module(home)
            for name in names:
                fn = getattr(home_mod, name, None)
                if fn is None:
                    continue
                self._originals[(home, name)] = fn
                wrapper = self._wrap(fn, f"{home}.{name}", unit, PROBES.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, attr, wrapper)
        for home, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(home), cls_name)
            self._rebind(cls, meth, self._counter(getattr(cls, meth), meth))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._rebound):
            setattr(owner, attr, value)
        self._rebound.clear()

    def _rebind(self, owner, attr, new):
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name, unit, probe):
        rec = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if rec._job is None:
                return fn(*args, **kwargs)
            stack = rec._stack
            index = len(rec.spans)
            parent = stack[-1][0] if stack else -1
            rec.spans.append([name, unit, 0.0, 0.0, 0.0, parent, rec._job, None])
            frame = [index, unit, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                rec._close(frame, start, end, type(exc).__name__)
                raise
            end = clock()
            rec._close(frame, start, end, None)
            if probe is not None:
                probe(rec, args, kwargs, result)
                rec.exclude(clock() - end)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _counter(self, fn, meth):
        rec = self

        def method(obj, *args, **kwargs):
            if rec._job is not None:
                rec.counts[(meth, rec._stack[-1][1] if rec._stack else "")] += 1
            return fn(obj, *args, **kwargs)

        method.__wrapped__ = fn
        method.__name__ = fn.__name__
        return method

    def _close(self, frame, start, end, error):
        self._stack.pop()
        span = self.spans[frame[0]]
        span[2], span[3], span[4], span[7] = start, end, end - start - frame[2], error
        self.exclude(frame[2])

    def exclude(self, seconds):
        """Charge time that is not the program's (a probe, a speed-meter
        slice) to the innermost open frame, or to the job."""
        if self._stack:
            self._stack[-1][2] += seconds
        else:
            self._job_excluded += seconds

    # -- jobs ----------------------------------------------------------

    def begin_job(self, job_id: int):
        self._job = job_id
        self._job_excluded = 0.0

    def end_job(self) -> float:
        """Close the job; returns the excluded time to subtract from its wall time."""
        self._job = None
        self._stack.clear()
        return self._job_excluded

    # -- output --------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "sums": dict(self.sums),
            "maxes": dict(self.maxes),
            "counts": [[m, u, n] for (m, u), n in self.counts.items()],
        }


def summarize(dump: dict) -> dict:
    """Aggregate one process's dump: self time per unit, calls per function,
    failures per layer, covered time per job, and the probe counters."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for name, unit, start, end, dur, parent, job, error in spans:
        if parent >= 0:
            child[parent] += dur
    out = defaultdict(float)
    covered = defaultdict(float)
    for i, (name, unit, start, end, dur, parent, job, error) in enumerate(spans):
        out[f"self_s:{unit}"] += dur - child[i]
        out[f"calls:{name.rsplit('.', 1)[1]}"] += 1
        if error is not None:
            out[f"failed:{unit.split('.')[0]}"] += 1
            out[f"error:{name.rsplit('.', 1)[1]}:{error}"] += 1
        if parent < 0:
            covered[job] += dur
    for meth, unit, n in dump["counts"]:
        out[f"{meth}@{unit}"] += n
    for key, value in dump["sums"].items():
        out[key] += value
    maxes = dict(dump["maxes"])
    return {"sums": dict(out), "maxes": maxes, "covered": {str(k): v for k, v in covered.items()}}


def merge(summaries) -> dict:
    sums = defaultdict(float)
    maxes = defaultdict(float)
    for s in summaries:
        for k, v in s["sums"].items():
            sums[k] += v
        for k, v in s["maxes"].items():
            maxes[k] = max(maxes[k], v)
    return {"sums": sums, "maxes": maxes}


def layer_metrics(merged: dict, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from merged summaries. Sums and counts are per
    traced pass; maxima are over the run."""
    s, m = merged["sums"], merged["maxes"]

    def per_pass(key):
        return s.get(key, 0.0) / passes

    def self_s(*units):
        return sum(per_pass(f"self_s:{u}") for u in units)

    out: dict[str, tuple[float, str]] = {}
    bound, actual = per_pass("elimination.degree_bound"), per_pass("elimination.degree_actual")
    evals = per_pass("evaluate@algebra.roots")
    out.update(
        {
            "elimination.self_s": (self_s("elimination"), "s"),
            "elimination.resultant_calls": (per_pass("calls:resultant"), "count"),
            "elimination.sylvester_size_max": (m.get("elimination.sylvester_size_max", 0), "count"),
            "elimination.det_nodes": (per_pass("calls:det_interpolated"), "count"),
            "elimination.subs_calls": (per_pass("subs@elimination"), "count"),
            "elimination.degree_bound": (bound, "count"),
            "elimination.degree_actual": (actual, "count"),
            "elimination.bound_over_actual": (bound / actual if actual else 0.0, "ratio"),
            "elimination.coeff_bits_max": (m.get("elimination.coeff_bits_max", 0), "bits"),
            "algebra.self_s": (self_s("algebra", "algebra.roots", "algebra.gcd"), "s"),
            "algebra.roots_self_s": (self_s("algebra.roots"), "s"),
            "algebra.roots_calls": (per_pass("calls:rational_roots"), "count"),
            "algebra.roots_found": (per_pass("algebra.roots_found"), "count"),
            "algebra.roots_evals": (evals, "count"),
            "algebra.roots_per_eval": (per_pass("algebra.roots_found") / evals if evals else 0.0, "ratio"),
            "algebra.roots_refused": (per_pass("error:rational_roots:DeskScopeError"), "count"),
            "algebra.roots_coeff_bits_max": (m.get("algebra.roots_coeff_bits_max", 0), "bits"),
            "algebra.gcd_self_s": (self_s("algebra.gcd"), "s"),
            "puiseux.self_s": (self_s("puiseux"), "s"),
            "puiseux.terms": (per_pass("puiseux.terms"), "count"),
            "puiseux.subs_calls": (per_pass("subs@puiseux"), "count"),
            "puiseux.ramification_max": (m.get("puiseux.ramification_max", 0), "count"),
            "curves.self_s": (self_s("curves"), "s"),
            "quadrature.exact_self_s": (self_s("quadrature.exact"), "s"),
            "quadrature.oracle_self_s": (self_s("quadrature.oracle"), "s"),
            "quadrature.oracle_clips": (per_pass("calls:clip_polygon_halfplane"), "count"),
            "quadrature.oracle_vertices": (per_pass("quadrature.oracle_vertices"), "count"),
            "quadrature.oracle_bytes_computed": (per_pass("quadrature.oracle_bytes_computed"), "bytes"),
            "certify.self_s": (self_s("certify"), "s"),
            "certify.lines_sampled": (per_pass("certify.lines_sampled"), "count"),
            "certify.q_terms": (per_pass("certify.q_terms"), "count"),
            "certify.q_degree_max": (m.get("certify.q_degree_max", 0), "count"),
            "parsing.self_s": (self_s("parsing"), "s"),
            "parsing.calls": (sum(per_pass(f"calls:{n}") for n in UNITS["parsing"][1]), "count"),
            "cli.self_s": (self_s("cli"), "s"),
        }
    )
    for layer in LAYERS:
        out[f"{layer}.failed"] = (per_pass(f"failed:{layer}"), "count")
    return out


def import_times(python: str, env: dict, runs: int = 3) -> dict[str, tuple[float, str]]:
    """cli.import_s and cli.import_numpy_s: medians of the cumulative times
    `python -X importtime -c "import ovalkit"` reports."""
    import subprocess

    samples = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import ovalkit"],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("ovalkit", "numpy"):
                samples[parts[2]].append(int(parts[1]) / 1e6)
    return {
        "cli.import_s": (statistics.median(samples["ovalkit"]), "s"),
        "cli.import_numpy_s": (statistics.median(samples["numpy"]) if samples["numpy"] else 0.0, "s"),
    }


def write_spans(path, dumps: list[tuple[int, dict]]):
    """One JSON object per span: name, unit, start, end, self-inclusive
    duration, parent index within its process, job id and error."""
    with open(path, "w", encoding="utf-8") as fh:
        for proc, dump in dumps:
            for name, unit, start, end, dur, parent, job, error in dump["spans"]:
                fh.write(
                    json.dumps(
                        {"proc": proc, "name": name, "unit": unit, "start": start, "end": end,
                         "dur": dur, "parent": parent, "job": job, "error": error}
                    )
                    + "\n"
                )

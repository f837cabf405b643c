"""The public surface: the names ovalkit exports and the parameters of the
functions whose variable names are fixed (S, m, c in certificates, x, y in
implicit curves, t in Bezier curves, u in ramified series)."""

import inspect
import types

import ovalkit
import ovalkit.cli as cli
from ovalkit import curves, elimination, puiseux, quadrature

EXPORTS = [
    "AreaResult", "BezierControlPolygon", "CenteredParametrization", "Certificate", "Interval",
    "NewtonPolygonEdge", "OvalkitError", "ParametricCurve", "Point", "Polynomial", "PuiseuxSeries",
    "RationalFunction", "SampleReport", "SupportPoint", "UnivariatePolynomial", "angle_to_parameter",
    "annihilation_residual", "bezier_to_parametric", "expand_branch", "free_inlet_area",
    "free_inlet_function", "gcd_univariate", "implicitize", "is_singular_at", "newton_polygon",
    "numeric_segment_area", "on_curve_residual", "orientation", "origin_chord_segment_area",
    "parse_certificate", "parse_polynomial", "parse_rational_function", "pencil_certificate",
    "rational_roots", "rational_singular_points", "render_polynomial", "render_rational_function",
    "render_series", "residual_order", "resultant", "serialize_certificate", "squarefree_part",
    "sturm_count_roots", "substitute_rational", "tangent_vector", "total_area",
    "univariate_from_polynomial", "validate_centered", "verify_certificate", "vertical_certificate",
    "vertical_segment_area",
]


def test_public_surface():
    exported = sorted(n for n, v in vars(ovalkit).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert exported == EXPORTS and len(exported) == 51
    parameters = {
        ovalkit.implicitize: ["curve"],
        ovalkit.on_curve_residual: ["F", "curve"],
        ovalkit.is_singular_at: ["F", "p"],
        ovalkit.rational_singular_points: ["F"],
        ovalkit.bezier_to_parametric: ["cp"],
        curves.convexity_probe: ["curve"],
        ovalkit.newton_polygon: ["F"],
        ovalkit.expand_branch: ["F", "num_terms"],
        ovalkit.residual_order: ["F", "series"],
        ovalkit.render_series: ["series"],
        ovalkit.PuiseuxSeries.as_ramified_polynomial: ["self"],
        ovalkit.pencil_certificate: ["cp", "area"],
        ovalkit.vertical_certificate: ["cp"],
        elimination.pencil_eliminant: ["s", "a", "b"],
        elimination.vertical_eliminant: ["g", "P", "R"],
        ovalkit.resultant: ["f", "g", "var"],
        ovalkit.total_area: ["curve"],
        ovalkit.univariate_from_polynomial: ["p", "var"],
    }
    for function, names in parameters.items():
        assert list(inspect.signature(function).parameters) == names, function.__qualname__
    for owner, name in (
        (cli, "emit_damper_table"),
        (ovalkit.UnivariatePolynomial, "rename"),
        (ovalkit.Polynomial, "rename_vars"),
        (ovalkit.Point, "__iter__"),
        (quadrature, "slope_of_chord"),
        (puiseux, "branch_starts"),
        (curves, "is_symmetric_swap"),
    ):
        assert not hasattr(owner, name), name
    # Not exported, but the benchmark's tracer still calls it by name.
    assert callable(elimination.sylvester_matrix)

"""Exact symbolic geometry for algebraic ovals: segment areas from rational
parametrizations, Newton-polygon branch expansions, and algebraic
squarability certificates."""

from .algebra import (
    Interval,
    Polynomial,
    RationalFunction,
    UnivariatePolynomial,
    gcd_univariate,
    rational_roots,
    squarefree_part,
    sturm_count_roots,
    substitute_rational,
    univariate_from_polynomial,
)
from .certify import (
    Certificate,
    SampleReport,
    annihilation_residual,
    parse_certificate,
    pencil_certificate,
    serialize_certificate,
    verify_certificate,
    vertical_certificate,
)
from .curves import (
    BezierControlPolygon,
    CenteredParametrization,
    ParametricCurve,
    Point,
    bezier_to_parametric,
    implicitize,
    is_singular_at,
    on_curve_residual,
    rational_singular_points,
    tangent_vector,
    validate_centered,
)
from .elimination import resultant
from .errors import OvalkitError
from .parsing import (
    parse_polynomial,
    parse_rational_function,
    render_polynomial,
    render_rational_function,
)
from .puiseux import (
    NewtonPolygonEdge,
    PuiseuxSeries,
    SupportPoint,
    expand_branch,
    newton_polygon,
    render_series,
    residual_order,
)
from .quadrature import (
    AreaResult,
    angle_to_parameter,
    free_inlet_area,
    free_inlet_function,
    numeric_segment_area,
    orientation,
    origin_chord_segment_area,
    total_area,
    vertical_segment_area,
)

__version__ = "0.1.0"

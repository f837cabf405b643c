from fractions import Fraction

import numpy as np
import pytest

from ovalkit import Interval, parse_polynomial, validate_centered
from ovalkit.cli import parse_curve_text
from ovalkit.curves import Point

QUARTIC_TEXT = "y^4-2*x*y^2-x^3+x^2"
CUBIC_TEXT = "x^3+y^3+3*(x^2*y-x*y+x*y^2)"
SQUARE_TEXT = "x^2*y^2-x^2*y-x*y^2+x*y"

QUARTIC_PARAM = "x=(t^2-1)^2; y=t^3-t; t in [-1,1]"
CUBIC_PARAM = "x=3*(1-t)^2*t; y=3*(1-t)*t^2; t in [0,1]"
APPLE_BEZIER = "bezier (0,0) (-3,0) (-1,2) (0,2) (1,2) (3,0) (0,0)"
# The folium of Descartes, x^3 + y^3 - 3xy = 0, by a rational
# parametrization of its loop; the loop's area is 3/2.
FOLIUM_PARAM = "x=3*t*(1-t)^2/((1-t)^3+t^3); y=3*t^2*(1-t)/((1-t)^3+t^3); t in [0,1]"


@pytest.fixture(scope="session")
def quartic_poly():
    return parse_polynomial(QUARTIC_TEXT, ["x", "y"])


@pytest.fixture(scope="session")
def cubic_poly():
    return parse_polynomial(CUBIC_TEXT, ["x", "y"])


@pytest.fixture(scope="session")
def square_poly():
    return parse_polynomial(SQUARE_TEXT, ["x", "y"])


@pytest.fixture(scope="session")
def quartic_curve():
    return parse_curve_text(QUARTIC_PARAM)


@pytest.fixture(scope="session")
def cubic_curve():
    return parse_curve_text(CUBIC_PARAM)


@pytest.fixture(scope="session")
def apple_curve():
    return parse_curve_text(APPLE_BEZIER)


@pytest.fixture(scope="session")
def folium_curve():
    return parse_curve_text(FOLIUM_PARAM)


@pytest.fixture(scope="session")
def quartic_centered(quartic_curve):
    return validate_centered(quartic_curve, Point(Fraction(0), Fraction(0)))


@pytest.fixture(scope="session")
def cubic_centered(cubic_curve):
    return validate_centered(cubic_curve, Point(Fraction(0), Fraction(0)))


def square_boundary(samples: int = 100_000) -> np.ndarray:
    """Dense counterclockwise polygon tracing the unit square boundary."""
    per = samples // 4
    s = np.linspace(0.0, 1.0, per, endpoint=False)
    bottom = np.column_stack([s, np.zeros(per)])
    right = np.column_stack([np.ones(per), s])
    top = np.column_stack([1.0 - s, np.ones(per)])
    left = np.column_stack([np.zeros(per), 1.0 - s])
    return np.vstack([bottom, right, top, left])


@pytest.fixture(scope="session")
def cubic_valid_range():
    return Interval(Fraction(1, 2), Fraction(1))

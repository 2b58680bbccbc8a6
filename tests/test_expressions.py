import math

import numpy as np
import pytest

from bsmoduli import ExpressionError
from bsmoduli import expressions as ex


def value(text, x, y):
    return ex.evaluate(ex.parse(text), x, y)


@pytest.mark.parametrize(
    "text,x,y,expected",
    [
        ("x", 2.0, 3.0, 2.0),
        ("x + 2*y", 2.0, 3.0, 8.0),
        ("x^2 - y^2", 3.0, 2.0, 5.0),
        ("-x^2", 2.0, 0.0, -4.0),
        ("x*y/2", 4.0, 3.0, 6.0),
        ("sin(pi*x)", 0.5, 0.0, 1.0),
        ("cos(2*pi*x + y)", 1.0, 0.0, 1.0),
        ("2", 0.0, 0.0, 2.0),
        ("(x + y)^3", 1.0, 1.0, 8.0),
        ("x^-1", 4.0, 0.0, 0.25),
    ],
)
def test_evaluate(text, x, y, expected):
    assert value(text, x, y) == pytest.approx(expected, rel=1e-14)


def test_vectorized_evaluation():
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(0, 2, 7)
    got = value("x^2 + sin(y)", xs, ys)
    assert np.allclose(got, xs**2 + np.sin(ys), atol=1e-15)


@pytest.mark.parametrize(
    "bad",
    ["", "x +", "sin(x*y)", "sin(x^2)", "x ^ y", "z + 1", "x**2", "(x", "x + (y))", "cos()"],
)
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        ex.parse(bad)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    for text in ["x^2*y - y^3", "sin(2*x - y)*x", "x*y + cos(pi*y)", "(x+y)^4/3"]:
        node = ex.parse(text)
        dx = ex.differentiate(node, "x")
        dy = ex.differentiate(node, "y")
        for _ in range(5):
            x, y = rng.uniform(-1.5, 1.5, 2)
            h = 1e-5
            fd_x = (ex.evaluate(node, x + h, y) - ex.evaluate(node, x - h, y)) / (2 * h)
            fd_y = (ex.evaluate(node, x, y + h) - ex.evaluate(node, x, y - h)) / (2 * h)
            assert ex.evaluate(dx, x, y) == pytest.approx(fd_x, rel=1e-7, abs=1e-8)
            assert ex.evaluate(dy, x, y) == pytest.approx(fd_y, rel=1e-7, abs=1e-8)


def test_linear_coefficients():
    assert ex.linear_coefficients(ex.parse("2*x - 3*y + 1")) == (2.0, -3.0, 1.0)
    assert ex.linear_coefficients(ex.parse("x*y")) is None
    a, b, c = ex.linear_coefficients(ex.parse("pi*x"))
    assert a == pytest.approx(math.pi)


def test_poisson_node_canonical_pair():
    node = ex.poisson_node(ex.parse("x"), ex.parse("y"))
    assert ex.evaluate(node, 0.7, -0.4) == pytest.approx(1.0)


def test_poisson_node_with_density():
    w = ex.parse("2")
    node = ex.poisson_node(ex.parse("x"), ex.parse("y"), w)
    assert ex.evaluate(node, 1.0, 1.0) == pytest.approx(0.5)


def test_trig_frequencies_and_degree():
    node = ex.parse("x^2*y + sin(2*x + 3*y)")
    assert ex.polynomial_degree(node) == 3
    assert ex.trig_frequencies(node) == [(2.0, 3.0)]

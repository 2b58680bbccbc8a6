import math
import operator
import re
import warnings

import numpy as np
import pytest

from bsmoduli import ExpressionError, ScalarField, SymplecticSurface, hamiltonian_vector_field
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


X, Y, ZERO = ("var", "x"), ("var", "y"), ("const", 0.0)


@pytest.mark.parametrize("text, tree", [
    ("-x", ("sub", ZERO, X)),
    ("+-+x", ("sub", ZERO, X)),
    ("-x*y^2", ("mul", ("sub", ZERO, X), ("pow", Y, 2))),
    ("x - -y", ("sub", X, ("sub", ZERO, Y))),
    ("x^ - 2", ("pow", X, -2)),
    ("x^2.0", ("pow", X, 2)),
    ("(x)^-0", ("pow", X, 0)),
    ("x^02", ("pow", X, 2)),
    (".5", ("const", 0.5)),
    ("5.", ("const", 5.0)),
    ("5.e1", ("const", 50.0)),
    ("007.50", ("const", 7.5)),
    ("1e400", ("const", math.inf)),
    ("pi", ("const", math.pi)),
    ("x/y/2", ("div", ("div", X, Y), ("const", 2.0))),
    ("cos (2*x - y)", ("cos", ("sub", ("mul", ("const", 2.0), X), Y))),
    ("\tx\n+\r\n\u00a0y ", ("add", X, Y)),
])
def test_parse_trees(text, tree):
    # repr tells 2 from 2.0 and 0.0 from -0.0
    assert repr(ex.parse(text)) == repr(tree)


@pytest.mark.parametrize(
    "bad",
    ["", " \t", "x +", "sin(x*y)", "sin(x^2)", "x ^ y", "z + 1", "x**2", "(x", "x + (y))", "cos()",
     "x#c", "x^(2)", "x^-(2)", "x^(-2)", "x^+2", "x^2^3", "x^1e400", "0x1", "1_0", "1j", "True",
     "'x'", "x.real", "x[0]", "sin(x, y)", "sin(x,)", "(sin)(x)", "sin(x=1)", "sin(*x)",
     "x if y else 1", "lambda: x", "(x, y)", "x; y", "x // 2", "x % 2", "x @ y", "not x",
     "\u03c0*x", "\U0001d465", "\u0661", "x\0", "x \\\n+ y", "1if x else 2"],
)
def test_parse_errors(bad):
    with warnings.catch_warnings(record=True) as caught, pytest.raises(ExpressionError):
        warnings.simplefilter("always")
        ex.parse(bad)
    assert caught == []


@pytest.mark.parametrize("text, message", [
    ("x/0", "division by a constant zero"),
    ("y/(2-2)", "division by a constant zero"),
    ("x+0^-1", "division by a constant zero"),
    ("sin(x/0)", "division by a constant zero"),
    ("cos(y*(1/0))", "division by a constant zero"),
    ("x*1e200^2", "constant 1e+200^2 overflows"),
    ("sin(1e400)*x", "constant sin(inf) is not defined"),
    ("x+cos(-1e400)", "constant cos(-inf) is not defined"),
    ("sin(1e308*10)", "constant sin(inf) is not defined"),
])
def test_constant_arithmetic_that_does_not_fold(text, message):
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        ScalarField.from_expression(text)


def test_simplify_names_trig_of_an_infinite_constant():
    # parse already refuses these strings, so simplify sees such a tree only when built directly
    with pytest.raises(ExpressionError, match=r"^constant cos\(inf\) is not defined$"):
        ex.simplify(("mul", ("var", "x"), ("cos", ("const", math.inf))))


@pytest.mark.parametrize("text, c", [("1e400*x", math.inf), ("1e308*10*x", math.inf),
                                     ("x/(1-0.5)", 2.0)])
def test_constants_that_fold_are_kept(text, c):
    f = ScalarField.from_expression(text)
    assert f(1.0, 2.0) == c
    assert f.grad(1.0, 2.0)[0] == c


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


@pytest.mark.parametrize("text, pairs", [
    ("x^2*y + sin(2*x + 3*y)", None),
    ("sin(2*x + 3*y)", [(2.0, 3.0)]),
    ("cos(x)/sin(y - 1)^2 - 3", [(1.0, 0.0), (0.0, 1.0)]),
    ("x^0*cos(y)", [(0.0, 1.0)]),
    ("sin(0.5*x)^0", []),
    ("2", []),
])
def test_trig_frequencies(text, pairs):
    assert ex.trig_frequencies(ex.parse(text)) == pairs


def interpret(node, x, y):
    """The tree walked node by node with numpy, as an oracle for the compiled kernels."""
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        return x if node[1] == "x" else y
    if tag == "pow":
        k = node[2]
        power = np.power(interpret(node[1], x, y), abs(k))
        return 1.0 / power if k < 0 else power
    if tag in ("sin", "cos"):
        return getattr(np, tag)(interpret(node[1], x, y))
    binary = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
    return binary[tag](interpret(node[1], x, y), interpret(node[2], x, y))


# Every grammar form: const, var, add, sub, mul, div, ^k for k > 0 and k < 0,
# sin, cos and unary minus, plus a constant that overflows to inf.
GRAMMAR = ["2.5", "x", "y", "x+y", "x-y", "1.3*x*y", "x/y", "(x-0.7)^3", "x^-2",
           "sin(2*x-y+0.1)", "cos(0.5*y)", "-x", "-(x*y)^2", "1e400*x", "1/(x^2+y^4)"]
GRID = np.concatenate([[-0.0, 0.0, 1e155, -2.5], np.linspace(-2.0, 2.0, 17) + 0.013])


@pytest.mark.parametrize("text", GRAMMAR)
def test_point_and_array_kernels_are_bitwise_equal(text):
    tree = ex.parse(text)
    x, y = (a.ravel() for a in np.meshgrid(GRID, GRID, indexing="ij"))
    point = ex._compile((tree,), True)
    with np.errstate(all="ignore"):
        array = np.broadcast_to(ex.evaluate(tree, x, y), x.shape)
        oracle = np.broadcast_to(interpret(tree, x, y), x.shape)
        for i in range(len(x)):
            try:
                (value,) = point(float(x[i]), float(y[i]))
            except ZeroDivisionError:
                # Python floats raise where numpy divides by zero
                assert not np.isfinite(array[i]), (x[i], y[i])
                continue
            assert type(value) is float
            assert np.float64(value).tobytes() == array[i].tobytes(), (x[i], y[i])
        # a field's one gradient kernel and X_f give what each partial's own tree gives
        field = ScalarField(tree)
        dx = np.broadcast_to(ex.evaluate(field._dx, x, y), x.shape)
        dy = np.broadcast_to(ex.evaluate(field._dy, x, y), x.shape)
        gx, gy = field.grad(x, y)
        xf = hamiltonian_vector_field(field, SymplecticSurface.plane(), np.stack([x, y], -1))
    assert array.tobytes() == oracle.tobytes()
    assert (gx.tobytes(), gy.tobytes()) == (dx.tobytes(), dy.tobytes())
    assert xf[:, 0].tobytes() == dy.tobytes()
    assert xf[:, 1].tobytes() == np.negative(dx).tobytes()


def test_signed_zero_constants_are_kept_apart():
    assert math.copysign(1.0, ex.evaluate(("const", 0.0), 1.0, 1.0)) == 1.0
    assert math.copysign(1.0, ex.evaluate(("const", -0.0), 1.0, 1.0)) == -1.0
    assert math.copysign(1.0, ex.evaluate(("const", 0.0), 1.0, 1.0)) == 1.0


def test_trees_of_one_form_share_their_code():
    one, two = ex.parse("1.5*x^2 - 0.25*y"), ex.parse("3*x^2 - 7e-3*y")
    for scalar in (True, False):
        first, second = ex._compile((one,), scalar), ex._compile((two,), scalar)
        assert first.__code__ is second.__code__
        assert first(2.0, 4.0) == (1.5 * 2.0**2 - 0.25 * 4.0,)
        assert second(2.0, 4.0) == (3.0 * 2.0**2 - 7e-3 * 4.0,)


@pytest.mark.parametrize("text", GRAMMAR)
def test_compiling_a_tree_twice_gives_the_same_bits(text):
    tree = ex.parse(text)
    x, y = (a.ravel() for a in np.meshgrid(GRID, GRID, indexing="ij"))
    point = [ex._compile((tree,), True) for _ in range(2)]
    with np.errstate(all="ignore"):
        first, second = (ex._compile((tree, tree), False)(x, y) for _ in range(2))
        for i in range(0, len(x), 7):
            try:
                values = [np.float64(k(float(x[i]), float(y[i]))[0]).tobytes() for k in point]
            except ZeroDivisionError:
                continue
            assert values[0] == values[1]
    assert [np.broadcast_to(v, x.shape).tobytes() for v in first] == [
        np.broadcast_to(v, x.shape).tobytes() for v in second
    ]


@pytest.mark.parametrize("tree, message", [
    (("exec", ("var", "x")), "unknown expression tag 'exec'"),
    (("add", ("var", "z"), ("const", 1.0)), "unknown variable 'z'"),
    (("pow", ("var", "x"), 1.5), "exponent must be an integer"),
    (("const", "__import__('os')"), "constant must be a number"),
    (("const", object()), "constant must be a number"),
])
def test_compiler_rejects_what_the_grammar_cannot_build(tree, message):
    with pytest.raises(ExpressionError, match=re.escape(message)):
        ex.evaluate(tree, 1.0, 2.0)


def nested(depth):
    """x + x + ... + x as a left-nested tree of the given depth."""
    tree = ("var", "x")
    for _ in range(depth):
        tree = ("add", tree, ("var", "x"))
    return tree


@pytest.mark.parametrize("walk", [
    lambda: ex.parse("(" * 400 + "x" + ")" * 400),
    lambda: ex.parse("sin(" * 300 + "x" + ")" * 300),
    lambda: ex.parse("-" * 100000 + "x"),
    lambda: ex.parse("+".join(["x"] * 100000)),
    lambda: ex.simplify(nested(1200)),
    lambda: ex.differentiate(nested(1200), "x"),
    lambda: ex.evaluate(nested(1200), 1.0, 2.0),
    lambda: ScalarField.from_expression("+".join(["x"] * 1200)),
], ids=["parse", "parse-sin", "parse-minus", "parse-sum", "simplify", "differentiate", "compile",
        "field"])
def test_too_deep_a_tree_is_an_expression_error(walk):
    with pytest.raises(ExpressionError, match="^expression nested too deeply$"):
        walk()


def test_deep_sums_still_build():
    field = ScalarField.from_expression("+".join(["x"] * 400))
    assert field.grad(1.0, 2.0) == (400.0, 0.0)
    assert field(0.5, 2.0) == 200.0


def quotient_rule(node, var):
    """The derivative with the quotient rule at every division, constant divisors included."""
    tag = node[0]
    if tag in ("add", "sub"):
        return (tag, quotient_rule(node[1], var), quotient_rule(node[2], var))
    if tag == "div":
        a, b = node[1], node[2]
        num = ("sub", ("mul", quotient_rule(a, var), b), ("mul", a, ex.differentiate(b, var)))
        return ("div", num, ("pow", b, 2))
    return ex.differentiate(node, var)


@pytest.mark.parametrize("text, dx", [("x/1e200", 1e-200), ("x/1e-200", 1e200)])
def test_a_constant_divisor_is_never_squared(text, dx):
    field = ScalarField.from_expression(text)
    assert field._dx == ("const", dx)
    assert field.grad(3.0, 4.0) == (dx, 0.0)


@pytest.mark.parametrize("text", ["(x^2+y^2)/2", "y^2/2-cos(x)", "x/8-y/0.5"])
def test_power_of_two_divisors_keep_the_quotient_rule_bits(text):
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-3.0, 3.0, (2, 10_000))
    field = ScalarField.from_expression(text)
    for var, got in zip("xy", field.grad(x, y)):
        want = ex.evaluate(ex.simplify(quotient_rule(field.ast, var)), x, y)
        assert np.broadcast_to(want, x.shape).tobytes() == got.tobytes()

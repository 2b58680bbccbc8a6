import pickle

import numpy as np
import pytest

from bsmoduli import (
    DegenerateLoop,
    ExpressionError,
    ScalarField,
    SymplecticSurface,
    hamiltonian_vector_field,
    poisson_bracket,
    poisson_bracket_field,
    tangential_normal_split,
)
from bsmoduli import expressions as ex
from bsmoduli.surfaces import field_is_periodic, tangential_coefficient
from conftest import expr


def fd_gradient(f, x, y, h=1e-5):
    """Independent central-difference gradient oracle (Richardson refined)."""
    def central(step):
        gx = (f(x + step, y) - f(x - step, y)) / (2 * step)
        gy = (f(x, y + step) - f(x, y - step)) / (2 * step)
        return np.array([gx, gy])

    coarse = central(h)
    fine = central(h / 2)
    return (4 * fine - coarse) / 3


class TestHamiltonianField:
    def test_coordinate_field(self, plane):
        # i_X omega = df pins X_x = (0, -1) for unit density
        got = hamiltonian_vector_field(expr("x"), plane, (0.0, 0.0))
        assert np.allclose(got, [0.0, -1.0], atol=1e-15)

    def test_constant_field(self, plane):
        got = hamiltonian_vector_field(expr("3"), plane, (1.2, -0.4))
        assert np.allclose(got, [0.0, 0.0], atol=1e-15)

    def test_radius_squared_against_fd_oracle(self, plane):
        f = expr("x^2+y^2")
        p = (1.0, 2.0)
        got = hamiltonian_vector_field(f, plane, p)
        gx, gy = fd_gradient(f, *p)
        assert np.allclose(got, [gy, -gx], atol=1e-9)
        assert np.allclose(got, [4.0, -2.0], atol=1e-12)

    def test_pairing_identity_with_density(self, rng):
        # omega(X_f, v) = df(v) for every v, any positive density
        w = expr("1 + 0.5*sin(x)")
        surface = SymplecticSurface.plane(omega_density=w, potential=(lambda x, y: 0 * x, lambda x, y: 0 * x))
        f = expr("x^2*y - y^3")
        for _ in range(10):
            p = rng.uniform(-1.5, 1.5, 2)
            v = rng.standard_normal(2)
            xf = hamiltonian_vector_field(f, surface, p)
            lhs = surface.density(*p) * (xf[0] * v[1] - xf[1] * v[0])
            gx, gy = f.grad(*p)
            assert lhs == pytest.approx(gx * v[0] + gy * v[1], rel=1e-12, abs=1e-12)

    def test_vectorized_over_points(self, plane, rng):
        pts = rng.standard_normal((32, 2))
        f = expr("x*y")
        batch = hamiltonian_vector_field(f, plane, pts)
        single = np.stack([hamiltonian_vector_field(f, plane, q) for q in pts])
        assert np.allclose(batch, single, atol=1e-15)


def stacked_field_oracle(f, surface, p):
    """X_f as the gradient pair stacked and divided by the sampled density, w = 1 included."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    gx, gy = f.grad(x, y)
    w = surface.density(x, y)
    return np.stack([np.asarray(gy) / w, -np.asarray(gx) / w], axis=-1)


VECTOR_FIELD_SURFACES = {
    "plane": lambda: SymplecticSurface.plane(),
    "unit torus": lambda: SymplecticSurface.torus(2 * np.pi, 2 * np.pi),
    "weighted torus": lambda: SymplecticSurface.torus(
        2.0, 2.0, omega_density=expr("1+0.5*cos(2*pi*x)"),
        potential=(expr("0"), expr("x+sin(2*pi*x)/(4*pi)")),
    ),
}
VECTOR_FIELD_POINTS = {
    "point": np.array([0.3, -0.7]),
    "signed zeros": np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]),
    "N x 2": np.random.default_rng(7).normal(size=(17, 2)),
    "M x 5 x 2": np.random.default_rng(8).normal(size=(3, 5, 2)),
}


class TestVectorFieldBits:
    @pytest.mark.parametrize("surface_name", list(VECTOR_FIELD_SURFACES))
    @pytest.mark.parametrize("points", list(VECTOR_FIELD_POINTS))
    @pytest.mark.parametrize("text", ["x", "-y", "3", "x*y+0.3*x^2"])
    def test_bitwise_equal_to_stacked_oracle(self, surface_name, points, text):
        surface = VECTOR_FIELD_SURFACES[surface_name]()
        p = VECTOR_FIELD_POINTS[points]
        f = expr(text)
        got = hamiltonian_vector_field(f, surface, p)
        want = stacked_field_oracle(f, surface, p)
        assert got.shape == want.shape == p.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # signs of zero included

    def test_signs_of_zero(self, plane):
        # X_x = (0, -1) and X_{-y} = (-1, -0): the negated component keeps its sign
        assert np.signbit(hamiltonian_vector_field(expr("3"), plane, (0.0, 0.0))).tolist() == [
            False, True,
        ]
        assert np.signbit(hamiltonian_vector_field(expr("-y"), plane, (0.0, 0.0))).tolist() == [
            True, True,
        ]

    @pytest.mark.parametrize("p", [(-0.5, 0.0), [[0.5, 0.0], [0.0, 1.0]]])
    def test_nonpositive_density_still_rejected(self, p):
        surface = SymplecticSurface.plane(omega_density=expr("x"))
        with pytest.raises(ValueError, match="omega density must be positive"):
            hamiltonian_vector_field(expr("x*y"), surface, p)


class TestPoissonBracket:
    def test_canonical_pair(self, plane, rng):
        f, g = expr("x"), expr("y")
        for _ in range(5):
            p = rng.uniform(-2, 2, 2)
            assert poisson_bracket(f, g, plane, p) == pytest.approx(1.0, abs=1e-15)

    def test_self_bracket_vanishes(self, plane, rng):
        f = expr("x^2*y + sin(x)")
        p = rng.uniform(-1, 1, 2)
        assert poisson_bracket(f, f, plane, p) == pytest.approx(0.0, abs=1e-14)

    def test_example_against_fd_oracle(self, plane):
        f, g = expr("x^2"), expr("y")
        p = (3.0, 5.0)
        gx_f = fd_gradient(f, *p)
        gx_g = fd_gradient(g, *p)
        oracle = gx_f[0] * gx_g[1] - gx_f[1] * gx_g[0]
        got = poisson_bracket(f, g, plane, p)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(6.0, abs=1e-12)

    def test_antisymmetry(self, plane, rng):
        f = expr("x^2*y - 2*x")
        g = expr("sin(x) + y^3")
        for _ in range(10):
            p = rng.uniform(-1.5, 1.5, 2)
            assert poisson_bracket(f, g, plane, p) == pytest.approx(
                -poisson_bracket(g, f, plane, p), abs=1e-14
            )

    def test_leibniz(self, plane, rng):
        f = expr("x^2 + y")
        g = expr("x*y")
        h = expr("y^2 - x")
        gh = g * h
        for _ in range(10):
            p = rng.uniform(-1.2, 1.2, 2)
            lhs = poisson_bracket(f, gh, plane, p)
            rhs = g(*p) * poisson_bracket(f, h, plane, p) + h(*p) * poisson_bracket(
                f, g, plane, p
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_jacobi_identity(self, plane, rng):
        f = expr("x^2*y")
        g = expr("y^2 + x")
        h = expr("x*y - y")
        fg = poisson_bracket_field(f, g, plane)
        gh = poisson_bracket_field(g, h, plane)
        hf = poisson_bracket_field(h, f, plane)
        for _ in range(10):
            p = rng.uniform(-1.0, 1.0, 2)
            total = (
                poisson_bracket(fg, h, plane, p)
                + poisson_bracket(gh, f, plane, p)
                + poisson_bracket(hf, g, plane, p)
            )
            assert total == pytest.approx(0.0, abs=1e-9)

    def test_pairing_antisymmetry_identity(self, plane, rng):
        # df(X_g) = -dg(X_f) pointwise
        f = expr("x^2 - y")
        g = expr("sin(2*x) + x*y")
        for _ in range(10):
            p = rng.uniform(-1.0, 1.0, 2)
            xf = hamiltonian_vector_field(f, plane, p)
            xg = hamiltonian_vector_field(g, plane, p)
            fx, fy = f.grad(*p)
            gx, gy = g.grad(*p)
            assert fx * xg[0] + fy * xg[1] == pytest.approx(
                -(gx * xf[0] + gy * xf[1]), abs=1e-12
            )

    def test_bracket_with_density(self, plane):
        w = expr("2")
        surface = SymplecticSurface.plane(
            omega_density=w, potential=(lambda x, y: 0 * x, lambda x, y: 0 * x)
        )
        assert poisson_bracket(expr("x"), expr("y"), surface, (0.4, 0.6)) == pytest.approx(0.5)


class TestTangentialSplit:
    def test_projection_identity(self, rng):
        t = rng.standard_normal(2)
        hor, vert = tangential_normal_split(t, t)
        assert np.allclose(hor, t, atol=1e-14)
        assert np.allclose(vert, 0.0, atol=1e-14)

    def test_rotated_tangent_is_normal(self, rng):
        t = rng.standard_normal(2) + np.array([2.0, 0.0])
        v = np.array([-t[1], t[0]])  # J t, the chart rotation by a quarter turn
        hor, vert = tangential_normal_split(v, t)
        assert np.allclose(hor, 0.0, atol=1e-13)
        assert np.allclose(vert, v, atol=1e-13)

    def test_coordinate_example(self):
        hor, vert = tangential_normal_split(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(hor, [1.0, 0.0], atol=1e-15)
        assert np.allclose(vert, [0.0, 1.0], atol=1e-15)

    def test_split_is_orthogonal(self, rng):
        for _ in range(20):
            v = rng.standard_normal(2)
            t = rng.standard_normal(2) + np.array([1.5, 0.0])
            hor, vert = tangential_normal_split(v, t)
            assert hor @ vert == pytest.approx(0.0, abs=1e-13)
            assert np.allclose(hor + vert, v, atol=1e-14)

    def test_degenerate_tangent_raises(self):
        with pytest.raises(DegenerateLoop):
            tangential_normal_split(np.array([1.0, 0.0]), np.array([0.0, 1e-15]))

    @pytest.mark.parametrize("shape", [(64, 2), (6, 5, 2)])
    def test_coefficient_bitwise_equal_to_summed_form(self, shape):
        # oracle: both dot products as np.sum over the last axis, which starts
        # from 0.0; in the first rows a plain v0*t0 + v1*t1 is -0.0 + -0.0
        rng = np.random.default_rng(11)
        v = rng.standard_normal(shape).reshape(-1, 2)
        t = rng.standard_normal(shape).reshape(-1, 2)
        v[:4] = [[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]
        t[:4] = [[1.5, 2.0], [-1.5, 2.0], [1.5, -2.0], [-1.5, -2.0]]
        v[4:8] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]
        t[4:8] = [[-1.5, -2.0], [-1.5, 2.0], [1.5, -2.0], [1.5, 2.0]]
        v, t = v.reshape(shape), t.reshape(shape)
        want = np.sum(v * t, axis=-1) / np.sum(t * t, axis=-1)
        got = tangential_coefficient(v, t)
        assert got.shape == want.shape == shape[:-1]
        assert got.tobytes() == want.tobytes()  # signs of zero included
        plain = (v[..., 0] * t[..., 0] + v[..., 1] * t[..., 1]).reshape(-1)[:8]
        assert np.signbit(plain).any() and not np.signbit(want.reshape(-1)[:8]).any()


class TestSurfaces:
    def test_density_positive_guard_is_callers_problem_but_wraps_work(self):
        torus = SymplecticSurface.torus(2.0, 1.0)
        wrapped = torus.wrap(np.array([[2.5, -0.25], [-0.5, 1.75]]))
        assert np.allclose(wrapped, [[0.5, 0.75], [1.5, 0.75]])

    def test_plane_rejects_periods(self):
        with pytest.raises(ValueError):
            SymplecticSurface("plane", periods=(1.0, 1.0))

    def test_nonpositive_density_rejected_on_sampling(self):
        w = expr("sin(x)")
        surface = SymplecticSurface.plane(
            omega_density=w, potential=(lambda x, y: 0 * x, lambda x, y: 0 * x)
        )
        with pytest.raises(ValueError):
            surface.density(np.array([0.1, -0.1]), np.array([0.0, 0.0]))

    def test_missing_potential_detected_on_use(self):
        w = expr("1 + 0.5*sin(x)")
        surface = SymplecticSurface.plane(
            omega_density=w, potential=None
        )
        with pytest.raises(ValueError):
            surface.potential_values(0.0, 0.0)


class TestScalarField:
    def test_analytic_gradient_matches_central_differences(self, rng):
        # relative error <= 1e-5 at the default step on random points
        f = expr("x^2*y + sin(2*x - y)")
        for _ in range(10):
            x, y = rng.uniform(-1.5, 1.5, 2)
            gx, gy = f.grad(x, y)
            h = 1e-4
            fx = (f(x + h, y) - f(x - h, y)) / (2 * h)
            fy = (f(x, y + h) - f(x, y - h)) / (2 * h)
            assert gx == pytest.approx(fx, rel=1e-5, abs=1e-7)
            assert gy == pytest.approx(fy, rel=1e-5, abs=1e-7)

    def test_torus_periodicity_detection(self):
        torus = SymplecticSurface.torus(2.0, 1.0)
        assert field_is_periodic(expr("sin(pi*x)*1 + cos(2*pi*y)"), torus)
        assert field_is_periodic(expr("sin(pi*x + 2*pi*y)"), torus)
        assert not field_is_periodic(expr("x"), torus)
        assert not field_is_periodic(expr("sin(x)"), torus)

    def test_torus_periodicity_machine_precision(self):
        torus = SymplecticSurface.torus(2.0, 1.0)
        f = expr("sin(pi*x) + cos(2*pi*y)")
        xs = np.linspace(0, 2, 9)
        ys = np.linspace(0, 1, 9)
        assert np.max(np.abs(f(xs + 2.0, ys) - f(xs, ys))) < 1e-12
        assert np.max(np.abs(f(xs, ys + 1.0) - f(xs, ys))) < 1e-12

    @pytest.mark.parametrize("text", ["x", "y", "3", "x^2*y"])
    def test_values_and_gradient_broadcast_against_both_arguments(self, text):
        f = expr(text)
        xs = np.arange(3.0)
        for x, y in ((0.5, xs), (xs, 0.5)):
            value = f(x, y)
            gx, gy = f.grad(x, y)
            assert value.shape == gx.shape == gy.shape == (3,)
            full = np.broadcast_arrays(x, y)
            assert np.array_equal(value, f(*full))
            assert np.array_equal(gx, f.grad(*full)[0])
            assert np.array_equal(gy, f.grad(*full)[1])

    @pytest.mark.parametrize("text", ["x", "y", "3", "x*y+0.3*x^2"])
    @pytest.mark.parametrize("args", [
        (0.5, -0.25),
        (np.float64(0.5), -0.25),
        (np.arange(4.0), np.linspace(-1.0, 1.0, 4)),
        (np.arange(4.0), 0.5),
        (0.5, np.arange(4.0)),
        (np.arange(6.0).reshape(3, 2), np.ones((3, 2))),
        (np.arange(3), np.arange(3)),
    ])
    def test_values_are_fresh_arrays_like_the_broadcast_form(self, text, args):
        # oracle: the value and both partials broadcast against x and y, then times 1.0;
        # Python floats give np.float64, and a constant broadcasts
        f = expr(text)
        x, y = args
        raw = f._value_kernel(x, y)[0], *f._grad_kernel(x, y)
        got = f(x, y), *f.grad(x, y)
        for value, out in zip(raw, got):
            want = np.broadcast_arrays(value, x, y)[0] * 1.0
            assert type(out) is type(want)
            assert type(out) is (np.ndarray if np.ndim(x) or np.ndim(y) else np.float64)
            assert np.shape(out) == np.shape(want) == np.broadcast_shapes(np.shape(x), np.shape(y))
            assert np.asarray(out).dtype == np.float64
            assert np.asarray(out).tobytes() == np.asarray(want).tobytes()
            for arg in (x, y, value):
                assert out is not arg
                assert not np.shares_memory(out, arg)

    def test_field_algebra(self, rng):
        f = expr("x + y")
        g = expr("x*y")
        prod = f * g
        x, y = rng.uniform(-1, 1, 2)
        assert prod(x, y) == pytest.approx((x + y) * x * y, rel=1e-14)
        gx, gy = prod.grad(x, y)
        assert gx == pytest.approx(x * y + (x + y) * y, rel=1e-12)
        assert gy == pytest.approx(x * y + (x + y) * x, rel=1e-12)
        cube = f**3
        assert cube(x, y) == pytest.approx((x + y) ** 3, rel=1e-13)

    def test_field_algebra_is_exact_composition(self, rng):
        # sum and product rules applied to the parts' own values and gradients, bit for bit
        f = expr("x^2*y+sin(2*x-y)")
        g = expr("cos(x)+y^3")
        x, y = rng.uniform(-2, 2, (2, 1000))
        fv, (fx, fy) = f(x, y), f.grad(x, y)
        gv, (gx, gy) = g(x, y), g.grad(x, y)
        f2v = fv * fv
        f2x, f2y = fx * fv + fv * fx, fy * fv + fv * fy
        cases = [
            (f * g, fv * gv, fx * gv + fv * gx, fy * gv + fv * gy),
            (f + g, fv + gv, fx + gx, fy + gy),
            (2 * f + 1, fv * 2.0 + 1.0, fx * 2.0, fy * 2.0),
            (f**3, f2v * fv, f2x * fv + f2v * fx, f2y * fv + f2v * fy),
        ]
        for field, value, dx, dy in cases:
            got_x, got_y = field.grad(x, y)
            assert np.array_equal(field(x, y), value)
            assert np.array_equal(got_x, dx)
            assert np.array_equal(got_y, dy)

    def test_field_is_its_ast(self):
        f = ScalarField.from_expression("x*y + 2")
        assert f == ScalarField(f.ast)
        assert ScalarField.constant(3).ast == ("const", 3.0)

    def test_fields_keep_their_kernels(self, monkeypatch, plane):
        # each of 40 live fields keeps its kernels: a second sweep compiles nothing
        fields = [expr(f"{k + 1}*x^2*y+sin({k + 2}*x-y)") for k in range(40)]
        p = np.array([[0.3, -0.2], [1.1, 0.7]])

        def sweep():
            for f in fields:
                hamiltonian_vector_field(f, plane, p)
                f(p[:, 0], p[:, 1])

        sweep()
        calls = []
        compile_ = ex._compile
        monkeypatch.setattr(ex, "_compile", lambda *args: calls.append(args) or compile_(*args))
        sweep()
        assert calls == []

    def test_evaluated_field_pickles_as_its_tree(self, plane):
        f = expr("x*y+0.3*x^2")
        p = np.array([[0.3, -0.2], [1.1, 0.7]])
        before = hamiltonian_vector_field(f, plane, p), f(p[:, 0], p[:, 1])
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f
        after = hamiltonian_vector_field(copy, plane, p), copy(p[:, 0], p[:, 1])
        assert [a.tobytes() for a in after] == [b.tobytes() for b in before]

    def test_power_exponent_checks(self):
        with pytest.raises(ExpressionError):
            expr("x") ** -3
        with pytest.raises(ExpressionError):
            expr("x") ** 1.5
        one = expr("x") ** 0
        assert one(0.7, -2.0) == 1.0
        assert one.grad(0.7, -2.0) == (0.0, 0.0)


def test_poisson_bracket_field_canonical_pair(plane):
    field = poisson_bracket_field(expr("x"), expr("y"), plane)
    assert ex.evaluate(field.ast, 0.7, -0.4) == pytest.approx(1.0)


def test_poisson_bracket_field_with_density():
    surface = SymplecticSurface.plane(omega_density=expr("2"))
    field = poisson_bracket_field(expr("x"), expr("y"), surface)
    assert ex.evaluate(field.ast, 1.0, 1.0) == pytest.approx(0.5)


def test_poisson_bracket_field_symbolic_composition(plane):
    f = expr("x^2")
    g = expr("y")
    field = poisson_bracket_field(f, g, plane)
    assert field.ast is not None
    xs = np.linspace(-2, 2, 9)
    assert np.allclose(field(xs, xs), 2 * xs, atol=1e-14)
    gx, gy = field.grad(xs, xs)
    assert np.allclose(gx, 2.0, atol=1e-14)
    assert np.allclose(gy, 0.0, atol=1e-14)

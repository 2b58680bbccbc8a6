import numpy as np
import pytest
import scipy.integrate

from bsmoduli import (
    BRACKET_SIGN,
    GeometryError,
    HalfDensity,
    Loop,
    ModuliPoint,
    SingularPairing,
    TangentVector,
    bracket_report,
    compatibility_residuals,
    differential_covector,
    differential_dF,
    evaluate_F,
    field_A,
    flat,
    hamiltonian_field_H,
    is_stationary_cycle,
    measure_bracket_sign,
    moduli_bracket,
    non_multiplicativity_witness,
    omega,
    omega_matrix,
    oneform_B,
    oneform_Cstar,
    project_tangent,
    realize_tangent,
    restriction_identity_residual,
)
from bsmoduli import observables
from bsmoduli.loops import integrate_density, loop_derivative, project_to_bs
from bsmoduli.moduli import SINGULAR_FLOOR, dense_brackets
from bsmoduli.observables import (
    bracket_reports,
    restricted_values,
    tangential_hamiltonian_coefficient,
)
from conftest import dense_sharp, expr, observed_orders, random_tangent, smooth_tangent


class TestEvaluateF:
    def test_constant_field(self, ellipse_point):
        obs = 1.5 * expr("4")
        assert evaluate_F(obs, ellipse_point) == pytest.approx(6.0, abs=1e-12)

    def test_offset_circle_mean(self, plane):
        n = 128
        loop = Loop.circle(1.0, center=(2.0, 0.0), n=n)
        p = ModuliPoint(plane, loop, HalfDensity.uniform(n), strict=False)
        assert evaluate_F(expr("x"), p) == pytest.approx(2.0, abs=1e-12)

    def test_radius_squared_constant_on_circle(self, plane):
        n = 64
        r = np.sqrt(1 / np.pi)
        p = ModuliPoint(plane, Loop.circle(r, n=n), HalfDensity.uniform(n))
        assert evaluate_F(expr("x^2+y^2"), p) == pytest.approx(r**2, abs=1e-13)

    def test_linearity(self, ellipse_point, rng):
        p = ellipse_point
        f = expr("x^2*y")
        g = expr("sin(x)")
        a, b = 2.5, -1.25
        combined = a * f + b * g
        assert evaluate_F(combined, p) == pytest.approx(
            a * evaluate_F(f, p) + b * evaluate_F(g, p), abs=1e-13
        )


class TestFieldA:
    def test_constant_gives_zero(self, ellipse_point):
        v = field_A(expr("7"), ellipse_point)
        assert v.norm() < 1e-14

    def test_radial_field_on_centered_circle(self, plane):
        n = 64
        p = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), HalfDensity.uniform(n))
        v = field_A(expr("x^2+y^2"), p)
        assert v.norm() < 1e-12

    def test_coordinate_restriction_oracle(self, plane):
        # direct restriction: x on the unit circle is cos(2 pi s), zero mean
        n = 128
        p = ModuliPoint(plane, Loop.circle(1.0, n=n), HalfDensity.uniform(n), strict=False)
        v = field_A(expr("x"), p)
        s = np.arange(n) / n
        assert np.max(np.abs(v.fvec - np.cos(2 * np.pi * s))) < 1e-13
        assert np.max(np.abs(v.tvec)) == 0.0

    def test_weight_component_always_zero(self, ellipse_point):
        v = field_A(expr("x*y + sin(x)"), ellipse_point)
        assert np.max(np.abs(v.tvec)) == 0.0


class TestStationaryCycles:
    def test_radial_on_centered_circle(self, plane):
        n = 64
        p = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), HalfDensity.uniform(n))
        assert is_stationary_cycle(expr("x^2+y^2"), p)

    def test_coordinate_not_stationary(self, unit_area_circle_point):
        assert not is_stationary_cycle(expr("x"), unit_area_circle_point)

    def test_constant_always_stationary(self, ellipse_point):
        assert is_stationary_cycle(expr("7"), ellipse_point)

    def test_translated_circle_not_stationary(self, plane):
        n = 64
        p = ModuliPoint(
            plane, Loop.circle(np.sqrt(1 / np.pi), center=(0.5, 0.0), n=n), HalfDensity.uniform(n)
        )
        assert not is_stationary_cycle(expr("x^2+y^2"), p)

    def test_matches_field_norm(self, plane, rng):
        n = 64
        candidates = [
            ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), HalfDensity.uniform(n)),
            ModuliPoint(
                plane,
                Loop.circle(np.sqrt(1 / np.pi), center=(0.4, -0.6), n=n),
                HalfDensity.uniform(n),
            ),
        ]
        f = expr("x^2+y^2")
        for p in candidates:
            stationary = is_stationary_cycle(f, p, tol=1e-10)
            assert stationary == (field_A(f, p).norm() < 1e-5)


class TestOneForms:
    def test_B_kernel_contains_function_directions(self, ellipse_point, rng):
        p = ellipse_point
        v = project_tangent(rng.standard_normal(p.n), np.zeros(p.n), p)
        assert oneform_B(expr("x*y"), p, v) == 0.0

    def test_B_of_constant_vanishes_by_constraint(self, ellipse_point, rng):
        p = ellipse_point
        for _ in range(5):
            v = random_tangent(p, rng)
            assert oneform_B(expr("3"), p, v) == pytest.approx(0.0, abs=1e-13)

    def test_B_duality_with_A(self, ellipse_point, rng):
        # the pairing of field_A against any probe reproduces oneform_B
        p = ellipse_point
        f = expr("x^2 - y")
        a = field_A(f, p)
        for _ in range(100):
            v = random_tangent(p, rng)
            assert omega(p, a, v) == pytest.approx(oneform_B(f, p, v), abs=1e-12)

    def test_Cstar_constant_field_vanishes(self, ellipse_point, rng):
        p = ellipse_point
        v = random_tangent(p, rng)
        assert oneform_Cstar(expr("5"), p, v) == pytest.approx(0.0, abs=1e-13)

    def test_Cstar_ignores_weight_component(self, ellipse_point, rng):
        p = ellipse_point
        f = expr("x*y")
        v = random_tangent(p, rng)
        only_t = project_tangent(np.zeros(p.n), v.tvec.copy(), p)
        assert oneform_Cstar(f, p, only_t) == pytest.approx(0.0, abs=1e-14)

    def test_Cstar_integration_by_parts(self, ellipse_point):
        p = ellipse_point
        f = expr("x^2+y^2")
        v = smooth_tangent(p)
        u = tangential_hamiltonian_coefficient(f, p)
        th2 = p.theta.values**2
        direct = integrate_density(loop_derivative(v.fvec) * u * th2)
        by_parts = -integrate_density(v.fvec * loop_derivative(u * th2))
        assert direct == pytest.approx(by_parts, abs=1e-10)
        assert oneform_Cstar(f, p, v) == pytest.approx(direct, abs=1e-14)


class TestDifferential:
    def test_zero_vector(self, ellipse_point):
        p = ellipse_point
        assert differential_dF(expr("x*y"), p, smooth_tangent(p) * 0.0) == 0.0

    def test_constant_field_annihilates(self, ellipse_point, rng):
        p = ellipse_point
        for _ in range(5):
            v = random_tangent(p, rng)
            assert differential_dF(expr("2"), p, v) == pytest.approx(0.0, abs=1e-13)

    def test_finite_difference_oracle(self, ellipse_point):
        # first-order convergence of [F(realize(p, v, t)) - F(p)]/t to dF(v)
        p = ellipse_point
        f = expr("x^2+y^2")
        v = smooth_tangent(p)
        exact = differential_dF(f, p, v)
        base = evaluate_F(f, p)
        errors = []
        for t in (1e-3, 5e-4, 2.5e-4):
            fd = (evaluate_F(f, realize_tangent(p, v, t)) - base) / t
            errors.append(abs(fd - exact))
        assert np.all(observed_orders(errors) >= 0.9)

    def test_covector_route_matches_direct(self, ellipse_point, rng):
        from bsmoduli import differential_covector

        p = ellipse_point
        f = expr("sin(x) + y^2")
        ell = differential_covector(f, p)
        for _ in range(10):
            v = random_tangent(p, rng)
            assert ell(v) == pytest.approx(differential_dF(f, p, v), abs=1e-12)


class TestHamiltonianField:
    def test_constant_gives_zero(self, ellipse_point):
        h = hamiltonian_field_H(expr("3"), ellipse_point)
        assert h.norm() < 1e-12

    def test_function_part_is_twice_A(self, ellipse_point, unit_area_circle_point):
        for p in (ellipse_point, unit_area_circle_point):
            for f in (expr("x"), expr("x*y"), expr("sin(x) - y^2")):
                h = hamiltonian_field_H(f, p)
                a = field_A(f, p)
                assert np.max(np.abs(h.fvec - 2 * a.fvec)) < 1e-10

    def test_self_pairing_vanishes(self, ellipse_point):
        p = ellipse_point
        h = hamiltonian_field_H(expr("x^2 - y"), p)
        assert omega(p, h, h) == pytest.approx(0.0, abs=1e-13)

    def test_dual_reproduces_differential(self, ellipse_point, rng):
        p = ellipse_point
        f = expr("x^2+y^2")
        h = hamiltonian_field_H(f, p)
        for _ in range(20):
            v = random_tangent(p, rng)
            assert omega(p, h, v) == pytest.approx(differential_dF(f, p, v), abs=1e-11)


# The seven distinct fields of the shipped bracket-check pairs.
SHIPPED_FIELDS = ("x", "y", "x^2", "x^2+y^2", "sin(x)", "x*y", "x^2-y^2")


class TestHamiltonianFields:
    def test_matrix_route_is_one_dense_brackets_call_per_pair(self, ellipse_point):
        # one pair per call keeps bracket_report's bits (and the golden convergence.csv)
        p = ellipse_point
        fields = [expr(text) for text in SHIPPED_FIELDS]
        for f, g in zip(fields, fields[1:] + fields[:1]):
            covectors = [differential_covector(h, p) for h in (f, g)]
            want = dense_brackets(omega_matrix(p), covectors)[0][0, 1]
            assert moduli_bracket(f, g, p) == want

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_brackets_match_the_pairing_of_the_dense_duals(self, plane, n):
        # the one-solve identity against the two-solve reference, omega on dense_sharp's duals
        loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
        fields = [expr(text) for text in SHIPPED_FIELDS]
        for theta in (HalfDensity.uniform(n), HalfDensity.cosine_profile(n, 0.3, 1)):
            p = ModuliPoint(plane, loop, theta)
            om = omega_matrix(p)
            covectors = [differential_covector(f, p) for f in fields]
            duals = dense_sharp(om, covectors)
            want = np.array([[omega(p, h_i, h_j) for h_j in duals] for h_i in duals])
            got, _ = dense_brackets(om, covectors)
            assert got.shape == (len(fields), len(fields))
            assert np.array_equal(got, -got.T)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_batch_matches_per_field_duals(self, plane, n):
        loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
        fields = [expr(text) for text in SHIPPED_FIELDS]
        for theta in (HalfDensity.uniform(n), HalfDensity.cosine_profile(n, 0.3, 1)):
            p = ModuliPoint(plane, loop, theta)
            om = omega_matrix(p)
            covectors = [differential_covector(f, p) for f in fields]
            for ell, got in zip(covectors, dense_sharp(om, covectors)):
                (want,) = dense_sharp(om, [ell])
                scale = max(np.max(np.abs(want.fvec)), np.max(np.abs(want.tvec)))
                err = max(np.max(np.abs(got.fvec - want.fvec)),
                          np.max(np.abs(got.tvec - want.tvec)))
                assert err <= 1e-13 * scale

    def test_singular_pairing_raises(self, plane):
        p = singular_pairing_point(plane)
        om = omega_matrix(p)
        assert om.sigma_lower_bound < SINGULAR_FLOOR
        assert om.singular_values().min() <= p.n * np.finfo(float).eps * om.sigma_upper_bound
        covectors = [differential_covector(expr(text), p) for text in ("x", "y")]
        for dense in (dense_sharp, dense_brackets):
            with pytest.raises(SingularPairing, match=r"pairing min \|theta0\| "):
                dense(om, covectors)

    def test_no_covectors_have_no_duals_even_on_a_singular_pairing(self, plane):
        p = singular_pairing_point(plane)
        om = omega_matrix(p)
        assert om.sigma_lower_bound < SINGULAR_FLOOR
        assert om.singular_values().min() <= p.n * np.finfo(float).eps * om.sigma_upper_bound
        assert dense_sharp(om, []) == []
        assert [a.shape for a in dense_brackets(om, [])] == [(0, 0), (0, 0)]


def singular_pairing_point(plane):
    """A unit-area circle whose weight sqrt(2) sin(2 pi s) vanishes on the grid."""
    n = 64
    s = np.arange(n) / n
    theta = HalfDensity(np.sqrt(2) * np.sin(2 * np.pi * s))
    return ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), theta)


class TestBracketReports:
    def test_matches_single_pair_reports(self, ellipse_point, monkeypatch, pairings_built):
        p = ellipse_point
        x, y, r2 = expr("x"), expr("y"), expr("x^2+y^2")
        scaled = 1.7 * expr("x*y")
        pairs = [(x, y), (x, r2), (scaled, y), (r2, scaled), (y, y)]
        restricted = []
        real = observables._restriction

        def counted(f, q, tan):
            restricted.append(f)
            return real(f, q, tan)

        monkeypatch.setattr(observables, "_restriction", counted)
        reports = bracket_reports(pairs, p)
        assert pairings_built == [p]
        monkeypatch.undo()
        assert len(restricted) == 4
        for (f, g), got in zip(pairs, reports):
            want = bracket_report(f, g, p)
            assert got["closed_form"] == want["closed_form"]
            assert got["target"] == want["target"]
            assert got["matrix"] == pytest.approx(want["matrix"], rel=1e-13, abs=1e-13)
            assert got["rel_spread"] < 1e-10

    def test_each_report_carries_the_certified_bound_of_its_matrix_value(self, plane):
        n = 512
        loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
        p = ModuliPoint(plane, loop, HalfDensity.cosine_profile(n, 0.3, 1))
        fields = {text: expr(text) for text in SHIPPED_FIELDS}
        pairs = [("x", "y"), ("x^2", "y"), ("x", "x^2+y^2"), ("sin(x)", "y"), ("x*y", "x^2-y^2")]
        reports = bracket_reports([(fields[f], fields[g]) for f, g in pairs], p)
        order = list(dict.fromkeys(name for pair in pairs for name in pair))
        brackets, bounds = dense_brackets(
            omega_matrix(p), [differential_covector(fields[name], p) for name in order])
        for (f, g), report in zip(pairs, reports):
            i, j = order.index(f), order.index(g)
            assert report["matrix"] == brackets[i, j]
            assert report["matrix_bound"] == bounds[i, j]
            assert 0.0 < report["matrix_bound"] <= 1e-14 * np.max(np.abs(brackets))
            single = bracket_report(fields[f], fields[g], p)
            assert abs(single["matrix"] - report["matrix"]) <= (
                single["matrix_bound"] + report["matrix_bound"] + 1e-15 * abs(report["matrix"]))

    @pytest.mark.parametrize("theta", ["uniform", "cosine"])
    def test_one_pass_over_the_loop_and_the_fields(self, plane, monkeypatch, theta):
        n = 512
        loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
        uniform = theta == "uniform"
        weight = HalfDensity.uniform(n) if uniform else HalfDensity.cosine_profile(n, 0.3, 1)
        p = ModuliPoint(plane, loop, weight)
        fields = {text: expr(text) for text in SHIPPED_FIELDS}
        names = [("x", "y"), ("x^2", "y"), ("x", "x^2+y^2"), ("sin(x)", "y"), ("x*y", "x^2-y^2")]
        pairs = [(fields[f], fields[g]) for f, g in names]
        order = list(dict.fromkeys(name for pair in names for name in pair))
        assert sorted(order) == sorted(SHIPPED_FIELDS)
        calls = {"tangent": 0, "derivative": [], "field": []}
        tangent, derivative = Loop.tangent, observables.loop_derivative
        field = observables.hamiltonian_vector_field

        def counted_tangent(self):
            calls["tangent"] += 1
            return tangent(self)

        def counted_derivative(u):
            calls["derivative"].append(np.shape(u))
            return derivative(u)

        def counted_field(f, surface, q):
            calls["field"].append(f)
            return field(f, surface, q)

        monkeypatch.setattr(Loop, "tangent", counted_tangent)
        monkeypatch.setattr(observables, "loop_derivative", counted_derivative)
        monkeypatch.setattr(observables, "hamiltonian_vector_field", counted_field)
        reports = bracket_reports(pairs, p)
        monkeypatch.undo()
        assert calls["tangent"] == 1
        assert calls["derivative"] == [(n, 2 * len(order))]
        assert calls["field"] == [fields[name] for name in order]
        assert all(a is fields[name] for a, name in zip(calls["field"], order))
        brackets, bounds = dense_brackets(
            omega_matrix(p), [differential_covector(fields[name], p) for name in order])
        for (f, g), (fs, gs), report in zip(pairs, names, reports):
            i, j = order.index(fs), order.index(gs)
            assert report["matrix"] == brackets[i, j]
            assert report["matrix_bound"] == bounds[i, j]
            assert report["closed_form"] == moduli_bracket(f, g, p, "closed_form")
            assert report["target"] == moduli_bracket(f, g, p, "target")

    def test_no_pairs(self, ellipse_point, pairings_built):
        assert bracket_reports([], ellipse_point) == []
        assert pairings_built == []

    @pytest.mark.filterwarnings("error")
    def test_a_bracket_that_is_not_finite_is_a_geometry_error(self, ellipse_point):
        # the routes overflow under one errstate: no raw warning, and the
        # first route that is not finite names itself and its pair (here the
        # matrix route's Krylov bound is nan, so it falls back to the LU,
        # whose value overflows to nan too)
        p = ellipse_point
        big = (expr("1e160*x"), expr("1e160*y"))
        message = r"the matrix bracket is nan, not finite$"
        with pytest.raises(GeometryError, match=r"^pairs\[1\]: " + message):
            bracket_reports([(expr("x"), expr("y")), big], p)
        with pytest.raises(GeometryError, match="^" + message):
            bracket_report(*big, p)


class TestModuliBracket:
    def test_orientation_constant_frozen(self, unit_area_circle_point):
        assert measure_bracket_sign(unit_area_circle_point) == BRACKET_SIGN
        assert BRACKET_SIGN == -1.0

    def test_canonical_pair_magnitude(self, unit_area_circle_point):
        # |bracket(x, y)| = 2 F_1 = 2 at unit volume; orientation follows sigma
        p = unit_area_circle_point
        rep = bracket_report(expr("x"), expr("y"), p)
        assert rep["matrix"] == pytest.approx(BRACKET_SIGN * 2.0, abs=1e-10)
        assert rep["closed_form"] == pytest.approx(rep["matrix"], abs=1e-12)
        assert rep["target"] == pytest.approx(rep["matrix"], abs=1e-12)
        assert abs(rep["target"]) == pytest.approx(2.0 * evaluate_F(expr("1"), p), abs=1e-12)

    def test_self_bracket_zero_all_methods(self, ellipse_point):
        f = expr("x^2 - y")
        for method in ("matrix", "closed_form", "target"):
            assert moduli_bracket(f, f, ellipse_point, method) == pytest.approx(0.0, abs=1e-12)

    def test_three_way_agreement_derived(self, ellipse_point, unit_area_circle_point):
        # agreement of independent evaluation routes is itself the oracle
        f = expr("x^2")
        g = expr("y")
        for p in (ellipse_point, unit_area_circle_point):
            rep = bracket_report(f, g, p)
            assert rep["rel_spread"] < 1e-12
            target = moduli_bracket(f, g, p, "target")
            x_mean = evaluate_F(expr("x"), p)
            assert target == pytest.approx(BRACKET_SIGN * 4.0 * x_mean, abs=1e-12)

    def test_antisymmetry_and_bilinearity(self, ellipse_point, rng):
        p = ellipse_point
        f = expr("x^2*y")
        g = expr("sin(x)")
        h = expr("y^2")
        assert moduli_bracket(f, g, p) == pytest.approx(
            -moduli_bracket(g, f, p), abs=1e-10
        )
        a, b = 1.75, -0.4
        combined = a * f + b * h
        assert moduli_bracket(combined, g, p) == pytest.approx(
            a * moduli_bracket(f, g, p) + b * moduli_bracket(h, g, p),
            abs=1e-10,
        )

    def test_commuting_family(self, ellipse_point):
        p = ellipse_point
        f1 = expr("x^2+y^2")
        f2 = expr("(x^2+y^2)^2")
        f3 = expr("(x^2+y^2)^3")
        for a, b in ((f1, f2), (f1, f3), (f2, f3)):
            assert abs(moduli_bracket(a, b, p)) < 3e-8

    def test_scale_factor_squares(self, ellipse_point):
        p = ellipse_point
        f = expr("x")
        g = expr("x^2+y^2")
        base = moduli_bracket(f, g, p)
        scaled = moduli_bracket(2.0 * f, 2.0 * g, p)
        assert scaled / base == pytest.approx(4.0, rel=1e-9)

    def test_scaled_target_tracks_tau_linearly(self, ellipse_point):
        p = ellipse_point
        f = expr("x")
        g = expr("x^2+y^2")
        t1 = moduli_bracket(f, g, p, "target")
        t2 = moduli_bracket(2.0 * f, 2.0 * g, p, "target")
        assert t2 / t1 == pytest.approx(4.0, rel=1e-12)

    def test_directional_derivative_orientation(self, ellipse_point):
        # slope of F_g along the realized flow of H_{F_f} equals bracket(g, f)
        p = ellipse_point
        f = expr("x^2+y^2")
        g = expr("x")
        (h,) = dense_sharp(omega_matrix(p), [differential_covector(f, p)])
        expected = moduli_bracket(g, f, p)
        base = evaluate_F(g, p)
        errors = []
        for t in (1e-3, 5e-4, 2.5e-4):
            slope = (evaluate_F(g, realize_tangent(p, h, t)) - base) / t
            errors.append(abs(slope - expected))
        assert np.all(observed_orders(errors) >= 0.9)

    @pytest.mark.parametrize("method,built", [("matrix", 1), ("closed_form", 0), ("target", 0)])
    def test_one_pairing_per_matrix_route_call(self, ellipse_point, pairings_built, method, built):
        f, g = expr("x^2"), expr("y")
        for calls in (1, 2):
            moduli_bracket(f, g, ellipse_point, method)
            assert pairings_built == [ellipse_point] * (built * calls)
        bracket_report(f, g, ellipse_point)
        assert len(pairings_built) == 2 * built + 1

    def test_unknown_method_rejected(self, ellipse_point):
        with pytest.raises(ValueError):
            moduli_bracket(expr("x"), expr("y"), ellipse_point, "magic")


class TestRestrictionIdentity:
    def test_canonical_pair_on_unit_circle(self, plane):
        loop = Loop.circle(1.0, n=128)
        residual = restriction_identity_residual(expr("x"), expr("y"), loop, plane)
        assert np.max(np.abs(residual)) < 1e-12

    def test_frame_oracle(self, plane):
        # oracle: evaluate f_t g_n - f_n g_t in the oriented orthonormal frame
        loop = Loop.ellipse(1.4, 0.7, center=(0.2, -0.1), n=256)
        f, g = expr("sin(x)"), expr("x*y")
        tan = loop.tangent()
        unit_t = tan / np.linalg.norm(tan, axis=1)[:, None]
        unit_n = np.stack([-unit_t[:, 1], unit_t[:, 0]], axis=1)
        fx, fy = f.grad(loop.points[:, 0], loop.points[:, 1])
        gx, gy = g.grad(loop.points[:, 0], loop.points[:, 1])
        grad_f = np.stack([fx, fy], axis=1)
        grad_g = np.stack([gx, gy], axis=1)
        f_t = np.sum(grad_f * unit_t, axis=1)
        f_n = np.sum(grad_f * unit_n, axis=1)
        g_t = np.sum(grad_g * unit_t, axis=1)
        g_n = np.sum(grad_g * unit_n, axis=1)
        frame_value = f_t * g_n - f_n * g_t
        from bsmoduli import poisson_bracket

        bracket_on_loop = poisson_bracket(f, g, plane, loop.points)
        assert np.max(np.abs(bracket_on_loop - frame_value)) < 1e-12
        residual = restriction_identity_residual(f, g, loop, plane)
        assert np.max(np.abs(residual)) < 1e-10

    def test_self_pair_vanishes(self, plane):
        loop = Loop.ellipse(1.4, 0.7, n=64)
        f = expr("x^2*y")
        assert np.max(np.abs(restriction_identity_residual(f, f, loop, plane))) < 1e-12

    def test_spectral_decay_in_n(self, plane):
        f, g = expr("sin(x)"), expr("y^2")
        maxima = []
        for n in (32, 64, 128):
            loop = Loop.perturbed_circle(1.0, center=(0.1, 0.2), n=n, harmonics=[(2, 0.15, 0.0)])
            maxima.append(np.max(np.abs(restriction_identity_residual(f, g, loop, plane))))
        assert maxima[-1] < 1e-8
        assert maxima[0] > maxima[-1] or maxima[0] < 1e-12


class TestCompatibilityResiduals:
    def test_pointwise_cancellation(self, plane):
        loop = Loop.ellipse(1.4, 0.7, center=(0.3, 0.1), n=128)
        r1, r2 = compatibility_residuals(expr("sin(x)"), expr("x*y"), loop, plane)
        assert np.max(np.abs(r1)) < 1e-12
        assert np.max(np.abs(r2)) < 1e-12

    def test_with_nonunit_density(self):
        from bsmoduli import SymplecticSurface

        w = expr("1 + 0.5*sin(x)")
        surface = SymplecticSurface.plane(omega_density=w, potential=(lambda x, y: 0 * x, lambda x, y: 0 * x))
        loop = Loop.circle(0.9, center=(0.4, -0.2), n=64)
        r1, r2 = compatibility_residuals(expr("x^2"), expr("y"), loop, surface)
        assert np.max(np.abs(r1)) < 1e-12
        assert np.max(np.abs(r2)) < 1e-12


class TestNonMultiplicativity:
    def test_unit_circle_witness(self, plane):
        # oracle: mean of cos^2 over the circle is 1/2; mean of cos is 0
        oracle, err = scipy.integrate.quad(lambda s: np.cos(2 * np.pi * s) ** 2, 0, 1)
        assert err < 1e-9
        n = 128
        p = ModuliPoint(plane, Loop.circle(1.0, n=n), HalfDensity.uniform(n), strict=False)
        product, separate = non_multiplicativity_witness(expr("x"), expr("x"), p)
        assert product == pytest.approx(oracle, abs=1e-12)
        assert product == pytest.approx(0.5, abs=1e-12)
        assert separate == pytest.approx(0.0, abs=1e-12)
        assert abs(product - separate) > 0.01

    def test_unit_field_multiplicative(self, ellipse_point):
        product, separate = non_multiplicativity_witness(expr("1"), expr("x*y"), ellipse_point)
        assert product == pytest.approx(separate, abs=1e-12)

    def test_constant_restriction_multiplicative(self, plane):
        n = 64
        p = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), HalfDensity.uniform(n))
        product, separate = non_multiplicativity_witness(
            expr("x^2+y^2"), expr("x^2+y^2"), p
        )
        assert product == pytest.approx(separate, abs=1e-12)


class TestRestrictedHelpers:
    def test_restricted_values_shape(self, ellipse_point):
        vals = restricted_values(expr("x*y"), ellipse_point)
        assert vals.shape == (ellipse_point.n,)

    def test_flat_of_field_A_is_B(self, ellipse_point, rng):
        p = ellipse_point
        f = expr("x^2 - y")
        ell = flat(p, field_A(f, p))
        for _ in range(50):
            v = random_tangent(p, rng)
            assert ell(v) == pytest.approx(oneform_B(f, p, v), abs=1e-10)


def test_public_names_resolve():
    import bsmoduli

    missing = [name for name in bsmoduli.__all__ if not hasattr(bsmoduli, name)]
    assert missing == []
    assert "InducedObservable" not in bsmoduli.__all__
    assert not hasattr(bsmoduli, "InducedObservable")
    assert not hasattr(observables, "InducedObservable")

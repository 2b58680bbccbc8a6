import json

import numpy as np
import pytest
import scipy.integrate

from bsmoduli import (
    Covector,
    HalfDensity,
    Loop,
    ModuliPoint,
    SingularPairing,
    SymplecticSurface,
    TangentVector,
    dOmega_check,
    differential_covector,
    flat,
    integrate_density,
    omega,
    omega_matrix,
    project_tangent,
    project_to_bs,
    realize_tangent,
    sharp,
)
from bsmoduli.moduli import dense_sharp
from conftest import expr, observed_orders, random_tangent, smooth_tangent


def division_sharp_oracle(p, ell):
    """Independent closed-form dual: solve the pairing by dividing by theta0.

    Valid only when theta0 has no zeros; used to cross-check the matrix
    solve.  The multipliers restore the two linear constraints.
    """
    th = p.theta.values
    vol = integrate_density(th**2)
    a, b = ell.fweight, ell.tweight
    mu = -integrate_density(b * th) / vol
    fvec = b / th + mu
    lam = -integrate_density(a) / vol
    tvec = -(a + lam * th**2) / th
    return TangentVector(fvec, tvec)


class TestModuliPoint:
    def test_strict_validation(self, plane):
        loop = Loop.circle(np.sqrt(1 / np.pi), n=64)
        ModuliPoint(plane, loop, HalfDensity.uniform(64))
        with pytest.raises(ValueError):
            ModuliPoint(plane, loop, HalfDensity(np.full(64, 1.01)))
        with pytest.raises(ValueError):
            ModuliPoint(plane, Loop.circle(1.0, n=64), HalfDensity.uniform(64))

    def test_relaxed_mode(self, plane):
        point = ModuliPoint(plane, Loop.circle(1.0, n=64), HalfDensity.uniform(64), strict=False)
        assert point.n == 64

    def test_sample_count_mismatch(self, plane):
        with pytest.raises(ValueError):
            ModuliPoint(plane, Loop.circle(1.0, n=64), HalfDensity.uniform(32), strict=False)

    def test_json_roundtrip(self, unit_area_circle_point):
        p = unit_area_circle_point
        data = json.loads(json.dumps(p.to_dict()))
        again = ModuliPoint.from_dict(p.surface, data)
        assert np.max(np.abs(again.loop.points - p.loop.points)) == 0.0
        assert np.max(np.abs(again.theta.values - p.theta.values)) == 0.0


class TestProjectTangent:
    def test_constants_are_pure_gauge(self, unit_area_circle_point):
        p = unit_area_circle_point
        v = project_tangent(np.full(p.n, 5.0), np.zeros(p.n), p)
        assert np.max(np.abs(v.fvec)) < 1e-14
        assert np.max(np.abs(v.tvec)) < 1e-14

    def test_weight_direction_removed(self, ellipse_point):
        p = ellipse_point
        v = project_tangent(np.zeros(p.n), p.theta.values.copy(), p)
        assert np.max(np.abs(v.tvec)) < 1e-14

    def test_zero_mean_function_untouched(self, unit_area_circle_point):
        p = unit_area_circle_point
        s = np.arange(p.n) / p.n
        raw = np.sin(2 * np.pi * s)
        v = project_tangent(raw, np.zeros(p.n), p)
        assert np.max(np.abs(v.fvec - raw)) < 1e-14

    def test_constraints_hold(self, ellipse_point, rng):
        p = ellipse_point
        for _ in range(5):
            v = random_tangent(p, rng)
            th = p.theta.values
            assert integrate_density(v.fvec * th**2) == pytest.approx(0.0, abs=1e-10)
            assert integrate_density(th * v.tvec) == pytest.approx(0.0, abs=1e-10)


class TestOmega:
    def test_self_pairing_vanishes(self, ellipse_point, rng):
        p = ellipse_point
        v = random_tangent(p, rng)
        assert omega(p, v, v) == pytest.approx(0.0, abs=1e-13)

    def test_function_function_block_vanishes(self, ellipse_point, rng):
        p = ellipse_point
        n = p.n
        v1 = project_tangent(rng.standard_normal(n), np.zeros(n), p)
        v2 = project_tangent(rng.standard_normal(n), np.zeros(n), p)
        assert omega(p, v1, v2) == 0.0

    def test_quadrature_example(self, plane):
        # uniform weight, v1 = (sin, 0), v2 = (0, sin): value is integral of sin^2
        oracle, err = scipy.integrate.quad(lambda s: np.sin(2 * np.pi * s) ** 2, 0.0, 1.0)
        assert err < 1e-9
        n = 64
        loop = Loop.circle(np.sqrt(1 / np.pi), n=n)
        p = ModuliPoint(plane, loop, HalfDensity.uniform(n))
        s = np.arange(n) / n
        v1 = TangentVector(np.sin(2 * np.pi * s), np.zeros(n))
        v2 = TangentVector(np.zeros(n), np.sin(2 * np.pi * s))
        assert omega(p, v1, v2) == pytest.approx(oracle, abs=1e-13)
        assert omega(p, v1, v2) == pytest.approx(0.5, abs=1e-13)

    def test_constant_function_directions_degenerate(self, ellipse_point, rng):
        # omega((c, 0), v) = 0 for every constrained v: constraint on tvec
        p = ellipse_point
        const = TangentVector(np.full(p.n, 3.7), np.zeros(p.n))
        for _ in range(10):
            v = random_tangent(p, rng)
            assert omega(p, const, v) == pytest.approx(0.0, abs=1e-13)

    def test_antisymmetry(self, ellipse_point, rng):
        p = ellipse_point
        v1 = random_tangent(p, rng)
        v2 = random_tangent(p, rng)
        assert omega(p, v1, v2) == pytest.approx(-omega(p, v2, v1), abs=1e-13)


class TestOmegaMatrix:
    def test_antisymmetric_and_block_structure(self, ellipse_point):
        om = omega_matrix(ellipse_point)
        mat = om.matrix
        m = ellipse_point.n - 1
        assert np.max(np.abs(mat + mat.T)) < 1e-13
        assert np.max(np.abs(mat[:m, :m])) == 0.0
        assert np.max(np.abs(mat[m:, m:])) == 0.0

    def test_nondegenerate_at_32(self, plane):
        n = 32
        loop = Loop.circle(np.sqrt(1 / np.pi), n=n)
        for theta in (HalfDensity.uniform(n), HalfDensity.cosine_profile(n)):
            om = omega_matrix(ModuliPoint(plane, loop, theta))
            assert om.min_singular > 1e-6

    def test_uniform_weight_gives_orthogonal_pairing(self, plane):
        n = 32
        p = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), HalfDensity.uniform(n))
        om = omega_matrix(p)
        assert om.min_singular == pytest.approx(1.0, abs=1e-12)
        assert om.max_singular == pytest.approx(1.0, abs=1e-12)

    def test_matrix_agrees_with_formula(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        for _ in range(5):
            v1 = random_tangent(p, rng)
            v2 = random_tangent(p, rng)
            x1 = np.concatenate(om.coordinates(v1))
            x2 = np.concatenate(om.coordinates(v2))
            assert x1 @ om.matrix @ x2 == pytest.approx(omega(p, v1, v2), abs=1e-12)

    def test_basis_reproduces_vectors(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        v = random_tangent(p, rng)
        xf, xt = om.coordinates(v)
        again = om.from_coordinates(xf, xt)
        assert np.max(np.abs(again.fvec - v.fvec)) < 1e-12
        assert np.max(np.abs(again.tvec - v.tvec)) < 1e-12


class TestSharp:
    def test_zero_functional(self, ellipse_point):
        p = ellipse_point
        v = sharp(p, Covector(np.zeros(p.n), np.zeros(p.n)))
        assert v.norm() < 1e-14

    def test_flat_sharp_roundtrip(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        target = random_tangent(p, rng)
        ell = flat(p, target)
        v = sharp(p, ell, om=om)
        assert np.max(np.abs(v.fvec - target.fvec)) < 1e-10
        assert np.max(np.abs(v.tvec - target.tvec)) < 1e-10

    def test_roundtrip_functional_values(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        ell = Covector(rng.standard_normal(p.n), rng.standard_normal(p.n))
        v = sharp(p, ell, om=om)
        for _ in range(10):
            probe = random_tangent(p, rng)
            assert omega(p, v, probe) == pytest.approx(ell(probe), abs=1e-10)

    def test_against_division_oracle(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        ell = Covector(rng.standard_normal(p.n), rng.standard_normal(p.n))
        got = sharp(p, ell, om=om)
        oracle = division_sharp_oracle(p, ell)
        assert np.max(np.abs(got.fvec - oracle.fvec)) < 1e-9
        assert np.max(np.abs(got.tvec - oracle.tvec)) < 1e-9

    def test_weight_oneform_dualizes_to_restriction_field(self, ellipse_point):
        # the covector v -> <f theta0 tvec> must sharpen to the restriction
        # tangent (f(gamma) - mean, 0)
        from bsmoduli import field_A
        from bsmoduli.observables import restricted_values
        from conftest import expr

        p = ellipse_point
        f = expr("x^2 - y")
        ell = Covector(np.zeros(p.n), restricted_values(f, p) * p.theta.values)
        got = sharp(p, ell)
        want = field_A(f, p)
        assert np.max(np.abs(got.fvec - want.fvec)) < 1e-10
        assert np.max(np.abs(got.tvec)) < 1e-10

    def test_singular_weight_raises(self, plane):
        n = 64
        s = np.arange(n) / n
        theta = HalfDensity(np.sqrt(2) * np.sin(2 * np.pi * s))
        p = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), theta)
        with pytest.raises(SingularPairing):
            sharp(p, Covector(np.ones(n), np.ones(n)))

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_pointwise_matches_dense(self, n):
        plane = SymplecticSurface.plane()
        loop = project_to_bs(Loop.ellipse(1.3, 0.8, center=(0.2, -0.1), n=n), plane)
        rng = np.random.default_rng(n)
        densities = [
            HalfDensity.uniform(n),
            HalfDensity.cosine_profile(n, 0.3, 1),
            HalfDensity.cosine_profile(n, 0.9, 3),
        ]
        for theta in densities:
            p = ModuliPoint(plane, loop, theta)
            om = omega_matrix(p)
            covectors = [Covector(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(3)]
            covectors.append(differential_covector(expr("x*y+0.3*x^2"), p))
            for ell in covectors:
                got = sharp(p, ell)
                want = sharp(p, ell, om=om)
                scale = max(np.max(np.abs(want.fvec)), np.max(np.abs(want.tvec)))
                err = max(np.max(np.abs(got.fvec - want.fvec)), np.max(np.abs(got.tvec - want.tvec)))
                assert err <= 1e-12 * scale

    def test_dense_route_singular_weight_raises(self, plane):
        n = 64
        s = np.arange(n) / n
        theta = HalfDensity(np.sqrt(2) * np.sin(2 * np.pi * s))
        p = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), theta)
        with pytest.raises(SingularPairing):
            sharp(p, Covector(np.ones(n), np.ones(n)), om=omega_matrix(p))

    def test_batch_of_one_matches_single_rhs_solve(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        for _ in range(3):
            ell = Covector(rng.standard_normal(p.n), rng.standard_normal(p.n))
            lf, lt = om.covector_coefficients(ell)
            xf, xt = dense_sharp(om, lf[:, None], lt[:, None])
            got = om.from_coordinates(xf[:, 0], xt[:, 0])
            single = om.from_coordinates(
                np.linalg.solve(om.k_block.T, lt), -np.linalg.solve(om.k_block, lf)
            )
            want = sharp(p, ell, om=om)
            for v in (got, single):
                assert np.array_equal(v.fvec, want.fvec)
                assert np.array_equal(v.tvec, want.tvec)


class TestRealizeTangent:
    def test_zero_vector_fixes_point(self, ellipse_point):
        p = ellipse_point
        q = realize_tangent(p, TangentVector.zero(p.n), 0.01)
        assert np.max(np.abs(q.loop.points - p.loop.points)) < 1e-12
        assert np.max(np.abs(q.theta.values - p.theta.values)) < 1e-12

    def test_fiber_direction_moves_only_weight(self, ellipse_point):
        p = ellipse_point
        v = smooth_tangent(p, fharmonics=(), tharmonics=((2, 0.5, 0.1),))
        q = realize_tangent(p, v, 1e-3)
        assert np.max(np.abs(q.loop.points - p.loop.points)) < 1e-12
        assert np.max(np.abs(q.theta.values - p.theta.values)) > 1e-5

    def test_level_defect_second_order(self, ellipse_point):
        p = ellipse_point
        v = smooth_tangent(p)
        defects = []
        for t in (4e-3, 2e-3, 1e-3, 5e-4):
            _, report = realize_tangent(p, v, t, return_report=True)
            defects.append(report["bs_defect"])
        orders = observed_orders(defects)
        assert np.all(orders >= 1.9)

    def test_volume_defect_second_order(self, ellipse_point):
        p = ellipse_point
        v = smooth_tangent(p)
        defects = []
        for t in (4e-3, 2e-3, 1e-3, 5e-4):
            _, report = realize_tangent(p, v, t, return_report=True)
            defects.append(report["volume_defect"])
        orders = observed_orders(defects)
        assert np.all(orders >= 1.9)

    def test_back_and_forth_second_order(self, ellipse_point):
        p = ellipse_point
        v = smooth_tangent(p)
        gaps = []
        for t in (2e-3, 1e-3, 5e-4):
            q = realize_tangent(realize_tangent(p, v, t), v, -t)
            gaps.append(np.max(np.abs(q.loop.points - p.loop.points)))
        orders = observed_orders(gaps)
        assert np.all(orders >= 1.8)


class TestClosedness:
    def test_exterior_derivative_residual_decreases(self, plane):
        n = 32
        loop = Loop.circle(np.sqrt(1 / np.pi), center=(0.2, 0.1), n=n)
        p = ModuliPoint(plane, loop, HalfDensity.cosine_profile(n))
        s = np.arange(n) / n
        u = TangentVector(np.sin(2 * np.pi * s), np.cos(2 * np.pi * s))
        v = TangentVector(np.cos(2 * np.pi * s), 0.4 * np.sin(4 * np.pi * s))
        w = TangentVector(0.7 * np.sin(4 * np.pi * s), -0.2 * np.cos(2 * np.pi * s))
        coarse = abs(dOmega_check(p, u, v, w, step=1e-3))
        fine = abs(dOmega_check(p, u, v, w, step=5e-4))
        assert coarse / fine >= 1.8

    def test_repeated_field_vanishes(self, plane):
        n = 32
        loop = Loop.circle(np.sqrt(1 / np.pi), n=n)
        p = ModuliPoint(plane, loop, HalfDensity.cosine_profile(n))
        s = np.arange(n) / n
        u = TangentVector(np.sin(2 * np.pi * s), np.cos(2 * np.pi * s))
        w = TangentVector(0.7 * np.sin(4 * np.pi * s), -0.2 * np.cos(2 * np.pi * s))
        assert dOmega_check(p, u, u, w, step=1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_zero_fields_vanish(self, plane):
        n = 32
        loop = Loop.circle(np.sqrt(1 / np.pi), n=n)
        p = ModuliPoint(plane, loop, HalfDensity.uniform(n))
        z = TangentVector.zero(n)
        assert dOmega_check(p, z, z, z, step=1e-3) == 0.0


class TestGaugeInvariance:
    def test_rolled_point_preserves_pairings(self, ellipse_point, rng):
        p = ellipse_point
        k = 29
        rolled = p.rolled(k)
        v1 = smooth_tangent(p)
        v2 = smooth_tangent(p, fharmonics=((3, 0.2, 0.0),), tharmonics=((2, 0.0, 0.6),))
        w1 = TangentVector(np.roll(v1.fvec, -k), np.roll(v1.tvec, -k))
        w2 = TangentVector(np.roll(v2.fvec, -k), np.roll(v2.tvec, -k))
        assert omega(rolled, w1, w2) == pytest.approx(omega(p, v1, v2), abs=1e-13)

    def test_constant_shift_changes_nothing(self, ellipse_point, rng):
        p = ellipse_point
        v1 = random_tangent(p, rng)
        v2 = random_tangent(p, rng)
        shifted = TangentVector(v1.fvec + 4.2, v1.tvec)
        assert omega(p, shifted, v2) == pytest.approx(omega(p, v1, v2), abs=1e-12)

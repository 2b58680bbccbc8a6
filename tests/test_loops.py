import json

import numpy as np
import pytest
import scipy.integrate

from bsmoduli import (
    AreaTooSmall,
    DegenerateLoop,
    GeometryError,
    HalfDensity,
    Loop,
    ModuliPoint,
    NonContractibleLoop,
    PrequantizationError,
    SymplecticSurface,
    action_integral,
    bs_defect,
    integrate_density,
    is_bohr_sommerfeld,
    loop_derivative,
    project_to_bs,
    resample,
)
from bsmoduli import loops
from bsmoduli.loops import GAP_FLOOR, trig_resample, winding_numbers
from conftest import expr


def shoelace_area(points):
    """Independent polygon-area oracle (signed)."""
    x = points[:, 0]
    y = points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestLoopDerivative:
    def test_constant_sequence(self):
        assert np.allclose(loop_derivative(np.full(32, 2.5)), 0.0, atol=1e-14)

    def test_bandlimited_exactness(self):
        n = 64
        s = np.arange(n) / n
        got = loop_derivative(np.sin(2 * np.pi * s))
        assert np.max(np.abs(got - 2 * np.pi * np.cos(2 * np.pi * s))) < 1e-12

    def test_exact_for_trig_polynomials(self, rng):
        n = 64
        s = np.arange(n) / n
        u = np.zeros(n)
        du = np.zeros(n)
        for k in range(1, n // 2 - 1):
            a, b = rng.standard_normal(2) / (1 + k)
            u += a * np.cos(2 * np.pi * k * s) + b * np.sin(2 * np.pi * k * s)
            du += 2 * np.pi * k * (-a * np.sin(2 * np.pi * k * s) + b * np.cos(2 * np.pi * k * s))
        assert np.max(np.abs(loop_derivative(u) - du)) < 1e-10

    def test_sawtooth_no_nan(self):
        s = np.arange(64) / 64
        out = loop_derivative(s)
        assert np.all(np.isfinite(out))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            loop_derivative(np.zeros(33))

    def test_multicolumn(self):
        n = 32
        s = np.arange(n) / n
        u = np.stack([np.cos(2 * np.pi * s), np.sin(4 * np.pi * s)], axis=1)
        got = loop_derivative(u)
        assert np.allclose(got[:, 0], -2 * np.pi * np.sin(2 * np.pi * s), atol=1e-12)
        assert np.allclose(got[:, 1], 4 * np.pi * np.cos(4 * np.pi * s), atol=1e-12)

    @pytest.mark.parametrize("shape", [(64,), (64, 2), (32, 3, 2)])
    def test_bitwise_equal_to_reshaped_multiplier(self, shape):
        # oracle: the multiplier built afresh and reshaped for this call
        u = np.random.default_rng(3).standard_normal(shape)
        n = shape[0]
        mult = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
        mult[-1] = 0.0
        mult = mult.reshape((-1,) + (1,) * (u.ndim - 1))
        want = np.fft.irfft(np.fft.rfft(u, axis=0) * mult, n=n, axis=0)
        for _ in range(2):  # the second call reuses the cached multiplier
            assert loop_derivative(u).tobytes() == want.tobytes()

    def test_cached_multiplier_is_read_only(self):
        loop_derivative(np.zeros((64, 2)))
        mult = loops._derivative_multiplier(64, 2)
        assert mult.shape == (33, 1)
        with pytest.raises(ValueError):
            mult[1] = 0.0


def mean_oracle(d):
    """The rectangle rule as np.mean computes it."""
    return float(np.mean(np.asarray(d, dtype=float)))


class TestIntegrateDensity:
    def test_unit(self):
        assert integrate_density(np.ones(16)) == pytest.approx(1.0, abs=1e-15)

    def test_pure_harmonic(self):
        s = np.arange(32) / 32
        assert integrate_density(np.cos(2 * np.pi * s)) == pytest.approx(0.0, abs=1e-14)

    def test_shifted_sine_square_against_quadrature_oracle(self):
        # oracle: adaptive quadrature of (1.5 + sin(2 pi s))^2 over one period
        oracle, err = scipy.integrate.quad(lambda s: (1.5 + np.sin(2 * np.pi * s)) ** 2, 0.0, 1.0)
        assert err < 1e-8
        assert oracle == pytest.approx(2.75, abs=1e-12)
        s = np.arange(8) / 8
        got = integrate_density((1.5 + np.sin(2 * np.pi * s)) ** 2)
        assert got == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, -0.0, 0.0],
        [-0.0, -0.0, -0.0, -0.0],
        [1.5, -0.0, np.inf, 2.0],
        [-np.inf, 1.0, 0.0, -0.0],
        [np.inf, -np.inf, 1.0, 2.0],
        [np.nan, 1.0, -0.0, 3.0],
        [1.0, -np.nan, np.inf, -0.0],
    ])
    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    def test_bitwise_equal_to_numpy_mean(self, values, shape):
        d = np.reshape(values, shape)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN in both forms
            got, want = integrate_density(d), mean_oracle(d)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("shape", [(128,), (64, 2), (7, 5, 2)])
    def test_bitwise_equal_to_numpy_mean_on_random_samples(self, shape):
        d = np.random.default_rng(5).standard_normal(shape)
        assert np.float64(integrate_density(d)).tobytes() == np.float64(mean_oracle(d)).tobytes()
        assert integrate_density(d.tolist()) == mean_oracle(d)


class TestLoopValidation:
    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            Loop(np.zeros((8, 2)) + np.arange(8)[:, None])

    def test_odd_count_rejected(self):
        pts = Loop.circle(1.0, n=18).points[:17]
        with pytest.raises(ValueError):
            Loop(pts)

    def test_degenerate_gap(self):
        pts = Loop.circle(1.0, n=32).points.copy()
        pts[5] = pts[4]
        with pytest.raises(DegenerateLoop):
            Loop(pts)

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8)])
    @pytest.mark.parametrize("steps", [-1, 0, 1])
    def test_gap_verdict_at_the_floor_matches_the_norm_formula(self, direction, steps):
        # oracle: the smallest Euclidean gap from np.linalg.norm, compared with <= GAP_FLOOR
        gap = GAP_FLOOR
        for _ in range(abs(steps)):
            gap = np.nextafter(gap, np.inf if steps > 0 else 0.0)
        pts = Loop.circle(1.0, center=(-1.0, 0.0), n=32).points.copy()
        pts[0] = (0.0, 0.0)
        pts[1] = (gap * direction[0], gap * direction[1])
        norms = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
        rejected = bool(np.min(norms) <= GAP_FLOOR)
        if direction[0] != 0.6:
            assert rejected == (steps <= 0)  # exactly at the floor is degenerate
        try:
            loops._require_gaps(pts)
        except DegenerateLoop as exc:
            assert rejected
            assert str(exc) == "consecutive loop samples closer than 1e-12"
        else:
            assert not rejected

    @pytest.mark.filterwarnings("error")
    def test_coordinates_beyond_1e154_build(self):
        # the squared gaps would overflow here; the gaps themselves do not
        loop = Loop.circle(1e160, n=32)
        assert np.isfinite(loop.points).all()

    def test_points_are_frozen(self):
        loop = Loop.circle(1.0, n=32)
        with pytest.raises(ValueError):
            loop.points[0, 0] = 99.0


class TestActionIntegral:
    def test_circle_area_any_center(self, plane, rng):
        for _ in range(3):
            r = rng.uniform(0.4, 1.6)
            center = rng.uniform(-2, 2, 2)
            loop = Loop.circle(r, center=center, n=256)
            assert action_integral(loop, plane) == pytest.approx(np.pi * r**2, abs=1e-12)

    def test_orientation_flip(self, plane):
        loop = Loop.circle(1.0, n=256, orientation=-1)
        assert action_integral(loop, plane) == pytest.approx(-np.pi, abs=1e-12)

    def test_perturbed_circle_is_counterclockwise_from_angle_zero(self, plane):
        # r(t) = 1 + 0.12 cos 2t + 0.08 sin 3t about the center, so the signed area is
        # pi (1 + (0.12^2 + 0.08^2) / 2) > 0
        center = np.array([-0.4, 0.25])
        loop = Loop.perturbed_circle(1.0, center=tuple(center), n=128,
                                     harmonics=[(2, 0.12, 0.0), (3, 0.0, 0.08)])
        t = 2 * np.pi * np.arange(128) / 128
        r = 1.0 + 0.12 * np.cos(2 * t) + 0.08 * np.sin(3 * t)
        want = center + r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=1)
        assert np.max(np.abs(loop.points - want)) < 1e-15
        area = np.pi * (1 + (0.12**2 + 0.08**2) / 2)
        assert action_integral(loop, plane) == pytest.approx(area, abs=1e-12)

    def test_ellipse_against_shoelace_oracle(self, plane):
        loop = Loop.ellipse(2.0, 0.5, n=256)
        dense = Loop.ellipse(2.0, 0.5, n=2**17)
        oracle = shoelace_area(dense.points)
        got = action_integral(loop, plane)
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(np.pi, abs=1e-10)

    def test_action_independent_of_parametrization_shift(self, plane):
        loop = Loop.perturbed_circle(1.0, n=128, harmonics=[(2, 0.1, 0.05)])
        base = action_integral(loop, plane)
        for k in (1, 17, 64):
            assert action_integral(loop.rolled(k), plane) == pytest.approx(base, abs=1e-12)


class TestBsDefect:
    def test_unit_area_circle(self, plane):
        loop = Loop.circle(np.sqrt(1 / np.pi), n=256)
        assert bs_defect(loop, plane) == pytest.approx(0.0, abs=1e-12)
        assert is_bohr_sommerfeld(loop, plane)

    def test_unit_radius_circle(self, plane):
        loop = Loop.circle(1.0, n=256)
        assert bs_defect(loop, plane) == pytest.approx(np.pi - 3.0, abs=1e-12)

    def test_gauge_invariance_across_potentials(self):
        def const_zero(x, y):
            return np.zeros_like(np.asarray(x, dtype=float))

        surfaces = [
            SymplecticSurface.plane(),
            SymplecticSurface.plane(potential=(const_zero, lambda x, y: np.asarray(x, dtype=float))),
            SymplecticSurface.plane(potential=(lambda x, y: -np.asarray(y, dtype=float), const_zero)),
        ]
        loop = Loop.perturbed_circle(0.9, center=(0.4, -0.3), n=128, harmonics=[(2, 0.1, 0.05)])
        values = [bs_defect(loop, surface) for surface in surfaces]
        assert max(values) - min(values) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_an_action_that_is_not_finite_is_on_no_level(self, plane):
        loop = Loop.circle(1e155, n=32)
        message = "^action inf is not finite, so the loop lies on no level$"
        with pytest.raises(GeometryError, match=message):
            bs_defect(loop, plane)
        with pytest.raises(GeometryError, match=message):
            ModuliPoint(plane, loop, HalfDensity.uniform(32))
        with pytest.raises(GeometryError, match=message):
            project_to_bs(loop, plane)

    def test_defect_range(self, plane, rng):
        for _ in range(5):
            loop = Loop.circle(rng.uniform(0.3, 1.5), n=64)
            d = bs_defect(loop, plane)
            assert -0.5 <= d < 0.5


class TestProjectToBs:
    def test_unit_circle_to_level_three(self, plane):
        loop = Loop.circle(1.0, n=256)
        projected = project_to_bs(loop, plane)
        assert action_integral(projected, plane) == pytest.approx(3.0, abs=1e-12)
        radius = np.linalg.norm(projected.points[0] - projected.centroid())
        assert radius == pytest.approx(np.sqrt(3 / np.pi), rel=1e-12)

    def test_already_projected_unchanged(self, plane):
        loop = Loop.circle(np.sqrt(1 / np.pi), n=128)
        projected = project_to_bs(loop, plane)
        assert np.max(np.abs(projected.points - loop.points)) < 1e-14

    def test_small_area_rejected(self, plane):
        with pytest.raises(AreaTooSmall):
            project_to_bs(Loop.circle(0.1, n=64), plane)

    def test_half_level_rejected(self, plane):
        # area ~0.45 rounds to level 0
        with pytest.raises(AreaTooSmall):
            project_to_bs(Loop.circle(0.38, n=64), plane)

    def test_negative_orientation(self, plane):
        loop = Loop.circle(1.0, n=256, orientation=-1)
        projected = project_to_bs(loop, plane)
        assert action_integral(projected, plane) == pytest.approx(-3.0, abs=1e-12)

    def test_nonconstant_density_converges(self):
        w = expr("1 + 0.5*sin(x)")
        surface = SymplecticSurface.plane(
            omega_density=w,
            potential=(lambda x, y: np.zeros_like(np.asarray(x, float)),
                       lambda x, y: np.asarray(x, float) - 0.5 * np.cos(x)),
        )
        loop = Loop.circle(0.8, center=(0.3, 0.0), n=256)
        projected = project_to_bs(loop, surface)
        assert abs(bs_defect(projected, surface)) <= 1e-12


class TestResample:
    def test_identity(self, plane):
        loop = Loop.perturbed_circle(1.0, n=64, harmonics=[(3, 0.1, 0.02)])
        again = resample(loop, 64)
        assert np.max(np.abs(again.points - loop.points)) == 0.0

    def test_upsample_preserves_action(self, plane):
        loop = Loop.perturbed_circle(1.0, n=64, harmonics=[(3, 0.1, 0.02)])
        fine = resample(loop, 256)
        assert action_integral(fine, plane) == pytest.approx(
            action_integral(loop, plane), abs=1e-12
        )

    def test_upsample_interpolates_samples(self):
        loop = Loop.circle(1.0, n=32)
        fine = resample(loop, 128)
        assert np.max(np.abs(fine.points[::4] - loop.points)) < 1e-12

    def test_below_nyquist_detected_by_action_drift(self, plane):
        wiggly = Loop.perturbed_circle(1.0, n=256, harmonics=[(40, 0.15, 0.0)])
        down = resample(wiggly, 32)
        drift = abs(action_integral(down, plane) - action_integral(wiggly, plane))
        assert drift > 1e-3

    def test_trig_resample_roundtrip(self):
        n = 32
        s = np.arange(n) / n
        u = np.cos(2 * np.pi * s) + 0.3 * np.sin(6 * np.pi * s)
        up = trig_resample(u, 128)
        back = trig_resample(up, n)
        assert np.max(np.abs(back - u)) < 1e-13

    def test_bad_target_rejected(self):
        loop = Loop.circle(1.0, n=32)
        with pytest.raises(ValueError):
            resample(loop, 15)

    def test_downsample_keeps_the_top_modes(self):
        # 64 -> 16 samples keeps every mode below the new Nyquist mode 8, the top one (7)
        # included
        def u(n):
            s = np.arange(n) / n
            return (0.3 + np.cos(14 * np.pi * s) - 0.4 * np.sin(14 * np.pi * s)
                    + 0.5 * np.sin(12 * np.pi * s))

        np.testing.assert_allclose(trig_resample(u(64), 16), u(16), rtol=0, atol=1e-13)


class TestHalfDensity:
    def test_volume_and_normalization(self, rng):
        values = 1.0 + 0.3 * rng.standard_normal(64)
        theta = HalfDensity(values)
        assert theta.volume() == pytest.approx(np.mean(values**2), abs=1e-15)
        assert theta.normalized().volume() == pytest.approx(1.0, abs=1e-14)

    def test_volume_rotation_invariant(self):
        theta = HalfDensity.cosine_profile(64)
        rolled = HalfDensity(np.roll(theta.values, 17))
        assert rolled.volume() == pytest.approx(theta.volume(), abs=1e-15)

    def test_uniform_profile(self):
        assert HalfDensity.uniform(32).volume() == pytest.approx(1.0, abs=1e-15)

    def test_json_roundtrip(self):
        theta = HalfDensity.cosine_profile(32)
        again = HalfDensity.from_dict(json.loads(json.dumps(theta.to_dict())))
        assert np.max(np.abs(again.values - theta.values)) == 0.0


def wound_lift():
    """A 64-sample lift that winds once around the x period of the 2 x 1 torus."""
    s = np.arange(64) / 64
    return Loop(np.stack([2.0 * s, 0.5 + 0.1 * np.sin(2 * np.pi * s)], axis=1))


def wound_in_y(n, y0=1.0):
    """An n-sample lift that winds once around the y period of the 1.5 x 2.5 torus."""
    s = np.arange(n) / n
    return Loop(np.stack([0.7 + 0.1 * np.sin(2 * np.pi * s),
                          y0 + 2.5 * s + 0.05 * np.cos(2 * np.pi * s)], axis=1))


class TestTorus:
    @pytest.mark.parametrize("wrapped", [False, True])
    def test_winding_in_y_with_a_period_other_than_one(self, wrapped):
        # Ly = 2.5, so a wrap that multiplies by Ly where it divides miscounts
        torus = SymplecticSurface.torus(1.5, 2.5)
        points = wound_in_y(64).points
        if wrapped:
            points = np.mod(points, [1.5, 2.5])
        assert winding_numbers(Loop(points), torus) == (0, 1)
        assert winding_numbers(Loop(points[::-1]), torus) == (0, -1)

    def test_resample_loop_wound_in_y(self):
        # the linear part of the lift is wind[1] * Ly * s in y
        torus = SymplecticSurface.torus(1.5, 2.5)
        fine = resample(wound_in_y(64), 128, surface=torus)
        assert winding_numbers(fine, torus) == (0, 1)
        assert np.max(np.abs(fine.points - wound_in_y(128).points)) < 1e-12

    def test_contractible_action_matches_area(self):
        torus = SymplecticSurface.torus(2.0, 1.0)
        loop = Loop.circle(0.3, center=(1.0, 0.5), n=128)
        assert winding_numbers(loop, torus) == (0, 0)
        assert action_integral(loop, torus) == pytest.approx(np.pi * 0.09, abs=1e-12)

    def test_wound_loop_detected_and_rejected(self):
        torus = SymplecticSurface.torus(2.0, 1.0)
        wound = wound_lift()
        assert winding_numbers(wound, torus) == (1, 0)
        with pytest.raises(NonContractibleLoop):
            action_integral(wound, torus)
        with pytest.raises(NonContractibleLoop, match=r"winding \(1, 0\)"):
            bs_defect(wound, torus)
        with pytest.raises(NonContractibleLoop):
            project_to_bs(wound, torus)

    def test_integrality_required_for_levels(self):
        bad = SymplecticSurface.torus(1.5, 1.0)
        loop = Loop.circle(0.2, center=(0.7, 0.5), n=64)
        with pytest.raises(PrequantizationError):
            bs_defect(loop, bad)
        good = SymplecticSurface.torus(2.0, 1.0)
        assert abs(bs_defect(loop, good)) < 0.5

    def test_prequantization_number_computed_once(self, monkeypatch):
        torus = SymplecticSurface.torus(
            1.0, 1.0, omega_density=expr("1+0.5*cos(2*pi*x)"),
            potential=(expr("0"), expr("x+sin(2*pi*x)/(4*pi)")),
        )
        grid_calls = []
        density = torus.density

        def counted(x, y):
            if np.shape(x) == (256, 256):
                grid_calls.append(1)
            return density(x, y)

        monkeypatch.setattr(torus, "density", counted)
        loop = Loop.circle(0.2, center=(0.5, 0.5), n=128)
        defects = [bs_defect(loop, torus) for _ in range(10)]
        assert len(grid_calls) == 1
        assert defects == [defects[0]] * 10

    def test_resample_wound_loop(self):
        torus = SymplecticSurface.torus(2.0, 1.0)
        wound = wound_lift()
        fine = resample(wound, 128, surface=torus)
        assert winding_numbers(fine, torus) == (1, 0)
        assert np.max(np.abs(fine.points[::2] - wound.points)) < 1e-12


class TestLoopSerialization:
    def test_json_roundtrip(self):
        loop = Loop.perturbed_circle(1.0, n=32, harmonics=[(2, 0.1, 0.0)])
        data = json.loads(json.dumps(loop.to_dict()))
        again = Loop.from_dict(data)
        assert np.max(np.abs(again.points - loop.points)) == 0.0
        assert data == {"points": loop.points.tolist()}

    def test_old_winding_key_is_ignored(self):
        loop = Loop.perturbed_circle(1.0, n=32, harmonics=[(2, 0.1, 0.0)])
        again = Loop.from_dict({"points": loop.points.tolist(), "winding": [1, 0]})
        assert again.points.tobytes() == loop.points.tobytes()
        assert again.to_dict() == loop.to_dict()

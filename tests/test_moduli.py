import json

import numpy as np
import pytest
import scipy.integrate

from bsmoduli import (
    Covector,
    DegenerateLoop,
    GeometryError,
    HalfDensity,
    Loop,
    ModuliPoint,
    SingularPairing,
    SymplecticSurface,
    TangentVector,
    dOmega_check,
    differential_covector,
    field_A,
    flat,
    integrate_density,
    moduli,
    moduli_bracket,
    omega,
    omega_matrix,
    project_tangent,
    project_to_bs,
    realize_tangent,
    sharp,
)
from bsmoduli.loops import _defect_and_projection
from bsmoduli.moduli import _normal_displacement, _retract, dense_brackets
from bsmoduli.observables import bracket_reports
from conftest import (
    assembled_matrix,
    dense_sharp,
    expr,
    from_coordinates,
    kernel_point,
    observed_orders,
    random_tangent,
    smooth_tangent,
    weighted_torus,
)


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
        mat = assembled_matrix(om)
        m = ellipse_point.n - 1
        assert np.max(np.abs(mat + mat.T)) < 1e-13
        assert np.max(np.abs(mat[:m, :m])) == 0.0
        assert np.max(np.abs(mat[m:, m:])) == 0.0

    def test_nondegenerate_at_32(self, plane):
        n = 32
        loop = Loop.circle(np.sqrt(1 / np.pi), n=n)
        for theta in (HalfDensity.uniform(n), HalfDensity.cosine_profile(n)):
            om = omega_matrix(ModuliPoint(plane, loop, theta))
            assert om.sigma_lower_bound > 1e-6

    def test_uniform_weight_gives_orthogonal_pairing(self, plane):
        n = 32
        p = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), HalfDensity.uniform(n))
        om = omega_matrix(p)
        assert om.sigma_lower_bound == pytest.approx(1.0, abs=1e-12)
        assert om.sigma_upper_bound == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(om.singular_values(), 1.0, rtol=0, atol=1e-12)

    def test_matrix_agrees_with_formula(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        for _ in range(5):
            v1 = random_tangent(p, rng)
            v2 = random_tangent(p, rng)
            x1 = np.concatenate(om.coordinates(v1.fvec, v1.tvec))
            x2 = np.concatenate(om.coordinates(v2.fvec, v2.tvec))
            assert x1 @ assembled_matrix(om) @ x2 == pytest.approx(omega(p, v1, v2), abs=1e-12)

    def test_basis_reproduces_vectors(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        v = random_tangent(p, rng)
        fvec, tvec = from_coordinates(om, *om.coordinates(v.fvec, v.tvec))
        assert np.max(np.abs(fvec - v.fvec)) < 1e-12
        assert np.max(np.abs(tvec - v.tvec)) < 1e-12


def explicit_fourier_basis(n):
    """The orthonormal real Fourier basis of R^n as explicit np.cos/np.sin columns."""
    s = np.arange(n) / n
    cols = [np.full(n, 1.0 / np.sqrt(n))]
    for k in range(1, n // 2):
        cols.append(np.sqrt(2.0 / n) * np.cos(2 * np.pi * k * s))
        cols.append(np.sqrt(2.0 / n) * np.sin(2 * np.pi * k * s))
    cols.append((-1.0) ** np.arange(n) / np.sqrt(n))
    return np.stack(cols, axis=1)


class DenseReference:
    """The pairing assembled densely: explicit Fourier columns, QR complements, K by gemm."""

    def __init__(self, p):
        n = p.n
        th = p.theta.values
        fourier = explicit_fourier_basis(n)

        def complement(direction):
            coeff = fourier.T @ (direction / np.linalg.norm(direction))
            q, _ = np.linalg.qr(coeff[:, None], mode="complete")
            return fourier @ q[:, 1:] * np.sqrt(n)

        self.n = n
        self.f_basis, self.t_basis = complement(th**2), complement(th)
        self.k_block = (self.f_basis.T * th) @ self.t_basis / n

    def duals(self, covectors):
        lf = np.stack([self.f_basis.T @ ell.fweight / self.n for ell in covectors], axis=1)
        lt = np.stack([self.t_basis.T @ ell.tweight / self.n for ell in covectors], axis=1)
        xt = -np.linalg.solve(self.k_block, lf)
        xf = np.linalg.solve(self.k_block.T, lt)
        return [TangentVector(self.f_basis @ xf[:, j], self.t_basis @ xt[:, j])
                for j in range(len(covectors))]


def criterion_01_loops(n):
    """The three level-set loops of acceptance criterion 1."""
    plane = SymplecticSurface.plane()
    return [
        Loop.circle(np.sqrt(1 / np.pi), center=(0.3, -0.2), n=n),
        project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane),
        project_to_bs(
            Loop.perturbed_circle(1.0, center=(-0.4, 0.25), n=n,
                                  harmonics=[(2, 0.12, 0.0), (3, 0.0, 0.08)]),
            plane,
        ),
    ]


def explicit_reflector(reflector):
    """The Householder matrix I - beta v v^T as an explicit n x n array."""
    v, beta = reflector
    return np.eye(v.size) - beta * np.multiply.outer(v, v)


class TestComplementReflector:
    @pytest.mark.parametrize("n", [8, 16, 64, 512, 1024])
    def test_maps_the_unit_vector_to_e0_and_is_an_orthogonal_involution(self, n, rng):
        for sign in (1.0, -1.0):
            unit = rng.standard_normal(n)
            unit[0] = sign * abs(unit[0])
            unit /= np.linalg.norm(unit)
            reflector = moduli._complement_reflector(unit)
            h = explicit_reflector(reflector)
            image = moduli._reflect(unit, reflector)
            assert image[0] == pytest.approx(-sign, abs=1e-14)
            assert np.max(np.abs(image[1:])) < 1e-14
            np.testing.assert_allclose(h @ h.T, np.eye(n), rtol=0, atol=1e-14)
            x = rng.standard_normal(n)
            np.testing.assert_allclose(moduli._reflect(moduli._reflect(x, reflector), reflector),
                                       x, rtol=0, atol=1e-13)
            # columns 1 .. n-1 span the orthogonal complement of the unit vector
            assert np.max(np.abs(unit @ h[:, 1:])) < 1e-14

    @pytest.mark.parametrize("axis", [0, -1])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_coordinate_axis_takes_no_cancellation(self, axis, sign):
        # v[0] is |unit[0]| + 1 in magnitude, so beta stays finite on the axes
        n = 16
        unit = np.zeros(n)
        unit[axis] = sign
        reflector = moduli._complement_reflector(unit)
        assert np.isfinite(reflector[1])
        want = np.zeros(n)
        want[0] = -np.copysign(1.0, unit[0])
        np.testing.assert_allclose(moduli._reflect(unit, reflector), want, rtol=0, atol=1e-15)

    def test_reflect_acts_along_the_last_axis(self, rng):
        n = 32
        unit = rng.standard_normal(n)
        reflector = moduli._complement_reflector(unit / np.linalg.norm(unit))
        x = rng.standard_normal((3, 2, n))
        np.testing.assert_allclose(moduli._reflect(x, reflector),
                                   x @ explicit_reflector(reflector).T, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("theta", ["uniform", "cosine"])
    def test_k_block_is_the_explicit_product(self, plane, theta):
        # K = E^T H_f diag(theta0) H_t E, by explicit matrices and gemm
        n = 64
        density = HalfDensity.uniform(n) if theta == "uniform" else HalfDensity.cosine_profile(n, 0.5, 2)
        p = ModuliPoint(plane, Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), density,
                        strict=False)
        om = omega_matrix(p)
        hf, ht = (explicit_reflector(r) for r in om._reflectors)
        want = (hf * p.theta.values) @ ht
        np.testing.assert_allclose(om.k_block, want[1:, 1:], rtol=0, atol=1e-14)
        # the dropped column carries nothing: H_t e0 is a multiple of theta0,
        # which diag(theta0) takes to one of theta0^2 and H_f to one of e0
        assert np.max(np.abs(want[1:, 0])) < 1e-14


class TestDenseReference:
    @pytest.mark.parametrize("n", [16, 64, 256, 512, 1024])
    def test_assembly_agrees_with_dense_reference(self, n):
        # the package's basis (Householder on samples) is not the reference's
        # (QR on Fourier columns), so this also checks basis independence;
        # measured worst, relative: 5.1e-14 (singular values), 7.9e-15
        # (duals), 3.4e-14 (bracket values), over these instances
        densities = [HalfDensity.cosine_profile(n, 0.5, 3)]
        if n <= 256:
            densities += [HalfDensity.uniform(n), HalfDensity.cosine_profile(n, 0.3, 1),
                          HalfDensity.cosine_profile(n, 0.5, 2)]
        pairs = [("x", "y"), ("x^2", "y"), ("x", "x^2+y^2"), ("sin(x)", "y"), ("x*y", "x^2-y^2")]
        names = sorted({name for pair in pairs for name in pair})
        plane = SymplecticSurface.plane()
        for loop in criterion_01_loops(n)[: 1 if n == 1024 else 3]:
            for theta in densities:
                p = ModuliPoint(plane, loop, theta)
                om, ref = omega_matrix(p), DenseReference(p)
                sigma = np.linalg.svd(om.k_block, compute_uv=False)
                sigma_ref = np.linalg.svd(ref.k_block, compute_uv=False)
                assert np.max(np.abs(sigma - sigma_ref)) <= 1e-12 * sigma_ref.max()
                covectors = [differential_covector(expr(name), p) for name in names]
                want = dict(zip(names, ref.duals(covectors)))
                for name, got in zip(names, dense_sharp(om, covectors)):
                    scale = max(np.max(np.abs(want[name].fvec)), np.max(np.abs(want[name].tvec)))
                    assert np.max(np.abs(got.fvec - want[name].fvec)) <= 1e-13 * scale
                    assert np.max(np.abs(got.tvec - want[name].tvec)) <= 1e-13 * scale
                fields = [(expr(fs), expr(gs)) for fs, gs in pairs]
                reports = bracket_reports(fields, p)
                for (fs, gs), (f, g), report in zip(pairs, fields, reports):
                    reference = {
                        "matrix": omega(p, want[fs], want[gs]),
                        "closed_form": moduli_bracket(f, g, p, "closed_form"),
                        "target": moduli_bracket(f, g, p, "target"),
                    }
                    for route, value in reference.items():
                        assert abs(report[route] - value) <= 1e-12 * abs(value)

    def test_assembly_takes_no_fft(self, ellipse_point, monkeypatch):
        # the basis lives on samples: K, the coordinates, the spectrum and the
        # LU route give the same values with both transforms made to raise
        p = ellipse_point
        _, fw, tw = weights(p)

        def calls(om):
            return [om.k_block, *om.coordinates(fw, tw), om.singular_values(),
                    *moduli._lu_brackets(om, fw, tw)]

        want = calls(omega_matrix(p))

        def no_fft(*args, **kwargs):
            raise AssertionError("the pairing took an FFT")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        monkeypatch.setattr(np.fft, "irfft", no_fft)
        for a, b in zip(calls(omega_matrix(p)), want, strict=True):
            assert np.array_equal(a, b)

    def test_basis_columns_are_mean_orthonormal_complements(self, ellipse_point):
        p = ellipse_point
        om = omega_matrix(p)
        th = p.theta.values
        eye = np.eye(p.n - 1)
        for basis, direction in zip(from_coordinates(om, eye, eye), (th**2, th)):
            np.testing.assert_allclose(basis @ basis.T / p.n, eye, rtol=0, atol=1e-13)
            assert np.max(np.abs(basis @ direction / p.n)) < 1e-14


SHIPPED_FIELDS = ("x", "y", "x^2", "x^2+y^2", "sin(x)", "x*y", "x^2-y^2")


def weights(p, names=SHIPPED_FIELDS):
    covectors = [differential_covector(expr(name), p) for name in names]
    return covectors, np.stack([ell.fweight for ell in covectors]), np.stack([ell.tweight for ell in covectors])


class TestKrylovPairing:
    def test_apply_is_k_block_in_coordinates(self, ellipse_point, rng):
        # on theta0^perp and (theta0^2)^perp, the sample operators are K and K^T
        p = ellipse_point
        om = omega_matrix(p)
        t = rng.standard_normal((3, p.n))
        t -= np.multiply.outer(t @ p.theta.values, p.theta.values) / (p.theta.values @ p.theta.values)
        kt, xt = om.coordinates(om.apply(t), t)
        np.testing.assert_allclose(kt, xt @ om.k_block.T, rtol=0, atol=1e-13)
        f = om.apply(rng.standard_normal((3, p.n)))
        xf, ktf = om.coordinates(f, om.apply_transpose(f))
        np.testing.assert_allclose(ktf, xf @ om.k_block, rtol=0, atol=1e-13)
        assert np.max(np.abs(om.apply(p.theta.values))) < 1e-14

    @pytest.mark.parametrize("amplitude,steps", [(0.0, 1), (0.1, 17), (0.3, 32), (0.46, 49), (0.5, 55)])
    def test_steps_follow_the_enclosure(self, plane, amplitude, steps):
        # kappa = (1 + a)/(1 - a) for cosine(a, h), so (kappa + 1)/(kappa - 1) = 1/a
        n = 64
        theta = HalfDensity.uniform(n) if amplitude == 0 else HalfDensity.cosine_profile(n, amplitude, 2)
        om = omega_matrix(ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), theta))
        assert moduli._krylov_steps(om) == steps

    @pytest.mark.parametrize("n", [64, 512])
    def test_dense_brackets_is_the_krylov_solve_and_builds_no_k_block(self, plane, n):
        loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
        for theta in (HalfDensity.uniform(n), HalfDensity.cosine_profile(n, 0.3, 1)):
            p = ModuliPoint(plane, loop, theta)
            covectors, fw, tw = weights(p)
            om = omega_matrix(p)
            got = dense_brackets(om, covectors)
            assert "k_block" not in vars(om)
            want = moduli._krylov_brackets(omega_matrix(p), fw, tw, moduli._krylov_steps(om))
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            brackets, bound = got
            assert np.array_equal(brackets, -brackets.T)
            assert np.all(np.diag(bound) == 0.0)
            assert np.max(bound) <= moduli.KRYLOV_CERTIFIED * np.max(np.abs(brackets))

    def test_a_solve_that_is_not_certified_falls_back_to_the_lu(self, plane, monkeypatch):
        n = 512
        loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
        p = ModuliPoint(plane, loop, HalfDensity.cosine_profile(n, 0.3, 1))
        covectors, fw, tw = weights(p)
        stopped, bound = moduli._krylov_brackets(omega_matrix(p), fw, tw, 8)
        assert np.max(bound) > moduli.KRYLOV_CERTIFIED * np.max(np.abs(stopped))
        monkeypatch.setattr(moduli, "_krylov_steps", lambda om: 8)
        got = dense_brackets(omega_matrix(p), covectors)
        want = moduli._lu_brackets(omega_matrix(p), fw, tw)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_bounds_cover_both_routes_against_each_other(self, plane):
        n = 256
        loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
        for theta in (HalfDensity.uniform(n), HalfDensity.cosine_profile(n, 0.5, 2)):
            p = ModuliPoint(plane, loop, theta)
            _, fw, tw = weights(p)
            om = omega_matrix(p)
            krylov, krylov_bound = moduli._krylov_brackets(om, fw, tw, moduli._krylov_steps(om))
            lu, lu_bound = moduli._lu_brackets(om, fw, tw)
            roundoff = 32 * np.finfo(float).eps * np.max(np.abs(lu))
            assert np.all(np.abs(krylov - lu) <= krylov_bound + lu_bound + roundoff)

    def test_a_covector_with_no_dual_part_gives_zero_brackets(self, ellipse_point):
        # weights along theta0^2 and theta0 pair to nothing: a zero right-hand side, no 0/0
        p = ellipse_point
        th = p.theta.values
        covectors = [Covector(th**2, 3.0 * th), differential_covector(expr("x"), p)]
        brackets, bound = moduli._krylov_brackets(omega_matrix(p), *np.stack(
            [[ell.fweight for ell in covectors], [ell.tweight for ell in covectors]]), 20)
        assert np.all(np.isfinite(brackets)) and np.all(np.isfinite(bound))
        assert np.max(np.abs(brackets)) < 1e-14


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
        (v,) = dense_sharp(om, [ell])
        assert np.max(np.abs(v.fvec - target.fvec)) < 1e-10
        assert np.max(np.abs(v.tvec - target.tvec)) < 1e-10

    def test_roundtrip_functional_values(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        ell = Covector(rng.standard_normal(p.n), rng.standard_normal(p.n))
        (v,) = dense_sharp(om, [ell])
        for _ in range(10):
            probe = random_tangent(p, rng)
            assert omega(p, v, probe) == pytest.approx(ell(probe), abs=1e-10)

    def test_against_division_oracle(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        ell = Covector(rng.standard_normal(p.n), rng.standard_normal(p.n))
        (got,) = dense_sharp(om, [ell])
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
            for ell, want in zip(covectors, dense_sharp(om, covectors)):
                got = sharp(p, ell)
                scale = max(np.max(np.abs(want.fvec)), np.max(np.abs(want.tvec)))
                err = max(np.max(np.abs(got.fvec - want.fvec)), np.max(np.abs(got.tvec - want.tvec)))
                assert err <= 1e-12 * scale

    def test_dense_route_singular_weight_raises(self, plane):
        n = 64
        s = np.arange(n) / n
        theta = HalfDensity(np.sqrt(2) * np.sin(2 * np.pi * s))
        p = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), theta)
        message = r"^pairing min \|theta0\| 0\.000e\+00 below 1\.0e-10$"
        with pytest.raises(SingularPairing, match=message):
            dense_sharp(omega_matrix(p), [Covector(np.ones(n), np.ones(n))])

    def test_batch_of_one_matches_single_rhs_solve(self, ellipse_point, rng):
        p = ellipse_point
        om = omega_matrix(p)
        for _ in range(3):
            ell = Covector(rng.standard_normal(p.n), rng.standard_normal(p.n))
            (got,) = dense_sharp(om, [ell])
            lf, lt = om.coordinates(ell.fweight, ell.tweight)
            fvec, tvec = from_coordinates(om, 
                np.linalg.solve(om.k_block.T, lt), -np.linalg.solve(om.k_block, lf)
            )
            assert np.array_equal(got.fvec, fvec)
            assert np.array_equal(got.tvec, tvec)


class TestRealizeTangent:
    def test_collapsed_tangent_raises_the_surfaces_floor(self, plane):
        n = 64
        s = np.arange(n) / n
        cusp = np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s) ** 3], axis=1)
        p = ModuliPoint(plane, Loop(cusp), HalfDensity.cosine_profile(n), strict=False)
        with pytest.raises(DegenerateLoop, match="^collapsed loop segment: tangent below 1e-14$"):
            realize_tangent(p, TangentVector.zero(n), 0.1)

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


def oracle_retract(surface, points, theta):
    """The retraction in its earlier object form: volume, projection, then normalized()."""
    raw = HalfDensity(theta)
    volume = raw.volume()
    defect, loop, passes = _defect_and_projection(Loop(points), surface)
    return loop, raw.normalized(), volume, defect, passes


def retraction_bytes(loop, theta, volume, defect, passes):
    return (loop.points.tobytes(), theta.values.tobytes(),
            np.float64(volume).tobytes(), np.float64(defect).tobytes(), passes)


def raw_states(p, seed=31):
    rng = np.random.default_rng(seed)
    for scale in (0.0, 1e-6, 1e-3):
        yield (p.loop.points + scale * rng.standard_normal(p.loop.points.shape),
               1.3 * p.theta.values + scale * rng.standard_normal(p.n))


def surface_of(kind):
    return SymplecticSurface.plane() if kind == "plane" else weighted_torus()


class TestRetract:
    @pytest.mark.parametrize("kind", ["plane", "torus"])
    def test_bitwise_equal_to_the_object_form(self, kind):
        surface = surface_of(kind)
        p = kernel_point(surface)
        for points, theta in raw_states(p):
            got = _retract(surface, points, theta)
            want = oracle_retract(surface, points, theta)
            assert retraction_bytes(*got) == retraction_bytes(*want)

    @pytest.mark.parametrize("kind", ["plane", "torus"])
    def test_realize_tangent_is_bitwise_the_object_form(self, kind):
        surface = surface_of(kind)
        p = kernel_point(surface)
        v = smooth_tangent(p)
        for t in (1e-3, -2.5e-2):
            q, report = realize_tangent(p, v, t, return_report=True)
            loop, theta, volume, defect, _ = oracle_retract(
                surface, p.loop.points + t * _normal_displacement(p, v.fvec),
                p.theta.values + t * v.tvec,
            )
            assert q.loop.points.tobytes() == loop.points.tobytes()
            assert q.theta.values.tobytes() == theta.values.tobytes()
            assert report == {"volume_defect": abs(volume - 1.0), "bs_defect": abs(defect)}
            assert q.strict

    def test_zero_weight_is_a_geometry_error(self, ellipse_point):
        p = ellipse_point
        message = "cannot normalize a half-density with zero volume"
        with pytest.raises(GeometryError, match=message):
            _retract(p.surface, p.loop.points, np.zeros(p.n))
        # the weight moves by -theta0: the raw weight is exactly zero
        with pytest.raises(GeometryError, match=message):
            realize_tangent(p, TangentVector(np.zeros(p.n), -p.theta.values), 1.0)

    def test_overflowing_volume_is_a_geometry_error(self, ellipse_point):
        p = ellipse_point
        with np.errstate(over="ignore"), pytest.raises(
            GeometryError, match="^diverged, state is not finite$"
        ):
            _retract(p.surface, p.loop.points, 1e200 * p.theta.values)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_realize_tangent_is_a_geometry_error(self, ellipse_point):
        p = ellipse_point
        v = TangentVector(np.zeros(p.n), p.theta.values)
        with pytest.raises(GeometryError, match="^diverged, state is not finite$"):
            realize_tangent(p, v, 1e200)

    @pytest.mark.filterwarnings("error")
    def test_realize_tangent_onto_no_level_is_a_geometry_error(self, ellipse_point):
        # the moved loop's action overflows to nan: it is not rounded to a level
        p = ellipse_point
        v = field_A(expr("x*y+0.3*x^2"), p)
        with pytest.raises(GeometryError, match="^action nan is not finite"):
            realize_tangent(p, v, 1e170)

    def test_checks_run_loop_then_volume_then_projection(self, plane, monkeypatch):
        n = 64
        points = Loop.circle(0.1, n=n).points  # |action| 0.03: the projection fails
        gapped = points.copy()
        gapped[1] = gapped[0]
        with pytest.raises(DegenerateLoop):
            _retract(plane, gapped, np.zeros(n))
        calls = []
        monkeypatch.setattr(moduli, "_defect_and_projection", lambda *a: calls.append(a))
        with pytest.raises(GeometryError, match="zero volume"):
            _retract(plane, points, np.zeros(n))
        assert calls == []


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

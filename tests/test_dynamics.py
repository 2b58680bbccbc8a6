import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bsmoduli import (
    DegenerateLoop,
    HalfDensity,
    Loop,
    ModuliPoint,
    NewtonDivergence,
    SingularPairing,
    SymplecticSurface,
    bs_defect,
    dynamics,
    evaluate_F,
    flow_classical,
    flow_moduli,
    hamiltonian_field_H,
    loops,
    project_to_bs,
)
from bsmoduli import expressions as ex
from bsmoduli import surfaces
from bsmoduli.moduli import _normal_displacement
from bsmoduli.observables import tangential_hamiltonian_coefficient
from bsmoduli.cli import build_density, build_field, build_loop
from conftest import expr, observed_orders

FLOW_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "flow_moduli.json"


class TestClassicalFlow:
    def test_harmonic_orbit_radius(self, plane):
        # exact flow of (x^2+y^2)/2 is a rigid rotation; implicit midpoint is
        # a Cayley rotation, so the radius is conserved to roundoff
        f = expr("(x^2+y^2)/2")
        traj = flow_classical(f, plane, (1.0, 0.0), 10.0, 1e-3)
        radii = np.linalg.norm(traj.points, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-10

    def test_harmonic_orbit_against_rotation_oracle(self, plane):
        f = expr("(x^2+y^2)/2")
        traj = flow_classical(f, plane, (1.0, 0.0), 2.0, 1e-3)
        exact = np.stack([np.cos(traj.times), -np.sin(traj.times)], axis=1)
        assert np.max(np.linalg.norm(traj.points - exact, axis=1)) < 1e-6

    def test_constant_field_stationary(self, plane):
        traj = flow_classical(expr("5"), plane, (0.3, -0.8), 1.0, 1e-2)
        assert np.max(np.abs(traj.points - traj.points[0])) < 1e-14

    def test_linear_field_translates(self, plane):
        traj = flow_classical(expr("y"), plane, (0.0, 0.0), 1.0, 1e-2)
        assert np.allclose(traj.final(), [1.0, 0.0], atol=1e-12)

    def test_energy_drift_second_order(self, plane):
        f = expr("y^2/2 - cos(x)")
        drifts = []
        for h in (4e-2, 2e-2, 1e-2):
            traj = flow_classical(f, plane, (1.2, 0.0), 2.0, h)
            drifts.append(np.max(np.abs(traj.values - traj.values[0])))
        assert np.all(observed_orders(drifts) > 1.8)

    def test_time_reversibility(self, plane):
        f = expr("y^2/2 - cos(x)")
        forward = flow_classical(f, plane, (1.2, 0.3), 3.0, 1e-3)
        back = flow_classical(f, plane, forward.final(), 3.0, -1e-3)
        assert np.linalg.norm(back.final() - np.array([1.2, 0.3])) < 1e-9

    def test_one_field_call_per_newton_pass(self, plane, monkeypatch):
        # per step: the predictor, one pass that updates and one that converges
        calls = count_kernel_calls(monkeypatch)
        flow_classical(expr("(x^2+y^2)/2"), plane, (1.0, 0.0), 1.0, 1e-2)
        assert [n for n, _ in calls].count(2) == 300
        assert [n for n, _ in calls].count(4) == 100
        assert {shape for _, shape in calls} == {()}

    def test_newton_divergence(self, plane):
        f = expr("(x^2+y^2)^3")
        with pytest.raises(NewtonDivergence):
            flow_classical(f, plane, (5.0, 0.0), 100.0, 100.0)

    def test_torus_wrap(self):
        torus = SymplecticSurface.torus(2.0, 1.0)
        f = expr("sin(pi*x)")
        traj = flow_classical(f, torus, (0.5, 0.9), 2.0, 1e-2)
        assert np.all(traj.points[:, 0] >= 0.0) and np.all(traj.points[:, 0] < 2.0)
        assert np.all(traj.points[:, 1] >= 0.0) and np.all(traj.points[:, 1] < 1.0)

    def test_zero_step_rejected(self, plane):
        with pytest.raises(ValueError):
            flow_classical(expr("x"), plane, (0.0, 0.0), 1.0, 0.0)

    @pytest.mark.parametrize("t_final, h, key", [
        (np.inf, 1e-2, "t_final"), (np.nan, 1e-2, "t_final"), (1.0, np.nan, "step"),
        (1.0, -np.inf, "step"),
    ])
    def test_non_finite_time_rejected(self, plane, t_final, h, key):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            flow_classical(expr("x*y"), plane, (1.0, 0.0), t_final, h)

    @pytest.mark.parametrize("p0", [[-1.0, 0.0], [[1.0, 0.0], [0.0, 0.5]]])
    def test_nonpositive_density_is_a_value_error(self, p0):
        # the guard of w, not a NewtonDivergence, for a point and for a batch
        surface = SymplecticSurface.plane(omega_density=expr("x"))
        with pytest.raises(ValueError, match="omega density must be positive at every sampled point"):
            flow_classical(expr("y"), surface, p0, 0.1, 1e-2)

    @pytest.mark.parametrize("p0", [(1.0, 0.0, 0.0), np.zeros((2, 2, 2)), 1.0])
    def test_initial_shape_rejected(self, plane, p0):
        with pytest.raises(ValueError, match=r"shape \(2,\) or \(M, 2\)"):
            flow_classical(expr("x"), plane, p0, 1.0, 1e-2)


def count_kernel_calls(monkeypatch):
    """Record (number of trees, shape of x) for every call of a kernel the flow compiles."""
    calls = []

    def counted_compile(nodes, scalar):
        kernel = ex._compile(nodes, scalar)

        def counted(x, y):
            calls.append((len(nodes), np.shape(x)))
            return kernel(x, y)

        return counted

    monkeypatch.setattr(dynamics, "ex", SimpleNamespace(_compile=counted_compile))
    return calls


def ellipse_samples(plane, n=32):
    return project_to_bs(Loop.ellipse(1.3, 0.8, n=n, angle=0.4), plane).points


def per_point_flows(f, surface, samples, t_final, h):
    flows = [flow_classical(f, surface, q, t_final, h) for q in samples]
    return np.stack([tr.points for tr in flows], axis=1), np.stack([tr.values for tr in flows], axis=1)


class TestBatchedClassicalFlow:
    def test_batch_is_bitwise_the_per_point_flows(self, plane):
        f = expr("x*y+0.3*x^2")
        samples = ellipse_samples(plane)
        traj = flow_classical(f, plane, samples, 0.04, -4e-4)
        points, values = per_point_flows(f, plane, samples, 0.04, -4e-4)
        assert traj.points.shape == (101, 32, 2) and traj.values.shape == (101, 32)
        assert np.array_equal(traj.times, np.arange(101) * -4e-4)
        assert traj.points.tobytes() == points.tobytes()
        assert traj.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("case", ["plane", "torus", "weighted torus"])
    def test_batch_matches_the_per_point_flows(self, plane, case):
        samples = ellipse_samples(plane)
        if case == "plane":
            f, surface = expr("sin(0.9*x)+0.8*y^2"), plane
            bound = 5e-15
        elif case == "torus":
            f, surface = expr("sin(x)+cos(y)"), SymplecticSurface.torus(2 * np.pi, 2 * np.pi)
            samples = samples + 3.0
            bound = 5e-15
        else:
            # a batch runs Newton until its slowest point converges, so the
            # others take extra passes: each step may move by up to ~NEWTON_TOL
            f, surface = expr("sin(pi*x)*cos(pi*y)"), weighted_torus()
            samples = 0.3 * samples + 1.0
            bound = 100 * dynamics.NEWTON_TOL
        traj = flow_classical(f, surface, samples, 0.04, -4e-4)
        points, values = per_point_flows(f, surface, samples, 0.04, -4e-4)
        assert np.max(np.abs(traj.points - points)) <= bound
        assert np.max(np.abs(traj.values - values)) <= bound

    def test_one_field_call_per_newton_pass_on_the_stack(self, plane, monkeypatch):
        # per step: the predictor on (M,) coordinates, then one field call per
        # pass; every pass but the converged last one evaluates the four
        # Jacobian trees on the (M,) midpoints, and nothing calls a dense solve
        calls, solves = count_kernel_calls(monkeypatch), []
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
        samples = ellipse_samples(plane, n=16)
        flow_classical(expr("sin(0.9*x)+0.8*y^2"), plane, samples, 0.01, 1e-3)
        fields = [n for n, _ in calls].count(2)
        passes = fields - 10
        assert set(calls) == {(2, (16,)), (4, (16,))} and passes >= 20
        assert [n for n, _ in calls].count(4) == passes - 10 and len(calls) == fields + passes - 10
        assert solves == []

    @pytest.mark.parametrize("bad", ["diverging", "nan"])
    def test_one_bad_member_fails_the_batch_naming_the_step(self, plane, bad):
        if bad == "diverging":
            f, samples, t_final, h = expr("(x^2+y^2)^3"), [[0.1, 0.0], [5.0, 0.0]], 100.0, 100.0
        else:
            f, samples, t_final, h = expr("x*y"), [[0.1, 0.0], [np.nan, 0.0]], 0.1, 1e-2
        with pytest.raises(NewtonDivergence, match=r"failed in step 1 of \d+ \(t = "):
            flow_classical(f, plane, samples, t_final, h)

    @pytest.mark.parametrize("text, start", [
        *[(text, start) for text in ("x", "y", "x*y")
          for start in ([np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan])],
        ("x^3", [1e200, 0.0]),
        ("1/x", [0.0, 1.0]),
        ("sin(x)", [np.inf, 0.0]),
    ])
    @pytest.mark.parametrize("batch", [False, True])
    def test_non_finite_values_fail_naming_the_step(self, plane, text, start, batch):
        # as a point and beside a good member: NewtonDivergence, never a NaN
        # trajectory, and no raw warning (Tier-1 turns a RuntimeWarning into an error)
        p0 = [[0.1, 0.0], start] if batch else start
        with pytest.raises(NewtonDivergence, match=r"failed in step 1 of 10 \(t = 0\.01\)"):
            flow_classical(expr(text), plane, p0, 0.1, 1e-2)


class TestExactJacobian:
    @pytest.mark.parametrize("text", ["x*y+0.3*x^2", "sin(0.9*x)+0.8*y^2", "sin(pi*x)*cos(pi*y)"])
    @pytest.mark.parametrize("case", ["plane", "torus", "weighted torus"])
    def test_matches_a_central_difference_of_the_field(self, plane, case, text):
        surface = {
            "plane": plane,
            "torus": SymplecticSurface.torus(2 * np.pi, 2 * np.pi),
            "weighted torus": weighted_torus(),
        }[case]
        f = expr(text)
        p = np.random.default_rng(13).uniform(0.1, 1.9, size=(24, 2))
        exact = np.stack(
            [np.broadcast_to(ex.evaluate(tree, p[:, 0], p[:, 1]), (24,))
             for tree in surfaces._field_jacobian(f, surface)],
            axis=1,
        ).reshape(24, 2, 2)
        eps = 1e-5
        oracle = np.empty((24, 2, 2))
        for k in range(2):
            step = eps * np.eye(2)[k]
            diff = (surfaces.hamiltonian_vector_field(f, surface, p + step)
                    - surfaces.hamiltonian_vector_field(f, surface, p - step))
            oracle[:, :, k] = diff / (2 * eps)
        assert np.max(np.abs(exact - oracle)) <= 1e-7 * max(1.0, np.max(np.abs(oracle)))

    def test_singular_newton_system_raises_naming_the_step(self, plane):
        # X = (x, -y) for x*y, so I - h/2 DX = diag(0, 2) at h = 2: det is exactly 0
        with pytest.raises(NewtonDivergence,
                           match=r"failed in step 1 of 1 \(t = 2\.0\): singular Newton system"):
            flow_classical(expr("x*y"), plane, [1.0, 1.0], 2.0, 2.0)


def gentle_point(plane, n=64):
    loop = project_to_bs(Loop.ellipse(1.3, 0.8, n=n), plane)
    return ModuliPoint(plane, loop, HalfDensity.cosine_profile(n))


class TestModuliFlow:
    def test_step_sign_sets_the_direction(self, plane):
        p0 = gentle_point(plane)
        f = expr("x*y+0.3*x^2")
        a = flow_moduli(f, p0, 0.02, -5e-3, snapshot_every=1)
        b = flow_moduli(f, p0, -0.02, -5e-3, snapshot_every=1)
        assert np.array_equal(a.times, np.arange(5) * -5e-3)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.observable_values.tobytes() == b.observable_values.tobytes()
        assert a.checksums == b.checksums
        assert a.final().loop.points.tobytes() == b.final().loop.points.tobytes()

    def test_zero_step_rejected(self, plane):
        with pytest.raises(ValueError, match="step must be nonzero"):
            flow_moduli(expr("x"), gentle_point(plane), 0.1, 0.0)

    @pytest.mark.parametrize("t_final, h, key", [
        (-np.inf, 5e-3, "t_final"), (np.nan, 5e-3, "t_final"), (0.1, np.inf, "step"),
    ])
    def test_non_finite_time_rejected(self, plane, t_final, h, key):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            flow_moduli(expr("x"), gentle_point(plane), t_final, h)

    def test_constant_observable_is_stationary(self, plane):
        p0 = gentle_point(plane)
        traj = flow_moduli(expr("3"), p0, 0.1, 0.01, snapshot_every=5)
        final = traj.snapshots[-1][1]
        assert np.max(np.abs(final.loop.points - p0.loop.points)) < 1e-12
        assert np.max(np.abs(final.theta.values - p0.theta.values)) < 1e-12

    def test_stationary_cycle_is_fixed_point(self, plane):
        # radial field on a centered circle with uniform weight: the induced
        # differential vanishes identically, so the point never moves
        n = 64
        p0 = ModuliPoint(plane, Loop.circle(np.sqrt(1 / np.pi), n=n), HalfDensity.uniform(n))
        f = expr("x^2+y^2")
        assert hamiltonian_field_H(f, p0).norm() < 1e-12
        traj = flow_moduli(f, p0, 1.0, 1e-2, snapshot_every=50)
        assert np.max(np.abs(traj.observable_values - traj.observable_values[0])) < 1e-10
        final = traj.snapshots[-1][1]
        assert np.max(np.abs(final.loop.points - p0.loop.points)) < 1e-10

    def test_observable_conservation_order(self, plane):
        p0 = gentle_point(plane)
        f = expr("x^2+y^2")
        drifts = []
        for h in (8e-3, 4e-3, 2e-3):
            traj = flow_moduli(f, p0, 0.08, h)
            drifts.append(np.max(np.abs(traj.observable_values - traj.observable_values[0])))
        assert np.all(observed_orders(drifts) >= 3.5)

    def test_local_step_order(self, plane):
        # one step of h versus two steps of h/2: fifth-order local difference
        p0 = gentle_point(plane)
        f = expr("x^2+y^2")

        def state_after(h, steps):
            traj = flow_moduli(f, p0, h * steps, h, snapshot_every=steps)
            return traj.snapshots[-1][1]

        diffs = []
        for h in (8e-3, 4e-3):
            one = state_after(h, 1)
            two = state_after(h / 2, 2)
            diffs.append(
                np.max(np.abs(one.loop.points - two.loop.points))
                + np.max(np.abs(one.theta.values - two.theta.values))
            )
        order = float(np.log2(diffs[0] / diffs[1]))
        assert order >= 4.5

    def test_volume_renormalized_every_step(self, plane):
        p0 = gentle_point(plane)
        traj = flow_moduli(expr("x^2+y^2"), p0, 0.05, 5e-3, snapshot_every=1)
        for _, snap in traj.snapshots:
            assert snap.theta.volume() == pytest.approx(1.0, abs=1e-13)
        assert np.max(traj.volume_defects) < 1e-8

    def test_level_projection_every_step(self, plane):
        from bsmoduli import bs_defect

        p0 = gentle_point(plane)
        traj = flow_moduli(expr("x^2+y^2"), p0, 0.05, 5e-3, snapshot_every=1)
        for _, snap in traj.snapshots:
            assert abs(bs_defect(snap.loop, plane)) < 1e-11

    def test_commuting_observable_conserved(self, plane):
        p0 = gentle_point(plane, n=64)
        f = expr("x^2+y^2")
        g = expr("(x^2+y^2)^2")
        traj = flow_moduli(f, p0, 0.5, 2e-3, snapshot_every=25)
        g_values = np.array([evaluate_F(g, snap) for _, snap in traj.snapshots])
        assert np.max(np.abs(g_values - g_values[0])) < 1e-6

    def test_checksum_tracks_state(self, plane):
        p0 = gentle_point(plane)
        traj = flow_moduli(expr("x^2+y^2"), p0, 0.02, 1e-2)
        assert len(set(traj.checksums)) == len(traj.checksums)
        stationary = flow_moduli(expr("2"), p0, 0.02, 1e-2, snapshot_every=2)
        final = stationary.snapshots[-1][1]
        assert np.max(np.abs(final.loop.points - p0.loop.points)) < 1e-13
        assert np.max(np.abs(final.theta.values - p0.theta.values)) < 1e-13


def shipped_flow(plane, n):
    cfg = json.loads(FLOW_CONFIG.read_text())
    p0 = ModuliPoint(plane, build_loop(cfg["loop"], n, plane), build_density(cfg["density"], n))
    return flow_moduli(build_field(cfg["field"]), p0, cfg["t_final"], cfg["step"])


class TestModuliSubsteps:
    def test_shipped_config_takes_single_substeps(self, plane):
        cfg = json.loads(FLOW_CONFIG.read_text())
        traj = shipped_flow(plane, cfg["n_samples"])
        assert len(traj.substeps) == round(cfg["t_final"] / cfg["step"])
        assert np.all(traj.substeps == 1)

    def test_shipped_config_conserves_at_n256(self, plane):
        traj = shipped_flow(plane, 256)
        assert np.all(traj.substeps >= 2)
        assert np.max(np.abs(traj.observable_values - traj.observable_values[0])) <= 1e-9

    def test_stiff_input_substeps_and_conserves(self, plane):
        # a single RK4 step of h = 0.005 per requested step drifts F_f by 2.1e-6 here
        n = 128
        loop = Loop.ellipse(
            1.280550413318997, 0.799935177889642,
            center=(-0.08702287528761127, 0.2770385087338102), n=n, angle=1.8484015630990493,
        )
        p0 = ModuliPoint(
            plane, project_to_bs(loop, plane), HalfDensity.cosine_profile(n, 0.4250009724414533, 3)
        )
        traj = flow_moduli(expr("0.6303*x^2+1.4408*y^2"), p0, 0.1, 0.005)
        assert len(traj.substeps) == 20
        assert np.all(traj.substeps >= 2)
        assert np.max(np.abs(traj.observable_values - traj.observable_values[0])) <= 1e-6


def weighted_torus():
    return SymplecticSurface.torus(
        2.0, 2.0, omega_density=expr("1+0.5*cos(2*pi*x)"),
        potential=(expr("0"), expr("x+sin(2*pi*x)/(4*pi)")),
    )


def kernel_point(surface):
    n = 64
    if surface.kind == "torus":
        loop = project_to_bs(Loop.ellipse(0.7, 0.5, center=(1.0, 1.0), n=n, angle=0.3), surface)
    else:
        loop = project_to_bs(Loop.ellipse(1.3, 0.8, center=(0.2, -0.1), n=n, angle=0.4), surface)
    return ModuliPoint(surface, loop, HalfDensity.cosine_profile(n, 0.3, 2))


def oracle_stage(f, p):
    """The stage velocity through the moduli objects: dual of dF_f, then its normal displacement."""
    h_field = hamiltonian_field_H(f, p)
    return _normal_displacement(p, h_field.fvec), h_field.tvec


def pre_change_stage(field, surface, points, theta):
    """The stage velocity (nu, t1, u) in the kernel's earlier formulas, its guards left out.

    np.mean for the rectangle rule, np.sum for the dot products, np.stack for
    the derivative input and the normal, and the derivative multiplier built
    afresh and reshaped per call.
    """
    def mean(d):
        return float(np.mean(np.asarray(d, dtype=float)))

    def derivative(u):
        n = u.shape[0]
        mult = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
        mult[-1] = 0.0
        mult = mult.reshape((-1,) + (1,) * (u.ndim - 1))
        return np.fft.irfft(np.fft.rfft(u, axis=0) * mult, n=n, axis=0)

    tan = derivative(points)
    xf, w = surfaces._field_and_density(field, surface, points)
    u = np.sum(xf * tan, axis=-1) / np.sum(tan * tan, axis=-1)
    th2 = theta**2
    x, y = points[:, 0], points[:, 1]
    values = np.broadcast_arrays(field._value_kernel(x, y)[0], x, y)[0] * 1.0
    raw_f = (2.0 * values * theta) / theta
    vol = mean(th2)
    f1 = raw_f - mean(raw_f * th2) / vol
    derivs = derivative(np.stack([u * th2, f1], axis=1))
    raw_t = derivs[:, 0] / theta
    t1 = raw_t - mean(theta * raw_t) / vol * theta
    coeff = derivs[:, 1] / (w * np.sum(tan * tan, axis=1))
    nu = coeff[:, None] * np.stack([-tan[:, 1], tan[:, 0]], axis=1)
    return nu, t1, u


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestStageKernel:
    @pytest.mark.parametrize("surface_kind", ["plane", "torus"])
    @pytest.mark.parametrize("tau", [1.0, 2.5])
    @pytest.mark.parametrize("text", ["x^2+y^2", "x*y+0.3*x^2", "sin(pi*x)*cos(pi*y)"])
    def test_matches_object_oracle(self, plane, surface_kind, tau, text):
        surface = plane if surface_kind == "plane" else weighted_torus()
        p = kernel_point(surface)
        f = tau * expr(text)
        nu, t1, u = dynamics._stage_velocity(f, surface, p.loop.points, p.theta.values)
        nu_ref, t1_ref = oracle_stage(f, p)
        assert relative_gap(nu, nu_ref) <= 1e-13
        assert relative_gap(t1, t1_ref) <= 1e-13
        assert relative_gap(u, tangential_hamiltonian_coefficient(f, p)) <= 1e-13

    @pytest.mark.parametrize("surface_kind", ["plane", "torus"])
    @pytest.mark.parametrize("text", ["x^2+y^2", "x*y+0.3*x^2", "2.5*sin(pi*x)*cos(pi*y)", "y"])
    def test_bitwise_equal_to_pre_change_formulas(self, plane, surface_kind, text):
        # at the point and at a perturbed RK4 stage state, as the flow calls it
        surface = plane if surface_kind == "plane" else weighted_torus()
        p = kernel_point(surface)
        f = expr(text)
        rng = np.random.default_rng(29)
        states = [
            (p.loop.points, p.theta.values),
            (p.loop.points + 1e-3 * rng.standard_normal((64, 2)),
             p.theta.values + 1e-3 * rng.standard_normal(64)),
        ]
        for points, theta in states:
            got = dynamics._stage_velocity(f, surface, points, theta)
            want = pre_change_stage(f, surface, points, theta)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_two_spectral_derivatives_per_stage(self, plane, monkeypatch):
        calls = []
        derivative = dynamics.loop_derivative

        def counted(u):
            calls.append(np.shape(u))
            return derivative(u)

        monkeypatch.setattr(dynamics, "loop_derivative", counted)
        p = kernel_point(plane)
        dynamics._stage_velocity(expr("x*y"), plane, p.loop.points, p.theta.values)
        assert calls == [(64, 2), (64, 2)]

    def test_one_density_evaluation_per_stage(self, monkeypatch):
        surface = weighted_torus()
        p = kernel_point(surface)
        calls = []
        density = surface.density

        def counted(x, y):
            calls.append(np.shape(x))
            return density(x, y)

        monkeypatch.setattr(surface, "density", counted)
        dynamics._stage_velocity(2.5 * expr("x*y+0.3*x^2"), surface, p.loop.points, p.theta.values)
        assert calls == [(64,)]

    @pytest.mark.parametrize("surface_kind", ["plane", "torus"])
    def test_one_step_shares_its_first_action_integral(self, plane, surface_kind, monkeypatch):
        # the flow's level defect and the projection's first pass use one integral
        surface = plane if surface_kind == "plane" else weighted_torus()
        p0 = kernel_point(surface)
        calls = []
        action = loops.action_integral

        def counted(loop, surf):
            calls.append(loop)
            return action(loop, surf)

        monkeypatch.setattr(loops, "action_integral", counted)
        traj = flow_moduli(expr("x*y+0.3*x^2"), p0, 0.005, 0.005)
        in_step = len(calls)
        raw = calls[0]
        calls.clear()
        project_to_bs(raw, surface)
        passes = len(calls) - 1
        assert passes >= 1
        assert in_step == 1 + passes
        assert traj.bs_defects[1] == abs(bs_defect(raw, surface))

    @pytest.mark.parametrize("case,error,message", [
        ("gap", DegenerateLoop, "consecutive loop samples closer than 1e-12"),
        ("tangent", DegenerateLoop, "collapsed loop segment"),
        ("density", ValueError, "omega density must be positive"),
        ("pairing", SingularPairing, "pairing min |theta0| 0.000e+00"),
    ])
    def test_guards_raise_as_the_objects_did(self, plane, case, error, message):
        n = 64
        s = np.arange(n) / n
        f = expr("x*y")
        theta = HalfDensity.cosine_profile(n).values
        surface = plane
        pts = Loop.ellipse(1.3, 0.8, center=(0.2, -0.1), n=n).points.copy()
        if case == "gap":
            pts[1] = pts[0]
        elif case == "tangent":
            pts = np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s) ** 3], axis=1)
        elif case == "density":
            surface = SymplecticSurface.plane(omega_density=expr("x"))
        else:
            theta = 1.0 + np.cos(2 * np.pi * s)

        with pytest.raises(error) as expected:
            p = ModuliPoint(surface, Loop(pts), HalfDensity(theta), strict=False)
            oracle_stage(f, p)
        with pytest.raises(error) as got:
            dynamics._stage_velocity(f, surface, pts, theta)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert message in str(got.value)

    def test_flow_with_a_zero_of_the_density_raises_singular_pairing(self, plane):
        n = 64
        s = np.arange(n) / n
        theta = HalfDensity(1.0 + np.cos(2 * np.pi * s)).normalized()
        assert np.min(np.abs(theta.values)) == 0.0
        p0 = ModuliPoint(plane, project_to_bs(Loop.ellipse(1.3, 0.8, n=n), plane), theta)
        with pytest.raises(SingularPairing, match=r"pairing min \|theta0\| 0\.000e\+00") as got:
            flow_moduli(expr("x*y"), p0, 0.01, 0.005)
        assert "step 1 of 2 (t = 0.005, first RK4 stage)" in str(got.value)


class TestScaledField:
    """F_{c f} = c F_f, so the moduli flow of c f to time t is the flow of f to time c t."""

    @pytest.mark.parametrize("surface_kind,text", [
        ("plane", "x*y+0.3*x^2"),
        ("torus", "0.2*sin(pi*x)*cos(pi*y)"),
    ])
    def test_doubled_field_is_the_flow_at_doubled_time(self, plane, surface_kind, text):
        n = 128
        if surface_kind == "plane":
            surface = plane
            loop = Loop.ellipse(1.3, 0.8, n=n, angle=0.4)
        else:
            surface = weighted_torus()
            loop = Loop.ellipse(0.7, 0.5, center=(1.0, 1.0), n=n, angle=0.4)
        p0 = ModuliPoint(surface, project_to_bs(loop, surface), HalfDensity.cosine_profile(n, 0.3, 2))
        f = expr(text)
        t, h = 0.05, 2.5e-3
        scaled = flow_moduli(2 * f, p0, t, h, snapshot_every=20)
        slow = flow_moduli(f, p0, 2 * t, 2 * h, snapshot_every=20)
        assert np.array_equal(scaled.final().loop.points, slow.final().loop.points)
        assert np.array_equal(scaled.final().theta.values, slow.final().theta.values)
        assert scaled.checksums == slow.checksums
        assert np.array_equal(scaled.substeps, slow.substeps)
        assert np.array_equal(scaled.observable_values, 2 * slow.observable_values)

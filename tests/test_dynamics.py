import json
from pathlib import Path

import numpy as np
import pytest

from bsmoduli import (
    DegenerateLoop,
    HalfDensity,
    InducedObservable,
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
        calls = []
        field = dynamics.classical_field

        def counted(*args):
            calls.append(1)
            return field(*args)

        monkeypatch.setattr(dynamics, "classical_field", counted)
        flow_classical(expr("(x^2+y^2)/2"), plane, (1.0, 0.0), 1.0, 1e-2)
        assert len(calls) == 300

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

    @pytest.mark.parametrize("p0", [(1.0, 0.0, 0.0), np.zeros((2, 2, 2)), 1.0])
    def test_initial_shape_rejected(self, plane, p0):
        with pytest.raises(ValueError, match=r"shape \(2,\) or \(M, 2\)"):
            flow_classical(expr("x"), plane, p0, 1.0, 1e-2)


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
        # per step: the predictor on (M, 2), then one (M, 5, 2) call per pass;
        # every pass but the converged last one makes one (M, 2, 2) solve
        shapes, solves = [], []
        field, solve = dynamics.classical_field, np.linalg.solve

        def counted_field(f, surface, p):
            shapes.append(np.shape(p))
            return field(f, surface, p)

        def counted_solve(a, b):
            solves.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(dynamics, "classical_field", counted_field)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        samples = ellipse_samples(plane, n=16)
        flow_classical(expr("sin(0.9*x)+0.8*y^2"), plane, samples, 0.01, 1e-3)
        assert shapes.count((16, 2)) == 10
        assert shapes.count((16, 5, 2)) == len(solves) + 10
        assert len(shapes) == len(solves) + 20
        assert set(solves) == {((16, 2, 2), (16, 2, 1))}

    @pytest.mark.parametrize("bad", ["diverging", "nan"])
    def test_one_bad_member_fails_the_batch_naming_the_step(self, plane, bad):
        if bad == "diverging":
            f, samples, t_final, h = expr("(x^2+y^2)^3"), [[0.1, 0.0], [5.0, 0.0]], 100.0, 100.0
        else:
            f, samples, t_final, h = expr("x*y"), [[0.1, 0.0], [np.nan, 0.0]], 0.1, 1e-2
        with pytest.raises(NewtonDivergence, match=r"failed in step 1 of \d+ \(t = "):
            flow_classical(f, plane, samples, t_final, h)


def gentle_point(plane, n=64):
    loop = project_to_bs(Loop.ellipse(1.3, 0.8, n=n), plane)
    return ModuliPoint(plane, loop, HalfDensity.cosine_profile(n))


class TestModuliFlow:
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


def oracle_stage(f, tau, p):
    """The stage velocity through the moduli objects: dual of dF_f, then its normal displacement."""
    h_field = hamiltonian_field_H(InducedObservable(f, scale=tau), p)
    return _normal_displacement(p, h_field.fvec), h_field.tvec


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestStageKernel:
    @pytest.mark.parametrize("surface_kind", ["plane", "torus"])
    @pytest.mark.parametrize("tau", [1.0, 2.5])
    @pytest.mark.parametrize("text", ["x^2+y^2", "x*y+0.3*x^2", "sin(pi*x)*cos(pi*y)"])
    def test_matches_object_oracle(self, plane, surface_kind, tau, text):
        surface = plane if surface_kind == "plane" else weighted_torus()
        p = kernel_point(surface)
        f = expr(text)
        nu, t1, u = dynamics._stage_velocity(f, tau, surface, p.loop.points, p.theta.values)
        nu_ref, t1_ref = oracle_stage(f, tau, p)
        assert relative_gap(nu, nu_ref) <= 1e-13
        assert relative_gap(t1, t1_ref) <= 1e-13
        assert relative_gap(u, tangential_hamiltonian_coefficient(f, p)) <= 1e-13

    def test_two_spectral_derivatives_per_stage(self, plane, monkeypatch):
        calls = []
        derivative = dynamics.loop_derivative

        def counted(u):
            calls.append(np.shape(u))
            return derivative(u)

        monkeypatch.setattr(dynamics, "loop_derivative", counted)
        p = kernel_point(plane)
        dynamics._stage_velocity(expr("x*y"), 1.0, plane, p.loop.points, p.theta.values)
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
        dynamics._stage_velocity(expr("x*y+0.3*x^2"), 2.5, surface, p.loop.points, p.theta.values)
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
            oracle_stage(f, 1.0, p)
        with pytest.raises(error) as got:
            dynamics._stage_velocity(f, 1.0, surface, pts, theta)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert message in str(got.value)

    def test_flow_with_a_zero_of_the_density_raises_singular_pairing(self, plane):
        n = 64
        s = np.arange(n) / n
        theta = HalfDensity(1.0 + np.cos(2 * np.pi * s)).normalized()
        assert np.min(np.abs(theta.values)) == 0.0
        p0 = ModuliPoint(plane, project_to_bs(Loop.ellipse(1.3, 0.8, n=n), plane), theta)
        with pytest.raises(SingularPairing, match=r"pairing min \|theta0\| 0\.000e\+00"):
            flow_moduli(expr("x*y"), p0, 0.01, 0.005)

import json
from pathlib import Path

import numpy as np
import pytest

from bsmoduli import (
    DegenerateLoop,
    GeometryError,
    HalfDensity,
    Loop,
    ModuliPoint,
    NewtonDivergence,
    ScalarField,
    SingularPairing,
    SymplecticSurface,
    bs_defect,
    dynamics,
    evaluate_F,
    flow_classical,
    flow_moduli,
    hamiltonian_field_H,
    loops,
    moduli,
    project_to_bs,
)
from bsmoduli import expressions as ex
from bsmoduli import surfaces
from bsmoduli.moduli import _normal_displacement
from bsmoduli.observables import tangential_hamiltonian_coefficient
from bsmoduli.cli import build_density, build_field, build_loop
from conftest import expr, kernel_point, observed_orders, weighted_torus

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
        # one call of the compiled flow on floats; per step one pass that
        # updates and one that converges.  mag runs on both components of the
        # converged residual and of the update; of the first residual, on r0
        # alone in the Euler-started steps 1-3 (|r0| = h^2 |x| / 2 >= 2.7e-5 is
        # never below tol) and not at all in the extrapolated steps, which
        # correct before they test
        calls = count_kernel_calls(monkeypatch)
        traj = flow_classical(expr("(x^2+y^2)/2"), plane, (1.0, 0.0), 1.0, 1e-2)
        assert traj.newton_passes.tolist() == [2] * 100
        assert [c for c in calls if c[0] == "flow"] == [("flow", ())]
        assert calls.count(("mag", ())) == 3 * 5 + 97 * 4
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

    def test_step_count_that_overflows_rejected(self, plane):
        with pytest.raises(ValueError, match=r"^\|t_final\| / \|step\| must be finite, got inf$"):
            flow_classical(expr("x"), plane, (1.0, 0.0), 1e300, -1e-300)

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
    """Record (name, shape of x) for each call of a compiled Newton flow, of its mag, sin and cos.

    Inside the flow mag runs on the components of each residual and of each
    update, and sin and cos are the namespace's, so a field whose X_f holds
    one cos and whose DX_f holds one sin counts the field and Jacobian
    evaluations.
    """
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append((name, np.shape(args[0])))
            return fn(*args)

        return call

    def build(*args):
        kernel = newton_step(*args)
        kernel.__globals__["mag"] = counted("mag", kernel.__globals__["mag"])
        return counted("flow", kernel)

    newton_step = dynamics._newton_step
    monkeypatch.setattr(dynamics, "_newton_step", build)
    for namespace in ex._NAMESPACES.values():
        for name in ("sin", "cos"):
            monkeypatch.setitem(namespace, name, counted(name, namespace[name]))
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
        # one call of the compiled flow on the (M,) coordinates; X_f (one
        # cos) at the Euler start of steps 1-3 and once per pass, DX_f (one
        # sin) on every pass but the converged last one, and nothing calls a
        # dense solve.  mag runs on both components of a converged residual
        # and of each update, and on r0 alone of a residual whose max|r0| is
        # above tol; the extrapolated steps 4-10 do not test their first
        calls, solves = count_kernel_calls(monkeypatch), []
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
        samples = ellipse_samples(plane, n=16)
        traj = flow_classical(expr("sin(0.9*x)+0.8*y^2"), plane, samples, 0.01, 1e-3)
        passes = int(traj.newton_passes.sum())
        assert traj.newton_passes.shape == (10,) and passes >= 20
        assert [c for c in calls if c[0] == "flow"] == [("flow", (16,))]
        assert calls.count(("cos", (16,))) == 3 + passes
        assert calls.count(("sin", (16,))) == passes - 10
        assert calls.count(("mag", (16,))) == 3 * passes - 10 - 7
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


def reference_kernels(f, surface, scalar, passes):
    """X_f and the four trees of DX_f as separate kernels around the compiled expressions.

    The flow's earlier form, kept as a slow reference: X_f = (f_y / w, -f_x / w)
    with the positivity guard of w only on a weighted surface, and on floats
    every float error of a kernel raised as NewtonDivergence.  Each X_f call
    appends to ``passes``, so a step's calls less its Euler start are its passes.
    """
    w = surface.omega_density
    field = ex._compile((f._dy, f._dx) + (() if w is None else (w.ast,)), scalar)
    jacobian = ex._compile(surfaces._field_jacobian(f, surface), scalar)

    def guarded(kernel):
        def call(x, y):
            try:
                return kernel(x, y)
            except (ArithmeticError, ValueError) as exc:
                raise NewtonDivergence(f"no float value at ({x!r}, {y!r}): {exc}") from exc

        return call

    if scalar:
        field, jacobian = guarded(field), guarded(jacobian)

    def x_f(x, y):
        passes.append(1)
        if w is None:
            fy, fx = field(x, y)
            return fy, -fx
        fy, fx, wv = field(x, y)
        surfaces._require_positive_density(wv)
        return fy / wv, -fx / wv

    return x_f, jacobian


def reference_midpoint_step(x_f, jacobian, backend, x, y, h, start=None):
    """p_new = p + h * X_f((p + p_new)/2) by Newton and Cramer's rule, a call per kernel.

    Newton starts from ``start`` and corrects it at least once, or from the
    Euler point p + h X_f(p) when ``start`` is None.
    """
    norm, nonsingular = backend
    k = 0.5 * h
    if start is None:
        u, v = x_f(x, y)
        (xn, yn), first = (x + h * u, y + h * v), 0
    else:
        (xn, yn), first = start, 1
    for it in range(dynamics.NEWTON_MAX_ITER + 1):
        mx, my = 0.5 * (x + xn), 0.5 * (y + yn)
        u, v = x_f(mx, my)
        r0, r1 = xn - x - h * u, yn - y - h * v
        err = norm(r0, r1)
        if it >= first and err < dynamics.NEWTON_TOL:
            return xn, yn
        if it == dynamics.NEWTON_MAX_ITER:
            raise NewtonDivergence(f"implicit midpoint failed to converge: residual {err:.3e}")
        a, b, c, d = jacobian(mx, my)
        m00, m01, m10, m11 = 1.0 - k * a, -k * b, -k * c, 1.0 - k * d
        det = m00 * m11 - m01 * m10
        if not nonsingular(det):
            raise NewtonDivergence("singular Newton system in implicit midpoint")
        d0 = (m01 * r1 - m11 * r0) / det
        d1 = (m10 * r0 - m00 * r1) / det
        if not norm(d0, d1) <= 1e6:
            raise NewtonDivergence("implicit midpoint Newton step diverged")
        xn, yn = xn + d0, yn + d1


def reference_flow(f, surface, p0, t_final, h, extrapolate=True):
    """flow_classical through the reference step: (times, points, values, passes per step).

    From step 4 on Newton starts from p + 3 (d1 - d2) + d3, d1 the newest of
    the last three increments, as in the compiled flow; with ``extrapolate``
    false every step starts from the Euler point, the flow's earlier start.
    """
    steps = dynamics._step_count(t_final, h)
    p0 = np.asarray(p0, dtype=float)
    scalar = p0.ndim == 1
    calls = []
    x_f, jacobian = reference_kernels(f, surface, scalar, calls)
    backend = (dynamics._max_abs, bool) if scalar else (dynamics._batch_max_abs, np.all)
    x, y = p0.tolist() if scalar else p0.T
    times = np.arange(steps + 1) * h
    xs, ys, passes = [x], [y], []
    with np.errstate(all="ignore"):
        for i in range(steps):
            calls.clear()
            start = None
            if extrapolate and i >= 3:
                (d1x, d1y), (d2x, d2y), (d3x, d3y) = (
                    (xs[-j] - xs[-j - 1], ys[-j] - ys[-j - 1]) for j in (1, 2, 3)
                )
                start = x + 3.0 * (d1x - d2x) + d3x, y + 3.0 * (d1y - d2y) + d3y
            try:
                x, y = reference_midpoint_step(x_f, jacobian, backend, x, y, h, start)
            except NewtonDivergence as exc:
                raise NewtonDivergence(
                    f"classical flow failed in step {i + 1} of {steps} "
                    f"(t = {float(times[i + 1])!r}): {exc}"
                ) from exc
            xs.append(x)
            ys.append(y)
            passes.append(len(calls) - (start is None))
    out = surface.wrap(np.stack([np.array(xs), np.array(ys)], axis=-1))
    vals = np.asarray(f(out[..., 0], out[..., 1]), dtype=float)
    return times, out, vals, passes


REFERENCE_CASES = {
    "plane": ["x*y+0.3*x^2", "y^2/2-cos(x)", "sin(0.9*x)+0.8*y^2", "(x^2+y^2)^3",
              "1/(1+x^2+y^2)", "x^-2+y^2", "x^2*y-y^3/3"],
    "torus": ["sin(x)+cos(y)", "sin(x)*cos(y)^3"],
    "weighted torus": ["sin(pi*x)*cos(pi*y)", "0.2*sin(pi*x)*cos(pi*y)+0.3*cos(pi*x)"],
}


def reference_start(plane, case, batch):
    """(p0, surface) of a reference case: a projected ellipse's samples, or its sixth."""
    samples = ellipse_samples(plane)
    if case == "plane":
        surface, samples = plane, 0.5 * samples + 0.8
    elif case == "torus":
        surface, samples = SymplecticSurface.torus(2 * np.pi, 2 * np.pi), samples + 3.0
    else:
        surface, samples = weighted_torus(), 0.3 * samples + 1.0
    return (samples if batch else samples[5]), surface


class TestCompiledStep:
    """flow_classical against the reference: the same bits, and the same failures."""

    @pytest.mark.parametrize("case, text", [
        (case, text) for case, texts in REFERENCE_CASES.items() for text in texts
    ])
    @pytest.mark.parametrize("batch", [False, True])
    def test_bitwise_the_reference(self, plane, case, text, batch):
        p0, surface = reference_start(plane, case, batch)
        f = expr(text)
        traj = flow_classical(f, surface, p0, 0.2, -4e-3)
        times, points, values, passes = reference_flow(f, surface, p0, 0.2, -4e-3)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.points.tobytes() == points.tobytes()
        assert traj.values.tobytes() == values.tobytes()
        assert traj.newton_passes.dtype == np.int64 and traj.newton_passes.tolist() == passes

    @pytest.mark.parametrize("case", ["nan start", "1/x at 0", "sin(x) at inf", "singular",
                                      "nonpositive density"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_fails_as_the_reference(self, plane, case, batch):
        text, start, surface, t_final, h = {
            "nan start": ("x*y", [np.nan, 0.0], plane, 0.1, 1e-2),
            "1/x at 0": ("1/x", [0.0, 1.0], plane, 0.1, 1e-2),
            "sin(x) at inf": ("sin(x)", [np.inf, 0.0], plane, 0.1, 1e-2),
            "singular": ("x*y", [1.0, 1.0], plane, 2.0, 2.0),
            "nonpositive density": ("y", [-1.0, 0.0],
                                    SymplecticSurface.plane(omega_density=expr("x")), 0.1, 1e-2),
        }[case]
        p0 = [[0.1, 0.5], start] if batch else start
        with pytest.raises(Exception) as want:
            reference_flow(expr(text), surface, p0, t_final, h)
        with pytest.raises(Exception) as got:
            flow_classical(expr(text), surface, p0, t_final, h)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        want_type = ValueError if case == "nonpositive density" else NewtonDivergence
        assert type(got.value) is want_type

    @pytest.mark.parametrize("p0", [[1.0, 0.2], [[1.0, 0.2], [0.5, 0.1]]])
    def test_fails_mid_flow_as_the_reference(self, plane, p0):
        # the residual stalls just above the absolute tol after 720 good
        # steps: the failing step is read back from the passes appended
        f = expr("x*y+0.3*x^2")
        with pytest.raises(NewtonDivergence) as want:
            reference_flow(f, plane, p0, 20.0, 0.01)
        with pytest.raises(NewtonDivergence) as got:
            flow_classical(f, plane, p0, 20.0, 0.01)
        assert str(got.value) == str(want.value)
        assert str(got.value) == (
            "classical flow failed in step 721 of 2000 (t = 7.21): "
            "implicit midpoint failed to converge: residual 1.101e-13"
        )

    def test_points_and_batches_share_the_code(self, plane):
        # one source per form of field: the constants and the namespace are the globals
        one = dynamics._newton_step(expr("y^2/2-cos(x)"), plane, True)
        two = dynamics._newton_step(expr("y^2/3-cos(x)"), plane, False)
        assert one.__code__ is two.__code__
        assert one.__globals__["norm"] is dynamics._max_abs
        assert two.__globals__["norm"] is dynamics._batch_max_abs
        assert one.__globals__["__builtins__"] == {} == two.__globals__["__builtins__"]

    @pytest.mark.parametrize("text, passes", [
        ("(x^2+y^2)/2", 2), ("x*y+0.3*x^2", 2), ("y^2/2-cos(x)", 2),
    ])
    @pytest.mark.parametrize("batch", [False, True])
    def test_newton_passes_per_step(self, plane, text, passes, batch):
        # a linear X_f converges on the pass after its one update; the
        # pendulum needs two updates from the Euler start of steps 1-3, and
        # one from the cubic extrapolation of the later steps
        p0 = [[0.7, 0.2], [-0.4, 0.9], [1.1, -0.3]] if batch else [0.7, 0.2]
        euler = 3 if text == "y^2/2-cos(x)" else 2
        traj = flow_classical(expr(text), plane, p0, 1.0, 0.01)
        assert traj.newton_passes.dtype == np.int64
        assert traj.newton_passes.tolist() == [euler] * 3 + [passes] * 97

    @pytest.mark.parametrize("case, text", [
        (case, text) for case, texts in REFERENCE_CASES.items() for text in texts
    ])
    @pytest.mark.parametrize("batch", [False, True])
    def test_start_changes_only_the_accepted_iterate(self, plane, case, text, batch):
        # against the Euler start of every step: both flows solve the same
        # midpoint equation to NEWTON_TOL, so 50 steps differ by a few tol
        # (at most 22 tol in the points and 37 tol in the values measured)
        p0, surface = reference_start(plane, case, batch)
        f = expr(text)
        traj = flow_classical(f, surface, p0, 0.2, -4e-3)
        _, points, values, _ = reference_flow(f, surface, p0, 0.2, -4e-3, extrapolate=False)
        assert np.max(np.abs(traj.points - points)) <= 100 * dynamics.NEWTON_TOL
        assert np.max(np.abs(traj.values - values)) <= 100 * dynamics.NEWTON_TOL


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

    def test_step_count_that_overflows_rejected(self, plane):
        with pytest.raises(ValueError, match=r"^\|t_final\| / \|step\| must be finite, got inf$"):
            flow_moduli(expr("x"), gentle_point(plane), -1e300, 1e-300)

    @pytest.mark.parametrize("text, z", [("1e300*x", "1.643658298568959e+300"), ("1e400*x", "nan")])
    def test_substep_count_out_of_range_names_the_step(self, plane, text, z):
        # 1e400 is inf, so F_f and u are NaN; neither warns (Tier-1 turns that into an error)
        cfg = json.loads(FLOW_CONFIG.read_text())
        p0 = ModuliPoint(plane, build_loop(cfg["loop"], 128, plane), HalfDensity.uniform(128))
        with pytest.raises(GeometryError) as got:
            flow_moduli(expr(text), p0, 0.02, 0.01)
        assert str(got.value) == (
            "moduli flow failed in step 1 of 2 (t = 0.01, first RK4 stage): "
            f"RK4 substep count out of range (z = {z})"
        )

    def test_diverging_flow_names_the_step_and_its_substeps(self, plane):
        cfg = json.loads(FLOW_CONFIG.read_text())
        p0 = ModuliPoint(plane, build_loop(cfg["loop"], 128, plane), HalfDensity.uniform(128))
        with pytest.raises(GeometryError) as got:
            flow_moduli(expr("x^4+y^4"), p0, 1.0, 0.5)
        assert type(got.value) is GeometryError
        assert str(got.value) == (
            "moduli flow failed in step 1 of 2 (t = 0.5, 318 RK4 substeps): "
            "diverged, state is not finite"
        )

    def test_one_step_builds_one_weight_and_takes_one_volume(self, plane, monkeypatch):
        p0 = gentle_point(plane)
        built, volumes = [], []
        init, volume, integral = HalfDensity.__init__, HalfDensity.volume, moduli.integrate_density

        def counted_init(self, values):
            built.append(1)
            init(self, values)

        def counted_volume(self):
            volumes.append("HalfDensity.volume")
            return volume(self)

        def counted_integral(d):
            volumes.append("_retract")
            return integral(d)

        monkeypatch.setattr(HalfDensity, "__init__", counted_init)
        monkeypatch.setattr(HalfDensity, "volume", counted_volume)
        monkeypatch.setattr(moduli, "integrate_density", counted_integral)
        traj = flow_moduli(expr("x*y+0.3*x^2"), p0, 0.015, 5e-3)
        assert len(traj.times) == 4
        assert len(built) == 3
        assert volumes == ["_retract"] * 3

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

    @pytest.mark.parametrize("text, passes", [("x*y+0.3*x^2", 1), ("5", 0)])
    def test_projection_passes_per_step(self, plane, text, passes):
        # on the unit-density plane one rescaling by sqrt(k / A) lands on the
        # level, so a step takes one action integral after the first; a
        # constant observable never leaves the level and takes none
        traj = flow_moduli(expr(text), gentle_point(plane), 0.05, 5e-3)
        assert traj.projection_passes.dtype == np.int64
        assert traj.projection_passes.tolist() == [passes] * 10

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

    def test_one_field_evaluation_per_state_and_stage(self, plane, monkeypatch):
        # F_f of an accepted state and the next step's first stage share one evaluation
        calls = []
        call = ScalarField.__call__

        def counted(self, x, y):
            calls.append(1)
            return call(self, x, y)

        monkeypatch.setattr(ScalarField, "__call__", counted)
        traj = shipped_flow(plane, 256)
        assert np.all(traj.substeps >= 2)
        assert len(calls) == 1 + 4 * traj.substeps.sum()

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

    def test_substep_count_never_falls_within_a_flow(self, plane):
        # z falls just below RK4_STABLE_Z at step 12 here; dropping to one substep
        # there drifted F_f by 3.2e-6
        n = 128
        loop = Loop.ellipse(
            1.256280788936495, 0.7046088527489403,
            center=(0.19783493758440407, -0.22641810246511299), n=n, angle=2.216369717209144,
        )
        p0 = ModuliPoint(plane, project_to_bs(loop, plane), HalfDensity.uniform(n))
        traj = flow_moduli(expr("sin(1.2878*x)+0.9491*y^2"), p0, 0.1, 0.005)
        assert np.all(traj.substeps == 2)
        assert np.max(np.abs(traj.observable_values - traj.observable_values[0])) <= 1e-6


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

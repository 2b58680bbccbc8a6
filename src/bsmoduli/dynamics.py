"""Time integration on the surface and on the moduli space.

Classical trajectories use the implicit midpoint rule (symplectic, second
order, time-symmetric), solved by Newton with the exact Jacobian of X_f and
a closed-form 2x2 solve.  The Newton runs on the coordinates (x, y): Python
floats for one point, (M,) arrays for a batch, with X_f and DX_f compiled
once per flow into functions of (x, y).  Moduli trajectories use classical
RK4 on the pair (loop points, weight values), with the stage velocity given
by the Hamiltonian field of the induced observable realized as a normal
displacement field.  That velocity comes from one array kernel,
``_stage_velocity``, which builds no loop, weight or moduli-point objects and
makes two spectral-derivative calls per stage: the tangent, then one (N, 2)
stack of (u theta0^2)' and f1'.  Each requested step is split into equal RK4
substeps short enough for the flow's advection speed (``RK4_STABLE_Z``),
sized from the first stage's tangential coefficient.  After every requested
step the weight is renormalized to unit volume and the loop re-projected
onto its integer level, starting from the action integral that also gives
the logged level defect; both corrections track the integrator's own local
error and are logged.
"""

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import GeometryError, NewtonDivergence
from .loops import (
    HalfDensity,
    Loop,
    _defect_and_projection,
    _require_gaps,
    integrate_density,
    loop_derivative,
)
from .moduli import ModuliPoint, _require_pointwise_dual
from .observables import evaluate_F
from .surfaces import (
    _coefficient_and_speed2,
    _field_and_density,
    _field_jacobian,
    _require_positive_density,
)

# RK4 is stable on the imaginary axis up to |z| = 2*sqrt(2); substeps keep the
# fastest advected Fourier mode below this margin.
RK4_STABLE_Z = 2.0

# Implicit-midpoint Newton: absolute residual tolerance and pass budget.
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 40


@dataclass
class ClassicalTrajectory:
    times: np.ndarray
    points: np.ndarray
    values: np.ndarray

    def final(self):
        return self.points[-1]


def _max_abs(a, b):
    """max(|a|, |b|), NaN when either is NaN, as numpy's max propagates it."""
    a, b = abs(a), abs(b)
    return a if a >= b or a != a else b


def _batch_max_abs(a, b):
    return _max_abs(np.abs(a).max(), np.abs(b).max())


def _guarded(kernel):
    """A point kernel whose float errors (1/0, math.sin(inf)) raise NewtonDivergence."""

    def call(x, y):
        try:
            return kernel(x, y)
        except (ArithmeticError, ValueError) as exc:
            raise NewtonDivergence(f"no float value at ({x!r}, {y!r}): {exc}") from exc

    return call


def _kernels(f, surface, scalar):
    """X_f and the four trees of DX_f as functions of the coordinates (x, y), compiled once.

    X_f = (f_y / w, -f_x / w), with the division and the positivity guard of
    w only on a weighted surface; ``scalar`` compiles for Python floats, else
    for (M,) arrays.
    """
    w = surface.omega_density
    field = ex._compile((f._dy, f._dx) + (() if w is None else (w.ast,)), scalar)
    jacobian = ex._compile(_field_jacobian(f, surface), scalar)
    if scalar:
        field, jacobian = _guarded(field), _guarded(jacobian)

    def x_f(x, y):
        if w is None:
            fy, fx = field(x, y)
            return fy, -fx
        fy, fx, wv = field(x, y)
        _require_positive_density(wv)
        return fy / wv, -fx / wv

    return x_f, jacobian


def _implicit_midpoint_step(x_f, jacobian, backend, x, y, h):
    """Solve p_new = p + h * X_f((p + p_new)/2) by Newton with the exact Jacobian of X_f.

    p = (x, y) is one point of Python floats or a batch of (M,) arrays,
    solved together: each pass evaluates X_f at the midpoints for the
    residual and the four entries of DX_f (``jacobian``) there, then solves
    every 2x2 system (I - h/2 DX_f) delta = -residual by Cramer's rule.
    ``backend`` is the pair (largest |component| of two, nonsingular test of
    det) for that kind of p.  The batch has converged once its largest
    residual is below NEWTON_TOL; the last pass only tests the residual.
    """
    norm, nonsingular = backend
    k = 0.5 * h
    u, v = x_f(x, y)
    xn, yn = x + h * u, y + h * v
    for it in range(NEWTON_MAX_ITER + 1):
        mx, my = 0.5 * (x + xn), 0.5 * (y + yn)
        u, v = x_f(mx, my)
        r0, r1 = xn - x - h * u, yn - y - h * v
        err = norm(r0, r1)
        if err < NEWTON_TOL:
            return xn, yn
        if it == NEWTON_MAX_ITER:
            raise NewtonDivergence(f"implicit midpoint failed to converge: residual {err:.3e}")
        a, b, c, d = jacobian(mx, my)
        m00, m01, m10, m11 = 1.0 - k * a, -k * b, -k * c, 1.0 - k * d
        det = m00 * m11 - m01 * m10
        if not nonsingular(det):  # tested before dividing, so no ZeroDivisionError
            raise NewtonDivergence("singular Newton system in implicit midpoint")
        d0 = (m01 * r1 - m11 * r0) / det
        d1 = (m10 * r0 - m00 * r1) / det
        if not norm(d0, d1) <= 1e6:  # also true for a NaN or an inf
            raise NewtonDivergence("implicit midpoint Newton step diverged")
        xn, yn = xn + d0, yn + d1


def _step_count(t_final, h):
    """Steps of length |h| to reach |t_final|; the sign of h alone sets the direction."""
    for key, value in (("t_final", t_final), ("step", h)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if h == 0:
        raise ValueError("step must be nonzero")
    return int(round(abs(t_final) / abs(h)))


def flow_classical(f, surface, p0, t_final, h):
    """Implicit-midpoint Hamiltonian flow of f from p0, a point (2,) or an (M, 2) batch.

    A batch runs as one Newton solve per step, so its points are
    ``points[step, m]``.  The Newton runs on the coordinates: Python floats
    for a point, (M,) arrays for a batch, through X_f and DX_f compiled once
    per call (``_kernels``).  Negative h integrates backwards.  Torus
    coordinates are kept on the lift internally (the fields are periodic) and
    wrapped in the output.  A Newton failure, a non-finite value included,
    raises NewtonDivergence naming the step and time.
    """
    steps = _step_count(t_final, h)
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim not in (1, 2) or p0.shape[-1] != 2:
        raise ValueError(f"initial point must have shape (2,) or (M, 2), got {p0.shape}")
    scalar = p0.ndim == 1
    x_f, jacobian = _kernels(f, surface, scalar)
    backend = (_max_abs, bool) if scalar else (_batch_max_abs, np.all)
    x, y = p0.tolist() if scalar else p0.T
    times = np.arange(steps + 1) * h
    xs, ys = [x], [y]
    with np.errstate(all="ignore"):
        for i in range(steps):
            try:
                x, y = _implicit_midpoint_step(x_f, jacobian, backend, x, y, h)
            except NewtonDivergence as exc:
                raise NewtonDivergence(
                    f"classical flow failed in step {i + 1} of {steps} "
                    f"(t = {float(times[i + 1])!r}): {exc}"
                ) from exc
            xs.append(x)
            ys.append(y)
    out = surface.wrap(np.stack([np.array(xs), np.array(ys)], axis=-1))
    vals = np.asarray(f(out[..., 0], out[..., 1]), dtype=float)
    return ClassicalTrajectory(times=times, points=out, values=vals)


@dataclass
class ModuliTrajectory:
    times: np.ndarray
    observable_values: np.ndarray
    volume_defects: np.ndarray
    bs_defects: np.ndarray
    checksums: list
    substeps: np.ndarray
    snapshots: list = field(default_factory=list)

    def final(self):
        return self.snapshots[-1][1] if self.snapshots else None


def _loop_checksum(points, theta):
    return zlib.crc32(points.tobytes() + theta.tobytes())


def _stage_velocity(field, surface, points, theta):
    """RK4 stage velocity (nu, t1) of the flow of F_field, plus the tangential coefficient u.

    The array form of ``_normal_displacement`` applied to ``hamiltonian_field_H``,
    with the same operations in the same order: the Riesz weights
    (-(u theta^2)', 2 f theta) of dF, their pointwise dual, and the
    normal displacement of its function part.  The function part does not
    depend on (u theta^2)', so both derivatives run as one call on an (N, 2)
    stack: two spectral derivative calls per stage, the tangent included.
    The density is evaluated once, for the Hamiltonian field and the normal
    displacement, and |gamma'|^2 once, for u and the normal displacement.
    The guards (gap floor, density positivity, tangent floor, pairing floor)
    are the helpers Loop, hamiltonian_vector_field, tangential_coefficient and
    sharp run.
    """
    _require_gaps(points)
    tan = loop_derivative(points)
    xf, w = _field_and_density(field, surface, points)
    u, speed2 = _coefficient_and_speed2(xf, tan)
    _require_pointwise_dual(theta)
    th2 = theta**2
    raw_f = (2.0 * np.asarray(field(points[:, 0], points[:, 1]), dtype=float) * theta) / theta
    vol = integrate_density(th2)
    stack = np.empty(points.shape)
    np.multiply(u, th2, out=stack[:, 0])
    np.subtract(raw_f, integrate_density(raw_f * th2) / vol, out=stack[:, 1])
    derivs = loop_derivative(stack)
    raw_t = derivs[:, 0] / theta
    t1 = raw_t - integrate_density(theta * raw_t) / vol * theta
    coeff = derivs[:, 1] / (w * speed2)
    nu = np.empty(points.shape)
    np.negative(tan[:, 1], out=nu[:, 0])
    nu[:, 1] = tan[:, 0]
    np.multiply(coeff[:, None], nu, out=nu)
    return nu, t1, u


def _all_finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


def _rk4_step(field, surface, pts, th, h, k1):
    """One classical RK4 step from its first-stage velocity k1; None once a stage state is not finite."""
    kp, kt = k1
    sum_p, sum_t = kp.copy(), kt.copy()
    for c, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        stage_p, stage_t = pts + c * h * kp, th + c * h * kt
        if not _all_finite(stage_p, stage_t):
            return None
        kp, kt, _ = _stage_velocity(field, surface, stage_p, stage_t)
        sum_p += weight * kp
        sum_t += weight * kt
    return pts + (h / 6.0) * sum_p, th + (h / 6.0) * sum_t


def flow_moduli(f, p0, t_final, h, snapshot_every=0):
    """RK4 flow of the induced observable F_f on the moduli space.

    As in flow_classical, negative h integrates backwards and h = 0 raises
    ValueError.  Each requested step of length h runs as ``substeps[i]`` equal RK4
    substeps, m = max(1, ceil(z / RK4_STABLE_Z)) with
    z = |h| * 2 pi (N/2 - 1) * 2 max|u_f|: the normal-displacement flow
    advects the loop at speed 2 u_f, so Fourier mode k has eigenvalue
    i 2 pi k 2 u_f, and the fastest resolved mode is k = N/2 - 1 (the
    Nyquist mode has zero spectral derivative).  u_f comes from the first
    stage of the step.  Records per step: time, F_f, pre-renormalization
    volume defect, pre-projection level defect, and a CRC32 state checksum.
    Snapshots of the full state are kept every ``snapshot_every`` steps when
    positive.  Each step runs under ``np.errstate(all="ignore")``; a state or
    a volume that stops being finite raises GeometryError, and every
    GeometryError of a step (SingularPairing, DegenerateLoop, AreaTooSmall
    and the like) is re-raised as its own type with a message naming the
    step, its time, its RK4 substep count and the cause.
    """
    surface = p0.surface
    steps = _step_count(t_final, h)
    pts = p0.loop.points
    th = p0.theta.values
    winding = p0.loop.winding

    times = np.arange(steps + 1) * h
    f_vals = np.empty(steps + 1)
    vol_defects = np.zeros(steps + 1)
    level_defects = np.zeros(steps + 1)
    substeps = np.zeros(steps, dtype=int)
    checksums = []
    snapshots = []

    current = ModuliPoint(surface, p0.loop, p0.theta, strict=False)
    f_vals[0] = evaluate_F(f, current)
    checksums.append(_loop_checksum(pts, th))
    if snapshot_every > 0:
        snapshots.append((0.0, current))

    for i in range(steps):
        m = 0
        try:
            with np.errstate(all="ignore"):
                nu, t1, u = _stage_velocity(f, surface, pts, th)
                z = abs(h) * 2.0 * np.pi * (len(pts) // 2 - 1) * 2.0 * float(np.abs(u).max())
                m = substeps[i] = max(1, math.ceil(z / RK4_STABLE_Z))
                for j in range(m):
                    if j:
                        nu, t1, _ = _stage_velocity(f, surface, pts, th)
                    state = _rk4_step(f, surface, pts, th, h / m, (nu, t1))
                    if state is None or not _all_finite(*state):
                        raise GeometryError("diverged, state is not finite")
                    pts, th = state
                raw_theta = HalfDensity(th)
                volume = raw_theta.volume()
                if not math.isfinite(volume):
                    raise GeometryError("diverged, state is not finite")
                defect, loop = _defect_and_projection(Loop(pts, winding=winding), surface)
                theta = raw_theta.normalized()
        except GeometryError as exc:
            where = f"{m} RK4 substeps" if m else "first RK4 stage"
            raise type(exc)(
                f"moduli flow failed in step {i + 1} of {steps} "
                f"(t = {float(times[i + 1])!r}, {where}): {exc}"
            ) from exc
        vol_defects[i + 1] = abs(volume - 1.0)
        level_defects[i + 1] = abs(defect)
        pts, th = loop.points, theta.values

        current = ModuliPoint(surface, loop, theta, strict=False)
        f_vals[i + 1] = evaluate_F(f, current)
        checksums.append(_loop_checksum(pts, th))
        if snapshot_every > 0 and (i + 1) % snapshot_every == 0:
            snapshots.append((times[i + 1], current))

    return ModuliTrajectory(
        times=times,
        observable_values=f_vals,
        volume_defects=vol_defects,
        bs_defects=level_defects,
        checksums=checksums,
        substeps=substeps,
        snapshots=snapshots,
    )

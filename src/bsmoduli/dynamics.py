"""Time integration on the surface and on the moduli space.

Classical trajectories use the implicit midpoint rule (symplectic, second
order, time-symmetric), solved by Newton with the exact Jacobian of X_f and
a closed-form 2x2 solve; moduli trajectories use classical RK4 on the pair
(loop points, weight values), with the stage velocity given by the
Hamiltonian field of the induced observable realized as a normal
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
from .surfaces import _field_and_density, _field_jacobian
from .surfaces import hamiltonian_vector_field as classical_field
from .surfaces import tangential_coefficient

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


def _implicit_midpoint_step(f, surface, p, h, jacobian):
    """Solve p_new = p + h * X_f((p + p_new)/2) by Newton with the exact Jacobian of X_f.

    p is a point (2,) or an (M, 2) batch, solved together: each pass makes one
    field call on the midpoints for the residual and evaluates the four trees
    of DX_f (``jacobian``, from ``surfaces._field_jacobian``) there, then
    solves every 2x2 system (I - h/2 DX_f) delta = -residual by Cramer's
    rule.  The batch has converged once its largest residual is below
    NEWTON_TOL; the last pass only tests the residual.
    """
    k = 0.5 * h
    p_new = p + h * classical_field(f, surface, p)
    for it in range(NEWTON_MAX_ITER + 1):
        mid = 0.5 * (p + p_new)
        res = p_new - p - h * classical_field(f, surface, mid)
        err = np.abs(res).max()
        if err < NEWTON_TOL:
            return p_new
        if it == NEWTON_MAX_ITER:
            raise NewtonDivergence(f"implicit midpoint failed to converge: residual {err:.3e}")
        x, y = mid[..., 0], mid[..., 1]
        a, b, c, d = [ex.evaluate(tree, x, y) for tree in jacobian]
        m00, m01, m10, m11 = 1.0 - k * a, -k * b, -k * c, 1.0 - k * d
        det = m00 * m11 - m01 * m10
        if not np.asarray(det).all():  # tested before dividing, so no RuntimeWarning
            raise NewtonDivergence("singular Newton system in implicit midpoint")
        r0, r1 = res[..., 0], res[..., 1]
        delta = np.empty(res.shape)
        delta[..., 0] = (m01 * r1 - m11 * r0) / det
        delta[..., 1] = (m10 * r0 - m00 * r1) / det
        if not np.abs(delta).max() <= 1e6:  # also true for a NaN or an inf
            raise NewtonDivergence("implicit midpoint Newton step diverged")
        p_new = p_new + delta


def _step_count(t_final, h):
    """Steps of length |h| to reach |t_final|; the sign of h alone sets the direction."""
    if h == 0:
        raise ValueError("step must be nonzero")
    return int(round(abs(t_final) / abs(h)))


def flow_classical(f, surface, p0, t_final, h):
    """Implicit-midpoint Hamiltonian flow of f from p0, a point (2,) or an (M, 2) batch.

    A batch runs as one Newton solve per step, so its points are
    ``points[step, m]``.  Negative h integrates backwards.  Torus coordinates
    are kept on the lift internally (the fields are periodic) and wrapped in
    the output.  A Newton failure raises NewtonDivergence naming the step and
    time.
    """
    steps = _step_count(t_final, h)
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim not in (1, 2) or p0.shape[-1] != 2:
        raise ValueError(f"initial point must have shape (2,) or (M, 2), got {p0.shape}")
    jacobian = _field_jacobian(f, surface)
    times = np.arange(steps + 1) * h
    pts = np.empty((steps + 1,) + p0.shape)
    pts[0] = p0
    for i in range(steps):
        try:
            pts[i + 1] = _implicit_midpoint_step(f, surface, pts[i], h, jacobian)
        except NewtonDivergence as exc:
            raise NewtonDivergence(
                f"classical flow failed in step {i + 1} of {steps} "
                f"(t = {float(times[i + 1])!r}): {exc}"
            ) from exc
    out = surface.wrap(pts)
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
    displacement.  The guards (gap floor, density positivity, tangent floor,
    pairing floor) are the helpers Loop, hamiltonian_vector_field,
    tangential_coefficient and sharp run.
    """
    _require_gaps(points)
    tan = loop_derivative(points)
    xf, w = _field_and_density(field, surface, points)
    u = tangential_coefficient(xf, tan)
    _require_pointwise_dual(theta)
    th2 = theta**2
    x, y = points[:, 0], points[:, 1]
    raw_f = (2.0 * np.asarray(field(x, y), dtype=float) * theta) / theta
    vol = integrate_density(th2)
    f1 = raw_f - integrate_density(raw_f * th2) / vol
    derivs = loop_derivative(np.stack([u * th2, f1], axis=1))
    raw_t = derivs[:, 0] / theta
    t1 = raw_t - integrate_density(theta * raw_t) / vol * theta
    coeff = derivs[:, 1] / (w * np.sum(tan * tan, axis=1))
    nu = coeff[:, None] * np.stack([-tan[:, 1], tan[:, 0]], axis=1)
    return nu, t1, u


def _all_finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


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
                z = abs(h) * 2.0 * np.pi * (len(pts) // 2 - 1) * 2.0 * float(np.max(np.abs(u)))
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

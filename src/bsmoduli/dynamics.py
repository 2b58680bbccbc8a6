"""Time integration on the surface and on the moduli space.

Classical trajectories use the implicit midpoint rule (symplectic, second
order, time-symmetric), solved by Newton with the exact Jacobian of X_f and
a closed-form 2x2 solve.  Once per flow the whole flow (the step loop, and
in each step the predictor, the Newton loop, the trees of X_f and DX_f and
the Cramer solve) is emitted from one template and compiled into one
function on the coordinates, Python floats for one point and (M,) arrays
for a batch, which the flow calls once: it appends every point and pass
count to the caller's lists.  Moduli trajectories use classical
RK4 on the pair (loop points, weight values), with the stage velocity given
by the Hamiltonian field of the induced observable realized as a normal
displacement field.  That velocity comes from one array kernel,
``_stage_velocity``, which builds no loop, weight or moduli-point objects and
makes two spectral-derivative calls per stage: the tangent, then one (N, 2)
stack of (u theta0^2)' and f1'.  Each requested step is split into equal RK4
substeps short enough for the flow's advection speed (``RK4_STABLE_Z``),
sized from the first stage's tangential coefficient.  After every requested
step ``moduli._retract``, the retraction ``realize_tangent`` uses too,
renormalizes the weight to unit volume and re-projects the loop onto its
integer level; both corrections track the integrator's own local error and
are logged.  f is evaluated once per accepted state: the logged F_f and the
next step's first stage share those values.
"""

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import GeometryError, NewtonDivergence
from .loops import _require_gaps, integrate_density, loop_derivative
from .moduli import ModuliPoint, _require_pointwise_dual, _retract
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
    newton_passes: np.ndarray

    def final(self):
        return self.points[-1]


def _max_abs(a, b):
    """max(|a|, |b|), NaN when either is NaN, as numpy's max propagates it."""
    a, b = abs(a), abs(b)
    return a if a >= b or a != a else b


def _abs_max(a):
    """max|a| over a batch, NaN when any entry is NaN."""
    return np.abs(a).max()


def _batch_max_abs(a, b):
    return _max_abs(_abs_max(a), _abs_max(b))


# The template of a whole implicit-midpoint flow: ``steps`` Newton solves,
# each appending its point to xs, ys and its pass count to passes.  {start}
# and {midpoint} bind (u, v) = X_f at (x, y) and at the midpoint (mx, my);
# {jacobian} computes the four entries of DX_f at the midpoint, named by
# {entries}.  mag(a) is |a| for a point and max|a| for a batch; the chained
# comparisons are false for a NaN, as a max of the two would be.
_NEWTON_FLOW = """\
def kernel(x, y, h, steps, xs, ys, passes):
    k = 0.5 * h
    for _ in range(steps):
{start}
        xn, yn = x + h * u, y + h * v
        for it in range(max_iter + 1):
            mx, my = 0.5 * (x + xn), 0.5 * (y + yn)
{midpoint}
            r0, r1 = xn - x - h * u, yn - y - h * v
            if mag(r0) < tol > mag(r1):
                break
            if it == max_iter:
                raise NewtonDivergence(
                    f"implicit midpoint failed to converge: residual {{norm(r0, r1):.3e}}"
                )
{jacobian}            a, b, c, d = {entries}
            m00, m01, m10, m11 = 1.0 - k * a, -k * b, -k * c, 1.0 - k * d
            det = m00 * m11 - m01 * m10
            if not nonsingular(det):  # tested before dividing, so no ZeroDivisionError
                raise NewtonDivergence("singular Newton system in implicit midpoint")
            d0 = (m01 * r1 - m11 * r0) / det
            d1 = (m10 * r0 - m00 * r1) / det
            if not mag(d0) <= 1e6 >= mag(d1):  # also true for a NaN or an inf
                raise NewtonDivergence("implicit midpoint Newton step diverged")
            xn, yn = xn + d0, yn + d1
        x, y = xn, yn
        xs.append(x)
        ys.append(y)
        passes.append(it + 1)
"""


def _emitted(emitter, nodes, x, y, pad):
    """(source, names): lines computing ``nodes`` at the variables x and y, and the values' names.

    The lines run inside a try that raises a float error of Python arithmetic
    (1/0, math.sin(inf)) as NewtonDivergence naming the point.
    """
    lines, names = emitter.emit(nodes, x, y)
    if not lines:
        return "", names
    body = "".join(f"{pad}    {line}\n" for line in lines)
    return (
        f"{pad}try:\n{body}{pad}except (ArithmeticError, ValueError) as exc:\n"
        f'{pad}    raise NewtonDivergence(f"no float value at ({{{x}!r}}, {{{y}!r}}): {{exc}}")'
        " from exc\n"
    ), names


def _field_source(emitter, nodes, x, y, pad):
    """Source binding (u, v) = X_f at (x, y) from the trees (f_y, f_x) or (f_y, f_x, w).

    X_f = (f_y / w, -f_x / w).  The positivity guard of w runs outside the
    try of ``_emitted``, so a nonpositive density stays a ValueError.
    """
    source, names = _emitted(emitter, nodes, x, y, pad)
    if len(names) == 2:
        return source + f"{pad}u, v = {names[0]}, -{names[1]}"
    fy, fx, w = names
    return source + f"{pad}require_positive_density({w})\n{pad}u, v = {fy} / {w}, -{fx} / {w}"


def _newton_step(f, surface, scalar):
    """The implicit-midpoint flow of X_f, compiled: kernel(x, y, h, steps, xs, ys, passes).

    One call runs all ``steps`` steps of length h from (x, y) and appends
    each new point to xs and ys and its pass count to passes, so on a
    NewtonDivergence ``len(passes)`` is the number of steps completed.  Each
    step solves p_new = p + h * X_f((p + p_new)/2) by Newton with the exact
    Jacobian of X_f: each pass evaluates X_f at the midpoint for the residual
    and the four trees of DX_f there, then solves (I - h/2 DX_f) delta =
    -residual by Cramer's rule.  A pass count is the step's residual
    evaluations; the last pass only tests the residual.  X_f = (f_y / w,
    -f_x / w), with the division and the positivity guard of w only on a
    weighted surface.  Points (``scalar``: Python floats and math) and (M,)
    batches (numpy) share the source, and so its code object from
    ``expressions._code``; only the namespace differs: ``mag`` (the builtin
    abs, or the largest |entry| of a batch), ``norm`` (the largest |component|
    of two, for the message of a step that does not converge) and the
    nonsingular test of det.  A step has converged once every |residual|
    component, over the whole batch, is below NEWTON_TOL.
    """
    w = surface.omega_density
    field = (f._dy, f._dx) + (() if w is None else (w.ast,))
    emitter = ex._Emitter()
    start = _field_source(emitter, field, "x", "y", " " * 8)
    midpoint = _field_source(emitter, field, "mx", "my", " " * 12)
    jacobian, entries = _emitted(emitter, _field_jacobian(f, surface), "mx", "my", " " * 12)
    source = _NEWTON_FLOW.format(
        start=start, midpoint=midpoint, jacobian=jacobian, entries=", ".join(entries)
    )
    namespace = dict(
        ex._NAMESPACES[scalar],
        **emitter.consts,
        mag=abs if scalar else _abs_max,
        norm=_max_abs if scalar else _batch_max_abs,
        nonsingular=bool if scalar else np.all,
        require_positive_density=_require_positive_density,
        tol=NEWTON_TOL,
        max_iter=NEWTON_MAX_ITER,
        range=range,
        ArithmeticError=ArithmeticError,
        ValueError=ValueError,
        NewtonDivergence=NewtonDivergence,
    )
    return ex._function(source, namespace)


def _step_count(t_final, h):
    """Steps of length |h| to reach |t_final|; the sign of h alone sets the direction."""
    for key, value in (("t_final", t_final), ("step", h)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if h == 0:
        raise ValueError("step must be nonzero")
    ratio = abs(t_final) / abs(h)
    if not math.isfinite(ratio):
        raise ValueError(f"|t_final| / |step| must be finite, got {ratio!r}")
    return int(round(ratio))


def flow_classical(f, surface, p0, t_final, h):
    """Implicit-midpoint Hamiltonian flow of f from p0, a point (2,) or an (M, 2) batch.

    A batch runs as one Newton solve per step, so its points are
    ``points[step, m]``.  The whole flow is one call of the function compiled
    for this call (``_newton_step``): on Python floats for a point, on (M,)
    arrays for a batch; a step that fails is the one after the last pass
    count it appended.  ``newton_passes[i]`` counts the residual
    evaluations of step i + 1.  Negative h integrates backwards.  Torus
    coordinates are kept on the lift internally (the fields are periodic) and
    wrapped in the output.  A Newton failure, a non-finite value included,
    raises NewtonDivergence naming the step and time; a nonpositive density
    raises ValueError.
    """
    steps = _step_count(t_final, h)
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim not in (1, 2) or p0.shape[-1] != 2:
        raise ValueError(f"initial point must have shape (2,) or (M, 2), got {p0.shape}")
    scalar = p0.ndim == 1
    x, y = p0.tolist() if scalar else p0.T
    times = np.arange(steps + 1) * h
    xs, ys, passes = [x], [y], []
    with np.errstate(all="ignore"):
        try:
            _newton_step(f, surface, scalar)(x, y, h, steps, xs, ys, passes)
        except NewtonDivergence as exc:
            i = len(passes)
            raise NewtonDivergence(
                f"classical flow failed in step {i + 1} of {steps} "
                f"(t = {float(times[i + 1])!r}): {exc}"
            ) from exc
    out = surface.wrap(np.stack([np.array(xs), np.array(ys)], axis=-1))
    vals = np.asarray(f(out[..., 0], out[..., 1]), dtype=float)
    return ClassicalTrajectory(
        times=times, points=out, values=vals, newton_passes=np.array(passes, dtype=np.int64)
    )


@dataclass
class ModuliTrajectory:
    times: np.ndarray
    observable_values: np.ndarray
    volume_defects: np.ndarray
    bs_defects: np.ndarray
    checksums: list
    substeps: np.ndarray
    projection_passes: np.ndarray
    snapshots: list = field(default_factory=list)

    def final(self):
        return self.snapshots[-1][1] if self.snapshots else None


def _loop_checksum(points, theta):
    return zlib.crc32(points.tobytes() + theta.tobytes())


def _stage_velocity(field, surface, points, theta, values=None):
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
    sharp run.  ``values`` are the field's values at the points when the
    caller has them already.
    """
    _require_gaps(points)
    tan = loop_derivative(points)
    xf, w = _field_and_density(field, surface, points)
    u, speed2 = _coefficient_and_speed2(xf, tan)
    _require_pointwise_dual(theta)
    th2 = theta**2
    if values is None:
        values = field(points[:, 0], points[:, 1])
    raw_f = (2.0 * values * theta) / theta
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


def _require_finite(*arrays):
    """The arrays, once all are finite; GeometryError otherwise."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise GeometryError("diverged, state is not finite")
    return arrays


def _rk4_step(field, surface, pts, th, h, k1):
    """One RK4 step from its first-stage velocity k1; GeometryError once a state is not finite."""
    kp, kt = k1
    sum_p, sum_t = kp.copy(), kt.copy()
    for c, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        stage_p, stage_t = _require_finite(pts + c * h * kp, th + c * h * kt)
        kp, kt, _ = _stage_velocity(field, surface, stage_p, stage_t)
        sum_p += weight * kp
        sum_t += weight * kt
    return _require_finite(pts + (h / 6.0) * sum_p, th + (h / 6.0) * sum_t)


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
    volume defect, pre-projection level defect, the action integrals the
    level projection takes after its first (``projection_passes``), and a
    CRC32 state checksum.
    Snapshots of the full state are kept every ``snapshot_every`` steps when
    positive.  The flow runs under ``np.errstate(all="ignore")``; a state
    that stops being finite, a z with no int64 substep count, or a raw volume
    ``moduli._retract`` rejects raises GeometryError, and every GeometryError
    of a step (SingularPairing, DegenerateLoop, AreaTooSmall and the like) is
    re-raised as its own type with a message naming the step, its time, its
    RK4 substep count and the cause.
    """
    surface = p0.surface
    steps = _step_count(t_final, h)
    pts = p0.loop.points
    th = p0.theta.values

    times = np.arange(steps + 1) * h
    f_vals = np.empty(steps + 1)
    vol_defects = np.zeros(steps + 1)
    level_defects = np.zeros(steps + 1)
    substeps = np.zeros(steps, dtype=np.int64)
    projection_passes = np.zeros(steps, dtype=np.int64)
    checksums = []
    snapshots = []

    with np.errstate(all="ignore"):
        values = f(pts[:, 0], pts[:, 1])
        f_vals[0] = integrate_density(values * th**2)
        checksums.append(_loop_checksum(pts, th))
        if snapshot_every > 0:
            snapshots.append((0.0, ModuliPoint(surface, p0.loop, p0.theta, strict=False)))

        for i in range(steps):
            m = 0
            try:
                nu, t1, u = _stage_velocity(f, surface, pts, th, values)
                z = abs(h) * 2.0 * np.pi * (len(pts) // 2 - 1) * 2.0 * float(np.abs(u).max())
                if not z / RK4_STABLE_Z < 2.0**63:  # NaN too; below 2^63 the count fits int64
                    raise GeometryError(f"RK4 substep count out of range (z = {z!r})")
                m = substeps[i] = max(1, math.ceil(z / RK4_STABLE_Z))
                for j in range(m):
                    if j:
                        nu, t1, _ = _stage_velocity(f, surface, pts, th)
                    pts, th = _rk4_step(f, surface, pts, th, h / m, (nu, t1))
                loop, theta, volume, defect, projection_passes[i] = _retract(surface, pts, th)
            except GeometryError as exc:
                where = f"{m} RK4 substeps" if m else "first RK4 stage"
                raise type(exc)(
                    f"moduli flow failed in step {i + 1} of {steps} "
                    f"(t = {float(times[i + 1])!r}, {where}): {exc}"
                ) from exc
            vol_defects[i + 1] = abs(volume - 1.0)
            level_defects[i + 1] = abs(defect)
            pts, th = loop.points, theta.values
            values = f(pts[:, 0], pts[:, 1])
            f_vals[i + 1] = integrate_density(values * th**2)
            checksums.append(_loop_checksum(pts, th))
            if snapshot_every > 0 and (i + 1) % snapshot_every == 0:
                snapshots.append((times[i + 1], ModuliPoint(surface, loop, theta, strict=False)))

    return ModuliTrajectory(
        times=times,
        observable_values=f_vals,
        volume_defects=vol_defects,
        bs_defects=level_defects,
        checksums=checksums,
        substeps=substeps,
        projection_passes=projection_passes,
        snapshots=snapshots,
    )

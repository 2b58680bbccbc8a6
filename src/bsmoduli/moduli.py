"""Moduli space of half-weighted integer-level loops, at desk scale.

A point is a pair (loop, theta) with the loop on an integer holonomy level
and theta a half-density of unit volume.  The loop's topological type is
read from its points (``loops.winding_numbers``); on the torus only
contractible loops have a level.  Tangent vectors are pairs
(f1, theta1) of functions on the parameter circle obeying the two linear
constraints

    <f1 * theta0^2> = 0        (no drift of the induced mean),
    <theta0 * theta1> = 0      (no drift of the volume),

where <.> is the rectangle-rule integral.  The symplectic pairing is

    Omega(v1, v2) = < (f1 t2 - f2 t1) * theta0 >.

The parametrization gauge (the diffeomorphism freedom of the parameter
circle) is fixed by the uniform grid; tests assert that every observable is
invariant under cyclic index rotation.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError, SingularPairing
from .loops import (
    BS_TOL,
    HalfDensity,
    Loop,
    _defect_and_projection,
    bs_defect,
    integrate_density,
    loop_derivative,
)
from .surfaces import _speed2

SINGULAR_FLOOR = 1e-10


@dataclass(frozen=True)
class TangentVector:
    """Constrained tangent representation (f1, theta1) at a moduli point."""

    fvec: np.ndarray
    tvec: np.ndarray

    def __init__(self, fvec, tvec):
        fvec = np.asarray(fvec, dtype=float)
        tvec = np.asarray(tvec, dtype=float)
        if fvec.shape != tvec.shape or fvec.ndim != 1:
            raise ValueError("tangent components must be equal-length 1D arrays")
        object.__setattr__(self, "fvec", fvec)
        object.__setattr__(self, "tvec", tvec)

    @property
    def n(self):
        return self.fvec.shape[0]

    def __sub__(self, other):
        return TangentVector(self.fvec - other.fvec, self.tvec - other.tvec)

    def __mul__(self, c):
        return TangentVector(self.fvec * c, self.tvec * c)

    def norm(self):
        return float(np.sqrt(integrate_density(self.fvec**2 + self.tvec**2)))

    @classmethod
    def zero(cls, n):
        return cls(np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class Covector:
    """Linear functional on tangent vectors via discrete L2 Riesz weights.

    ell(v) = <fweight * v.fvec> + <tweight * v.tvec>.
    """

    fweight: np.ndarray
    tweight: np.ndarray

    def __call__(self, v):
        return integrate_density(self.fweight * v.fvec) + integrate_density(
            self.tweight * v.tvec
        )


class ModuliPoint:
    """Pair (loop, theta) over a surface; strict points satisfy both invariants."""

    def __init__(self, surface, loop, theta, strict=True):
        if loop.n != theta.n:
            raise ValueError("loop and half-density sample counts differ")
        self.surface = surface
        self.loop = loop
        self.theta = theta
        self.strict = strict
        if strict:
            vol = theta.volume()
            if abs(vol - 1.0) > 1e-10:
                raise ValueError(f"half-density volume {vol!r} is not 1 within 1e-10")
            defect = bs_defect(loop, surface)
            if abs(defect) > BS_TOL:
                raise ValueError(f"loop level defect {defect:.3e} exceeds {BS_TOL:.1e}")

    @property
    def n(self):
        return self.loop.n

    def rolled(self, k):
        """Shift the parametrization gauge of loop and weight together."""
        return ModuliPoint(
            self.surface,
            self.loop.rolled(k),
            HalfDensity(np.roll(self.theta.values, -int(k))),
            strict=self.strict,
        )

    def to_dict(self):
        out = self.loop.to_dict()
        out.update(self.theta.to_dict())
        return out

    @classmethod
    def from_dict(cls, surface, data, strict=True):
        return cls(
            surface,
            Loop.from_dict(data),
            HalfDensity.from_dict(data),
            strict=strict,
        )


def project_tangent(raw_f, raw_t, p):
    """Project raw component arrays onto the constrained tangent space.

    Subtracts the constant from the function part (weighted by theta0^2) and
    the theta0 component from the density part.  Written with the actual
    norms so it stays exact on relaxed points with volume != 1.
    """
    raw_f = np.asarray(raw_f, dtype=float)
    raw_t = np.asarray(raw_t, dtype=float)
    th = p.theta.values
    vol = integrate_density(th**2)
    c = integrate_density(raw_f * th**2) / vol
    coeff = integrate_density(th * raw_t) / vol
    return TangentVector(raw_f - c, raw_t - coeff * th)


def omega(p, v1, v2):
    """Symplectic pairing <(f1 t2 - f2 t1) theta0> of two constrained vectors."""
    th = p.theta.values
    return integrate_density((v1.fvec * v2.tvec - v2.fvec * v1.tvec) * th)


def flat(p, v):
    """The covector Omega(v, .) of a tangent vector, computed in closed form."""
    th = p.theta.values
    return Covector(fweight=-v.tvec * th, tweight=v.fvec * th)


def _complement_reflector(unit):
    """Householder reflector (v, beta), H = I - beta v v^T, of a unit vector of samples.

    H maps the unit vector to a multiple of e_0, so the columns 1 .. n-1 of
    H are an orthonormal basis of its orthogonal complement, orthonormal to
    roundoff.
    """
    v = unit.copy()
    v[0] += np.copysign(1.0, v[0])
    return v, 2.0 / (v @ v)


def _reflect(x, reflector):
    """H x along the last axis, as the rank-one update x - beta (x . v) v."""
    v, beta = reflector
    return x - np.multiply.outer(beta * (x @ v), v)


class OmegaMatrix:
    """Pairing matrix on an orthonormal basis of the constrained tangent space.

    The basis splits into a function block (constraint on f1) and a density
    block (constraint on theta1), each of dimension N-1: the columns
    sqrt(N) H_f E and sqrt(N) H_t E on samples, with H_f and H_t the
    Householder reflectors of theta0^2 and theta0 (``_complement_reflector``)
    and E the columns 1 .. N-1 of the identity.  The columns are orthonormal
    in the mean inner product <a, b> = mean(a*b).  The pairing is exactly
    block-off-diagonal,

        Omega = [[0, K], [-K^T, 0]],    K = E^T H_f diag(theta0) H_t E,

    so its singular values are those of K, each doubled.

    In these bases K is multiplication by theta0, taken from theta0^perp and
    projected onto (theta0^2)^perp.  The basis maps are isometries onto those
    complements, so on samples K and K^T are

        apply(t) = P_f (theta0 t),    apply_transpose(f) = P_t (theta0 f),

    with P_f and P_t the projectors onto (theta0^2)^perp and theta0^perp, each
    a rank-one update: O(N) per vector and no N x N array.  A
    compression raises no singular value, and K's inverse is ``sharp``'s
    formula, t = f/theta0 - (<f>/<theta0^2>) theta0 with |t| <= |f|/min|theta0|,
    so

        min|theta0| <= sigma_min(K) <= sigma_max(K) <= max|theta0|.

    The two ends are kept as ``sigma_lower_bound`` and ``sigma_upper_bound``.
    They fix the step count and the error bar of ``dense_brackets``' Krylov
    solve before it starts.  The N x N array ``k_block`` is assembled only on
    demand, for the LU fallback and for ``singular_values``: diag(theta0)
    with two rank-one updates, one for each reflector, and its first row and
    column dropped, in O(N^2).
    """

    def __init__(self, p):
        th = p.theta.values
        self.n = p.n
        self._theta0 = th
        self._f_unit = th**2 / np.linalg.norm(th**2)
        self._t_unit = th / np.linalg.norm(th)
        magnitude = np.abs(th)
        self.sigma_lower_bound = float(magnitude.min())
        self.sigma_upper_bound = float(magnitude.max())

    def apply(self, t):
        """K on samples along the last axis: P_f (theta0 t), which annihilates theta0's multiples.

        For t in theta0^perp, ``coordinates`` of the result are K times those
        of t.
        """
        return _deflate(t * self._theta0, self._f_unit)

    def apply_transpose(self, f):
        """K^T on samples along the last axis: P_t (theta0 f), for f in (theta0^2)^perp."""
        return _deflate(f * self._theta0, self._t_unit)

    @cached_property
    def _reflectors(self):
        return _complement_reflector(self._f_unit), _complement_reflector(self._t_unit)

    @cached_property
    def k_block(self):
        """K as an (N-1) x (N-1) array: H_f diag(theta0) H_t less its first row and column."""
        (vf, bf), (vt, bt) = self._reflectors
        k = np.diag(self._theta0) - np.multiply.outer(bt * self._theta0 * vt, vt)
        k -= np.multiply.outer(vf, bf * (vf @ k))
        return k[1:, 1:]

    def singular_values(self):
        """Singular values of the assembled matrix, those of K each twice, by an SVD on each call.

        They lie in [sigma_lower_bound, sigma_upper_bound] up to roundoff, so
        certifying the pairing does not need them.
        """
        s = np.linalg.svd(self.k_block, compute_uv=False)
        return np.concatenate([s, s])

    def coordinates(self, fvec, tvec):
        """Basis coefficients (xf, xt) of function and density parts, along the last axis.

        On a constrained tangent vector they are its coordinates; on a
        covector's two weights, the covector's values on the basis columns.
        """
        return tuple(
            _reflect(x, reflector)[..., 1:] / np.sqrt(self.n)
            for x, reflector in zip((fvec, tvec), self._reflectors)
        )


def _deflate(x, unit):
    """x minus its component along a unit vector, along the last axis, in place."""
    x -= (x @ unit)[..., None] * unit
    return x


def omega_matrix(p):
    """Build the pairing matrix data at a point (reusable across solves)."""
    return OmegaMatrix(p)


def _require_pointwise_dual(th):
    """Raise SingularPairing when theta0 comes within SINGULAR_FLOOR of zero on the grid.

    ``th`` is theta0 on the grid, or its floor min|theta0| itself.
    """
    floor = float(np.abs(th).min())
    if floor < SINGULAR_FLOOR:
        raise SingularPairing(f"pairing min |theta0| {floor:.3e} below {SINGULAR_FLOOR:.1e}")


def sharp(p, ell):
    """The constrained tangent v with omega(p, v, .) = ell(.) for a Covector ell, in O(N).

    Since flat(v) = (-t1 theta0, f1 theta0) and covector weights matter only
    up to multiples of theta0^2 (function part) and theta0 (density part), v
    is the constrained projection of (tweight/theta0, -fweight/theta0).  The
    dense routes of ``dense_brackets`` solve the same system and are its
    independent oracle.  Raises SingularPairing when theta0 comes within
    SINGULAR_FLOOR of zero on the grid.
    """
    th = p.theta.values
    _require_pointwise_dual(th)
    return project_tangent(ell.tweight / th, -ell.fweight / th, p)


# The Krylov solve's target relative residual, which sets its predicted step
# count, and the certified bound it must reach, relative to the bracket scale
# max |Omega_ij|, before its values are returned.
KRYLOV_RESIDUAL = 1e-16
KRYLOV_CERTIFIED = 1e-14

# Costs in seconds, least-squares fits (relative error within 40% for a step,
# 22% for the LU) to best-of-7 timings of both routes over N = 16 ... 4096 and
# k = 2, 7, 14 right-hand sides, one BLAS thread, numpy 2.4, a 2-vCPU x86-64
# VM: a Krylov step, base + per_sample * k * N (one ``apply`` and one
# ``apply_transpose`` of k rows, and the vector updates), and the LU route,
# cubic * N^3 + quadratic * N^2 + constant (K assembled by two rank-one
# updates, one LU solve of it and its residual).
KRYLOV_STEP_S = (2.2e-5, 6.0e-9)
LU_S = (1.5e-11, 1.4e-8, 6.6e-5)


def _krylov_steps(om):
    """CGLS steps that bring every relative residual below KRYLOV_RESIDUAL, from the enclosure.

    With kappa = sigma_upper_bound / sigma_lower_bound >= cond(K), CG on the
    normal equations shrinks the residual by 2 ((kappa - 1)/(kappa + 1))^m in
    m steps, so m = ln(2/eps) / ln((kappa + 1)/(kappa - 1)), and 1 step for
    kappa = 1 (K orthogonal).
    """
    kappa = om.sigma_upper_bound / om.sigma_lower_bound
    if kappa == 1.0:
        return 1
    rate = math.log((kappa + 1.0) / (kappa - 1.0))
    return max(1, math.ceil(math.log(2.0 / KRYLOV_RESIDUAL) / rate))


def _prefers_krylov(n, k, steps):
    """Whether ``steps`` Krylov steps and the residual on k right-hand sides cost less than the LU."""
    base, per_sample = KRYLOV_STEP_S
    krylov = (steps + 1) * (base + per_sample * k * n)
    cubic, quadratic, constant = LU_S
    return krylov < cubic * n**3 + quadratic * n**2 + constant


_TINY = np.finfo(float).tiny


def _cgls(om, b, steps):
    """``steps`` steps of CGLS (Hestenes & Stiefel 1952) on K y = b.

    Each row of b is one right-hand side.  The rows lie in (theta0^2)^perp,
    so every residual does and every iterate lies in theta0^perp.  A row
    that converges exactly divides 0 by 0; the ``_TINY`` in each denominator
    makes that step 0 instead.
    """
    y = np.zeros_like(b)
    r = b.copy()
    s = om.apply_transpose(r)
    p = s.copy()
    gamma = np.einsum("...i,...i->...", s, s)
    for _ in range(steps):
        q = om.apply(p)
        alpha = (gamma / (np.einsum("...i,...i->...", q, q) + _TINY))[..., None]
        y += alpha * p
        r -= alpha * q
        s = om.apply_transpose(r)
        gamma, previous = np.einsum("...i,...i->...", s, s), gamma
        p *= (gamma / (previous + _TINY))[..., None]
        p += s
    return y


def _antisymmetric_with_bound(lt, x, residual, floor):
    """(a - a^T, bound) for a = lt x^T: the brackets and their certified error.

    |x_j - x*_j| <= |r_j| / sigma_min(K) <= |r_j| / floor, so
    |Omega_ij - Omega*_ij| <= (|lt_i| |r_j| + |lt_j| |r_i|) / floor, up to
    the roundoff of the residual and of the products.  The diagonal is 0
    exactly, and so is its bound.
    """
    a = lt @ x.T
    c = np.multiply.outer(np.linalg.norm(lt, axis=-1), np.linalg.norm(residual, axis=-1))
    bound = (c + c.T) / floor
    np.fill_diagonal(bound, 0.0)
    return a - a.T, bound


def _krylov_brackets(om, fweights, tweights, steps):
    """Omega(H_i, H_j) and its certified bound by ``steps`` CGLS steps, all on samples.

    In samples the system -K xt = lf is P_f (theta0 y) = -P_f fweight for y
    in theta0^perp, and Omega(H_i, H_j) = <P_t tweight_i y_j> - (i <-> j),
    with <.> the mean; the residual is recomputed as -P_f fweight - K y after
    the last step.
    """
    b = -_deflate(np.array(fweights, dtype=float), om._f_unit)
    lt = _deflate(np.array(tweights, dtype=float), om._t_unit) / om.n
    y = _cgls(om, b, steps)
    return _antisymmetric_with_bound(lt, y, b - om.apply(y), om.sigma_lower_bound)


def _lu_brackets(om, fweights, tweights):
    """Omega(H_i, H_j) and its certified bound by one LU solve of ``k_block``, in coordinates."""
    lf, lt = om.coordinates(fweights, tweights)
    xt = -np.linalg.solve(om.k_block, lf.T)
    residual = -lf - (om.k_block @ xt).T
    return _antisymmetric_with_bound(lt, xt.T, residual, om.sigma_lower_bound)


def dense_brackets(om, covectors):
    """Omega(H_i, H_j) of the dense duals H_i of k Covectors, with a certified bound on each entry.

    The dual obeys Omega(H_i, .) = ell_i, so Omega(H_i, H_j) = ell_i(H_j) =
    lf_i . xf_j + lt_i . xt_j in basis coordinates; with -K xt = lf and
    K^T xf = lt the first term is -lt_j . xt_i, so

        Omega(H_i, H_j) = lt_i . xt_j - lt_j . xt_i,    xt = -K^{-1} lf,

    and only K is solved, for all k right-hand sides at once, with no dual
    lifted to samples.  Returns (brackets, bounds), two k x k arrays: the
    brackets a - a^T, a = lt xt, exactly antisymmetric, and for each entry
    the bound (|lt_i| |r_j| + |lt_j| |r_i|) / min|theta0| on its distance to
    the exact value, from the true residual r = -lf - K xt (item 13's
    enclosure gives sigma_min(K) >= min|theta0|).  Two routes solve K:

    - Krylov: ``_krylov_steps(om)`` steps of CGLS with ``apply`` and
      ``apply_transpose``, O(k N) each.  It only multiplies by theta0, never
      divides, so it stays independent of ``sharp``.  Its values are returned
      only when every bound is at most KRYLOV_CERTIFIED times the largest
      |bracket|; otherwise the LU below runs and its values are returned.
    - LU: one ``np.linalg.solve`` of ``k_block``, O(N^3), after assembling it.

    The rule takes the Krylov route when (steps + 1) times the measured cost
    of a step, KRYLOV_STEP_S = (base, per sample and right-hand side), is
    below the measured LU cost LU_S = (N^3, N^2, constant coefficients) at
    that N.  It reads only N, k and the enclosure, so the same input always
    takes the same route.  Uniform theta0 takes 1 step, and Krylov at every
    N; cosine(a, h) weights, kappa = (1 + a)/(1 - a), take
    ceil(ln(2e16) / ln(1/a)) steps: 17 at a = 0.1 and 32 at a = 0.3 (Krylov
    from N = 256), 55 at a = 0.5 (from N = 512), 169 at a = 0.8 (from
    N = 512 for k = 2, N = 1024 for k = 7).  At N = 512 the 7 fields of
    bracket-check cost about 1.5 ms by Krylov at a = 0.3 against 6.5 ms by
    the LU.  An empty list gives two 0 x 0 arrays even on a singular
    pairing; otherwise raises SingularPairing when min|theta0| is below
    SINGULAR_FLOOR.
    """
    if not covectors:
        return np.zeros((0, 0)), np.zeros((0, 0))
    _require_pointwise_dual(om.sigma_lower_bound)
    fweights = np.stack([ell.fweight for ell in covectors])
    tweights = np.stack([ell.tweight for ell in covectors])
    steps = _krylov_steps(om)
    if _prefers_krylov(om.n, len(covectors), steps):
        brackets, bounds = _krylov_brackets(om, fweights, tweights, steps)
        if np.all(bounds <= KRYLOV_CERTIFIED * np.max(np.abs(brackets))):
            return brackets, bounds
    return _lu_brackets(om, fweights, tweights)


def _normal_displacement(p, fvec):
    """Geometric displacement field of the function part of a tangent vector.

    The unique metric-normal field nu along the loop with
    omega(gamma', nu) = d(f1)/ds; explicitly nu = f1' * J gamma' / (w |gamma'|^2).
    The orientation is fixed so that first-order variations of induced
    integrals match their algebraic differentials.
    """
    pts = p.loop.points
    tan = p.loop.tangent()
    speed2 = _speed2(tan)
    w = p.surface.density(pts[:, 0], pts[:, 1])
    coeff = loop_derivative(fvec) / (np.asarray(w) * speed2)
    normal = np.stack([-tan[:, 1], tan[:, 0]], axis=1)
    return coeff[:, None] * normal


def _retract(surface, points, theta):
    """A raw state's moduli point: (loop, theta / sqrt(volume), volume, level defect, passes).

    The loop is projected onto its integer level, taking ``passes`` action
    integrals after the first; the raw volume <theta^2> is taken once, and
    one that is not finite and positive raises GeometryError.
    """
    loop = Loop(points)
    volume = integrate_density(theta**2)
    if not np.isfinite(volume):
        raise GeometryError("diverged, state is not finite")
    if volume <= 0:
        raise GeometryError("cannot normalize a half-density with zero volume")
    defect, loop, passes = _defect_and_projection(loop, surface)
    return loop, HalfDensity(theta / np.sqrt(volume)), volume, defect, passes


def realize_tangent(p, v, t, return_report=False):
    """Displace a moduli point along a tangent vector by parameter t.

    Loop points move by t * nu with nu the normal field of v.fvec; the weight
    moves by t * v.tvec.  The result is renormalized to unit volume and
    re-projected onto its integer level (``_retract``); both corrections are
    second order in t and are returned when return_report is set.  The move
    runs under ``np.errstate(all="ignore")``, so a state that overflows
    raises GeometryError and no raw warning.
    """
    with np.errstate(all="ignore"):
        moved = p.loop.points + t * _normal_displacement(p, v.fvec), p.theta.values + t * v.tvec
        loop, theta, volume, level_defect, _ = _retract(p.surface, *moved)
    out = ModuliPoint(p.surface, loop, theta, strict=p.strict)
    if return_report:
        return out, {"volume_defect": abs(volume - 1.0), "bs_defect": abs(level_defect)}
    return out


def dOmega_check(p, u, v, w, step=1e-3):
    """Finite-difference exterior derivative of omega on three tangent fields.

    The fields are constant (fvec, tvec) coefficients re-projected at each
    base point; displacement uses realize_tangent.  The result converges to
    zero (omega is closed) at first order in the step.
    """
    fields = [u, v, w]

    def at(q, vec):
        return project_tangent(vec.fvec, vec.tvec, q)

    def pairing(q, a, b):
        return omega(q, at(q, a), at(q, b))

    def move(q, vec, eps):
        return realize_tangent(q, at(q, vec), eps)

    def directional(a, b, c):
        qp = move(p, a, step)
        qm = move(p, a, -step)
        return (pairing(qp, b, c) - pairing(qm, b, c)) / (2 * step)

    def lie_bracket(a, b):
        b_p, b_m = at(move(p, a, step), b), at(move(p, a, -step), b)
        a_p, a_m = at(move(p, b, step), a), at(move(p, b, -step), a)
        d_ab = (b_p - b_m) * (1.0 / (2 * step))
        d_ba = (a_p - a_m) * (1.0 / (2 * step))
        diff = d_ab - d_ba
        return project_tangent(diff.fvec, diff.tvec, p)

    total = 0.0
    for i in range(3):
        a, b, c = fields[i], fields[(i + 1) % 3], fields[(i + 2) % 3]
        total += directional(a, b, c)
        total -= omega(p, lie_bracket(a, b), at(p, c))
    return total

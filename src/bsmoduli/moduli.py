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

from dataclasses import dataclass

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

    def __add__(self, other):
        return TangentVector(self.fvec + other.fvec, self.tvec + other.tvec)

    def __sub__(self, other):
        return TangentVector(self.fvec - other.fvec, self.tvec - other.tvec)

    def __mul__(self, c):
        return TangentVector(self.fvec * c, self.tvec * c)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

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

    def __mul__(self, c):
        return Covector(np.asarray(self.fweight) * c, np.asarray(self.tweight) * c)

    __rmul__ = __mul__


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


def _fourier_weights(n):
    """Scale from the float view of an orthonormal rfft to the real Fourier coefficients.

    The view of rfft(x, norm="ortho") is Re z_0, Im z_0 = 0, Re z_1, Im z_1,
    ..., Re z_{n/2}, Im z_{n/2} = 0; the coefficients are Re z_0, then
    sqrt(2) Re z_k and -sqrt(2) Im z_k for k = 1 .. n/2 - 1, then Re z_{n/2}.
    """
    w = np.full(n, np.sqrt(2.0))
    w[2::2] = -np.sqrt(2.0)
    w[0] = w[-1] = 1.0
    return w


def _fourier_analysis(x):
    """Coefficients of samples (last axis, n even) in the Euclid-orthonormal real Fourier basis.

    The basis is the constant 1/sqrt(n), the pairs sqrt(2/n) cos(2 pi k s),
    sqrt(2/n) sin(2 pi k s) for k = 1 .. n/2 - 1, and the alternating mode
    (-1)^j / sqrt(n), in that order.  One ``rfft`` gives them all, scaled in
    place in its float view, with Re z_0 moved into the empty slot of Im z_0.
    """
    z = np.ascontiguousarray(np.fft.rfft(x, axis=-1, norm="ortho")).view(float)
    z[..., 1] = z[..., 0]
    out = z[..., 1:-1]
    out *= _fourier_weights(x.shape[-1])
    return out


def _fourier_synthesis(c):
    """Samples of Fourier coefficients (last axis): the inverse of ``_fourier_analysis``."""
    n = c.shape[-1]
    z = np.empty(c.shape[:-1] + (n + 2,))
    np.divide(c, _fourier_weights(n), out=z[..., 1:-1])
    z[..., 0] = z[..., 1]
    z[..., 1] = z[..., -1] = 0.0
    return np.fft.irfft(z.view(complex), n, axis=-1, norm="ortho")


def _complement_reflector(direction):
    """Householder reflector (v, beta), H = I - beta v v^T, of one direction's Fourier coefficients.

    H maps the direction's unit coefficient vector to a multiple of e_0, so
    the columns 1 .. n-1 of F H (F the Fourier basis) are an orthonormal
    basis of the direction's orthogonal complement, built from Fourier modes
    (natural for periodic data) and orthonormal to roundoff.
    """
    v = _fourier_analysis(direction / np.linalg.norm(direction))
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
    sqrt(N) F H_f E and sqrt(N) F H_t E, with F the orthonormal real Fourier
    basis (``_fourier_analysis``), H_f and H_t the Householder reflectors of
    theta0^2 and theta0 (``_complement_reflector``), and E the columns
    1 .. N-1 of the identity.  The columns are orthonormal in the mean inner
    product <a, b> = mean(a*b).  The pairing is exactly block-off-diagonal,

        Omega = [[0, K], [-K^T, 0]],    K = E^T H_f F^T diag(theta0) F H_t E,

    so the assembled matrix is antisymmetric by construction and its singular
    values are those of K, each doubled.  No basis is held: K is assembled by
    synthesizing the rows of (H_t E)^T with one ``irfft``, multiplying them by
    theta0, analysing them with one ``rfft``, reflecting them by H_f as a
    rank-one update and dropping the first column, in O(N^2 log N); the
    basis coordinates go through the same analysis and synthesis.  The one
    O(N^3) work is an LU solve of K: ``dense_brackets`` needs only that one,
    since Omega(H_i, H_j) = ell_i(H_j) = lt_i . xt_j - lt_j . xt_i with
    xt = -K^{-1} lf; the reference ``dense_sharp`` also solves K^T for xf.

    In these bases K is multiplication by theta0, taken from theta0^perp and
    projected onto (theta0^2)^perp.  A compression raises no singular value,
    and K's inverse is ``sharp``'s formula, t = f/theta0 - (<f>/<theta0^2>)
    theta0 with |t| <= |f|/min|theta0|, so

        min|theta0| <= sigma_min(K) <= sigma_max(K) <= max|theta0|.

    The two ends are kept as ``sigma_lower_bound`` and ``sigma_upper_bound``;
    no SVD is taken unless ``singular_values`` is called.
    """

    def __init__(self, p):
        n = p.n
        th = p.theta.values
        self._f_reflector = _complement_reflector(th**2)
        self._t_reflector = _complement_reflector(th)
        v, beta = self._t_reflector
        rows = np.multiply.outer(-beta * v[1:], v)
        rows[:, 1:][np.diag_indices(n - 1)] += 1.0
        t_rows = _fourier_synthesis(rows)
        t_rows *= th
        self.k_block = _reflect(_fourier_analysis(t_rows), self._f_reflector)[:, 1:].T
        magnitude = np.abs(th)
        self.sigma_lower_bound = float(magnitude.min())
        self.sigma_upper_bound = float(magnitude.max())
        self.n = n

    @property
    def matrix(self):
        """The assembled (2N-2) x (2N-2) antisymmetric matrix."""
        m = self.k_block.shape[0]
        out = np.zeros((2 * m, 2 * m))
        out[:m, m:] = self.k_block
        out[m:, :m] = -self.k_block.T
        return out

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
            _reflect(_fourier_analysis(x), reflector)[..., 1:] / np.sqrt(self.n)
            for x, reflector in ((fvec, self._f_reflector), (tvec, self._t_reflector))
        )

    def from_coordinates(self, xf, xt):
        """Samples (fvec, tvec) of the basis combinations with coefficients xf, xt (last axis)."""
        return tuple(
            _fourier_synthesis(_reflect(np.insert(x, 0, 0.0, axis=-1), reflector)) * np.sqrt(self.n)
            for x, reflector in ((xf, self._f_reflector), (xt, self._t_reflector))
        )


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
    dense solve of the same system is ``dense_sharp``, the independent
    oracle.  Raises SingularPairing when theta0 comes within SINGULAR_FLOOR
    of zero on the grid.
    """
    th = p.theta.values
    _require_pointwise_dual(th)
    return project_tangent(ell.tweight / th, -ell.fweight / th, p)


def dense_sharp(om, covectors):
    """The duals of a list of Covectors by the dense pairing system, one multi-RHS solve per block.

    An empty list has no duals, so it returns [] even on a singular pairing;
    otherwise raises SingularPairing by ``sharp``'s guard, fed the pairing's
    certified floor ``om.sigma_lower_bound`` = min|theta0|.  Above that guard
    K's condition number is at most max|theta0| / min|theta0|.
    """
    if not covectors:
        return []
    _require_pointwise_dual(om.sigma_lower_bound)
    lf, lt = om.coordinates(np.stack([ell.fweight for ell in covectors]),
                            np.stack([ell.tweight for ell in covectors]))
    # Omega^T x = ell in blocks: -K xt = lf, K^T xf = lt.
    xt = -np.linalg.solve(om.k_block, lf.T)
    xf = np.linalg.solve(om.k_block.T, lt.T)
    return [TangentVector(f, t) for f, t in zip(*om.from_coordinates(xf.T, xt.T))]


def dense_brackets(om, covectors):
    """The k x k matrix Omega(H_i, H_j) of the dense duals H_i of k Covectors, by one LU solve.

    The dual obeys Omega(H_i, .) = ell_i, so Omega(H_i, H_j) = ell_i(H_j) =
    lf_i . xf_j + lt_i . xt_j in basis coordinates; with -K xt = lf and
    K^T xf = lt the first term is -lt_j . xt_i, so

        Omega(H_i, H_j) = lt_i . xt_j - lt_j . xt_i,    xt = -K^{-1} lf,

    and only K is solved, for all k right-hand sides at once, with no dual
    lifted to samples.  The result is a - a^T, a = lt xt, so it is exactly
    antisymmetric.  It agrees with ``omega`` on ``dense_sharp``'s duals to
    solve roundoff.  An empty list gives a 0 x 0 matrix even on a singular
    pairing; otherwise raises SingularPairing by ``dense_sharp``'s guard.
    """
    if not covectors:
        return np.zeros((0, 0))
    _require_pointwise_dual(om.sigma_lower_bound)
    lf, lt = om.coordinates(np.stack([ell.fweight for ell in covectors]),
                            np.stack([ell.tweight for ell in covectors]))
    a = lt @ -np.linalg.solve(om.k_block, lf.T)
    return a - a.T


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

"""Moduli space of half-weighted integer-level loops, at desk scale.

A point is a pair (loop, theta) with the loop on an integer holonomy level
and theta a half-density of unit volume.  Tangent vectors are pairs
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
from functools import lru_cache

import numpy as np

from .errors import DegenerateLoop, SingularPairing
from .loops import (
    BS_TOL,
    HalfDensity,
    Loop,
    _defect_and_projection,
    bs_defect,
    integrate_density,
    loop_derivative,
)

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


@lru_cache(maxsize=8)
def _fourier_basis(n):
    """Euclid-orthonormal real Fourier basis of R^n (n even), as columns."""
    s = np.arange(n) / float(n)
    cols = [np.full(n, 1.0 / np.sqrt(n))]
    for k in range(1, n // 2):
        cols.append(np.sqrt(2.0 / n) * np.cos(2 * np.pi * k * s))
        cols.append(np.sqrt(2.0 / n) * np.sin(2 * np.pi * k * s))
    alternating = np.ones(n)
    alternating[1::2] = -1.0
    cols.append(alternating / np.sqrt(n))
    out = np.stack(cols, axis=1)
    out.setflags(write=False)
    return out


def _complement_basis(direction, fourier):
    """Orthonormal basis of the orthogonal complement of one direction.

    Built from Fourier modes (natural for periodic data) by one Householder
    reflection in coefficient space, so orthonormality is exact to roundoff.
    Returned columns have Euclidean norm sqrt(n), i.e. they are orthonormal
    in the <a, b> = mean(a*b) inner product used everywhere else.
    """
    n = direction.shape[0]
    unit = direction / np.linalg.norm(direction)
    coeff = fourier.T @ unit
    v = coeff.copy()
    v[0] += np.copysign(1.0, coeff[0])
    beta = 2.0 / (v @ v)
    w = -beta * np.outer(v, v[1:])
    w[1:, :] += np.eye(n - 1)
    return (fourier @ w) * np.sqrt(n)


class OmegaMatrix:
    """Pairing matrix on an orthonormal basis of the constrained tangent space.

    The basis splits into a function block (constraint on f1) and a density
    block (constraint on theta1), each of dimension N-1.  The pairing is
    exactly block-off-diagonal,

        Omega = [[0, K], [-K^T, 0]],    K_ij = <bf_i * bt_j * theta0>,

    so the assembled matrix is antisymmetric by construction and its singular
    values are those of K, each doubled.
    """

    def __init__(self, p):
        n = p.n
        th = p.theta.values
        fourier = _fourier_basis(n)
        self.f_basis = _complement_basis(th**2, fourier)
        self.t_basis = _complement_basis(th, fourier)
        self.k_block = (self.f_basis.T * th) @ self.t_basis / n
        s = self._k_singular = np.linalg.svd(self.k_block, compute_uv=False)
        self.min_singular = float(s[-1]) if s.size else 0.0
        self.max_singular = float(s[0]) if s.size else 0.0
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
        """Singular values of the assembled matrix: those of K, each twice."""
        return np.concatenate([self._k_singular, self._k_singular])

    def coordinates(self, v):
        """Basis coefficients (xf, xt) of a constrained tangent vector."""
        return self.f_basis.T @ v.fvec / self.n, self.t_basis.T @ v.tvec / self.n

    def from_coordinates(self, xf, xt):
        return TangentVector(self.f_basis @ xf, self.t_basis @ xt)

    def covector_coefficients(self, ell):
        """Values of a Covector on the basis columns."""
        return self.f_basis.T @ ell.fweight / self.n, self.t_basis.T @ ell.tweight / self.n


def omega_matrix(p):
    """Build the pairing matrix data at a point (reusable across solves)."""
    return OmegaMatrix(p)


def _require_pointwise_dual(th):
    """Raise SingularPairing when theta0 comes within SINGULAR_FLOOR of zero on the grid."""
    floor = float(np.abs(th).min())
    if floor < SINGULAR_FLOOR:
        raise SingularPairing(f"pairing min |theta0| {floor:.3e} below {SINGULAR_FLOOR:.1e}")


def sharp(p, ell, om=None):
    """The constrained tangent v with omega(p, v, .) = ell(.) for a Covector ell.

    Without ``om``, ell is dualized pointwise in O(N): since
    flat(v) = (-t1 theta0, f1 theta0) and covector weights matter only up to
    multiples of theta0^2 (function part) and theta0 (density part), v is the
    constrained projection of (tweight/theta0, -fweight/theta0).

    With ``om`` given, the skew block system of the pairing matrix is solved
    densely; that route is the independent oracle.  Raises SingularPairing
    when the pairing is numerically degenerate (theta0 with near-zeros on the
    grid).
    """
    if om is None:
        th = p.theta.values
        _require_pointwise_dual(th)
        return project_tangent(ell.tweight / th, -ell.fweight / th, p)
    lf, lt = om.covector_coefficients(ell)
    xf, xt = dense_sharp(om, lf[:, None], lt[:, None])
    return om.from_coordinates(xf[:, 0], xt[:, 0])


def dense_sharp(om, lf, lt):
    """Dense duals of k covectors at once, by one multi-RHS solve per block.

    ``lf`` and ``lt`` are (N-1, k) stacks of covector values on the basis
    columns (``OmegaMatrix.covector_coefficients``); returns the (N-1, k)
    stacks (xf, xt) of basis coordinates of the duals.  Raises
    SingularPairing when the pairing matrix is numerically degenerate.
    """
    if om.min_singular < SINGULAR_FLOOR:
        raise SingularPairing(
            f"pairing min singular value {om.min_singular:.3e} below {SINGULAR_FLOOR:.1e}"
        )
    # Omega^T x = ell in blocks: -K xt = lf, K^T xf = lt.
    xt = -np.linalg.solve(om.k_block, lf)
    xf = np.linalg.solve(om.k_block.T, lt)
    return xf, xt


def _normal_displacement(p, fvec):
    """Geometric displacement field of the function part of a tangent vector.

    The unique metric-normal field nu along the loop with
    omega(gamma', nu) = d(f1)/ds; explicitly nu = f1' * J gamma' / (w |gamma'|^2).
    The orientation is fixed so that first-order variations of induced
    integrals match their algebraic differentials.
    """
    pts = p.loop.points
    tan = p.loop.tangent()
    speed2 = np.sum(tan * tan, axis=1)
    if np.min(speed2) < 1e-28:
        raise DegenerateLoop("collapsed tangent while realizing a tangent vector")
    w = p.surface.density(pts[:, 0], pts[:, 1])
    coeff = loop_derivative(fvec) / (np.asarray(w) * speed2)
    normal = np.stack([-tan[:, 1], tan[:, 0]], axis=1)
    return coeff[:, None] * normal


def realize_tangent(p, v, t, return_report=False):
    """Displace a moduli point along a tangent vector by parameter t.

    Loop points move by t * nu with nu the normal field of v.fvec; the weight
    moves by t * v.tvec.  The result is renormalized to unit volume and
    re-projected onto its integer level; both corrections are second order in
    t and are returned when return_report is set.
    """
    new_pts = p.loop.points + t * _normal_displacement(p, v.fvec)
    moved = Loop(new_pts, winding=p.loop.winding)
    raw_theta = HalfDensity(p.theta.values + t * v.tvec)
    volume_defect = abs(raw_theta.volume() - 1.0)
    level_defect, projected = _defect_and_projection(moved, p.surface)
    out = ModuliPoint(p.surface, projected, raw_theta.normalized(), strict=p.strict)
    if return_report:
        return out, {"volume_defect": volume_defect, "bs_defect": abs(level_defect)}
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

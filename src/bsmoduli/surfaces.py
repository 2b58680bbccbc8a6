"""2D symplectic surfaces in global coordinates and their Poisson calculus.

The surface kinds are the plane R^2 and the flat torus [0,Lx) x [0,Ly).
The symplectic form is omega = w(x,y) dx^dy with w > 0, and the chart
rotation J(u) = (-u_y, u_x) supplies the compatible metric
g(u, v) = omega(u, Jv) = w * (u . v).

Sign convention, fixed once for the whole package: the Hamiltonian field
of f is the unique X_f with i_{X_f} omega = df, i.e.

    X_f = (f_y / w, -f_x / w),      {f, g} = df(X_g) = (f_x g_y - f_y g_x) / w.

Both are built here, as values and as trees, from the gradient trees
f._dx and f._dy that a ``ScalarField`` holds.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import DegenerateLoop, ExpressionError

TANGENT_FLOOR = 1e-14
# Midpoint-rule grid per axis for the torus's mean omega density.
PREQUANTIZATION_GRID = 256


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field on the chart: an expression AST with exact symbolic gradients.

    Values and both partial derivatives broadcast over numpy arrays; the two
    gradient trees are differentiated and simplified once, at construction.
    The value kernel and the one kernel of both partials are compiled on
    first use and kept by the field; a field pickles as its tree.
    """

    ast: tuple

    def __post_init__(self):
        object.__setattr__(self, "_dx", ex.simplify(ex.differentiate(self.ast, "x")))
        object.__setattr__(self, "_dy", ex.simplify(ex.differentiate(self.ast, "y")))

    def __reduce__(self):
        return ScalarField, (self.ast,)

    @functools.cached_property
    def _value_kernel(self):
        return ex._compile((self.ast,), False)

    @functools.cached_property
    def _grad_kernel(self):
        return ex._compile((self._dx, self._dy), False)

    @staticmethod
    def _broadcast(value, x, y):
        """A fresh copy of value, broadcast against x and y; np.float64 for a 0-d result."""
        shape = np.shape(value)
        if shape == np.shape(x) and shape == np.shape(y):
            return np.multiply(value, 1.0)
        return np.broadcast_arrays(value, x, y)[0] * 1.0

    def __call__(self, x, y):
        return self._broadcast(self._value_kernel(x, y)[0], x, y)

    def grad(self, x, y):
        fx, fy = self._grad_kernel(x, y)
        return self._broadcast(fx, x, y), self._broadcast(fy, x, y)

    @classmethod
    def from_expression(cls, text):
        return cls(ex.simplify(ex.parse(text)))

    @classmethod
    def constant(cls, value):
        return cls(("const", float(value)))

    def _combine(self, other, tag):
        if not isinstance(other, ScalarField):
            other = ScalarField.constant(other)
        return ScalarField(ex.simplify((tag, self.ast, other.ast)))

    def __add__(self, other):
        return self._combine(other, "add")

    def __mul__(self, other):
        return self._combine(other, "mul")

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k):
        if int(k) != k:
            raise ExpressionError("field powers must have integer exponents")
        if k < 0:
            raise ExpressionError("negative field powers are not supported")
        out = ScalarField.constant(1.0)
        for _ in range(int(k)):
            out = out * self
        return out


def field_is_periodic(f, surface):
    """Whether f is compatible with the surface's periodic identification."""
    if surface.kind != "torus":
        return True
    frequencies = ex.trig_frequencies(f.ast)
    if frequencies is None:
        return False
    lx, ly = surface.periods
    two_pi = 2.0 * np.pi
    for a, b in frequencies:
        ma = a * lx / two_pi
        mb = b * ly / two_pi
        if abs(ma - round(ma)) > 1e-9 or abs(mb - round(mb)) > 1e-9:
            return False
    return True


class SymplecticSurface:
    """Plane or flat torus carrying omega = w dx^dy and an optional potential.

    The potential is a pair of coefficient callables (a_x, a_y) with
    d(alpha) = omega on the chart; for closed contractible loops the number
    exp(2*pi*i * loop integral of alpha) is the holonomy of the level-1
    connection with curvature 2*pi*i*omega.  A default potential is attached
    only for the unit density (plane: (x dy - y dx)/2, torus: x dy on a lift).
    """

    def __init__(self, kind, omega_density=None, potential=None, periods=None):
        if kind not in ("plane", "torus"):
            raise ValueError(f"unknown surface kind {kind!r}")
        self.kind = kind
        self.omega_density = omega_density
        if kind == "torus":
            if periods is None:
                raise ValueError("torus surface requires periods (Lx, Ly)")
            lx, ly = float(periods[0]), float(periods[1])
            if lx <= 0 or ly <= 0:
                raise ValueError("periods must be positive")
            self.periods = (lx, ly)
        else:
            if periods is not None:
                raise ValueError("plane surface takes no periods")
            self.periods = None
        if potential is None and omega_density is None:
            if kind == "plane":
                potential = (lambda x, y: -0.5 * y, lambda x, y: 0.5 * x)
            else:
                potential = (lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                             lambda x, y: np.asarray(x, dtype=float))
        self.potential = potential
        self._prequantization_number = None
        if omega_density is not None and not field_is_periodic(omega_density, self):
            raise ValueError("omega density must be periodic on a torus")

    @classmethod
    def plane(cls, omega_density=None, potential=None):
        return cls("plane", omega_density=omega_density, potential=potential)

    @classmethod
    def torus(cls, lx, ly, omega_density=None, potential=None):
        return cls("torus", omega_density=omega_density, potential=potential, periods=(lx, ly))

    def density(self, x, y):
        if self.omega_density is None:
            return np.ones(np.broadcast(x, y).shape) if (np.ndim(x) or np.ndim(y)) else 1.0
        w = np.asarray(self.omega_density(x, y), dtype=float)
        _require_positive_density(w)
        return w

    def potential_values(self, x, y):
        if self.potential is None:
            raise ValueError(
                "surface has no symplectic potential; supply one matching the omega density"
            )
        ax, ay = self.potential
        return np.asarray(ax(x, y), dtype=float), np.asarray(ay(x, y), dtype=float)

    def wrap(self, points):
        """Map chart points into the fundamental domain (torus only)."""
        if self.kind != "torus":
            return np.asarray(points, dtype=float)
        pts = np.array(points, dtype=float)
        pts[..., 0] %= self.periods[0]
        pts[..., 1] %= self.periods[1]
        return pts

    def prequantization_number(self):
        """Lx * Ly * mean(w); must be a positive integer for holonomy levels.

        The surface never changes, so the grid mean is computed on first use only.
        """
        if self.kind != "torus":
            raise ValueError("prequantization number is defined for the torus")
        if self._prequantization_number is None:
            lx, ly = self.periods
            n = PREQUANTIZATION_GRID
            xs = (np.arange(n) + 0.5) * lx / n
            ys = (np.arange(n) + 0.5) * ly / n
            xg, yg = np.meshgrid(xs, ys, indexing="ij")
            self._prequantization_number = lx * ly * float(np.mean(self.density(xg, yg)))
        return self._prequantization_number


def _require_positive_density(w):
    if np.any(w <= 0.0):
        raise ValueError("omega density must be positive at every sampled point")


def _field_and_density(f, surface, p):
    """X_f at p and the density w it was divided by; w is 1.0 on a unit-density surface.

    One call of f's gradient kernel fills one output array; dividing by a
    unit density would be the identity, so it is skipped.
    """
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    out = np.empty(p.shape)
    fx, fy = f._grad_kernel(x, y)
    out[..., 1] = fx
    np.negative(out[..., 1], out=out[..., 1])
    out[..., 0] = fy
    if surface.omega_density is None:
        return out, 1.0
    w = surface.density(x, y)
    out /= w[..., None]
    return out, w


def _field_jacobian(f, surface):
    """The trees of DX_f = [[d/dx, d/dy] of f_y / w, [d/dx, d/dy] of -f_x / w], row by row.

    Differentiated and simplified from f's gradient trees; on a weighted
    surface the quotient rule carries w's derivatives exactly.
    """
    parts = (f._dy, ("mul", ("const", -1.0), f._dx))
    if surface.omega_density is not None:
        parts = tuple(("div", part, surface.omega_density.ast) for part in parts)
    return tuple(ex.simplify(ex.differentiate(part, v)) for part in parts for v in ("x", "y"))


def hamiltonian_vector_field(f, surface, p):
    """X_f = (f_y / w, -f_x / w) at p: a point (2,) or any (..., 2) stack of points."""
    return _field_and_density(f, surface, p)[0]


def poisson_bracket(f, g, surface, p):
    """{f, g}(p) = df(X_g)(p) = (f_x g_y - f_y g_x) / w."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    fx, fy = f.grad(x, y)
    gx, gy = g.grad(x, y)
    return (np.asarray(fx) * gy - np.asarray(fy) * gx) / surface.density(x, y)


def poisson_bracket_field(f, g, surface):
    """The bracket {f, g} = (f_x g_y - f_y g_x) / w as a ScalarField, from the gradient trees."""
    bracket = ("sub", ("mul", f._dx, g._dy), ("mul", f._dy, g._dx))
    if surface.omega_density is not None:
        bracket = ("div", bracket, surface.omega_density.ast)
    return ScalarField(ex.simplify(bracket))


def tangential_normal_split(v, t):
    """Split v into its metric projection onto span(t) and the complement.

    The metric is conformal to the Euclidean one, so the projection weight
    cancels.  Broadcasts over leading axes; raises DegenerateLoop when a
    tangent collapses.
    """
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    v_hor = tangential_coefficient(v, t)[..., None] * t
    return v_hor, v - v_hor


def tangential_coefficient(v, t):
    """Coefficient u with v_hor = u * t; raises DegenerateLoop when a tangent collapses."""
    return _coefficient_and_speed2(v, t)[0]


def _speed2(t):
    """|t|^2 along the last axis of a float array; raises DegenerateLoop below TANGENT_FLOOR^2."""
    sq = t * t
    tt = sq[..., 0] + sq[..., 1]
    if tt.min() < TANGENT_FLOOR**2:
        raise DegenerateLoop("collapsed loop segment: tangent below 1e-14")
    return tt


def _coefficient_and_speed2(v, t):
    """(tangential_coefficient(v, t), |t|^2), the second for callers that divide by it too.

    Both dot products are np.sum over the last axis written out.  That sum
    starts from 0.0, so a sum of two -0.0 products is +0.0: the + 0.0 keeps
    that (a sum of squares is never -0.0).
    """
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    tt = _speed2(t)
    vt = v * t
    dot = vt[..., 0] + vt[..., 1]
    dot += 0.0
    return dot / tt, tt

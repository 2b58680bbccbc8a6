"""Discretized closed loops and their spectral calculus.

A loop is stored as N uniform samples gamma(s_i), s_i = i/N, of a smooth
closed curve parametrized by the unit circle R/Z.  All derivatives are
trigonometric-interpolation (spectral) derivatives, all integrals use the
rectangle rule on the uniform grid, which is spectrally accurate for smooth
periodic integrands.  A loop is its points: on the torus they are a
continuous lift, and ``winding_numbers`` reads its winding from the lift.

The level-set condition on a loop is phrased through the holonomy integral
A(gamma) = loop integral of the potential alpha: the loop sits on an integer
level iff A is an integer (on the plane with unit density, A is the signed
enclosed area).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AreaTooSmall, DegenerateLoop, GeometryError, NonContractibleLoop, PrequantizationError

MIN_SAMPLES = 16
GAP_FLOOR = 1e-12
# Level defect |A - round(A)| within which a loop counts as Bohr-Sommerfeld.
BS_TOL = 1e-9
# project_to_bs: action residual at which rescaling stops, and the pass budget.
PROJECTION_TOL = 1e-12
PROJECTION_MAX_ITER = 60


def grid(n):
    """Uniform parameters s_i = i/n on the unit parameter circle."""
    return np.arange(n) / float(n)


@lru_cache(maxsize=16)
def _derivative_multiplier(n, ndim):
    """Spectral multipliers 2 pi i k of the rfft modes of n samples, Nyquist zeroed.

    Shaped to broadcast along axis 0 of an ndim-dimensional input, and read-only.
    """
    mult = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    mult[-1] = 0.0
    mult = mult.reshape((-1,) + (1,) * (ndim - 1))
    mult.setflags(write=False)
    return mult


def loop_derivative(u):
    """Spectral derivative of a periodic sequence sampled at s_i = i/N.

    Exact (to roundoff) for trigonometric polynomials of degree < N/2; the
    Nyquist mode is differentiated to zero, the standard convention for even
    N.  Accepts (N,) or (N, k) arrays; differentiates along axis 0.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if n % 2 != 0:
        raise ValueError("loop_derivative requires an even number of samples")
    spec = np.fft.rfft(u, axis=0)
    spec *= _derivative_multiplier(n, u.ndim)
    return np.fft.irfft(spec, n=n, axis=0)


def integrate_density(d):
    """Rectangle rule on the uniform periodic grid: mean of the samples.

    The sum and the division np.mean makes, without its wrapper.
    """
    d = np.asarray(d, dtype=float)
    return float(d.sum() / d.size)


def trig_resample(u, m):
    """Trigonometric interpolation of a periodic sequence onto m uniform samples."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if m == n:
        return u.copy()
    spec = np.fft.rfft(u, axis=0)
    half_m = m // 2 + 1
    shape = (half_m,) + u.shape[1:]
    out = np.zeros(shape, dtype=complex)
    keep = min(half_m, spec.shape[0])
    out[:keep] = spec[:keep]
    if m > n:
        out[n // 2] *= 0.5
    elif m % 2 == 0 and spec.shape[0] > half_m - 1:
        out[-1] = out[-1].real
    return np.fft.irfft(out, n=m, axis=0) * (m / n)


@dataclass(frozen=True)
class HalfDensity:
    """Half-density theta = h(s) sqrt(ds) on the parameter circle.

    The square h^2 ds is an honest density; its total mass is the volume.
    Values are real and may change sign.
    """

    values: np.ndarray

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("half-density values must be a 1D array")
        if not np.isfinite(values).all():
            raise ValueError("half-density values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return self.values.shape[0]

    def volume(self):
        return integrate_density(self.values**2)

    def normalized(self):
        vol = self.volume()
        if vol <= 0:
            raise ValueError("cannot normalize a half-density with zero volume")
        return HalfDensity(self.values / np.sqrt(vol))

    @classmethod
    def uniform(cls, n):
        return cls(np.ones(n))

    @classmethod
    def cosine_profile(cls, n, amplitude=0.3, harmonic=1):
        _require_integer_harmonic(harmonic)
        s = grid(n)
        return cls(1.0 + amplitude * np.cos(2 * np.pi * harmonic * s)).normalized()

    def to_dict(self):
        return {"theta": self.values.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(np.asarray(data["theta"], dtype=float))


def _require_integer_harmonic(k):
    """Raise ValueError unless k is an integer: cos(2 pi k s) is periodic in s only then."""
    if not float(k).is_integer():
        raise ValueError(f"harmonic must be an integer, got {k!r}")


def _require_gaps(pts):
    """Raise DegenerateLoop when two consecutive samples of a closed (N, 2) curve nearly coincide.

    The gaps wrap around, last sample to first.  np.hypot takes each gap
    without squaring it, so coordinates beyond ~1e154 do not overflow.
    """
    d = np.empty(pts.shape)
    np.subtract(pts[1:], pts[:-1], out=d[:-1])
    np.subtract(pts[0], pts[-1], out=d[-1])
    if np.hypot(d[:, 0], d[:, 1]).min() <= GAP_FLOOR:
        raise DegenerateLoop("consecutive loop samples closer than 1e-12")


class Loop:
    """Closed discretized curve; orientation follows the sample order."""

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("loop points must be an (N, 2) array")
        n = pts.shape[0]
        if n < MIN_SAMPLES or n % 2 != 0:
            raise ValueError(f"loop needs an even number of samples, at least {MIN_SAMPLES}")
        if not np.isfinite(pts).all():
            raise ValueError("loop points must be finite")
        _require_gaps(pts)
        self.points = pts
        self.points.setflags(write=False)

    @property
    def n(self):
        return self.points.shape[0]

    def tangent(self):
        """Spectral derivative d(gamma)/ds, an (N, 2) array."""
        return loop_derivative(self.points)

    def centroid(self):
        return self.points.mean(axis=0)

    def rolled(self, k):
        """Cyclic rotation of the sample indices (a parametrization gauge shift)."""
        return Loop(np.roll(self.points, -int(k), axis=0))

    @classmethod
    def circle(cls, radius, center=(0.0, 0.0), n=64, orientation=1):
        s = grid(n)
        t = 2 * np.pi * s * (1 if orientation >= 0 else -1)
        pts = np.stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)], axis=1)
        return cls(pts)

    @classmethod
    def ellipse(cls, a, b, center=(0.0, 0.0), n=64, angle=0.0):
        s = grid(n)
        t = 2 * np.pi * s
        xs = a * np.cos(t)
        ys = b * np.sin(t)
        ca, sa = np.cos(angle), np.sin(angle)
        pts = np.stack(
            [center[0] + ca * xs - sa * ys, center[1] + sa * xs + ca * ys], axis=1
        )
        return cls(pts)

    @classmethod
    def perturbed_circle(cls, radius, center=(0.0, 0.0), n=64, harmonics=()):
        """Radial perturbation r(s) = radius * (1 + sum c_k cos(2 pi k s) + s_k sin(...))."""
        s = grid(n)
        t = 2 * np.pi * s
        r = np.full(n, float(radius))
        for k, ck, sk in harmonics:
            _require_integer_harmonic(k)
            r += radius * (ck * np.cos(k * t) + sk * np.sin(k * t))
        pts = np.stack([center[0] + r * np.cos(t), center[1] + r * np.sin(t)], axis=1)
        return cls(pts)

    def to_dict(self):
        return {"points": self.points.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(np.asarray(data["points"], dtype=float))


def winding_numbers(loop, surface):
    """Winding numbers (m, n) of the loop around the torus periods.

    The wrapped consecutive differences are the actual steps taken on the
    torus; summed around the loop they telescope to (m*Lx, n*Ly).
    """
    if surface.kind != "torus":
        return (0, 0)
    lx, ly = surface.periods
    d = np.roll(loop.points, -1, axis=0) - loop.points
    d[:, 0] -= lx * np.round(d[:, 0] / lx)
    d[:, 1] -= ly * np.round(d[:, 1] / ly)
    total = d.sum(axis=0)
    return (int(round(total[0] / lx)), int(round(total[1] / ly)))


def action_integral(loop, surface):
    """Holonomy integral A(gamma) = loop integral of the potential alpha.

    Computed as the rectangle rule applied to alpha(gamma(s)) . gamma'(s)
    with the spectral tangent.  On the plane with unit density this is the
    signed enclosed area.  Torus loops must be contractible.
    """
    if surface.kind == "torus":
        wind = winding_numbers(loop, surface)
        if wind != (0, 0):
            raise NonContractibleLoop(
                f"holonomy undefined for winding {wind}: no canonical trivialization"
            )
    t = loop.tangent()
    ax, ay = surface.potential_values(loop.points[:, 0], loop.points[:, 1])
    return integrate_density(ax * t[:, 0] + ay * t[:, 1])


def _require_prequantizable(surface):
    if surface.kind != "torus":
        return
    number = surface.prequantization_number()
    if number <= 0 or abs(number - round(number)) > 1e-8:
        raise PrequantizationError(
            f"Lx*Ly*mean(w) = {number!r} is not a positive integer; integer levels undefined"
        )


def _level_offset(loop, surface):
    """(A, A - round(A)) for the loop's holonomy integral A, the offset in [-1/2, 1/2).

    An A that is not finite lies on no level and raises GeometryError before
    any rounding; the overflow of its integrand is silenced here.
    """
    _require_prequantizable(surface)
    with np.errstate(all="ignore"):
        a = action_integral(loop, surface)
    if not math.isfinite(a):
        raise GeometryError(f"action {a!r} is not finite, so the loop lies on no level")
    return a, a - np.floor(a + 0.5)


def bs_defect(loop, surface):
    """Distance of the holonomy integral from its nearest integer, in [-1/2, 1/2)."""
    return _level_offset(loop, surface)[1]


def is_bohr_sommerfeld(loop, surface):
    return abs(bs_defect(loop, surface)) <= BS_TOL


def project_to_bs(loop, surface):
    """Rescale the loop about its centroid onto the nearest integer level.

    The target integer k = round(A) is frozen from the initial action; each
    pass scales by sqrt(k / A_current), which converges in one step for
    constant density and quadratically otherwise.
    """
    return _defect_and_projection(loop, surface)[1]


def _defect_and_projection(loop, surface):
    """(bs_defect(loop), project_to_bs(loop), passes) from one shared first action integral.

    ``passes`` counts the action integrals taken after that first one, one
    per rescaling: 0 for a loop already on its level.
    """
    a, defect = _level_offset(loop, surface)
    if abs(a) <= 0.1:
        raise AreaTooSmall(f"|action| = {abs(a):.3g} <= 0.1, too close to the zero level")
    k = int(round(a))
    if k == 0:
        raise AreaTooSmall(f"action {a:.3g} rounds to the zero level")
    center = loop.points.mean(axis=0)
    projected = loop
    for passes in range(PROJECTION_MAX_ITER):
        if abs(a - k) <= PROJECTION_TOL:
            return defect, projected, passes
        scale = np.sqrt(k / a)
        projected = Loop(center + scale * (projected.points - center))
        a = action_integral(projected, surface)
    raise GeometryError(f"level projection did not converge: residual {a - k:.3g}")


def resample(loop, n_new, surface=None):
    """Trigonometric resampling of the loop onto n_new uniform samples.

    A torus lift is resampled together with its surface, which fixes the
    winding of its linear part; ``surface=None`` means the plane.
    """
    if n_new < MIN_SAMPLES or n_new % 2 != 0:
        raise ValueError(f"resample target must be even and at least {MIN_SAMPLES}")
    pts = loop.points
    wind = (0, 0) if surface is None else winding_numbers(loop, surface)
    if wind != (0, 0):
        lx, ly = surface.periods
        s_old = grid(loop.n)
        linear = np.stack([wind[0] * lx * s_old, wind[1] * ly * s_old], axis=1)
        periodic = trig_resample(pts - linear, n_new)
        s_new = grid(n_new)
        linear_new = np.stack([wind[0] * lx * s_new, wind[1] * ly * s_new], axis=1)
        return Loop(periodic + linear_new)
    return Loop(trig_resample(pts, n_new))


def sample_diagnostics(loop):
    """Per-sample table: parameter, coordinates, spectral tangent, speed."""
    t = loop.tangent()
    return {
        "s": grid(loop.n),
        "x": loop.points[:, 0].copy(),
        "y": loop.points[:, 1].copy(),
        "dxds": t[:, 0],
        "dyds": t[:, 1],
        "speed": np.linalg.norm(t, axis=1),
    }

import numpy as np
import pytest

from bsmoduli import (
    HalfDensity,
    Loop,
    ModuliPoint,
    ScalarField,
    SymplecticSurface,
    project_to_bs,
)
from bsmoduli import moduli


@pytest.fixture
def plane():
    return SymplecticSurface.plane()


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def unit_area_circle_point(plane):
    """Level-1 circle (area 1) centered off-origin, uniform weight."""
    n = 128
    loop = Loop.circle(np.sqrt(1.0 / np.pi), center=(0.3, -0.2), n=n)
    return ModuliPoint(plane, loop, HalfDensity.uniform(n))


@pytest.fixture
def ellipse_point(plane):
    """Level-3 projected ellipse with a cosine weight profile."""
    n = 128
    loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
    return ModuliPoint(plane, loop, HalfDensity.cosine_profile(n))


@pytest.fixture
def pairings_built(monkeypatch):
    """The points of every OmegaMatrix built from here on, however it is reached."""
    built = []

    class Counted(moduli.OmegaMatrix):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    monkeypatch.setattr(moduli, "OmegaMatrix", Counted)
    return built


def assembled_matrix(om):
    """The (2N-2) x (2N-2) antisymmetric pairing matrix [[0, K], [-K^T, 0]] of an OmegaMatrix."""
    m = om.k_block.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, m:] = om.k_block
    out[m:, :m] = -om.k_block.T
    return out


def from_coordinates(om, xf, xt):
    """Samples (fvec, tvec) of the basis combinations with coefficients xf, xt (last axis).

    The inverse of ``om.coordinates`` on constrained tangent vectors.
    """
    return tuple(
        np.sqrt(om.n) * moduli._reflect(np.insert(x, 0, 0.0, axis=-1), reflector)
        for x, reflector in zip((xf, xt), om._reflectors)
    )


def dense_sharp(om, covectors):
    """The duals of a list of Covectors by the dense pairing system: the two-solve reference.

    Omega^T x = ell in blocks is -K xt = lf and K^T xf = lt, one multi-RHS
    LU solve of ``om.k_block`` each.  An empty list has no duals, so it
    returns [] even on a singular pairing; otherwise it raises
    SingularPairing by the package's guard on min|theta0|.
    """
    if not covectors:
        return []
    moduli._require_pointwise_dual(om.sigma_lower_bound)
    lf, lt = om.coordinates(np.stack([ell.fweight for ell in covectors]),
                            np.stack([ell.tweight for ell in covectors]))
    xt = -np.linalg.solve(om.k_block, lf.T)
    xf = np.linalg.solve(om.k_block.T, lt.T)
    return [moduli.TangentVector(f, t) for f, t in zip(*from_coordinates(om, xf.T, xt.T))]


def observed_orders(errors):
    """log2 ratios of consecutive errors from a step-halving experiment."""
    errors = np.asarray(errors, dtype=float)
    return np.log2(errors[:-1] / errors[1:])


def smooth_tangent(point, seed=0, fharmonics=((1, 1.0, 0.3), (2, 0.0, 0.5)),
                   tharmonics=((1, 0.4, 0.0), (3, 0.0, 0.25))):
    """A band-limited constrained tangent vector at a point."""
    from bsmoduli import project_tangent

    n = point.n
    s = np.arange(n) / n
    raw_f = np.zeros(n)
    raw_t = np.zeros(n)
    for k, c, d in fharmonics:
        raw_f += c * np.cos(2 * np.pi * k * s) + d * np.sin(2 * np.pi * k * s)
    for k, c, d in tharmonics:
        raw_t += c * np.cos(2 * np.pi * k * s) + d * np.sin(2 * np.pi * k * s)
    return project_tangent(raw_f, raw_t, point)


def random_tangent(point, rng):
    from bsmoduli import project_tangent

    n = point.n
    return project_tangent(rng.standard_normal(n), rng.standard_normal(n), point)


def expr(text):
    return ScalarField.from_expression(text)


def weighted_torus():
    """The 2 x 2 torus with density 1 + cos(2 pi x)/2 and its matching potential."""
    return SymplecticSurface.torus(
        2.0, 2.0, omega_density=expr("1+0.5*cos(2*pi*x)"),
        potential=(expr("0"), expr("x+sin(2*pi*x)/(4*pi)")),
    )


def kernel_point(surface):
    """A level-projected ellipse with a cosine weight, N = 64, on the plane or the torus."""
    n = 64
    if surface.kind == "torus":
        loop = project_to_bs(Loop.ellipse(0.7, 0.5, center=(1.0, 1.0), n=n, angle=0.3), surface)
    else:
        loop = project_to_bs(Loop.ellipse(1.3, 0.8, center=(0.2, -0.1), n=n, angle=0.4), surface)
    return ModuliPoint(surface, loop, HalfDensity.cosine_profile(n, 0.3, 2))


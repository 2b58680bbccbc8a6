"""Induced observables on the moduli space and the bracket correspondence.

A scalar field f on the surface induces the function

    F_f(loop, theta) = < f(gamma(s)) * theta(s)^2 >

on the moduli space.  F_f is linear in f, so a scaled observable c * F_f is
the observable of the field c * f, and a ``ScalarField`` is the whole
representation of an observable.  Its differential splits into a weight
part and a loop part,

    dF_f(v) = 2 * <f theta0 theta1>  +  <f1' * u_f * theta0^2>,

where u_f is the tangential coefficient of the Hamiltonian field X_f along
the loop and f1' the spectral derivative of the function component of v.
The Hamiltonian field of F_f is the pairing-dual of dF_f; evaluating the
pairing on two such fields gives the moduli-space bracket.

Orientation: with this package's conventions (i_{X_f} omega = df, the
pairing of the moduli module, duals taken in the first slot) the measured
global relation is

    Omega(H_{F_f}, H_{F_g}) = 2 * BRACKET_SIGN * F_{{f, g}},

with BRACKET_SIGN = -1.  The constant is frozen here and re-measured by
``measure_bracket_sign``; all three bracket evaluation routes below report
in the common orientation fixed by this constant.
"""

import numpy as np

from .errors import GeometryError
from .loops import integrate_density, loop_derivative
from .moduli import (
    Covector,
    dense_brackets,
    omega_matrix,
    project_tangent,
    sharp,
)
from .surfaces import (
    hamiltonian_vector_field,
    poisson_bracket,
    poisson_bracket_field,
    tangential_coefficient,
    tangential_normal_split,
)

BRACKET_SIGN = -1.0

BRACKET_METHODS = ("matrix", "closed_form", "target")


def restricted_values(f, p):
    """Values of the surface field along the loop samples."""
    pts = p.loop.points
    return np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)


def evaluate_F(f, p):
    """F_f(p) = <f(gamma) theta^2>."""
    return integrate_density(restricted_values(f, p) * p.theta.values**2)


def field_A(f, p):
    """Tangent vector induced by restriction: (f(gamma) - mean, 0).

    The weight component vanishes identically; the subtracted constant is the
    induced mean, so the result satisfies both tangent constraints.
    """
    return project_tangent(restricted_values(f, p), np.zeros(p.n), p)


def is_stationary_cycle(f, p, tol=1e-10):
    """True when f is constant along the loop (weighted variance below tol)."""
    vals = restricted_values(f, p)
    th2 = p.theta.values**2
    vol = integrate_density(th2)
    mean = integrate_density(vals * th2) / vol
    variance = integrate_density((vals - mean) ** 2 * th2) / vol
    return bool(variance < tol)


def oneform_B(f, p, v):
    """Weight-part one-form <f theta0 theta1>; kernel contains all (f1, 0)."""
    return integrate_density(restricted_values(f, p) * p.theta.values * v.tvec)


def tangential_hamiltonian_coefficient(f, p):
    """Coefficient u_f with (X_f restricted to the loop)_tangential = u_f * gamma'."""
    xf = hamiltonian_vector_field(f, p.surface, p.loop.points)
    return tangential_coefficient(xf, p.loop.tangent())


def oneform_Cstar(f, p, v):
    """Loop-part one-form <f1' * u_f * theta0^2> (depends only on v.fvec)."""
    u = tangential_hamiltonian_coefficient(f, p)
    return integrate_density(loop_derivative(v.fvec) * u * p.theta.values**2)


def differential_dF(f, p, v):
    """dF_f(v) = 2 * oneform_B + oneform_Cstar."""
    return 2.0 * oneform_B(f, p, v) + oneform_Cstar(f, p, v)


def differential_covector(f, p):
    """Riesz weights of dF_f: pair (-(u_f theta0^2)', 2 f theta0).

    The function-part weight uses integration by parts, exact for the
    spectral derivative on the periodic grid.
    """
    th = p.theta.values
    values, u = _restriction(f, p, p.loop.tangent())
    return Covector(fweight=-loop_derivative(u * th**2), tweight=2.0 * values * th)


def _restriction(f, p, tan):
    """(f o gamma, u_f) on the samples, u_f the tangential coefficient of X_f along tangent tan.

    The per-field step of the dual and of the closed-form route.
    """
    u = tangential_coefficient(hamiltonian_vector_field(f, p.surface, p.loop.points), tan)
    return restricted_values(f, p), u


def hamiltonian_field_H(f, p):
    """Pairing-dual of dF_f by the pointwise ``sharp``; its function part equals twice field_A's."""
    return sharp(p, differential_covector(f, p))


def moduli_bracket(f, g, p, method="matrix"):
    """Moduli-space bracket of two induced observables, three evaluation routes.

    matrix       evaluate the pairing on the two Hamiltonian fields: the
                 arbiter, Omega(H_{F_f}, H_{F_g}), no adjustment; entry
                 [0, 1] of ``dense_brackets`` on the point's pairing, a
                 certified Krylov or LU solve of its K block.
    closed_form  BRACKET_SIGN * 2 * <[df(X_g^tan) - dg(X_f^tan)] theta0^2>
                 with restricted tangential pairings and the frozen measured
                 sign.
    target       BRACKET_SIGN * 2 * F_{{f,g}} -- the bracket-correspondence
                 prediction (composed surface-bracket field) transported
                 into the pairing orientation by the same measured sign.

    All three agree to quadrature/solve accuracy; their relative spread is
    the certification statistic.
    """
    if method not in BRACKET_METHODS:
        raise ValueError(f"unknown bracket method {method!r}")
    if method == "matrix":
        covectors = [differential_covector(h, p) for h in (f, g)]
        return float(dense_brackets(omega_matrix(p), covectors)[0][0, 1])
    if method == "closed_form":
        tan = p.loop.tangent()
        (f_loop, u_f), (g_loop, u_g) = (_restriction(h, p, tan) for h in (f, g))
        df, dg = loop_derivative(f_loop), loop_derivative(g_loop)
        return _closed_form(df, u_f, dg, u_g, p.theta.values)
    bracket_field = poisson_bracket_field(f, g, p.surface)
    return BRACKET_SIGN * 2.0 * evaluate_F(bracket_field, p)


def _closed_form(df, u_f, dg, u_g, th):
    """The closed-form route from (f o gamma)', u_f, (g o gamma)', u_g and theta0 on the samples."""
    return BRACKET_SIGN * 2.0 * integrate_density((df * u_g - dg * u_f) * th**2)


def _pair_routes(fields, p):
    """route(i, j) -> (matrix value, its certified bound, closed-form value) of fields i and j.

    The tangent, each field's ``_restriction`` and, in one ``loop_derivative``
    call, the derivatives of every u_h theta0^2 and h o gamma are taken once;
    one ``dense_brackets`` call on the fields' covectors gives every matrix
    value.  The covectors have the bits of ``differential_covector`` and the
    closed-form values those of ``moduli_bracket``'s closed form.
    """
    th = p.theta.values
    tan = p.loop.tangent()
    values, us = zip(*(_restriction(h, p, tan) for h in fields))
    k = len(fields)
    derivs = loop_derivative(np.stack([u * th**2 for u in us] + list(values), axis=1))
    covectors = [Covector(-derivs[:, i], 2.0 * v * th) for i, v in enumerate(values)]
    brackets, bounds = dense_brackets(omega_matrix(p), covectors)

    def route(i, j):
        closed = _closed_form(derivs[:, k + i], us[i], derivs[:, k + j], us[j], th)
        return float(brackets[i, j]), float(bounds[i, j]), closed

    return route


def _report(f, g, p, matrix_value, matrix_bound, closed_form):
    """The three route values, their relative spread and the matrix value's certified bound.

    GeometryError for a value that is not finite.
    """
    values = {
        "matrix": matrix_value,
        "closed_form": closed_form,
        "target": moduli_bracket(f, g, p, "target"),
    }
    for route, value in values.items():
        if not np.isfinite(value):
            raise GeometryError(f"the {route} bracket is {float(value)!r}, not finite")
    vals = np.array(list(values.values()))
    scale = np.max(np.abs(vals))
    spread = float(np.max(vals) - np.min(vals))
    values["rel_spread"] = spread / scale if scale > 1e-9 else spread
    values["matrix_bound"] = matrix_bound
    return values


def bracket_report(f, g, p):
    """All three bracket values, their relative spread and the matrix value's certified bound.

    The bound, key ``matrix_bound``, is ``dense_brackets``' bound on the
    matrix value's distance to the exact solve.  The routes run under
    ``np.errstate(all="ignore")``; a route value that is not finite raises
    GeometryError naming the route, not a raw warning.
    """
    with np.errstate(all="ignore"):
        return _report(f, g, p, *_pair_routes([f, g], p)(0, 1))


def bracket_reports(pairs, p):
    """bracket_report of every (f, g) pair at one point, from one pass over its fields.

    Computed once per call: the loop's tangent; for each distinct field
    object h, h o gamma and u_h, the tangential coefficient of X_h (one X_h
    evaluation); the spectral derivatives of every u_h theta0^2 (for the
    covectors) and every h o gamma (for the closed form) in one
    ``loop_derivative`` call on an (N, 2k) stack, k the number of distinct
    fields; and every pair's matrix value and certified bound
    (``matrix_bound``), from one ``dense_brackets`` call, one solve on one
    pairing, built only when there is a pair.  The target route runs per
    pair.  Each closed_form and target has the bits of its ``moduli_bracket``
    route, and each matrix value and bound those of ``dense_brackets`` on the
    ``differential_covector`` of the distinct fields; the matrix values agree
    with bracket_report's, which solves for one pair at a time, within their
    bounds.  As there, a GeometryError of a pair, a value that is not finite
    included, is raised naming the pair's index in ``pairs``.
    """
    if not pairs:
        return []
    with np.errstate(all="ignore"):
        distinct = {id(h): h for pair in pairs for h in pair}
        index = {key: i for i, key in enumerate(distinct)}
        route = _pair_routes(list(distinct.values()), p)
        reports = []
        for j, (f, g) in enumerate(pairs):
            try:
                reports.append(_report(f, g, p, *route(index[id(f)], index[id(g)])))
            except GeometryError as exc:
                raise type(exc)(f"pairs[{j}]: {exc}") from exc
        return reports


def measure_bracket_sign(p, f=None, g=None):
    """Re-measure the orientation constant on a reference instance.

    Returns the sign of the matrix-route value against the raw (sign-free)
    closed-form integral; frozen as BRACKET_SIGN.  The raw closed form
    coincides analytically with the raw correspondence prediction
    2 * F_{{f,g}}, so the same constant transports both.
    """
    from .surfaces import ScalarField

    f = f if f is not None else ScalarField.from_expression("x")
    g = g if g is not None else ScalarField.from_expression("y")
    matrix_value = moduli_bracket(f, g, p, "matrix")
    closed_raw = moduli_bracket(f, g, p, "closed_form") / BRACKET_SIGN
    if abs(closed_raw) < 1e-12 or abs(matrix_value) < 1e-12:
        raise ValueError("reference instance has a vanishing bracket; pick another")
    return float(np.sign(matrix_value / closed_raw))


def _restricted_bracket(f, g, loop, surface):
    """(f o gamma)' u_g - (g o gamma)' u_f on the samples, u_h the tangential coefficient of X_h."""
    pts = loop.points
    tan = loop.tangent()
    f_loop = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    g_loop = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float)
    u_f = tangential_coefficient(hamiltonian_vector_field(f, surface, pts), tan)
    u_g = tangential_coefficient(hamiltonian_vector_field(g, surface, pts), tan)
    return loop_derivative(f_loop) * u_g - loop_derivative(g_loop) * u_f


def restriction_identity_residual(f, g, loop, surface):
    """Per-sample residual of the restricted-bracket identity.

    {f, g}(gamma(s)) - [ (f o gamma)'(s) u_g(s) - (g o gamma)'(s) u_f(s) ]
    with u_h the tangential coefficient of X_h along the loop.  Spectrally
    small for smooth data.
    """
    return poisson_bracket(f, g, surface, loop.points) - _restricted_bracket(f, g, loop, surface)


def compatibility_residuals(f, g, loop, surface):
    """Pointwise residuals of the two split-pairing cancellations.

    With X_h split into tangential and normal parts along the loop, the
    metric compatibility of the rotation J forces

        df(X_g^normal) + dg(X_f^tangential) = 0,
        df(X_g^tangential) + dg(X_f^normal) = 0,

    at every sample; both residual arrays are returned.
    """
    pts = loop.points
    tan = loop.tangent()
    fx_grad = np.stack(f.grad(pts[:, 0], pts[:, 1]), axis=-1)
    gx_grad = np.stack(g.grad(pts[:, 0], pts[:, 1]), axis=-1)
    xf_hor, xf_vert = tangential_normal_split(
        hamiltonian_vector_field(f, surface, pts), tan
    )
    xg_hor, xg_vert = tangential_normal_split(
        hamiltonian_vector_field(g, surface, pts), tan
    )
    r1 = np.sum(fx_grad * xg_vert, axis=-1) + np.sum(gx_grad * xf_hor, axis=-1)
    r2 = np.sum(fx_grad * xg_hor, axis=-1) + np.sum(gx_grad * xf_vert, axis=-1)
    return r1, r2


def non_multiplicativity_witness(f1, f2, p):
    """(F_{f1 f2}, F_{f1} * F_{f2}) -- generically different numbers."""
    product = evaluate_F(f1 * f2, p)
    separate = evaluate_F(f1, p) * evaluate_F(f2, p)
    return product, separate

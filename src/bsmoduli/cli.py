"""Experiment runner: seeded, config-driven checks with CSV reports.

Usage:

    bsq <command> --config FILE [--out DIR] [--seed N] [--tol X]

Commands:

    bracket-check    three-way bracket comparison over (field pair, loop,
                     weight) instances, each row passing iff its relative
                     spread is within tolerance
    identity-check   restricted-bracket identity and split-compatibility
                     residuals versus sample count
    flow             classical (implicit midpoint) or moduli (RK4) flow;
                     writes a trajectory table and optional state snapshots
    bs-scan          holonomy action and integer-level defect over a scaled
                     family of loops, locating the level-crossing radii
    qm-check         finite-dimensional quantum reference suite
    convergence      error-versus-N tables for derivatives, quadrature and
                     holonomy

Exit codes: 0 pass, 1 usage error (an ``--out`` that cannot be written
included), 2 config error, 3 numeric failure: a solver or geometry error, or
any output row whose ``status`` is ``fail``.  Commands return their tables
and ``main`` writes them once every instance has run, so a run that ends in
an error writes nothing.  Instances run one after another and rows keep
instance order, so results are byte-identical for a given config and seed.

Scalar fields in configs are expression strings over the grammar:
identifiers ``x``, ``y``; numeric literals and ``pi``; operators
``+ - * /`` and ``^`` with integer exponents; ``sin``/``cos`` of linear
forms ``a*x + b*y + c``.

Loop specs: ``{"type": "circle", "radius": r, "center": [x, y]}``,
``{"type": "ellipse", "a": ..., "b": ..., "center": ..., "angle": ...}``,
``{"type": "perturbed_circle", "radius": ..., "center": ...,
"harmonics": [[k, cos_amp, sin_amp], ...]}``; all accept ``"project": true``
to rescale onto the nearest integer level and ``"id"`` for report labels.
Weight specs: ``{"type": "uniform"}`` or ``{"type": "cosine",
"amplitude": a, "harmonic": k}``; every harmonic k is an integer.  Surface
specs: ``{"kind": "plane"}`` or ``{"kind": "torus", "periods": [Lx, Ly]}``,
with optional ``"omega_density"`` expression (a matching ``"potential"`` pair
of expressions is then required for holonomy work; its exact curl is checked
against the density when the surface is built).
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dynamics import flow_classical, flow_moduli
from .errors import ExpressionError, GeometryError
from .loops import (
    HalfDensity,
    Loop,
    _level_offset,
    action_integral,
    grid,
    integrate_density,
    loop_derivative,
    project_to_bs,
    sample_diagnostics,
)
from .moduli import ModuliPoint, omega_matrix
from .observables import (
    BRACKET_SIGN,
    bracket_report,
    bracket_reports,
    compatibility_residuals,
    restriction_identity_residual,
)
from .quantum import (
    KAPPA_QM,
    HermitianObservable,
    StateVector,
    exact_flow,
    expectation,
    measure_kappa,
    projective_critical_check,
    schrodinger_flow_rk4,
)
from .surfaces import ScalarField, SymplecticSurface

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# The config potential's curl check: tolerance, midpoint grid per axis, plane box half-width.
POTENTIAL_TOL = 1e-9
POTENTIAL_GRID = 32
PLANE_BOX = 2.0


class ConfigError(Exception):
    """Raised for malformed or inconsistent config files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _format(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_atomic(path, text):
    """Write text to path through a temp file in the same directory and os.replace.

    The temp file is created with mode 0o666 so the kernel applies the umask,
    giving the same permissions as a plain ``open(path, "w")``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{os.path.abspath(path)}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns, rows, header):
    """Write a CSV with a '#'-comment convention block, atomically."""
    lines = [f"# {key} = {_format(val)}" for key, val in header.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format(row[c]) for c in columns))
    _write_atomic(path, "\n".join(lines) + "\n")


def _conventions(command, seed, tolerance):
    return {
        "package": f"bsmoduli {__version__}",
        "command": command,
        "sigma": BRACKET_SIGN,
        "kappa_qm": KAPPA_QM,
        "tolerance": tolerance,
        "seed": seed,
    }


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _require_object(spec, what):
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} spec must be a JSON object, got {spec!r}")


def _is_finite_pair(value):
    """Whether a config value is a JSON list of two finite numbers."""
    try:
        return (
            isinstance(value, list) and len(value) == 2
            and not any(isinstance(v, bool) for v in value)
            and all(math.isfinite(v) for v in value)
        )
    except (TypeError, OverflowError):
        return False


def _tolerance(value, key):
    """A config tolerance: a finite number >= 0 that is not a bool."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value) and value >= 0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f'"{key}" must be a finite number >= 0, got {value!r}')
    return value


def _finite_number(value, key):
    """A config number as a float: finite and not a bool."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f'"{key}" must be a finite number, got {value!r}')
    return float(value)


def _resolve_tolerance(override, config, default):
    """The ``--tol`` override, else the config's "tolerance" (``default`` when absent), checked."""
    if override is not None:
        return override
    return _tolerance(config.get("tolerance", default), "tolerance")


def _count(value, key):
    """A config count as an int: an integral number that is not a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f'"{key}" must be an integer, got {value!r}')
    return value


def _sample_counts(config, default):
    """The list "sample_counts", else the one count "n_samples" (``default`` when absent)."""
    if "sample_counts" not in config:
        return [_count(config.get("n_samples", default), "n_samples")]
    counts = config["sample_counts"]
    if not isinstance(counts, list):
        raise ConfigError(f'"sample_counts" must be a list of integers, got {counts!r}')
    return [_count(n, "sample_counts") for n in counts]


def _flag(value, key):
    """A config flag: a JSON boolean."""
    if not isinstance(value, bool):
        raise ConfigError(f'"{key}" must be true or false, got {value!r}')
    return value


def _tolerance_arg(text):
    """The ``--tol`` value: a finite number >= 0, else a usage error."""
    try:
        return _tolerance(float(text), "--tol")
    except (ValueError, ConfigError):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None


def _loop_center(spec):
    center = spec.get("center", [0.0, 0.0])
    if not _is_finite_pair(center):
        raise ConfigError(f"loop center must be two finite numbers [x, y], got {center!r}")
    return tuple(center)


def _harmonic(value):
    """A harmonic k of cos(2 pi k s): an integer or an integral float, not a bool."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"harmonic must be an integer, got {value!r}")
    return value


def _harmonics(spec):
    """A perturbed circle's "harmonics": a list of [k, c_k, s_k], k a harmonic, c_k and s_k finite."""
    value = spec.get("harmonics", [])
    if not isinstance(value, list) or not all(isinstance(h, list) and len(h) == 3 for h in value):
        raise ConfigError(f'"harmonics" must be a list of [k, c_k, s_k], got {value!r}')
    return [
        (_harmonic(k), _finite_number(c, "harmonics"), _finite_number(s, "harmonics"))
        for k, c, s in value
    ]


def _orientation(spec):
    """A circle spec's "orientation": the JSON integer 1 or -1 (1 when absent), not a bool."""
    value = spec.get("orientation", 1)
    if isinstance(value, bool) or not isinstance(value, int) or value not in (1, -1):
        raise ConfigError(f'"orientation" must be 1 or -1, got {value!r}')
    return value


def build_field(text):
    if not isinstance(text, str):
        raise ConfigError(f"field spec must be an expression string, got {text!r}")
    try:
        return ScalarField.from_expression(text)
    except ExpressionError as exc:
        raise ConfigError(f"bad field expression {text!r}: {exc}") from exc


def _build_field_pairs(pairs):
    """ScalarField pairs for [f, g] expression pairs, building each distinct expression once.

    Commands call this before any numerics, so a bad last pair exits 2 with no work done.
    """
    fields = {}
    for fs, gs in pairs:
        for text in (fs, gs):
            if not isinstance(text, str) or text not in fields:
                fields[text] = build_field(text)
    return [(fields[fs], fields[gs]) for fs, gs in pairs]


def build_surface(spec):
    if spec is None:
        return SymplecticSurface.plane()
    _require_object(spec, "surface")
    kind = spec.get("kind", "plane")
    density = None
    if "omega_density" in spec:
        density = build_field(spec["omega_density"])
    potential = None
    if "potential" in spec:
        pot = spec["potential"]
        if not isinstance(pot, (list, tuple)) or len(pot) != 2:
            raise ConfigError("potential must be a pair of expressions [a_x, a_y]")
        potential = (build_field(pot[0]), build_field(pot[1]))
    try:
        if kind == "plane":
            surface = SymplecticSurface.plane(omega_density=density, potential=potential)
        elif kind == "torus":
            periods = spec.get("periods")
            if not _is_finite_pair(periods):
                raise ConfigError(
                    f"torus surface requires periods [Lx, Ly], two finite numbers, got {periods!r}"
                )
            surface = SymplecticSurface.torus(
                periods[0], periods[1], omega_density=density, potential=potential
            )
        else:
            raise ConfigError(f"unknown surface kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if potential is not None:
        _require_exact_potential(surface, potential)
    return surface


def _require_exact_potential(surface, potential):
    """Raise ConfigError unless max|curl(alpha) - w| / max|w| <= POTENTIAL_TOL.

    The curl da_y/dx - da_x/dy comes from the fields' exact symbolic
    gradients, sampled on a midpoint grid over the torus's fundamental domain
    or the plane's box [-PLANE_BOX, PLANE_BOX]^2.  The box suffices because
    the grammar's fields are real-analytic where they are defined.
    """
    u = (np.arange(POTENTIAL_GRID) + 0.5) / POTENTIAL_GRID
    if surface.kind == "torus":
        xs, ys = u * surface.periods[0], u * surface.periods[1]
    else:
        xs = ys = PLANE_BOX * (2.0 * u - 1.0)
    x, y = np.meshgrid(xs, ys, indexing="ij")
    ax, ay = potential
    with np.errstate(all="ignore"):
        curl = ay.grad(x, y)[0] - ax.grad(x, y)[1]
        w = np.ones_like(x) if surface.omega_density is None else surface.omega_density(x, y)
        defect = float(np.max(np.abs(curl - w)) / np.max(np.abs(w)))
    if not defect <= POTENTIAL_TOL:
        raise ConfigError(
            f"potential does not match omega_density: relative curl defect "
            f"max|da - w| / max|w| = {defect!r} exceeds {POTENTIAL_TOL!r}"
        )


def build_loop(spec, n, surface):
    _require_object(spec, "loop")
    kind = spec.get("type")
    center = _loop_center(spec)
    project = _flag(spec.get("project", False), "project")
    try:
        if kind == "circle":
            loop = Loop.circle(_finite_number(spec["radius"], "radius"), center=center, n=n,
                               orientation=_orientation(spec))
        elif kind == "ellipse":
            a, b = (_finite_number(spec[key], key) for key in ("a", "b"))
            loop = Loop.ellipse(a, b, center=center, n=n,
                                angle=_finite_number(spec.get("angle", 0.0), "angle"))
        elif kind == "perturbed_circle":
            loop = Loop.perturbed_circle(_finite_number(spec["radius"], "radius"),
                                         center=center, n=n, harmonics=_harmonics(spec))
        else:
            raise ConfigError(f"unknown loop type {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"loop spec missing key {exc}") from exc
    if project:
        loop = project_to_bs(loop, surface)
    return loop


def loop_label(spec, index):
    return str(spec.get("id", f"loop{index}"))


def build_density(spec, n):
    _require_object(spec, "density")
    kind = spec.get("type", "uniform")
    if kind == "uniform":
        return HalfDensity.uniform(n)
    if kind == "cosine":
        return HalfDensity.cosine_profile(
            n,
            amplitude=_finite_number(spec.get("amplitude", 0.3), "amplitude"),
            harmonic=_harmonic(spec.get("harmonic", 1)),
        )
    raise ConfigError(f"unknown density type {kind!r}")


def density_label(spec, index):
    return str(spec.get("id", f"{spec.get('type', 'uniform')}{index}"))


def cmd_bracket_check(config, seed, tolerance):
    if "scale" in config:
        raise ConfigError(
            'bracket-check no longer takes "scale": scale the field expressions '
            'instead, e.g. "2*x" for x'
        )
    tol = _resolve_tolerance(tolerance, config, 1e-6)
    counts = _sample_counts(config, 512)
    dump = _flag(config.get("dump_singular_values", False), "dump_singular_values")
    surface = build_surface(config.get("surface"))
    pairs = config.get("pairs", [])
    loop_specs = config.get("loops", [])
    density_specs = config.get("densities", [{"type": "uniform"}])

    field_pairs = _build_field_pairs(pairs)

    instances = []
    for n in counts:
        for li, lspec in enumerate(loop_specs):
            loop = build_loop(lspec, n, surface)
            for di, dspec in enumerate(density_specs):
                theta = build_density(dspec, n)
                point = ModuliPoint(surface, loop, theta)
                instances.append((loop_label(lspec, li), density_label(dspec, di), point))

    rows = []
    singular_rows = []
    for label_l, label_d, point in instances:
        if dump:
            for idx, value in enumerate(np.sort(omega_matrix(point).singular_values())[::-1]):
                singular_rows.append(
                    {"loop": label_l, "density": label_d, "index": idx, "sigma_k": float(value)}
                )
        try:
            reports = bracket_reports(field_pairs, point)
        except GeometryError as exc:
            raise type(exc)(f"bracket-check on loop {label_l}, density {label_d}: {exc}") from exc
        for (fs, gs), rep in zip(pairs, reports):
            rows.append(
                {
                    "f": fs,
                    "g": gs,
                    "loop": label_l,
                    "density": label_d,
                    "n": point.n,
                    "matrix": rep["matrix"],
                    "closed_form": rep["closed_form"],
                    "target": rep["target"],
                    "sigma": BRACKET_SIGN,
                    "rel_spread": rep["rel_spread"],
                    "status": "pass" if rep["rel_spread"] <= tol else "fail",
                }
            )

    columns = ["f", "g", "loop", "density", "n", "matrix", "closed_form",
               "target", "sigma", "rel_spread", "status"]
    outputs = {"bracket_check.csv": (columns, rows)}
    if singular_rows:
        outputs["omega_singular_values.csv"] = (
            ["loop", "density", "index", "sigma_k"], singular_rows
        )
    return tol, outputs


def cmd_identity_check(config, seed, tolerance):
    tol_point = _resolve_tolerance(tolerance, config, 1e-8)
    tol_compat = float(_tolerance(config.get("tolerance_compat", 1e-12), "tolerance_compat"))
    counts = _sample_counts(config, 256)
    dump = _flag(config.get("dump_loop_diagnostics", False), "dump_loop_diagnostics")
    surface = build_surface(config.get("surface"))
    pairs = config.get("pairs", [])
    loop_specs = config.get("loops", [])
    field_pairs = _build_field_pairs(pairs)
    loops = {n: [build_loop(lspec, n, surface) for lspec in loop_specs] for n in counts}

    rows = []
    for n in counts:
        for li, (lspec, loop) in enumerate(zip(loop_specs, loops[n])):
            for (fs, gs), (f, g) in zip(pairs, field_pairs):
                res = np.max(np.abs(restriction_identity_residual(f, g, loop, surface)))
                c1, c2 = compatibility_residuals(f, g, loop, surface)
                m1 = float(np.max(np.abs(c1)))
                m2 = float(np.max(np.abs(c2)))
                ok = res <= tol_point and m1 <= tol_compat and m2 <= tol_compat
                rows.append(
                    {
                        "f": fs,
                        "g": gs,
                        "loop": loop_label(lspec, li),
                        "n": n,
                        "restriction_residual": float(res),
                        "compat_residual_1": m1,
                        "compat_residual_2": m2,
                        "status": "pass" if ok else "fail",
                    }
                )
    columns = ["f", "g", "loop", "n", "restriction_residual",
               "compat_residual_1", "compat_residual_2", "status"]
    outputs = {"identity_check.csv": (columns, rows)}
    if dump and counts:
        diag_rows = []
        for li, (lspec, loop) in enumerate(zip(loop_specs, loops[counts[-1]])):
            table = sample_diagnostics(loop)
            for i in range(loop.n):
                diag_rows.append({
                    "loop": loop_label(lspec, li),
                    "i": i,
                    "s": table["s"][i],
                    "x": table["x"][i],
                    "y": table["y"][i],
                    "dxds": table["dxds"][i],
                    "dyds": table["dyds"][i],
                    "speed": table["speed"][i],
                })
        outputs["loop_diagnostics.csv"] = (
            ["loop", "i", "s", "x", "y", "dxds", "dyds", "speed"], diag_rows
        )
    return tol_point, outputs


def cmd_flow(config, seed, tolerance):
    tol = tolerance if tolerance is not None else 0.0
    mode = config.get("mode", "classical")
    surface = build_surface(config.get("surface"))
    f = build_field(config["field"])
    t_final = float(config.get("t_final", 1.0))
    step = float(config.get("step", 1e-3))
    if mode == "classical":
        p0 = config.get("initial", [1.0, 0.0])
        if not _is_finite_pair(p0):
            raise ConfigError(f"initial must be two finite numbers [x, y], got {p0!r}")
        traj = flow_classical(f, surface, p0, t_final, step)
        rows = [
            {"t": float(t), "x": float(p[0]), "y": float(p[1]), "f": float(v)}
            for t, p, v in zip(traj.times, traj.points, traj.values)
        ]
        return tol, {"flow_classical.csv": (["t", "x", "y", "f"], rows)}
    if mode == "moduli":
        n = _count(config.get("n_samples", 128), "n_samples")
        snapshot_every = _count(config.get("snapshot_every", 0), "snapshot_every")
        loop = build_loop(config["loop"], n, surface)
        theta = build_density(config.get("density", {"type": "uniform"}), n)
        p0 = ModuliPoint(surface, loop, theta)
        traj = flow_moduli(f, p0, t_final, step, snapshot_every=snapshot_every)
        rows = [
            {
                "t": float(t),
                "F_f": float(v),
                "volume_defect": float(vd),
                "bs_defect": float(bd),
                "loop_checksum": int(cs),
            }
            for t, v, vd, bd, cs in zip(
                traj.times, traj.observable_values, traj.volume_defects,
                traj.bs_defects, traj.checksums,
            )
        ]
        outputs = {
            "flow_moduli.csv": (["t", "F_f", "volume_defect", "bs_defect", "loop_checksum"], rows)
        }
        if snapshot_every > 0:
            # no columns: main writes these rows as JSON
            outputs["flow_moduli_snapshots.json"] = (
                None, [{"t": float(t), "state": point.to_dict()} for t, point in traj.snapshots]
            )
        return tol, outputs
    raise ConfigError(f"unknown flow mode {mode!r}")


def cmd_bs_scan(config, seed, tolerance):
    tol = _resolve_tolerance(tolerance, config, 1e-9)
    surface = build_surface(config.get("surface"))
    n = _count(config.get("n_samples", 256), "n_samples")
    spec = config.get("loop", {"type": "circle", "radius": 1.0})
    _require_object(spec, "loop")
    sweep = config.get("radii", {"start": 0.3, "stop": 1.5, "count": 61})
    _require_object(sweep, "radii")
    for key in ("start", "stop", "count"):
        if key not in sweep:
            raise ConfigError(f'"radii.{key}" is missing')
    start, stop = (_finite_number(sweep[key], f"radii.{key}") for key in ("start", "stop"))
    count = _count(sweep["count"], "radii.count")
    if count < 1:
        raise ConfigError(f'"radii.count" must be at least 1, got {count}')
    values = np.linspace(start, stop, count)
    circle = spec.get("type") == "circle"
    if circle:
        center = _loop_center(spec)
        orientation = _orientation(spec)
    else:
        base = build_loop(spec, n, surface)
        center = base.points.mean(axis=0)
    rows = []
    for r in values:
        if circle:
            loop = Loop.circle(r, center=center, n=n, orientation=orientation)
        else:
            loop = Loop(center + r * (base.points - center))
        # one action integral for both columns; one that is not finite raises
        # GeometryError there, with no raw warning
        action, defect = _level_offset(loop, surface)
        rows.append(
            {
                "radius": float(r),
                "action": float(action),
                "defect": float(defect),
                "bs_hit": int(abs(defect) <= tol),
            }
        )
    return tol, {"bs_scan.csv": (["radius", "action", "defect", "bs_hit"], rows)}


def cmd_qm_check(config, seed, tolerance):
    tol = _resolve_tolerance(tolerance, config, 1e-8)
    n = _count(config.get("dimension", 4), "dimension")
    instances = _count(config.get("instances", 100), "instances")
    if n < 2:
        raise ConfigError(f'"dimension" must be at least 2, got {n}')
    if instances < 1:
        raise ConfigError(f'"instances" must be at least 1, got {instances}')
    hbar = float(config.get("hbar", 1.0))
    t_final = float(config.get("t_final", 1.0))
    step = float(config.get("step", 1e-3))
    rng = np.random.default_rng(seed)

    rows = []

    def record(check, value, threshold):
        rows.append(
            {
                "check": check,
                "value": float(value),
                "threshold": float(threshold),
                "status": "pass" if value <= threshold else "fail",
            }
        )

    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ham = HermitianObservable((raw + raw.conj().T) / 2)
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = StateVector(vec / np.linalg.norm(vec), hbar=hbar)
    approx = schrodinger_flow_rk4(ham, psi, t_final, step)
    exact = exact_flow(ham, psi, math.copysign(t_final, step))
    record("flow_vs_exponential", np.max(np.abs(approx.amplitudes - exact.amplitudes)), tol)
    record("norm_drift", abs(approx.norm() - 1.0), 1e-9)
    record("energy_drift", abs(expectation(ham, approx) - expectation(ham, psi)), 1e-9)

    worst_residual = 0.0
    worst_value = 0.0
    eigvals, eigvecs = np.linalg.eigh(ham.matrix)
    for k in range(n):
        res, verr = projective_critical_check(ham, eigvecs[:, k], eigvals[k])
        worst_residual = max(worst_residual, res)
        worst_value = max(worst_value, verr)
    record("eigen_critical_residual", worst_residual, 1e-10)
    record("eigen_value_error", worst_value, 1e-10)

    kappa_mean, kappa_dev = measure_kappa(n=n, instances=instances, seed=seed, hbar=hbar)
    record("kappa_deviation", kappa_dev / abs(kappa_mean), 1e-10)
    rows.append(
        {"check": "kappa_mean", "value": float(kappa_mean), "threshold": float(KAPPA_QM),
         "status": "pass" if abs(kappa_mean - KAPPA_QM) <= 1e-10 else "fail"}
    )

    return tol, {"qm_check.csv": (["check", "value", "threshold", "status"], rows)}


def _convergence_case(case, n):
    s = grid(n)
    if case == "derivative_bandlimited":
        u = np.sin(2 * np.pi * s)
        exact = 2 * np.pi * np.cos(2 * np.pi * s)
        return float(np.max(np.abs(loop_derivative(u) - exact)))
    if case == "derivative_analytic":
        u = 1.0 / (1.3 + np.sin(2 * np.pi * s))
        exact = -2 * np.pi * np.cos(2 * np.pi * s) / (1.3 + np.sin(2 * np.pi * s)) ** 2
        return float(np.max(np.abs(loop_derivative(u) - exact)))
    if case == "quadrature_analytic":
        u = 1.0 / (1.3 + np.sin(2 * np.pi * s))
        exact = 1.0 / np.sqrt(1.3**2 - 1.0)
        return float(abs(integrate_density(u) - exact))
    if case == "action_circle":
        surface = SymplecticSurface.plane()
        loop = Loop.circle(0.75, center=(0.2, -0.1), n=max(n, 16))
        return float(abs(action_integral(loop, surface) - np.pi * 0.75**2))
    if case == "bracket_spread":
        surface = SymplecticSurface.plane()
        m = max(n, 16)
        point = ModuliPoint(
            surface,
            Loop.circle(np.sqrt(1 / np.pi), center=(0.3, -0.2), n=m),
            HalfDensity.cosine_profile(m),
        )
        rep = bracket_report(build_field("x^2"), build_field("y"), point)
        return float(rep["rel_spread"])
    if case == "restriction_identity":
        surface = SymplecticSurface.plane()
        loop = Loop.ellipse(1.4, 0.7, center=(0.2, -0.1), n=max(n, 16))
        residual = restriction_identity_residual(
            build_field("sin(x)"), build_field("x*y"), loop, surface
        )
        return float(np.max(np.abs(residual)))
    raise ConfigError(f"unknown convergence case {case!r}")


def cmd_convergence(config, seed, tolerance):
    cases = config.get(
        "cases",
        ["derivative_bandlimited", "derivative_analytic", "quadrature_analytic", "action_circle"],
    )
    if not isinstance(cases, list) or not all(isinstance(case, str) for case in cases):
        raise ConfigError(f'"cases" must be a list of strings, got {cases!r}')
    counts = _sample_counts(config, None) if "sample_counts" in config else [16, 32, 64, 128, 256]
    rows = []
    for case in cases:
        for n in counts:
            rows.append({"case": case, "n": n, "error": _convergence_case(case, n)})
    tol = tolerance if tolerance is not None else 0.0
    return tol, {"convergence.csv": (["case", "n", "error"], rows)}


COMMANDS = {
    "bracket-check": cmd_bracket_check,
    "identity-check": cmd_identity_check,
    "flow": cmd_flow,
    "bs-scan": cmd_bs_scan,
    "qm-check": cmd_qm_check,
    "convergence": cmd_convergence,
}


def build_parser():
    parser = _Parser(prog="bsq", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--tol", type=_tolerance_arg, default=None, help="tolerance override")
    return parser


@functools.cache
def _parser():
    """``build_parser()``, built on the first ``main`` call and reused by the later ones."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        config = load_config(args.config)
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        seed = args.seed if args.seed is not None else _count(config.get("seed", 0), "seed")
        tol, outputs = COMMANDS[args.command](config, seed, args.tol)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        print(f"bsq: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"bsq: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    header = _conventions(args.command, seed, tol)
    for name, (columns, rows) in outputs.items():
        path = os.path.join(args.out, name)
        try:
            if columns is None:
                _write_atomic(path, json.dumps(rows, indent=1, sort_keys=True) + "\n")
            else:
                write_csv(path, columns, rows, header)
        except OSError as exc:
            print(f"bsq: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    failed = any(row.get("status") == "fail" for _, rows in outputs.values() for row in rows)
    return EXIT_NUMERIC if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

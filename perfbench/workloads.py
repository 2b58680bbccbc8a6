"""The three benchmark workloads: seeded inputs, one op each, and its correctness gate.

Every op's input comes from ``random.Random(f"<workload>:<seed>:<index>")``,
so a seed fixes the whole input sequence and no input repeats within a run
(a cache keyed on input content cannot hit across ops).  The input family
cycles with the op index instead of being drawn at random, so every run mixes
the families in the same proportions and the latency percentiles do not move
with the seed.

A workload exposes ``prepare(seed, index)`` (untimed: builds the op's input),
``run(item)`` (the timed call into the package) and ``check(item, result)``,
which returns ``(ok, detail)``.  A failed check is counted; its input is never
redrawn.
"""

import csv
import json
import math
import os
import random

import numpy as np

import bsmoduli
from bsmoduli import cli, dynamics

# The five field pairs of the shipped bracket-check config, fixed here so that
# a change to the shipped config does not change the benchmark.
CERTIFY_PAIRS = [
    ["x", "y"],
    ["x^2", "y"],
    ["x", "x^2+y^2"],
    ["sin(x)", "y"],
    ["x*y", "x^2-y^2"],
]
CERTIFY_N = 512
CERTIFY_TOL = 1e-6

MODULI_N = 128
MODULI_STEP = 0.005
MODULI_T_FINAL = 0.1  # 20 RK4 steps
# F_f is conserved by its own flow.  Over 20 steps the drift has a median of
# 4e-10 and reached 2.2e-7 in 270 seeded inputs; an RK4 step outside its
# stability region drifts by 1e-3 or more.
MODULI_DRIFT_BOUND = 1e-6

CLASSICAL_STEP = 0.01
# 500 implicit-midpoint steps.  At ~0.25 s an op, a run of the benchmark's
# length holds well over 100 ops, so ten or more samples lie above the p90.
CLASSICAL_T_FINAL = 5.0
# Energy drift: the implicit midpoint rule conserves a quadratic energy to
# roundoff (~3e-15); over 1000 steps the pendulum reaches ~1.2e-5 near energy
# 0.9 and the torus field ~1e-6.  A first-order or non-symplectic step drifts
# by 1e-2 or more.
CLASSICAL_DRIFT_BOUNDS = {"(x^2+y^2)/2": 1e-12, "y^2/2-cos(x)": 1e-4, "sin(x)+cos(y)": 1e-4}


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _loop_spec(kind, rng):
    """A projected loop spec of the config grammar, of aspect ratio at most 2.

    Every spec encloses more than 0.9 units of area, so it projects onto a
    nonzero integer level.
    """
    center = [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)]
    if kind == "circle":
        return {"type": "circle", "radius": rng.uniform(0.55, 1.0),
                "center": center, "project": True}
    if kind == "ellipse":
        return {"type": "ellipse", "a": rng.uniform(1.0, 1.3), "b": rng.uniform(0.7, 0.85),
                "angle": rng.uniform(0.0, math.pi), "center": center, "project": True}
    return {"type": "perturbed_circle", "radius": rng.uniform(0.7, 1.0),
            "center": center, "project": True,
            "harmonics": [[2, rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08)],
                          [3, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)]]}


def _density_spec(rng, uniform):
    if uniform:
        return {"type": "uniform"}
    return {"type": "cosine", "amplitude": rng.uniform(0.1, 0.5), "harmonic": rng.randint(1, 3)}


LOOP_KINDS = ("circle", "ellipse", "perturbed_circle")


class Certify:
    """One op is one ``bsq bracket-check`` on a one-instance config at N = 512."""

    name = "certify"
    steps_per_op = 0

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def prepare(self, seed, index):
        rng = _rng(self.name, seed, index)
        kind = LOOP_KINDS[index % 3]
        uniform = (index // 3) % 2 == 0
        config = {
            "seed": seed,
            "tolerance": CERTIFY_TOL,
            "n_samples": CERTIFY_N,
            "surface": {"kind": "plane"},
            "pairs": CERTIFY_PAIRS,
            "loops": [dict(_loop_spec(kind, rng), id=kind)],
            "densities": [dict(_density_spec(rng, uniform), id="uniform" if uniform else "cosine")],
        }
        path = os.path.join(self.work_dir, "certify.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        csv_path = os.path.join(self.work_dir, "bracket_check.csv")
        if os.path.exists(csv_path):
            os.unlink(csv_path)
        label = f"{kind}/{'uniform' if uniform else 'cosine'}"
        return {"label": label, "config": path, "csv": csv_path}

    def run(self, item):
        return cli.main(["bracket-check", "--config", item["config"], "--out", self.work_dir])

    def check(self, item, code):
        if code != 0:
            return False, f"exit code {code}"
        with open(item["csv"]) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        if len(rows) != len(CERTIFY_PAIRS):
            return False, f"expected {len(CERTIFY_PAIRS)} rows, got {len(rows)}"
        worst = 0.0
        for row in rows:
            spread = float(row["rel_spread"])
            worst = max(worst, spread)
            if row["status"] != "pass" or not spread <= CERTIFY_TOL:
                return False, f"{row['f']} vs {row['g']}: status {row['status']}, rel_spread {spread:.3e}"
            if float(row["sigma"]) != -1.0:
                return False, f"sigma {row['sigma']} is not -1"
        return True, f"max rel_spread {worst:.2e}"


class ModuliFlow:
    """One op is one ``flow_moduli`` call: N = 128, h = 0.005, 20 RK4 steps."""

    name = "moduli_flow"
    steps_per_op = 0

    def __init__(self, work_dir):
        self.surface = cli.build_surface({"kind": "plane"})

    def prepare(self, seed, index):
        rng = _rng(self.name, seed, index)
        family = index % 3
        if family == 0:
            field = f"{rng.uniform(0.5, 1.0):.4f}*x^2+{rng.uniform(0.5, 1.5):.4f}*y^2"
        elif family == 1:
            field = f"x*y+{rng.uniform(0.1, 0.5):.4f}*x^2"
        else:
            field = f"sin({rng.uniform(0.7, 1.3):.4f}*x)+{rng.uniform(0.5, 1.0):.4f}*y^2"
        kind = LOOP_KINDS[(index // 3) % 3]
        loop = cli.build_loop(_loop_spec(kind, rng), MODULI_N, self.surface)
        theta = cli.build_density(_density_spec(rng, rng.random() < 0.5), MODULI_N)
        point = bsmoduli.ModuliPoint(self.surface, loop, theta)
        return {"label": f"{field} on {kind}", "field": cli.build_field(field), "point": point}

    def run(self, item):
        steps = int(round(MODULI_T_FINAL / MODULI_STEP))
        return dynamics.flow_moduli(
            item["field"], item["point"], MODULI_T_FINAL, MODULI_STEP, snapshot_every=steps
        )

    def check(self, item, traj):
        values = np.asarray(traj.observable_values)
        arrays = (values, traj.volume_defects, traj.bs_defects)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return False, "non-finite trajectory values"
        final = traj.final()
        try:
            bsmoduli.ModuliPoint(self.surface, final.loop, final.theta, strict=True)
        except (ValueError, bsmoduli.GeometryError) as exc:
            return False, f"final state is not a strict moduli point: {exc}"
        drift = float(np.max(np.abs(values - values[0])))
        if not drift <= MODULI_DRIFT_BOUND:
            return False, f"|dF_f| {drift:.3e} exceeds {MODULI_DRIFT_BOUND:.0e}"
        return True, f"|dF_f| {drift:.2e}"


class ClassicalFlow:
    """One op is one ``flow_classical`` call: 500 implicit-midpoint steps at h = 0.01."""

    name = "classical_flow"
    steps_per_op = int(round(CLASSICAL_T_FINAL / CLASSICAL_STEP))

    def __init__(self, work_dir):
        self.plane = cli.build_surface({"kind": "plane"})
        self.torus = cli.build_surface({"kind": "torus", "periods": [2 * math.pi, 2 * math.pi]})
        self.fields = {text: cli.build_field(text) for text in CLASSICAL_DRIFT_BOUNDS}

    def prepare(self, seed, index):
        rng = _rng(self.name, seed, index)
        family = index % 3
        if family == 0:
            text, surface = "(x^2+y^2)/2", self.plane
            r, phi = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * math.pi)
            start = [r * math.cos(phi), r * math.sin(phi)]
        elif family == 1:
            # Pendulum below the separatrix: energy y^2/2 - cos(x) < 1.
            text, surface = "y^2/2-cos(x)", self.plane
            x0 = rng.uniform(-1.5, 1.5)
            energy = rng.uniform(-math.cos(x0), 0.9)
            start = [x0, rng.choice((-1.0, 1.0)) * math.sqrt(2.0 * (energy + math.cos(x0)))]
        else:
            text, surface = "sin(x)+cos(y)", self.torus
            start = [rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)]
        label = f"{text} from ({start[0]:.3f}, {start[1]:.3f})"
        return {"label": label, "text": text, "field": self.fields[text], "surface": surface,
                "start": start}

    def run(self, item):
        return dynamics.flow_classical(
            item["field"], item["surface"], item["start"], CLASSICAL_T_FINAL, CLASSICAL_STEP
        )

    def check(self, item, traj):
        if not np.all(np.isfinite(traj.points)) or len(traj.points) != self.steps_per_op + 1:
            return False, "non-finite or truncated trajectory"
        drift = float(np.max(np.abs(traj.values - traj.values[0])))
        bound = CLASSICAL_DRIFT_BOUNDS[item["text"]]
        if not drift <= bound:
            return False, f"energy drift {drift:.3e} exceeds {bound:.0e}"
        return True, f"energy drift {drift:.2e}"


WORKLOADS = {w.name: w for w in (Certify, ModuliFlow, ClassicalFlow)}

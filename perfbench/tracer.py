"""Spans and counters recorded around calls into the package's modules.

``install`` replaces each traced function, at every name it is bound under in
the loaded ``bsmoduli`` modules (``dynamics.classical_field`` is
``surfaces.hamiltonian_vector_field``; ``observables.sharp`` and
``cli.bracket_report`` are their own bindings), by a wrapper that records a
span while ``Tracer.recording`` is set.  A span is (name, start, end, parent);
spans are kept in flat in-memory arrays and written once, when the run ends.
Self time is a span's duration minus the time its direct child spans cover.

A traced function the package no longer defines is listed in
``Tracer.missing`` and its metrics are reported absent, so a later change that
removes a code path leaves the benchmark running.
"""

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs wrapped by the traced run.
TRACED = (
    ("loops", "project_to_bs"),
    ("loops", "action_integral"),
    ("loops", "loop_derivative"),
    ("surfaces", "hamiltonian_vector_field"),
    ("surfaces", "poisson_bracket_field"),
    ("expressions", "evaluate"),
    ("moduli", "omega_matrix"),
    ("moduli", "sharp"),
    ("observables", "bracket_report"),
    ("observables", "moduli_bracket"),
    ("observables", "hamiltonian_field_H"),
    ("observables", "differential_covector"),
    ("observables", "evaluate_F"),
    ("dynamics", "flow_classical"),
    ("dynamics", "flow_moduli"),
    ("cli", "main"),
    ("cli", "write_csv"),
)

def omega_matrix_flops(n):
    """Dense flops of one pairing-matrix build at N samples, from the algorithm's shapes.

    Two complement bases (coefficients plus an n x n by n x (n-1) product
    each), the (n-1) x n by n x (n-1) K product, and a values-only SVD of K
    (8/3 m^3 for the bidiagonalisation).
    """
    m = n - 1
    basis = 2 * (2 * n * n + 2 * n * n * m)
    return basis + 2 * m * n * m + (8 * m**3) // 3


def sharp_flops(n):
    """Dense flops of one pairing dual: two projections, two LU solves, two lifts."""
    m = n - 1
    return 2 * (2 * n * m) + 2 * ((2 * m**3) // 3 + 2 * m * m) + 2 * (2 * n * m)


class Tracer:
    """In-memory span arrays plus named counters."""

    OP = "op"  # the span around one whole op

    def __init__(self):
        self.recording = False
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.depth = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.missing = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        self.depth[nid] += 1
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.depth[self.name[idx]] -= 1

    def inside(self, name):
        """Whether a span of this name is open."""
        return self.depth[self.name_id(name)] > 0

    def self_times(self):
        """Self time per span name and the share of op time covered by top-level spans."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        busy = {n: float(own[i]) for i, n in enumerate(self.names)}
        ops = name == self.name_id(self.OP)
        coverage = float(child[ops].sum() / dur[ops].sum()) if ops.any() else 0.0
        return busy, coverage

    def write(self, path):
        start = np.frombuffer(self.start, dtype=float)
        origin = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=start - origin,
            end=np.frombuffer(self.end, dtype=float) - origin,
        )


def _wrap(tracer, fn, name, enter=None, leave=None):
    """Span-recording wrapper; ``enter`` may pick the span name or return None for no span."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        sid = nid if enter is None else enter(args, kwargs)
        if sid is None:
            result = fn(*args, **kwargs)
        else:
            idx = tracer.open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        if leave is not None:
            leave(args, kwargs, result)
        return result

    return wrapper


def _hooks(tracer):
    """Per-function span naming and counters, keyed by traced span name."""
    counts = tracer.counts
    evaluate_id = tracer.name_id("expressions.evaluate")

    def count_under(parent, counter, own):
        own_id = tracer.name_id(own)

        def enter(args, kwargs):
            if tracer.inside(parent):
                counts[counter] += 1
            return own_id

        return enter

    def evaluate_enter(args, kwargs):
        # Every node visit is a call; only the outermost visit of a tree is a span.
        if tracer.inside("dynamics.flow_classical"):
            counts["evaluate_in_flow_classical"] += 1
        return None if tracer.depth[evaluate_id] else evaluate_id

    def bracket_enter(args, kwargs):
        method = args[3] if len(args) > 3 else kwargs.get("method", "matrix")
        return tracer.name_id(f"observables.moduli_bracket.{method}")

    def omega_leave(args, kwargs, result):
        counts["dense_flops"] += omega_matrix_flops(args[0].n)

    def sharp_leave(args, kwargs, result):
        counts["dense_flops"] += sharp_flops(args[0].n)

    def csv_leave(args, kwargs, result):
        counts["csv_bytes"] += os.path.getsize(args[0])

    return {
        "expressions.evaluate": (evaluate_enter, None),
        "observables.moduli_bracket": (bracket_enter, None),
        "surfaces.hamiltonian_vector_field": (
            count_under("dynamics.flow_classical", "field_evals_in_flow_classical",
                        "surfaces.hamiltonian_vector_field"),
            None,
        ),
        "loops.action_integral": (
            count_under("loops.project_to_bs", "action_in_project", "loops.action_integral"),
            None,
        ),
        "moduli.omega_matrix": (None, omega_leave),
        "moduli.sharp": (None, sharp_leave),
        "cli.write_csv": (None, csv_leave),
    }


def install(tracer, package="bsmoduli"):
    """Wrap every traced function at each of its bindings in the loaded package modules."""
    modules = [
        mod for key, mod in sys.modules.items()
        if mod is not None and (key == package or key.startswith(package + "."))
    ]
    hooks = _hooks(tracer)
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        home = sys.modules.get(f"{package}.{module_name}")
        fn = getattr(home, func_name, None)
        if fn is None:
            tracer.missing.append(name)
            continue
        enter, leave = hooks.get(name, (None, None))
        wrapper = _wrap(tracer, fn, name, enter, leave)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    # Newton updates of the implicit midpoint rule are its 2x2 linear solves.
    solve = np.linalg.solve

    @functools.wraps(solve)
    def counted_solve(*args, **kwargs):
        if tracer.recording and tracer.inside("dynamics.flow_classical"):
            tracer.counts["solves_in_flow_classical"] += 1
        return solve(*args, **kwargs)

    np.linalg.solve = counted_solve

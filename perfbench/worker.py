"""One benchmark process: set up a workload, run timed ops, print one JSON line.

Started by ``run.py`` in a fresh process whose environment pins the BLAS
threads to 1 and puts the checkout's ``src`` first on ``PYTHONPATH``.
``--setup-only`` stops once the first op is ready; setup time is measured
from the parent's ``--t-spawn`` reading of the monotonic clock, so it covers
interpreter start, ``import bsmoduli`` and input generation.

With ``--trace 1`` the ops run twice from the same first input: first
untraced, then with the wrappers of ``tracer.py`` installed, each for half of
``--seconds``.  The ratio of the two throughputs is the tracing overhead.

Times are reported at a fixed reference speed (see ``Reference``); the raw
wall-clock figures are kept beside them in the result.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time


def percentile(values, q):
    """The q-th percentile (exclusive method), or the single value of a one-sample run."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Reference:
    """Fixed work, owned by the benchmark, whose duration tracks the core's current speed.

    On a shared host, other tenants slow the core by up to 1.6x for seconds
    to minutes at a time (one op repeated back to back took 0.085 s to 0.21 s,
    with its CPU time moving alike and no steal time).  Every op is bracketed
    by two runs of this reference, an interpreter loop plus two dense solves;
    the op's time is scaled by NOMINAL_S over their mean duration.  NOMINAL_S
    is about the reference's duration on a 2.1 GHz Xeon vCPU.
    """

    NOMINAL_S = 0.011

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((400, 400)) + 400.0 * np.eye(400)
        self.rhs = rng.standard_normal(400)
        self.solve = np.linalg.solve
        self()

    def __call__(self):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        for _ in range(2):
            self.solve(self.matrix, self.rhs)
        return time.perf_counter() - start

    def scale(self, seconds, ref_seconds):
        return seconds * self.NOMINAL_S / ref_seconds


def run_phase(workload, seed, seconds, first_item, reference, tracer=None):
    """Run ops until ``seconds`` have passed; each op is timed alone and then checked."""
    op_id = tracer.name_id(tracer.OP) if tracer is not None else None
    verdicts = []
    item = first_item
    index = 0
    began = time.perf_counter()
    ref_before = reference()
    deadline = began + seconds
    while True:
        if item is None:
            item = workload.prepare(seed, index)
        error = None
        result = None
        if tracer is not None:
            tracer.recording = True
            span = tracer.open(op_id)
        start = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # a failing op is counted, never retried
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close(span)
                tracer.recording = False
        ref_after = reference()
        if error is None:
            try:
                ok, detail = workload.check(item, result)
            except Exception as exc:
                ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, detail = False, error
        verdicts.append({
            "index": index, "label": item["label"], "ok": ok, "detail": detail,
            "wall_s": elapsed,
            "seconds": reference.scale(elapsed, 0.5 * (ref_before + ref_after)),
        })
        ref_before = ref_after
        index += 1
        item = None
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - began
    return verdicts, wall


def summarize(verdicts, wall):
    """Throughput per second of op time, and op latency percentiles, at reference speed.

    The ``raw_`` figures are the same statistics of wall-clock time; raw
    throughput divides by the whole phase, benchmark bookkeeping included.
    """
    times = [v["seconds"] for v in verdicts]
    raw = [v["wall_s"] for v in verdicts]
    passed = sum(v["ok"] for v in verdicts)
    p90 = percentile(times, 90)
    return {
        "attempted": len(verdicts),
        "failed": len(verdicts) - passed,
        "ops_per_s": passed / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90,
        "samples_above_p90": sum(t > p90 for t in times),
        "raw_ops_per_s": passed / wall,
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_p90_s": percentile(raw, 90),
        "wall_s": wall,
    }


# Traced functions reported as calls per op, and spans reported as self time per op.
CALLS = (
    "moduli.omega_matrix", "moduli.sharp", "observables.hamiltonian_field_H",
    "loops.project_to_bs", "loops.action_integral", "loops.loop_derivative",
    "surfaces.hamiltonian_vector_field", "expressions.evaluate",
)
BUSY = (
    "moduli.omega_matrix", "moduli.sharp", "observables.bracket_report",
    "observables.moduli_bracket.matrix", "observables.moduli_bracket.closed_form",
    "observables.moduli_bracket.target", "observables.hamiltonian_field_H",
    "observables.differential_covector", "observables.evaluate_F", "loops.project_to_bs",
    "loops.loop_derivative", "surfaces.hamiltonian_vector_field",
    "surfaces.poisson_bracket_field", "dynamics.flow_classical", "dynamics.flow_moduli",
    "cli.main", "cli.write_csv",
)


def per_layer(tracer, summary, untraced, steps_per_op):
    """Per-op layer metrics of the traced phase, as (metrics, names reported absent).

    A ratio whose base is zero (a layer the workload does not call) reads 0.
    """
    busy, coverage = tracer.self_times()
    ops = summary["attempted"]
    steps = ops * steps_per_op
    calls, counts = tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    # name -> (unit, traced functions it needs, value)
    table = {f"{f}.calls": ("calls/op", [f], ratio(calls[f], ops)) for f in CALLS}
    for span in BUSY:
        needs = [".".join(span.split(".")[:2])]
        table[f"{span}.busy_s"] = ("s/op", needs, ratio(busy.get(span, 0.0), ops))
    sharp, omega = "moduli.sharp", "moduli.omega_matrix"
    flow = "dynamics.flow_classical"
    table.update({
        "moduli.sharp_per_omega_matrix": ("ratio", [sharp, omega],
                                          ratio(calls[sharp], calls[omega])),
        "moduli.dense_flops_computed": ("flop/op", [sharp, omega],
                                        ratio(counts["dense_flops"], ops)),
        "loops.projection_passes_per_call": (
            "ratio", ["loops.project_to_bs", "loops.action_integral"],
            ratio(counts["action_in_project"], calls["loops.project_to_bs"])),
        "expressions.evaluate_per_step": ("calls/step", ["expressions.evaluate", flow],
                                          ratio(counts["evaluate_in_flow_classical"], steps)),
        "dynamics.field_evals_per_step": (
            "calls/step", ["surfaces.hamiltonian_vector_field", flow],
            ratio(counts["field_evals_in_flow_classical"], steps)),
        "dynamics.newton_iters_per_step": ("iters/step", [flow],
                                           ratio(counts["solves_in_flow_classical"], steps)),
        "cli.write_csv.bytes": ("B/op", ["cli.write_csv"], ratio(counts["csv_bytes"], ops)),
        "trace.overhead_frac": ("fraction", [],
                                1.0 - ratio(summary["ops_per_s"], untraced["ops_per_s"])),
        "trace.coverage": ("fraction", [], coverage),
    })
    missing = set(tracer.missing)
    metrics, absent = {}, []
    for name, (unit, needs, value) in table.items():
        if missing.intersection(needs):
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def versions():
    from importlib import metadata

    import numpy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    try:
        out["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        out["scipy"] = None
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import bsmoduli

    expected = os.path.realpath(os.path.join(args.src, "bsmoduli"))
    if os.path.dirname(os.path.realpath(bsmoduli.__file__)) != expected:
        sys.stderr.write(f"bsmoduli imported from {bsmoduli.__file__}, not {expected}\n")
        return 2
    from workloads import WORKLOADS

    work_dir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        workload = WORKLOADS[args.workload](work_dir)
        first = workload.prepare(args.seed, 0)
        raw_setup_s = time.monotonic() - args.t_spawn
        reference = Reference()
        ref_s = statistics.median(reference() for _ in range(5))
        out = {"setup_s": reference.scale(raw_setup_s, ref_s), "raw_setup_s": raw_setup_s}
        if not args.setup_only:
            out.update(measure(args, workload, first, reference))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(args, workload, first, reference):
    seconds = args.seconds / 2 if args.trace else args.seconds
    verdicts, wall = run_phase(workload, args.seed, seconds, first, reference)
    untraced = summarize(verdicts, wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "untraced": untraced,
        "peak_rss_mb": rss_mb,
        "verdicts": {"untraced": verdicts},
        "versions": versions(),
    }
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        verdicts, wall = run_phase(workload, args.seed, seconds, workload.prepare(args.seed, 0),
                                   reference, tracer)
        traced = summarize(verdicts, wall)
        metrics, absent = per_layer(tracer, traced, untraced, workload.steps_per_op)
        spans = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.write(spans)
        out.update(traced=traced, per_layer=metrics, absent=absent, spans_file=spans,
                   span_count=len(tracer.start))
        out["verdicts"]["traced"] = verdicts
    return out


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of bsmoduli: one workload, one seed, one command.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (see ``workloads.py``): ``certify`` (bracket-check of one moduli
point at N = 512), ``moduli_flow`` (RK4 flow at N = 128) and
``classical_flow`` (500 implicit-midpoint steps).  Each op is checked for
correctness.

Every workload process is fresh and single-threaded: OPENBLAS/OMP/MKL
threads are pinned to 1 and ``BSQ_THREADS`` is left unset (program default).

``--trace 0`` reports the end-to-end metrics: setup_s (median of five fresh
process set-ups), ops_per_s, op_p50_s, op_p90_s and peak_rss_mb.
``--trace 1`` reports the per-layer metrics of a traced run, with its
overhead against an untraced run of the same ops, and the import times of
``python -X importtime``.

The report lists provenance, the verdict of every op and every metric with
its unit.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result is also written to
``perfbench/out/``.  Exit code 0 means a result was printed (its ``correct``
says whether every op passed); 1 means a process failed or did not finish;
2 means bad arguments or no package source in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify", "moduli_flow", "classical_flow")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
DEADLINE_S = 175.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.pop("BSQ_THREADS", None)
    for key in BLAS_ENV:
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


class ChildFailed(Exception):
    pass


def run_child(cmd, timeout, capture_stderr=False):
    """Run a child to completion (it is killed and reaped on timeout)."""
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, timeout=max(timeout, 1.0),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE if capture_stderr else None,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{cmd[1]} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[1:3])} exited with code {proc.returncode}")
    return proc


def worker(args, deadline, setup_only=False):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT, "--src", SRC, "--t-spawn", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = run_child(cmd, deadline - time.monotonic())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("worker printed no result")
    return json.loads(lines[-1])


def import_times(deadline):
    """Median cumulative import time of bsmoduli and of scipy under it, from -X importtime."""
    bsm, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import bsmoduli"],
                         deadline - time.monotonic(), capture_stderr=True)
        totals = parse_importtime(proc.stderr)
        bsm.append(totals["bsmoduli"])
        scipy.append(totals["scipy"])
    return statistics.median(bsm), statistics.median(scipy)


def parse_importtime(text):
    """Cumulative seconds of 'bsmoduli' and of the outermost scipy imports.

    Each line reads 'import time: self | cumulative | <indent>name'; a module's
    parent is the next later line indented one level less.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"bsmoduli": 0.0, "scipy": 0.0}
    parents = []  # stack of names, walking the lines from last to first
    for depth, name, seconds in reversed(entries):
        del parents[depth:]
        parent = parents[-1] if parents else ""
        if name == "bsmoduli":
            totals["bsmoduli"] = seconds
        elif name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            totals["scipy"] += seconds
        parents.append(name)
    return totals


def provenance(args, versions):
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bsmoduli")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {key: child_env()[key] for key in BLAS_ENV},
        "BSQ_THREADS": "unset (program default)",
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        **(versions or {}),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bsmoduli", "__init__.py")):
        sys.stderr.write(f"no package source at {os.path.join(SRC, 'bsmoduli')}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                probes.append(worker(args, deadline, setup_only=True))
        result = worker(args, deadline)
        probes.append(result)
        imports = import_times(deadline) if args.trace else None
    except (ChildFailed, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    setups = [p["setup_s"] for p in probes]
    raw_setups = [p["raw_setup_s"] for p in probes]
    untraced = result["untraced"]
    end_to_end = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(untraced["ops_per_s"], "1/s"),
        "op_p50_s": metric(untraced["op_p50_s"], "s"),
        "op_p90_s": metric(untraced["op_p90_s"], "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }
    phases = [untraced] + ([result["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["error_rate"] = metric(failed / attempted, "fraction")
        metrics["import.bsmoduli_s"] = metric(imports[0], "s")
        metrics["import.scipy_s"] = metric(imports[1], "s")
    else:
        metrics = end_to_end

    prov = provenance(args, result.get("versions"))
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for phase, verdicts in result["verdicts"].items():
        for v in verdicts:
            print(f"# {phase} op {v['index']:4d} {'pass' if v['ok'] else 'FAIL'} "
                  f"{v['seconds']:.4f} s  {v['label']}: {v['detail']}")
    for name, p in zip(("untraced", "traced"), phases):
        print(f"# {name}: {p['attempted']} ops, {p['failed']} failed, "
              f"{p['samples_above_p90']} samples above p90, {p['wall_s']:.2f} s; wall clock: "
              f"{p['raw_ops_per_s']:.4g} ops/s, p50 {p['raw_op_p50_s']:.4g} s, "
              f"p90 {p['raw_op_p90_s']:.4g} s")
    print("# setups: " + ", ".join(f"{t:.4f} s" for t in setups)
          + "; wall clock: " + ", ".join(f"{t:.4f} s" for t in raw_setups))
    report = dict(end_to_end, **metrics) if args.trace else metrics
    for name, m in report.items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")
    for name in result.get("absent", []):
        print(f"# metric {name} absent: its traced function no longer exists")
    if args.trace:
        print(f"# spans: {result['span_count']} written to {os.path.relpath(result['spans_file'], ROOT)}")

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(line, provenance=prov, all_metrics=report, setups_s=setups,
                       raw_setups_s=raw_setups,
                       phases=phases, absent=result.get("absent", []),
                       verdicts=result["verdicts"]), fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

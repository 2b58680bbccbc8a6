"""Self-test of the benchmark: a tiny fixed-seed run of every workload.

    python3 perfbench/selftest.py

Checks, for each workload, that an untraced and a traced run of two seconds
fail no op and emit every metric BENCHMARK.json names, with its unit, and
that the traced run's spans cover at least COVERAGE_FLOOR of the op time.
It also checks that the benchmark exits non-zero, without a result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
Exit code 0 means every check passed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 12345
SECONDS = "2"
COVERAGE_FLOOR = 0.95
TIMEOUT_S = 180


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} ops failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} reads {got}, expected unit {m['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace:
        coverage = result["metrics"].get("trace.coverage", {}).get("value", 0.0)
        if coverage < COVERAGE_FLOOR:
            problems.append(f"trace.coverage {coverage:.3f} below {COVERAGE_FLOOR}")
    return problems


def check_without_source():
    """In a tree of only BENCHMARK.json and perfbench/, the benchmark must refuse to run."""
    scratch = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(scratch, "certify", 0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"exit code {proc.returncode} with output {lines[-1:]}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    checks = [(f"{w['name']} trace={t}", lambda w=w, t=t: check_run(spec, w["name"], t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("refuses to run without the package source", check_without_source))
    failures = 0
    for label, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {label}")
        for problem in problems:
            print(f"       {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

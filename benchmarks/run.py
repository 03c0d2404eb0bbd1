"""Benchmark for expanderprune: end-to-end workloads plus a traced per-layer run.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload desk-imp --seed 7 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

One run sets up the workload's inputs from the seed (several times, the
median is reported), then repeats the timed unit (one IMP trajectory or
one audit) while another unit fits in ``--seconds``, at least the
workload's minimum, and checks every output against an independent dense
reference.  With ``--trace 1`` it also runs one unit with spans around
each module's public functions and reports per-layer metrics.  The last
line of standard output is one JSON object: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A results file with the environment fingerprint, every
metric, count and check lands in ``.bench_out/``.

The BLAS thread count is inherited from the environment and recorded,
never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk-imp", "wide-imp", "layer-audit")
SETUP_REPEATS = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXTRA_UNITS = {
    "time_to_dense_s": "s",
    "round_s_p50": "s",
    "reports_per_s": "1/s",
    "dense_accuracy": "fraction",
    "failed_ops_frac": "ratio",
}


def git_commit() -> str:
    """HEAD's commit read from the checkout's own .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def import_seconds() -> float:
    """Seconds `import expanderprune` takes in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import expanderprune; "
            "print(time.perf_counter() - t)")
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                           env={**os.environ, "PYTHONPATH": str(SRC)},
                           text=True, check=True, timeout=120)
    return float(child.stdout)


def run_workload(args, work: Path) -> dict:
    import oracle
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    expectations = json.loads((Path(__file__).parent / "predictions.json").read_text())
    expected_failures = [f["check"] for f in expectations["expected_failures"]]

    # Set-up is importing the package plus generating the inputs; both are
    # repeated and each part reported as its median.
    import_samples, input_samples = [], []
    for i in range(SETUP_REPEATS):
        import_samples.append(import_seconds())
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, work / f"setup{i}")
        input_samples.append(time.perf_counter() - t0)

    units = []
    started = time.perf_counter()
    while True:
        units.append(workload.run_unit(inputs, work / f"unit{len(units)}"))
        elapsed = time.perf_counter() - started
        if len(units) >= workload.min_units and elapsed + units[-1]["wall_s"] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = traced = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed(), tracer.span(tracing.RUN):
            traced = workload.run_unit(inputs, work / "traced")

    checks = oracle.Checks(expected_failures)
    workload.check(inputs, units[0], checks)
    for i, unit in enumerate(units[1:] + ([traced] if traced else []), start=1):
        checks.check(unit["digest"] == units[0]["digest"], f"{workload.name}/determinism/{i}")

    walls = [u["wall_s"] for u in units]
    metrics = {
        "setup_s": statistics.median(import_samples) + statistics.median(input_samples),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    if "round_s" in units[0]:
        rounds = [s for u in units for s in u["round_s"]]
        metrics["time_to_dense_s"] = statistics.median(u["time_to_dense_s"] for u in units)
        metrics["round_s_p50"] = statistics.median(rounds)
        metrics["dense_accuracy"] = units[0]["dense_accuracy"]
    else:
        metrics["reports_per_s"] = statistics.median(u["reports_per_s"] for u in units)

    per_layer, table = {}, {}
    if tracer:
        table = tracing.summarize(tracer)
        per_layer = tracing.per_layer_metrics(
            table, tracing.layer_coverage(tracer), traced["wall_s"] - metrics["wall_s"])
        per_layer["formats.trajectory.bytes"] = traced.get("trajectory_bytes", 0)
        for name, want in workload.expected_counts(inputs, units[0]).items():
            checks.check(per_layer[name] == want, f"{workload.name}/counts/{name}")

    metrics["failed_ops_frac"] = checks.failed / checks.attempted
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "per_layer": per_layer,
        "spans_by_name": table,
        "units": [{"wall_s": u["wall_s"], "digest": u["digest"]} for u in units],
        "setup_import_s": import_samples,
        "setup_inputs_s": input_samples,
        "round_count": len(units[0].get("round_s", [])),
        "checks": {
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures,
            "unexpected": checks.unexpected,
        },
        "spans": tracer.spans if tracer else [],
    }


def print_report(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    checks = result["checks"]
    print(f"== {result['workload']} seed={result['seed']} units={len(result['units'])} "
          f"trace={result['trace']}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "round_s_p50":
            note = f"  (n={result['round_count'] * len(result['units'])})"
        elif name == "failed_ops_frac":
            note = f"  ({checks['failed']} failed / {checks['attempted']} attempted)"
        print(f"  {name:<32} {value:>14.6g} {units[name]}{note}")
    for label in checks["failures"]:
        tag = "UNEXPECTED" if label in checks["unexpected"] else "expected"
        print(f"  failed check ({tag}): {label}")
    if result["per_layer"]:
        print("  per layer:")
        for name, value in result["per_layer"].items():
            print(f"  {name:<32} {value:>14.6g} {units[name]}")
        print("  spans by name:               calls        incl s        self s          count")
        for name, row in sorted(result["spans_by_name"].items()):
            print(f"  {name:<26} {row['calls']:>9} {row['s']:>13.4f} {row['self_s']:>13.4f}"
                  f" {row['count']:>14}")
            for key, calls in sorted(row["keys"].items()):
                print(f"    {key:<40} {calls:>7}")


def run_all(args) -> int:
    """Run every workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "expanderprune" / "__init__.py").is_file():
        print(f"error: no expanderprune sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import expanderprune

    if Path(expanderprune.__file__).resolve().parent != SRC / "expanderprune":
        print(f"error: imported expanderprune from {expanderprune.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = fingerprint()
    work = OUT / f"work-{os.getpid()}"
    try:
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["environment"] = env

    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    spans = result.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            f.writelines(json.dumps(span) + "\n" for span in spans)

    print_report(result, spec)
    values = {**result["metrics"], **result["per_layer"]}
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    checks = result["checks"]
    print(json.dumps({
        "correct": not checks["unexpected"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""lpentropy benchmark: seeded workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload radial_quadrature --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, timed and then traced

It runs the library from `src/` of the checkout it sits in.  The report
goes to stdout; its last line is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json
with --trace 0, its per_layer metrics with --trace 1.  Run records and
span files go to `.bench_build/lpentropy-bench/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
from importlib import metadata

WORKLOADS = ("cli_cold", "radial_quadrature", "manifold_descent")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed per run for setup_s; the median is reported
SETUPS = 5

#: numpy's OpenBLAS would otherwise start one thread per core it sees
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_NOTES = {
    "setup_s": "median of {setup_samples} fresh interpreters, import + warm-up call; "
               "{setup_raw_s:.4g} s as measured",
    "calls_per_s": "{calls} calls in {busy_s:.3f} s of call time; {raw_calls_per_s:.4g} as measured",
    "latency_p50_s": "median of {calls} calls; {raw_latency_p50_s:.4g} s as measured",
    "latency_tail_s": "p{latency_tail_pct} of {calls} calls, ten or more beyond it",
    "failed_ratio": "{failed} failed / {attempted} attempted: {failed_timed} of {calls} "
                    "timed calls, {failed_references} of {references_run} after the timed window",
    "check_worst_ratio": "{check_worst_name}; above 1 means failed",
    "peak_rss_mb": "{rss_of}",
}
E2E_UNITS = {"setup_s": "s", "calls_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
             "failed_ratio": "ratio", "check_worst_ratio": "ratio", "peak_rss_mb": "MB"}


def environment(seed: int) -> dict:
    """What the numbers depend on: machine, interpreter, libraries, threads, seed."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            def read(name, entry=entry):
                with open(os.path.join(base, entry, name)) as fh:
                    return fh.read().strip()
            kind = read("type")
            label = "L" + read("level") + {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[label] = read("size")
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches or "unknown",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def prepare_environment() -> None:
    """Pin BLAS/OpenMP threads to 1 and put src/ first on the path, for this
    process and every interpreter it starts; byte-compile src/ (the build)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != SRC])
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # compiled once here, so no timed interpreter compiles sources
    compileall.compile_dir(SRC, quiet=1)


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None,
            setups: int = SETUPS) -> dict:
    """One run of one workload; returns the record that run.py prints and saves."""
    import harness
    import workloads

    workload = workloads.WORKLOADS[name]
    sizes = sizes or workloads.FULL
    scratch = os.path.join(ROOT, ".bench_build", "lpentropy-bench")
    os.makedirs(scratch, exist_ok=True)
    probe = harness.setup_probes(workload, scratch, setups)
    record = {"workload": name, "seconds": seconds, "trace": int(trace),
              "environment": environment(seed), "setup": probe}
    if not trace:
        run = harness.timed_run(workload, seed, seconds, sizes, scratch)
        run["setup_s"] = probe["setup_s"]
        record["run"] = run
        record["metrics"] = {k: (run[k], E2E_UNITS[k]) for k in E2E_UNITS}
    else:
        run = harness.traced_run(workload, seed, seconds, sizes, scratch)
        record["metrics"] = harness.layer_metrics(workload, run, probe)
        record["run"] = {k: v for k, v in run.items()
                         if k not in ("tracer", "results", "cli_subprocess")}
    return record


def report(record: dict) -> list:
    """Human-readable lines: environment, then every metric by name with its unit."""
    run, env = record["run"], record["environment"]
    lines = [f"# lpentropy benchmark: workload={record['workload']} seed={env['seed']} "
             f"seconds={record['seconds']} trace={record['trace']}",
             "# environment: " + json.dumps(env, sort_keys=True)]
    if not record["trace"]:
        facts = dict(run, setup_samples=record["setup"]["samples"],
                     setup_raw_s=record["setup"]["setup_raw_s"],
                     rss_of="largest CLI child process" if record["workload"] == "cli_cold"
                     else "worker process")
        lines.append(f"# timings at the reference speed: calibration kernel "
                     f"{run['calibration_s']:.4g} s here, {run['calibration_reference_s']} s "
                     f"by definition")
        for name, (value, unit) in record["metrics"].items():
            lines.append(f"{name:<20} {value:<22.6g} {unit:<6} {E2E_NOTES[name].format(**facts)}")
        for ref in run.get("references", []):
            lines.append(f"# call after the timed window: {ref}")
        if run["unconverged"]:
            lines.append(f"# {run['unconverged']} of {run['attempted']} calls end above the "
                         f"Euler-Lagrange tolerance where no acceptance criterion requires it "
                         f"(worst ratio {run['unconverged_worst_ratio']:.3g}); reported, not "
                         f"counted in failed")
    else:
        for name, item in record["metrics"].items():
            text = "not exercised" if item is None else f"{item[0]:<22.6g} {item[1]}"
            lines.append(f"{name:<50} {text}")
        lines.append("# profiles.nodes_per_s and profiles.bytes_computed are computed, not measured; "
                     "800k- and 200k-node float64 arrays (6.4 and 1.6 MB) exceed L2 and fit in L3 "
                     f"({env['caches']}): not a roofline measurement")
        lines.append(f"# spans written to {os.path.relpath(run['spans_path'], ROOT)}")
    if run["raised"] or run["checks_failed"]:
        lines.append(f"# failed checks: {run['checks_failed']}; raised: {run['raised']}")
    return lines


def result_line(record: dict, manifest: dict) -> dict:
    section = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for spec in manifest[section]:
        item = record["metrics"].get(spec["name"])
        if item is None:
            raise RuntimeError(f"{record['workload']} did not measure {spec['name']}")
        metrics[spec["name"]] = {"value": item[0], "unit": spec["unit"]}
    run = record["run"]
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured call time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "lpentropy", "__init__.py")):
        print(f"error: no lpentropy sources under {SRC}", file=sys.stderr)
        return 2
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]

    prepare_environment()
    import lpentropy

    if not os.path.abspath(lpentropy.__file__).startswith(SRC + os.sep):
        print(f"error: lpentropy imported from {lpentropy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all" and args.trace is not None:
        record = measure(args.workload, args.seed, seconds, bool(args.trace))
        out = os.path.join(ROOT, ".bench_build", "lpentropy-bench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        print("\n".join(report(record)))
        print(json.dumps(result_line(record, manifest)))
        return 0

    # several runs: each in its own interpreter, so that peak RSS and the
    # tracer's patches of one run never reach the next
    names = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    results = {}
    for name in names:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                return proc.returncode
            *lines, last = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines), flush=True)
            results[f"{name}/trace{trace}"] = json.loads(last)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

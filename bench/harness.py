"""Closed-loop timing, traced runs, and the metrics derived from them."""

from __future__ import annotations

import gzip
import inspect
import itertools
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

import calibration
import workloads as wl
from probe import MARKER as PROBE_MARKER
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: the lpentropy modules, in the order the layer report lists them
MODULES = ("cli", "constants", "special_fn", "profiles", "euclidean_inequalities",
           "gn_estimator", "manifold_geometry", "manifold_minimizer", "hypercontractivity")

#: float64 arrays read or written once per node by each profiles kernel
KERNEL_ARRAYS = {"profiles.radial_derivative": 3, "profiles._measure_weights": 2}

#: exponents of the traced family-scan call (`estimate_gn_constant` with no ascent)
FAMILY_SCAN = {"n": 3, "p": 2.0, "q": 1.8, "r": 2.0}

#: packages whose import time the set-up report splits out
IMPORT_FAMILIES = ("numpy", "scipy", "lpentropy")


class Calibration:
    """Tracks the machine's speed with a fixed kernel timed between calls.

    The machine this benchmark runs on is shared: its speed drifts by 10 to
    40 % between runs.  A run's timings are therefore reported at a
    reference speed.  Work in this process is calibrated by the kernel run
    here: each time is multiplied by the reference time over the median
    kernel time of the run.  With `per_call`, the median is taken over the
    kernels run after the previous call, after this call and after the next
    one instead, which follows swings of the machine's speed within a run.
    Work in fresh interpreters (CLI calls, set-up probes)
    is calibrated by the kernel run as a fresh interpreter, since start-up
    and imports drift differently from compute in a warm process; as the
    speed of start-up changes from one process to the next, each such time
    is scaled by the kernel interpreter started right after it.  No library
    code runs in the kernel, so a library change cannot move it.
    """

    #: kernel times that define the reference speed (about this machine's medians)
    REFERENCE_S = {"in-process": 0.005, "fresh-process": 0.15}

    def __init__(self, fresh_process: bool, scratch: str, per_call: bool = False):
        self.mode = "fresh-process" if fresh_process else "in-process"
        self.scratch = scratch
        self.per_call = per_call
        self.times: list = []

    def measure(self) -> None:
        if self.mode == "fresh-process":
            wall, code, _ = spawn([sys.executable, os.path.join(HERE, "calibration.py")],
                                  os.path.join(self.scratch, "calibration.out"))
            if code != 0:
                raise RuntimeError(f"calibration kernel exited with {code}")
            self.times.append(wall)
        else:
            # the first pass brings the array back into cache and the core
            # out of idle after a large call; only the second is timed
            calibration.kernel()
            self.times.append(calibration.kernel())

    def scale(self, times: list) -> list:
        """`times`, one per measure() in the same order, at the reference speed."""
        ref = self.REFERENCE_S[self.mode]
        if self.mode == "fresh-process":
            return [t * ref / k for t, k in zip(times, self.times, strict=True)]
        if self.per_call:
            ks = self.times
            if len(times) != len(ks):
                raise ValueError(f"{len(times)} times for {len(ks)} kernel timings")
            return [t * ref / statistics.median(ks[max(0, i - 1):i + 2])
                    for i, t in enumerate(times)]
        return [t * ref / statistics.median(self.times) for t in times]


def spawn(argv: list, out_path: str, err_path: str | None = None) -> tuple:
    """Run argv with stdout to out_path (and stderr to err_path, if given);
    return (wall s, exit code, peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path or os.devnull, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1)]
        if err_path:
            actions.append((os.POSIX_SPAWN_DUP2, err.fileno(), 2))
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss


@dataclass
class Sample:
    kind: str
    latency: float
    raised: str | None = None
    checks: list = field(default_factory=list)
    #: whether the call's convergence checks count, like its identity checks
    gated: bool = False

    @property
    def counted(self) -> list:
        """The checks that decide whether the call failed."""
        return [c for c in self.checks if c.kind == "identity" or self.gated]

    @property
    def failed(self) -> bool:
        return self.raised is not None or not all(c.passed for c in self.counted)

    @property
    def unconverged(self) -> list:
        """Convergence checks missed where no acceptance criterion requires them."""
        return [c for c in self.checks if c.kind == "convergence" and not self.gated
                and not c.passed]


class Runner:
    """Executes the calls of one workload, in process or as CLI subprocesses."""

    def __init__(self, workload: wl.Workload, sizes: wl.Sizes, scratch: str,
                 subprocess_cli: bool = False, tracer: Tracer | None = None):
        self.workload = workload
        self.sizes = sizes
        self.scratch = scratch
        self.subprocess_cli = subprocess_cli
        self.tracer = tracer
        self.child_rss_kib = 0
        self._wall = 0.0

    def _execute(self, call: wl.Call):
        if not self.subprocess_cli:
            return self.workload.execute(call, self.sizes)
        out_path = os.path.join(self.scratch, "cli-stdout.json")
        argv = [sys.executable, "-m", "lpentropy.cli"] + self.workload.argv(call, self.sizes)
        wall, code, rss = spawn(argv, out_path)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        self._wall = wall
        if code != 0:
            raise RuntimeError(f"lpentropy {call.kind} exited with {code}")
        with open(out_path) as fh:
            return fh.read()

    def run(self, call: wl.Call, call_id: int = 0) -> Sample:
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                raw = self._execute(call)
            else:
                with self.tracer.span(f"call.{call.kind}", call_id):
                    raw = self._execute(call)
        except Exception as exc:  # a failed call is counted, and the run goes on
            return Sample(call.kind, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
        latency = self._wall if self.subprocess_cli else time.perf_counter() - t0
        return Sample(call.kind, latency, None,
                      self.workload.check(call, self.workload.output(call, raw)),
                      gated=self.workload.must_converge(call))


def closed_loop(runner: Runner, cycles, seconds: float,
                speed: Calibration | None = None) -> tuple:
    """Issue calls back to back, a whole cycle at a time, until `seconds` of
    call time have passed.  Whole cycles keep the mix of calls the same in
    every run; a run overshoots `seconds` by less than one cycle."""
    samples, issued = [], []
    busy = 0.0
    for cycle in cycles:
        for call in cycle:
            sample = runner.run(call, len(samples))
            if speed is not None:
                speed.measure()
            samples.append(sample)
            issued.append(call)
            busy += sample.latency
        if busy >= seconds:
            break
    return samples, issued


def tail(latencies: list) -> tuple:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Returns (value, percentile); with ten samples or fewer no such
    percentile exists and the maximum is returned as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def outcome(samples: list) -> dict:
    counted = [c for s in samples for c in s.counted]
    worst = max(counted, key=lambda c: c.ratio) if counted else None
    failed = sum(s.failed for s in samples)
    missed = [c for s in samples for c in s.unconverged]
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "failed_ratio": failed / len(samples),
        "check_worst_ratio": worst.ratio if worst else 0.0,
        "check_worst_name": worst.name if worst else "",
        "unconverged": sum(bool(s.unconverged) for s in samples),
        "unconverged_worst_ratio": max((c.ratio for c in missed), default=0.0),
        "raised": sorted({s.raised for s in samples if s.raised}),
        "checks_failed": sorted({c.name for s in samples for c in s.counted if not c.passed}),
    }


# ---------------------------------------------------------------------------
# set-up probes


def import_split(lines) -> dict:
    """Seconds spent importing numpy, scipy and lpentropy, from `-X importtime` lines.

    The lines list children before parents, indented two spaces per level.
    A module's self time goes to numpy or scipy if it or a module that
    imported it belongs to that package (the outermost one counts), else to
    lpentropy if it or an importer belongs to lpentropy.  So `numpy_s` also
    holds the standard-library modules that numpy was first to import, and
    the numpy submodules that scipy was first to import count for scipy.
    """
    entries = []
    for line in lines:
        parts = line.rstrip("\n").split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":", 1)[1])
        except ValueError:  # the header line
            continue
        name = parts[2][1:]
        entries.append((len(name) - len(name.lstrip(" ")), name.strip(), self_us))
    totals = dict.fromkeys(IMPORT_FAMILIES, 0)
    stack: list = []  # (level, family) of the importers of the current entry
    for level, name, self_us in reversed(entries):  # parents first
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        family = stack[-1][1] if stack else None
        if family in (None, "lpentropy") and top in totals:
            family = top
        stack.append((level, family))
        if family:
            totals[family] += self_us
    return {f"{family}_s": us * 1e-6 for family, us in totals.items()}


def setup_probes(workload: wl.Workload, scratch: str, count: int) -> dict:
    """Time `count` fresh interpreters that import the workload and warm it up.

    For cli_cold the probe imports lpentropy.cli and runs one subcommand,
    as `python -m lpentropy.cli` does; otherwise it imports the workload's
    modules and runs its warm-up.  The probe's own import of the benchmark
    code is taken off its wall time.
    """
    speed = Calibration(fresh_process=True, scratch=scratch)
    if workload.name == "cli_cold":
        args = ["cli", *workload.argv(workload.WARMUP_CALL, wl.FULL)]
    else:
        args = [workload.name, *workload.modules]
    argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "probe.py"), *args]
    out_path = os.path.join(scratch, "probe.json")
    err_path = os.path.join(scratch, "probe-importtime.txt")
    walls, parts = [], []
    for _ in range(count):
        wall, code, _ = spawn(argv, out_path, err_path)
        if code != 0:
            raise RuntimeError(f"set-up probe for {workload.name} exited with {code}")
        with open(out_path) as fh:
            stages = json.load(fh)
        with open(err_path) as fh:
            stages.update(import_split(
                itertools.takewhile(lambda line: line.strip() != PROBE_MARKER, fh)))
        parts.append(stages)
        walls.append(wall - stages["harness_s"])
        speed.measure()
    med = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    return {"setup_s": statistics.median(speed.scale(walls)),
            "setup_raw_s": statistics.median(walls),
            "samples": len(walls), **med}


# ---------------------------------------------------------------------------
# the untraced run


def timed_run(workload: wl.Workload, seed: int, seconds: float, sizes: wl.Sizes,
              scratch: str) -> dict:
    cli = workload.name == "cli_cold"
    if not cli:
        workload.warmup()
    runner = Runner(workload, sizes, scratch, subprocess_cli=cli)
    speed = Calibration(fresh_process=cli, scratch=scratch,
                        per_call=workload.calibrate_per_call)
    samples, _ = closed_loop(runner, workload.cycles(seed), seconds, speed)
    refs = [runner.run(call) for call in workload.references()]
    raw = [s.latency for s in samples]
    lat = speed.scale(raw)
    tail_value, tail_pct = tail(lat)
    if cli:
        rss_mb = runner.child_rss_kib / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = outcome(samples + refs)
    result.update({
        "failed_timed": sum(s.failed for s in samples),
        "failed_references": sum(s.failed for s in refs),
        "references_run": len(refs),
        "calls": len(samples),
        "busy_s": sum(raw),
        "calls_per_s": len(samples) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "latency_tail_pct": tail_pct,
        "raw_calls_per_s": len(samples) / sum(raw),
        "raw_latency_p50_s": statistics.median(raw),
        "calibration_s": statistics.median(speed.times),
        "calibration_reference_s": Calibration.REFERENCE_S[speed.mode],
        "peak_rss_mb": rss_mb,
        "references": [{"kind": s.kind, "latency_s": s.latency, "failed": s.failed,
                        "unconverged": [(c.name, c.ratio) for c in s.unconverged]}
                       for s in refs],
    })
    return result


# ---------------------------------------------------------------------------
# the traced run


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _record(results: dict, name: str, extract):
    """Tracer hook: keep a few scalars of each call to `name`."""
    def hook(tracer: Tracer, idx: int, fn, args, kwargs, value):
        results.setdefault(name, {})[idx] = extract(_arguments(fn, args, kwargs), value)
    return hook


def result_hooks(results: dict) -> dict:
    specs = {
        "profiles.radial_derivative": lambda a, r: {"nodes": len(a["grid"])},
        "profiles._measure_weights": lambda a, r: {"nodes": len(a["grid"])},
        "profiles.extremal_integrals": lambda a, r: {"max_rel_difference": r.max_rel_difference},
        "euclidean_inequalities.entropy_deficit": lambda a, r: {"deficit": r},
        "gn_estimator.estimate_gn_constant": lambda a, r: {
            "iterations": r.ascent_iterations, "max_iters": a["ascent_iters"],
            "ascent_gain": r.ascent_gain},
        "manifold_geometry.fit_expansion": lambda a, r: {
            "rel_dev_c2": (max(r.fits["mass"]["rel_dev_c2"], r.fits["grad"]["rel_dev_c2"])
                           if r.reference["scalar_curvature"] > 0 else None)},
        "manifold_minimizer.minimize_gn_functional": lambda a, r: dict(
            wl.minimize_summary(a["p"], a["q"], r), max_iters=a["max_iters"]),
        "hypercontractivity.bakry_integrals": lambda a, r: {
            "t_rel_err": abs(r.t - r.t_closed) / r.t_closed},
    }
    return {name: _record(results, name, fn) for name, fn in specs.items()}


def traced_run(workload: wl.Workload, seed: int, seconds: float, sizes: wl.Sizes,
               scratch: str) -> dict:
    """Untraced pass for half the time, then the same calls traced.

    For cli_cold the untraced pass runs the CLI as subprocesses; the same
    argument lists then run in process through cli.main, once untraced and
    once traced, which gives the handler share and the tracing overhead.
    """
    cli = workload.name == "cli_cold"
    workload.warmup()
    first = Runner(workload, sizes, scratch, subprocess_cli=cli)
    speed = Calibration(fresh_process=cli, scratch=scratch)
    samples, issued = closed_loop(first, workload.cycles(seed), seconds / 2.0, speed)
    extra = {}
    baseline = samples
    if cli:
        plain = Runner(workload, sizes, scratch)
        baseline = [plain.run(call) for call in issued]
        extra["cli_subprocess"] = samples
    results: dict = {}
    tracer = Tracer(hooks=result_hooks(results))
    traced = Runner(workload, sizes, scratch, tracer=tracer)
    tracer.install()
    try:
        traced_samples = [traced.run(call, i) for i, call in enumerate(issued)]
        ref_samples = [traced.run(call, len(issued) + i)
                       for i, call in enumerate(workload.references())]
        family_call = len(issued) + len(ref_samples)
        with tracer.span("call.family_scan", family_call):
            wl.lib("gn_estimator").estimate_gn_constant(
                wl.lib("constants").InequalityParams(**FAMILY_SCAN), n_nodes=sizes.gn_nodes,
                ascent_iters=0)
    finally:
        tracer.uninstall()
    checked = samples + traced_samples + ref_samples + (baseline if cli else [])
    spans_path = os.path.join(scratch, f"{workload.name}-seed{seed}-spans.json.gz")
    with gzip.open(spans_path, "wt") as fh:
        tracer.write(fh)
    return {
        **outcome(checked),
        "tracer": tracer,
        "results": results,
        "family_call": family_call,
        "calibration_s": statistics.median(speed.times),
        "untraced_s": sum(s.latency for s in baseline),
        "traced_s": sum(s.latency for s in traced_samples),
        "spans_path": spans_path,
        **extra,
    }


def layer_metrics(workload: wl.Workload, run: dict, probe: dict) -> dict:
    """Every per-layer figure of the workload: name -> (value, unit); None if not exercised."""
    tracer: Tracer = run["tracer"]
    results: dict = run["results"]
    family_call = run["family_call"]
    names = tracer.names
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    selfs = tracer.self_times()
    by_name: dict = {}
    for i, nid in enumerate(tracer.name):
        by_name.setdefault(names[nid], []).append(i)
    top_wall = sum(d for d, p in zip(durations, tracer.parent) if p < 0)
    m: dict = {}

    def spans(name, family=False):
        return [i for i in by_name.get(name, []) if (tracer.call[i] == family_call) == family]

    def median_s(name):
        idx = spans(name)
        return (statistics.median(durations[i] for i in idx), "s") if idx else None

    def values(name, key):
        return [v[key] for v in results.get(name, {}).values() if v[key] is not None]

    def agg(fn, xs, unit):
        return (fn(xs), unit) if xs else None

    # set-up, from the probes: fresh interpreters, medians
    m["import.s"] = (probe["import_s"], "s")
    m["import.numpy_s"] = (probe["numpy_s"], "s")
    m["import.scipy_s"] = (probe["scipy_s"], "s")
    m["import.lpentropy_s"] = (probe["lpentropy_s"], "s")
    m["setup.warmup_s"] = (probe["warmup_s"], "s")
    m["machine.calibration_s"] = (run["calibration_s"], "s")
    m["trace.overhead_s"] = (run["traced_s"] - run["untraced_s"], "s")
    m["trace.spans"] = (len(tracer), "count")

    for mod in MODULES:
        idx = [i for i, nid in enumerate(tracer.name) if names[nid].startswith(mod + ".")]
        self_s = sum(selfs[i] for i in idx)
        m[f"{mod}.calls"] = (len(idx), "count")
        m[f"{mod}.self_s"] = (self_s, "s") if idx else None
        m[f"{mod}.self_share"] = (self_s / top_wall, "ratio")

    # cli
    if workload.name == "cli_cold":
        sub = run["cli_subprocess"]
        m["cli.import_s"] = (probe["import_s"], "s")
        m["cli.import_numpy_s"] = (probe["numpy_s"], "s")
        m["cli.import_scipy_s"] = (probe["scipy_s"], "s")
        m["cli.handler_share"] = (run["untraced_s"] / sum(s.latency for s in sub), "ratio")
        for kind in dict.fromkeys(s.kind for s in sub):
            m[f"cli.{kind}.p50_s"] = (statistics.median(s.latency for s in sub if s.kind == kind), "s")

    # profiles
    m["profiles.extremal_integrals.s"] = median_s("profiles.extremal_integrals")
    m["profiles.extremal_integrals.max_rel_difference"] = agg(
        max, values("profiles.extremal_integrals", "max_rel_difference"), "ratio")
    m["profiles.radial_derivative.calls"] = (len(spans("profiles.radial_derivative")), "count")
    m["profiles.radial_derivative.s"] = median_s("profiles.radial_derivative")
    kernel = [(i, name) for name in KERNEL_ARRAYS for i in by_name.get(name, [])]
    if kernel:
        nodes = sum(results[name][i]["nodes"] for i, name in kernel)
        m["profiles.nodes_per_s"] = (nodes / sum(selfs[i] for i, _ in kernel), "1/s")
        m["profiles.bytes_computed"] = (
            sum(8 * KERNEL_ARRAYS[name] * results[name][i]["nodes"] for i, name in kernel), "B")
    else:
        m["profiles.nodes_per_s"] = m["profiles.bytes_computed"] = None

    # euclidean_inequalities
    m["euclidean_inequalities.entropy_deficit.s"] = median_s("euclidean_inequalities.entropy_deficit")
    m["euclidean_inequalities.limit_pde_residual.s"] = median_s(
        "euclidean_inequalities.limit_pde_residual")
    m["euclidean_inequalities.deficit_min"] = agg(
        min, values("euclidean_inequalities.entropy_deficit", "deficit"), "1")

    # gn_estimator: the family-scan probe call is kept apart from the workload's estimates
    ascents = [v for i, v in results.get("gn_estimator.estimate_gn_constant", {}).items()
               if tracer.call[i] != family_call]
    estimate_s = sum(durations[i] for i in spans("gn_estimator.estimate_gn_constant"))
    family = spans("gn_estimator.estimate_gn_constant", family=True)
    m["gn_estimator.estimate.s"] = median_s("gn_estimator.estimate_gn_constant")
    m["gn_estimator.family_scan.s"] = (durations[family[0]], "s") if family else None
    m["gn_estimator.fd_matrix.s"] = median_s("gn_estimator.fd_matrix")
    m["gn_estimator.ascent_iters"] = agg(statistics.median, [v["iterations"] for v in ascents],
                                         "count")
    m["gn_estimator.ascent_cap_hit_ratio"] = agg(
        statistics.mean, [float(v["iterations"] >= v["max_iters"]) for v in ascents], "ratio")
    total_iters = sum(v["iterations"] for v in ascents)
    m["gn_estimator.s_per_ascent_iter"] = (estimate_s / total_iters, "s") if total_iters else None
    m["gn_estimator.ascent_gain"] = agg(statistics.median, [v["ascent_gain"] for v in ascents],
                                        "1")

    # manifold_geometry
    m["manifold_geometry.bubble_integrals.calls"] = (
        len(spans("manifold_geometry.bubble_integrals")), "count")
    m["manifold_geometry.bubble_integrals.s"] = median_s("manifold_geometry.bubble_integrals")
    m["manifold_geometry.fit_expansion.s"] = median_s("manifold_geometry.fit_expansion")
    fits = spans("manifold_geometry.fit_expansion")
    oracle = [sum(durations[j] for j in by_name.get("profiles.extremal_integrals", [])
                  if tracer.parent[j] == i) for i in fits]
    m["manifold_geometry.fit_expansion.oracle_s"] = agg(statistics.median, oracle, "s")
    m["manifold_geometry.rel_dev_c2_max"] = agg(
        max, values("manifold_geometry.fit_expansion", "rel_dev_c2"), "ratio")

    # manifold_minimizer
    mins = list(results.get("manifold_minimizer.minimize_gn_functional", {}).values())
    iters = sum(v["iterations"] for v in mins)
    min_s = sum(durations[i] for i in spans("manifold_minimizer.minimize_gn_functional"))
    m["manifold_minimizer.minimize.s"] = median_s("manifold_minimizer.minimize_gn_functional")
    m["manifold_minimizer.minimize.iterations"] = agg(
        statistics.median, [v["iterations"] for v in mins], "count")
    m["manifold_minimizer.s_per_iter"] = (min_s / iters, "s") if iters else None
    m["manifold_minimizer.cap_hit_ratio"] = agg(
        statistics.mean, [float(v["iterations"] >= v["max_iters"]) for v in mins], "ratio")
    m["manifold_minimizer.used_constant_ratio"] = agg(
        statistics.mean, [float(v["used_constant"]) for v in mins], "ratio")
    m["manifold_minimizer.el_residual_max"] = agg(max, [v["el_residual"] for v in mins], "1")
    m["manifold_minimizer.identity_gap_max"] = agg(max, [v["identity_gap"] for v in mins], "1")
    m["manifold_minimizer.odd_even_imbalance_max"] = agg(
        max, [v["odd_even_imbalance"] for v in mins], "ratio")
    scans = spans("manifold_minimizer.infimum_scan")
    reference = [sum(durations[j] for j in by_name.get("gn_estimator.estimate_gn_constant", [])
                     if tracer.parent[j] == i) for i in scans]
    m["manifold_minimizer.infimum_scan.reference_s"] = agg(statistics.median, reference, "s")

    # null controls
    m["hypercontractivity.t_rel_err_max"] = agg(
        max, values("hypercontractivity.bakry_integrals", "t_rel_err"), "ratio")

    m["failed_ratio"] = (run["failed_ratio"], "ratio")
    m["check_worst_ratio"] = (run["check_worst_ratio"], "ratio")
    m["unconverged_ratio"] = (run["unconverged"] / run["attempted"], "ratio")
    return m

"""Tests of the benchmark itself.  Run with: python -m pytest bench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.prepare_environment()

import checks  # noqa: E402
import harness  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = sorted(wl.WORKLOADS)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    w = wl.WORKLOADS[name]
    first = [w.cycle(7, i) for i in range(3)]
    assert first == [w.cycle(7, i) for i in range(3)]
    assert first != [w.cycle(8, i) for i in range(3)]
    assert w.references() == w.references()


def _outcomes(name, seed):
    """Check outcomes and iteration counts of cycle 0 at tiny sizes."""
    w = wl.WORKLOADS[name]
    out = []
    for call in w.cycle(seed, 0) + w.references():
        result = w.output(call, w.execute(call, wl.TINY))
        out.append((call.kind, result.get("iterations"),
                    [(c.name, c.passed, c.ratio) for c in w.check(call, result)]))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_check_outcomes_and_iterations(name):
    assert _outcomes(name, 3) == _outcomes(name, 3)


def test_manifold_iterations_are_recorded():
    kinds = {kind: iters for kind, iters, _ in _outcomes("manifold_descent", 3)}
    assert kinds["minimize"] == wl.TINY.descent_iters
    assert kinds["reference"] == wl.TINY.reference_iters


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_the_manifest_metrics(name, trace):
    record = run.measure(name, seed=1, seconds=0.01, trace=trace, sizes=wl.TINY, setups=1)
    line = run.result_line(record, MANIFEST)
    section = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    assert len(run.report(record)) > len(section)
    if not trace:
        assert all(line["metrics"][m]["value"] > 0 for m in line["metrics"])


def test_end_to_end_units_match_the_manifest():
    for spec in MANIFEST["end_to_end"]:
        assert run.E2E_UNITS[spec["name"]] == spec["unit"]
    assert {w["name"] for w in MANIFEST["workloads"]} == set(NAMES) == set(run.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    lat = [float(i) for i in range(1, 101)]
    value, pct = harness.tail(lat)
    assert pct == 90 and sum(x > value for x in lat) == 10
    value, pct = harness.tail(lat[:30])
    assert pct == 66 and sum(x > value for x in lat[:30]) == 10
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_per_call_scaling_uses_the_kernels_around_each_call():
    speed = harness.Calibration(fresh_process=False, scratch="", per_call=True)
    speed.times = [0.005, 0.010, 0.005, 0.020]
    # 5 ms over the medians of (5, 10), (5, 10, 5), (10, 5, 20) and (5, 20) ms
    assert speed.scale([1.0] * 4) == pytest.approx([0.005 / 0.0075, 1.0, 0.5, 0.005 / 0.0125])
    whole_run = harness.Calibration(fresh_process=False, scratch="")
    whole_run.times = speed.times
    assert whole_run.scale([1.0] * 4) == pytest.approx([0.005 / 0.0075] * 4)


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer", 0):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.self_times() == [10.0 - 2.0 - 2.0, 2.0, 2.0]


def test_tracer_restores_the_library():
    from lpentropy import gn_estimator, manifold_minimizer

    original = gn_estimator.estimate_gn_constant
    tracer = Tracer()
    tracer.install()
    try:
        assert manifold_minimizer.estimate_gn_constant is gn_estimator.estimate_gn_constant
        assert gn_estimator.estimate_gn_constant is not original
    finally:
        tracer.uninstall()
    assert gn_estimator.estimate_gn_constant is original
    assert manifold_minimizer.estimate_gn_constant is original


def test_workload_code_imports_no_library_module():
    # the set-up probe imports it after the workload's own modules, so it must
    # add none of its own
    code = ("import sys; import workloads; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'lpentropy'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_split_charges_each_module_to_its_outermost_package():
    lines = [
        "import time: self [us] | cumulative | imported package\n",
        "import time:       100 |        100 |       pickle\n",
        "import time:       200 |        300 |     numpy.core\n",
        "import time:       300 |        600 |   numpy\n",
        "import time:        50 |         50 |     scipy.special\n",
        "import time:        20 |         20 |     numpy.testing\n",
        "import time:        40 |        110 |   scipy\n",
        "import time:        10 |        700 | lpentropy.constants\n",
        "import time:         5 |          5 | workloads\n",
    ]
    split = harness.import_split(lines)
    assert split == pytest.approx({"numpy_s": 600e-6, "scipy_s": 110e-6, "lpentropy_s": 10e-6})


def test_only_a_gated_call_fails_by_not_converging():
    missed = [checks.Check("c10.el_residual", 1e-3, 1e-6, kind="convergence")]
    free = harness.Sample("minimize", 1.0, checks=missed)
    gated = harness.Sample("reference", 1.0, checks=missed, gated=True)
    assert not free.failed and free.unconverged == missed
    assert gated.failed and gated.unconverged == []
    result = harness.outcome([free, gated])
    assert (result["correct"], result["failed"], result["unconverged"]) == (False, 1, 1)
    assert harness.outcome([free])["correct"]
    sphere, torus, scan = wl.WORKLOADS["manifold_descent"].references()
    assert wl.WORKLOADS["manifold_descent"].must_converge(sphere)
    assert not wl.WORKLOADS["manifold_descent"].must_converge(torus)
    assert not wl.WORKLOADS["manifold_descent"].must_converge(scan)


def test_checks_flag_a_wrong_value():
    good = checks.heat_norm(1, 6.0, 0.01, checks.torus_heat_dual(1, 6.0, 0.01))
    bad = checks.heat_norm(1, 6.0, 0.01, 1.01 * checks.torus_heat_dual(1, 6.0, 0.01))
    assert good[0].passed and not bad[0].passed and bad[0].ratio > 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

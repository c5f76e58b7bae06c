"""End-to-end command line checks.

The CLI runs as `cli.main(argv)` in the test process (`run_cli`).  Tests
whose subject is the process itself start a fresh interpreter: byte-identical
output across runs, the exit codes of `python -m lpentropy.cli`, and the
import budgets, which need an empty module cache.
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import pytest

from lpentropy import cli
from lpentropy.constants import entropy_best_constant
from lpentropy.manifold_geometry import ManifoldModel
from lpentropy.manifold_minimizer import minimize_gn_functional
from lpentropy.profiles import extremal_profile


def run_cli(*argv):
    """cli.main(argv) in this process, as a CompletedProcess.

    stdout and stderr are captured, SystemExit gives the exit code, and an
    uncaught exception propagates and fails the test.  Every warning is
    written to the captured stderr, where an interpreter would print it:
    pytest would otherwise record it and leave stderr empty.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_module(*argv):
    """`python -m lpentropy.cli argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "lpentropy.cli", *argv],
                          capture_output=True, text=True)


def strict_json(text):
    """Parse text as strict JSON, which has no Infinity or NaN."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def run_fresh(code):
    """Run `code` in a fresh interpreter; return the JSON it prints last."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def main_in_fresh_process(*argv):
    """cli.main(argv) in a fresh interpreter: (exit code, modules then loaded)."""
    code, modules = run_fresh(f"""
import contextlib, io, json, sys
from lpentropy import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main({list(argv)!r})
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
""")
    return code, set(modules)


def _patch_handler(monkeypatch, command, handler):
    _, help_text, specs = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (handler, help_text, specs))


def test_run_cli_writes_warnings_to_stderr(monkeypatch):
    import numpy as np

    def overflows(args):
        return {"value": float(np.exp(np.float64(1000.0)))}, None

    _patch_handler(monkeypatch, "constants", overflows)
    res = run_cli("constants", "--n", "3", "--p", "2")
    assert res.returncode == 0
    assert "RuntimeWarning: overflow encountered in exp" in res.stderr


def test_run_cli_fails_on_an_uncaught_exception(monkeypatch):
    def raises(args):
        raise ZeroDivisionError("a fault in the handler")

    _patch_handler(monkeypatch, "constants", raises)
    with pytest.raises(ZeroDivisionError, match="a fault in the handler"):
        run_cli("constants", "--n", "3", "--p", "2")


def test_constants_document():
    res = run_cli("constants", "--n", "3", "--p", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["tool"] == "lpentropy"
    assert doc["command"] == "constants"
    assert doc["config"]["n"] == 3
    assert "version" in doc
    got = doc["result"]["entropy_constant"]
    assert abs(got - 2.0 / (3.0 * math.pi * math.e)) < 1e-15
    assert doc["result"]["sobolev_constant"] > 0


def test_constants_with_exponents_and_family():
    res = run_cli("constants", "--n", "3", "--p", "2", "--q", "1.5", "--r", "2",
                  "--s", "2.1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    exps = doc["result"]["exponents"]
    assert abs(exps["theta"] - 1.0 / 3.0) < 1e-14
    assert exps["p_star"] == 6.0
    fam = doc["result"]["one_parameter_family"]
    assert abs(fam["q"] - 2.1) < 1e-14
    assert abs(fam["r"] - 2.2) < 1e-14


def test_determinism_byte_identical():
    argv = ("gn-estimate", "--n", "3", "--p", "2", "--q", "1.8", "--r", "2.1",
            "--n-nodes", "400", "--ascent-iters", "8")
    first = run_module(*argv)
    second = run_module(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_domain_error_exit_code():
    res = run_cli("constants", "--n", "3", "--p", "0.5")
    assert res.returncode == 1
    assert "domain error" in res.stderr


@pytest.mark.parametrize("argv", [
    ("hc", "--n", "3", "--A", "nan", "--B", "1", "--lambda", "1"),
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--t-grid", "0.01,inf"),
    ("witness", "--model", "sphere", "--n", "3", "--p", "2", "--a-const", "nan",
     "--b-const", "1", "--eps-grid", "0.05", "--expect", "none"),
    ("witness", "--model", "sphere", "--n", "3", "--p", "2", "--a-const", "0.1",
     "--b-const", "inf", "--eps-grid", "0.05", "--expect", "none"),
    ("extremal", "--n", "3", "--p", "2", "--b", "inf"),
    ("deficit", "--n", "3", "--p", "2", "--b", "1e250"),
    ("minimize", "--model", "sphere", "--n", "3", "--p", "2", "--q", "1.9", "--C", "nan"),
    ("nu-scan", "--model", "sphere", "--n", "3", "--p", "2", "--q-list", "1.5", "--C", "inf"),
])
def test_non_finite_input_exit_code(argv):
    res = run_cli(*argv)
    assert res.returncode == 1, (res.stdout, res.stderr)
    assert "domain error" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ("minimize", "--model", "sphere", "--n", "3", "--p", "2", "--q", "1.9", "--C", "1",
     "--n-nodes", "-1"),
    ("nu-scan", "--model", "sphere", "--n", "3", "--p", "2", "--q-list", "1.9", "--C", "1",
     "--n-nodes", "-1"),
    ("minimize", "--model", "sphere", "--n", "3", "--p", "2", "--q", "1.9", "--C", "1",
     "--max-iters", "-5"),
    ("gn-estimate", "--n", "3", "--p", "2", "--q", "1.99", "--r", "2", "--ascent-iters", "-5"),
])
def test_negative_count_exit_code(argv):
    res = run_cli(*argv)
    assert res.returncode == 1, (res.stdout, res.stderr)
    assert "domain error" in res.stderr
    assert "Traceback" not in res.stderr


def test_usage_error_exit_code():
    res = run_cli("constants", "--n", "3", "--p", "2", "--bogus", "1")
    assert res.returncode == 64
    res = run_cli("no-such-command")
    assert res.returncode == 64


@pytest.mark.parametrize("argv, exit_code", [
    (("constants", "--n", "3", "--p", "2"), 0),
    (("constants", "--n", "3", "--p", "0.5"), 1),
    (("extremal", "--n", "3", "--p", "2", "--b", "1", "--n-nodes", "5000"), 2),
    (("witness", "--model", "sphere", "--n", "3", "--p", "2",
      "--a-const", str(1.1 * entropy_best_constant(3, 2.0)), "--b-const", "1",
      "--eps-grid", "0.05", "--n-nodes", "20000", "--expect", "violation"), 3),
    (("constants", "--n", "3", "--p", "2", "--bogus", "1"), 64),
], ids=("success", "domain", "cross-check", "expectation", "usage"))
def test_module_exit_codes(argv, exit_code):
    # stdout holds the JSON document and nothing else, or nothing at all
    res = run_module(*argv)
    assert res.returncode == exit_code, res.stderr
    if exit_code in (0, 3):
        assert strict_json(res.stdout)["command"] == argv[0]
    else:
        assert res.stdout == ""
    assert (res.stderr == "") == (exit_code == 0)


def test_extremal_saturation():
    res = run_cli("extremal", "--n", "3", "--p", "2", "--b", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert abs(doc["result"]["saturation_residual"]) < 1e-6
    assert abs(doc["result"]["integrals"]["grad_energy"] - 3.0) < 1e-6


@pytest.mark.parametrize("p", ["1.003", "1.001"])
def test_extremal_near_p_one(p):
    # the O(h^2) error of one 800 000-node pass exceeds the 1e-8 check here;
    # the extrapolated ladder meets it within the same cap
    res = run_cli("extremal", "--n", "3", "--p", p, "--b", "1")
    assert res.returncode == 0, res.stderr
    integrals = strict_json(res.stdout)["result"]["integrals"]
    assert integrals["max_rel_difference"] <= integrals["error_estimate"] < 1e-8


def test_extremal_starved_grid_exit_code():
    # cross-check between quadrature and closed forms fails on purpose
    res = run_cli("extremal", "--n", "3", "--p", "2", "--b", "1",
                  "--n-nodes", "5000")
    assert res.returncode == 2
    assert "disagree" in res.stderr


def test_deficit_profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    extremal_profile(3, 2.0, 1.0, n_nodes=200_000).to_csv(path)
    res = run_cli("deficit", "--n", "3", "--p", "2", "--profile", str(path))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert abs(doc["result"]["deficit"]) < 1e-5
    assert abs(doc["result"]["lp_norm"] - 1.0) < 1e-6


def test_deficit_missing_profile_file(tmp_path):
    res = run_cli("deficit", "--n", "3", "--p", "2",
                  "--profile", str(tmp_path / "nowhere.csv"))
    assert res.returncode == 1
    assert "input error" in res.stderr
    assert "Traceback" not in res.stderr


def test_deficit_header_only_profile(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("r,u\n")
    res = run_cli("deficit", "--n", "3", "--p", "2", "--profile", str(path))
    assert res.returncode == 1
    assert "domain error" in res.stderr
    assert "Traceback" not in res.stderr


def test_deficit_with_pde_residual():
    # the limiting equation is solved at the decay rate pi*e/2 (n=3, p=2)
    b_star = math.pi * math.e / 2.0
    res = run_cli("deficit", "--n", "3", "--p", "2", "--b", str(b_star),
                  "--n-nodes", "100000", "--pde-residual")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    rep = doc["result"]["pde_residual"]
    assert rep["residual"] < 1e-4
    assert rep["c_fitted"] is True
    assert abs(rep["c_value"]) < 1e-4


def test_deficit_sums_over_the_profile_once(monkeypatch, capsys):
    from lpentropy import euclidean_inequalities, profiles

    passes = []
    real = profiles._profile_sums

    def counting(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(profiles, "_profile_sums", counting)
    monkeypatch.setattr(euclidean_inequalities, "_profile_sums", counting)
    assert cli.main(["deficit", "--n", "3", "--p", "2", "--b", "0.7", "--n-nodes", "20000"]) == 0
    assert len(passes) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    u = extremal_profile(3, 2.0, 0.7, n_nodes=20_000)
    assert result == {
        "deficit": euclidean_inequalities.entropy_deficit(u, 2.0),
        "lp_norm": profiles.lp_norm(u, 2.0),
        "grad_energy": profiles.grad_energy(u, 2.0),
        "entropy": profiles.entropy_integral(u, 2.0),
    }


def test_deficit_non_finite_c_exit_code():
    res = run_cli("deficit", "--n", "3", "--p", "2", "--n-nodes", "2000", "--pde-residual",
                  "--C", "inf")
    assert res.returncode == 1
    assert "domain error" in res.stderr
    assert "Traceback" not in res.stderr


def test_gn_limit_csv(tmp_path):
    out = tmp_path / "rows.csv"
    res = run_cli("gn-limit", "--n", "3", "--p", "2", "--q-list", "1.7,1.9",
                  "--n-nodes", "600", "--ascent-iters", "5", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    rows = doc["result"]["rows"]
    assert [r["q"] for r in rows] == [1.7, 1.9]
    assert rows[0]["rel_gap"] > rows[1]["rel_gap"]
    with open(out, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 2
    assert {"q", "estimate", "ceiling", "rel_gap", "best_family"} <= set(table[0])
    assert float(table[0]["q"]) == 1.7


def test_witness_expectation_exit_codes():
    a0 = entropy_best_constant(3, 2.0)
    common = ("witness", "--model", "sphere", "--n", "3", "--p", "2",
              "--b-const", "1", "--eps-grid", "0.05,0.1", "--n-nodes", "60000")
    ok = run_cli(*common, "--a-const", str(1.1 * a0), "--expect", "none")
    assert ok.returncode == 0
    bad = run_cli(*common, "--a-const", str(1.1 * a0), "--expect", "violation")
    assert bad.returncode == 3
    hit = run_cli(*common, "--a-const", str(0.9 * a0), "--expect", "violation")
    assert hit.returncode == 0
    doc = json.loads(hit.stdout)
    assert doc["result"]["violated"]


def test_minimize_with_profile_output(tmp_path):
    out = tmp_path / "profile.csv"
    res = run_cli("minimize", "--model", "sphere", "--n", "3", "--p", "2",
                  "--q", "1.9", "--C", "1", "--n-nodes", "120",
                  "--max-iters", "200", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    result = doc["result"]
    assert (result["stop_reason"], result["converged"]) == ("max_iters", False)
    assert result["identity_gap"] < 1e-10 * max(1.0, result["value"])
    assert abs(result["constant_value"] - (2 * math.pi**2) ** (2.0 / 3.0)) < 1e-10
    assert result["value"] <= result["constant_value"] * (1 + 1e-12)
    with open(out, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 120
    assert set(table[0]) == {"coordinate", "u"}


def test_hc_single_and_grid(tmp_path):
    a0 = entropy_best_constant(3, 2.0)
    res = run_cli("hc", "--n", "3", "--A", str(a0), "--B", "1", "--lambda", "5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert abs(doc["result"]["t"] - 3.0 / 40.0) < 1e-12
    assert doc["result"]["passed"] is True

    out = tmp_path / "table.csv"
    res = run_cli("hc", "--n", "3", "--A", str(a0), "--B", "1",
                  "--t-grid", "0.01,0.05", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["result"]["all_pass_in_range"] is True
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2

    res = run_cli("hc", "--n", "3", "--A", str(a0), "--B", "1")
    assert res.returncode == 1  # neither --lambda nor --t-grid


def test_hc_leaves_stderr_empty():
    # a criterion-11 draw at which the former adaptive quadrature warned
    # "The integral is probably divergent" while returning the right m
    res = run_cli("hc", "--n", "4", "--A", "0.8711878383996956", "--B", "0.4242406537262642",
                  "--lambda", "0.31288433339297206")
    assert res.returncode == 0
    assert res.stderr == ""
    result = strict_json(res.stdout)["result"]
    assert result["m"] == pytest.approx(result["m_closed"], rel=1e-12)


def test_hc_path_past_the_float_square_root():
    # (s-1)/s^2 at s = 1e200 once overflowed into a traceback
    res = run_cli("hc", "--n", "3", "--A", "0.0781", "--B", "0", "--lambda", "5",
                  "--p-from", "1e200")
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    result = strict_json(res.stdout)["result"]
    assert result["m"] == pytest.approx(result["m_closed"], rel=1e-10)


def test_heat_norm_document():
    res = run_cli("heat-norm", "--n", "1", "--scale", str(2 * math.pi), "--t", "0.01")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    value = doc["result"]["value"]
    assert abs(value * math.sqrt(4 * math.pi * 0.01) - 1.0) < 1e-12
    assert doc["result"]["curvature_bound_B"] == 0.0


def test_heat_norm_outside_input_exit_codes():
    for scale, t in (("1", "nan"), ("1", "inf"), ("nan", "0.01")):
        res = run_cli("heat-norm", "--n", "2", "--scale", scale, "--t", t)
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("domain error: ")
    res = run_cli("heat-norm", "--n", "3", "--scale", "1", "--t", "1e300")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout)["result"]
    assert result["terms"] == 0
    assert result["value"] == pytest.approx(result["long_time_limit"], rel=1e-12)


def test_output_is_strict_json():
    # heat-norm past the Gaussian underflow, heat-norm whose long-time limit
    # 1/L^3 = 1e-600 underflows, hc with its unbounded default --q-to, an hc
    # path with no heat bound, a witness scan that finds no violation: each
    # has an entry with no float value, written as null
    cases = [
        (("heat-norm", "--n", "3", "--scale", "1", "--t", "1e300"),
         lambda r: r["lattice_factor"]),
        (("heat-norm", "--n", "3", "--scale", "1e200", "--t", "1"),
         lambda r: r["long_time_limit"]),
        # a positive kernel that underflows: 1/L^3 = 1e-330 in the long-time
        # branch, (4 pi t)^{-3/2} near 1e-324 in the short-time one
        (("heat-norm", "--n", "3", "--scale", "1e110", "--t", "1e300"), lambda r: r["value"]),
        (("heat-norm", "--n", "3", "--scale", "1e110", "--t", "1e215"), lambda r: r["value"]),
        (("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--lambda", "5"),
         lambda r: r["q_to"]),
        (("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--lambda", "5",
          "--p-from", "1.5", "--q-to", "3"), lambda r: r["bound_rhs"]),
        (("witness", "--model", "sphere", "--n", "3", "--p", "2", "--a-const",
          str(entropy_best_constant(3, 2.0)), "--b-const", "1", "--eps-grid", "0.02,0.05",
          "--n-nodes", "20000"), lambda r: r["eps_star"]),
    ]
    for argv, entry in cases:
        res = run_cli(*argv)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert entry(strict_json(res.stdout)["result"]) is None


@pytest.mark.parametrize("argv", [
    # --out on a run without a table (hc's --lambda form has no per-t rows)
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--lambda", "5", "--out", "{tmp}/x.csv"),
    # the gradient closed form of the extremal leaves the float range
    ("extremal", "--n", "3", "--p", "2", "--b", "1e100"),
    ("bubble", "--model", "sphere", "--n", "3", "--p", "2", "--b", "1e100", "--delta", "1",
     "--eps-grid", "0.01,0.02,0.04,0.08", "--n-nodes", "20000"),
    # the extremal amplitude lies below the tail cutoff: nothing to sample
    ("deficit", "--n", "2", "--p", "1.05", "--b", "1e-260", "--n-nodes", "2000"),
    # A lambda leaves the float range
    ("hc", "--n", "3", "--A", "1e300", "--B", "0", "--lambda", "1e300"),
    # the descent's random start needs a nonnegative seed
    ("minimize", "--model", "sphere", "--n", "3", "--p", "2", "--q", "1.9", "--C", "1",
     "--seed", "-1"),
    ("nu-scan", "--model", "sphere", "--n", "3", "--p", "2", "--q-list", "1.9", "--C", "1",
     "--seed", "-1"),
    # the model's volume underflows to 0 or overflows
    ("minimize", "--model", "sphere", "--n", "3", "--p", "2", "--q", "1.9", "--C", "1",
     "--scale", "1e-200"),
    ("minimize", "--model", "torus", "--n", "3", "--p", "2", "--q", "1.9", "--C", "1",
     "--scale", "1e200"),
    # J_q at the constant, C times the volume factor, overflows
    ("minimize", "--model", "sphere", "--n", "3", "--p", "2", "--q", "1.9", "--C", "1e308"),
    ("nu-scan", "--model", "sphere", "--n", "3", "--p", "2", "--q-list", "1.9", "--C", "1e308"),
    # the scalar curvature n(n-1)/radius^2 overflows
    ("bubble", "--model", "sphere", "--n", "3", "--p", "2", "--scale", "1e-200", "--delta",
     "1e-200", "--eps-grid", "1e-203,2e-203,4e-203,8e-203"),
    # fewer than 4 distinct eps for the three entropy coefficients
    ("bubble", "--model", "sphere", "--n", "3", "--p", "2", "--delta", "1",
     "--eps-grid", "0.01,0.01,0.01,0.01"),
    ("bubble", "--model", "sphere", "--n", "3", "--p", "2", "--delta", "1",
     "--eps-grid", "0.01,0.01,0.02,0.02"),
    # the closed-form entropy and Sobolev constants overflow; p must be finite
    ("constants", "--n", "3", "--p", "216"),
    ("constants", "--n", "400", "--p", "300"),
    ("constants", "--n", "3", "--p", "inf"),
    # the long-time limit 1/side^n of the torus heat kernel overflows
    ("heat-norm", "--n", "3", "--scale", "1e-120", "--t", "1e-3"),
    ("heat-norm", "--n", "200", "--scale", "0.01", "--t", "1"),
    # the Gaussian factor (4 pi t)^(-n/2) overflows: the kernel has no float value
    ("heat-norm", "--n", "3", "--scale", "1", "--t", "1e-320"),
    ("heat-norm", "--n", "3", "--scale", "1", "--t", "1e-300"),
    ("heat-norm", "--n", "1000", "--scale", "1", "--t", "1e-3"),
    # |u'|^p of a steep extremal overflows node by node
    ("deficit", "--n", "3", "--p", "2", "--b", "1e200"),
    # a flag that the chosen form would ignore
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--lambda", "5", "--t-grid", "0.01",
     "--p-from", "1.5", "--out", "{tmp}/x.csv"),
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--lambda", "5", "--t-grid", "0.01"),
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--t-grid", "0.01", "--p-from", "1.5"),
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--t-grid", "0.01", "--q-to", "3"),
    ("deficit", "--n", "3", "--p", "2", "--C", "5"),
], ids=("hc-lambda-out", "extremal-huge-b", "bubble-huge-b", "deficit-tiny-b",
        "hc-huge-a-lambda", "minimize-negative-seed", "nu-scan-negative-seed",
        "minimize-volume-underflow", "minimize-volume-overflow", "minimize-huge-C",
        "nu-scan-huge-C", "bubble-curvature-overflow", "bubble-one-distinct-eps",
        "bubble-two-distinct-eps", "constants-entropy-overflow",
        "constants-sobolev-overflow", "constants-infinite-p", "heat-norm-tiny-side",
        "heat-norm-high-dimension", "heat-norm-subnormal-t", "heat-norm-tiny-t",
        "heat-norm-huge-n", "deficit-huge-b", "hc-t-grid-lambda-p-from-out",
        "hc-t-grid-lambda", "hc-t-grid-p-from", "hc-t-grid-q-to", "deficit-C-without-residual"))
def test_one_line_domain_error(argv, tmp_path):
    res = run_cli(*(a.format(tmp=tmp_path) for a in argv))
    assert res.returncode == 1, (res.stdout, res.stderr)
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("domain error: ")
    assert list(tmp_path.iterdir()) == []


def test_pde_residual_at_a_huge_C():
    # terms of about C * 1e-2 square past the float range, though their
    # ratio is at most 1: the norms are taken of the terms scaled by 2^-k
    for c in ("1e308", "1e200"):
        res = run_cli("deficit", "--n", "3", "--p", "2", "--b", "1", "--pde-residual", "--C", c)
        assert res.returncode == 0 and res.stderr == "", res.stderr
        rep = strict_json(res.stdout)["result"]["pde_residual"]
        assert rep["residual"] is not None and 0.0 <= rep["residual"] <= 1.0, c
        assert rep["scale"] is not None and math.isfinite(rep["scale"]), c


def test_bubble_near_p_one():
    # the flat references are closed forms: no finite-difference oracle
    # whose O(h^2) error near p = 1 exceeds its 1e-8 check
    res = run_cli("bubble", "--model", "sphere", "--n", "3", "--p", "1.003", "--b", "1",
                  "--delta", "1", "--eps-grid", "0.01,0.02,0.04,0.08")
    assert res.returncode == 0, res.stderr
    fits = strict_json(res.stdout)["result"]["fits"]
    assert fits["mass"]["rel_dev_c2"] <= 1e-6 and fits["grad"]["rel_dev_c2"] <= 1e-6


def test_bubble_and_witness_need_no_volume():
    # the torus of side 1e200 has no float volume, which only the minimizer uses
    res = run_cli("bubble", "--model", "torus", "--n", "3", "--p", "2", "--scale", "1e200",
                  "--delta", "1", "--eps-grid", "0.01,0.02,0.04,0.08", "--n-nodes", "20000")
    assert res.returncode == 0, res.stderr
    res = run_cli("witness", "--model", "torus", "--n", "3", "--p", "2", "--a-const", "0.07",
                  "--b-const", "1", "--scale", "1e200", "--eps-grid", "0.05")
    assert res.returncode == 0, res.stderr
    assert strict_json(res.stdout)["result"]["violated"] is True


def test_minimize_at_a_huge_finite_constant_value():
    # on a sphere of radius 0.1 the constant's J_q at C = 1e308 is finite, but
    # C p overflows and the weak-form terms square past the float range
    res = run_cli("minimize", "--model", "sphere", "--n", "3", "--p", "2", "--q", "1.9",
                  "--C", "1e308", "--scale", "0.1", "--max-iters", "5")
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr
    result = strict_json(res.stdout)["result"]
    assert math.isfinite(result["value"]) and result["value"] <= result["constant_value"]
    assert math.isfinite(result["el_residual"])


@pytest.mark.parametrize("b", ["1e10", "1e14"])
def test_narrow_core_extremal_and_bubble(b):
    """Grids placed by the core width b^{-1/p'} keep both routes of the
    extremal integrals within 1e-8 and the bubble masses near 1."""
    res = run_cli("extremal", "--n", "3", "--p", "2", "--b", b)
    assert res.returncode == 0, res.stderr
    rel = strict_json(res.stdout)["result"]["integrals"]["max_rel_difference"]
    assert math.isfinite(rel) and rel < 1e-8
    res = run_cli("bubble", "--model", "sphere", "--n", "3", "--p", "2", "--b", b,
                  "--delta", "1", "--eps-grid", "0.01,0.02,0.04,0.08")
    assert res.returncode == 0, res.stderr
    for row in strict_json(res.stdout)["result"]["rows"]:
        assert row["mass_p"] == pytest.approx(1.0, abs=1e-6)


def test_witness_asymptote_at_a_subnormal_constant():
    # sharp / 5e-324 overflows, but (n/p) (ln sharp - ln A) is finite
    res = run_cli("witness", "--model", "sphere", "--n", "3", "--p", "2", "--a-const", "5e-324",
                  "--b-const", "0", "--eps-grid", "0.05")
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    expected = 1.5 * (math.log(entropy_best_constant(3, 2.0)) - math.log(5e-324))
    assert strict_json(res.stdout)["result"]["asymptote"] == pytest.approx(expected, rel=1e-12)


def test_narrow_core_witness():
    # the bubble core of width 0.05 * 1e-15 is resolved: a violation below
    # the sharp constant, not a zero mass
    res = run_cli("witness", "--model", "sphere", "--n", "3", "--p", "2", "--a-const", "0.07",
                  "--b-const", "1", "--eps-grid", "0.05", "--b", "1e30", "--n-nodes", "20000")
    assert res.returncode == 0, res.stderr
    assert strict_json(res.stdout)["result"]["violated"] is True


def _family_ordered(res):
    fam = res["family_values"]
    return (fam["rational"] <= fam["stretched_exp"] and res["value"] == max(fam.values())
            and res["best_family"] == "stretched_exp")


@pytest.mark.parametrize("argv, holds", [
    # near p = 1 the bubble core underflows where its power overflows: those
    # nodes add 0, so every gradient integral is a number
    (("bubble", "--model", "sphere", "--n", "3", "--p", "1.02", "--b", "1", "--delta", "1",
      "--eps-grid", "1e-7,2e-7,4e-7,8e-7", "--n-nodes", "20000"),
     lambda res: all(row["grad_p"] is not None for row in res["rows"])),
    # on r = p the rational search stops at its stretched limit, below the
    # stretched value, which is the estimate
    (("gn-estimate", "--n", "3", "--p", "2", "--q", "1.99", "--r", "2"), _family_ordered),
    # a descent stopped by its cap is reported, not passed off as converged
    (("minimize", "--model", "torus", "--n", "3", "--scale", "6", "--p", "2", "--q", "1.5",
      "--C", "5", "--max-iters", "2000"),
     lambda res: (res["converged"], res["stop_reason"]) == (False, "max_iters")),
], ids=("bubble-p-near-1", "gn-estimate-q-near-p", "minimize-torus-cap"))
def test_result_holds(argv, holds):
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr
    result = strict_json(res.stdout)["result"]
    assert holds(result), result


# The CLI contract: the "config" block of every subcommand's document, with
# every default, as the parser resolved it before its arguments were
# declared in one table.  Each run is at the subcommand's defaults and takes
# about a second.
_DEFAULT_CONFIGS = {
    "constants": (("--n", "3", "--p", "2"),
                  {"n": 3, "p": 2.0, "q": None, "r": None, "s": None}),
    "extremal": (("--n", "3", "--p", "2"),
                 {"n": 3, "p": 2.0, "b": 1.0, "n_nodes": 800_000}),
    "deficit": (("--n", "3", "--p", "2"),
                {"n": 3, "p": 2.0, "b": 1.0, "profile": None, "n_nodes": 200_000,
                 "pde_residual": False, "C": None}),
    "gn-estimate": (("--n", "3", "--p", "2", "--q", "1.9", "--r", "2"),
                    {"n": 3, "p": 2.0, "q": 1.9, "r": 2.0, "n_nodes": 4000,
                     "ascent_iters": 250}),
    "gn-limit": (("--n", "3", "--p", "2", "--q-list", "1.9"),
                 {"n": 3, "p": 2.0, "q_list": [1.9], "n_nodes": 4000, "ascent_iters": 250,
                  "out": None}),
    "bubble": (("--model", "sphere", "--n", "3", "--p", "2", "--delta", "1",
                "--eps-grid", "0.02,0.04,0.06,0.08"),
               {"model": "sphere", "n": 3, "p": 2.0, "b": 1.0, "scale": 1.0, "delta": 1.0,
                "eps_grid": [0.02, 0.04, 0.06, 0.08], "n_nodes": 200_000, "out": None}),
    "witness": (("--model", "sphere", "--n", "3", "--p", "2", "--a-const", "0.1",
                 "--b-const", "1", "--eps-grid", "0.1"),
                {"model": "sphere", "n": 3, "p": 2.0, "a_const": 0.1, "b_const": 1.0,
                 "b": 1.0, "scale": 1.0, "delta": None, "eps_grid": [0.1], "n_nodes": 200_000,
                 "expect": None, "out": None}),
    # C = 0: the constant profile is exact and the descent takes no step
    "minimize": (("--model", "sphere", "--n", "3", "--p", "2", "--q", "1.9", "--C", "0"),
                 {"model": "sphere", "n": 3, "p": 2.0, "q": 1.9, "C": 0.0, "scale": 1.0,
                  "n_nodes": 600, "max_iters": 60_000, "seed": 0, "out": None}),
    "nu-scan": (("--model", "sphere", "--n", "3", "--p", "2", "--q-list", "1.9", "--C", "0"),
                {"model": "sphere", "n": 3, "p": 2.0, "q_list": [1.9], "C": 0.0,
                 "scale": 1.0, "n_nodes": 600, "max_iters": 60_000, "seed": 0, "out": None}),
    # the default --q-to is infinite, written as null
    "hc": (("--n", "3", "--A", "0.0781", "--B", "1", "--lambda", "5"),
           {"n": 3, "A": 0.0781, "B": 1.0, "lam": 5.0, "p_from": 1.0, "q_to": None,
            "t_grid": None, "slack": 0.05, "out": None}),
    "heat-norm": (("--n", "3", "--scale", "1", "--t", "0.1"),
                  {"n": 3, "scale": 1.0, "t": 0.1}),
}


@pytest.mark.parametrize("command", list(_DEFAULT_CONFIGS))
def test_config_block_at_defaults(command):
    argv, config = _DEFAULT_CONFIGS[command]
    res = run_cli(command, *argv)
    assert res.returncode == 0, res.stderr
    doc = strict_json(res.stdout)
    assert doc["command"] == command
    assert doc["config"] == {"command": command, **config}


def _read_table(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def _cell_holds(cell, value):
    """A CSV cell against its JSON value (null stands for inf or nan)."""
    if value is None:
        return cell in ("", "inf", "-inf", "nan")
    if isinstance(value, (bool, str)):
        return cell == str(value)
    return float(cell) == value


@pytest.mark.parametrize("argv", [
    ("gn-limit", "--n", "3", "--p", "2", "--q-list", "1.7,1.9", "--n-nodes", "600",
     "--ascent-iters", "5"),
    ("bubble", "--model", "torus", "--n", "3", "--p", "2", "--scale", "6", "--delta", "1",
     "--eps-grid", "0.01,0.02,0.04,0.08", "--n-nodes", "20000"),
    ("witness", "--model", "sphere", "--n", "3", "--p", "2", "--a-const", "0.0702",
     "--b-const", "1", "--eps-grid", "0.02,0.05,0.1", "--n-nodes", "20000"),
    ("nu-scan", "--model", "torus", "--n", "3", "--scale", "4", "--p", "2",
     "--q-list", "1.3,1.7", "--C", "2", "--n-nodes", "60", "--max-iters", "50"),
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--t-grid", "0.005,0.01,0.05"),
], ids=lambda argv: argv[0])
def test_out_writes_the_result_rows(argv, tmp_path):
    out = tmp_path / "rows.csv"
    res = run_cli(*argv, "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = strict_json(res.stdout)["result"]["rows"]
    header, table = _read_table(out)
    assert header == sorted({k for row in rows for k in row})
    assert len(table) == len(rows) > 0
    for line, row in zip(table, rows):
        assert set(row) == set(line)
        for key, value in row.items():
            assert _cell_holds(line[key], value), (key, line[key], value)


def test_minimize_out_writes_the_profile(tmp_path):
    out = tmp_path / "u.csv"
    res = run_cli("minimize", "--model", "torus", "--n", "3", "--scale", "6", "--p", "2",
                  "--q", "1.5", "--C", "5", "--n-nodes", "80", "--max-iters", "40",
                  "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, table = _read_table(out)
    assert header == ["coordinate", "u"]
    ref = minimize_gn_functional(ManifoldModel.torus(3, 6.0), 2.0, 1.5, 5.0, n_nodes=80,
                                 max_iters=40, seed=3)
    assert strict_json(res.stdout)["result"]["value"] == ref.value
    assert [float(line["coordinate"]) for line in table] == ref.profile.grid.tolist()
    assert [float(line["u"]) for line in table] == ref.profile.values.tolist()


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert res.stdout.strip()


# Import budget: each subcommand loads only what it runs.  These guard the
# cold start against a stray module-level import of numpy or scipy.


def test_constants_imports_neither_numpy_nor_scipy():
    code, modules = main_in_fresh_process("constants", "--n", "3", "--p", "2",
                                          "--q", "1.5", "--r", "2", "--s", "2.1")
    assert code == 0
    assert "numpy" not in modules
    assert "scipy" not in modules


@pytest.mark.parametrize("argv", [
    ("extremal", "--n", "3", "--p", "2", "--n-nodes", "300000"),
    ("deficit", "--n", "3", "--p", "2", "--n-nodes", "20000", "--pde-residual"),
    ("bubble", "--model", "sphere", "--n", "3", "--p", "2", "--delta", "1",
     "--eps-grid", "0.01,0.02,0.04,0.08", "--n-nodes", "20000"),
    ("witness", "--model", "torus", "--n", "3", "--p", "2", "--a-const", "0.0702",
     "--b-const", "1", "--scale", "6", "--eps-grid", "0.02,0.05,0.1", "--n-nodes", "20000"),
    ("heat-norm", "--n", "3", "--scale", "2", "--t", "0.05"),
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--lambda", "5"),
    ("hc", "--n", "3", "--A", "0.0781", "--B", "1", "--t-grid", "0.005,0.01,0.05"),
    ("hc", "--n", "4", "--A", "0.8711878383996956", "--B", "0.4242406537262642",
     "--lambda", "0.31288433339297206"),
])
def test_numpy_only_subcommands_import_no_scipy(argv):
    code, modules = main_in_fresh_process(*argv)
    assert code == 0
    assert "numpy" in modules
    assert "scipy" not in modules


@pytest.mark.parametrize("argv, exit_code", [
    (("--help",), 0),
    (("--version",), 0),
    (("constants", "--n", "3", "--p", "2", "--bogus", "1"), 64),
])
def test_parsing_imports_no_numpy(argv, exit_code):
    code, modules = main_in_fresh_process(*argv)
    assert code == exit_code
    assert "numpy" not in modules


def test_profiles_loads_scipy_sparse_on_first_use():
    before, after, is_csr, adjoint_gap = run_fresh("""
import json, sys
import numpy as np
from lpentropy.profiles import derivative_matrix
before = "scipy" in sys.modules
grid = np.sort(np.random.default_rng(5).uniform(0.05, 8.0, 200))
mat = derivative_matrix(grid)
from scipy import sparse
v = np.random.default_rng(6).standard_normal(len(grid))
dense = mat.toarray().T @ v
gap = float(np.max(np.abs(mat.T @ v - dense)) / np.max(np.abs(dense)))
print(json.dumps([before, "scipy.sparse" in sys.modules,
                  isinstance(mat, sparse.csr_matrix), gap]))
""")
    assert not before
    assert after
    assert is_csr
    assert adjoint_gap <= 1e-14


def test_hypercontractivity_never_loads_scipy():
    on_import, after_heat_norm, after_bakry = run_fresh("""
import json, sys
from lpentropy import hypercontractivity as hc
from lpentropy.manifold_geometry import ManifoldModel
on_import = "scipy" in sys.modules
hc.torus_heat_norm(3, 2.0, 0.05)
hc.curvature_second_constant_bound(ManifoldModel.sphere(3, 1.0))
after_heat_norm = "scipy" in sys.modules
hc.bakry_integrals(3, 0.0781, 1.0, 5.0)
hc.bakry_integrals(3, 0.5, 0.3, 1.2, p_from=1.5, q_to=3.0)
hc.ultracontractivity_check(3, 0.0781, 1.0, [0.005, 0.01, 0.05])
print(json.dumps([on_import, after_heat_norm, "scipy" in sys.modules]))
""")
    assert not on_import
    assert not after_heat_norm
    assert not after_bakry

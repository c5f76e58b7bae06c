"""End-to-end command line checks via subprocess."""

import csv
import json
import math
import subprocess
import sys

import pytest

from lpentropy.constants import entropy_best_constant
from lpentropy.profiles import extremal_profile


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lpentropy.cli", *argv],
        capture_output=True,
        text=True,
    )


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
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_domain_error_exit_code():
    res = run_cli("constants", "--n", "3", "--p", "0.5")
    assert res.returncode == 1
    assert "domain error" in res.stderr


def test_usage_error_exit_code():
    res = run_cli("constants", "--n", "3", "--p", "2", "--bogus", "1")
    assert res.returncode == 64
    res = run_cli("no-such-command")
    assert res.returncode == 64


def test_extremal_saturation():
    res = run_cli("extremal", "--n", "3", "--p", "2", "--b", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert abs(doc["result"]["saturation_residual"]) < 1e-6
    assert abs(doc["result"]["integrals"]["grad_energy"] - 3.0) < 1e-6


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
])
def test_radial_subcommands_import_no_scipy(argv):
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

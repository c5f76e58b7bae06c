"""Quantitative acceptance checks, one per numbered criterion.

Each test prints exactly one `criterion NN PASS/FAIL` line with the
measured quantities, so a verbose run doubles as a summary table.
Tolerances and runtime budgets are stated inline; seeds are fixed.
"""

import math
import time

import numpy as np

from lpentropy.constants import InequalityParams, entropy_best_constant
from lpentropy.euclidean_inequalities import entropy_deficit, log_norm_derivative
from lpentropy.gn_estimator import estimate_gn_constant
from lpentropy.hypercontractivity import (
    bakry_integrals,
    torus_heat_norm,
    ultracontractivity_check,
)
from lpentropy.manifold_geometry import (
    ManifoldModel,
    fit_expansion,
    lower_bound_witness,
)
from lpentropy.manifold_minimizer import (
    constant_profile,
    gn_functional,
    minimize_gn_functional,
)
from lpentropy.profiles import (
    extremal_integrals,
    extremal_profile,
    random_stretched_mixture,
)

PAIRS = ((3, 1.5), (3, 2.0), (4, 2.0))
B_VALUES = (0.5, 1.0, 2.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_constant_identity():
    t0 = time.perf_counter()
    worst = max(
        abs(entropy_best_constant(n, 2.0) * n * math.pi * math.e - 2.0)
        for n in range(2, 11)
    )
    dt = time.perf_counter() - t0
    _report(
        1,
        "entropy constant p=2 identity",
        worst <= 1e-13 and dt < 1.0,
        f"max |A0(n,2) n pi e - 2| = {worst:.2e} over n=2..10, {dt:.2f}s < 1s",
    )


def test_criterion_02_extremal_saturation():
    t0 = time.perf_counter()
    worst = 0.0
    for n, p in PAIRS:
        for b in B_VALUES:
            u = extremal_profile(n, p, b)
            worst = max(worst, abs(entropy_deficit(u, p)))
    dt = time.perf_counter() - t0
    _report(
        2,
        "deficit vanishes on the extremal family",
        worst <= 1e-6 and dt < 5.0,
        f"max |deficit| = {worst:.2e} over {len(PAIRS)} (n,p) x {len(B_VALUES)} b, "
        f"{dt:.2f}s < 5s",
    )


def test_criterion_03_random_profile_robustness():
    t0 = time.perf_counter()
    lowest = math.inf
    for idx, (n, p) in enumerate(PAIRS):
        rng = np.random.default_rng(1000 + idx)
        for _ in range(100):
            u = random_stretched_mixture(n, rng, n_nodes=50_000)
            lowest = min(lowest, entropy_deficit(u, p))
    dt = time.perf_counter() - t0
    _report(
        3,
        "deficit nonnegative on random mixtures",
        lowest >= -1e-8 and dt < 30.0,
        f"min deficit = {lowest:.3e} over 100 profiles per (n,p), {dt:.1f}s < 30s",
    )


def test_criterion_04_dual_route_integrals():
    t0 = time.perf_counter()
    worst = 0.0
    for n, p in PAIRS:
        for b in B_VALUES:
            worst = max(worst, extremal_integrals(n, p, b).max_rel_difference)
    dt = time.perf_counter() - t0
    _report(
        4,
        "closed form vs quadrature on all five integrals",
        worst <= 1e-8,
        f"max rel difference = {worst:.2e} over (n,p) x b grid, {dt:.2f}s",
    )


def test_criterion_05_log_derivative():
    rng = np.random.default_rng(7)
    u = random_stretched_mixture(3, rng, n_nodes=200_000)
    coarse = log_norm_derivative(u, 2.0, 2e-3)
    fine = log_norm_derivative(u, 2.0, 1e-3)
    ratio = coarse.err / fine.err
    _report(
        5,
        "norm log-derivative matches the entropy formula",
        fine.err <= 1e-3 and 1.7 <= ratio <= 2.3,
        f"|fd - exact| = {fine.err:.2e} at dq=1e-3, decay ratio {ratio:.2f}",
    )


def test_criterion_06_interpolation_limit():
    t0 = time.perf_counter()
    a0 = entropy_best_constant(3, 2.0)
    est_near = estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.99, r=2.0))
    est_far = estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.7, r=2.0))
    gap_near = (a0 - est_near.value) / a0
    gap_far = (a0 - est_far.value) / a0
    dt = time.perf_counter() - t0
    ok = (
        est_near.value <= a0 * (1.0 + 1e-3)
        and 0.0 <= gap_near <= 0.05
        and gap_near < gap_far
        and dt < 120.0
    )
    _report(
        6,
        "variational estimate approaches the entropy constant",
        ok,
        f"gap(q=1.99) = {gap_near:.4f} <= 5%, gap(q=1.7) = {gap_far:.4f}, "
        f"{dt:.1f}s < 120s",
    )


def test_criterion_07_grid_monotonicity():
    t0 = time.perf_counter()
    qs, rs = (1.3, 1.5, 1.7), (1.8, 2.2, 2.6)
    grid = {
        (q, r): estimate_gn_constant(InequalityParams(n=3, p=2.0, q=q, r=r)).value
        for q in qs
        for r in rs
    }
    vals = list(grid.values())
    band = 0.1 * (max(vals) - min(vals))
    worst = -math.inf
    for (q1, r1), v1 in grid.items():
        for (q2, r2), v2 in grid.items():
            if (q1, r1) != (q2, r2) and q1 <= q2 and r1 <= r2:
                worst = max(worst, v1 - v2)
    dt = time.perf_counter() - t0
    _report(
        7,
        "estimates ordered along the (q, r) grid",
        worst <= band,
        f"worst ordering violation = {worst:.2e} vs noise band {band:.2e}, {dt:.1f}s",
    )


def test_criterion_08_bubble_expansion():
    t0 = time.perf_counter()
    eps_grid = np.geomspace(0.01, 0.1, 8)
    sphere = fit_expansion(ManifoldModel.sphere(3), 2.0, 1.0, delta=1.0,
                           eps_grid=eps_grid)
    mass_dev = sphere.fits["mass"]["rel_dev_c2"]
    grad_dev = sphere.fits["grad"]["rel_dev_c2"]
    torus = fit_expansion(ManifoldModel.torus(3, side=2.0), 2.0, 1.0, delta=0.9,
                          eps_grid=eps_grid)
    sigmas = max(
        abs(torus.fits["mass"]["c2"]) / torus.fits["mass"]["c2_stderr"],
        abs(torus.fits["grad"]["c2"]) / torus.fits["grad"]["c2_stderr"],
        abs(torus.fits["entropy"]["clog"]) / torus.fits["entropy"]["clog_stderr"],
    )
    dt = time.perf_counter() - t0
    ok = mass_dev <= 0.02 and grad_dev <= 0.05 and sigmas <= 3.0 and dt < 60.0
    _report(
        8,
        "curvature coefficients from bubble fits",
        ok,
        f"sphere mass dev {mass_dev:.2e} <= 2%, grad dev {grad_dev:.2e} <= 5%, "
        f"torus max |coef|/sigma = {sigmas:.2f} <= 3, {dt:.1f}s < 60s",
    )


def test_criterion_09_lower_bound_witness():
    sphere = ManifoldModel.sphere(3)
    a0 = entropy_best_constant(3, 2.0)
    eps_grid = np.geomspace(0.02, 0.2, 6)
    below = lower_bound_witness(sphere, 2.0, 0.9 * a0, 1.0, eps_grid=eps_grid)
    target = 1.5 * math.log(1.0 / 0.9)
    rel = abs(below.margin - target) / target
    at = lower_bound_witness(sphere, 2.0, a0, 1.0, eps_grid=eps_grid)
    ok = below.violated and rel <= 0.02 and not at.violated
    _report(
        9,
        "bubbles witness any constant below sharp",
        ok,
        f"margin at 0.9 A0 within {rel:.3%} of (n/p) ln(1/0.9); "
        f"no violation at A0 on the grid",
    )


def test_criterion_10_minimizer_identities():
    sphere = ManifoldModel.sphere(3)
    res = minimize_gn_functional(sphere, 2.0, 1.9, 1.0, n_nodes=600, max_iters=3000)
    norm_gap = abs(res.profile.lp_norm(2.0) - 1.0)
    mass_q = float(np.sum(res.profile.weights * res.profile.values**1.9))
    identity_gap = abs(res.qnorm_weight * mass_q - res.value) / max(1.0, res.value)
    ceiling = gn_functional(constant_profile(sphere, 2.0, 600), 2.0, 1.9, 1.0)
    zero = minimize_gn_functional(sphere, 2.0, 1.9, 0.0, n_nodes=600)
    ok = (
        norm_gap <= 1e-10
        and identity_gap <= 1e-10
        and res.el_residual <= 1e-6
        and res.value <= ceiling
        and zero.value == 0.0
    )
    _report(
        10,
        "constrained minimizer optimality identities",
        ok,
        f"|norm-1| = {norm_gap:.1e}, weight identity {identity_gap:.1e}, "
        f"EL residual {res.el_residual:.1e} <= 1e-6, nu <= ceiling, nu(0) = {zero.value}",
    )


def test_criterion_11_contraction_time_and_heat_bound():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.0, 2.0))
        lam = b / (4.0 * a) * 1.05 + float(np.exp(rng.uniform(-2.0, 2.0)))
        rep = bakry_integrals(n, a, b, lam)
        worst = max(worst, abs(rep.t - rep.t_closed) / rep.t_closed)
    a0 = entropy_best_constant(3, 2.0)
    table = ultracontractivity_check(3, a0, 1.0, np.geomspace(1e-3, 0.1, 8))
    ok = worst <= 1e-10 and table.all_pass_in_range
    _report(
        11,
        "contraction time closed form and heat bound",
        ok,
        f"max rel |t - n/(8 lam)| = {worst:.2e} over 30 samples; "
        f"ultracontractivity table passes in range",
    )


def test_criterion_12_torus_heat_norm():
    rep = torus_heat_norm(1, 2.0 * math.pi, 0.01)
    gap = abs(rep.value * math.sqrt(4.0 * math.pi * 0.01) - 1.0)
    _report(
        12,
        "small-time heat kernel is Euclidean",
        gap <= 1e-12,
        f"|k_t (4 pi t)^(n/2) - 1| = {gap:.2e} at t=0.01, n=1, L=2 pi",
    )

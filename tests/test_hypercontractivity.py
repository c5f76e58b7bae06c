"""Exponent-path integrals, heat-kernel bound, torus heat norms."""

import math

import numpy as np
import pytest

from lpentropy.errors import DomainError
from lpentropy.hypercontractivity import (
    bakry_integrals,
    curvature_second_constant_bound,
    torus_heat_norm,
    ultracontractivity_check,
)
from lpentropy.manifold_geometry import ManifoldModel


def sharp_a(n: int) -> float:
    return 2.0 / (n * math.pi * math.e)


def test_time_integral_matches_closed_form_seeded():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.0, 2.0))
        lam = b / (4.0 * a) * 1.05 + float(np.exp(rng.uniform(-2.0, 2.0)))
        rep = bakry_integrals(n, a, b, lam)
        assert rep.t == pytest.approx(rep.t_closed, rel=1e-10)
        assert rep.t_closed == pytest.approx(n / (8.0 * lam), rel=1e-14)


def test_time_integral_general_path():
    rep = bakry_integrals(3, 0.5, 0.3, 1.2, p_from=1.5, q_to=3.0)
    assert rep.t_closed == pytest.approx(3.0 / (8.0 * 1.2) * (1 / 1.5 - 1 / 3.0), rel=1e-14)
    assert rep.t == pytest.approx(rep.t_closed, rel=1e-10)
    # bound fields only apply to the full (1, inf) path
    assert math.isnan(rep.bound_rhs)
    assert rep.passed is None


def test_time_integral_random_paths():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p_from = float(rng.uniform(1.0, 3.0))
        q_to = p_from + float(rng.uniform(0.2, 4.0))
        if rng.random() < 0.3:
            q_to = math.inf
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.0, 2.0))
        lam = b / (4.0 * a) * 1.05 + float(np.exp(rng.uniform(-2.0, 2.0)))
        rep = bakry_integrals(3, a, b, lam, p_from=p_from, q_to=q_to)
        assert rep.t == pytest.approx(rep.t_closed, rel=1e-10)


def test_budget_integral_closed_form():
    # on (1, inf): m = (n/2)(ln(A lam) + 1) + n B / (12 A lam)
    for n, a, b, lam in ((2, 0.3, 0.0, 1.0), (3, sharp_a(3), 1.0, 4.0),
                         (5, 1.2, 0.7, 2.5)):
        rep = bakry_integrals(n, a, b, lam)
        closed = 0.5 * n * (math.log(a * lam) + 1.0) + n * b / (12.0 * a * lam)
        assert rep.m == pytest.approx(closed, rel=1e-10)


def test_sharp_constant_saturates_bound():
    # with A = 2/(n pi e) the budget equals the heat bound for every lambda
    for n in (1, 2, 3):
        a = sharp_a(n)
        lam_lo = 1.05 / (4.0 * a)  # clears the variance admissibility floor
        for lam in np.geomspace(lam_lo, 30.0, 5):
            rep = bakry_integrals(n, a, 1.0, float(lam))
            if not rep.in_range:
                continue
            assert rep.m - rep.bound_rhs == pytest.approx(0.0, abs=1e-10)
            assert rep.passed


def test_budget_gap_is_constant_in_lambda_and_b():
    # m - bound depends only on A: (n/2)(1 + ln(A pi n / 2))
    n = 3
    a = 2.0 * sharp_a(n)
    gaps = []
    for b, lam in ((0.0, 2.0), (1.0, 5.0), (0.4, 9.0)):
        rep = bakry_integrals(n, a, b, lam)
        gaps.append(rep.m - rep.bound_rhs)
    expected = 0.5 * n * math.log(2.0)
    for g in gaps:
        assert g == pytest.approx(expected, rel=1e-10)


def test_admissibility_guard():
    # lambda A must clear B max (s-1)/s^2 along the path
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 8.0, 1.0)  # needs lam >= 2
    bakry_integrals(3, 1.0, 8.0, 2.0)  # boundary is fine
    # on [3, 4] the floor drops to h(3) = 2/9
    bakry_integrals(3, 1.0, 8.0, 8.0 * 2.0 / 9.0 + 1e-9, p_from=3.0, q_to=4.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 8.0, 8.0 * 2.0 / 9.0 - 1e-3, p_from=3.0, q_to=4.0)


def test_parameter_validation():
    with pytest.raises(DomainError):
        bakry_integrals(0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, -1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 0.0, 1.0, p_from=3.0, q_to=2.0)
    with pytest.raises(DomainError):
        bakry_integrals(3, 1.0, 0.0, 1.0, p_from=0.5)


def test_ultracontractivity_table():
    n = 3
    a = sharp_a(n)
    # validity boundary t = (n/2)(A/B) = 0.117...; 0.3 falls beyond it
    rep = ultracontractivity_check(n, a, 1.0, [0.01, 0.05, 0.3])
    assert rep.all_pass_in_range
    assert rep.rows[0]["admissible"] and rep.rows[0]["passed"]
    assert rep.rows[1]["admissible"] and rep.rows[1]["passed"]
    assert not rep.rows[2]["admissible"]
    assert "note" in rep.rows[2]
    with pytest.raises(DomainError):
        ultracontractivity_check(n, a, 1.0, [0.05, -0.1])


def test_ultracontractivity_fails_above_sharp():
    # doubling A overshoots the heat bound by (n/2) ln 2 at every time
    n = 3
    rep = ultracontractivity_check(n, 2.0 * sharp_a(n), 0.0, [0.01, 0.05])
    assert not rep.all_pass_in_range
    for r in rep.rows:
        assert r["m"] - r["bound_rhs"] == pytest.approx(1.5 * math.log(2.0), rel=1e-10)


def test_heat_norm_small_time_is_euclidean():
    rep = torus_heat_norm(1, 2.0 * math.pi, 0.01)
    assert rep.value * math.sqrt(4.0 * math.pi * 0.01) == pytest.approx(1.0, abs=1e-12)
    assert rep.lattice_factor == pytest.approx(1.0, abs=1e-15)
    # at small t images beyond the cutoff make doubling the side invisible
    doubled = torus_heat_norm(1, 4.0 * math.pi, 0.01)
    assert doubled.value == pytest.approx(rep.value, rel=1e-12)


def test_heat_norm_long_time_is_inverse_volume():
    rep = torus_heat_norm(2, 2.0, 100.0)
    assert rep.long_time_limit == pytest.approx(0.25, rel=1e-15)
    assert rep.value == pytest.approx(0.25, rel=1e-10)


def test_heat_norm_ratio_decreases_to_one():
    ratios = [torus_heat_norm(2, 2.0, t).lattice_factor for t in (1.0, 0.5, 0.2, 0.05)]
    assert all(r >= 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=1e-8)


def test_heat_norm_validation():
    with pytest.raises(DomainError):
        torus_heat_norm(0, 1.0, 0.1)
    with pytest.raises(DomainError):
        torus_heat_norm(2, -1.0, 0.1)
    with pytest.raises(DomainError):
        torus_heat_norm(2, 1.0, 0.0)
    for side, t in ((1.0, math.nan), (1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1)):
        with pytest.raises(DomainError):
            torus_heat_norm(2, side, t)


def test_heat_norm_huge_time_skips_the_image_sum():
    # past 4 pi^2 t / L^2 = ln 1e18 the Poisson-dual sum is 1 to double
    # precision, so no images are summed and the value is 1/volume
    for n in (1, 2, 3):
        for t in (1e13, 1e300):
            rep = torus_heat_norm(n, 2.0, t)
            assert rep.terms == 0
            assert rep.value == pytest.approx(rep.long_time_limit, rel=1e-12)
    # just below the switch the image sum still runs, and agrees with it
    t_switch = math.log(1e18) * 4.0 / (4.0 * math.pi**2)
    below, above = torus_heat_norm(2, 2.0, 0.999 * t_switch), torus_heat_norm(2, 2.0, t_switch * 1.001)
    assert below.terms > 0 and above.terms == 0
    assert below.value == pytest.approx(0.25, rel=1e-14)
    assert above.lattice_factor == pytest.approx(above.value / above.gaussian_factor, rel=1e-15)


def test_curvature_bound():
    assert curvature_second_constant_bound(ManifoldModel.sphere(3)) == pytest.approx(
        1.0 / (math.pi * math.e), rel=1e-14
    )
    assert curvature_second_constant_bound(ManifoldModel.torus(3, side=2.0)) == 0.0
    # radius-2 sphere in dimension 4: R = 12/4 = 3
    assert curvature_second_constant_bound(ManifoldModel.sphere(4, radius=2.0)) == pytest.approx(
        3.0 / (8.0 * math.pi * math.e), rel=1e-14
    )

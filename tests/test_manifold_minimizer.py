"""Constrained functional minimization on sphere and torus profiles."""

import math

import numpy as np
import pytest

from lpentropy import manifold_minimizer
from lpentropy.constants import entropy_best_constant
from lpentropy.errors import DomainError
from lpentropy.manifold_geometry import ManifoldModel
from lpentropy.manifold_minimizer import (
    SymmetricManifoldProfile,
    constant_profile,
    euler_lagrange_residual,
    gn_functional,
    infimum_scan,
    minimize_gn_functional,
    symmetric_profile,
)

SPHERE3 = ManifoldModel.sphere(3)
TORUS3 = ManifoldModel.torus(3, side=2.0)


def test_constant_profile_exactness():
    for model in (SPHERE3, TORUS3):
        for p in (1.1, 1.5, 2.0):
            u = constant_profile(model, p, n_nodes=250)
            assert u.lp_norm(p) == pytest.approx(1.0, abs=1e-14)
            assert float(np.sum(u.weights)) == pytest.approx(model.volume, rel=1e-13)
            # no rounding dust for |u'|^{p-1} to amplify: constants are critical
            assert not np.any(u.coordinate_derivative())
            assert euler_lagrange_residual(u, p, 1.0, 1.0) < 1e-12


def test_profile_validation():
    with pytest.raises(DomainError):
        SymmetricManifoldProfile(model=SPHERE3, values=-np.ones(20))
    with pytest.raises(DomainError):
        SymmetricManifoldProfile(model=SPHERE3, values=np.full(20, math.nan))
    with pytest.raises(DomainError):
        symmetric_profile(SPHERE3, np.ones(7), n_nodes=7)
    with pytest.raises(DomainError):
        symmetric_profile(SPHERE3, np.ones(20), n_nodes=30)
    for m in (-1, 0, 7):  # rejected before a grid is built
        with pytest.raises(DomainError):
            symmetric_profile(SPHERE3, np.ones_like, n_nodes=m)
    u = constant_profile(SPHERE3, 2.0, 64)
    for arr in (u.values, u.grid, u.weights):
        with pytest.raises(ValueError):
            arr[0] = 2.0  # arrays are read-only


def test_profile_derives_its_rule_from_the_node_count():
    for model, grid in ((SPHERE3, np.linspace(0.0, math.pi, 50)),
                        (TORUS3, np.linspace(0.0, 2.0, 50, endpoint=False))):
        u = SymmetricManifoldProfile(model=model, values=np.ones(50))
        assert np.array_equal(u.grid, grid)
        assert float(np.sum(u.weights)) == pytest.approx(model.volume, rel=1e-13)
        v = u.with_values(np.full(50, 2.0))
        assert np.array_equal(v.grid, u.grid) and np.array_equal(v.weights, u.weights)
    wide = SymmetricManifoldProfile(model=ManifoldModel.sphere(3, 4.0), values=np.ones(9))
    assert wide.metric == 0.25
    assert SymmetricManifoldProfile(model=TORUS3, values=np.ones(9)).metric == 1.0


def test_coordinate_derivative_accuracy():
    errs = []
    for n_nodes in (200, 400):
        u = symmetric_profile(SPHERE3, lambda g: 2.0 + np.cos(g), n_nodes=n_nodes)
        d = u.coordinate_derivative()
        errs.append(float(np.max(np.abs(d + np.sin(u.grid)))))
    assert errs[0] / errs[1] > 3.2  # second order

    v = symmetric_profile(TORUS3, lambda g: 2.0 + np.cos(math.pi * g), n_nodes=400)
    d = v.coordinate_derivative()
    exact = -math.pi * np.sin(math.pi * v.grid)
    assert float(np.max(np.abs(d - exact))) < 1e-3


def test_functional_constant_closed_form():
    # J at the unit-norm constant is C * volume^{(1 - q/p) kappa}
    val = gn_functional(constant_profile(SPHERE3, 2.0, 300), 2.0, 1.9, 1.0)
    assert val == pytest.approx((2.0 * math.pi**2) ** (2.0 / 3.0), rel=1e-12)
    val = gn_functional(constant_profile(TORUS3, 2.0, 300), 2.0, 1.5, 2.0)
    assert val == pytest.approx(8.0, rel=1e-12)


def test_functional_scale_invariance():
    u = symmetric_profile(SPHERE3, lambda g: 1.0 + 0.4 * np.cos(g) ** 2, n_nodes=200)
    v1 = gn_functional(u, 2.0, 1.9, 1.0)
    v2 = gn_functional(u.with_values(3.7 * u.values), 2.0, 1.9, 1.0)
    assert v2 == pytest.approx(v1, rel=1e-12)


def test_minimize_sphere_identities():
    res = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=200, max_iters=3000)
    u = res.profile
    assert u.lp_norm(2.0) == pytest.approx(1.0, abs=1e-10)
    mass_q = float(np.sum(u.weights * u.values**1.9))
    assert res.qnorm_weight * mass_q == pytest.approx(res.value, rel=1e-10)
    assert res.el_residual <= 1e-6
    ceiling = gn_functional(constant_profile(SPHERE3, 2.0, 200), 2.0, 1.9, 1.0)
    assert res.value <= ceiling * (1.0 + 1e-12)
    assert res.used_constant  # descent cannot beat the constant here


@pytest.mark.parametrize("model, p, q, C", [(SPHERE3, 2.0, 1.9, 1.0), (SPHERE3, 2.0, 1.9, 4.0),
                                            (SPHERE3, 2.0, 1.9, 0.0),
                                            (ManifoldModel.torus(3, side=6.0), 1.5, 1.2, 5.0)])
def test_result_ceiling_and_identity_gap_match_a_recomputation(model, p, q, C):
    # the result's constant value and identity gap reuse the descent's last
    # sums; recomputed from scratch they must agree to the bit
    res = minimize_gn_functional(model, p, q, C, n_nodes=200, max_iters=400)
    assert res.constant_value == gn_functional(constant_profile(model, p, 200), p, q, C)
    mass_q = float(np.sum(res.profile.weights * res.profile.values**q))
    assert res.identity_gap == abs(res.qnorm_weight * mass_q - res.value)
    record = res.as_dict()
    assert (record["constant_value"], record["identity_gap"]) == (res.constant_value,
                                                                  res.identity_gap)


def test_minimize_torus_identities():
    res = minimize_gn_functional(TORUS3, 2.0, 1.5, 2.0, n_nodes=600, max_iters=3000)
    u = res.profile
    assert u.lp_norm(2.0) == pytest.approx(1.0, abs=1e-10)
    assert res.value == pytest.approx(8.0, rel=1e-10)
    assert res.el_residual <= 1e-6


def test_minimize_zero_constant():
    res = minimize_gn_functional(SPHERE3, 2.0, 1.9, 0.0, n_nodes=200)
    assert res.value == 0.0
    assert res.el_residual == 0.0
    assert res.qnorm_weight == 0.0
    assert res.used_constant
    assert (res.stop_reason, res.converged) == ("exact", True)


def test_stop_reason_is_reported():
    capped = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=64, max_iters=20)
    assert capped.iterations == 20
    assert (capped.stop_reason, capped.converged) == ("max_iters", False)
    # a tolerance the seed already meets stops before the first step
    loose = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=64, gtol=1e6)
    assert (loose.iterations, loose.stop_reason, loose.converged) == (0, "gtol", True)
    for res in (capped, loose):
        record = res.as_dict()
        assert (record["stop_reason"], record["converged"]) == (res.stop_reason, res.converged)


@pytest.mark.parametrize("model, p, q, C", [(SPHERE3, 2.0, 1.9, 4.0),
                                            (ManifoldModel.torus(3, side=6.0), 1.5, 1.2, 5.0)])
def test_retracted_cache_matches_a_fresh_evaluation(monkeypatch, model, p, q, C):
    # the retraction rescales the trial's cached sums and derivative instead
    # of evaluating the objective at the rescaled point; check that the two
    # agree at every accepted step of a short run
    descent = manifold_minimizer._projected_descent
    checked = []

    def spy(objective, gradient, u, weights, max_iters, armijo, gtol=0.0, retract=None):
        def checked_retract(cand, cache):
            u_new, cache_new = retract(cand, cache)
            value, fresh = objective(u_new)
            assert value == pytest.approx(objective(cand)[0], rel=1e-13, abs=0.0)
            assert cache_new[0] == 1.0
            assert fresh[0] == pytest.approx(1.0, rel=1e-13, abs=0.0)
            for got, want in zip(cache_new[1:3], fresh[1:3]):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            # the fresh derivative differences values of order 1 with stencil
            # weights of order 1/h, so its own rounding is about 1e-14
            assert float(np.max(np.abs(cache_new[3] - fresh[3]))) <= 1e-13
            checked.append(value)
            return u_new, cache_new

        return descent(objective, gradient, u, weights, max_iters, armijo, gtol=gtol,
                       retract=checked_retract)

    monkeypatch.setattr(manifold_minimizer, "_projected_descent", spy)
    res = minimize_gn_functional(model, p, q, C, n_nodes=200, max_iters=300)
    assert len(checked) == res.iterations == 300


def test_infimum_linear_while_constant_wins():
    # for small C the constant minimizes, so nu(C) = C * vol^{(1-q/p) kappa}
    vals = []
    for C in (0.0, 0.25, 0.5, 1.0):
        r = minimize_gn_functional(SPHERE3, 2.0, 1.9, C, n_nodes=200, max_iters=2000)
        vals.append(r.value)
    slope = (2.0 * math.pi**2) ** (2.0 / 3.0)
    for C, v in zip((0.0, 0.25, 0.5, 1.0), vals):
        assert v == pytest.approx(C * slope, rel=1e-10, abs=1e-12)
    diffs = np.diff(vals)
    assert np.all(diffs > 0)


def test_symmetry_breaking_beats_constant():
    # with a large zeroth-order weight, concentration undercuts the constant
    res = minimize_gn_functional(SPHERE3, 2.0, 1.9, 4.0, n_nodes=200, max_iters=12000)
    ceiling = gn_functional(constant_profile(SPHERE3, 2.0, 200), 2.0, 1.9, 4.0)
    assert not res.used_constant
    assert res.value < 0.5 * ceiling
    # any feasible profile upper-bounds the infimum, so this stays a bound
    assert res.profile.lp_norm(2.0) == pytest.approx(1.0, abs=1e-10)


def test_non_minimizer_residual_is_large():
    u = symmetric_profile(SPHERE3, lambda g: 1.0 + 0.5 * np.cos(2.0 * g), n_nodes=300)
    u = u.with_values(u.values / u.lp_norm(2.0))
    assert euler_lagrange_residual(u, 2.0, 1.9, 1.0) > 1e-2


def test_seed_determinism():
    a = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=200, max_iters=1500, seed=3)
    b = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=200, max_iters=1500, seed=3)
    assert a.value == b.value
    assert a.iterations == b.iterations
    assert a.el_residual == b.el_residual
    assert np.array_equal(a.profile.values, b.profile.values)


def test_domain_errors():
    with pytest.raises(DomainError):
        minimize_gn_functional(SPHERE3, 2.5, 1.9, 1.0, n_nodes=64)  # p > 2
    with pytest.raises(DomainError):
        minimize_gn_functional(SPHERE3, 2.0, 2.0, 1.0, n_nodes=64)  # q >= p
    with pytest.raises(DomainError):
        minimize_gn_functional(SPHERE3, 2.0, 1.9, -1.0, n_nodes=64)
    with pytest.raises(DomainError):
        minimize_gn_functional(ManifoldModel.sphere(2), 2.0, 1.9, 1.0, n_nodes=64)  # p = n
    with pytest.raises(DomainError):
        minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=-1)
    for max_iters in (-5, 2.5):
        with pytest.raises(DomainError):
            minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=64, max_iters=max_iters)
    u = constant_profile(SPHERE3, 2.0, 64)
    for C in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            minimize_gn_functional(SPHERE3, 2.0, 1.9, C, n_nodes=64)
        with pytest.raises(DomainError):
            gn_functional(u, 2.0, 1.9, C)


def test_infimum_scan_rows():
    rows = infimum_scan(SPHERE3, 2.0, [1.5, 1.9], 1.0, n_nodes=200, max_iters=2000)
    assert len(rows) == 2
    for row in rows:
        assert row["nu"] <= row["constant_value"] * (1.0 + 1e-12)
        assert row["el_residual"] <= 1e-6
        assert row["inv_entropy_constant"] == pytest.approx(
            1.0 / entropy_best_constant(3, 2.0), rel=1e-13
        )
        assert row["inv_estimated_constant"] > 0
        assert (row["stop_reason"], row["converged"]) == ("max_iters", False)

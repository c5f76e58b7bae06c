"""Constrained functional minimization on sphere and torus profiles."""

import math
import warnings

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
from lpentropy.profiles import _apply_stencil, _stencil

SPHERE3 = ManifoldModel.sphere(3)
TORUS3 = ManifoldModel.torus(3, side=2.0)


def _functional_du(u):
    # du/dcoordinate as the functional caches it (D acts on u - u[-1]); it
    # does not depend on the exponents or on C
    return u._ln_functional_pair(2.0, 1.9, 1.0, 1.0)[0](u.values)[1][3]


def test_constant_profile_exactness():
    for model in (SPHERE3, TORUS3):
        for p in (1.1, 1.5, 2.0):
            u = constant_profile(model, p, n_nodes=250)
            assert u.lp_norm(p) == pytest.approx(1.0, abs=1e-14)
            assert float(np.sum(u.weights)) == pytest.approx(model.volume, rel=1e-13)
            # no rounding dust for |u'|^{p-1} to amplify: constants are critical
            assert not np.any(_functional_du(u))
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
        d = _functional_du(u)
        errs.append(float(np.max(np.abs(d + np.sin(u.grid)))))
    assert errs[0] / errs[1] > 3.2  # second order

    v = symmetric_profile(TORUS3, lambda g: 2.0 + np.cos(math.pi * g), n_nodes=400)
    d = _functional_du(v)
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
    assert res.value <= ceiling
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


@pytest.mark.parametrize("model", [SPHERE3, ManifoldModel.sphere(4, radius=1.3), TORUS3,
                                   ManifoldModel.torus(4, side=6.0)],
                         ids=("S3", "S4-radius-1.3", "T3-side-2", "T4-side-6"))
@pytest.mark.parametrize("q", [1.5, 1.9])
@pytest.mark.parametrize("C", [1.0, 4.0])
def test_value_is_the_functional_the_choice_compared(model, q, C):
    # value is the J_q that chose between the constant and the descent, by
    # gn_functional's formula, so it is the constant's own value when the
    # constant wins and never above it; the weights are value over the
    # energy and over int u^q, so the identity holds to rounding
    res = minimize_gn_functional(model, 2.0, q, C, n_nodes=120, max_iters=200)
    assert res.value == gn_functional(res.profile, 2.0, q, C)
    assert res.value <= res.constant_value
    if res.used_constant:
        assert res.value == res.constant_value
    assert res.identity_gap <= 2 * np.spacing(res.value)


def test_minimize_torus_identities():
    res = minimize_gn_functional(TORUS3, 2.0, 1.5, 2.0, n_nodes=600, max_iters=3000)
    u = res.profile
    assert u.lp_norm(2.0) == pytest.approx(1.0, abs=1e-10)
    assert res.value == pytest.approx(8.0, rel=1e-10)
    assert res.el_residual <= 1e-6


def test_residual_of_the_constant_at_zero_C():
    # no gradient energy and no zeroth-order term: every term vanishes
    assert euler_lagrange_residual(constant_profile(SPHERE3, 2.0, 64), 2.0, 1.9, 0.0) == 0.0


def test_minimize_zero_constant():
    res = minimize_gn_functional(SPHERE3, 2.0, 1.9, 0.0, n_nodes=200)
    assert res.value == 0.0
    assert res.el_residual == 0.0
    assert res.qnorm_weight == 0.0
    assert res.used_constant
    assert (res.stop_reason, res.converged) == ("exact", True)


def test_stop_reason_is_reported(monkeypatch):
    capped = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=64, max_iters=20)
    assert capped.iterations == 20
    assert (capped.stop_reason, capped.converged) == ("max_iters", False)
    # a tolerance the seed already meets stops before the first step
    monkeypatch.setattr(manifold_minimizer, "_GTOL", 1e6)
    loose = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=64)
    assert (loose.iterations, loose.stop_reason, loose.converged) == (0, "gtol", True)
    for res in (capped, loose):
        record = res.as_dict()
        assert (record["stop_reason"], record["converged"]) == (res.stop_reason, res.converged)


def test_record_keys():
    # every field but the profile, which --out writes as a table, and converged
    res = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1.0, n_nodes=64, max_iters=5)
    assert set(res.as_dict()) == {
        "value", "iterations", "stop_reason", "converged", "el_residual", "energy_weight",
        "qnorm_weight", "used_constant", "p", "q", "C", "identity_gap", "constant_value"}


@pytest.mark.parametrize("model, p, q, C, wins", [
    (SPHERE3, 2.0, 1.9, 1.0, "constant"),
    (SPHERE3, 2.0, 1.9, 4.0, "descent"),
    (ManifoldModel.torus(3, side=6.0), 1.5, 1.2, 5.0, "constant"),
    (ManifoldModel.torus(3, side=6.0), 2.0, 1.5, 5.0, "descent"),
])
def test_result_residual_is_the_public_residual(model, p, q, C, wins):
    # the result's el_residual is euler_lagrange_residual at its profile, to the bit
    res = minimize_gn_functional(model, p, q, C, n_nodes=300, max_iters=1000)
    assert res.used_constant == (wins == "constant")
    assert res.el_residual == euler_lagrange_residual(res.profile, p, q, C)


@pytest.mark.parametrize("model, p, q, C", [(SPHERE3, 2.0, 1.9, 4.0),
                                            (ManifoldModel.torus(3, side=6.0), 1.5, 1.2, 5.0),
                                            (SPHERE3, 1.5, 1.2, 5.0),
                                            (ManifoldModel.torus(3, side=6.0), 2.0, 1.9, 4.0)])
def test_retracted_cache_matches_a_fresh_evaluation(monkeypatch, model, p, q, C):
    # the retraction rescales the trial's cached sums, and keeps its
    # derivative with the factor 1/s that the gradient applies, instead of
    # evaluating the objective at the rescaled point; check that the cache
    # and the gradient agree with a fresh evaluation at every accepted step
    # of a short run
    descent = manifold_minimizer._projected_descent
    prof = constant_profile(model, p, 200)
    # |D|.T, with D densified column by column from its action on unit vectors
    stencil = _stencil(prof.grid, prof.period)
    dense = np.stack([_apply_stencil(e, *stencil) for e in np.eye(len(prof.grid))], axis=1)
    w, adjoint_size = prof.weights, np.abs(dense).T
    _, kappa = manifold_minimizer._exponents(model.dimension, p, q, C)
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
            assert fresh[5] == 1.0
            for k in (3, 4):  # du and |du|
                assert float(np.max(np.abs(cache_new[5] * cache_new[k] - fresh[k]))) <= 1e-13
            # the gradients to 1e-12 of the size of the terms they sum, since
            # these cancel as the descent nears a critical point: the
            # adjoint's products with the flux w metric^p |du|^{p-1}, and the
            # largest mass term p (1 + q kappa/p) w u^{p-1} / int u^p
            mass_p, _, energy, _, a, _ = fresh
            flux_terms = p / energy * (adjoint_size @ (w * prof.metric**p * a ** (p - 1.0)))
            mass_term = (p + q * kappa) * w * u_new ** (p - 1.0) / mass_p
            size = float(np.max(flux_terms)) + float(np.max(mass_term))
            got, want = gradient(u_new, cache_new), gradient(u_new, fresh)
            assert float(np.max(np.abs(got - want))) <= 1e-12 * size
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


def _odd_even_imbalance(u):
    """|sum of the even nodes - sum of the odd ones| / sum of all nodes.

    On the sphere's grid, which includes both poles, the two end nodes
    count half: each parity's sum is then a trapezoid rule of the same
    integral, so a smooth profile reads rounding alone.  The torus grid is
    periodic and counts every node once.
    """
    v = np.array(u.values)
    if u.period is None:
        v[[0, -1]] *= 0.5
    return abs(np.sum(v[0::2]) - np.sum(v[1::2])) / np.sum(v)


def test_odd_even_imbalance_of_smooth_profiles():
    # the measure of the odd/even pin below reads rounding on smooth
    # profiles; unweighted sums read 5.0e-3 and 2.7e-2 on the two sphere
    # profiles at 200 nodes
    for model, shape, n_nodes in ((SPHERE3, lambda g: 1.0 + np.cos(g), 200),
                                  (SPHERE3, lambda g: np.exp(-10.0 * g**2), 200),
                                  (ManifoldModel.torus(3, side=6.0),
                                   lambda g: 2.0 + np.cos(math.pi * g / 3.0), 300)):
        assert _odd_even_imbalance(symmetric_profile(model, shape, n_nodes)) < 1e-12


@pytest.mark.xfail(strict=True, reason="the centered stencil's odd/even null mode (ROADMAP item 2)")
@pytest.mark.parametrize("model, q, C, n_nodes, max_iters",
                         [(SPHERE3, 1.9, 4.0, 200, 12_000),
                          (ManifoldModel.torus(3, side=6.0), 1.5, 5.0, 300, 3_000)])
def test_minimizer_has_no_odd_even_mode(model, q, C, n_nodes, max_iters):
    # a real minimizer is smooth, so its even and odd nodes carry equal mass
    res = minimize_gn_functional(model, 2.0, q, C, n_nodes=n_nodes, max_iters=max_iters)
    assert _odd_even_imbalance(res.profile) < 1e-6


@pytest.mark.xfail(strict=True, reason="a one-node profile passes the gradient tolerance "
                   "(ROADMAP items 2 and 13)")
def test_one_node_artifact_is_not_converged():
    # at C = 1e300 the descent piles the mass onto node 62 (25.3; the next
    # largest node holds 4.3e-3) and stops on gtol after 7 steps: a grid
    # artifact, not a minimizer of the continuous problem
    res = minimize_gn_functional(SPHERE3, 2.0, 1.9, 1e300, n_nodes=64, max_iters=50)
    assert not res.converged


@pytest.mark.xfail(strict=True, reason="the odd/even null mode passes the gradient tolerance "
                   "(ROADMAP items 2 and 13)")
def test_odd_even_mode_is_not_converged():
    # on 16 torus nodes the descent stops on gtol after 80 steps at the
    # constant on every other node (imbalance 1.0, value 2^(-2/3) of the
    # constant's), which the centred periodic stencil does not see
    res = minimize_gn_functional(TORUS3, 2.0, 1.9, 2.0, n_nodes=16)
    assert not res.converged


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
        assert row["nu"] <= row["constant_value"]
        assert row["el_residual"] <= 1e-6
        assert row["inv_entropy_constant"] == pytest.approx(
            1.0 / entropy_best_constant(3, 2.0), rel=1e-13
        )
        assert row["inv_estimated_constant"] > 0
        assert (row["stop_reason"], row["converged"]) == ("max_iters", False)


def test_infimum_scan_checks_every_q_before_descending(monkeypatch):
    # a bad q late in the list once raised only after the descents before it
    def spy(*args, **kwargs):
        raise AssertionError("a descent or an estimate ran before every q was checked")

    monkeypatch.setattr(manifold_minimizer, "minimize_gn_functional", spy)
    monkeypatch.setattr(manifold_minimizer, "estimate_gn_constant", spy)
    with pytest.raises(DomainError, match="q=2.5"):
        infimum_scan(SPHERE3, 2.0, [1.7, 2.5], 1.0)
    with pytest.raises(DomainError, match="q=0.5"):
        infimum_scan(SPHERE3, 2.0, iter([1.7, 0.5]), 1.0)


def test_residual_at_a_huge_constant_value():
    """Each weak-form term is taken over nu, which the ratio does not see, so
    the residual stays finite where nu / theta alone overflows, and at a
    huge C it no longer depends on C."""
    u = symmetric_profile(SPHERE3, lambda g: 1.0 + 0.3 * np.cos(g), n_nodes=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = euler_lagrange_residual(u, 2.0, 1.9, 1e300)
        large = euler_lagrange_residual(u, 2.0, 1.9, 1e200)
    assert math.isfinite(huge) and huge > 0
    assert huge == pytest.approx(large, rel=1e-12)

"""Entropy deficit, interpolation gaps, and the limiting PDE residual."""

import math
import tracemalloc

import numpy as np
import pytest
from whole_array import BLOCK, BLOCK_SIZES, agrees, row_sums

from lpentropy.constants import entropy_best_constant
from lpentropy.errors import DomainError
from lpentropy.euclidean_inequalities import (
    embedding_entropy_slack,
    entropy_deficit,
    holder_interpolation_gap,
    limit_pde_residual,
    log_norm_derivative,
)
from lpentropy.profiles import (
    RadialProfile,
    bump_basis,
    extremal_profile,
    extremal_spec,
    lp_norm,
    plogp,
    radial_derivative,
    random_stretched_mixture,
)

PAIRS = [(3, 1.5), (3, 2.0), (4, 2.0)]


def _self_consistent_rate(n, p):
    # the rate at which the extremal solves the limiting PDE
    a0 = entropy_best_constant(n, p)
    return (p / (n * a0)) ** (1.0 / (p - 1.0)) / (p / (p - 1.0))


def test_deficit_vanishes_on_extremals():
    for n, p in PAIRS:
        for b in (0.5, 1.0, 2.0):
            u = extremal_profile(n, p, b)
            assert abs(entropy_deficit(u, p)) < 1e-6


def test_deficit_nonnegative_on_random_profiles():
    for n, p in PAIRS:
        rng = np.random.default_rng(1000 + int(10 * p) + n)
        for _ in range(30):
            u = random_stretched_mixture(n, rng)
            assert entropy_deficit(u, p) >= -1e-8


def test_deficit_strictly_positive_off_family():
    # a rational-decay profile is not in the extremal family
    g = np.geomspace(1e-6, 60.0, 60_000)
    u = RadialProfile(grid=g, values=(1.0 + g**2) ** (-2.0), dimension=3)
    assert entropy_deficit(u, 2.0) > 1e-2


def _functionals(u, p, q, dq):
    lnd = log_norm_derivative(u, p, dq)
    return {
        "deficit": entropy_deficit(u, p),
        "gap": holder_interpolation_gap(u, p, q),
        "slack": embedding_entropy_slack(u, p),
        "fd": lnd.fd,
        "exact": lnd.exact,
    }


def test_functionals_invariant_under_scaling():
    """The four functionals of lam * u are those of u: each reads u/||u||_p."""
    for n, p in PAIRS:
        q, dq = 1.3 * p, 0.01 * (p - 1.0)
        u = random_stretched_mixture(n, np.random.default_rng(40 + n), n_nodes=20_000)
        expected = _functionals(u, p, q, dq)
        for lam in (1e-3, 7.0, 1e3):
            got = _functionals(u.with_values(lam * u.values), p, q, dq)
            for key, val in expected.items():
                assert got[key] == pytest.approx(val, rel=1e-12), (key, n, p, lam)


#: the four functionals at p = 2, q = 3, dq = 0.01, one call each
_ONE_CALL_EACH = (
    lambda u: entropy_deficit(u, 2.0),
    lambda u: holder_interpolation_gap(u, 2.0, 3.0),
    lambda u: embedding_entropy_slack(u, 2.0),
    lambda u: log_norm_derivative(u, 2.0, 0.01),
)


def test_functionals_make_one_pass(monkeypatch):
    """Each functional sums over the grid once, on the profile as given."""
    import lpentropy.euclidean_inequalities as ei
    import lpentropy.profiles as profiles

    original, calls = profiles._profile_sums, []

    def counting(u, terms, derivative=False):
        calls.append(u)
        return original(u, terms, derivative)

    monkeypatch.setattr(profiles, "_profile_sums", counting)
    monkeypatch.setattr(ei, "_profile_sums", counting)
    u = random_stretched_mixture(3, np.random.default_rng(9), n_nodes=2000)
    for call in _ONE_CALL_EACH:
        calls.clear()
        call(u)
        assert calls == [u]


def test_functionals_reject_zero_mass():
    u = extremal_profile(3, 2.0, 1.0, n_nodes=500)
    zero = u.with_values(np.zeros_like(u.values))
    for call in _ONE_CALL_EACH:
        with pytest.raises(DomainError, match="zero or non-finite Lp mass"):
            call(zero)


def test_deficit_domain_errors():
    g = np.geomspace(1e-4, 2.0, 200)
    const = RadialProfile(grid=g, values=np.ones(200), dimension=3)
    with pytest.raises(DomainError):
        entropy_deficit(const, 2.0)  # zero gradient energy
    u = extremal_profile(3, 2.0, 1.0, n_nodes=500)
    with pytest.raises(DomainError):
        entropy_deficit(u, 3.5)  # p >= n


def test_holder_gap_nonpositive_and_endpoint_zero():
    rng = np.random.default_rng(5)
    for _ in range(15):
        u = random_stretched_mixture(3, rng)
        for q in (2.0, 2.7, 3.5, 4.8, 6.0):
            gap = holder_interpolation_gap(u, 2.0, q)
            assert gap <= 1e-10
        assert holder_interpolation_gap(u, 2.0, 2.0) == 0.0
        assert abs(holder_interpolation_gap(u, 2.0, 6.0)) < 1e-13
    with pytest.raises(DomainError):
        holder_interpolation_gap(u, 2.0, 1.5)
    with pytest.raises(DomainError):
        holder_interpolation_gap(u, 2.0, 6.5)


def test_embedding_slack_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(15):
        u = random_stretched_mixture(3, rng)
        assert embedding_entropy_slack(u, 2.0) >= -1e-8


def test_embedding_slack_matches_direct_formula():
    from lpentropy.profiles import entropy_integral

    u = random_stretched_mixture(4, np.random.default_rng(8))
    un = u.with_values(u.values / lp_norm(u, 2.0))
    direct = 4 * math.log(lp_norm(un, 4.0)) - entropy_integral(un, 2.0)
    assert embedding_entropy_slack(u, 2.0) == pytest.approx(direct, rel=1e-12)


def test_log_norm_derivative_two_routes():
    u = random_stretched_mixture(3, np.random.default_rng(77))
    errs = [log_norm_derivative(u, 2.0, dq).err for dq in (4e-3, 2e-3, 1e-3)]
    assert errs[2] < 1e-3
    for a, b in zip(errs, errs[1:]):
        assert 1.7 <= a / b <= 2.3  # one-sided difference: first-order decay
    with pytest.raises(DomainError):
        log_norm_derivative(u, 2.0, 1.5)
    with pytest.raises(DomainError):
        log_norm_derivative(u, 2.0, 0.0)
    with pytest.raises(DomainError):
        log_norm_derivative(u, math.inf, 1.0)


def test_limit_pde_extremal_solves_at_special_rate():
    """At the self-consistent rate the extremal is a weak solution with C = 0."""
    for n, p in PAIRS:
        b_star = _self_consistent_rate(n, p)
        u = extremal_profile(n, p, b_star)
        rep = limit_pde_residual(u, p, "fit")
        assert rep.residual < 1e-6
        assert abs(rep.c_value) < 1e-6
        # the derived zeroth-order coefficient is itself (essentially) zero
        spec = extremal_spec(n, p, b_star)
        a0 = entropy_best_constant(n, p)
        c_closed = (1 - p + (p * p / n) * math.log(spec.amplitude)) / a0
        assert abs(c_closed) < 1e-10
        rep_fixed = limit_pde_residual(u, p, c_closed)
        assert rep_fixed.residual < 1e-6
        assert not rep_fixed.c_fitted


def test_limit_pde_scaling_shifts_c():
    """u -> lam u turns C into C + (p^2/n) K^{-1} ln(lam); the fit sees it."""
    n, p, lam = 3, 2.0, 2.0
    b_star = _self_consistent_rate(n, p)
    u = extremal_profile(n, p, b_star)
    scaled = u.with_values(lam * u.values)
    rep = limit_pde_residual(scaled, p, "fit")
    expected = (p * p / n) * math.log(lam) / entropy_best_constant(n, p)
    assert rep.residual < 1e-6
    assert rep.c_value == pytest.approx(expected, rel=1e-3)


def test_limit_pde_rejects_wrong_rate():
    u = extremal_profile(3, 2.0, 2.0)  # wrong rate: no C can fix it
    rep = limit_pde_residual(u, 2.0, "fit")
    assert rep.residual > 0.05


def test_limit_pde_domain():
    u = extremal_profile(3, 2.0, 1.0, n_nodes=2000)
    with_zero = u.with_values(np.where(u.grid > 1.0, 0.0, u.values))
    with pytest.raises(DomainError):
        limit_pde_residual(with_zero, 2.0, "fit")
    with pytest.raises(DomainError):
        limit_pde_residual(u, 2.0, "minimize")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            limit_pde_residual(u, 2.0, bad)


def test_limit_pde_terms_past_the_float_range():
    # at C = 1e308 the terms are finite and their squares are not; a term
    # C int u^(p-1) v, or the norm of the terms, past the float range is a
    # domain error
    u = extremal_profile(3, 2.0, 1.0, n_nodes=2000)
    assert limit_pde_residual(u, 2.0, 1e308).residual <= 1.0
    with pytest.raises(DomainError, match="term C int"):
        limit_pde_residual(u.with_values(4.0 * u.values), 2.0, 1.7e308)
    with pytest.raises(DomainError, match="norm of the weak-form terms"):
        limit_pde_residual(u.with_values(2.1 * u.values), 2.0, 1.4e308)


def _whole_array_functionals(u, p, q, dq):
    """deficit, interpolation gap, embedding slack and the two log-norm
    derivatives, each from whole-array sums over the values as given and the
    homogeneous identities for v = u/||u||_p: int |grad v|^p = G/m,
    int v^p ln v^p = E/m - ln m and ln ||u||_t = (ln int u^t)/t."""
    n, mw = u.dimension, u.cell_measure()
    p_star = n * p / (n - p)

    def mass(t):
        return float(np.sum(mw * u.values**t))

    m = mass(p)
    ln_m = math.log(m)
    grad = float(np.sum(mw * np.abs(radial_derivative(u.grid, u.values)) ** p))
    entropy_v = float(np.sum(mw * plogp(u.values, p))) / m - ln_m
    ln_p, ln_q, ln_ps = ln_m / p, math.log(mass(q)) / q, math.log(mass(p_star)) / p_star
    alpha = (n * p - n * q + p * q) / (p * q)
    return {
        "deficit": (n / p) * math.log(entropy_best_constant(n, p) * (grad / m)) - entropy_v,
        "gap": (ln_q - ln_p) + (1.0 - alpha) * (ln_p - ln_ps),
        "slack": n * (ln_ps - ln_p) - entropy_v,
        "fd": (ln_p - math.log(mass(p - dq)) / (p - dq)) / dq,
        "exact": entropy_v / (p * p),
    }


def _whole_array_pde(u, p, C, n_tests=12, total=lambda a: float(np.sum(a))):
    """The weak residual from whole-array bumps: (residual, c, per_test,
    scale), each integrand summed by total."""
    n, mw, du = u.dimension, u.cell_measure(), u.derivative()
    cum = np.cumsum(mw * u.values**p)
    cum /= cum[-1]
    log_r = np.log(u.grid)
    lo = float(np.interp(0.02, cum, log_r))
    hi = float(np.interp(0.98, cum, log_r))
    width = 1.6 * (hi - lo) / (n_tests - 1)
    flux = np.sign(du) * np.abs(du) ** (p - 1.0)
    u_pm1 = u.values ** (p - 1.0)
    source = u_pm1 + (p / n) * (u_pm1 * p * np.log(u.values))
    bumps = bump_basis(log_r, np.linspace(lo, hi, n_tests), width, jacobian=u.grid)
    grad_t = np.array([total(mw * flux * dv) for v, dv in bumps])
    mass_t = np.array([total(mw * u_pm1 * v) for v, dv in bumps])
    inv_k = 1.0 / entropy_best_constant(n, p)
    rhs_t = np.array([-inv_k * total(mw * source * v) for v, dv in bumps])
    base = grad_t + rhs_t
    c = -float(np.dot(base, mass_t) / np.dot(mass_t, mass_t)) if C == "fit" else C
    res = base + c * mass_t
    scale = float(np.linalg.norm(np.abs(grad_t) + abs(c) * np.abs(mass_t) + np.abs(rhs_t)))
    return float(np.linalg.norm(res)) / scale, c, tuple(res), scale


def test_functionals_match_whole_array():
    """The blocked deficit, gap, slack and log-norm derivative against
    whole-array sums: bit for bit on one block, to 1e-14 relative past it."""
    for n, p in PAIRS:
        q, dq = 1.3 * p, 0.01 * (p - 1.0)
        for n_nodes in BLOCK_SIZES:
            u = random_stretched_mixture(n, np.random.default_rng(n_nodes + n), n_nodes=n_nodes)
            expected = _whole_array_functionals(u, p, q, dq)
            got = _functionals(u, p, q, dq)
            for key, val in expected.items():
                # fd divides a difference of log-norms near each other by dq
                tol = 1e-15 / dq if key == "fd" else 1e-14
                assert agrees(got[key], val, n_nodes, tol), (key, n, p, n_nodes)


def test_limit_pde_residual_matches_whole_array():
    """The blocked weak residual against whole-array bumps, fitted and fixed C."""
    for n, p in PAIRS:
        for n_nodes in BLOCK_SIZES:
            u = random_stretched_mixture(n, np.random.default_rng(n_nodes + n), n_nodes=n_nodes)
            for C in ("fit", 0.3):
                rep = limit_pde_residual(u, p, C)
                residual, c, per_test, scale = _whole_array_pde(u, p, C)
                assert agrees(rep.residual, residual, n_nodes), (n, p, n_nodes, C)
                assert agrees(rep.c_value, c, n_nodes, 1e-14), (n, p, n_nodes, C)
                assert agrees(rep.scale, scale, n_nodes), (n, p, n_nodes, C)
                for got, val in zip(rep.per_test, per_test, strict=True):
                    assert agrees(got, val, n_nodes, 1e-14 * scale), (n, p, n_nodes, C)


def test_limit_pde_residual_skips_blocks_exactly(monkeypatch):
    """The residual evaluates the bumps only on the blocks their supports
    meet (on a 200k-node mixture, on fewer blocks than the grid has), and
    still gets the sums of every bump over every block, bit for bit: the
    whole-array integrands summed block by block."""
    import lpentropy.euclidean_inequalities as ei

    def blocked(a):
        return row_sums(len(a), lambda lo, hi: (a[lo:hi],))[0]

    measured = []
    measure = ei._node_measure
    monkeypatch.setattr(ei, "_node_measure", lambda r, n: measured.append(len(r)) or measure(r, n))
    for n, p in PAIRS:
        for n_nodes in BLOCK_SIZES:
            u = random_stretched_mixture(n, np.random.default_rng(n_nodes + 7 * n), n_nodes=n_nodes)
            for C in ("fit", 0.3):
                measured.clear()
                rep = limit_pde_residual(u, p, C)
                expected = _whole_array_pde(u, p, C, total=blocked)
                assert (rep.residual, rep.c_value, rep.per_test, rep.scale) == expected, \
                    (n, p, n_nodes, C)
                assert len(measured) <= -(-n_nodes // BLOCK)
            if n_nodes == 200_000:
                assert len(measured) < -(-n_nodes // BLOCK), (n, p)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deficit_memory_peak():
    """On a 200k-node profile the deficit allocates less than one grid-sized array."""
    u = random_stretched_mixture(3, np.random.default_rng(1))
    assert _peak_bytes(lambda: entropy_deficit(u, 2.0)) <= 200_000 * 8


def test_limit_pde_residual_memory_peak():
    """On a 200k-node profile the residual holds the cumulative mass and the
    log-radius of its test window, and block-sized arrays besides."""
    u = random_stretched_mixture(3, np.random.default_rng(1))
    assert _peak_bytes(lambda: limit_pde_residual(u, 2.0)) <= 3 * 200_000 * 8

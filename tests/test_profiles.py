"""Radial profiles: quadrature weights, derivatives, extremal integrals."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpentropy.errors import DomainError, OracleDisagreement
from lpentropy.profiles import (
    RadialProfile,
    _projected_descent,
    bump_basis,
    derivative_matrix,
    entropy_integral,
    extremal_integrals,
    extremal_profile,
    extremal_spec,
    grad_energy,
    lp_norm,
    plogp,
    radial_derivative,
    random_stretched_mixture,
)
from lpentropy.special_fn import sphere_area, stretched_exp_moment

PAIRS = [(3, 1.5), (3, 2.0), (4, 2.0)]

# closed gamma-form values at b = 1, frozen from the analytic route
FLAT_INTEGRALS = {
    (3, 1.5): {
        "entropy": -2.0269468501930175,
        "grad_energy": 3.464101615137755,
        "mass_moment2": 0.6889235961592758,
        "grad_moment2": 3.9775022369364277,
        "entropy_moment2": -1.855693910698207,
    },
    (3, 2.0): {
        "entropy": -2.1773740579341836,
        "grad_energy": 3.0,
        "mass_moment2": 0.75,
        "grad_moment2": 3.75,
        "entropy_moment2": -2.3830305434506363,
    },
    (4, 2.0): {
        "entropy": -2.903165410578909,
        "grad_energy": 4.0,
        "mass_moment2": 1.0,
        "grad_moment2": 6.0,
        "entropy_moment2": -3.9031654105789104,
    },
}


def test_cell_measure_exact_for_constants():
    """The weights must integrate constants exactly: that is their invariant."""
    for n in (2, 3, 5):
        grid = np.geomspace(1e-6, 4.0, 5000)
        u = RadialProfile(grid=grid, values=np.ones_like(grid), dimension=n)
        ball = sphere_area(n) * grid[-1] ** n / n
        assert float(np.sum(u.cell_measure())) == pytest.approx(ball, rel=1e-13)


def test_radial_derivative_second_order():
    errs = []
    for m in (2000, 4000):
        g = np.geomspace(0.05, 6.0, m)
        err = np.max(np.abs(radial_derivative(g, np.sin(g)) - np.cos(g)))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8  # second-order scheme halves the step, quarters the error


def test_derivative_matrix_matches_vector_form():
    rng = np.random.default_rng(3)
    grid = np.sort(rng.uniform(0.05, 8.0, 500))
    mat = derivative_matrix(grid)
    vals = np.cos(grid) + 0.3 * grid
    assert np.array_equal(mat @ vals, radial_derivative(grid, vals))
    # bit-for-bit equality also needs the stencil summed in the same order
    for _ in range(20):
        vals = rng.standard_normal(len(grid))
        assert np.array_equal(mat @ vals, radial_derivative(grid, vals))


def test_periodic_derivative_matrix():
    side = 6.0
    errs = []
    for m in (200, 400):
        x = np.linspace(0.0, side, m, endpoint=False)
        f = 2.0 + np.sin(2.0 * math.pi * x / side)
        d = derivative_matrix(x, period=side) @ f
        rolled = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * (x[1] - x[0]))
        assert np.max(np.abs(d - rolled)) <= 1e-12 * np.max(np.abs(rolled))
        exact = (2.0 * math.pi / side) * np.cos(2.0 * math.pi * x / side)
        errs.append(np.max(np.abs(d - exact)))
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_bump_basis_derivatives_second_order():
    """Closed-form bump derivatives against a central difference of v."""
    side = 5.0
    log_errs, periodic_errs = [], []
    for m in (1000, 2000):
        r = np.geomspace(1e-3, 50.0, m)
        (v, dv), = bump_basis(np.log(r), [0.5], 1.5, jacobian=r)
        log_errs.append(np.max(np.abs(radial_derivative(r, v) - dv)))
        # centered near the seam, so the bump wraps around the period
        x = np.linspace(0.0, side, m // 4, endpoint=False)
        (v, dv), = bump_basis(x, [0.3], 1.5, period=side)
        assert v[-1] > 0.1
        periodic_errs.append(np.max(np.abs(derivative_matrix(x, period=side) @ v - dv)))
    for errs in (log_errs, periodic_errs):
        assert 3.2 < errs[0] / errs[1] < 4.8


def test_extremal_profile_is_normalized():
    for n, p in PAIRS:
        for b in (0.5, 1.0, 2.0):
            u = extremal_profile(n, p, b)
            assert lp_norm(u, p) == pytest.approx(1.0, abs=2e-8)


def test_extremal_integrals_frozen_values():
    for (n, p), expected in FLAT_INTEGRALS.items():
        got = extremal_integrals(n, p, 1.0)
        for key, val in expected.items():
            assert getattr(got, key) == pytest.approx(val, rel=1e-12), (n, p, key)
        assert got.max_rel_difference <= 1e-8


def test_saturation_identity_every_rate():
    """entropy = (n/p) ln(constant * grad energy) exactly on the family."""
    from lpentropy.constants import entropy_best_constant

    for n, p in PAIRS:
        a0 = entropy_best_constant(n, p)
        for b in (0.5, 1.0, 2.0, 5.0):
            e = extremal_integrals(n, p, b)
            assert e.entropy == pytest.approx(
                (n / p) * math.log(a0 * e.grad_energy), abs=1e-12
            )


def test_route_disagreement_is_detected():
    # a deliberately starved grid cannot hit an absurdly tight tolerance
    with pytest.raises(OracleDisagreement):
        extremal_integrals(3, 1.5, 1.0, n_nodes=5_000, check_tol=1e-12)


def test_blocked_quadrature_matches_whole_array():
    """The blocked quadrature route against the whole-array RadialProfile sums.

    Node counts around the 8 192-node block: below one block, exactly one,
    one and two past it (a one-node tail needs two nodes of left overlap for
    the end stencil), and several blocks with a short tail.  Only the
    summation order differs, so the sums agree to 1e-14 relative.
    """
    for n, p, b in ((3, 2.0, 1.0), (3, 1.5, 0.7), (4, 2.5, 1.3)):
        for n_nodes in (3, 5000, 8192, 8193, 8194, 3 * 8192 + 17):
            u = extremal_profile(n, p, b, n_nodes=n_nodes)
            mw, r2 = u.cell_measure(), u.grid**2
            expected = {
                "entropy": entropy_integral(u, p),
                "grad_energy": grad_energy(u, p),
                "mass_moment2": float(np.sum(mw * u.values**p * r2)),
                "grad_moment2": float(np.sum(mw * np.abs(u.derivative()) ** p * r2)),
                "entropy_moment2": float(np.sum(mw * plogp(u.values, p) * r2)),
            }
            got = extremal_integrals(n, p, b, n_nodes=n_nodes, check_tol=math.inf)
            for key, val in expected.items():
                assert got.quadrature[key] == pytest.approx(val, rel=1e-14), (n_nodes, key)


def test_extremal_integrals_memory_peak():
    """The 800k-node quadrature holds at most four grid-sized arrays at once."""
    tracemalloc.start()
    try:
        extremal_integrals(3, 2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 800_000 * 8


def test_plogp_underflow_guard():
    """u^p ln(u^p) must stay finite when u**p underflows to zero."""
    vals = np.array([0.0, 1e-200, 1e-3, 1.0, 2.0])
    out = plogp(vals, 2.0)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0
    assert out[3] == 0.0
    assert out[4] == pytest.approx(4.0 * math.log(4.0), rel=1e-12)
    assert out[2] == pytest.approx(1e-6 * math.log(1e-6), rel=1e-12)


def test_profile_validation():
    g = np.geomspace(1e-4, 1.0, 100)
    with pytest.raises(DomainError):
        RadialProfile(grid=g[::-1], values=np.ones(100), dimension=3)
    with pytest.raises(DomainError):
        RadialProfile(grid=g, values=-np.ones(100), dimension=3)
    with pytest.raises(DomainError):
        RadialProfile(grid=g, values=np.ones(100), dimension=1)
    with pytest.raises(DomainError):
        lp_norm(RadialProfile(grid=g, values=np.ones(100), dimension=3), 0.5)


def test_csv_round_trip(tmp_path):
    u = extremal_profile(3, 2.0, 1.0, n_nodes=500)
    path = tmp_path / "profile.csv"
    u.to_csv(path)
    back = RadialProfile.from_csv(path, dimension=3)
    assert np.array_equal(back.grid, u.grid)
    assert np.array_equal(back.values, u.values)


def test_csv_malformed_inputs(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DomainError, match="empty"):
        RadialProfile.from_csv(empty, dimension=3)

    bad_row = tmp_path / "bad.csv"
    bad_row.write_text("r,u\n0.1,0.5\n0.2,oops\n")
    with pytest.raises(DomainError, match="line 3"):
        RadialProfile.from_csv(bad_row, dimension=3)

    short_row = tmp_path / "short.csv"
    short_row.write_text("r,u\n0.1\n")
    with pytest.raises(DomainError):
        RadialProfile.from_csv(short_row, dimension=3)


def test_mixture_seeding_and_positivity():
    rng = np.random.default_rng(123)
    u1 = random_stretched_mixture(3, rng)
    u2 = random_stretched_mixture(3, np.random.default_rng(123))
    assert np.array_equal(u1.values, u2.values)
    assert np.all(u1.values > 0)
    assert u1.dimension == 3
    # mixtures are deliberately unnormalized trial data
    norm = lp_norm(u1, 2.0)
    assert math.isfinite(norm) and norm > 0
    assert u1.values[-1] < 1e-15  # decays to the tail cutoff


def test_entropy_and_grad_consistency():
    """Quadrature operators agree with the closed forms on the extremal."""
    u = extremal_profile(3, 2.0, 1.0)
    ref = extremal_integrals(3, 2.0, 1.0)
    assert entropy_integral(u, 2.0) == pytest.approx(ref.entropy, abs=5e-8)
    assert grad_energy(u, 2.0) == pytest.approx(ref.grad_energy, rel=5e-8)


def test_extremal_spec_shape():
    spec = extremal_spec(3, 2.0, 1.0)
    assert spec.shape_power == pytest.approx(2.0)
    spec = extremal_spec(3, 1.5, 1.0)
    assert spec.shape_power == pytest.approx(3.0)
    r = np.array([0.5, 1.0])
    expected = spec.amplitude * np.exp(-1.0 * r**3.0)
    assert spec.value(r) == pytest.approx(expected, rel=1e-14)


def test_gaussian_norm_and_grad_energy_closed_forms():
    # ||e^{-r^2}||_2 = (pi/2)^{3/4} on R^3; the gradient energy is
    # omega_2 * 4 * int r^4 e^{-2r^2} dr = 3 (pi/2)^{3/2}
    g = np.geomspace(1e-4, 12.0, 400_000)
    u = RadialProfile(g, np.exp(-(g**2)), 3)
    assert lp_norm(u, 2.0) == pytest.approx((math.pi / 2) ** 0.75, rel=1e-8)
    target = 16.0 * math.pi * stretched_exp_moment(4, 2.0, 2.0)
    assert target == pytest.approx(3.0 * (math.pi / 2) ** 1.5, rel=1e-14)
    assert grad_energy(u, 2.0) == pytest.approx(target, rel=1e-8)


def test_extremal_spec_amplitude_normalizes_exactly():
    """The amplitude solves a^p A(S^{n-1}) M = 1 in closed form, not by quadrature."""
    for n, p, b in [(3, 2.0, 1.0), (3, 1.5, 0.5), (4, 2.0, 2.0), (5, 1.2, 1.0)]:
        spec = extremal_spec(n, p, b)
        mom = stretched_exp_moment(n - 1, spec.shape_power, p * b)
        assert spec.amplitude**p * sphere_area(n) * mom == pytest.approx(1.0, abs=1e-13)


def test_entropy_dilation_covariance():
    # the discrete entropy sum shifts by exactly n ln(lam) under
    # u_lam(r) = lam^{n/p} u(lam r), provided the quadrature norm is 1
    u0 = extremal_profile(3, 2.0, 1.0)
    u = RadialProfile(u0.grid, u0.values / lp_norm(u0, 2.0), 3)
    base = entropy_integral(u, 2.0)
    for lam in (0.5, 2.0):
        ul = RadialProfile(u.grid / lam, lam ** (3 / 2.0) * u.values, 3)
        gap = entropy_integral(ul, 2.0) - base - 3 * math.log(lam)
        assert abs(gap) <= 1e-8


def _quadratic(a, c):
    """f(u) = sum a (u - c)^2 / 2, its gradient, and a log of every iterate.

    The driver calls the gradient once per iteration, at the accepted
    iterate, so the log holds the iterates and their values in order.
    """
    log = []

    def objective(u):
        val = 0.5 * float(np.sum(a * (u - c) ** 2))
        return val, val

    def gradient(u, val):
        log.append((u.copy(), val))
        return a * (u - c)

    return objective, gradient, log


def _preconditioned_gradient_norm(a, c, w, u):
    floor = np.maximum(w, 1e-3 * float(np.mean(w)))
    return float(np.max(np.abs(a * (u - c) / floor)))


def test_projected_descent_diagonal_quadratic():
    # the projected minimizer c has three coordinates on the bound u = 0
    a = np.array([1.0, 3.0, 0.5, 2.0, 4.0, 1.5])
    c = np.array([1.0, 0.0, 0.3, 0.0, 0.0, 0.8])
    w = np.array([1.0, 0.5, 2.0, 1.0, 0.7, 1.2])
    u0 = np.full(6, 2.0)
    objective, gradient, log = _quadratic(a, c)
    u, val, iters = _projected_descent(objective, gradient, u0, w, 10_000, armijo=0.25,
                                       gtol=1e-9)
    values = [v for _, v in log]
    assert all(np.all(x >= 0.0) for x, _ in log)
    assert any(np.any(x == 0.0) for x, _ in log)  # the projection was active
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    # stopped on gtol: at the first iterate whose gradient is below it
    norms = [_preconditioned_gradient_norm(a, c, w, x) for x, _ in log]
    assert norms[-1] < 1e-9 <= min(norms[:-1])
    assert np.array_equal(log[-1][0], u)
    assert iters < 10_000
    assert len(log) == iters + 1  # one gradient per iteration plus the stopping one
    assert val == objective(u)[0]
    assert np.max(np.abs(u - c)) < 1e-8

    # max_iters caps the count
    objective, gradient, log = _quadratic(a, c)
    _, _, iters = _projected_descent(objective, gradient, u0, w, 3, armijo=0.25, gtol=1e-9)
    assert iters == 3
    assert len(log) == 3


def test_projected_descent_degenerate_seed():
    with pytest.raises(DomainError, match="seed profile is degenerate"):
        _projected_descent(lambda u: (None, None), None, np.ones(4), np.ones(4), 10, 1e-4)


@st.composite
def _diagonal_quadratics(draw):
    m = draw(st.integers(2, 10))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))

    return vec(1.0, 4.0), vec(-2.0, 2.0), vec(0.5, 2.0), vec(0.0, 3.0)


@settings(max_examples=40, deadline=None)
@given(_diagonal_quadratics())
def test_projected_descent_property(quadratic):
    a, c, w, u0 = quadratic
    for target in (c, np.maximum(c, 0.0)):
        objective, gradient, log = _quadratic(a, target)
        u, val, iters = _projected_descent(objective, gradient, u0, w, 5000, armijo=1e-4,
                                           gtol=1e-9)
        values = [v for _, v in log]
        assert all(np.all(x >= 0.0) for x, _ in log)
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))
        assert val <= objective(u0)[0]
        assert iters <= 5000
    # with every target coordinate >= 0 the gradient vanishes at the
    # projected minimizer, so the descent reaches it and stops on gtol
    assert _preconditioned_gradient_norm(a, target, w, u) < 1e-9
    assert np.max(np.abs(u - target)) < 1e-8

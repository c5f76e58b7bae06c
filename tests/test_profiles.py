"""Radial profiles: node measure, derivatives, extremal integrals."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from tanh_sinh_reference import member_by_member
from whole_array import BLOCK, BLOCK_SIZES, agrees, row_sums

from lpentropy import manifold_minimizer, profiles
from lpentropy.constants import InequalityParams, derived_exponents
from lpentropy.errors import DomainError, OracleDisagreement
from lpentropy.manifold_geometry import ManifoldModel
from lpentropy.manifold_minimizer import symmetric_profile
from lpentropy.profiles import (
    DEFAULT_R_MIN,
    RadialProfile,
    _adjoint_passes,
    _apply_adjoint,
    _apply_stencil,
    _blocked_sums,
    _discrete_functional,
    _extremal_quadrature,
    _mass_quantiles,
    _missed,
    _node_measure,
    _projected_descent,
    _stencil,
    _tanh_sinh,
    bump_basis,
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
    """The node measure must integrate constants exactly: that is its invariant."""
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


def test_functional_derivative_matches_radial_derivative():
    # the derivative the functional caches is radial_derivative of u - u[-1]
    rng = np.random.default_rng(3)
    grid = np.sort(rng.uniform(0.05, 8.0, 500))
    objective, _, _ = _discrete_functional(grid, _node_measure(grid, 3), 2.0, 0.0, ((2.0, -1.0),))
    vals = np.cos(grid) + 0.3 * grid
    assert np.array_equal(objective(vals)[1][-3], radial_derivative(grid, vals - vals[-1]))
    # bit-for-bit equality also needs the stencil summed in the same order
    for _ in range(20):
        vals = rng.standard_normal(len(grid))
        assert np.array_equal(objective(vals)[1][-3], radial_derivative(grid, vals - vals[-1]))


def _csr_stencil(grid, period=None):
    """The stencil as a scipy CSR matrix, row i holding node i's weights in
    the order the derivative sums them (the operator it replaced)."""
    x = np.asarray(grid, dtype=float)
    m = len(x)
    nodes = np.arange(m)
    if period is None:
        h = np.diff(x)
        cols = np.stack([nodes - 1, nodes, nodes + 1], axis=1)
        cols[0], cols[-1] = (0, 1, 2), (m - 1, m - 2, m - 3)
        data = np.empty((m, 3))
        data[1:-1] = np.stack(profiles._centered_coefficients(h[:-1], h[1:]), axis=1)
        data[0] = profiles._one_sided_coefficients(h[0], h[1])
        data[-1] = profiles._one_sided_coefficients(-h[-1], -h[-2])
    else:
        h = np.diff(x, append=x[0] + period)
        cols = np.stack([nodes - 1, nodes, nodes + 1], axis=1) % m
        data = np.stack(profiles._centered_coefficients(np.roll(h, 1), h), axis=1)
    return sparse.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, 3 * m + 1, 3)),
                             shape=(m, m))


@pytest.mark.parametrize("m", [*range(3, 13), 600, 4000])
@pytest.mark.parametrize("period", [None, 6.0])
def test_derivative_operator_matches_csr(m, period):
    """The stencil D and its adjoint D.T, applied by _apply_stencil and
    _apply_adjoint, against scipy's CSR product and its transposed (CSC)
    product, np.array_equal: at m <= 6 the stencils of the two end nodes
    meet the same nodes, and at every m the adjoint's end entries sum node
    0's or node m-1's stencil with the centered rows."""
    rng = np.random.default_rng(m)
    for trial in range(4):
        if period is None:
            grid = np.geomspace(1e-3, 8.0, m) if trial == 0 else np.sort(rng.uniform(0.05, 8.0, m))
        else:
            grid = (np.linspace(0.0, period, m, endpoint=False) if trial == 0
                    else np.sort(rng.uniform(0.0, period, m)))
        assert np.all(np.diff(grid) > 0)
        inner, ends = _stencil(grid, period)
        passes = _adjoint_passes(inner, ends)
        S = _csr_stencil(grid, period)
        for _ in range(5):
            v = rng.standard_normal(m)
            assert np.array_equal(_apply_stencil(v, inner, ends), S @ v)
            assert np.array_equal(_apply_adjoint(v, passes), S.T @ v)
        if m <= 600:  # the dense matrices, column by column and row by row
            eye = np.eye(m)
            assert np.array_equal(np.stack([_apply_stencil(e, inner, ends) for e in eye], axis=1),
                                  S.toarray())
            assert np.array_equal(np.stack([_apply_adjoint(e, passes) for e in eye]), S.toarray())


def test_periodic_stencil_second_order():
    side = 6.0
    errs = []
    for m in (200, 400):
        x = np.linspace(0.0, side, m, endpoint=False)
        f = 2.0 + np.sin(2.0 * math.pi * x / side)
        d = _apply_stencil(f, *_stencil(x, side))
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
        (v,), (dv,) = bump_basis(np.log(r), [0.5], 1.5, jacobian=r)
        log_errs.append(np.max(np.abs(radial_derivative(r, v) - dv)))
        # centered near the seam, so the bump wraps around the period
        x = np.linspace(0.0, side, m // 4, endpoint=False)
        (v,), (dv,) = bump_basis(x, [0.3], 1.5, period=side)
        assert v[-1] > 0.1
        periodic_errs.append(np.max(np.abs(_apply_stencil(v, *_stencil(x, side)) - dv)))
    for errs in (log_errs, periodic_errs):
        assert 3.2 < errs[0] / errs[1] < 4.8


def _bump_loop(coord, centers, width, jacobian=1.0, period=None):
    """bump_basis written one center at a time, as a reference."""
    coord = np.asarray(coord, dtype=float)
    jac = np.broadcast_to(np.asarray(jacobian, dtype=float), coord.shape)
    basis = []
    for c in centers:
        delta = coord - c
        if period is not None:
            delta = (delta + period / 2.0) % period - period / 2.0
        x = delta / width
        inside = np.abs(x) < 1.0
        v = np.zeros_like(coord)
        dv = np.zeros_like(coord)
        xs = x[inside]
        v[inside] = np.exp(-1.0 / (1.0 - xs**2))
        dv[inside] = v[inside] * (-2.0 * xs / (1.0 - xs**2) ** 2) / (jac[inside] * width)
        basis.append((v, dv))
    return basis


def test_bump_basis_matches_one_center_at_a_time():
    """The (centers, nodes) arrays hold each center's bump bit for bit: in
    ln r with the jacobian r, and on a period with centers across the seam."""
    r = np.geomspace(1e-4, 30.0, 3001)
    side = 6.0
    x = np.linspace(0.0, side, 701, endpoint=False)
    cases = [
        ((np.log(r), np.linspace(-3.0, 2.5, 12), 0.8), {"jacobian": r}),
        ((x, np.array([0.1, 2.0, 5.9, 6.0, -0.4]), 1.3), {"period": side}),
        ((x, [0.3, 4.7], 0.05), {}),
    ]
    for args, kwargs in cases:
        v, dv = bump_basis(*args, **kwargs)
        ref = _bump_loop(*args, **kwargs)
        assert v.shape == dv.shape == (len(ref), len(args[0]))
        for i, (rv, rdv) in enumerate(ref):
            assert np.count_nonzero(rv) > 0
            assert np.array_equal(v[i], rv) and np.array_equal(dv[i], rdv), (kwargs, i)
    # the seam: a bump centered at 0.1 reaches the last nodes of the period
    v, _ = bump_basis(x, [0.1], 1.3, period=side)
    assert v[0, -1] > 0


def test_extremal_profile_is_normalized():
    for n, p in PAIRS:
        for b in (0.5, 1.0, 2.0):
            u = extremal_profile(n, p, b)
            assert lp_norm(u, p) == pytest.approx(1.0, abs=2e-8)


@pytest.mark.parametrize("n, p", PAIRS)
def test_extremal_integrals_at_narrow_cores(n, p):
    """The oracle's grid starts at DEFAULT_R_MIN * b^{-1/p'}, so the two
    routes agree to 1e-8 however narrow the core."""
    for b in (1e5, 1e10, 1e14, 1e30):
        assert extremal_integrals(n, p, b).max_rel_difference <= 1e-8, b


def test_extremal_grid_placed_by_the_core_width():
    for n, p in PAIRS:
        for b in (0.5, 1.0):
            spec = extremal_spec(n, p, b)
            grid = extremal_profile(n, p, b, n_nodes=1000).grid
            assert np.array_equal(grid, np.geomspace(DEFAULT_R_MIN, spec.support_radius(), 1000))
        spec = extremal_spec(n, p, 1e12)
        assert spec.core_width == pytest.approx(1e12 ** (-1.0 / spec.shape_power), rel=1e-15)
        grid = extremal_profile(n, p, 1e12, n_nodes=1000).grid
        assert grid[0] == pytest.approx(DEFAULT_R_MIN * spec.core_width, rel=1e-15)
        # the extremal of rate b is that of rate 1 dilated by the core width
        unit = extremal_spec(n, p, 1.0)
        r = np.array([0.3, 1.0, 2.0])
        assert spec.value(r * spec.core_width) / spec.amplitude == pytest.approx(
            unit.value(r) / unit.amplitude, rel=1e-12)


def test_support_radius_needs_an_amplitude_above_the_cutoff():
    # at b = 1e-260 (n = 2, p = 1.05) the amplitude is 9e-25: no node of the
    # profile lies above the tail cutoff, a typed error, not a complex radius
    spec = extremal_spec(2, 1.05, 1e-260)
    assert 0 < spec.amplitude < 1e-16
    with pytest.raises(DomainError, match="tail cutoff"):
        spec.support_radius()
    with pytest.raises(DomainError, match="tail cutoff"):
        extremal_profile(2, 1.05, 1e-260, n_nodes=2000)


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
    # a deliberately starved grid cannot meet the 1e-8 check
    with pytest.raises(OracleDisagreement):
        extremal_integrals(3, 1.5, 1.0, n_nodes=5_000)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("p", [1.001, 1.003, 1.5, 2.0])
def test_extremal_ladder_estimate_covers_its_error(n, p):
    """The ladder's own estimate bounds route two's actual error against the
    closed forms, and a ladder that stopped below its cap stopped on it."""
    e = extremal_integrals(n, p, 1.0)
    assert e.max_rel_difference <= e.error_estimate
    if e.nodes < 400_001:
        assert e.error_estimate <= 1e-9


def test_extremal_ladder_stops_by_25k_nodes():
    """Away from p = 1 a default call stops at the 25 001-node level."""
    for n, p in PAIRS:
        for b in (0.5, 1.0, 2.0):
            assert extremal_integrals(n, p, b).nodes <= 25_001, (n, p, b)


def test_extremal_ladder_levels(monkeypatch):
    """Nested levels m, 2m - 1, ... up to the cap, Richardson-extrapolated.

    Route two is the last extrapolated level, bit for bit; the estimate is
    the last change of the extrapolation; and the default cap's levels
    sum to fewer nodes than one 800 000-node pass.
    """
    levels = []

    def spy(spec, n_nodes):
        sums = _extremal_quadrature(spec, n_nodes)
        levels.append((n_nodes, np.array(sums)))
        return sums

    monkeypatch.setattr(profiles, "_extremal_quadrature", spy)
    e = extremal_integrals(3, 1.001, 1.0)
    counts = [m for m, _ in levels]
    assert counts == [3126, 6251, 12_501, 25_001, 50_001, 100_001, 200_001, 400_001]
    assert sum(counts) <= 800_000
    assert e.nodes == 400_001
    s = [sums for _, sums in levels]
    r = [fine + (fine - coarse) / 3.0 for coarse, fine in zip(s, s[1:])]
    assert list(e.quadrature.values()) == r[-1].tolist()
    assert e.error_estimate == float(np.max(np.abs(r[-1] - r[-2]) / np.abs(r[-1])))
    # every level holds the nodes of the one before: the log-step halves
    spec = extremal_spec(3, 1.001, 1.0)
    coarse, fine = profiles._extremal_grid(spec, 3126), profiles._extremal_grid(spec, 6251)
    np.testing.assert_allclose(fine[::2], coarse, rtol=1e-13)

    # a cap below the base level is one level of that many nodes, and one
    # below the second level holds the base level alone: both are the raw
    # sums of a starved grid
    for cap, expected in ((2000, [2000]), (5000, [3126])):
        levels.clear()
        with pytest.raises(OracleDisagreement):
            extremal_integrals(3, 1.5, 1.0, n_nodes=cap)
        assert [m for m, _ in levels] == expected, cap
    # two levels extrapolate once and have no estimate yet
    levels.clear()
    e = extremal_integrals(3, 1.5, 1.0, n_nodes=6251)
    assert [m for m, _ in levels] == [3126, 6251]
    assert e.nodes == 6251 and math.isnan(e.error_estimate)


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
            gp = np.abs(u.derivative()) ** p
            expected = {
                "entropy": float(np.sum(mw * plogp(u.values, p))),
                "grad_energy": float(np.sum(mw * gp)),
                "mass_moment2": float(np.sum(mw * u.values**p * r2)),
                "grad_moment2": float(np.sum(mw * gp * r2)),
                "entropy_moment2": float(np.sum(mw * plogp(u.values, p) * r2)),
            }
            got = dict(zip(expected, _extremal_quadrature(extremal_spec(n, p, b), n_nodes)))
            for key, val in expected.items():
                assert got[key] == pytest.approx(val, rel=1e-14), (n_nodes, key)


def test_profile_integrals_match_whole_array():
    """lp_norm, grad_energy and entropy_integral, summed block by block,
    against the whole-array sums: bit for bit on one block, to 1e-14 past it."""
    for n, p in PAIRS:
        for n_nodes in BLOCK_SIZES:
            u = random_stretched_mixture(n, np.random.default_rng(n_nodes), n_nodes=n_nodes)
            mw = u.cell_measure()
            expected = {
                lp_norm: float(np.sum(mw * u.values**p)) ** (1.0 / p),
                grad_energy: float(np.sum(mw * np.abs(u.derivative()) ** p)),
                entropy_integral: float(np.sum(mw * plogp(u.values, p))),
            }
            for fn, val in expected.items():
                assert agrees(fn(u, p), val, n_nodes), (fn.__name__, n, p, n_nodes)


def test_profile_integrals_reject_non_finite_exponents():
    u = extremal_profile(3, 2.0, 1.0, n_nodes=500)
    for fn in (lp_norm, grad_energy, entropy_integral):
        for p in (math.inf, -math.inf, math.nan, 0.5):
            with pytest.raises(DomainError):
                fn(u, p)


@pytest.mark.parametrize("n, p, b", [
    (3, 2.0, 1e100),   # (a b p')^p overflows
    (2, 1.5, 1e140),   # a closed form underflows to 0
    (5, 1.5, 1e-185),  # the amplitude underflows to 0
])
def test_extremal_integrals_out_of_float_range(n, p, b):
    with pytest.raises(DomainError, match="leave the float range"):
        extremal_integrals(n, p, b, n_nodes=2000)


def test_extremal_integrals_memory_peak():
    """Near p = 1 the ladder climbs to its 400 001-node level, and holds at
    most four arrays of that level's size at once."""
    tracemalloc.start()
    try:
        nodes = extremal_integrals(3, 1.003, 1.0).nodes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes == 400_001
    assert peak <= 4 * 400_001 * 8


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
    # a dimension below 2, fractional, or not finite (nan and inf once
    # escaped as ValueError and OverflowError from int())
    for n in (1, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            RadialProfile(grid=g, values=np.ones(100), dimension=n)
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

    header = tmp_path / "header.csv"
    header.write_text("x,y\n0.1,0.5\n")
    with pytest.raises(DomainError, match=re.escape("expected CSV header 'r,u', got ['x', 'y']")):
        RadialProfile.from_csv(header, dimension=3)

    header_only = tmp_path / "header_only.csv"
    header_only.write_text("r,u\n")
    with pytest.raises(DomainError, match="a profile needs at least 3 nodes"):
        RadialProfile.from_csv(header_only, dimension=3)

    bad_row = tmp_path / "bad.csv"
    bad_row.write_text("r,u\n0.1,0.5\n0.2,oops\n")
    with pytest.raises(DomainError, match="line 3"):
        RadialProfile.from_csv(bad_row, dimension=3)
    # past the first block of rows, with the row as parsed
    late = tmp_path / "late.csv"
    late.write_text("r,u\n" + "".join(f"{i + 1},1\n" for i in range(9000)) + "9001,,\n")
    with pytest.raises(DomainError, match=re.escape(f"line 9002 of {late}: ['9001', '', '']")):
        RadialProfile.from_csv(late, dimension=3)

    short_row = tmp_path / "short.csv"
    short_row.write_text("r,u\n0.1\n")
    with pytest.raises(DomainError):
        RadialProfile.from_csv(short_row, dimension=3)


def test_csv_rows_past_the_line_count(tmp_path):
    """Rows the newline count misses ('\\r' line ends, or no final newline)
    still all arrive: the arrays grow to take them."""
    u = random_stretched_mixture(3, np.random.default_rng(6), n_nodes=20_000)
    rows = [f"{r!r},{v!r}" for r, v in zip(u.grid.tolist(), u.values.tolist())]
    for name, text in (("cr.csv", "\r".join(["r,u"] + rows) + "\r"),
                       ("bare.csv", "\n".join(["r,u"] + rows))):
        path = tmp_path / name
        path.write_bytes(text.encode())
        back = RadialProfile.from_csv(path, dimension=3)
        assert np.array_equal(back.grid, u.grid) and np.array_equal(back.values, u.values)


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


def test_mixture_matches_written_out_expression():
    """The in-place construction gives the bits of the expression written out."""
    for n, seed in ((3, 0), (3, 1), (4, 2)):
        u = random_stretched_mixture(n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.2, 2.0, size=2)
        bb = rng.uniform(0.3, 3.0, size=2)
        ss = rng.uniform(1.0, 4.0, size=2)
        g = u.grid
        expected = c[0] * np.exp(-bb[0] * g ** ss[0]) + c[1] * np.exp(-bb[1] * g ** ss[1])
        assert np.array_equal(u.values, expected)


def test_extremal_value_matches_written_out_expression():
    """ExtremalSpec.value in one buffer gives the bits of the expression
    written out, on arrays, lists and 0-d inputs alike."""
    for n, p, b in ((3, 2.0, 1.0), (4, 1.5, 0.7), (2, 3.0, 1e3)):
        spec = extremal_spec(n, p, b)
        u = extremal_profile(n, p, b, 20_001)
        grid = u.grid
        for r in (grid, grid[::7].tolist(), grid.reshape(3, -1)[:, :5], np.float64(0.3), 0.3,
                  np.array(0.3)):
            got = spec.value(r)
            expected = spec.amplitude * np.exp(-spec.b * np.asarray(r, dtype=float) ** spec.shape_power)
            assert type(got) is type(expected) and np.array_equal(got, expected)
        assert np.array_equal(u.values, spec.value(grid))


def test_node_measure_matches_written_out_expression():
    """The in-place node measure gives the bits of the expression written out."""
    grids = (np.geomspace(1e-6, 30.0, 200_000), np.array([0.1, 0.4, 2.0]),
             np.sort(np.random.default_rng(4).uniform(0.01, 9.0, 5000)))
    for n in (2, 3, 4, 7):
        om = sphere_area(n)
        for r in grids:
            power = r
            for _ in range(n - 1):
                power = power * r
            half = om / (2 * n) * (power[1:] - power[:-1])
            measure = np.zeros_like(r)
            measure[:-1] += half
            measure[1:] += half
            measure[0] += om * r[0] ** n / n
            assert np.array_equal(_node_measure(r, n), measure)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.floats(1e-8, 1e-1),
       st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=400))
def test_node_measure_sums_to_ball_volume(n, r0, steps):
    """On any increasing grid the node measure sums to the ball's volume."""
    r = r0 + np.concatenate([[0.0], np.cumsum(steps)])
    ball = sphere_area(n) * r[-1] ** n / n
    assert float(np.sum(_node_measure(r, n))) == pytest.approx(ball, rel=1e-13)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mixture_memory_peak():
    """A 200k-node mixture: its grid and values plus two blocks; no weights.
    (np.geomspace itself peaks at two grid-sized arrays.)"""
    # the first draw of a process loads the generator's machinery, ~1 MB
    random_stretched_mixture(3, np.random.default_rng(1), n_nodes=3)
    peak = _peak_bytes(lambda: random_stretched_mixture(3, np.random.default_rng(1)))
    assert peak <= 2 * 200_000 * 8 + 2 * profiles._BLOCK_NODES * 8


#: fixed allowance of the builders at 1 000 000 nodes beyond 16 B per node:
#: measured 67 KB for the mixture, 11 KB for the extremal profile and
#: 356 KB for from_csv (one block of parsed rows and the reader's buffers)
_BUILD_ALLOWANCE = 512 * 1024


def test_builders_memory_scales_with_the_profile(tmp_path):
    """Building or reading a 1 000 000-node profile holds its grid and
    values, 16 B per node, plus a fixed allowance."""
    m = 1_000_000
    u = random_stretched_mixture(3, np.random.default_rng(2), n_nodes=m)
    path = tmp_path / "profile.csv"
    with open(path, "w") as fh:
        fh.write("r,u\n")
        fh.writelines(f"{r!r},{v!r}\n" for r, v in zip(u.grid.tolist(), u.values.tolist()))
    built = {}
    builders = {
        "mixture": lambda: random_stretched_mixture(3, np.random.default_rng(2), n_nodes=m),
        "extremal": lambda: extremal_profile(3, 2.0, 1.0, n_nodes=m),
        "from_csv": lambda: built.update(back=RadialProfile.from_csv(path, dimension=3)),
    }
    for name, build in builders.items():
        assert _peak_bytes(build) <= 16 * m + _BUILD_ALLOWANCE, name
    back = built["back"]
    assert np.array_equal(back.grid, u.grid) and np.array_equal(back.values, u.values)


def test_mass_quantiles_match_whole_array():
    """The blocked window against np.interp on the whole cumulative mass, bit
    for bit: across block sizes, with crossings at block ends, and where u^p
    underflows to 0 over whole blocks, so the cumulative mass is flat there."""
    def whole(grid, values, n, p, levels):
        cum = np.cumsum(_node_measure(grid, n) * values**p)
        cum /= cum[-1]
        return [float(np.interp(t, cum, np.log(grid))) for t in levels]

    levels = (0.0, 1e-300, 0.02, 0.5, 0.98, 0.999999)
    for n_nodes in BLOCK_SIZES:
        u = random_stretched_mixture(3, np.random.default_rng(n_nodes), n_nodes=n_nodes)
        for p in (1.2, 2.0):
            got = _mass_quantiles(u.grid, u.values, 3, p, levels)
            assert got == whole(u.grid, u.values, 3, p, levels), (n_nodes, p)
    m = 5 * BLOCK
    grid = np.geomspace(1e-3, 10.0, m)
    values = np.full(m, 1e-200)
    values[BLOCK // 2] = values[3 * BLOCK + 5] = 1.0
    values[-1] = 0.5
    cum = np.cumsum(_node_measure(grid, 3) * values**2)
    # every level that the cumulative mass takes at a node, and at block ends
    at = sorted({float(c) for c in cum / cum[-1] if c < cum[-1]}
                | {float(cum[k - 1] / cum[-1]) for k in range(BLOCK, m, BLOCK)})
    assert _mass_quantiles(grid, values, 3, 2.0, at) == whole(grid, values, 3, 2.0, at)


@pytest.mark.parametrize("values, message", [
    (1e200, "leaves the float range"),   # u^p overflows
    (1e-200, "no mass"),                 # u^p underflows to 0 everywhere
])
def test_mass_quantiles_refuse_a_total_out_of_range(values, message):
    grid = np.geomspace(1e-3, 10.0, 3 * BLOCK)
    with pytest.raises(DomainError, match=message):
        _mass_quantiles(grid, np.full(len(grid), values), 3, 2.0, (0.02,))


def test_entropy_and_grad_consistency():
    """Quadrature operators agree with the closed forms on the extremal."""
    u = extremal_profile(3, 2.0, 1.0)
    ref = extremal_integrals(3, 2.0, 1.0)
    assert entropy_integral(u, 2.0) == pytest.approx(ref.entropy, abs=5e-8)
    assert grad_energy(u, 2.0) == pytest.approx(ref.grad_energy, rel=5e-8)


def test_extremal_spec_rejects_unnormalizable_rates():
    # b = inf, and rates whose mass moment underflows or overflows
    for b in (math.inf, math.nan, 1e250, 1e-300, 0.0):
        with pytest.raises(DomainError):
            extremal_spec(3, 2.0, b)
    for n in (1, math.nan, math.inf):
        with pytest.raises(DomainError):
            extremal_spec(n, 2.0, 1.0)
    assert extremal_spec(3, 2.0, 1e100).amplitude > 0


def test_extremal_spec_shape():
    spec = extremal_spec(3, 2.0, 1.0)
    assert spec.shape_power == pytest.approx(2.0)
    spec = extremal_spec(3, 1.5, 1.0)
    assert spec.shape_power == pytest.approx(3.0)
    r = np.array([0.5, 1.0])
    expected = spec.amplitude * np.exp(-1.0 * r**3.0)
    assert spec.value(r) == pytest.approx(expected, rel=1e-14)


def test_extremal_spec_derivative_where_the_core_underflows():
    # p = 1.02: p' - 1 = 50, so r^{p'-1} overflows at r = 1e10 while
    # exp(-b r^{p'}) is 0 there; the derivative is 0, not inf * 0
    spec = extremal_spec(3, 1.02, 1.0)
    pp = spec.shape_power
    r = np.array([0.5, 0.9, 1.1, 1e3, 1e10])
    with np.errstate(over="ignore"):
        got = spec.derivative(r)
    expected = -spec.amplitude * pp * r[:3] ** (pp - 1.0) * np.exp(-(r[:3] ** pp))
    assert got[:3] == pytest.approx(expected, rel=1e-14)
    assert np.array_equal(got[3:], [0.0, 0.0])


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
    u, val, iters, reason = _projected_descent(objective, gradient, u0, w, 10_000,
                                               armijo=0.25, gtol=1e-9)
    values = [v for _, v in log]
    assert all(np.all(x >= 0.0) for x, _ in log)
    assert any(np.any(x == 0.0) for x, _ in log)  # the projection was active
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    # stopped on gtol: at the first iterate whose gradient is below it
    norms = [_preconditioned_gradient_norm(a, c, w, x) for x, _ in log]
    assert norms[-1] < 1e-9 <= min(norms[:-1])
    assert reason == "gtol"
    assert np.array_equal(log[-1][0], u)
    assert iters < 10_000
    assert len(log) == iters + 1  # one gradient per iteration plus the stopping one
    assert val == objective(u)[0]
    assert np.max(np.abs(u - c)) < 1e-8

    # max_iters caps the count
    objective, gradient, log = _quadratic(a, c)
    _, _, iters, reason = _projected_descent(objective, gradient, u0, w, 3, armijo=0.25,
                                             gtol=1e-9)
    assert (iters, reason) == (3, "max_iters")
    assert len(log) == 3

    # the cap is a nonnegative integer; 0 returns the seed
    for bad in (-1, 2.5, True, None):
        with pytest.raises(DomainError):
            _projected_descent(objective, gradient, u0, w, bad, armijo=0.25)
    u, _, iters, reason = _projected_descent(objective, gradient, u0, w, 0, armijo=0.25)
    assert (iters, reason) == (0, "max_iters") and np.array_equal(u, u0)


def test_projected_descent_retraction_reuses_the_trial():
    # f(u) = ln(sum a u^2) - 2 ln(sum b u) is 0-homogeneous, minimal on the
    # ray through b / a; the retraction rescales to unit Euclidean norm and
    # rescales the trial's sums with it
    a = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
    b = np.array([1.0, 0.5, 2.0, 1.0, 0.2])
    events = []

    def objective(u):
        events.append(("objective", u))
        cache = (float(np.sum(a * u**2)), float(np.sum(b * u)), float(np.sum(u**2)))
        return math.log(cache[0]) - 2.0 * math.log(cache[1]), cache

    def gradient(u, cache):
        events.append(("gradient", u))
        return 2.0 * a * u / cache[0] - 2.0 * b / cache[1]

    def retract(cand, cache):
        events.append(("retract", cand))
        s = math.sqrt(cache[2])
        return cand / s, (cache[0] / s**2, cache[1] / s, 1.0)

    # the value stalls at rounding level once the gradient is near sqrt(eps)
    u, val, iters, reason = _projected_descent(objective, gradient, np.ones(5), np.ones(5),
                                               10_000, armijo=0.25, gtol=1e-6, retract=retract)
    # one evaluation for the seed, then per iteration the gradient, one
    # evaluation per line-search trial, and the retraction of the last
    # (accepted) trial; no evaluation ever follows a retraction
    trace = "".join(kind[0].upper() for kind, _ in events)
    assert re.fullmatch(r"O(GO+R)*G", trace), trace
    assert trace.count("R") == iters and reason == "gtol"
    for (kind, x), (prev_kind, prev_x) in zip(events[1:], events):
        if kind == "retract":
            assert prev_kind == "objective" and x is prev_x
    assert float(np.linalg.norm(u)) == pytest.approx(1.0, abs=1e-15)
    best = b / a / np.linalg.norm(b / a)
    assert np.max(np.abs(u - best)) < 1e-6
    # the kept trial value is the value at the retracted point
    assert val == pytest.approx(objective(u)[0], abs=1e-14)


def test_projected_descent_at_a_stationary_seed():
    # the gradient of |u - c|^2 / 2 vanishes at u = c, so the direction
    # does not descend and no iteration runs
    c = np.array([1.0, 2.0])

    def objective(u):
        return 0.5 * float(np.sum((u - c) ** 2)), None

    _, val, iters, reason = _projected_descent(objective, lambda u, _: u - c, c.copy(),
                                               np.ones(2), 100, armijo=0.25)
    assert (val, iters, reason) == (0.0, 0, "no_descent")


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
        u, val, iters, reason = _projected_descent(objective, gradient, u0, w, 5000,
                                                   armijo=1e-4, gtol=1e-9)
        values = [v for _, v in log]
        assert all(np.all(x >= 0.0) for x, _ in log)
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))
        assert val <= objective(u0)[0]
        assert iters <= 5000
    # with every target coordinate >= 0 the gradient vanishes at the
    # projected minimizer, so the descent reaches it and stops on gtol
    assert _preconditioned_gradient_norm(a, target, w, u) < 1e-9
    assert reason == "gtol"
    assert np.max(np.abs(u - target)) < 1e-8


def _functional_setups(p: float) -> list:
    """(name, objective, gradient, u) of each user of the discrete functional at p."""
    setups = []
    for n, r in ((3, p), (3, p + 1.0)):
        # the ascent's -ln Q on a radial grid, at q = 1.2
        theta = derived_exponents(InequalityParams(n=n, p=p, q=1.2, r=r)).theta
        grid = np.geomspace(1e-2, 6.0, 160)
        objective, gradient, _ = _discrete_functional(
            grid, _node_measure(grid, n), p, 0.0,
            ((r, -p / (theta * r)), (1.2, p * (1.0 - theta) / (theta * 1.2))))
        setups.append((f"radial r={r}", objective, gradient, np.exp(-grid**2)))
    # a sphere of radius 2 (metric 1/2) and a periodic torus, both at C > 0;
    # the profiles' derivatives vanish only where the weight does (the poles)
    # or on a node of a symmetric stencil, where |du|^p is differenced exactly
    for model, shape in ((ManifoldModel.sphere(3, 2.0), lambda g: 2.0 + np.cos(g)),
                         (ManifoldModel.torus(3, side=6.0),
                          lambda g: 1.0 + 0.3 * np.cos(math.pi * g / 3.0))):
        u = symmetric_profile(model, shape, n_nodes=120)
        _, kappa = manifold_minimizer._exponents(3, p, 1.2, 2.0)
        objective, gradient, _ = u._ln_functional_pair(p, 1.2, 2.0, kappa)
        setups.append((model.kind, objective, gradient, u.values))
    return setups


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_discrete_functional_gradient_matches_central_differences(p):
    """The shared gradient against a central difference of the objective,
    along smooth relative perturbations u v, with v not constant."""
    for name, objective, gradient, u in _functional_setups(p):
        x = np.linspace(0.0, 1.0, len(u))
        g = gradient(u, objective(u)[1])
        for v in (np.sin(3.0 * x + 0.5), np.exp(-((x - 0.3) / 0.2) ** 2), x**2 - x):
            v = u * v
            h = 1e-6
            central = (objective(u + h * v)[0] - objective(u - h * v)[0]) / (2.0 * h)
            # relative to the sum of the terms, since g @ v may cancel
            assert abs(float(g @ v) - central) <= 1e-6 * float(np.abs(g * v).sum()), (name, p)


@pytest.mark.parametrize("m", [600, 4000])
def test_discrete_functional_sums_match_np_sum_bit_for_bit(m):
    """The stacked pass sums each row pairwise as np.sum does, at 600 nodes
    (five of numpy's 128-element pairwise blocks) and at 4 000 (32): the
    cached masses are np.sum(w * u**t) to the bit, exponent 2 (which
    u**2.0 squares) included, and at C = 0 the energy is
    np.sum(w metric^p * |Du|^p)."""
    rng = np.random.default_rng(m)
    grid = np.linspace(0.0, 6.0, m, endpoint=False)
    stencil = _stencil(grid, 6.0)
    metric = 0.7
    for p, terms in ((2.0, ((2.0, -1.5), (1.9, 0.3), (1.0, 0.2))),
                     (1.5, ((1.5, -1.2), (1.2, 0.4), (3.0, 0.1)))):
        for _ in range(50):
            w = rng.uniform(0.0, 2.0, m)
            u = rng.uniform(0.0, 3.0, m)
            u[rng.integers(0, m, m // 20)] = 0.0  # nodes held at the bound
            objective, _, _ = _discrete_functional(grid, w, p, 0.0, terms, metric, period=6.0)
            *masses, energy, du, a, factor = objective(u)[1]
            assert masses == [float(np.sum(w * u**t)) for t, _ in terms]
            assert np.array_equal(du, _apply_stencil(u - u[-1], *stencil))
            assert np.array_equal(a, np.abs(du))
            assert energy == float(np.sum(w * metric**p * np.abs(du) ** p)) and factor == 1.0


def test_discrete_functional_retracts_to_its_first_mass():
    """The functional's retraction on the GN terms at C = 0, r != p, where
    the first mass is M_r: the retracted cache matches a fresh evaluation at
    the retracted point.  Its M_r is exactly 1.0, M_q, the energy and the
    value agree to 1e-13, factor * du to 1e-10 of max |du| (a 1/h stencil
    rounds at about 7e-12 of it on this grid), and the gradients to 1e-12
    of their size."""
    n, p, q, r = 3, 2.0, 1.5, 2.5
    theta = derived_exponents(InequalityParams(n=n, p=p, q=q, r=r)).theta
    grid = np.geomspace(1e-3, 8.0, 400)
    objective, gradient, retract = _discrete_functional(
        grid, _node_measure(grid, n), p, 0.0,
        ((r, -p / (theta * r)), (q, p * (1.0 - theta) / (theta * q))))
    u = 3.7 * np.exp(-grid**2) * (1.0 + 0.3 * np.sin(grid))
    value, cache = objective(u)
    v, moved = retract(u, cache)
    fresh_value, fresh = objective(v)
    assert moved[0] == 1.0
    assert fresh[0] == pytest.approx(1.0, rel=1e-13, abs=0.0)
    assert moved[1] == pytest.approx(fresh[1], rel=1e-13, abs=0.0)
    assert moved[2] == pytest.approx(fresh[2], rel=1e-13, abs=0.0)  # the energy
    assert fresh_value == pytest.approx(value, rel=1e-13, abs=0.0)
    assert fresh[-1] == 1.0
    du = fresh[3]
    assert float(np.max(np.abs(moved[-1] * moved[3] - du))) <= 1e-10 * float(np.max(np.abs(du)))
    got, want = gradient(v, moved), gradient(v, fresh)
    assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))


def test_tanh_sinh_rule():
    """The shared tanh-sinh rule on one member, [0, 1]: logarithmic end
    singularities to 1e-13 by its second level (225 nodes), the node cap
    reported (not raised) with nan or finite estimates, which _missed turns
    into an error without or with them, a non-finite sum returned at once,
    and a small integrand that stops at its second level when judged
    against a scale of 1 rather than its own size."""
    def unit(f, max_nodes, scale=0.0):
        sums, err, nodes = _tanh_sinh(lambda x, c, _: f(x, c), np.array([0.0]), np.array([1.0]),
                                      max_nodes, scale)
        assert sums.shape == err.shape and nodes.shape == (1,)
        return sums[0], err[0], int(nodes[0])

    def ends(x, c):
        return np.array([np.log(x), np.log(c), np.log(x) * np.log(c)])

    val, err, nodes = unit(ends, 10_000)
    exact = np.array([-1.0, -1.0, 2.0 - math.pi**2 / 6.0])
    assert nodes <= 225
    np.testing.assert_allclose(val, exact, rtol=1e-13, atol=0.0)
    assert np.all(err <= 1e-13 * np.abs(exact))

    # the second level needs 225 nodes: no estimate yet
    val, err, nodes = unit(ends, 224)
    assert nodes > 224 and np.isnan(err).all()
    assert _missed("the tanh-sinh integrals", 224, err).estimates is None

    def wave(x, c):
        return np.array([np.cos(200.0 * x)])

    # cos(200 x) needs 897 nodes: the cap at 449 is reported with the last estimate
    val, err, nodes = unit(wave, 449)
    assert nodes > 449 and err.shape == (1,) and np.isfinite(err[0]) and err[0] > 1e-13
    exc = _missed("the tanh-sinh integrals", 449, err)
    assert re.search("within 449 nodes; error estimates", str(exc))
    assert exc.estimates.tolist() == err.tolist()
    val, err, nodes = unit(wave, 897)
    assert nodes == 897 and val[0] == pytest.approx(math.sin(200.0) / 200.0, rel=1e-13)

    with np.errstate(over="ignore"):
        val, err, nodes = unit(lambda x, c: np.array([np.exp(1.0 / x), x]), 10_000)
    assert nodes == 113 and val[0] == math.inf and np.all(err == math.inf)

    def small(x, c):
        return 1e-20 * wave(x, c)

    assert unit(small, 10_000)[2] == 897
    val, err, nodes = unit(small, 10_000, scale=1.0)
    assert nodes == 225 and err[0] <= 1e-13


def test_blocked_sums_reduce_a_stack_as_row_sums():
    """One np.add.reduce over a stacked block sums every row as one np.sum
    per row and block does, for a stack of any leading shape and for a
    sequence of rows."""
    rng = np.random.default_rng(7)
    for m in BLOCK_SIZES:
        for shape in ((3,), (2, 3, 4)) if m < 3 * BLOCK + 100 else ((3,),):
            data = rng.standard_normal(shape + (m,)) * rng.uniform(0.0, 1e3, shape + (1,))
            rows = data.reshape(-1, m)
            expected = list(row_sums(m, lambda lo, hi: rows[:, lo:hi]))
            got = _blocked_sums(m, lambda lo, hi: data[..., lo:hi])
            assert got.shape == shape and got.ravel().tolist() == expected, (m, shape)
            got = _blocked_sums(m, lambda lo, hi: tuple(rows[:, lo:hi]))
            assert got.tolist() == expected, (m, shape)


def test_tanh_sinh_member_axis_is_one_panel_at_a_time(monkeypatch):
    """Every member of a stacked call gets the integrals, estimates and
    nodes of the one-panel loop bit for bit, whichever groups _MEMBER_NODES
    splits a level into; a member that misses its cap reports the loop's
    last estimates (nan before its second level) and more nodes than its
    cap, and the others run on."""
    k = np.array([1.0, 400.0, 200.0, 5.0, 400.0, 0.5, 200.0, 90.0])
    lo = np.array([0.0, 0.1, 0.0, 0.25, 0.0, 0.5, 0.0, 0.3])
    hi = np.array([1.0, 0.9, 1.0, 0.75, 1.0, 1.0, 1.0, 1.0])
    caps = np.array([10_000, 10_000, 897, 10_000, 1_000, 10_000, 449, 200])
    scale = np.array([[0.0, 0.0, 0.0]] * 7 + [[1.0, 1.0, 1.0]])

    def f(x, c, m):
        return np.stack([np.cos(k[m, None] * x), np.log(x) * np.log(c), x * c])

    want_sums, want_err, want_nodes = member_by_member(f, lo, hi, caps, scale)
    missed = want_nodes > caps
    assert want_nodes[~missed].tolist() == [225, 897, 897, 225, 225]
    assert missed.tolist() == [False] * 4 + [True, False, True, True]
    assert np.isnan(want_err[7]).all() and not np.isnan(want_err[[4, 6]]).any()
    for member_nodes in (113, 2048, 1 << 20):
        monkeypatch.setattr(profiles, "_MEMBER_NODES", member_nodes)
        sums, err, nodes = _tanh_sinh(f, lo, hi, caps, scale)
        assert np.array_equal(err, want_err, equal_nan=True), member_nodes
        assert np.array_equal(sums[~missed], want_sums[~missed]), member_nodes
        assert np.array_equal(nodes[~missed], want_nodes[~missed]), member_nodes
        assert (nodes[missed] > caps[missed]).all(), member_nodes

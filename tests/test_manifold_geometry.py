"""Model manifolds, bubbles, curvature expansions, witness scans."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from lpentropy.constants import entropy_best_constant
from lpentropy.errors import AccuracyNotMet, DomainError
from lpentropy.manifold_geometry import (
    BubbleSpec,
    ManifoldModel,
    _cutoff,
    _cutoff_derivative,
    bubble_integrals,
    fit_expansion,
    geodesic_density,
    lower_bound_witness,
)
from lpentropy.profiles import extremal_spec, plogp
from lpentropy.special_fn import sphere_area


def test_model_properties():
    sph = ManifoldModel.sphere(3)
    assert sph.scalar_curvature == pytest.approx(6.0)
    assert sph.volume == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert sph.injectivity_radius == pytest.approx(math.pi)

    sph2 = ManifoldModel.sphere(4, radius=2.0)
    assert sph2.scalar_curvature == pytest.approx(12.0 / 4.0)

    tor = ManifoldModel.torus(3, side=2.0)
    assert tor.scalar_curvature == 0.0
    assert tor.volume == pytest.approx(8.0)
    assert tor.injectivity_radius == pytest.approx(1.0)

    with pytest.raises(DomainError):
        ManifoldModel("cylinder", 3, 1.0)
    with pytest.raises(DomainError):
        ManifoldModel.sphere(3, radius=-1.0)


def test_geodesic_density():
    sph = ManifoldModel.sphere(3)
    assert geodesic_density(sph, 0.0) == pytest.approx(1.0)
    assert geodesic_density(sph, 1.0) == pytest.approx(math.sin(1.0) ** 2, rel=1e-14)
    tor = ManifoldModel.torus(2, side=4.0)
    assert np.all(geodesic_density(tor, np.linspace(0, 1.9, 10)) == 1.0)
    with pytest.raises(DomainError):
        geodesic_density(sph, math.pi + 0.1)
    with pytest.raises(DomainError):
        geodesic_density(tor, 2.5)


def test_bubble_spec_invariant():
    sph = ManifoldModel.sphere(3)
    base = extremal_spec(3, 2.0, 1.0)
    with pytest.raises(DomainError):
        BubbleSpec(model=sph, base=base, delta=1.0, eps=0.6)  # 2 eps >= delta
    with pytest.raises(DomainError):
        BubbleSpec(model=sph, base=base, delta=4.0, eps=0.1)  # delta >= inj
    with pytest.raises(DomainError):
        BubbleSpec(model=sph, base=extremal_spec(4, 2.0, 1.0), delta=1.0, eps=0.1)


def test_bubble_mass_tends_to_one():
    sph = ManifoldModel.sphere(3)
    base = extremal_spec(3, 2.0, 1.0)
    masses = []
    for eps in (0.1, 0.05, 0.02):
        bi = bubble_integrals(BubbleSpec(model=sph, base=base, delta=1.0, eps=eps))
        masses.append(abs(bi.mass_p - 1.0))
    assert masses[0] > masses[1] > masses[2]
    assert masses[2] < 1e-3
    # error estimates should bound the actual refinement differences
    bi = bubble_integrals(BubbleSpec(model=sph, base=base, delta=1.0, eps=0.05))
    assert bi.errors["mass_p"] < 1e-6


def test_bubble_grid_resolution_guard():
    sph = ManifoldModel.sphere(3)
    base = extremal_spec(3, 2.0, 1.0)
    spec = BubbleSpec(model=sph, base=base, delta=1.0, eps=0.05)
    with pytest.raises(AccuracyNotMet):
        bubble_integrals(spec, n_nodes=200)


def _whole_array_bubble(spec, n_nodes):
    """Reference: whole-array trapezoid in r plus the analytic head [0, r_0]."""
    n, p, eps = spec.model.dimension, spec.base.p, spec.eps
    r = np.geomspace(eps * 1e-7, spec.delta, n_nodes)
    area = sphere_area(n) * r ** (n - 1) * geodesic_density(spec.model, r)
    eta = _cutoff(r, spec.delta)
    core = spec.base.value(r / eps)
    u = eta * eps ** (-n / p) * core
    du = (_cutoff_derivative(r, spec.delta) * core
          + eta * spec.base.derivative(r / eps) / eps) * eps ** (-n / p)
    head = area[0] * r[0] / n
    return (
        float(trapezoid(area * u**p, r)) + head * u[0] ** p,
        float(trapezoid(area * plogp(u, p), r)) + head * plogp(u[:1], p)[0],
        float(trapezoid(area * np.abs(du) ** p, r)) + head * abs(du[0]) ** p,
    )


def test_blocked_bubble_quadrature_matches_whole_array():
    """Blocked sums against the whole-array rule around the 8 192-node block."""
    cases = (
        (ManifoldModel.sphere(3), 2.0, 1.0, 0.05),
        (ManifoldModel.torus(3, side=2.0), 1.5, 0.9, 0.01),
        (ManifoldModel.sphere(4, radius=2.0), 2.5, 1.5, 0.02),
    )
    for model, p, delta, eps in cases:
        spec = BubbleSpec(model=model, base=extremal_spec(model.dimension, p, 1.0),
                          delta=delta, eps=eps)
        for n_nodes in (5000, 8192, 8193, 8194, 3 * 8192 + 17):
            bi = bubble_integrals(spec, n_nodes=n_nodes, error_estimate=False)
            expected = _whole_array_bubble(spec, n_nodes)
            got = (bi.mass_p, bi.entropy, bi.grad_p)
            for name, g, e in zip(("mass_p", "entropy", "grad_p"), got, expected):
                assert g == pytest.approx(e, rel=1e-14), (model.kind, n_nodes, name)


def test_cutoff_start_around_block_edge():
    """delta/2, where the cutoff starts, falls just before, at and just after
    the first node of the second 8 192-node block (whose slice starts one
    node earlier), and the blocked sums still match the whole-array rule.
    The bubble is wide (eps ~ 0.3) so the nodes past delta/2 carry mass."""
    model, p, delta, m = ManifoldModel.sphere(3), 2.0, 1.0, 8534
    for first_cut in (8191, 8192, 8193):
        # place delta/2 half a step below node first_cut in ln r:
        # ln(delta / r_0) (1 - (first_cut - 1/2) / (m - 1)) = ln 2
        span = math.log(2.0) / (1.0 - (first_cut - 0.5) / (m - 1))
        eps = delta * math.exp(-span) / 1e-7
        r = np.geomspace(eps * 1e-7, delta, m)
        assert r[first_cut - 1] < delta / 2 < r[first_cut]
        spec = BubbleSpec(model=model, base=extremal_spec(3, p, 1.0), delta=delta, eps=eps)
        bi = bubble_integrals(spec, n_nodes=m, error_estimate=False)
        expected = _whole_array_bubble(spec, m)
        got = (bi.mass_p, bi.entropy, bi.grad_p)
        for name, g, e in zip(("mass_p", "entropy", "grad_p"), got, expected):
            assert g == pytest.approx(e, rel=1e-14), (first_cut, name)


def test_underflowed_core_adds_nothing():
    """Near p = 1 the core's r^{p'-1} overflows where exp(-b r^{p'}) has
    underflowed; such nodes add 0, so the gradient stays finite and
    eps^p grad_p tends to the flat integral I2."""
    rep = fit_expansion(ManifoldModel.sphere(3), 1.02, 1.0, delta=1.0,
                        eps_grid=[1e-7, 2e-7, 4e-7, 8e-7], n_nodes=20_000)
    i2 = rep.reference["grad"]
    for row in rep.rows:
        assert math.isfinite(row["grad_p"]) and math.isfinite(row["err_grad_p"])
        assert row["grad_p"] * row["eps"] ** 1.02 == pytest.approx(i2, rel=0.01)
    assert all(math.isfinite(v) for v in rep.fits["grad"].values())


def test_bubble_integrals_out_of_float_range():
    # eps^{-n} = 1e360 overflows: a typed error, not an infinite integral
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 1.0),
                      delta=1.0, eps=1e-120)
    with pytest.raises(DomainError):
        bubble_integrals(spec, n_nodes=10_000)


def test_bubble_integrals_core_underflow(monkeypatch):
    # a grid placed by the core width leaves no valid spec whose core
    # underflows at every node, so the zero-mass guard is fed zero sums:
    # a typed error, not mass 0
    import lpentropy.manifold_geometry as mg

    monkeypatch.setattr(mg, "_bubble_quadrature", lambda spec, n_nodes: (0.0, 0.0, 0.0))
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 1.0),
                      delta=1.0, eps=0.05)
    with pytest.raises(DomainError, match="underflows"):
        bubble_integrals(spec, n_nodes=20_000)


@pytest.mark.parametrize("b", [1e14, 1e30])
def test_bubble_mass_of_a_narrow_core(b):
    """The grid starts at eps*1e-7*b^{-1/p'}, a fixed fraction of the core
    width, so a core of width eps*1e-7 or eps*1e-15 is resolved; its
    curvature correction, of order (eps b^{-1/p'})^2, is negligible and the
    mass is 1."""
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, b),
                      delta=1.0, eps=0.01)
    bi = bubble_integrals(spec, n_nodes=200_000)
    assert bi.mass_p == pytest.approx(1.0, abs=1e-6)
    assert bi.errors["mass_p"] < 1e-6


def test_bubble_resolution_guard_counts_core_decades():
    """The guard counts the decades from eps*1e-7*min(1, b^{-1/p'}) to delta."""
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 0.5),
                      delta=1.0, eps=0.05)
    # 50 nodes for each of the log10(1 / (0.05 * 1e-7)) = 8.3 decades
    with pytest.raises(AccuracyNotMet, match="8.3 decades; need at least 416"):
        bubble_integrals(spec, n_nodes=415)
    narrow = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 1e30),
                        delta=1.0, eps=0.05)
    # and 15 more where the core is 1e-15 wide
    with pytest.raises(AccuracyNotMet, match="23.3 decades; need at least 1166"):
        bubble_integrals(narrow, n_nodes=1165)


def test_bubble_integrals_memory_peak():
    """A 200k-node bubble holds at most one grid-sized array at once."""
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 1.0),
                      delta=1.0, eps=0.02)
    tracemalloc.start()
    try:
        bubble_integrals(spec, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200_000 * 8


def test_sphere_expansion_coefficients():
    """Fitted eps^2 coefficients against the curvature closed forms."""
    sph = ManifoldModel.sphere(3)
    rep = fit_expansion(sph, 2.0, 1.0, delta=1.0, eps_grid=np.geomspace(0.01, 0.1, 8))
    assert rep.fits["mass"]["rel_dev_c2"] < 0.01
    assert rep.fits["grad"]["rel_dev_c2"] < 0.01
    assert rep.fits["entropy"]["rel_dev_clog"] < 0.05
    assert rep.fits["entropy"]["rel_dev_c2"] < 0.05
    # frozen targets for n=3, p=2, b=1: R=6 so mass c2 = -J1/3, grad c2 = -J2/3
    assert rep.fits["mass"]["target_c2"] == pytest.approx(-0.25, rel=1e-11)
    assert rep.fits["grad"]["target_c2"] == pytest.approx(-1.25, rel=1e-11)
    assert rep.fits["entropy"]["target_clog"] == pytest.approx(0.75, rel=1e-11)


def test_torus_expansion_is_flat():
    tor = ManifoldModel.torus(3, side=2.0)
    rep = fit_expansion(tor, 2.0, 1.0, delta=0.9, eps_grid=np.geomspace(0.01, 0.1, 8))
    for name, coef_key, err_key in (
        ("mass", "c2", "c2_stderr"),
        ("grad", "c2", "c2_stderr"),
        ("entropy", "clog", "clog_stderr"),
    ):
        fit = rep.fits[name]
        assert abs(fit[coef_key]) <= 3.0 * fit[err_key], name


# Reference outputs of the README `bubble` and `witness` commands, and of
# `bubble` on the torus of side 2 with delta 0.9, computed with the plain
# per-node evaluation of u, u' and plogp(u) on np.geomspace grids.  Rows are
# (mass_p, entropy, grad_p, err_mass_p, err_entropy, err_grad_p) and, for the
# witness, (lhs, rhs, margin).  Integrals, lhs and rhs must agree to 1e-14;
# error estimates, fitted coefficients and margins, which difference or fit
# nearly equal numbers, to 1e-6 (relative).
_SPHERE_ROWS = [
    (0.9999750022060251, 11.63787057145834, 29998.750082846214,
     5.368163025210038e-09, 6.247554651395149e-08, 0.00016104220776469447),
    (0.9999000083378732, 9.55783915522144, 7498.750129194879,
     5.014686110804689e-09, 4.793435870453777e-08, 3.760763956961455e-05),
    (0.9996001082027228, 7.476662311310611, 1873.7504694660104,
     4.672220832446783e-09, 3.494659228664432e-08, 8.758077910897555e-06),
    (0.9984017067482072, 5.392777982871322, 467.5018654252577,
     4.338059134134653e-09, 2.343163973961282e-08, 2.031297356097639e-06),
]
_TORUS_ROWS = [
    (1.0000000017712594, 11.63813652064425, 30000.00005313778,
     5.3138493605331405e-09, 6.184330025860163e-08, 0.0001594154782651458),
    (1.0000000016541664, 9.558694974161929, 7500.000012406249,
     4.962565691712939e-09, 4.743565007458983e-08, 3.721924167621182e-05),
    (1.0000000015410773, 7.479253428196527, 1875.0000028895197,
     4.623293747840762e-09, 3.45787842803702e-08, 8.668675491207978e-06),
    (1.000000001431992, 5.399811882723071, 468.7500006712462,
     4.2960330848274e-09, 2.319777081538632e-08, 2.0137655951657507e-06),
]
_WITNESS_ROWS = [
    (4.731629659290725, 4.634514004062312, 0.09711565522841337),
    (6.810135165869061, 6.666651144660523, 0.14348402120853798),
    (9.558744956724224, 9.401973492727075, 0.15677146399714914),
]
_SPHERE_FITS = {
    "mass": {"c2": -0.24999839694618198, "c2_stderr": 3.7354901003431794e-06,
        "c4": 0.04141774782806566},
    "grad": {"c2": -1.249994892462175, "c2_stderr": 1.1203641100640456e-05,
        "c4": 0.2906733746457412},
    "entropy": {"clog": 0.7500412589685865, "clog_stderr": 0.0002406341598074322,
        "c2": 0.7946116773393216, "c2_stderr": 0.0008606288275089661},
}
_TORUS_FITS = {
    "mass": {"c2": 1.5367630456908455e-06, "c2_stderr": 3.696410721150993e-06,
        "c4": -0.0002055912419417503},
    "grad": {"c2": 4.610287817799503e-06, "c2_stderr": 1.1089231806195356e-05,
        "c4": -0.0006167735576861378},
    "entropy": {"clog": -8.470948480767291e-05, "clog_stderr": 0.00023814043810121532,
        "c2": -0.00029042905776749243, "c2_stderr": 0.0008517078108418719},
}

def _pinned(got, expected, tight):
    rel = 1e-14 if tight else 1e-6
    return got == pytest.approx(expected, rel=rel)


def test_bubble_outputs_pinned():
    keys = ("mass_p", "entropy", "grad_p", "err_mass_p", "err_entropy", "err_grad_p")
    eps_grid = [0.01, 0.02, 0.04, 0.08]
    for model, delta, rows, fits in (
        (ManifoldModel.sphere(3), 1.0, _SPHERE_ROWS, _SPHERE_FITS),
        (ManifoldModel.torus(3, side=2.0), 0.9, _TORUS_ROWS, _TORUS_FITS),
    ):
        rep = fit_expansion(model, 2.0, 1.0, delta=delta, eps_grid=eps_grid)
        for row, expected in zip(rep.rows, rows):
            for i, (key, e) in enumerate(zip(keys, expected)):
                assert _pinned(row[key], e, tight=i < 3), (model.kind, row["eps"], key)
        for name, coefs in fits.items():
            for key, e in coefs.items():
                assert _pinned(rep.fits[name][key], e, tight=False), (model.kind, name, key)
    rep = lower_bound_witness(ManifoldModel.sphere(3), 2.0, 0.0702, 1.0,
                              eps_grid=[0.02, 0.05, 0.1])
    for row, expected in zip(rep.rows, _WITNESS_ROWS):
        for i, (key, e) in enumerate(zip(("lhs", "rhs", "margin"), expected)):
            assert _pinned(row[key], e, tight=i < 2), (row["eps"], key)


def test_expansion_window_warning():
    sph = ManifoldModel.sphere(3)
    rep = fit_expansion(sph, 2.0, 1.0, delta=1.0,
                        eps_grid=[0.05, 0.06, 0.07, 0.08], n_nodes=60_000)
    assert any("window" in w for w in rep.warnings)
    with pytest.raises(DomainError):
        fit_expansion(sph, 2.0, 1.0, delta=1.0, eps_grid=[0.05, 0.1])


def test_witness_below_sharp_constant():
    sph = ManifoldModel.sphere(3)
    a0 = entropy_best_constant(3, 2.0)
    rep = lower_bound_witness(sph, 2.0, 0.9 * a0, 1.0,
                              eps_grid=np.geomspace(0.02, 0.2, 6))
    assert rep.violated
    assert not math.isnan(rep.eps_star)
    expected = 1.5 * math.log(1.0 / 0.9)
    assert rep.margin == pytest.approx(expected, rel=0.02)
    assert rep.asymptote == pytest.approx(expected, rel=1e-12)


def test_witness_at_and_above_sharp_constant():
    sph = ManifoldModel.sphere(3)
    a0 = entropy_best_constant(3, 2.0)
    for factor in (1.0, 1.1):
        rep = lower_bound_witness(sph, 2.0, factor * a0, 1.0,
                                  eps_grid=np.geomspace(0.02, 0.2, 6))
        assert not rep.violated
        assert math.isnan(rep.eps_star)


def test_witness_domain():
    sph = ManifoldModel.sphere(3)
    with pytest.raises(DomainError):
        lower_bound_witness(sph, 2.0, -0.1, 1.0, eps_grid=[0.05])
    with pytest.raises(DomainError):
        lower_bound_witness(sph, 3.2, 0.1, 1.0, eps_grid=[0.05])
    # non-finite constants are rejected, not scanned into a "no violation"
    for a_const, b_const in ((math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, math.inf)):
        with pytest.raises(DomainError):
            lower_bound_witness(sph, 2.0, a_const, b_const, eps_grid=[0.05])
    for b in (math.inf, 1e250):
        with pytest.raises(DomainError):
            lower_bound_witness(sph, 2.0, 0.1, 1.0, eps_grid=[0.05], b=b)

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


def test_bubble_integrals_memory_peak():
    """A 200k-node bubble holds at most four grid-sized arrays at once."""
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 1.0),
                      delta=1.0, eps=0.02)
    tracemalloc.start()
    try:
        bubble_integrals(spec, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 200_000 * 8


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

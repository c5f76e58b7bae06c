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
the torus.  The optimizer is a projected gradient descent on the
scale-invariant extension of ln J_q, preconditioned by the volume
weights, with the exact constant profile always kept as a candidate.  It
runs the package's one Armijo driver, profiles._projected_descent, which
the Gagliardo-Nirenberg ascent of gn_estimator shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True)
class SymmetricManifoldProfile:
    """Nonnegative profile depending on one coordinate of a model manifold.

    grid holds the polar angle in [0, pi] (sphere) or the periodic
    coordinate in [0, L) (torus); weights are the volume-measure weights
    of the grid cells and sum exactly to the manifold volume.
    """

    model: ManifoldModel
    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if grid.ndim != 1 or len(grid) < 8:
            raise DomainError("profile grid must be 1-d with at least 8 nodes")
        if values.shape != grid.shape or weights.shape != grid.shape:
            raise DomainError("values and weights must match the grid shape")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DomainError("profile values must be finite and nonnegative")
        for name, arr in (("grid", grid), ("values", values), ("weights", weights)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def periodic(self) -> bool:
        return self.model.kind == "torus"

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

    def gradient_magnitude(self, values=None) -> np.ndarray:
        d = self.coordinate_derivative(values)
        if self.model.kind == "sphere":
            return np.abs(d) / self.model.scale
        return np.abs(d)

    def with_values(self, values: np.ndarray) -> "SymmetricManifoldProfile":
        return SymmetricManifoldProfile(
            model=self.model, grid=self.grid, values=values, weights=self.weights
        )

    def lp_norm(self, p: float) -> float:
        return float(np.sum(self.weights * self.values**p)) ** (1.0 / p)


def symmetric_profile(model: ManifoldModel, values, n_nodes: int = None) -> SymmetricManifoldProfile:
    """Build a profile from a callable or an array of nodal values.

    The grid is uniform: n_nodes angles in [0, pi] for the sphere
    (endpoints included), n_nodes periodic coordinates in [0, L) for the
    torus.  Sphere weights are trapezoid weights of the zonal volume
    element, rescaled to make the total volume exact.
    """
    if n_nodes is None:
        n_nodes = 600
    if model.kind == "sphere":
        grid = np.linspace(0.0, math.pi, n_nodes)
        n, rho = model.dimension, model.scale
        dens = np.sin(grid) ** (n - 1)
        w = np.full(n_nodes, grid[1] - grid[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        w = w * dens * sphere_area(n) * rho**n
        w *= model.volume / float(np.sum(w))
    else:
        side = model.scale
        grid = np.linspace(0.0, side, n_nodes, endpoint=False)
        w = np.full(n_nodes, model.volume / n_nodes)
    vals = values(grid) if callable(values) else np.asarray(values, dtype=float)
    return SymmetricManifoldProfile(model=model, grid=grid, values=vals, weights=w)


def constant_profile(model: ManifoldModel, p: float, n_nodes: int = None) -> SymmetricManifoldProfile:
    """The constant profile with unit Lp norm: u = volume^{-1/p}."""
    c = model.volume ** (-1.0 / p)
    return symmetric_profile(model, lambda g: np.full_like(g, c), n_nodes)


def _exponents(n: int, p: float, q: float) -> tuple:
    if not 1 < p <= 2:
        raise DomainError(f"require 1 < p <= 2, got p={p}")
    if not p < n:
        raise DomainError(f"require p < dimension, got p={p}, n={n}")
    if not 1 <= q < p:
        raise DomainError(f"require 1 <= q < p, got q={q}")
    theta = derived_exponents(InequalityParams(n=n, p=p, q=q, r=p)).theta
    kappa = p * (1.0 - theta) / (q * theta)
    return theta, kappa


def _raw_terms(u: SymmetricManifoldProfile, p: float, q: float, C: float,
               values=None) -> tuple:
    vals = u.values if values is None else values
    w = u.weights
    grad_p = float(np.sum(w * u.gradient_magnitude(values) ** p))
    mass_p = float(np.sum(w * vals**p))
    mass_q = float(np.sum(w * vals**q))
    return grad_p, mass_p, mass_q, grad_p + C * mass_p


def gn_functional(u: SymmetricManifoldProfile, p: float, q: float, C: float) -> float:
    """J_q at u, after rescaling u to unit Lp norm."""
    theta, kappa = _exponents(u.model.dimension, p, q)
    if C < 0:
        raise DomainError(f"require C >= 0, got {C}")
    grad_p, mass_p, mass_q, energy = _raw_terms(u, p, q, C)
    if mass_p <= 0:
        raise DomainError("profile has zero Lp mass")
    if energy == 0.0:
        # constants at C = 0: no gradient energy, no zeroth-order term
        return 0.0
    # scale-invariant form: J(u/||u||_p)
    return math.exp(
        math.log(energy) + kappa * math.log(mass_q) - (1.0 + q * kappa / p) * math.log(mass_p)
    )


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of the functional minimization.

    value is nu = J_q at the returned profile; energy_weight and
    qnorm_weight are the Lagrange-type weights A_q and B_q, satisfying
    qnorm_weight * int u^q = value up to floating point.
    """

    value: float
    profile: SymmetricManifoldProfile
    iterations: int
    el_residual: float
    energy_weight: float
    qnorm_weight: float
    used_constant: bool
    p: float
    q: float
    C: float

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "iterations": self.iterations,
            "el_residual": self.el_residual,
            "energy_weight": self.energy_weight,
            "qnorm_weight": self.qnorm_weight,
            "used_constant": self.used_constant,
            "p": self.p,
            "q": self.q,
            "C": self.C,
        }


def _weights_for(u: SymmetricManifoldProfile, p: float, q: float, C: float,
                 kappa: float) -> tuple:
    grad_p, mass_p, mass_q, energy = _raw_terms(u, p, q, C)
    a_q = mass_q**kappa
    b_q = energy * mass_q ** (kappa - 1.0)
    nu = energy * mass_q**kappa
    return a_q, b_q, nu, mass_q


def minimize_gn_functional(model: ManifoldModel, p: float, q: float, C: float,
                           n_nodes: int = 600, max_iters: int = 60_000,
                           gtol: float = 1e-9, seed: int = 0) -> MinimizeResult:
    """Minimize J_q over nonnegative symmetric profiles with ||u||_p = 1.

    Projected gradient descent on ln J_q extended scale-invariantly (the
    Euler identity makes the extended gradient tangent to the constraint),
    preconditioned by the volume weights, with Armijo backtracking
    (profiles._projected_descent), each accepted point rescaled back to
    unit Lp norm.  The exact constant profile solves the discrete
    optimality system and is always kept as a candidate, so the returned
    value never exceeds it.
    """
    n = model.dimension
    theta, kappa = _exponents(n, p, q)
    if C < 0:
        raise DomainError(f"require C >= 0, got {C}")
    if C == 0:
        # constants are admissible and drive both terms to zero, so the
        # infimum is exactly 0; finite differences of a constant array can
        # leave ~1e-60 dust, so the zero is written out rather than computed
        const = constant_profile(model, p, n_nodes)
        mass_q = float(np.sum(const.weights * const.values**q))
        return MinimizeResult(
            value=0.0, profile=const, iterations=0, el_residual=0.0,
            energy_weight=mass_q**kappa, qnorm_weight=0.0,
            used_constant=True, p=p, q=q, C=C,
        )

    base = constant_profile(model, p, n_nodes)
    w = base.weights
    rng = np.random.default_rng(seed)
    # smooth low-frequency seed perturbation around the constant
    x = base.grid / (math.pi if model.kind == "sphere" else model.scale)
    bump = np.zeros_like(x)
    for k in range(1, 4):
        bump += rng.normal(0, 1.0 / k) * np.cos(math.pi * k * x + rng.uniform(0, 2 * math.pi))
    u = np.maximum(base.values * (1.0 + 0.25 * bump / max(np.max(np.abs(bump)), 1e-12)), 0.0)

    adjoint = base.derivative_operator.T
    metric = 1.0 / model.scale if model.kind == "sphere" else 1.0

    def objective(vals: np.ndarray):
        _, mass_p, mass_q, energy = _raw_terms(base, p, q, C, vals)
        if mass_p <= 0 or mass_q <= 0 or energy <= 0:
            return None, None
        val = (
            math.log(energy)
            + kappa * math.log(mass_q)
            - (1.0 + q * kappa / p) * math.log(mass_p)
        )
        return val, (mass_p, mass_q, energy)

    def gradient(vals: np.ndarray, cache) -> np.ndarray:
        mass_p, mass_q, energy = cache
        du = base.coordinate_derivative(vals)
        flux = w * np.sign(du) * np.abs(du * metric) ** (p - 1.0) * metric
        return (
            (p * (adjoint @ flux) + C * p * w * vals ** (p - 1.0)) / energy
            + kappa * q * (w * vals ** (q - 1.0)) / mass_q
            - (1.0 + q * kappa / p) * p * (w * vals ** (p - 1.0)) / mass_p
        )

    def norm_p(vals: np.ndarray) -> np.ndarray:
        return vals / float(np.sum(w * vals**p)) ** (1.0 / p)

    u, _, iters = _projected_descent(objective, gradient, norm_p(u), w, max_iters,
                                     armijo=0.25, gtol=gtol, retract=norm_p)

    descent = base.with_values(u)
    v_descent = gn_functional(descent, p, q, C)
    v_const = gn_functional(base, p, q, C)
    # the constant solves the discrete optimality system exactly, so when
    # the descent value only ties it (discretization-level difference),
    # the constant is the better-certified minimizer
    if v_descent < v_const - 1e-8 * max(1.0, abs(v_const)):
        best, used_const = descent, False
    else:
        best, used_const = base, True

    a_q, b_q, nu, _ = _weights_for(best, p, q, C, kappa)
    resid = euler_lagrange_residual(best, p, q, C, nu=nu, energy_weight=a_q, qnorm_weight=b_q)
    return MinimizeResult(
        value=nu,
        profile=best,
        iterations=iters,
        el_residual=resid,
        energy_weight=a_q,
        qnorm_weight=b_q,
        used_constant=used_const,
        p=p,
        q=q,
        C=C,
    )


def euler_lagrange_residual(u: SymmetricManifoldProfile, p: float, q: float, C: float,
                            nu: float = None, energy_weight: float = None,
                            qnorm_weight: float = None, n_tests: int = 10) -> float:
    """Relative weak-form optimality residual at u against smooth bumps.

    If nu / A_q / B_q are omitted they are computed from u itself, which
    is the self-consistent choice for a claimed minimizer.
    """
    theta, kappa = _exponents(u.model.dimension, p, q)
    if not (n_tests >= 1 and float(n_tests).is_integer()):
        raise DomainError(f"need at least 1 test function, got {n_tests}")
    n_tests = int(n_tests)
    if nu is None or energy_weight is None or qnorm_weight is None:
        energy_weight, qnorm_weight, nu, _ = _weights_for(u, p, q, C, kappa)
    w = u.weights
    metric = 1.0 / u.model.scale if u.model.kind == "sphere" else 1.0
    du = u.coordinate_derivative() * metric
    flux = np.sign(du) * np.abs(du) ** (p - 1.0)
    # smooth bumps spread across the coordinate domain
    span = math.pi if u.model.kind == "sphere" else u.model.scale
    centers = np.linspace(0.12 * span, 0.88 * span, n_tests)
    width = 1.4 * (centers[1] - centers[0]) if n_tests > 1 else 0.3 * span
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
                "used_constant": res.used_constant,
                "constant_value": gn_functional(constant_profile(model, p, n_nodes), p, float(q), C),
                "inv_entropy_constant": inv_entropy,
                "inv_estimated_constant": 1.0 / est.value,
            }
        )
    return tuple(rows)

"""Radial profiles on R^n: grids, quadrature, norms and the extremal family.

A profile is a sampled nonnegative radial function u(r) on a geometric
grid.  All integrals over R^n reduce to

    int f dx  =  omega_{n-1} * sum_i w_i r_i^{n-1} f(r_i),

where the weights are built from the exact per-cell moments of the
volume measure r^{n-1} dr (trapezoid split of each cell's measure onto
its endpoints, with the [0, r_1] head lumped into the first node).  That
construction makes the rule exact for constants, so summing the weights
recovers int_0^{r_M} r^{n-1} dr to machine precision, and it converges
at second order for smooth integrands under grid refinement.

This module is also the package's one finite-difference layer.  Gradients
of sampled profiles are always taken by the three-point second-order
stencil on the nonuniform grid: centered in the interior, one-sided at
the ends, or centered everywhere on a periodic grid.  Its weights are
written once (_centered_coefficients, _one_sided_coefficients) and used
twice: radial_derivative applies them by array slices, derivative_matrix
assembles them into a sparse matrix D whose transpose D.T is the exact
discrete adjoint that the gradient ascent and the manifold minimizer
need.  Both of those optimizers run the one Armijo projected-gradient
driver, _projected_descent.  bump_basis supplies the smooth compactly
supported test functions of the weak-form residuals.  The analytic
derivative of the extremal family is reserved for the closed-form oracle
route in extremal_integrals.

Large-grid integrals (the quadrature route of extremal_integrals and the
bubble integrals of manifold_geometry) are summed block by block by
_blocked_sums: the integrand is evaluated on 8 192-node slices of the grid
with one node of overlap on each side, so the weights and the stencil of
every kept node are those of the whole-array rule, and no temporary the
size of the grid is allocated.  Only the order of summation differs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import DomainError, OracleDisagreement, Record
from .special_fn import sphere_area, stretched_exp_moment

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "RadialProfile",
    "ExtremalSpec",
    "ExtremalIntegrals",
    "lp_norm",
    "grad_energy",
    "entropy_integral",
    "extremal_spec",
    "extremal_profile",
    "extremal_integrals",
    "random_stretched_mixture",
    "radial_derivative",
    "derivative_matrix",
    "bump_basis",
    "plogp",
]

#: default node count for analytic profile constructors; the measured
#: quadrature + finite-difference error of the second-order rule on this
#: grid is ~1e-8 relative on the extremal family
DEFAULT_NODES = 200_000

#: inner edge of the geometric grid
DEFAULT_R_MIN = 1e-6

#: profiles are truncated where the extremal amplitude falls below this
TAIL_CUTOFF = 1e-16

#: nodes per block of _blocked_sums: 8 192 float64 values are 64 KiB per
#: temporary, under glibc's default 128 KiB mmap threshold, so block
#: temporaries are reused from the heap instead of being returned to the OS
#: and faulted in again on every allocation, and they stay in L2 cache
_BLOCK_NODES = 8192


def plogp(u: np.ndarray, p: float) -> np.ndarray:
    """u^p * ln(u^p) with 0 ln 0 = 0, robust to underflow of u**p.

    Computed as p * u^p * ln(u) so that u values whose p-th power
    underflows to zero contribute exactly zero instead of 0 * (-inf).
    """
    u = np.asarray(u, dtype=float)
    positive = u > 0
    safe = np.where(positive, u, 1.0)
    return p * safe**p * np.log(safe)


def _centered_coefficients(hm, hp) -> tuple:
    """Weights on (u_{i-1}, u_i, u_{i+1}) of the three-point derivative at x_i.

    hm = x_i - x_{i-1} and hp = x_{i+1} - x_i; second order on any grid.
    """
    return -hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp))


def _one_sided_coefficients(h1, h2) -> tuple:
    """Weights on (u_0, u_1, u_2) of the three-point derivative at x_0.

    h1 = x_1 - x_0 and h2 = x_2 - x_1 are signed steps into the grid, so
    the same weights serve the left end (steps > 0) and the right end
    (nodes taken from the last one inwards, steps < 0).
    """
    return (
        -(2 * h1 + h2) / (h1 * (h1 + h2)),
        (h1 + h2) / (h1 * h2),
        -h1 / (h2 * (h1 + h2)),
    )


def radial_derivative(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order finite-difference derivative on a nonuniform grid.

    Three-point centered stencil in the interior, three-point one-sided
    stencils at both ends; equal to derivative_matrix(grid) @ values.
    """
    r, u = grid, values
    if len(r) < 3:
        raise DomainError("need at least 3 grid nodes for a second-order derivative")
    du = np.empty_like(u)
    a, b, c = _centered_coefficients(r[1:-1] - r[:-2], r[2:] - r[1:-1])
    du[1:-1] = a * u[:-2] + b * u[1:-1] + c * u[2:]
    a, b, c = _one_sided_coefficients(r[1] - r[0], r[2] - r[1])
    du[0] = a * u[0] + b * u[1] + c * u[2]
    a, b, c = _one_sided_coefficients(r[-2] - r[-1], r[-3] - r[-2])
    du[-1] = a * u[-1] + b * u[-2] + c * u[-3]
    return du


def derivative_matrix(grid: np.ndarray, period: float = None) -> sparse.csr_matrix:
    """The stencil of radial_derivative as a sparse (CSR) matrix D.

    Row i holds the three stencil weights in the order radial_derivative
    sums them, so D @ u reproduces it exactly, and D.T is the exact
    adjoint.  With a period the grid samples one period [x_0, x_0 + period)
    and every node gets the centered stencil, wrapping across the seam.
    """
    # imported here, the one user of scipy in this module, so that profiles
    # and the CLI subcommands built on it alone load numpy without scipy
    from scipy import sparse

    x = np.asarray(grid, dtype=float)
    m = len(x)
    if m < 3:
        raise DomainError("need at least 3 grid nodes for a second-order derivative")
    nodes = np.arange(m)
    if period is None:
        h = np.diff(x)
        cols = np.stack([nodes - 1, nodes, nodes + 1], axis=1)
        cols[0], cols[-1] = (0, 1, 2), (m - 1, m - 2, m - 3)
        data = np.empty((m, 3))
        data[1:-1] = np.stack(_centered_coefficients(h[:-1], h[1:]), axis=1)
        data[0] = _one_sided_coefficients(h[0], h[1])
        data[-1] = _one_sided_coefficients(-h[-1], -h[-2])
    else:
        h = np.diff(x, append=x[0] + period)
        cols = np.stack([nodes - 1, nodes, nodes + 1], axis=1) % m
        data = np.stack(_centered_coefficients(np.roll(h, 1), h), axis=1)
    return sparse.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, 3 * m + 1, 3)), shape=(m, m)
    )


def bump_basis(coord: np.ndarray, centers, width: float, jacobian=1.0,
               period: float = None) -> list:
    """Smooth compactly supported test bumps and their derivatives.

    For each center c the bump is v = exp(-1/(1-x^2)) on |x| < 1, with
    x = (coord - c)/width (the difference wrapped into one period when a
    period is given), and zero elsewhere.  Returns one (v, dv) pair per
    center, where dv = (dv/dcoord) / jacobian is the derivative in the
    variable t with dt/dcoord = jacobian (jacobian = r for coord = ln r).
    """
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


def _blocked_sums(m: int, terms) -> tuple:
    """Sums over the nodes 0..m-1 (m >= 3) of the arrays that terms returns.

    terms(lo, hi) evaluates the weighted integrands on the nodes lo..hi-1
    and returns a sequence of arrays of length hi - lo.  The grid is walked
    in blocks of _BLOCK_NODES nodes; each slice reaches one node past its
    block on each side (two on the left for a one-node tail, which the
    one-sided end stencil needs), so local weights and stencils see every
    neighbour of the nodes kept, and each node is kept in exactly one block.
    The block sums are added with math.fsum.
    """
    partials = []
    for start in range(0, m, _BLOCK_NODES):
        stop = min(start + _BLOCK_NODES, m)
        lo = max(min(start - 1, m - 3), 0)
        hi = min(stop + 1, m)
        partials.append([float(np.sum(t[start - lo:stop - lo])) for t in terms(lo, hi)])
    return tuple(math.fsum(column) for column in zip(*partials))


def _projected_descent(objective, gradient, u, weights, max_iters: int, armijo: float,
                       gtol: float = 0.0, retract=None) -> tuple:
    """Armijo projected-gradient descent over u >= 0; returns (u, value, iterations).

    objective(u) returns (value, cache), or (None, None) where the value is
    undefined; gradient(u, cache) is the gradient of the value at u.  The
    direction is -gradient / max(w, 1e-3 mean w), so nodes of negligible
    weight cannot take huge steps.  Each trial point is projected onto
    u >= 0; an accepted trial grows the next step by 1.8, a rejected one
    halves it, for at most 30 trials.  retract, if given, maps an accepted
    point back onto the constraint set and the value is taken there.  The
    descent stops when the preconditioned gradient's sup-norm falls below
    gtol, when the direction no longer descends, when a line search fails,
    when the step falls below 1e-18, or after max_iters iterations; the
    count includes a final failed line search.
    """
    floor = np.maximum(weights, 1e-3 * float(np.mean(weights)))
    cur, cache = objective(u)
    if cur is None:
        raise DomainError("seed profile is degenerate")
    step = 1.0
    iters = 0
    for _ in range(max_iters):
        g = gradient(u, cache)
        d = -g / floor
        slope = float(np.dot(g, d))
        if slope >= 0 or (gtol > 0 and float(np.max(np.abs(d))) < gtol):
            break
        moved = False
        for _ in range(30):
            cand = np.maximum(u + step * d, 0.0)
            val, new_cache = objective(cand)
            if val is not None and val <= cur + armijo * step * slope:
                if retract is None:
                    u, cur, cache = cand, val, new_cache
                else:
                    u = retract(cand)
                    cur, cache = objective(u)
                step *= 1.8
                moved = True
                break
            step *= 0.5
        iters += 1
        if not moved or step < 1e-18:
            break
    return u, cur, iters


def _measure_weights(grid: np.ndarray, n: int) -> np.ndarray:
    """Weights w with sum_i w_i r_i^{n-1} f_i ~ int_0^{r_M} f r^{n-1} dr.

    Each cell's exact measure (r_{j+1}^n - r_j^n)/n is split evenly onto
    its endpoints; the head segment [0, r_1] is lumped into the first
    node.  Exact for f = const by telescoping.
    """
    r = grid
    cell = (r[1:] ** n - r[:-1] ** n) / n
    measure = np.zeros_like(r)
    measure[:-1] += 0.5 * cell
    measure[1:] += 0.5 * cell
    measure[0] += r[0] ** n / n
    return measure / r ** (n - 1)


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative radial function sampled on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray
    dimension: int
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise DomainError("grid and values must be 1-D arrays of equal length")
        if len(grid) < 3:
            raise DomainError("a profile needs at least 3 nodes")
        if not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
            raise DomainError("grid must be positive and strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DomainError("values must be finite and nonnegative")
        n = self.dimension
        if int(n) != n or n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {n}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dimension", int(n))
        w = self.weights
        if w is None:
            w = _measure_weights(grid, int(n))
        else:
            w = np.ascontiguousarray(w, dtype=float)
            if w.shape != grid.shape:
                raise DomainError("weights must match the grid shape")
        object.__setattr__(self, "weights", w)
        for arr in (self.grid, self.values, self.weights):
            arr.flags.writeable = False

    # measure weights against dv = r^{n-1} dr, including the angular factor
    def cell_measure(self) -> np.ndarray:
        return sphere_area(self.dimension) * self.weights * self.grid ** (self.dimension - 1)

    def derivative(self) -> np.ndarray:
        return radial_derivative(self.grid, self.values)

    def with_values(self, values: np.ndarray) -> "RadialProfile":
        return RadialProfile(self.grid, values, self.dimension, self.weights)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "u"])
            for r, u in zip(self.grid, self.values):
                writer.writerow([repr(float(r)), repr(float(u))])

    @staticmethod
    def from_csv(path, dimension: int) -> "RadialProfile":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DomainError(f"empty profile CSV: {path}") from None
            if [h.strip() for h in header[:2]] != ["r", "u"]:
                raise DomainError(f"expected CSV header 'r,u', got {header!r}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    rows.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError):
                    raise DomainError(
                        f"bad profile row at line {lineno} of {path}: {row!r}"
                    ) from None
        # (0, 2) for a header-only file, which then fails the node count
        arr = np.array(rows, dtype=float).reshape(-1, 2)
        return RadialProfile(arr[:, 0], arr[:, 1], dimension)


def lp_norm(u: RadialProfile, p: float) -> float:
    """||u||_p over R^n by the profile's quadrature rule."""
    if not p >= 1:
        raise DomainError(f"lp_norm requires p >= 1, got {p}")
    total = float(np.sum(u.cell_measure() * u.values**p))
    return total ** (1.0 / p)


def grad_energy(u: RadialProfile, p: float) -> float:
    """int |grad u|^p dx with the gradient by finite differences."""
    if not p >= 1:
        raise DomainError(f"grad_energy requires p >= 1, got {p}")
    du = u.derivative()
    return float(np.sum(u.cell_measure() * np.abs(du) ** p))


def entropy_integral(u: RadialProfile, p: float) -> float:
    """int u^p ln(u^p) dx with the 0 ln 0 = 0 convention."""
    if not p >= 1:
        raise DomainError(f"entropy_integral requires p >= 1, got {p}")
    return float(np.sum(u.cell_measure() * plogp(u.values, p)))


@dataclass(frozen=True)
class ExtremalSpec:
    """Normalized extremal profile u0(x) = a exp(-b |x|^{p/(p-1)}).

    The amplitude is chosen in closed form so that ||u0||_p = 1; the
    printed textbook prefactor of this family is not normalized, so the
    constructor always renormalizes explicitly.
    """

    n: int
    p: float
    b: float
    amplitude: float

    @property
    def shape_power(self) -> float:
        """The radial exponent p' = p/(p-1)."""
        return self.p / (self.p - 1.0)

    def value(self, r: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-self.b * np.asarray(r, dtype=float) ** self.shape_power)

    def derivative(self, r: np.ndarray) -> np.ndarray:
        """Analytic radial derivative (oracle route only)."""
        r = np.asarray(r, dtype=float)
        pp = self.shape_power
        return -self.amplitude * self.b * pp * r ** (pp - 1.0) * np.exp(-self.b * r**pp)

    def support_radius(self, cutoff: float = TAIL_CUTOFF) -> float:
        """Radius beyond which the profile falls under the tail cutoff."""
        return (math.log(self.amplitude / cutoff) / self.b) ** (1.0 / self.shape_power)


def _check_extremal_args(n: int, p: float, b: float) -> None:
    if int(n) != n or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    if not p > 1:
        raise DomainError(f"extremal family requires p > 1, got {p}")
    if not b > 0:
        raise DomainError(f"extremal family requires b > 0, got {b}")


def extremal_spec(n: int, p: float, b: float) -> ExtremalSpec:
    """Closed-form normalized spec of the extremal family."""
    _check_extremal_args(n, p, b)
    pp = p / (p - 1.0)
    mass_moment = sphere_area(n) * stretched_exp_moment(n - 1.0, pp, p * b)
    amplitude = mass_moment ** (-1.0 / p)
    return ExtremalSpec(n=int(n), p=float(p), b=float(b), amplitude=amplitude)


def extremal_profile(
    n: int,
    p: float,
    b: float,
    n_nodes: int = DEFAULT_NODES,
    r_min: float = DEFAULT_R_MIN,
) -> RadialProfile:
    """Sampled normalized extremal on a geometric grid.

    The grid runs from r_min to the radius where the amplitude falls
    below the tail cutoff 1e-16.
    """
    spec = extremal_spec(n, p, b)
    grid = _extremal_grid(spec, n_nodes, r_min)
    return RadialProfile(grid, spec.value(grid), int(n))


def _extremal_grid(spec: ExtremalSpec, n_nodes: int, r_min: float) -> np.ndarray:
    """Geometric grid from r_min to the support radius of the extremal."""
    if n_nodes < 3:
        raise DomainError("n_nodes must be at least 3")
    return np.geomspace(r_min, spec.support_radius(), int(n_nodes))


@dataclass(frozen=True)
class ExtremalIntegrals(Record):
    """The five saturation integrals of a normalized extremal profile.

    entropy          int u0^p ln(u0^p) dx
    grad_energy      int |grad u0|^p dx
    mass_moment2     int u0^p |x|^2 dx
    grad_moment2     int |grad u0|^p |x|^2 dx
    entropy_moment2  int u0^p ln(u0^p) |x|^2 dx

    Primary values come from the Gamma-function closed forms; quadrature
    holds the independent grid + finite-difference route and
    max_rel_difference the worst relative disagreement between the two.
    """

    entropy: float
    grad_energy: float
    mass_moment2: float
    grad_moment2: float
    entropy_moment2: float
    quadrature: dict
    max_rel_difference: float


def extremal_integrals(
    n: int,
    p: float,
    b: float,
    n_nodes: int = 800_000,
    check_tol: float = 1e-8,
) -> ExtremalIntegrals:
    """All five extremal integrals, each computed by two independent routes.

    Route one reduces every integral to stretched_exp_moment via the
    closed form of the profile; route two integrates the sampled profile
    with quadrature weights and finite-difference gradients, summed block
    by block (_blocked_sums) so that no grid-sized temporary is allocated.
    A relative disagreement beyond check_tol on any of the five raises
    OracleDisagreement.
    """
    spec = extremal_spec(n, p, b)
    a, pp = spec.amplitude, spec.shape_power
    om = sphere_area(n)
    beta = p * b
    mass_pow = a**p
    grad_pow = (a * b * pp) ** p

    def mom(k: float) -> float:
        return stretched_exp_moment(k, pp, beta)

    log_a = math.log(a)
    closed = {
        "entropy": p * log_a - p * b * mass_pow * om * mom(n - 1 + pp),
        "grad_energy": om * grad_pow * mom(n - 1 + pp),
        "mass_moment2": mass_pow * om * mom(n + 1),
        "grad_moment2": om * grad_pow * mom(n + 1 + pp),
        "entropy_moment2": p * log_a * mass_pow * om * mom(n + 1)
        - p * b * mass_pow * om * mom(n + 1 + pp),
    }

    grid = _extremal_grid(spec, n_nodes, DEFAULT_R_MIN)

    def terms(lo: int, hi: int) -> tuple:
        r = grid[lo:hi]
        u = spec.value(r)
        # the cell measure and derivative of RadialProfile, on the slice
        mw = om * _measure_weights(r, spec.n) * r ** (spec.n - 1)
        gp = np.abs(radial_derivative(r, u)) ** p
        ent = plogp(u, p)
        r2 = r**2
        # in the order of the keys of closed
        return mw * ent, mw * gp, mw * u**p * r2, mw * gp * r2, mw * ent * r2

    quad = dict(zip(closed, _blocked_sums(len(grid), terms)))

    rel = {k: abs(quad[k] - closed[k]) / abs(closed[k]) for k in closed}
    worst = max(rel.values())
    if worst > check_tol:
        bad = max(rel, key=rel.get)
        raise OracleDisagreement(
            f"closed-form and quadrature routes disagree on {bad}: "
            f"{closed[bad]:.12e} vs {quad[bad]:.12e} (rel {rel[bad]:.3e} > {check_tol:.1e})"
        )
    return ExtremalIntegrals(
        entropy=closed["entropy"],
        grad_energy=closed["grad_energy"],
        mass_moment2=closed["mass_moment2"],
        grad_moment2=closed["grad_moment2"],
        entropy_moment2=closed["entropy_moment2"],
        quadrature=quad,
        max_rel_difference=worst,
    )


def random_stretched_mixture(
    n: int,
    rng: np.random.Generator,
    n_nodes: int = DEFAULT_NODES,
    amplitude_range: tuple = (0.2, 2.0),
    rate_range: tuple = (0.3, 3.0),
    power_range: tuple = (1.0, 4.0),
) -> RadialProfile:
    """Random two-component mixture c1 e^{-b1 r^{s1}} + c2 e^{-b2 r^{s2}}.

    The workhorse trial family of the robustness checks: smooth, strictly
    positive, decaying, and never exactly extremal.
    """
    c = rng.uniform(*amplitude_range, size=2)
    bb = rng.uniform(*rate_range, size=2)
    ss = rng.uniform(*power_range, size=2)
    r_max = max(
        (math.log(max(c[i], 1.0) / TAIL_CUTOFF) / bb[i]) ** (1.0 / ss[i]) for i in range(2)
    )
    grid = np.geomspace(DEFAULT_R_MIN, r_max, int(n_nodes))
    values = c[0] * np.exp(-bb[0] * grid ** ss[0]) + c[1] * np.exp(-bb[1] * grid ** ss[1])
    return RadialProfile(grid, values, int(n))

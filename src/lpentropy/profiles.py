"""Radial profiles on R^n: grids, quadrature, norms and the extremal family.

A profile is a sampled nonnegative radial function u(r) on a geometric
grid.  All integrals over R^n reduce to

    int f dx  =  sum_i m_i f(r_i),

where m = _node_measure(r, n) is the profile's node measure: omega_{n-1}
times the exact volume (r_{j+1}^n - r_j^n)/n of each shell between
neighbouring nodes, split evenly onto its two nodes, with the ball
[0, r_0] lumped into the first node.  The rule is exact for constants, so
the node measures sum to the volume omega_{n-1} r_M^n / n of the ball to
machine precision, and it converges at second order for smooth
integrands under grid refinement.  RadialProfile stores no weights: the
node measure is built from the grid wherever an integral needs it
(RadialProfile.cell_measure, _profile_sums, _extremal_quadrature).

The extremal family a exp(-b r^{p'}) is one profile dilated by its core
width b^{-1/p'} (ExtremalSpec.core_width), so its grids run from
DEFAULT_R_MIN * min(1, core width): a narrow core gets the nodes of the
core of width 1, and at b <= 1 the grid is the one from DEFAULT_R_MIN.

This module is also the package's one finite-difference layer.  Gradients
of sampled profiles are always taken by the three-point second-order
stencil on the nonuniform grid: centered in the interior, one-sided at
the ends, or centered everywhere on a periodic grid.  Its weights are
written once (_centered_coefficients, _one_sided_coefficients) and used
twice: radial_derivative applies them by array slices, derivative_matrix
assembles them into a sparse matrix D.  The package's two optimizers,
the gradient ascent of gn_estimator and the manifold minimizer, share one
objective and its gradient through the exact adjoint D.T,
_discrete_functional, and one Armijo driver, _projected_descent.  Their
cost is Python overhead per numpy call on arrays of a few hundred nodes,
so each line-search trial is one stacked pass (every sum of the objective
from one multiplication and one row-wise reduction), the gradient reuses
that pass's derivative, and the driver builds each trial in place.
bump_basis supplies the smooth compactly supported test functions of the
weak-form residuals.

The Gamma-function closed forms of the extremal family's five integrals
live in _extremal_closed_forms: route one of extremal_integrals, which
checks them against its finite-difference oracle, and the flat references
of manifold_geometry.fit_expansion, which runs no oracle.  The oracle,
route two, climbs a ladder of nested geometric grids from _LADDER_BASE
nodes, each level halving the log-step of the one before, and
Richardson-extrapolates each level against the one before (the rule is
second order).  It stops once the change between two extrapolations is
at least _LADDER_MARGIN times below the check's tolerance, or at the
last level within its node cap; the stop reads route two alone.  Away
from p = 1 it stops at 25 001 nodes; near p = 1, where the O(h^2)
constant grows, it climbs further.

Large-grid integrals are summed block by block by _blocked_sums: the
integrand is evaluated on 8 192-node slices of the grid with one node of
overlap on each side, so the node measure and the stencil of every kept
node are those of the whole-array rule, and no temporary the size of the
grid is allocated.  A block's integrands are stacked and summed by one
np.add.reduce over the node axis, which sums each row pairwise as np.sum
does, and the blocks are added by math.fsum.  Only the order of summation
differs from the whole-array sums, so a grid of at most 8 192 nodes, one
block, gives them bit for bit.  The quadrature route of
extremal_integrals (_extremal_quadrature) and _tanh_sinh build their
slices themselves; every integral of a RadialProfile (lp_norm,
grad_energy, entropy_integral, and the deficits and quotients built on
them) goes through _profile_sums, which hands the callback each block's
node measure, grid, values and stencil derivative.  The weak residual of
euclidean_inequalities walks the same blocks (_blocks) itself, to skip
those where its test bumps vanish.

The package's one tanh-sinh rule, _tanh_sinh, also lives here: the
exponent-path integrals of hypercontractivity and the bubble integrals of
manifold_geometry use it.  It has one calling form, arrays in and out:
it integrates a family of panels, its members (the bubbles of an eps
grid, or hypercontractivity's one exponent path), with one pass per
level, each member exactly as it would be alone, and it raises nothing.
A member that misses its node cap is reported in the arrays; the public
function that called the rule raises AccuracyNotMet for it (_missed).
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import AccuracyNotMet, DomainError, OracleDisagreement, Record
from .special_fn import _dimension, sphere_area, stretched_exp_moment

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

#: inner edge of the geometric grids, times min(1, core width) for the
#: extremal family
DEFAULT_R_MIN = 1e-6

#: profiles are truncated where the extremal amplitude falls below this
TAIL_CUTOFF = 1e-16

#: nodes per block of _blocked_sums: 8 192 float64 values are 64 KiB per
#: temporary, under glibc's default 128 KiB mmap threshold, so block
#: temporaries are reused from the heap instead of being returned to the OS
#: and faulted in again on every allocation, and they stay in L2 cache
_BLOCK_NODES = 8192

#: member-nodes per pass of _tanh_sinh's member axis: the members of a
#: level are evaluated in groups of at most this many nodes in all, since a
#: pass holds a few (rows, members, nodes) stacks.  On the sphere's 8-eps
#: fit grid (test_expansion_memory_peak allows 200 KB) the peak was 86 KB
#: with 1 024, 156 KB with 2 048 and 228 KB with 4 096; 2 048 stacks 18
#: members at the first level (113 nodes) and 2 at the fifth (896), and
#: the sphere and torus fits and a 6-eps witness took 6.7 ms with 1 024,
#: 6.4 ms with 2 048 and 6.2 ms with 4 096 (median of 15, one core of a
#: shared 2-core Xeon)
_MEMBER_NODES = 2048

#: relative tolerance of the two-route check of extremal_integrals
_ORACLE_TOL = 1e-8

#: nodes of the first level of extremal_integrals' quadrature ladder; level
#: k + 1 has 2 m_k - 1 nodes on the same ends, so it halves the log-step,
#: and the levels up to 400 001 nodes sum to 796 883
_LADDER_BASE = 3126

#: the ladder stops once its own error estimate is this many times below
#: _ORACLE_TOL
_LADDER_MARGIN = 10


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


def _blocks(m: int):
    """The blocks of _blocked_sums over the nodes 0..m-1 (m >= 3).

    Yields (lo, hi, a, b): the grid is walked in blocks of _BLOCK_NODES
    nodes, and each block is evaluated on the slice lo..hi-1, which reaches
    one node past it on each side (two on the left for a one-node tail,
    which the one-sided end stencil needs), so local measures and stencils
    see every neighbour of the nodes kept; its kept nodes are a..b-1 of the
    slice, and each node is kept in exactly one block.
    """
    for start in range(0, m, _BLOCK_NODES):
        stop = min(start + _BLOCK_NODES, m)
        lo = max(min(start - 1, m - 3), 0)
        yield lo, min(stop + 1, m), start - lo, stop - lo


def _add_blocks(partials: list) -> np.ndarray:
    """The block sums of _blocked_sums, all of one shape, added with math.fsum
    element by element: a block whose sums are all 0 adds exactly nothing."""
    columns = zip(*(part.ravel() for part in partials))
    return np.array([math.fsum(col) for col in columns]).reshape(partials[0].shape)


def _blocked_sums(m: int, terms) -> np.ndarray:
    """Sums over the nodes 0..m-1 (m >= 3) of the integrands that terms returns.

    terms(lo, hi) evaluates the weighted integrands on the nodes lo..hi-1
    of one block's slice (_blocks) and returns them stacked along a last
    axis of length hi - lo: one array of any leading shape (the
    (2, rows, members) stacks of _tanh_sinh), or a sequence of rows.  Each block's stack
    is reduced over its kept nodes by one np.add.reduce over that axis,
    which sums every row pairwise, as np.sum sums it alone, and the block
    sums are added with math.fsum (_add_blocks).  Returns an array of the
    leading shape.
    """
    return _add_blocks([np.add.reduce(np.asarray(terms(lo, hi))[..., a:b], axis=-1)
                        for lo, hi, a, b in _blocks(m)])


@functools.lru_cache(maxsize=None)
def _tanh_sinh_level(level: int) -> tuple:
    """(step h, x, 1 - x, dx/dtau) at the nodes that level adds to _tanh_sinh.

    Level 0 is the trapezoid rule in tau over [-3.5, 3.5] at h = 2^-4, 113
    nodes; each later level halves h and adds the midpoints of the last.
    x = 1 / (1 + e^{-pi sinh tau}): both distances to the ends come from
    e = e^{-pi |sinh tau|} without a subtraction, so a node keeps full
    relative accuracy however close it lies to either end.  The cached
    arrays are read-only.
    """
    h = 2.0 ** -(4 + level)
    tau = -3.5 + h * (np.arange(113) if level == 0 else np.arange(1, 112 << level, 2))
    e = np.exp(-math.pi * np.abs(np.sinh(tau)))
    near, far = e / (1.0 + e), 1.0 / (1.0 + e)
    nodes = (np.where(tau < 0, near, far), np.where(tau < 0, far, near),
             math.pi * np.cosh(tau) * e / (1.0 + e) ** 2)
    for arr in nodes:
        arr.flags.writeable = False
    return (h, *nodes)


#: _tanh_sinh's stopping tolerance, relative
_TANH_SINH_RTOL = 1e-13


def _tanh_sinh(f, lo, hi, max_nodes, scale=0.0, rounding=0.0) -> tuple:
    """(integrals, error estimates, nodes) of f(x, 1 - x) over each panel
    [lo[i], hi[i]].

    The package's one tanh-sinh rule (Takahasi & Mori 1974), exponentially
    convergent on integrands analytic inside the panel, end singularities
    included (Trefethen & Weideman, SIAM Rev. 56, 2014).  With
    x = lo + (hi - lo) / (1 + e^{-pi sinh tau}), it takes trapezoid sums in
    tau over [-3.5, 3.5] from step 2^-4 (113 nodes); each level halves the
    step and evaluates only the new midpoints, block by block
    (_blocked_sums), and its error estimate is the difference from the
    level before.  A panel stops once every estimate is at most 1e-13
    times max(integral of |f|, scale): the size of a larger integral the
    panel is part of (a subnormal panel's rounding never meets its own
    size), or a bound on the terms of an integrand that cancels, whose
    rounding the estimate carries.  The returned estimates are at least
    rounding times the integral of |f|, rounding a number or one per row:
    the relative rounding of the integrand, which the difference of two
    levels cannot see (the floor QUADPACK puts under its Gauss-Kronrod
    estimates, Piessens et al. 1983).

    lo and hi are arrays, one panel per entry: the members, such as the
    bubbles of an eps grid or the one exponent path of
    hypercontractivity.  One pass per level integrates every member still
    running.  max_nodes is a number or one per member, and scale a number,
    one per row or one row per member.  f(x, c, members) gets the nodes of
    those members, as (members, nodes) arrays x and c = 1 - x, each a sum
    of non-negative terms, so for hi <= 1 both keep full relative accuracy
    however close a node lies to either end (1 - hi is exact for
    hi >= 1/2); a panel with hi > 1 uses x alone.  It returns a new
    (rows, members, nodes) stack of integrands, which the rule scales in
    place (rows first, so that each integrand is one contiguous array).

    A member drops out at the level where it would stop alone: once it
    meets the tolerance, or its sums are not finite (returned at once,
    with infinite estimates, for the caller to reject), or its next level
    would take its nodes (integrand evaluations) past its cap.  The
    members of a level are evaluated in groups of at most _MEMBER_NODES
    nodes in all (one member at least), and each member's rows are
    reduced on their own, so its integrals, estimates and nodes are bit
    for bit those of a call with it alone.  The integrals and estimates are
    (members, rows) arrays (one nan column if no member took the first
    level), and nodes has one count per member.  Nothing is raised: a
    member that missed its cap reports its last estimates (nan before its
    second level) and, as nodes, the evaluations it had made plus the
    level it could not take, which is more than its cap; the caller
    raises (_missed).
    """
    width, count = hi - lo, len(lo)
    cap = np.zeros(count, dtype=int) + max_nodes
    scale = np.zeros((count, 1)) + scale
    used = np.zeros(count, dtype=int)
    live = np.arange(count)
    # one nan column until the first level tells the rows of f
    raw, sums, err = None, np.full((count, 1), math.nan), np.full((count, 1), math.nan)
    nodes, level = 0, 0
    while live.size:
        h, x, c, w = _tanh_sinh_level(level)
        over = nodes + len(w) > cap[live]
        used[live[over]] = nodes + len(w)
        live = live[~over]
        if not live.size:
            break

        def terms(members: np.ndarray, a: int, b: int) -> np.ndarray:
            """f dx/dtau on the level's nodes a..b-1 of the members, and its
            absolute value: (2, rows, members, nodes)."""
            span = width[members, None]
            v = f(lo[members, None] + span * x[a:b], (1.0 - hi[members, None]) + span * c[a:b],
                  members)
            # in place: numpy buffers a broadcast product in a temporary of
            # its size (up to 64 KiB), which beside v and the stack below
            # made the peak of a pass
            v *= w[a:b]
            out = np.empty((2,) + v.shape)
            out[0] = v
            np.abs(v, out=out[1])
            return out

        group = max(1, _MEMBER_NODES // len(w))
        level_raw = np.concatenate([
            _blocked_sums(len(w), functools.partial(terms, live[i:i + group]))
            for i in range(0, live.size, group)], axis=2)
        if raw is None:
            raw = np.zeros((2, count, level_raw.shape[1]))
            sums = np.zeros(raw.shape[1:])
            err = np.full(sums.shape, math.nan)
        raw[:, live] += level_raw.transpose(0, 2, 1)
        nodes += len(w)
        new, magnitude = (width[live] * h)[:, None] * raw[:, live]
        finite = np.isfinite(new).all(axis=1)
        done = ~finite
        err[live[done]] = math.inf
        if level:
            ok = live[finite]
            diff = np.abs(new[finite] - sums[ok])
            met = (diff <= _TANH_SINH_RTOL * np.maximum(magnitude[finite], scale[ok])).all(axis=1)
            err[ok] = np.where(met[:, None], np.maximum(diff, rounding * magnitude[finite]), diff)
            done[finite] = met
        sums[live] = new
        used[live[done]] = nodes
        live = live[~done]
        level += 1
    return sums, err, used


def _missed(what: str, max_nodes: int, err) -> AccuracyNotMet:
    """AccuracyNotMet for integrals (what, plural) that missed _tanh_sinh's
    tolerance within max_nodes nodes, listing err, their last estimates.

    err contains nan where there is no estimate yet, as _tanh_sinh reports
    a member that missed before its second level; the error's estimates
    are then None.
    """
    if np.isnan(err).any():
        err = None
    estimates = "" if err is None else \
        "; error estimates " + ", ".join(f"{e:.2e}" for e in err)
    return AccuracyNotMet(f"{what} miss {_TANH_SINH_RTOL:g} relative within {max_nodes} "
                          f"nodes{estimates}", err)


def _profile_sums(u: RadialProfile, terms, derivative: bool = False) -> tuple:
    """Sums over the nodes of u of the arrays that terms returns, block by block.

    terms(mw, r, v, dv) gets one _blocked_sums slice of the profile: the
    node measure mw (_node_measure of the slice), the grid r, the values v
    and, if derivative is set, the stencil derivative dv of v on the slice
    (else None); it returns an iterable of weighted integrands of the
    slice's length.  Each element is computed as on the whole arrays.
    """
    n = u.dimension

    def block(lo: int, hi: int):
        r = u.grid[lo:hi]
        v = u.values[lo:hi]
        dv = radial_derivative(r, v) if derivative else None
        return terms(_node_measure(r, n), r, v, dv)

    return tuple(_blocked_sums(len(u.grid), block).tolist())


def _discrete_functional(w, operator, p: float, C: float, terms, metric: float = 1.0) -> tuple:
    """(objective, gradient) of the one discrete functional of both optimizers,

        F(u) = ln( sum_i w_i |metric (D u)_i|^p + C M_p ) + sum_k c_k ln M_k,

    M_t = sum_i w_i u_i^t, terms = ((t_1, c_1), ...), t_1 = p if C != 0,
    p > 1.  objective(u) is (F(u), or None if the energy or a mass is not
    positive, and the cache (M_{t_1}, ..., energy, du, |du|, 1.0)).  D acts
    on u - u[-1], the same in exact arithmetic, so a constant's derivative
    is 0, not rounding that |Du|^{p-1} amplifies as p -> 1.  Not u - u[0]:
    that also zeroes a flat radial core, where |Du|^p (p < 2) has unbounded
    curvature and the ascent's line search stalls (seen at p <= 1.35).

    Each evaluation is one stacked pass: |du|^p and every u^t are written
    into the rows of one array, multiplied by the stacked weights
    (w metric^p, w, ...) in one call and summed row by row in another, each
    row pairwise as np.sum sums it, so M_t is np.sum(w * u**t) to the bit.

    gradient(u, cache) goes through the adjoint D.T and reuses the cached
    du and |du|.  The cache's last entry is a factor f > 0 such that the
    derivative at u is f du: a 0-homogeneous F keeps its value under
    u -> u/s, so a retraction may hand over the trial's du and |du| with
    f = 1/s and rescale only the scalar sums; the gradient applies
    f^{p-1} to the flux through its scalar.
    """
    adjoint = operator.T
    exponents = [t for t, _ in terms]
    lowered = np.array(exponents)[:, None] - 1.0
    slopes = [c * t for t, c in terms]
    stacked = np.vstack([w * metric**p, np.broadcast_to(w, (len(terms), len(w)))])

    def objective(u: np.ndarray) -> tuple:
        du = operator @ (u - u[-1])
        a = np.abs(du)
        rows = np.empty(stacked.shape)
        np.power(a, p, out=rows[0])
        for i, t in enumerate(exponents, 1):
            np.power(u, t, out=rows[i])
        rows *= stacked
        energy, *masses = np.add.reduce(rows, axis=1).tolist()
        if C:
            energy += C * masses[0]
        cache = (*masses, energy, du, a, 1.0)
        if energy <= 0 or min(masses) <= 0:
            return None, cache
        return math.log(energy) + sum(c * math.log(m) for (_, c), m in zip(terms, masses)), cache

    def gradient(u: np.ndarray, cache) -> np.ndarray:
        *masses, energy, du, a, factor = cache
        flux = np.power(a, p - 1.0)
        np.copysign(flux, du, out=flux)
        flux *= stacked[0]
        g = adjoint @ flux
        g *= p * factor ** (p - 1.0) / energy
        coefs = [s / m for s, m in zip(slopes, masses)]
        if C:
            # p (C / energy), not C p / energy: C p may overflow where the ratio does not
            coefs[0] += p * (C / energy)
        g += w * np.dot(coefs, u ** lowered)
        return g

    return objective, gradient


def _projected_descent(objective, gradient, u, weights, max_iters: int, armijo: float,
                       gtol: float = 0.0, retract=None) -> tuple:
    """Armijo projected-gradient descent over u >= 0.

    Returns (u, value, iterations, stop_reason).  objective(u) returns
    (value, cache), with value None where it is undefined;
    gradient(u, cache) is the gradient of the value at u.  The direction is
    -gradient / max(w, 1e-3 mean w), taken as the gradient times that
    reciprocal, computed once, so nodes of negligible weight cannot take
    huge steps.  Each trial point u + step d is built in one new array and
    projected onto u >= 0 in place; an accepted trial grows the next step
    by 1.8, a rejected one halves it, for at most 30 trials.

    retract, if given, is retract(cand, cache) -> (u, cache): it maps an
    accepted trial back onto the constraint set and returns a cache valid
    at the retracted point, built from the trial's cache.  The objective
    must then be 0-homogeneous (invariant under the retraction), so the
    trial's value is kept and the objective is evaluated once per trial
    and never at a retracted point.

    stop_reason is "gtol" when the preconditioned gradient's sup-norm
    falls below gtol, "no_descent" when the direction no longer descends,
    "line_search" when 30 trials fail, "step_floor" when the step falls
    below 1e-18, and "max_iters" after max_iters iterations; the count
    includes a final failed line search.  max_iters must be a nonnegative
    integer.
    """
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral) or max_iters < 0:
        raise DomainError(f"the iteration cap must be a nonnegative integer, got {max_iters!r}")
    neg_inv_floor = -1.0 / np.maximum(weights, 1e-3 * float(np.mean(weights)))
    cur, cache = objective(u)
    if cur is None:
        raise DomainError("seed profile is degenerate")
    step = 1.0
    iters = 0
    reason = "max_iters"
    for _ in range(max_iters):
        g = gradient(u, cache)
        d = g * neg_inv_floor
        slope = float(np.dot(g, d))
        if gtol > 0 and float(np.abs(d).max()) < gtol:
            reason = "gtol"
            break
        if slope >= 0:
            reason = "no_descent"
            break
        moved = False
        for _ in range(30):
            cand = step * d
            cand += u
            np.maximum(cand, 0.0, out=cand)
            val, new_cache = objective(cand)
            if val is not None and val <= cur + armijo * step * slope:
                u, cur, cache = cand, val, new_cache
                if retract is not None:
                    u, cache = retract(u, cache)
                step *= 1.8
                moved = True
                break
            step *= 0.5
        iters += 1
        if not moved:
            reason = "line_search"
            break
        if step < 1e-18:
            reason = "step_floor"
            break
    return u, cur, iters, reason


def _node_measure(grid: np.ndarray, n: int) -> np.ndarray:
    """Node measure m with sum_i m_i f(r_i) ~ int_{|x| < r_M} f dx on R^n.

    omega_{n-1} times each shell's exact volume (r_{j+1}^n - r_j^n)/n is
    split evenly onto its two nodes; the ball [0, r_0] is lumped into the
    first node.  Exact for f = const by telescoping.
    """
    r = grid
    om = sphere_area(n)
    # in place, at most two grid-sized temporaries at once; each element is
    # computed as in om / (2 n) * (r[1:]^n - r[:-1]^n), with r^n the product
    # r * r * ... * r, several times cheaper than numpy's power for n >= 3
    cell = r * r
    for _ in range(n - 2):
        cell *= r
    half = cell[1:] - cell[:-1]
    del cell
    half *= om / (2 * n)
    measure = np.empty_like(r)
    measure[:-1] = half
    measure[-1] = 0.0
    measure[1:] += half
    del half
    measure[0] += om * r[0] ** n / n
    return measure


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative radial function sampled on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray
    dimension: int

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise DomainError("grid and values must be 1-D arrays of equal length")
        if len(grid) < 3:
            raise DomainError("a profile needs at least 3 nodes")
        if not (grid[0] > 0 and np.all(grid[1:] > grid[:-1])):
            raise DomainError("grid must be positive and strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DomainError("values must be finite and nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dimension", _dimension(self.dimension, 2))
        for arr in (self.grid, self.values):
            arr.flags.writeable = False

    def cell_measure(self) -> np.ndarray:
        """The node measure of the profile's quadrature rule (_node_measure)."""
        return _node_measure(self.grid, self.dimension)

    def derivative(self) -> np.ndarray:
        return radial_derivative(self.grid, self.values)

    def with_values(self, values: np.ndarray) -> "RadialProfile":
        return RadialProfile(self.grid, values, self.dimension)

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


def _check_exponent(name: str, p: float) -> None:
    if not 1 <= p < math.inf:
        raise DomainError(f"{name} requires a finite p >= 1, got {p}")


def lp_norm(u: RadialProfile, p: float) -> float:
    """||u||_p over R^n by the profile's quadrature rule."""
    _check_exponent("lp_norm", p)
    (total,) = _profile_sums(u, lambda mw, r, v, dv: (mw * v**p,))
    return total ** (1.0 / p)


def grad_energy(u: RadialProfile, p: float) -> float:
    """int |grad u|^p dx with the gradient by finite differences."""
    _check_exponent("grad_energy", p)
    (total,) = _profile_sums(u, lambda mw, r, v, dv: (mw * np.abs(dv) ** p,), derivative=True)
    return total


def entropy_integral(u: RadialProfile, p: float) -> float:
    """int u^p ln(u^p) dx with the 0 ln 0 = 0 convention."""
    _check_exponent("entropy_integral", p)
    (total,) = _profile_sums(u, lambda mw, r, v, dv: (mw * plogp(v, p),))
    return total


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

    @property
    def core_width(self) -> float:
        """The core width b^{-1/p'}: up to its amplitude, the profile is the
        one of rate 1 at |x| / core_width."""
        return self.b ** (-1.0 / self.shape_power)

    def value(self, r: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-self.b * np.asarray(r, dtype=float) ** self.shape_power)

    def derivative(self, r: np.ndarray) -> np.ndarray:
        """Analytic radial derivative u0'(r), exactly 0 where the core underflows.

        Far out r^{p'-1} can overflow while exp(-b r^{p'}) underflows; the
        product is then 0, not inf * 0.  The bubble quadrature derives the
        same derivative in closed form from its own exponentials, and its
        tests compare against this one.
        """
        r = np.asarray(r, dtype=float)
        pp = self.shape_power
        core = np.exp(-self.b * r**pp)
        slope = np.power(r, pp - 1.0, out=np.zeros_like(r), where=core > 0)
        return -self.amplitude * self.b * pp * slope * core

    def support_radius(self) -> float:
        """Radius beyond which the profile falls under the tail cutoff 1e-16."""
        if not self.amplitude > TAIL_CUTOFF:
            raise DomainError(
                f"the extremal amplitude {self.amplitude:.3g} at b = {self.b} is not above "
                f"the tail cutoff {TAIL_CUTOFF:g}: the profile has no support to sample"
            )
        return (math.log(self.amplitude / TAIL_CUTOFF) / self.b) ** (1.0 / self.shape_power)


def extremal_spec(n: int, p: float, b: float) -> ExtremalSpec:
    """Closed-form normalized spec of the extremal family."""
    n = _dimension(n, 2)
    if not p > 1:
        raise DomainError(f"extremal family requires p > 1, got {p}")
    if not 0 < b < math.inf:
        raise DomainError(f"extremal family requires a finite b > 0, got {b}")
    pp = p / (p - 1.0)
    try:
        amplitude = (sphere_area(n) * stretched_exp_moment(n - 1.0, pp, p * b)) ** (-1.0 / p)
    except (OverflowError, ZeroDivisionError):
        # the mass moment underflowed to zero or overflowed
        raise DomainError(f"the extremal normalization at b = {b} leaves the float range") from None
    return ExtremalSpec(n=n, p=float(p), b=float(b), amplitude=amplitude)


def extremal_profile(
    n: int,
    p: float,
    b: float,
    n_nodes: int = DEFAULT_NODES,
) -> RadialProfile:
    """Sampled normalized extremal on a geometric grid.

    The grid runs from DEFAULT_R_MIN * min(1, core width) to the radius
    where the amplitude falls below the tail cutoff 1e-16.
    """
    spec = extremal_spec(n, p, b)
    grid = _extremal_grid(spec, n_nodes)
    return RadialProfile(grid, spec.value(grid), spec.n)


def _extremal_grid(spec: ExtremalSpec, n_nodes: int) -> np.ndarray:
    """Geometric grid from DEFAULT_R_MIN * min(1, core width) to the support radius."""
    if n_nodes < 3:
        raise DomainError("n_nodes must be at least 3")
    r_min = DEFAULT_R_MIN * min(1.0, spec.core_width)
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
    holds the independent grid + finite-difference route, extrapolated
    over its node ladder, and max_rel_difference the worst relative
    disagreement between the two.  nodes is the finest level of the
    ladder, and error_estimate the ladder's last estimate of route two's
    relative error (nan when fewer than three levels ran).
    """

    entropy: float
    grad_energy: float
    mass_moment2: float
    grad_moment2: float
    entropy_moment2: float
    quadrature: dict
    max_rel_difference: float
    nodes: int
    error_estimate: float


def _extremal_closed_forms(spec: ExtremalSpec) -> dict:
    """The five integrals of ExtremalIntegrals, keyed by field name, each
    reduced to stretched_exp_moment through the closed form of the profile.
    A value that leaves the float range (overflows, or underflows to 0)
    raises DomainError.
    """
    n, p, b, a, pp = spec.n, spec.p, spec.b, spec.amplitude, spec.shape_power
    om = sphere_area(n)
    beta = p * b

    def mom(k: float) -> float:
        return stretched_exp_moment(k, pp, beta)

    try:
        mass_pow = a**p
        grad_pow = (a * b * pp) ** p
        log_a = math.log(a)
        closed = {
            "entropy": p * log_a - p * b * mass_pow * om * mom(n - 1 + pp),
            "grad_energy": om * grad_pow * mom(n - 1 + pp),
            "mass_moment2": mass_pow * om * mom(n + 1),
            "grad_moment2": om * grad_pow * mom(n + 1 + pp),
            "entropy_moment2": p * log_a * mass_pow * om * mom(n + 1)
            - p * b * mass_pow * om * mom(n + 1 + pp),
        }
    except (OverflowError, ValueError):
        # a power overflowed, or the amplitude underflowed to 0 (log 0)
        closed = {}
    # extremal_integrals divides by each closed form in its relative check
    if not closed or not all(math.isfinite(v) and v != 0 for v in closed.values()):
        raise DomainError(f"the extremal integrals at b = {b} leave the float range")
    return closed


def _extremal_quadrature(spec: ExtremalSpec, n_nodes: int) -> tuple:
    """The five integrals of ExtremalIntegrals, in its field order, from
    the profile sampled on its n_nodes-node grid with the node measure and
    finite-difference gradients of RadialProfile, summed block by block
    (_blocked_sums) so that no grid-sized temporary is allocated."""
    p = spec.p
    grid = _extremal_grid(spec, n_nodes)

    def terms(lo: int, hi: int) -> tuple:
        r = grid[lo:hi]
        u = spec.value(r)
        # the node measure and derivative of RadialProfile, on the slice
        mw = _node_measure(r, spec.n)
        gp = np.abs(radial_derivative(r, u)) ** p
        ent = plogp(u, p)
        r2 = r**2
        return mw * ent, mw * gp, mw * u**p * r2, mw * gp * r2, mw * ent * r2

    return tuple(_blocked_sums(len(grid), terms).tolist())


def extremal_integrals(n: int, p: float, b: float, n_nodes: int = 800_000) -> ExtremalIntegrals:
    """All five extremal integrals, each computed by two independent routes.

    Route one is the Gamma-function closed forms
    (_extremal_closed_forms).  Route two integrates the sampled profile
    (_extremal_quadrature) on a ladder of nested geometric grids: m_0 =
    _LADDER_BASE nodes (n_nodes if fewer), then m_{k+1} = 2 m_k - 1 while
    that is at most n_nodes, so each level halves the log-step of the one
    before.  From the second level on, the sums S_k are
    Richardson-extrapolated, R_k = S_k + (S_k - S_{k-1})/3; from the third
    on, the estimate e_k is the worst relative change |R_k - R_{k-1}| / |R_k|
    over the five, and the ladder stops at the first e_k at most
    _ORACLE_TOL / _LADDER_MARGIN.  The stop reads route two alone, never
    the closed forms.  Route two is the last R_k, or the single level's
    sums when n_nodes holds one level.

    A relative disagreement beyond _ORACLE_TOL on any of the five raises
    OracleDisagreement; a closed form that leaves the float range
    (overflows, or underflows to 0) raises DomainError.
    """
    spec = extremal_spec(n, p, b)
    closed = _extremal_closed_forms(spec)

    nodes = min(int(n_nodes), _LADDER_BASE)
    sums = np.array(_extremal_quadrature(spec, nodes))
    route, extrapolated, estimate = sums, None, math.nan
    # the estimate is nan, and so fails the stop test, until three levels ran
    while 2 * nodes - 1 <= n_nodes and not estimate <= _ORACLE_TOL / _LADDER_MARGIN:
        nodes = 2 * nodes - 1
        finer = np.array(_extremal_quadrature(spec, nodes))
        route = finer + (finer - sums) / 3.0
        if extrapolated is not None:
            estimate = float(np.max(np.abs(route - extrapolated) / np.abs(route)))
        sums, extrapolated = finer, route
    quad = dict(zip(closed, route.tolist()))

    rel = {k: abs(quad[k] - closed[k]) / abs(closed[k]) for k in closed}
    worst = max(rel.values())
    if worst > _ORACLE_TOL:
        bad = max(rel, key=rel.get)
        raise OracleDisagreement(
            f"closed-form and quadrature routes disagree on {bad}: "
            f"{closed[bad]:.12e} vs {quad[bad]:.12e} (rel {rel[bad]:.3e} > {_ORACLE_TOL:.1e})"
        )
    return ExtremalIntegrals(**closed, quadrature=quad, max_rel_difference=worst,
                             nodes=nodes, error_estimate=estimate)


def random_stretched_mixture(
    n: int,
    rng: np.random.Generator,
    n_nodes: int = DEFAULT_NODES,
) -> RadialProfile:
    """Random two-component mixture c1 e^{-b1 r^{s1}} + c2 e^{-b2 r^{s2}}.

    The workhorse trial family of the robustness checks: smooth, strictly
    positive, decaying, and never exactly extremal.  Amplitudes c_i are
    drawn uniformly from [0.2, 2], rates b_i from [0.3, 3] and powers s_i
    from [1, 4].
    """
    c = rng.uniform(0.2, 2.0, size=2)
    bb = rng.uniform(0.3, 3.0, size=2)
    ss = rng.uniform(1.0, 4.0, size=2)
    r_max = max(
        (math.log(max(c[i], 1.0) / TAIL_CUTOFF) / bb[i]) ** (1.0 / ss[i]) for i in range(2)
    )
    grid = np.geomspace(DEFAULT_R_MIN, r_max, int(n_nodes))

    def component(i: int) -> np.ndarray:
        # c_i exp(-b_i r^{s_i}) in one buffer; the products commute exactly,
        # so the bits are those of the expression written out
        t = grid ** ss[i]
        t *= -bb[i]
        np.exp(t, out=t)
        t *= c[i]
        return t

    values = component(0)
    values += component(1)
    return RadialProfile(grid, values, n)

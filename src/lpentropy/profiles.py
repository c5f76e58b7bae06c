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
(RadialProfile.cell_measure, _profile_sums).

The extremal family a exp(-b r^{p'}) is one profile dilated by its core
width b^{-1/p'} (ExtremalSpec.core_width), so its grids run from
DEFAULT_R_MIN * min(1, core width): a narrow core gets the nodes of the
core of width 1, and at b <= 1 the grid is the one from DEFAULT_R_MIN.

This module is also the package's one finite-difference layer.  Gradients
of sampled profiles are always taken by the three-point second-order
stencil on the nonuniform grid: centered in the interior, one-sided at
the ends, or centered everywhere on a periodic grid.  Its weights are
written once (_centered_coefficients, _one_sided_coefficients), gathered
for a grid by _stencil and applied by one slice helper, _apply_stencil,
which radial_derivative calls on each block.  The package's two
optimizers, the gradient ascent of gn_estimator and the manifold
minimizer, share one discrete functional, _discrete_functional, and one
Armijo descent loop, _projected_descent.  The functional builds its own
discretization from the grid: the stencil, applied by _apply_stencil,
and its exact adjoint, applied by transposed slices (_apply_adjoint),
each entry summed by ascending stencil row, as the product of the
transposed CSR matrix with the same rows sums it.  It returns its
objective, its gradient through the adjoint, and the retraction onto
its first mass's unit sphere.  The optimizers' cost is Python overhead
per numpy call on arrays of a few hundred nodes, so each line-search
trial is one stacked pass (every sum of the objective from one
multiplication and one row-wise reduction), the gradient reuses that
pass's derivative, and the descent loop builds each trial in place.
bump_basis supplies the smooth compactly supported test functions of the
two weak-form residuals, limit_pde_residual of euclidean_inequalities and
euler_lagrange_residual of manifold_minimizer, as two (tests, nodes)
arrays (v, dv).  Each residual multiplies its integrands by them and
reduces them by np.add.reduce over the node axis (the manifold residual in
one stacked table, limit_pde_residual one kind of integrand at a time, on
each block), and both take their relative residual by one rule,
_weak_residual_ratio: the norm of the per-test sums over the norm of the
summed absolute terms, both scaled exactly by 2^-k.

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
node are those of the whole-array rule, and no integrand the size of the
grid is allocated.  A block's integrands are stacked and summed by one
np.add.reduce over the node axis, which sums each row pairwise as np.sum
does, and the blocks are added by math.fsum.  Only the order of summation
differs from the whole-array sums, so a grid of at most 8 192 nodes, one
block, gives them bit for bit.  _tanh_sinh builds its slices itself;
every integral of a RadialProfile (lp_norm, grad_energy,
entropy_integral, the deficits and quotients built on them, and the
quadrature route of extremal_integrals, which samples each ladder level
into one values array) goes through _profile_sums, which hands the
callback each block's node measure, grid, values and stencil
derivative.  The weak residual of
euclidean_inequalities walks the same blocks (_blocks) itself, to skip
those where its test bumps vanish, and places its test window by
_mass_quantiles: the log-radius quantiles of the cumulative mass of u^p,
built block by block with the running total carried into each block's
np.cumsum, and interpolated on the one block around each crossing.

So a profile costs its own two arrays.  Every path that builds, reads or
integrates a RadialProfile holds the grid and values plus memory of the
order of one block: ExtremalSpec.value computes in one buffer,
random_stretched_mixture adds its second component block by block,
RadialProfile.from_csv parses rows straight into the two arrays, and a
RadialProfile validates its arrays by reductions and per-block
comparisons, with no mask the size of the grid.

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
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyNotMet, DomainError, OracleDisagreement, Record
from .special_fn import _dimension, sphere_area, stretched_exp_moment

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

#: one row of a profile CSV, as RadialProfile.from_csv parses it
_CSV_NODE = np.dtype([("r", float), ("u", float)])

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


def _stencil(grid: np.ndarray, period: float = None) -> tuple:
    """The stencil weights of every node of the grid: (inner, ends).

    inner = (a, b, c) holds the centered weights on (u_{i-1}, u_i, u_{i+1})
    of the nodes 1..m-2.  ends holds one (weights, nodes) pair for node 0
    and one for node m-1, in the order the derivative sums them, with the
    nodes indexed by 0, 1, 2, -3, -2 or -1: the one-sided stencils into the
    grid, or, with a period, the centered stencils across the seam.
    """
    r = grid
    if len(r) < 3:
        raise DomainError("need at least 3 grid nodes for a second-order derivative")
    inner = _centered_coefficients(r[1:-1] - r[:-2], r[2:] - r[1:-1])
    (x0, x1, x2), (y2, y1, y0) = r[:3].tolist(), r[-3:].tolist()
    if period is None:
        return inner, ((_one_sided_coefficients(x1 - x0, x2 - x1), (0, 1, 2)),
                       (_one_sided_coefficients(y1 - y0, y2 - y1), (-1, -2, -3)))
    seam = (x0 + period) - y0
    return inner, ((_centered_coefficients(seam, x1 - x0), (-1, 0, 1)),
                   (_centered_coefficients(y0 - y1, seam), (-2, -1, 0)))


def _apply_stencil(u: np.ndarray, inner: tuple, ends: tuple) -> np.ndarray:
    """The derivative of u by the stencil (inner, ends) of _stencil.

    Each node sums its three terms in the order of its weights; the
    interior by slices, the two end nodes from Python floats.
    """
    a, b, c = inner
    du = np.empty_like(u)
    mid = du[1:-1]
    np.multiply(a, u[:-2], out=mid)
    mid += b * u[1:-1]
    mid += c * u[2:]
    near = u[:3].tolist() + u[-3:].tolist()
    (w, at), (v, bt) = ends
    du[0] = w[0] * near[at[0]] + w[1] * near[at[1]] + w[2] * near[at[2]]
    du[-1] = v[0] * near[bt[0]] + v[1] * near[bt[1]] + v[2] * near[bt[2]]
    return du


def _adjoint_passes(inner: tuple, ends: tuple) -> tuple:
    """The stencil's weights regrouped for _apply_adjoint.

    Returns (up, on, down, first, last): up[j] is node j's weight on node
    j + 1, on[j] its weight on itself, and down[j] node j + 1's weight on
    node j, all without wrapping; first and last are the one remaining
    (node, weight) of node 0's and of node m-1's stencil (node 2 and m-3
    without a period, the neighbours across the seam with one).
    """
    a, b, c = inner
    head, tail = (dict(zip(at, w)) for w, at in ends)
    up = np.concatenate(([head.pop(1)], c))
    on = np.concatenate(([head.pop(0)], b, [tail.pop(-1)]))
    down = np.concatenate((a, [tail.pop(-2)]))
    (first,), (last,) = head.items(), tail.items()
    return up, on, down, first, last


def _apply_adjoint(g: np.ndarray, passes: tuple) -> np.ndarray:
    """The transpose of the stencil applied to g, by the passes of _adjoint_passes.

    Every entry sums its terms by ascending stencil row, as the product of
    the transposed CSR matrix (CSC) with g does: the three slice passes
    take the rows' weights on their right neighbour, on themselves and on
    their left neighbour, node 0's remaining weight goes in after the
    first pass (its entry then holds one term, and two terms add alike in
    either order), and node m-1's after the last.  So the result is that
    product's, up to the sign of a zero.
    """
    up, on, down, (i0, w0), (i1, w1) = passes
    out = np.empty_like(g)
    out[0] = 0.0
    np.multiply(up, g[:-1], out=out[1:])
    out[i0] += w0 * g[0]
    out += on * g
    out[:-1] += down * g[1:]
    out[i1] += w1 * g[-1]
    return out


def radial_derivative(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order finite-difference derivative on a nonuniform grid.

    Three-point centered stencil in the interior, three-point one-sided
    stencils at both ends (_stencil, applied by _apply_stencil); the
    package's one public finite-difference entry point.
    """
    return _apply_stencil(values, *_stencil(grid))


def bump_basis(coord: np.ndarray, centers, width: float, jacobian=1.0,
               period: float = None) -> tuple:
    """Smooth compactly supported test bumps and their derivatives.

    For each center c the bump is v = exp(-1/(1-x^2)) on |x| < 1, with
    x = (coord - c)/width (the difference wrapped into one period when a
    period is given), and zero elsewhere.  Returns the (centers, nodes)
    arrays (v, dv), one row per center, where dv = (dv/dcoord) / jacobian
    is the derivative in the variable t with dt/dcoord = jacobian
    (jacobian = r for coord = ln r).  Each entry is computed as it would be
    for its center alone; x is built in place and dropped before v and dv.
    """
    coord = np.asarray(coord, dtype=float)
    x = np.subtract(coord, np.asarray(centers, dtype=float)[:, None])
    if period is not None:
        x += period / 2.0
        np.remainder(x, period, out=x)
        x -= period / 2.0
    x /= width
    inside = np.abs(x) < 1.0
    xs = x[inside]
    del x
    jac = np.broadcast_to(np.asarray(jacobian, dtype=float), inside.shape)[inside]
    v = np.zeros(inside.shape)
    dv = np.zeros(inside.shape)
    vs = np.exp(-1.0 / (1.0 - xs**2))
    v[inside] = vs
    dv[inside] = vs * (-2.0 * xs / (1.0 - xs**2) ** 2) / (jac * width)
    return v, dv


def _weak_residual_ratio(resid: np.ndarray, terms: np.ndarray) -> tuple:
    """(||resid|| / ||s||, ||s||) of a weak-form residual, s = sum_rows |terms|.

    terms is the (kinds, tests) table of a weak residual's terms, resid its
    per-test sum, added by the caller in the caller's own order; s sums the
    absolute rows in their order.  Both norms are taken of the vectors times
    2^-k, k the binary exponent of the largest term: no square overflows, and
    a power of two scales exactly, so the ratio and the scale, taken back by
    2^k, keep every finite bit.  The scale is inf if it leaves the float
    range, and (0.0, 0.0) is returned when every term vanishes.
    """
    k = math.frexp(float(np.max(np.abs(terms))))[1]
    norm = float(np.linalg.norm(np.abs(np.ldexp(terms, -k)).sum(axis=0)))
    if norm <= 0:
        return 0.0, 0.0
    try:
        scale = math.ldexp(norm, k)
    except OverflowError:
        scale = math.inf
    return float(np.linalg.norm(np.ldexp(resid, -k))) / norm, scale


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


def _profile_sums(grid: np.ndarray, values: np.ndarray, n: int, terms,
                  derivative: bool = False) -> tuple:
    """Sums over the nodes of a profile on R^n of the arrays that terms
    returns, block by block.

    grid and values are a profile's arrays (a RadialProfile's, or a grid
    and values the caller built and trusts, unvalidated).  terms(mw, r, v,
    dv) gets one _blocked_sums slice of the profile: the node measure mw
    (_node_measure of the slice), the grid r, the values v and, if
    derivative is set, the stencil derivative dv of v on the slice (else
    None); it returns an iterable of weighted integrands of the slice's
    length.  Each element is computed as on the whole arrays.
    """
    def block(lo: int, hi: int):
        r = grid[lo:hi]
        v = values[lo:hi]
        dv = radial_derivative(r, v) if derivative else None
        return terms(_node_measure(r, n), r, v, dv)

    return tuple(_blocked_sums(len(grid), block).tolist())


def _mass_quantiles(grid: np.ndarray, values: np.ndarray, n: int, p: float,
                    levels: tuple) -> list:
    """The log-radius ln r at each level of the cumulative mass of u^p.

    The cumulative mass c_i = sum_{j <= i} m_j u_j^p (m the node measure) is
    normalized by its total, and each level's ln r is np.interp(level, c,
    ln r) on the whole grid, bit for bit, with no array the size of the
    grid.  The sums are built block by block (_blocks): adding the running
    total into a block's first node before the block's np.cumsum, which
    adds strictly in sequence, gives the whole array's values.  One pass
    keeps each block's last value; a level's crossing then lies in the
    first block whose last value exceeds it, or at the node just before
    that block, and np.interp, which reads only the bracketing pair, runs
    on that window.  A total that is not finite and positive (u^p
    overflows or underflows everywhere) is a DomainError, without a
    warning.
    """
    def cumulative(lo: int, hi: int, a: int, b: int, before: float) -> np.ndarray:
        r = grid[lo:hi]
        mass = values[lo + a:lo + b] ** p
        mass *= _node_measure(r, n)[a:b]
        mass[0] += before
        return np.cumsum(mass, out=mass)

    blocks = list(_blocks(len(grid)))
    ends, total = [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            total = float(cumulative(*block, total)[-1])
            ends.append(total)
    if not math.isfinite(total):
        raise DomainError("the mass int u^p that places the test window leaves the float range")
    if total <= 0:
        raise DomainError("profile carries no mass for the test basis")
    quantiles = []
    for level in levels:
        k = next(k for k, end in enumerate(ends) if end / total > level)
        lo, hi, a, b = blocks[k]
        start = lo + a - (k > 0)
        window = cumulative(lo, hi, a, b, ends[k - 1] if k else 0.0)
        if k:
            window = np.concatenate(([ends[k - 1]], window))
        window /= total
        quantiles.append(float(np.interp(level, window, np.log(grid[start:lo + b]))))
    return quantiles


def _discrete_functional(grid: np.ndarray, w, p: float, C: float, terms, metric: float = 1.0,
                         period: float = None) -> tuple:
    """(objective, gradient, retract) of the one discrete functional of both
    optimizers,

        F(u) = ln( sum_i w_i |metric (D u)_i|^p + C M_p ) + sum_k c_k ln M_k,

    M_t = sum_i w_i u_i^t, terms = ((t_1, c_1), ...), t_1 = p if C != 0,
    p > 1, and D the stencil of _stencil(grid, period): one-sided at the
    ends, or with a period centered across the seam.  objective(u) is
    (F(u), or None if the energy or a mass is not positive, and the cache
    (M_{t_1}, ..., energy, du, |du|, 1.0)).  D acts on u - u[-1], the same
    in exact arithmetic, so a constant's derivative is 0, not rounding that
    |Du|^{p-1} amplifies as p -> 1.  Not u - u[0]: that also zeroes a flat
    radial core, where |Du|^p (p < 2) has unbounded curvature and the
    ascent's line search stalls (seen at p <= 1.35).

    Each evaluation is one stacked pass: |du|^p and every u^t are written
    into the rows of one array, multiplied by the stacked weights
    (w metric^p, w, ...) in one call and summed row by row in another, each
    row pairwise as np.sum sums it, so M_t is np.sum(w * u**t) to the bit.

    gradient(u, cache) goes through the exact adjoint of D (_apply_adjoint)
    and reuses the cached du and |du|.  The cache's last entry is a factor
    f > 0 such that the derivative at u is f du; the gradient applies
    f^{p-1} to the flux through its scalar.

    retract(u, cache) -> (u / s, cache) rescales u to unit M_{t_1}, with
    s = M_{t_1}^{1/t_1}, for a 0-homogeneous F (p + sum_k c_k t_k = 0),
    which keeps its value under u -> u/s.  Only the cache's scalars are
    rescaled, each sum by s to the power of its degree: M_{t_1} becomes
    exactly 1.0, each other M_{t_k} is divided by s^{t_k}, the energy by
    s^p, and the factor by s, so the trial's du and |du| are kept.  s comes
    from the same sum as a fresh normalization, so the retracted point is
    that normalization to the bit.
    """
    inner, ends = _stencil(grid, period)
    passes = _adjoint_passes(inner, ends)
    exponents = [t for t, _ in terms]
    lowered = np.array(exponents)[:, None] - 1.0
    slopes = [c * t for t, c in terms]
    stacked = np.vstack([w * metric**p, np.broadcast_to(w, (len(terms), len(w)))])

    def objective(u: np.ndarray) -> tuple:
        du = _apply_stencil(u - u[-1], inner, ends)
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
        g = _apply_adjoint(flux, passes)
        g *= p * factor ** (p - 1.0) / energy
        coefs = [s / m for s, m in zip(slopes, masses)]
        if C:
            # p (C / energy), not C p / energy: C p may overflow where the ratio does not
            coefs[0] += p * (C / energy)
        g += w * np.dot(coefs, u ** lowered)
        return g

    def retract(u: np.ndarray, cache) -> tuple:
        first, *masses, energy, du, a, factor = cache
        s = first ** (1.0 / exponents[0])
        rescaled = [m / s**t for m, t in zip(masses, exponents[1:])]
        return u / s, (1.0, *rescaled, energy / s**p, du, a, factor / s)

    return objective, gradient, retract


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
        # block by block and by reductions: no mask the size of the grid
        slices = (grid[i:i + _BLOCK_NODES + 1] for i in range(0, len(grid) - 1, _BLOCK_NODES))
        if not (grid[0] > 0 and all(np.all(s[1:] > s[:-1]) for s in slices)):
            raise DomainError("grid must be positive and strictly increasing")
        # a nan makes the minimum nan, which fails the comparison
        if not (values.min() >= 0 and values.max() < math.inf):
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
        """The profile written by to_csv: a header 'r,u', then one node per row.

        The rows are parsed straight into the grid and values arrays,
        _BLOCK_NODES rows at a time (np.fromiter on a two-field dtype).  A
        seekable file is first scanned for its line count, an upper bound
        on its rows that sizes both arrays, so reading holds the two arrays
        and one block of rows; a pipe, or a file whose lines do not end in
        '\\n', grows them as they fill.  A bad row is a DomainError naming
        its line; a file of fewer than 3 rows fails the node count.
        """
        with open(path, newline="") as fh:
            size = _BLOCK_NODES
            if fh.seekable():
                chunks = iter(functools.partial(fh.buffer.read, 1 << 20), b"")
                size = sum(chunk.count(b"\n") for chunk in chunks)
                fh.seek(0)
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DomainError(f"empty profile CSV: {path}") from None
            if [h.strip() for h in header[:2]] != ["r", "u"]:
                raise DomainError(f"expected CSV header 'r,u', got {header!r}")

            def nodes():
                for lineno, row in enumerate(reader, start=2):
                    try:
                        yield float(row[0]), float(row[1])
                    except (ValueError, IndexError):
                        raise DomainError(
                            f"bad profile row at line {lineno} of {path}: {row!r}"
                        ) from None

            pairs, grid, values, count = nodes(), np.empty(size), np.empty(size), 0
            while True:
                block = np.fromiter(itertools.islice(pairs, _BLOCK_NODES), dtype=_CSV_NODE)
                if not block.size:
                    break
                end = count + len(block)
                if end > size:
                    size = 2 * end
                    grid.resize(size, refcheck=False)
                    values.resize(size, refcheck=False)
                grid[count:end] = block["r"]
                values[count:end] = block["u"]
                count = end
        # in place: the arrays are this function's own
        grid.resize(count, refcheck=False)
        values.resize(count, refcheck=False)
        return RadialProfile(grid, values, dimension)


def _check_exponent(name: str, p: float) -> None:
    if not 1 <= p < math.inf:
        raise DomainError(f"{name} requires a finite p >= 1, got {p}")


def lp_norm(u: RadialProfile, p: float) -> float:
    """||u||_p over R^n by the profile's quadrature rule."""
    _check_exponent("lp_norm", p)
    (total,) = _profile_sums(u.grid, u.values, u.dimension,
                             lambda mw, r, v, dv: (mw * v**p,))
    return total ** (1.0 / p)


def grad_energy(u: RadialProfile, p: float) -> float:
    """int |grad u|^p dx with the gradient by finite differences."""
    _check_exponent("grad_energy", p)
    (total,) = _profile_sums(u.grid, u.values, u.dimension,
                             lambda mw, r, v, dv: (mw * np.abs(dv) ** p,), derivative=True)
    return total


def entropy_integral(u: RadialProfile, p: float) -> float:
    """int u^p ln(u^p) dx with the 0 ln 0 = 0 convention."""
    _check_exponent("entropy_integral", p)
    (total,) = _profile_sums(u.grid, u.values, u.dimension,
                             lambda mw, r, v, dv: (mw * plogp(v, p),))
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
        """u0(r) = a exp(-b r^{p'}), computed in one buffer of r's shape.

        The products commute exactly, so the bits are those of the
        expression written out; a 0-d r gives a scalar.
        """
        r = np.asarray(r, dtype=float)
        t = np.power(r, self.shape_power, out=np.empty_like(r))
        t *= -self.b
        np.exp(t, out=t)
        t *= self.amplitude
        return t[()]

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
    """The five integrals of ExtremalIntegrals, in its field order, of the
    profile sampled on its n_nodes-node grid, summed block by block by
    _profile_sums with the node measure and finite-difference gradients of
    RadialProfile.  The grid and values are this module's own, so they are
    summed without a RadialProfile's validation."""
    p = spec.p
    grid = _extremal_grid(spec, n_nodes)

    def terms(mw, r, u, du) -> tuple:
        gp = np.abs(du) ** p
        ent = plogp(u, p)
        r2 = r**2
        return mw * ent, mw * gp, mw * u**p * r2, mw * gp * r2, mw * ent * r2

    return _profile_sums(grid, spec.value(grid), spec.n, terms, derivative=True)


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
    from [1, 4].  The values are the grid's one companion array: the first
    component is built in it, and the second is added block by block.
    """
    c = rng.uniform(0.2, 2.0, size=2)
    bb = rng.uniform(0.3, 3.0, size=2)
    ss = rng.uniform(1.0, 4.0, size=2)
    r_max = max(
        (math.log(max(c[i], 1.0) / TAIL_CUTOFF) / bb[i]) ** (1.0 / ss[i]) for i in range(2)
    )
    grid = np.geomspace(DEFAULT_R_MIN, r_max, int(n_nodes))

    def component(i: int, r: np.ndarray) -> np.ndarray:
        # c_i exp(-b_i r^{s_i}) in one buffer; the products commute exactly,
        # so the bits are those of the expression written out
        t = r ** ss[i]
        t *= -bb[i]
        np.exp(t, out=t)
        t *= c[i]
        return t

    values = component(0, grid)
    for start in range(0, len(grid), _BLOCK_NODES):
        block = slice(start, start + _BLOCK_NODES)
        values[block] += component(1, grid[block])
    return RadialProfile(grid, values, n)

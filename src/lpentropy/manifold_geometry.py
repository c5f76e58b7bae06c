"""Geodesic bubbles on model manifolds and their small-scale expansions.

A bubble is a cut-off, rescaled copy of the Euclidean extremal profile
planted at a point of a round sphere or a flat torus:

    u_eps(r) = eta(r) * eps^{-n/p} * u0(r / eps),

with r the geodesic distance and eta the C^1 cubic cutoff: 1 on
[0, delta/2], then (1 - s)^2 (1 + 2 s) with s = (r - delta/2)/(delta/2),
falling to 0 at delta.  As eps -> 0 the mass, entropy, and gradient
integrals admit expansions whose eps^2 coefficients are controlled by the
scalar curvature R:

    mass    = 1 - (R/(6n)) J1 eps^2 + O(eps^4)
    entropy = I1 - n ln(eps) + (R/6) J1 eps^2 ln(eps) - (R/(6n)) J3 eps^2 + ...
    grad    = eps^{-p} ( I2 - (R/(6n)) J2 eps^2 + O(eps^4) )

where I1, I2 are the flat entropy and gradient integrals of u0 and the
J's are its second moments.  `fit_expansion` recovers the curvature
coefficients numerically and compares them with those closed forms;
`lower_bound_witness` uses the same bubbles to exhibit violations of an
entropy inequality whose leading constant A is below the sharp one.

The bubble integrals are computed by a two-panel rule split at delta/2,
where the cutoff starts, so that each panel's integrand is smooth inside
it.  The core panel runs in ln r from r_0 = eps*1e-7*min(1, b^{-1/p'}), a
fixed fraction of the core width, to min(delta/2, r_dead), r_dead being the
radius past which e^{-y} underflows; the ball [0, r_0] is integrated
analytically.  Where the core has underflowed by delta/2 the cutoff panel
[delta/2, delta] adds exactly 0.  Both panels are integrated by the
package's tanh-sinh rule (profiles._tanh_sinh), the cutoff panel judged
against the scale of the core's integrals, and n_nodes caps their
evaluations (AccuracyNotMet).  Two exponentials per node give all three
integrands, weighted by the geodesic sphere area f(r)^{n-1}, f the model's
warp (ManifoldModel.warp, which geodesic_density reads too).  An eps grid
is integrated together (_bubble_grid) as one array, one pass of the rule
per level for every bubble still running, each bubble exactly as it would
be alone, and comes back as arrays, one row per eps.  bubble_integrals
builds its BubbleIntegrals record from a one-eps grid, and fit_expansion
and lower_bound_witness take their columns and rows from a whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import entropy_best_constant
from .errors import DomainError, Record
from .profiles import ExtremalSpec, _extremal_closed_forms, _missed, _tanh_sinh, extremal_spec
from .special_fn import _dimension, sphere_area

__all__ = [
    "ManifoldModel",
    "geodesic_density",
    "BubbleSpec",
    "BubbleIntegrals",
    "bubble_integrals",
    "ExpansionReport",
    "fit_expansion",
    "WitnessReport",
    "lower_bound_witness",
]

@dataclass(frozen=True)
class ManifoldModel:
    """Round sphere of a given radius or flat cubic torus of a given side."""

    kind: str
    dimension: int
    scale: float

    def __post_init__(self):
        if self.kind not in ("sphere", "torus"):
            raise DomainError(f"unknown manifold kind {self.kind!r}")
        object.__setattr__(self, "dimension", _dimension(self.dimension, 2))
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")

    @classmethod
    def sphere(cls, dimension: int, radius: float = 1.0) -> "ManifoldModel":
        return cls(kind="sphere", dimension=dimension, scale=radius)

    @classmethod
    def torus(cls, dimension: int, side: float = 1.0) -> "ManifoldModel":
        return cls(kind="torus", dimension=dimension, scale=side)

    @property
    def scalar_curvature(self) -> float:
        """n(n-1)/radius^2 on the sphere, 0 on the torus; DomainError where
        it leaves the float range."""
        n = self.dimension
        if self.kind == "torus":
            return 0.0
        # divided twice: radius^2 would underflow to 0 below 1e-162 (a
        # ZeroDivisionError) or lose digits as a subnormal
        curv = n * (n - 1) / self.scale / self.scale
        if curv == math.inf:
            raise DomainError(f"the scalar curvature of the sphere of radius {self.scale} "
                              f"leaves the float range")
        return curv

    @property
    def volume(self) -> float:
        n = self.dimension
        try:
            vol = (sphere_area(n + 1) if self.kind == "sphere" else 1.0) * self.scale**n
        except OverflowError:
            vol = math.inf
        if not 0 < vol < math.inf:
            raise DomainError(f"the {self.kind} of scale {self.scale} has no float volume")
        return vol

    @property
    def injectivity_radius(self) -> float:
        if self.kind == "sphere":
            return math.pi * self.scale
        return self.scale / 2.0

    def warp(self, r: np.ndarray) -> np.ndarray:
        """f(r) in the metric dr^2 + f(r)^2 g_{S^{n-1}}: radius sin(r/radius), or r (torus)."""
        return r if self.kind == "torus" else self.scale * np.sin(r / self.scale)


def geodesic_density(model: ManifoldModel, r) -> np.ndarray:
    """Jacobian of the exponential map: geodesic sphere area = area(S^{n-1}) r^{n-1} * density.

    It is (f(r)/r)^{n-1}, f the model's warp, valid strictly inside the injectivity radius.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= model.injectivity_radius * (1 + 1e-12)):
        raise DomainError(
            f"geodesic radius must lie in [0, {model.injectivity_radius:.6g})"
        )
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, (model.warp(safe) / safe) ** (model.dimension - 1), 1.0)


@dataclass(frozen=True)
class BubbleSpec:
    """A rescaled extremal profile cut off inside a geodesic ball."""

    model: ManifoldModel
    base: ExtremalSpec
    delta: float
    eps: float

    def __post_init__(self):
        if self.base.n != self.model.dimension:
            raise DomainError(
                f"base profile dimension {self.base.n} does not match "
                f"manifold dimension {self.model.dimension}"
            )
        inj = self.model.injectivity_radius
        if not 0 < 2 * self.eps < self.delta < inj:
            raise DomainError(
                f"need 0 < 2*eps < delta < injectivity radius {inj:.6g}, "
                f"got eps={self.eps}, delta={self.delta}"
            )


@dataclass(frozen=True)
class BubbleIntegrals(Record):
    """Mass, entropy, and gradient integrals of one bubble.

    errors holds each integral's quadrature error estimate, cutoff the part
    of each integral that comes from the cutoff panel [delta/2, delta], and
    nodes the number of integrand evaluations the rule used.
    """

    mass_p: float
    entropy: float
    grad_p: float
    eps: float
    errors: dict
    cutoff: dict
    nodes: int


#: exp(-y) is exactly 0 in float64 for every y >= 746, so clipping y there
#: changes no node whose core has not underflowed, and keeps y finite
_LN_Y_DEAD = math.log(746.0)

#: the bubble integrands' relative rounding per unit of p': a node's
#: abscissa is rounded to half an ulp, and y = p b x^{p'} amplifies that
#: p'-fold.  Jittering every abscissa by up to half an ulp moved the
#: integrals by at most 4.2 eps p' (entropy at p = 2), 1.8 eps p' near
#: p = 1, with eps the machine epsilon
_ROUNDING = 4.0 * np.finfo(float).eps


def _bubble_quadrature(model: ManifoldModel, base: ExtremalSpec, delta: float,
                       eps: np.ndarray, n_nodes: int) -> tuple:
    """(integrals, error estimates, cutoff-panel parts, nodes used) of the
    (model, base, delta) bubbles at each eps of the array eps.

    The first three are (bubbles, 3) arrays over (mass, entropy, gradient),
    and nodes has one count per bubble.  With A = eps^{-n/p} a,
    x = r/eps and y = p b x^{p'}, the bubble is u = eta A e^{-y/p}, so
    where the cutoff eta is 1 (r <= delta/2)

        u^p = A^p e^{-y},   u^p ln u^p = u^p (p ln A - y),
        |u'|^p = A^p (b p'/eps)^p x^{p'} e^{-y}     (as (p' - 1) p = p'):

    one exp for y, taken of the node's ln x, and one for e^{-y} serve all
    three integrands, and a node where e^{-y} underflows adds exactly 0 to
    each.  Each integrand is weighted by the geodesic sphere area f(r)^{n-1}.

    The core panel [r_0, min(delta/2, r_dead)] is integrated in u = ln x by
    tanh-sinh, which clusters its nodes at the ends: near p = 1 the
    trapezoid rule in u, slowed by the panel end at r_dead (where e^{-y} is
    tiny on the real line but grows like e^{+y} a short way off it), needs
    4 097 to 8 193 nodes where tanh-sinh needs 1 793.  The head [0, r_0],
    where u is flat to (1e-7)^{p'}, adds the u-integrand at r_0 over n.
    The cutoff panel [delta/2, delta] is integrated in
    s = (r - delta/2)/(delta/2), with eta = (1 - s)^2 (1 + 2 s) taken from
    the rule's accurate 1 - s, against the scale of the core's integrals;
    its estimate is added to the core's.  Each panel's estimate is at least
    the rounding of its integrands, 4 eps p' times the integral of their
    absolute values (_ROUNDING), which the level difference cannot see:
    near p = 1 it is the estimate.  n_nodes caps the integrand
    evaluations of both panels and the head.  The radii lie in (0, delta],
    inside the injectivity radius by BubbleSpec's invariant, so the
    geodesic density is not checked here.

    Each panel is one call of the rule's member axis (profiles._tanh_sinh)
    over the bubbles, the eps-dependent constants one per bubble, so each
    pass of a level evaluates the panel of every bubble still running, and
    every bubble's integrals, estimates and nodes are those it gets alone.
    Nothing is raised here: a bubble that missed its cap reports more
    nodes than n_nodes, with the missing panel's last estimates, or the
    core's if the cutoff panel made none (nan if neither did); constants
    that leave the float range come out inf or nan.  _bubble_grid raises
    for both.
    """
    n, p, b, pp = model.dimension, base.p, base.b, base.shape_power
    ln_pb = math.log(p * b)
    # the constants of each bubble, each computed as for that bubble alone
    ln_amp = np.array([p * math.log(base.amplitude) - n * math.log(e) for e in eps])  # p ln A
    amp_p = sphere_area(n) * np.float64(base.amplitude) ** p
    mass_scale = np.array([amp_p * np.float64(e) ** -n for e in eps])
    grad_ratio = np.array([np.float64(b * pp / e) ** p / (p * b) for e in eps])

    def density(r: np.ndarray, ln_x: np.ndarray, m: np.ndarray) -> tuple:
        """y and the r-density omega A^p area^{n-1} e^{-y} of u^p where eta = 1,
        on the nodes (bubbles m, nodes)."""
        y = ln_x * pp
        y += ln_pb
        np.minimum(y, _LN_Y_DEAD, out=y)
        np.exp(y, out=y)
        area = model.warp(r)
        w = np.exp(-y)
        for _ in range(n - 1):
            w *= area
        w *= mass_scale[m, None]
        return y, w

    def core(ln_x: np.ndarray, m: np.ndarray) -> np.ndarray:
        """u-integrands ((mass, entropy, gradient), bubbles m, nodes) on the core panel."""
        r = np.exp(ln_x)
        r *= eps[m, None]
        y, mass = density(r, ln_x, m)
        mass *= r
        ent = (ln_amp[m, None] - y) * mass
        grad = mass * y
        grad *= grad_ratio[m, None]
        return np.array([mass, ent, grad])

    def cutoff(s: np.ndarray, c: np.ndarray, m: np.ndarray) -> np.ndarray:
        """s-integrands on the cutoff panel, c = 1 - s, as core's.

        u' = A e^{-y/p} (eta' - eta y / ((p - 1) r)), eta' = -6 s c / (delta/2).
        Every bubble's cutoff panel is s in [0, 1], so the rows of s and c
        are the same nodes, and what does not depend on eps is taken once.
        """
        s, c = s[0], c[0]
        r = (0.5 * delta) * (1.0 + s)
        y, w = density(r, np.log(r / eps[m, None]), m)
        eta = c * c * (1.0 + 2.0 * s)
        mass = w * eta**p
        ent = mass * (ln_amp[m, None] - y + p * (2.0 * np.log(c) + np.log1p(2.0 * s)))
        slope = -6.0 * s * c / (0.5 * delta) - eta * y / ((p - 1.0) * r)
        grad = w * np.abs(slope) ** p
        return 0.5 * delta * np.array([mass, ent, grad])

    ln_x0 = math.log(1e-7 * min(1.0, base.core_width))
    ln_half = np.array([math.log(0.5 * delta / e) for e in eps])
    ln_dead = (_LN_Y_DEAD - ln_pb) / pp
    rounding = _ROUNDING * pp
    head = core(np.full((len(eps), 1), ln_x0), np.arange(len(eps)))[:, :, 0].T / n
    sums, err, used = _tanh_sinh(lambda ln_x, _, m: core(ln_x, m), np.full(len(eps), ln_x0),
                                 np.minimum(ln_half, ln_dead), n_nodes - 1, rounding=rounding)
    used += 1
    cut, cut_err = np.zeros_like(sums), np.zeros_like(sums)
    # the cutoff panel of each bubble whose core kept within its cap, with
    # finite sums, and has not underflowed by delta/2
    run = np.flatnonzero((used <= n_nodes) & np.isfinite(sums).all(axis=1) & (ln_dead > ln_half))
    if run.size:
        cut[run], cut_err[run], k = _tanh_sinh(
            lambda s, c, m: cutoff(s, c, run[m]), np.zeros(run.size), np.ones(run.size),
            n_nodes - used[run], scale=np.abs(sums[run]), rounding=rounding)
        used[run] += k
    errors = err + cut_err
    missed = run[used[run] > n_nodes]
    errors[missed] = np.where(np.isnan(cut_err[missed]), err[missed], cut_err[missed])
    return head + sums + cut, errors, cut, used


def _bubble_grid(model: ManifoldModel, base: ExtremalSpec, delta: float, eps,
                 n_nodes: int) -> tuple:
    """(eps, integrals, errors, cutoff, nodes) of the bubbles at each eps.

    One _bubble_quadrature call integrates them all, and its arrays are
    returned as they are: one row per eps, in the order given, with
    columns (mass, entropy, gradient), and one node count per eps.  The
    first eps that fails raises, as it would one bubble at a time:
    AccuracyNotMet where the rule missed its cap, DomainError for
    integrals that leave the float range or a bubble whose core underflows
    at every node (zero mass), and DomainError for an invalid BubbleSpec,
    once every eps before it has passed these checks.  eps is not empty.
    """
    valid, invalid = [], None
    for e in eps:
        try:
            valid.append(BubbleSpec(model=model, base=base, delta=delta, eps=float(e)).eps)
        except DomainError as exc:
            invalid = exc
            break
    if not valid:
        raise invalid
    eps = np.array(valid)
    # constants outside the float range come out inf or nan, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        sums, errors, cut, nodes = _bubble_quadrature(model, base, delta, eps, n_nodes)
    for e, row, errs, used in zip(valid, sums, errors, nodes):
        if used > n_nodes:
            raise _missed(f"the bubble integrals at eps = {e}", n_nodes, errs)
        if not np.isfinite(row).all():
            raise DomainError(f"the bubble integrals at eps = {e} leave the float range")
        if not row[0] > 0:
            # the core eps^{-n/p} a exp(-b (r/eps)^{p'}) underflows at every node
            raise DomainError(f"the bubble at eps = {e}, b = {base.b} has no mass on its grid: "
                              f"its core underflows at every node")
    if invalid is not None:
        raise invalid
    return eps, sums, errors, cut, nodes


#: the columns of _bubble_grid's arrays, as BubbleIntegrals names them
_KEYS = ("mass_p", "entropy", "grad_p")


def bubble_integrals(spec: BubbleSpec, n_nodes: int = 200_000) -> BubbleIntegrals:
    """Mass, entropy, and gradient-energy integrals of the bubble.

    The two-panel rule of the module docstring and _bubble_quadrature, on
    a one-eps _bubble_grid.  n_nodes is the most integrand evaluations the
    rule may use; a bubble that needs more raises AccuracyNotMet.  errors
    holds the estimates, cutoff the cutoff panel's part of each integral,
    nodes the evaluations used.  Integrals that leave the float range, and
    a bubble whose core underflows at every node (zero mass), raise
    DomainError.
    """
    eps, sums, errors, cut, nodes = _bubble_grid(spec.model, spec.base, spec.delta,
                                                 [spec.eps], n_nodes)
    mass, ent, grad = sums[0].tolist()
    return BubbleIntegrals(mass_p=mass, entropy=ent, grad_p=grad, eps=float(eps[0]),
                           errors=dict(zip(_KEYS, errors[0].tolist())),
                           cutoff=dict(zip(_KEYS, cut[0].tolist())), nodes=int(nodes[0]))


#: the least relative uncertainty fit_expansion assigns a bubble integral:
#: the rounding of the integrals (within 2e-15 of an adaptive reference at
#: p = 2) and of the closed-form flat limits subtracted from them
_SIGMA_FLOOR = 4e-15


def _wls(x: np.ndarray, y: np.ndarray, sigma: np.ndarray) -> tuple:
    """Weighted least squares; returns (coefficients, standard errors)."""
    sigma = np.where(sigma > 0, sigma, np.max(sigma[sigma > 0], initial=1e-300))
    w = 1.0 / sigma
    a = x * w[:, None]
    b = y * w
    coef, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    resid = a @ coef - b
    dof = max(len(y) - x.shape[1], 1)
    scale = max(float(resid @ resid) / dof, 1.0)
    cov = np.linalg.inv(a.T @ a) * scale
    return coef, np.sqrt(np.diag(cov))


@dataclass(frozen=True)
class ExpansionReport(Record):
    """Fitted curvature coefficients of the bubble expansions vs closed forms."""

    fits: dict
    rows: tuple
    eps_window: tuple
    reference: dict
    warnings: tuple


def fit_expansion(model: ManifoldModel, p: float, b: float, delta: float,
                  eps_grid, n_nodes: int = 200_000) -> ExpansionReport:
    """Fit the eps^2 coefficients of the bubble expansions and compare.

    The mass and gradient series are fit as y = c2 eps^2 + c4 eps^4; the
    entropy series as y = c_log eps^2 ln(eps) + c2 eps^2 + c4 eps^4 ln(eps).
    Each point is weighted by 1/sigma, with sigma its quadrature error
    estimate plus the part of the integral from the cutoff panel
    [delta/2, delta], floored at 4e-15 of the integral.  The cutoff panel's
    part vanishes faster than any power of eps, so the series cannot
    represent it, and at the rule's 1e-13 accuracy it, not the quadrature,
    limits the wide bubbles.  n_nodes caps the nodes of each bubble
    (bubble_integrals).  Targets:

        mass c2 = -(R/(6n)) J1      grad c2 = -(R/(6n)) J2
        entropy c_log = (R/6) J1    entropy c2 = -(R/(6n)) J3

    The three series are fit from one table by one rule: each reports its
    leading coefficients (mass and grad c2, c4; entropy clog, c2), and each
    coefficient with a target also reports key_stderr, target_key and
    rel_dev_key, the deviation relative to the target, or absolute where
    the target is 0 (the flat torus).

    I1, I2 and J1-J3 are the flat extremal's closed forms
    (profiles._extremal_closed_forms, route one of extremal_integrals, with
    no oracle run); the fit checks them itself, I1 and I2 as the eps -> 0
    limits it subtracts and J1-J3 through rel_dev.  At least 4 distinct eps
    are required.
    """
    n = model.dimension
    base = extremal_spec(n, p, b)
    eps_arr = np.sort(np.asarray(list(eps_grid), dtype=float))
    # the entropy series has three coefficients: with fewer than four
    # distinct eps its design is singular or leaves no residual
    if len(np.unique(eps_arr)) < 4:
        raise DomainError("need at least 4 distinct epsilon values to fit the expansions")
    warnings = []
    if eps_arr[-1] / eps_arr[0] < math.sqrt(10.0):
        warnings.append(
            "epsilon window spans less than half a decade; "
            "fitted coefficients are poorly separated"
        )

    flat = _extremal_closed_forms(base)
    i1, i2 = flat["entropy"], flat["grad_energy"]
    j1, j2, j3 = flat["mass_moment2"], flat["grad_moment2"], flat["entropy_moment2"]
    curv = model.scalar_curvature

    eps_rows, values, errors, cut, _ = _bubble_grid(model, base, delta, eps_arr, n_nodes)
    rows = [{"eps": e, **dict(zip(_KEYS, v)), **{f"err_{k}": x for k, x in zip(_KEYS, er)}}
            for e, v, er in zip(eps_rows.tolist(), values.tolist(), errors.tolist())]
    # the cutoff panel's share is a beyond-all-orders effect of the
    # cutoff that the series in eps^2 cannot represent
    sigmas = np.maximum(errors + np.abs(cut), _SIGMA_FLOOR * np.abs(values))
    (mass, ent, grad), (s_mass, s_ent, s_grad) = values.T, sigmas.T

    eps2 = eps_arr**2
    ln_e = np.log(eps_arr)
    design2 = np.column_stack([eps2, eps2**2])
    # one row per series: its values less their flat limit, their
    # uncertainties sigma, the design columns, the names of the leading coefficients
    # to report, and the closed-form targets of those that have one
    series = {
        "mass": (mass - 1.0, s_mass, design2, ("c2", "c4"), {"c2": -(curv / (6 * n)) * j1}),
        "grad": (grad * eps_arr**p - i2, s_grad * eps_arr**p,
                 design2, ("c2", "c4"), {"c2": -(curv / (6 * n)) * j2}),
        "entropy": (ent - i1 + n * ln_e, s_ent,
                    np.column_stack([eps2 * ln_e, eps2, eps2**2 * ln_e]),
                    ("clog", "c2"), {"clog": (curv / 6) * j1, "c2": -(curv / (6 * n)) * j3}),
    }

    fits = {}
    for name, (y, sigma, design, names, targets) in series.items():
        coef, err = _wls(design, y, sigma)
        fit = fits[name] = {}
        for c, s, key in zip(coef, err, names):
            fit[key] = float(c)
            if key in targets:
                t = targets[key]
                fit[f"{key}_stderr"] = float(s)
                fit[f"target_{key}"] = t
                fit[f"rel_dev_{key}"] = float(abs(c - t) / abs(t) if t != 0 else abs(c))

    return ExpansionReport(
        fits=fits,
        rows=tuple(rows),
        eps_window=(float(eps_arr[0]), float(eps_arr[-1])),
        reference={"entropy": i1, "grad": i2, "j1": j1, "j2": j2, "j3": j3,
                   "scalar_curvature": curv},
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class WitnessReport(Record):
    """Bubble scan showing whether a candidate entropy inequality fails."""

    violated: bool
    eps_star: float
    margin: float
    asymptote: float
    rows: tuple


def lower_bound_witness(model: ManifoldModel, p: float, a_const: float, b_const: float,
                        eps_grid, b: float = 1.0, delta: float = None,
                        n_nodes: int = 200_000) -> WitnessReport:
    """Test the candidate manifold entropy inequality with constants (A, B).

    For each bubble the normalized form of the inequality reads

        Ent(u)/m + (n/p - 1) ln(m)  <=  (n/p) ln( A grad + B m ),

    with m, Ent, grad the bubble integrals.  margin = LHS - RHS, so a
    positive margin is a violation.  If A is below the sharp constant the
    margin tends to (n/p) ln(sharp/A) > 0 as eps -> 0; eps_star is the
    largest grid epsilon that already violates (nan if none does).
    """
    n = model.dimension
    if not 1 < p < n:
        raise DomainError(f"require 1 < p < n, got p={p}, n={n}")
    if not (0 < a_const < math.inf and 0 <= b_const < math.inf):
        raise DomainError(f"need finite A > 0 and B >= 0, got ({a_const}, {b_const})")
    if delta is None:
        delta = 0.5 * model.injectivity_radius
    base = extremal_spec(n, p, b)
    eps_arr = np.sort(np.asarray(list(eps_grid), dtype=float))[::-1]
    if len(eps_arr) == 0:
        raise DomainError("need at least one epsilon value to scan")
    rows = []
    eps_star = math.nan
    eps_rows, values, _, _, _ = _bubble_grid(model, base, delta, eps_arr, n_nodes)
    for eps, (mass, ent, grad) in zip(eps_rows.tolist(), values.tolist()):
        lhs = ent / mass + (n / p - 1.0) * math.log(mass)
        rhs = (n / p) * math.log(a_const * grad + b_const * mass)
        margin = lhs - rhs
        if margin > 0 and math.isnan(eps_star):
            eps_star = eps
        rows.append({"eps": eps, "lhs": lhs, "rhs": rhs, "margin": margin})
    sharp = entropy_best_constant(n, p)
    return WitnessReport(
        violated=not math.isnan(eps_star),
        eps_star=eps_star,
        margin=rows[-1]["margin"],
        asymptote=(n / p) * (math.log(sharp) - math.log(a_const)),
        rows=tuple(rows),
    )

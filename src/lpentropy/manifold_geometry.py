"""Geodesic bubbles on model manifolds and their small-scale expansions.

A bubble is a cut-off, rescaled copy of the Euclidean extremal profile
planted at a point of a round sphere or a flat torus:

    u_eps(r) = eta(r) * eps^{-n/p} * u0(r / eps),

with r the geodesic distance and eta a C^1 cutoff.  As eps -> 0 the mass,
entropy, and gradient integrals admit expansions whose eps^2 coefficients
are controlled by the scalar curvature R:

    mass    = 1 - (R/(6n)) J1 eps^2 + O(eps^4)
    entropy = I1 - n ln(eps) + (R/6) J1 eps^2 ln(eps) - (R/(6n)) J3 eps^2 + ...
    grad    = eps^{-p} ( I2 - (R/(6n)) J2 eps^2 + O(eps^4) )

where I1, I2 are the flat entropy and gradient integrals of u0 and the
J's are its second moments.  `fit_expansion` recovers the curvature
coefficients numerically and compares them with those closed forms;
`lower_bound_witness` uses the same bubbles to exhibit violations of an
entropy inequality whose leading constant A is below the sharp one.

The bubble integrals are trapezoid sums in r on a geometric grid from
r_0 = eps*1e-7*min(1, b^{-1/p'}) to delta, with the head [0, r_0]
integrated analytically; starting at a fixed fraction of the core width
eps*b^{-1/p'} resolves the core whatever b is.  They are summed in blocks
of 8 192 nodes by profiles._blocked_sums in one fused pass per block: the
block's nodes are generated from ln r, its trapezoid weights are closed
forms of r, and two exponentials per node give all three integrands, so no
array the size of the grid, the grid included, is ever held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import entropy_best_constant
from .errors import AccuracyNotMet, DomainError, Record
from .profiles import ExtremalSpec, _blocked_sums, extremal_integrals, extremal_spec
from .special_fn import sphere_area

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

_MIN_NODES_PER_DECADE = 50


@dataclass(frozen=True)
class ManifoldModel:
    """Round sphere of a given radius or flat cubic torus of a given side."""

    kind: str
    dimension: int
    scale: float

    def __post_init__(self):
        if self.kind not in ("sphere", "torus"):
            raise DomainError(f"unknown manifold kind {self.kind!r}")
        if int(self.dimension) != self.dimension or self.dimension < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.dimension}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "dimension", int(self.dimension))

    @classmethod
    def sphere(cls, dimension: int, radius: float = 1.0) -> "ManifoldModel":
        return cls(kind="sphere", dimension=dimension, scale=radius)

    @classmethod
    def torus(cls, dimension: int, side: float = 1.0) -> "ManifoldModel":
        return cls(kind="torus", dimension=dimension, scale=side)

    @property
    def scalar_curvature(self) -> float:
        n = self.dimension
        if self.kind == "sphere":
            return n * (n - 1) / self.scale**2
        return 0.0

    @property
    def volume(self) -> float:
        n = self.dimension
        if self.kind == "sphere":
            return sphere_area(n + 1) * self.scale**n
        return self.scale**n

    @property
    def injectivity_radius(self) -> float:
        if self.kind == "sphere":
            return math.pi * self.scale
        return self.scale / 2.0


def geodesic_density(model: ManifoldModel, r) -> np.ndarray:
    """Jacobian of the exponential map: geodesic sphere area = area(S^{n-1}) r^{n-1} * density.

    Only valid strictly inside the injectivity radius.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= model.injectivity_radius * (1 + 1e-12)):
        raise DomainError(
            f"geodesic radius must lie in [0, {model.injectivity_radius:.6g})"
        )
    if model.kind == "torus":
        return np.ones_like(r)
    x = r / model.scale
    safe = np.where(x > 0, x, 1.0)
    return np.where(x > 0, (np.sin(safe) / safe) ** (model.dimension - 1), 1.0)


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


def _cutoff(r: np.ndarray, delta: float) -> np.ndarray:
    """C^1 cubic cutoff: 1 on [0, delta/2], 0 at delta, monotone between."""
    s = np.clip((r - delta / 2.0) / (delta / 2.0), 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def _cutoff_derivative(r: np.ndarray, delta: float) -> np.ndarray:
    s = (r - delta / 2.0) / (delta / 2.0)
    inside = (s > 0.0) & (s < 1.0)
    out = np.zeros_like(r)
    out[inside] = -6.0 * s[inside] * (1.0 - s[inside]) / (delta / 2.0)
    return out


@dataclass(frozen=True)
class BubbleIntegrals(Record):
    """Mass, entropy, and gradient integrals of one bubble, with error estimates."""

    mass_p: float
    entropy: float
    grad_p: float
    eps: float
    errors: dict


#: exp(-y) is exactly 0 in float64 for every y >= 746, so clipping y there
#: changes no node whose core has not underflowed, and keeps y finite
_LN_Y_DEAD = math.log(746.0)


def _bubble_quadrature(spec: BubbleSpec, n_nodes: int) -> tuple:
    """(mass, entropy, gradient) sums of the bubble on its geometric grid.

    The rule is the trapezoid rule in r on the n_nodes nodes r_j = r_0 e^{js}
    from r_0 = eps*x_0 to delta, x_0 = 1e-7 * min(1, core width), with the
    head [0, r_0] integrated analytically into the first node, each node
    weighted by the geodesic sphere area.  Each block's nodes are generated
    from their logarithms, r_j = eps exp(ln x_0 + j s), with both endpoints
    set exactly, so no grid-sized array exists.  An interior node's
    trapezoid weight (r_{j+1} - r_{j-1})/2 is r_j sinh(s); the first node's
    is r_0 (e^s - 1)/2 + r_0/n, the last node's delta (1 - e^{-s})/2.

    With A = eps^{-n/p} a, x = r/eps and y = p b x^{p'}, the bubble is
    u = eta A e^{-y/p}, so where the cutoff eta is 1 (r <= delta/2)

        u^p = A^p e^{-y},   u^p ln u^p = u^p (p ln A - y),
        |u'|^p = A^p (b p'/eps)^p x^{p'} e^{-y}     (as (p' - 1) p = p'):

    one exp for y, taken of the node's ln x, and one for e^{-y} serve all
    three integrands, and a node where e^{-y} underflows adds exactly 0 to
    each.  eta and eta' are applied only to the nodes with r > delta/2.
    The radii lie in (0, delta], inside the injectivity radius by
    BubbleSpec's invariant, so the geodesic density is not checked here.
    Constants that leave the float range come out inf or nan, which
    bubble_integrals rejects.
    """
    model, base, eps, delta = spec.model, spec.base, spec.eps, spec.delta
    n, p, b, pp = model.dimension, base.p, base.b, base.shape_power
    # the nodes in x = r/eps run from x0 to delta/eps; every node quantity
    # is computed from the same ln x, so the rounding of a constant in it
    # moves the nodes, not the rule
    x0 = 1e-7 * min(1.0, base.core_width)
    ln_x0 = math.log(x0)
    step = (math.log(delta / eps) - ln_x0) / (n_nodes - 1)
    sinh = math.sinh(step)
    first = (math.expm1(step) / 2 + 1.0 / n) / sinh
    last = -math.expm1(-step) / 2 / sinh
    ln_pb = math.log(p * b)
    ln_amp = p * math.log(base.amplitude) - n * math.log(eps)  # p ln A
    mass_scale = sphere_area(n) * sinh * np.float64(base.amplitude) ** p * np.float64(eps) ** -n
    grad_scale = mass_scale * np.float64(b * pp / eps) ** p / (p * b)
    rho = model.scale if model.kind == "sphere" else None

    def terms(lo: int, hi: int) -> tuple:
        ln_x = np.arange(lo, hi, dtype=float)
        ln_x *= step
        ln_x += ln_x0
        r = np.exp(ln_x)
        r *= eps
        if lo == 0:
            r[0] = eps * x0
        if hi == n_nodes:
            r[-1] = delta
        y = ln_x
        y *= pp
        y += ln_pb
        np.minimum(y, _LN_Y_DEAD, out=y)
        np.exp(y, out=y)
        # w: the trapezoid weight over sinh(s), times the geodesic sphere
        # area over omega_{n-1}, times e^{-y}
        if rho is None:
            area = r
        else:
            area = r / rho
            np.sin(area, out=area)
            area *= rho
        w = r * area
        for _ in range(n - 2):
            w *= area
        decay = np.negative(y)
        w *= np.exp(decay, out=decay)
        if lo == 0:
            w[0] *= first
        if hi == n_nodes:
            w[-1] *= last
        mass = w * mass_scale
        ent = ln_amp - y
        ent *= mass
        grad = w * y
        grad *= grad_scale
        # the cutoff, on the nodes past delta/2 only
        k = int(np.searchsorted(r, 0.5 * delta, side="right"))
        if k < len(r):
            rs, ys, ws = r[k:], y[k:], w[k:]
            eta = _cutoff(rs, delta)
            mass[k:] *= eta**p
            # eta = 0 only where mass is 0, so ln eta is taken as 0 there
            ln_eta = np.log(eta, out=np.zeros_like(eta), where=eta > 0)
            ent[k:] = mass[k:] * (ln_amp - ys + p * ln_eta)
            # u' = A e^{-y/p} (eta' - eta y / ((p - 1) r))
            slope = _cutoff_derivative(rs, delta) - eta * ys / ((p - 1.0) * rs)
            grad[k:] = mass_scale * ws * np.abs(slope) ** p
        return mass, ent, grad

    return _blocked_sums(n_nodes, terms)


def bubble_integrals(spec: BubbleSpec, n_nodes: int = 200_000,
                     error_estimate: bool = True) -> BubbleIntegrals:
    """Mass, entropy, and gradient-energy integrals of the bubble.

    Uses a geometric grid from eps*1e-7*min(1, core width) to delta,
    generated and summed in blocks of 8 192 nodes; at least 50 nodes per
    decade are required.  When error_estimate is set, each integral is
    recomputed on a fresh grid of half as many nodes and the difference is
    reported as a per-integral error estimate (the quadrature is second
    order, so this overestimates the fine-grid error by roughly a factor 3).
    Integrals that leave the float range, and a bubble whose core underflows
    at every node (zero mass), raise DomainError.
    """
    decades = math.log10(spec.delta / (spec.eps * 1e-7 * min(1.0, spec.base.core_width)))
    if n_nodes < _MIN_NODES_PER_DECADE * decades:
        raise AccuracyNotMet(
            f"grid of {n_nodes} nodes under-resolves {decades:.1f} decades; "
            f"need at least {int(_MIN_NODES_PER_DECADE * decades) + 1}"
        )
    # constants outside the float range come out inf or nan, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        mass, ent, grad = _bubble_quadrature(spec, n_nodes)
        errors = {}
        if error_estimate:
            m2, e2, g2 = _bubble_quadrature(spec, n_nodes // 2)
            errors = {
                "mass_p": abs(mass - m2),
                "entropy": abs(ent - e2),
                "grad_p": abs(grad - g2),
            }
    if not all(map(math.isfinite, (mass, ent, grad, *errors.values()))):
        raise DomainError(f"the bubble integrals at eps = {spec.eps} leave the float range")
    if not mass > 0:
        # the core eps^{-n/p} a exp(-b (r/eps)^{p'}) underflows at every node
        raise DomainError(
            f"the bubble at eps = {spec.eps}, b = {spec.base.b} has no mass on its grid: "
            f"its core underflows at every node"
        )
    return BubbleIntegrals(mass_p=mass, entropy=ent, grad_p=grad, eps=spec.eps, errors=errors)


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
    Fits are weighted by per-point quadrature error estimates.  Targets:

        mass c2 = -(R/(6n)) J1      grad c2 = -(R/(6n)) J2
        entropy c_log = (R/6) J1    entropy c2 = -(R/(6n)) J3

    The three series are fit from one table by one rule: each reports its
    leading coefficients (mass and grad c2, c4; entropy clog, c2), and each
    coefficient with a target also reports key_stderr, target_key and
    rel_dev_key, the deviation relative to the target, or absolute where
    the target is 0 (the flat torus).
    """
    n = model.dimension
    base = extremal_spec(n, p, b)
    eps_arr = np.sort(np.asarray(list(eps_grid), dtype=float))
    if len(eps_arr) < 4:
        raise DomainError("need at least 4 epsilon values to fit the expansions")
    warnings = []
    if eps_arr[-1] / eps_arr[0] < math.sqrt(10.0):
        warnings.append(
            "epsilon window spans less than half a decade; "
            "fitted coefficients are poorly separated"
        )

    flat = extremal_integrals(n, p, b)
    i1, i2 = flat.entropy, flat.grad_energy
    j1, j2, j3 = flat.mass_moment2, flat.grad_moment2, flat.entropy_moment2
    curv = model.scalar_curvature

    rows = []
    for e in eps_arr:
        spec = BubbleSpec(model=model, base=base, delta=delta, eps=float(e))
        bi = bubble_integrals(spec, n_nodes=n_nodes, error_estimate=True)
        rows.append(
            {
                "eps": float(e),
                "mass_p": bi.mass_p,
                "entropy": bi.entropy,
                "grad_p": bi.grad_p,
                **{f"err_{k}": v for k, v in bi.errors.items()},
            }
        )

    def column(key: str) -> np.ndarray:
        return np.array([r[key] for r in rows])

    eps2 = eps_arr**2
    ln_e = np.log(eps_arr)
    design2 = np.column_stack([eps2, eps2**2])
    # one row per series: its values less their flat limit, their error
    # estimates, the design columns, the names of the leading coefficients
    # to report, and the closed-form targets of those that have one
    series = {
        "mass": (column("mass_p") - 1.0, column("err_mass_p"), design2,
                 ("c2", "c4"), {"c2": -(curv / (6 * n)) * j1}),
        "grad": (column("grad_p") * eps_arr**p - i2, column("err_grad_p") * eps_arr**p,
                 design2, ("c2", "c4"), {"c2": -(curv / (6 * n)) * j2}),
        "entropy": (column("entropy") - i1 + n * ln_e, column("err_entropy"),
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
                fit[f"rel_dev_{key}"] = abs(c - t) / abs(t) if t != 0 else abs(c)

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
    for e in eps_arr:
        spec = BubbleSpec(model=model, base=base, delta=delta, eps=float(e))
        bi = bubble_integrals(spec, n_nodes=n_nodes, error_estimate=False)
        lhs = bi.entropy / bi.mass_p + (n / p - 1.0) * math.log(bi.mass_p)
        rhs = (n / p) * math.log(a_const * bi.grad_p + b_const * bi.mass_p)
        margin = lhs - rhs
        if margin > 0 and math.isnan(eps_star):
            eps_star = float(e)
        rows.append({"eps": float(e), "lhs": lhs, "rhs": rhs, "margin": margin})
    sharp = entropy_best_constant(n, p)
    return WitnessReport(
        violated=not math.isnan(eps_star),
        eps_star=eps_star,
        margin=rows[-1]["margin"],
        asymptote=(n / p) * math.log(sharp / a_const),
        rows=tuple(rows),
    )

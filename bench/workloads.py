"""The three benchmark workloads: seeded inputs, library calls, output checks.

Every workload is a closed loop with one client, one process and one
thread.  Its inputs come in cycles; cycle `i` of seed `s` is drawn from
`random.Random(f"{workload}:{s}:{i}")`, so the same seed always yields the
same inputs however long a run lasts.  The order of calls inside a cycle is
fixed; only parameters are drawn, so every run has the same mix of calls.

Library calls go through module attributes (`lib("profiles").extremal_integrals`,
not a bound name), so the tracer's wrappers see them.  Library modules are
imported on first use, so that the set-up probe, which imports this module,
imports no library module the workload does not call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass, replace

import numpy as np

import checks


def lib(module: str):
    """The library module `lpentropy.<module>`, imported on first use."""
    return importlib.import_module(f"lpentropy.{module}")


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  FULL is the benchmark, WARMUP the warm-up call, TINY the smoke tests."""

    extremal_nodes: int = 800_000
    profile_nodes: int = 200_000
    gn_nodes: int = 4000
    ascent_iters: int = 250
    bubble_nodes: int = 200_000
    manifold_nodes: int = 600
    descent_iters: int = 1000
    reference_iters: int = 60_000


FULL = Sizes()
# the warm-up touches full-size arrays, so the allocator has settled before
# timing starts, but runs few iterations
WARMUP = replace(FULL, ascent_iters=10, descent_iters=20, reference_iters=20)
# extremal_integrals keeps 800k nodes: below ~300k its own two-route check
# (1e-8) raises
TINY = replace(WARMUP, profile_nodes=20_000, gn_nodes=500, bubble_nodes=5_000,
               manifold_nodes=64)


@dataclass(frozen=True)
class Call:
    kind: str
    params: dict


# (n, p) pairs of criteria 02 to 04
PAIRS = ((3, 1.5), (3, 2.0), (4, 2.0))
# geometries of criterion 08: (model, scale, delta)
BUBBLE_MODELS = {"sphere": (1.0, 1.0), "torus": (2.0, 0.9)}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list:
    """k draws, one from each of k equal slices of [lo, hi), in seeded order."""
    order = list(range(k))
    rng.shuffle(order)
    return [lo + (hi - lo) * (i + rng.random()) / k for i in order]


def _limit_qs(rng: random.Random) -> list:
    # well-separated q values, so the shrinking gap of criterion 06 is resolved
    return [rng.uniform(1.6, 1.7), rng.uniform(1.8, 1.85), rng.uniform(1.95, 1.99)]


def _bakry_params(rng: random.Random) -> dict:
    # the sampling of criterion 11
    n = rng.randint(1, 5)
    a = rng.uniform(0.05, 2.0)
    b = rng.uniform(0.0, 2.0)
    return {"n": n, "A": a, "B": b,
            "lambda": b / (4.0 * a) * 1.05 + math.exp(rng.uniform(-2.0, 2.0))}


def _heat_params(rng: random.Random) -> dict:
    return {"n": rng.randint(1, 3), "scale": rng.uniform(1.0, 8.0),
            "t": _log_uniform(rng, 1e-3, 1.0)}


def _witness_params(rng: random.Random, below: bool) -> dict:
    model = rng.choice(sorted(BUBBLE_MODELS))
    factor = rng.uniform(0.8, 0.9) if below else 1.0
    return {"model": model, "scale": BUBBLE_MODELS[model][0], "n": 3, "p": 2.0,
            "a_const": factor * checks.entropy_constant(3, 2.0), "b_const": 1.0}


def _model(kind: str, n: int, scale: float):
    if kind == "sphere":
        return lib("manifold_geometry").ManifoldModel.sphere(n, scale)
    return lib("manifold_geometry").ManifoldModel.torus(n, scale)


class Workload:
    name = ""
    #: lpentropy modules a user of this workload imports (the set-up probe
    #: of cli_cold imports lpentropy.cli and runs WARMUP_CALL instead)
    modules: tuple = ()
    #: scale each in-process call by the calibration kernels run around it,
    #: not by the run's median kernel (see harness.Calibration)
    calibrate_per_call = False

    def cycle(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def cycles(self, seed: int):
        """Endless stream of cycles of calls."""
        index = 0
        while True:
            yield self.cycle(seed, index)
            index += 1

    def references(self) -> list:
        """Fixed calls run once per run after the timed window."""
        return []

    def execute(self, call: Call, sizes: Sizes):
        """The timed part: one library call on prepared inputs."""
        raise NotImplementedError

    def output(self, call: Call, raw) -> dict:
        """Plain-data form of a call's result, for the checks."""
        raise NotImplementedError

    def check(self, call: Call, out: dict) -> list:
        raise NotImplementedError

    def must_converge(self, call: Call) -> bool:
        """Whether a convergence check of this call can fail it, like an identity."""
        return False

    def warmup(self) -> None:
        for call in self.cycle(0, 0):
            self.execute(call, WARMUP)


# ---------------------------------------------------------------------------


#: subcommand, fixed flags and size flags of each CLI call kind
CLI_KINDS = {
    "constants": ("constants", [], {}),
    "extremal": ("extremal", [], {}),
    "deficit": ("deficit", ["--pde-residual"], {"--n-nodes": "profile_nodes"}),
    "gn-estimate": ("gn-estimate", [], {"--n-nodes": "gn_nodes", "--ascent-iters": "ascent_iters"}),
    "gn-limit": ("gn-limit", [], {"--n-nodes": "gn_nodes", "--ascent-iters": "ascent_iters"}),
    "bubble": ("bubble", [], {"--n-nodes": "bubble_nodes"}),
    "witness": ("witness", ["--expect", "violation"], {"--n-nodes": "bubble_nodes"}),
    "hc-lambda": ("hc", [], {}),
    "hc-t-grid": ("hc", [], {}),
    "heat-norm": ("heat-norm", [], {}),
}


class CliCold(Workload):
    name = "cli_cold"

    def cycle(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        n_c = rng.randint(3, 6)
        n_x, p_x = rng.choice(PAIRS)
        n_d, p_d = rng.choice(PAIRS)
        bubble = rng.choice(sorted(BUBBLE_MODELS))
        e0 = rng.uniform(0.008, 0.012)
        witness = _witness_params(rng, below=True)
        n_u = rng.randint(2, 4)
        return [
            Call("constants", {"n": n_c, "p": 2.0, "q": rng.uniform(1.2, 1.9),
                               "r": rng.uniform(2.0, 2.9)}),
            Call("extremal", {"n": n_x, "p": p_x, "b": rng.uniform(0.5, 2.0)}),
            Call("deficit", {"n": n_d, "p": p_d, "b": rng.uniform(0.5, 2.0)}),
            Call("gn-estimate", {"n": 3, "p": 2.0, "q": rng.uniform(1.7, 1.99), "r": 2.0}),
            Call("gn-limit", {"n": 3, "p": 2.0, "q_list": _limit_qs(rng)}),
            Call("bubble", {"model": bubble, "n": 3, "p": 2.0, "b": rng.uniform(0.8, 1.25),
                            "scale": BUBBLE_MODELS[bubble][0],
                            "delta": BUBBLE_MODELS[bubble][1],
                            "eps_grid": [e0 * 2.0**k for k in range(4)]}),
            Call("witness", dict(witness, eps_grid=[0.02, rng.uniform(0.04, 0.06),
                                                    rng.uniform(0.08, 0.12)])),
            Call("hc-lambda", _bakry_params(rng)),
            Call("hc-t-grid", {"n": n_u, "A": checks.entropy_constant(n_u, 2.0), "B": 1.0,
                               "t_grid": sorted(_log_uniform(rng, 1e-3, 0.05)
                                                for _ in range(4))}),
            Call("heat-norm", _heat_params(rng)),
        ]

    def argv(self, call: Call, sizes: Sizes) -> list:
        """One flag per parameter; size flags only where they differ from FULL."""
        command, fixed, sized = CLI_KINDS[call.kind]
        out = [command]
        for name, value in call.params.items():
            if isinstance(value, list):
                text = ",".join(repr(float(x)) for x in value)
            else:
                text = value if isinstance(value, str) else repr(value)
            out += ["--" + name.replace("_", "-"), text]
        for flag, field in sized.items():
            if getattr(sizes, field) != getattr(FULL, field):
                out += [flag, str(getattr(sizes, field))]
        return out + fixed

    def execute(self, call: Call, sizes: Sizes) -> str:
        """In-process form of the call (traced runs only): cli.main with captured stdout."""
        from lpentropy import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(call, sizes))
        if code != 0:
            raise RuntimeError(f"lpentropy {call.kind} exited with {code}")
        return buf.getvalue()

    def output(self, call: Call, raw: str) -> dict:
        return json.loads(raw)["result"]

    def check(self, call: Call, out: dict) -> list:
        k, a = call.kind, call.params
        if k == "constants":
            return checks.constants(a["n"], a["p"], a["q"], a["r"], out)
        if k == "extremal":
            return checks.extremal(a["n"], a["p"], out["integrals"])
        if k == "deficit":
            return (checks.extremal_deficit(out["deficit"])
                    + checks.pde_residual(out["pde_residual"]["residual"]))
        if k == "gn-estimate":
            return [checks.gn_ceiling(a["n"], a["p"], out["value"])]
        if k == "gn-limit":
            return checks.limit_rows(a["n"], a["p"], out["rows"])
        if k == "bubble":
            return checks.bubble(a["model"], out["fits"])
        if k == "witness":
            return checks.witness(a["n"], a["p"], a["a_const"], out)
        if k == "hc-lambda":
            return checks.bakry(out)
        if k == "hc-t-grid":
            return checks.ultracontractivity(out)
        if k == "heat-norm":
            return (checks.heat_norm(a["n"], a["scale"], a["t"], out["value"])
                    + [checks.flag("heat.flat_torus_needs_no_B", out["curvature_bound_B"] == 0.0)])
        raise ValueError(f"unknown call kind {k!r}")


    #: what the set-up probe runs after importing lpentropy.cli
    WARMUP_CALL = Call("constants", {"n": 3, "p": 2.0, "q": 1.5, "r": 2.0})

    def warmup(self) -> None:
        self.execute(self.WARMUP_CALL, FULL)


# ---------------------------------------------------------------------------


class RadialQuadrature(Workload):
    name = "radial_quadrature"
    modules = ("lpentropy.profiles", "lpentropy.euclidean_inequalities",
               "lpentropy.gn_estimator", "lpentropy.manifold_geometry",
               "lpentropy.hypercontractivity")

    def cycle(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        # the (n, p) pairs differ in cost; taken in turn rather than drawn,
        # every run has the same share of each, and the median latency,
        # which falls among these calls, does not move with the seed
        n_x, p_x = PAIRS[index % 3]
        n_d, p_d = PAIRS[(index + 1) % 3]
        n_r, p_r = PAIRS[(index + 2) % 3]

        def bubble(model):
            e0 = rng.uniform(0.008, 0.012)
            return {"model": model, "n": 3, "p": 2.0, "b": rng.uniform(0.8, 1.25),
                    "scale": BUBBLE_MODELS[model][0], "delta": BUBBLE_MODELS[model][1],
                    "eps_grid": list(np.geomspace(e0, 10.0 * e0, 8))}

        n_u = rng.randint(2, 4)
        eps_witness = list(np.geomspace(0.02, 0.2, 6))
        return [
            Call("extremal_integrals", {"n": n_x, "p": p_x, "b": rng.uniform(0.5, 2.0)}),
            Call("entropy_deficit", {"n": n_d, "p": p_d, "profile_seed": rng.getrandbits(32)}),
            Call("fit_expansion", bubble("sphere")),
            Call("bakry_integrals", _bakry_params(rng)),
            Call("estimate_gn_constant", {"n": 3, "p": 2.0, "q": rng.uniform(1.7, 1.99), "r": 2.0}),
            Call("limit_pde_residual", {"n": n_r, "p": p_r, "profile_seed": rng.getrandbits(32)}),
            Call("fit_expansion", bubble("torus")),
            Call("ultracontractivity_check", {
                "n": n_u, "A": checks.entropy_constant(n_u, 2.0), "B": 1.0,
                "t_grid": list(np.geomspace(_log_uniform(rng, 5e-4, 2e-3),
                                            rng.uniform(0.05, 0.1), 8))}),
            Call("limit_scan", {"n": 3, "p": 2.0, "q_list": _limit_qs(rng)}),
            Call("lower_bound_witness", dict(_witness_params(rng, below=True), eps_grid=eps_witness)),
            Call("torus_heat_norm", _heat_params(rng)),
            Call("lower_bound_witness", dict(_witness_params(rng, below=False), eps_grid=eps_witness)),
        ]

    def execute(self, call: Call, sizes: Sizes):
        k, a = call.kind, call.params
        if k == "extremal_integrals":
            return lib("profiles").extremal_integrals(a["n"], a["p"], a["b"],
                                                      n_nodes=sizes.extremal_nodes)
        if k in ("entropy_deficit", "limit_pde_residual"):
            u = lib("profiles").random_stretched_mixture(
                a["n"], np.random.default_rng(a["profile_seed"]), n_nodes=sizes.profile_nodes)
            if k == "entropy_deficit":
                return lib("euclidean_inequalities").entropy_deficit(u, a["p"])
            return lib("euclidean_inequalities").limit_pde_residual(u, a["p"])
        if k == "estimate_gn_constant":
            params = lib("constants").InequalityParams(n=a["n"], p=a["p"], q=a["q"], r=a["r"])
            return lib("gn_estimator").estimate_gn_constant(params, n_nodes=sizes.gn_nodes,
                                                            ascent_iters=sizes.ascent_iters)
        if k == "limit_scan":
            return lib("gn_estimator").limit_scan(a["n"], a["p"], a["q_list"],
                                                  n_nodes=sizes.gn_nodes,
                                                  ascent_iters=sizes.ascent_iters)
        if k == "fit_expansion":
            return lib("manifold_geometry").fit_expansion(
                _model(a["model"], a["n"], a["scale"]), a["p"], a["b"], delta=a["delta"],
                eps_grid=a["eps_grid"], n_nodes=sizes.bubble_nodes)
        if k == "lower_bound_witness":
            return lib("manifold_geometry").lower_bound_witness(
                _model(a["model"], a["n"], a["scale"]), a["p"], a["a_const"], a["b_const"],
                eps_grid=a["eps_grid"], n_nodes=sizes.bubble_nodes)
        if k == "bakry_integrals":
            return lib("hypercontractivity").bakry_integrals(a["n"], a["A"], a["B"], a["lambda"])
        if k == "ultracontractivity_check":
            return lib("hypercontractivity").ultracontractivity_check(a["n"], a["A"], a["B"],
                                                                      a["t_grid"])
        if k == "torus_heat_norm":
            return lib("hypercontractivity").torus_heat_norm(a["n"], a["scale"], a["t"])
        raise ValueError(f"unknown call kind {k!r}")

    def output(self, call: Call, raw) -> dict:
        if call.kind == "entropy_deficit":
            return {"deficit": raw}
        if call.kind == "limit_scan":
            return {"rows": [dict(r) for r in raw]}
        return raw.as_dict()

    def check(self, call: Call, out: dict) -> list:
        k, a = call.kind, call.params
        if k == "extremal_integrals":
            return checks.extremal(a["n"], a["p"], out)
        if k == "entropy_deficit":
            return checks.mixture_deficit(out["deficit"])
        if k == "limit_pde_residual":
            return checks.pde_residual(out["residual"])
        if k == "estimate_gn_constant":
            return [checks.gn_ceiling(a["n"], a["p"], out["value"])]
        if k == "limit_scan":
            return checks.limit_rows(a["n"], a["p"], out["rows"])
        if k == "fit_expansion":
            return checks.bubble(a["model"], out["fits"])
        if k == "lower_bound_witness":
            return checks.witness(a["n"], a["p"], a["a_const"], out)
        if k == "bakry_integrals":
            return checks.bakry(out)
        if k == "ultracontractivity_check":
            return checks.ultracontractivity(out)
        if k == "torus_heat_norm":
            return checks.heat_norm(a["n"], a["scale"], a["t"], out["value"])
        raise ValueError(f"unknown call kind {k!r}")



# ---------------------------------------------------------------------------


# A cycle holds twelve minimizations, two torus draws per sphere draw.
# Sorted by cost, a run's calls are sphere, then torus (about 40 % more per
# step); with this mix the median and the tail percentile (ten calls beyond
# it, out of 60 to 100) both fall inside the torus calls, not where two
# groups meet, so they do not jump from run to run.  For the same reason
# the one infimum_scan of a run, which costs three minimizations, runs after
# the timed window.
MANIFOLD_CASES = (("sphere", 3), ("torus", 3), ("torus", 4), ("sphere", 4), ("torus", 3),
                  ("torus", 4)) * 2

#: the ROADMAP reference cases, at the CLI defaults (600 nodes, seed 0)
REFERENCE_CASES = (
    {"model": "sphere", "n": 3, "scale": 1.0, "p": 2.0, "q": 1.9, "C": 1.0, "seed": 0},
    {"model": "torus", "n": 3, "scale": 6.0, "p": 2.0, "q": 1.5, "C": 5.0, "seed": 0},
)
INFIMUM_SCAN = {"model": "sphere", "n": 3, "scale": 1.0, "p": 2.0, "C": 1.0,
                "q_list": [1.5, 1.8], "seed": 0}


def minimize_summary(p: float, q: float, res) -> dict:
    """Scalars of a MinimizeResult that the checks and the layer metrics use."""
    prof = res.profile
    v = prof.values
    mass_q = float(np.sum(prof.weights * v**q))
    return {
        "value": res.value,
        "iterations": res.iterations,
        "el_residual": res.el_residual,
        "used_constant": res.used_constant,
        "norm_gap": abs(prof.lp_norm(p) - 1.0),
        "identity_gap": abs(res.qnorm_weight * mass_q - res.value) / max(1.0, res.value),
        # odd/even mass imbalance: 1.0 when every other node is zero
        "odd_even_imbalance": abs(float(v[0::2].sum() - v[1::2].sum())) / float(v.sum()),
    }


class ManifoldDescent(Workload):
    name = "manifold_descent"
    modules = ("lpentropy.manifold_minimizer",)
    # short, Python-bound calls follow the machine's swings within a run:
    # scaled per call, the median latency of 72-call windows spread 0.06
    # instead of 0.10; the large-array calls of radial_quadrature spread
    # less with the run's median (0.04 against 0.06)
    calibrate_per_call = True

    def cycle(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        # the cost of a descent step depends on the model, n and the problem;
        # every cycle covers each (model, n) pair and draws q, C and the scale
        # one from each twelfth of their ranges, so every cycle costs about
        # the same
        k = len(MANIFOLD_CASES)
        qs = _strata(rng, k, 1.2, 1.9)
        cs = _strata(rng, k, 0.5, 5.0)
        ss = _strata(rng, k, 0.0, 1.0)
        calls = []
        for (model, n), q, c, s in zip(MANIFOLD_CASES, qs, cs, ss):
            calls.append(Call("minimize", {
                "model": model, "n": n, "p": 2.0, "q": q, "C": c,
                "scale": 0.8 + 0.7 * s if model == "sphere" else 2.0 + 4.0 * s,
                "seed": rng.randrange(2**16)}))
        return calls

    def references(self) -> list:
        return ([Call("reference", dict(case)) for case in REFERENCE_CASES]
                + [Call("infimum_scan", dict(INFIMUM_SCAN))])

    def must_converge(self, call: Call) -> bool:
        # criterion 10 holds the sphere case to its EL tolerance; no criterion
        # covers the torus reference case (which misses it), the infimum_scan
        # rows at 1000 steps, or the draws cut off at 1000 steps
        return call.kind == "reference" and call.params["model"] == "sphere"

    def execute(self, call: Call, sizes: Sizes):
        a = call.params
        model = _model(a["model"], a["n"], a["scale"])
        if call.kind == "infimum_scan":
            return lib("manifold_minimizer").infimum_scan(
                model, a["p"], a["q_list"], a["C"], n_nodes=sizes.manifold_nodes,
                max_iters=sizes.descent_iters, seed=a["seed"])
        iters = sizes.reference_iters if call.kind == "reference" else sizes.descent_iters
        return lib("manifold_minimizer").minimize_gn_functional(
            model, a["p"], a["q"], a["C"], n_nodes=sizes.manifold_nodes,
            max_iters=iters, seed=a["seed"])

    def output(self, call: Call, raw) -> dict:
        if call.kind == "infimum_scan":
            return {"rows": [dict(r) for r in raw]}
        return minimize_summary(call.params["p"], call.params["q"], raw)

    def check(self, call: Call, out: dict) -> list:
        a = call.params
        if call.kind == "infimum_scan":
            return checks.infimum_rows(a["model"], a["n"], a["scale"], a["p"], a["C"], out["rows"])
        return checks.minimizer(a["model"], a["n"], a["scale"], a["p"], a["q"], a["C"],
                                out["value"], out["norm_gap"], out["identity_gap"],
                                out["el_residual"])


WORKLOADS = {w.name: w for w in (CliCold(), RadialQuadrature(), ManifoldDescent())}

"""Result records: as_dict holds exactly the fields and serializes to JSON.

MinimizeResult leaves out its profile, which the CLI writes as the --out
table, and adds its converged property.
"""

import dataclasses
import json

from lpentropy.constants import InequalityParams
from lpentropy.errors import Record
from lpentropy.euclidean_inequalities import deficit_report, limit_pde_residual
from lpentropy.gn_estimator import estimate_gn_constant
from lpentropy.hypercontractivity import (
    bakry_integrals,
    torus_heat_norm,
    ultracontractivity_check,
)
from lpentropy.manifold_geometry import (
    BubbleSpec,
    ManifoldModel,
    bubble_integrals,
    fit_expansion,
    lower_bound_witness,
)
from lpentropy.manifold_minimizer import MinimizeResult, minimize_gn_functional
from lpentropy.profiles import extremal_integrals, extremal_profile, extremal_spec


def _records() -> list:
    sphere = ManifoldModel.sphere(3)
    return [
        extremal_integrals(3, 2.0, 1.0),
        limit_pde_residual(extremal_profile(3, 2.0, 1.0, n_nodes=3000), 2.0),
        deficit_report(extremal_profile(3, 2.0, 1.0, n_nodes=3000), 2.0),
        estimate_gn_constant(InequalityParams(n=3, p=2.0, q=1.8, r=2.0), n_nodes=500,
                             ascent_iters=5),
        bubble_integrals(BubbleSpec(sphere, extremal_spec(3, 2.0, 1.0), 1.0, 0.05),
                         n_nodes=20_000),
        fit_expansion(sphere, 2.0, 1.0, 1.0, [0.01, 0.02, 0.04, 0.08], n_nodes=20_000),
        lower_bound_witness(sphere, 2.0, 0.0702, 1.0, [0.05, 0.1], n_nodes=20_000),
        bakry_integrals(3, 0.0781, 1.0, 5.0),
        ultracontractivity_check(3, 0.0781, 1.0, [0.005, 0.05]),
        torus_heat_norm(2, 1.0, 0.1),
        minimize_gn_functional(sphere, 2.0, 1.9, 1.0, n_nodes=64, max_iters=5),
    ]


def test_every_record_serializes_its_fields():
    records = _records()
    assert {type(r) for r in records} == set(Record.__subclasses__())
    for rec in records:
        out = rec.as_dict()
        names = [f.name for f in dataclasses.fields(rec)]
        if isinstance(rec, MinimizeResult):
            names = [k for k in names if k != "profile"] + ["converged"]
        assert list(out) == names
        json.loads(json.dumps(out))

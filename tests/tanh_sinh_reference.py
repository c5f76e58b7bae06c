"""The one-panel tanh-sinh loop, the reference for the member axis of
profiles._tanh_sinh: one panel at a time, each level's rows summed by one
np.sum per row and block (whole_array.row_sums)."""

import math

import numpy as np

from lpentropy.errors import AccuracyNotMet
from lpentropy.profiles import _TANH_SINH_RTOL, _missed, _tanh_sinh_level
from whole_array import row_sums


def one_panel(f, lo: float, hi: float, max_nodes: int, scale=0.0, rounding=0.0) -> tuple:
    """(integrals, error estimates, nodes) of f(x, 1 - x) over [lo, hi]:
    the rule of profiles._tanh_sinh for one panel, which raises
    AccuracyNotMet where the next level would pass max_nodes."""
    width = hi - lo
    raw, previous, err, nodes, level = 0.0, None, None, 0, 0
    while True:
        h, x, c, w = _tanh_sinh_level(level)
        if nodes + len(w) > max_nodes:
            raise _missed("the tanh-sinh integrals", max_nodes, err)

        def terms(a: int, b: int) -> np.ndarray:
            v = f(lo + width * x[a:b], (1.0 - hi) + width * c[a:b]) * w[a:b]
            return np.concatenate([v, np.abs(v)])

        raw = raw + np.array(row_sums(len(w), terms))
        nodes += len(w)
        sums, magnitude = ((width * h) * raw).reshape(2, -1)
        if not np.isfinite(sums).all():
            return sums, np.full(sums.shape, math.inf), nodes
        if previous is not None:
            err = np.abs(sums - previous)
            if (err <= _TANH_SINH_RTOL * np.maximum(magnitude, scale)).all():
                return sums, np.maximum(err, rounding * magnitude), nodes
        previous = sums
        level += 1


def member_by_member(f, lo, hi, max_nodes, scale=0.0, rounding=0.0) -> tuple:
    """The member axis of profiles._tanh_sinh, one member at a time by
    one_panel: what it returns for every member, a member that missed its
    cap reported with one_panel's last estimates (nan if none) and one node
    more than its cap."""
    count = len(lo)
    caps = np.broadcast_to(max_nodes, (count,))
    scale = np.asarray(scale, dtype=float)
    rows = []
    for i in range(count):
        member = np.array([i])
        try:
            rows.append(one_panel(lambda x, c: f(x[None], c[None], member)[:, 0],
                                  lo[i], hi[i], int(caps[i]),
                                  scale[i] if scale.ndim == 2 else scale, rounding))
        except AccuracyNotMet as exc:
            rows.append((None, exc.estimates, int(caps[i]) + 1))
    known = [est for _, est, _ in rows if est is not None]
    missing = np.full(len(known[0]) if known else 1, math.nan)
    sums = np.array([missing if s is None else s for s, _, _ in rows])
    err = np.array([missing if e is None else e for _, e, _ in rows])
    return sums, err, np.array([k for _, _, k in rows])

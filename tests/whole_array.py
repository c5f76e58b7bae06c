"""Shared settings of the blocked-against-whole-array integral tests."""

import math

import numpy as np
import pytest

#: nodes per block of profiles._blocked_sums
BLOCK = 8192

#: grid sizes around the block: the smallest profile, exactly one block, one
#: node past it, three blocks and a short tail, and the default 200k grid
BLOCK_SIZES = (3, BLOCK, BLOCK + 1, 3 * BLOCK + 17, 200_000)


def agrees(got: float, expected: float, n_nodes: int, abs_tol: float = 0.0) -> bool:
    """Bit equality on a single block; past it only the summation order
    changes, so agreement to 1e-14 relative (or abs_tol)."""
    if n_nodes <= BLOCK:
        return got == expected
    return got == pytest.approx(expected, rel=1e-14, abs=abs_tol)


def row_sums(m: int, terms) -> tuple:
    """Sums over the nodes 0..m-1 of the rows that terms(lo, hi) returns,
    on the blocks of profiles._blocked_sums: one np.sum per row and block,
    the block sums added with math.fsum."""
    partials = []
    for start in range(0, m, BLOCK):
        stop = min(start + BLOCK, m)
        lo = max(min(start - 1, m - 3), 0)
        hi = min(stop + 1, m)
        partials.append([float(np.sum(t[start - lo:stop - lo])) for t in terms(lo, hi)])
    return tuple(math.fsum(column) for column in zip(*partials))

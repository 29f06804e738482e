"""Joint cumulants over set partitions and a k-statistic estimator.

The moment <-> cumulant correspondence is Moebius inversion on the
partition lattice:

    C(X_1..X_r)   = sum_Q (-1)^{p-1} (p-1)! m(I_1) ... m(I_p)
    E(X_1...X_r)  = sum_Q s(I_1) ... s(I_p)

with Q ranging over partitions of {1..r} and s(I) the cumulant of the
block I.  The first direction is implemented against a caller-supplied
moment oracle indexed by subsets, so exact moment tables (e.g. from toral
characters) plug in directly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

MAX_PARTITION_ORDER = 8  # Bell(8) = 4140

_FACT = [math.factorial(k) for k in range(MAX_PARTITION_ORDER + 1)]


@lru_cache(maxsize=None)
def set_partitions(r: int) -> tuple:
    """All partitions of {1..r} as tuples of blocks, deterministic order.

    Enumeration is by restricted-growth strings in lexicographic order;
    blocks are tuples sorted by first element.  Cached, hence a tuple.
    """
    if not 1 <= r <= MAX_PARTITION_ORDER:
        raise ValueError(f"r must be in [1, {MAX_PARTITION_ORDER}]")
    out = []

    def grow(prefix, maxval):
        if len(prefix) == r:
            nblocks = maxval + 1
            blocks = [[] for _ in range(nblocks)]
            for i, b in enumerate(prefix):
                blocks[b].append(i + 1)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(maxval + 2):
            grow(prefix + [b], max(maxval, b))

    grow([0], 0)
    return tuple(out)


def joint_cumulant(moment: Callable[[tuple], float], r: int) -> float:
    """C(X_1..X_r) from a moment oracle m(subset) -> E prod_{i in subset} X_i."""
    total = 0.0
    for q in set_partitions(r):
        p = len(q)
        term = (-1) ** (p - 1) * _FACT[p - 1]
        for block in q:
            term *= moment(block)
        total += term
    return total


def univariate_cumulant4(samples: Sequence[float]):
    """Fourth k-statistic (unbiased estimator of the fourth cumulant) with a
    jackknife standard error.

    Power-sum form keeps the delete-one recomputation O(n).
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 samples")

    def k4_from_power_sums(s1, s2, s3, s4, m):
        denom = m * (m - 1) * (m - 2) * (m - 3)
        num = (-6.0 * s1**4 + 12.0 * m * s1**2 * s2 - 3.0 * m * (m - 1) * s2**2
               - 4.0 * m * (m + 1) * s1 * s3 + m**2 * (m + 1) * s4)
        return num / denom

    s1, s2, s3, s4 = (float(np.sum(x**k)) for k in (1, 2, 3, 4))
    k4 = k4_from_power_sums(s1, s2, s3, s4, n)

    loo = k4_from_power_sums(s1 - x, s2 - x**2, s3 - x**3, s4 - x**4, n - 1)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return float(k4), se

"""Joint cumulants over set partitions, k-statistic estimators, and the
r=4 cluster-configuration classifier.

The moment <-> cumulant correspondence is Moebius inversion on the
partition lattice:

    C(X_1..X_r)   = sum_Q (-1)^{p-1} (p-1)! m(I_1) ... m(I_p)
    E(X_1...X_r)  = sum_Q s(I_1) ... s(I_p)

with Q ranging over partitions of {1..r} and s(I) the cumulant of the
block I.  Both directions are implemented against caller-supplied oracles
indexed by subsets, so exact moment tables (e.g. from toral characters)
plug in directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def subset_cumulants(moment: Callable[[tuple], float], r: int) -> dict:
    """Cumulant s(I) for every nonempty subset I of {1..r}, bottom-up."""
    from itertools import combinations

    s = {}
    for size in range(1, r + 1):
        for subset in combinations(range(1, r + 1), size):
            relabel = {i + 1: subset[i] for i in range(size)}

            def sub_moment(block, relabel=relabel):
                return moment(tuple(relabel[i] for i in block))

            s[subset] = joint_cumulant(sub_moment, size)
    return s


def moments_from_cumulants(cumulant: Callable[[tuple], float], r: int) -> float:
    """E(X_1...X_r) = sum over partitions of products of block cumulants."""
    total = 0.0
    for q in set_partitions(r):
        term = 1.0
        for block in q:
            term *= cumulant(block)
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


@dataclass(frozen=True)
class BetaLadder:
    """Separation scales 0 = beta_0 < beta_1 < 3 beta_1 < beta_2 < ..."""

    betas: tuple

    def __post_init__(self):
        b = self.betas
        if len(b) < 2 or b[0] != 0:
            raise ValueError("ladder must start at beta_0 = 0")
        for j in range(1, len(b) - 1):
            if not b[j + 1] > 3 * b[j]:
                raise ValueError(f"need beta_{j+1} > 3 beta_{j}")
        if not b[1] > 0:
            raise ValueError("beta_1 must be positive")

    @property
    def order(self) -> int:
        return len(self.betas) - 1


def default_ladder(r: int = 4) -> BetaLadder:
    """Smallest integer ladder with the strict gaps: beta_{j+1} = 3 beta_j + 1."""
    betas = [0]
    for _ in range(r):
        betas.append(3 * betas[-1] + 1)
    return BetaLadder(tuple(betas))


@dataclass(frozen=True)
class Clustered:
    """All pairwise distances <= beta."""

    beta: float


@dataclass(frozen=True)
class Separated:
    """Blocks of diameter <= alpha, pairwise further than beta apart."""

    partition: tuple
    alpha: float
    beta: float


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff.astype(np.float64) ** 2).sum(axis=2))


def config_membership(points, cls) -> bool:
    """Re-verify the defining inequalities of a configuration class."""
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    dist = _pairwise_distances(pts)
    if isinstance(cls, Clustered):
        return bool(dist.max() <= cls.beta)
    d_within = 0.0
    for block in cls.partition:
        idx = [i - 1 for i in block]
        if len(idx) > 1:
            d_within = max(d_within, dist[np.ix_(idx, idx)].max())
    d_between = math.inf
    for a, block_a in enumerate(cls.partition):
        for block_b in cls.partition[a + 1:]:
            ia = [i - 1 for i in block_a]
            ib = [i - 1 for i in block_b]
            d_between = min(d_between, dist[np.ix_(ia, ib)].min())
    return bool(d_within <= cls.alpha and d_between > cls.beta)


def classify_config_r4(points, ladder: BetaLadder = None):
    """Place a 4-point configuration in a clustered or well-separated class.

    Every configuration admits a class once the ladder gaps are strict:
    either the diameter is at most beta_4 (clustered), or some partition Q
    with at least two blocks has block diameters <= 3 beta_j and
    inter-block gaps > beta_{j+1}.  Ties break toward the smallest j, then
    the enumeration order of the partitions.
    """
    if ladder is None:
        ladder = default_ladder(4)
    if ladder.order < 4:
        raise ValueError("ladder must provide beta_1..beta_4")
    pts = np.asarray(points, dtype=np.float64).reshape(4, -1)
    dist = _pairwise_distances(pts)
    if dist.max() <= ladder.betas[4]:
        return Clustered(beta=float(ladder.betas[4]))
    partitions = [q for q in set_partitions(4) if len(q) >= 2]
    for j in range(4):
        alpha = 3 * ladder.betas[j]
        beta = ladder.betas[j + 1]
        for q in partitions:
            cand = Separated(partition=q, alpha=float(alpha), beta=float(beta))
            if config_membership(pts, cand):
                return cand
    raise RuntimeError("no class found; ladder violates the coverage guarantee")

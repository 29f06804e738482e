"""Exact combinatorial counts over a walk path.

All quantities here are integers computed exactly from local-time tables:

* w(omega, J, l)           -- visits to site l during the index window J
* V(omega, I, J, p)        -- pairs (u, v) in I x J with Z_u - Z_v = p
* V_n(omega, p)            -- self-intersections at displacement p
* W_n(omega, l1, l2, l3)   -- quadruples with prescribed mutual displacements,
                              via the product formula
                              sum_x w(x) w(x+l1) w(x+l2) w(x+l3)
                              (the four indices range independently over the
                              window, so the factorization is exact)

Each path is sorted once: its positions become packed integer keys for
d <= 3 (rows otherwise), and ``np.unique`` gives the sorted site list and
every step's index into it, cached on the path.  A window's table is a
bincount of that index over the window.  Counts are 64-bit with explicit
overflow guards (n <= 2^31).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from .walk import WalkPath

_PACK_BITS = {1: 62, 2: 31, 3: 20}  # per coordinate; a field takes bits + 1


def _pack_shift_ok(points: np.ndarray, d: int) -> bool:
    if d not in _PACK_BITS:
        return False
    lim = 2 ** _PACK_BITS[d] - 1
    return points.size == 0 or bool(-lim < points.min() and points.max() < lim)


def pack_sites(points: np.ndarray, d: int) -> np.ndarray:
    """Pack (m, d) integer coordinates into uint64 keys, order-preserving per field."""
    bits = _PACK_BITS[d]
    keys = np.zeros(points.shape[0], dtype=np.uint64)
    for j in range(d):
        field = (points[:, j].astype(np.int64) + (1 << bits)).astype(np.uint64)
        keys |= field << np.uint64((d - 1 - j) * (bits + 1))
    return keys


def unpack_sites(keys: np.ndarray, d: int) -> np.ndarray:
    """Inverse of ``pack_sites``: (m,) uint64 keys back to (m, d) int64 coordinates."""
    bits = _PACK_BITS[d]
    mask = np.uint64((1 << (bits + 1)) - 1)
    return np.stack([((keys >> np.uint64((d - 1 - j) * (bits + 1))) & mask).astype(np.int64)
                     - (1 << bits) for j in range(d)], axis=1)


def unique_sites(points: np.ndarray) -> tuple:
    """Distinct rows of an (n, d) int64 array in lexicographic order.

    Returns ``(sites, inverse, keys)``: the rows, each input row's index into
    them, and their packed keys.  Keys are None for d > 3 or coordinates past
    the packed bit widths; ``np.unique(axis=0)`` then gives the same order.
    """
    d = points.shape[1]
    if _pack_shift_ok(points, d):
        keys, inverse = np.unique(pack_sites(points, d), return_inverse=True)
        sites = unpack_sites(keys, d)
    else:
        sites, inverse = np.unique(points, axis=0, return_inverse=True)
        keys = None
    # n <= MAX_STEPS = 2^31, so every index fits int32 at half the memory
    return sites, inverse.reshape(-1).astype(np.int32), keys


@dataclass
class LocalTimeTable:
    """Visit counts of a path over an index window [start, stop)."""

    window: tuple
    dimension: int
    sites: np.ndarray   # (m, d) int64
    counts: np.ndarray  # (m,) int64
    keys: Optional[np.ndarray] = None  # sorted uint64 packed keys, None if unpackable

    def __len__(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return int(self.counts.sum())

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Counts at each of the given points (0 where unvisited)."""
        points = np.asarray(points, dtype=np.int64).reshape(-1, self.dimension)
        if self.keys is not None and _pack_shift_ok(points, self.dimension):
            wanted = pack_sites(points, self.dimension)
            pos = np.searchsorted(self.keys, wanted)
            pos = np.minimum(pos, len(self.keys) - 1) if len(self.keys) else pos
            out = np.zeros(len(points), dtype=np.int64)
            if len(self.keys):
                hit = self.keys[pos] == wanted
                out[hit] = self.counts[pos[hit]]
            return out
        table = {tuple(s): int(c) for s, c in zip(self.sites, self.counts)}
        return np.array([table.get(tuple(p), 0) for p in points], dtype=np.int64)

    def as_dict(self) -> dict:
        return {tuple(int(c) for c in s): int(c2) for s, c2 in zip(self.sites, self.counts)}

    def to_csv(self) -> str:
        headers = {1: "site_x", 2: "site_x,site_y", 3: "site_x,site_y,site_z"}
        header = headers.get(self.dimension,
                             ",".join(f"site_{i}" for i in range(self.dimension)))
        lines = [header + ",count"]
        for s, c in zip(self.sites, self.counts):
            lines.append(",".join(str(int(v)) for v in s) + f",{int(c)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PathTable:
    """Every site a path visits, sorted, and the index of each step's site."""

    sites: np.ndarray             # (M, d) int64, lexicographic order
    inverse: np.ndarray           # (n,) index into ``sites`` of each position
    keys: Optional[np.ndarray]    # (M,) packed uint64 keys, None when unpackable


def path_table(path: WalkPath) -> PathTable:
    """The path's site table, sorted once and cached on the path instance."""
    cached = getattr(path, "_site_table", None)
    if cached is None:
        cached = PathTable(*unique_sites(path.positions))
        object.__setattr__(path, "_site_table", cached)
    return cached


def window_counts(path: WalkPath, edges) -> tuple:
    """Visit counts of each window [edges[j], edges[j+1]) of the path.

    Returns ``(ids, counts)``: the indices into ``path_table(path).sites`` of
    the sites visited in [edges[0], edges[-1]), ascending, and their (M, s)
    int64 counts, one column per window.
    """
    path.window_positions(edges[0], edges[-1])  # IndexError outside [0, n]
    table = path_table(path)
    cols = [np.bincount(table.inverse[lo:hi], minlength=len(table.sites))
            for lo, hi in zip(edges, edges[1:])]
    counts = np.stack(cols, axis=1)
    ids = np.flatnonzero(counts.any(axis=1))
    return ids, counts[ids]


def local_times(path: WalkPath, window) -> LocalTimeTable:
    """Local-time table w(omega, [start, stop), .), cut from the path's table."""
    start, stop = int(window[0]), int(window[1])
    ids, counts = window_counts(path, (start, stop))
    table = path_table(path)
    keys = None if table.keys is None else table.keys[ids]
    return LocalTimeTable((start, stop), path.model.dimension, table.sites[ids],
                          counts[:, 0], keys=keys)


def pair_count_tables(tab_i: LocalTimeTable, tab_j: LocalTimeTable, p) -> int:
    """V = sum_x w_I(x) w_J(x - p), iterating over the smaller table."""
    p = np.asarray(p, dtype=np.int64)
    if len(tab_i) <= len(tab_j):
        other = tab_j.lookup(tab_i.sites - p)
        return int(np.dot(tab_i.counts, other))
    other = tab_i.lookup(tab_j.sites + p)
    return int(np.dot(tab_j.counts, other))


def pair_count(path: WalkPath, window_i, window_j, p) -> int:
    """V(omega, I, J, p) = #{(u, v) in I x J : Z_u - Z_v = p}."""
    tab_i = local_times(path, window_i)
    tab_j = local_times(path, window_j)
    return pair_count_tables(tab_i, tab_j, p)


def self_intersections(path: WalkPath, n_prefix: int, p=None) -> int:
    """V_n(omega, p) over the prefix window [0, n_prefix); p defaults to 0."""
    if p is None:
        p = (0,) * path.model.dimension
    tab = local_times(path, (0, n_prefix))
    if not np.any(np.asarray(p)):
        return int(np.dot(tab.counts, tab.counts))
    return pair_count_tables(tab, tab, p)


def quadruple_count(path: WalkPath, n_prefix: int, ells) -> int:
    """W_n = sum_x w(x) w(x+l1) w(x+l2) w(x+l3) over the prefix table."""
    if len(ells) != 3:
        raise ValueError("quadruple_count expects three displacement vectors")
    tab = local_times(path, (0, n_prefix))
    if len(tab) == 0:
        return 0
    factors = [tab.counts]
    for ell in ells:
        ell = np.asarray(ell, dtype=np.int64)
        factors.append(tab.lookup(tab.sites + ell))
    max_count = max(int(f.max(initial=0)) for f in factors)
    if max_count < 2**15:  # product of four fits int64
        prod = factors[0] * factors[1] * factors[2] * factors[3]
        return int(prod.sum())
    return sum(int(a) * int(b) * int(c) * int(e)
               for a, b, c, e in zip(*factors))


def max_local_time(path: WalkPath, n_prefix: int) -> int:
    """sup_l w_n(omega, l) over the prefix window."""
    tab = local_times(path, (0, n_prefix))
    return int(tab.counts.max(initial=0))


def erdos_taylor_ratio(path: WalkPath, n_prefix: int) -> float:
    """sup_l w_n / (log n)^2; the planar limit of this ratio is 1/pi."""
    if n_prefix < 2:
        raise ValueError("need n_prefix >= 2")
    return max_local_time(path, n_prefix) / math.log(n_prefix) ** 2

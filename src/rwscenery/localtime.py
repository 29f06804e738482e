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

Each path is tabulated once and the table is cached on the path: the sorted
site list, every step's int32 index into it, and each site's key, its int64
row-major offset in the bounding box of the path.  Box order is lexicographic
order, so the keys ascend with the sites.  The table is counted from the
path's steps, not its positions, a chunk at a time: prefix sums of the atoms'
coordinates give the box, and prefix sums of the atoms' box offsets, written
straight into the key buffer, give each step's key.  When the box has at most
4n + _DENSE_SLACK cells, that buffer is the int32 index itself, and a counting
sort marks the visited cells and ranks the keys in place, in O(n + cells).
Wider boxes (3-d, drifted and high-dimensional walks, far-flung hand-built
paths) write the keys to an int64 buffer and ``np.unique`` it.  Only a box of
2^62 cells or more has no keys; its rows are sorted themselves.

Every count reads one primitive.  A window's local times are a dense
bincount of the index over the window (``window_tables``), one slot per
site plus a zero sentinel slot.  A lag p is one index map (``site_shift``)
from each site to the slot of site - p: V(I, J, p) = w_I . w_J[shift_p].
Counts are 64-bit with explicit overflow guards (n <= 2^31).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .walk import STEP_CHUNK, WalkPath

# a site's key is its offset in a box of fewer than 2^62 cells, so a lag's
# move key - p . strides stays inside int64
_KEYED_CELLS = 2**62

# keys are counted into the box while it has at most 4n + _DENSE_SLACK
# cells: a bool mark and an int32 rank per cell
_DENSE_SLACK = 65536


def unique_sites(points: np.ndarray) -> tuple:
    """Distinct rows of an (n, d) int64 array in lexicographic order.

    Returns ``(sites, inverse, keys)``: the rows, each input row's int32
    index into them, and their int64 offsets in the bounding box (None when
    it has 2^62 cells or more).
    """
    n, d = points.shape
    # per-column reductions: min(axis=0) over an (n, d) array is far slower
    lo = [int(points[:, j].min()) if n else 0 for j in range(d)]
    hi = [int(points[:, j].max()) if n else 0 for j in range(d)]

    def fill(strides, out):
        for a in range(0, n, STEP_CHUNK):
            chunk = points[a:a + STEP_CHUNK]
            box = np.zeros(len(chunk), dtype=np.int64)
            for j in range(d):
                box += np.subtract(chunk[:, j], lo[j], dtype=np.int64) * strides[j]
            out[a:a + len(box)] = box

    return _box_sites(n, lo, hi, fill)


def _path_sites(path: WalkPath) -> tuple:
    """unique_sites of the path's positions, counted from its steps: one
    chunked pass of per-coordinate prefix sums gives the box, and the box
    offset of Z_k is a prefix sum of each step atom's offset."""
    d, steps = path.model.dimension, path.steps
    atoms = path.model.law.site_array()
    lo, hi, z = list(path.origin), list(path.origin), list(path.origin)
    buf = np.empty(min(len(steps), STEP_CHUNK), dtype=np.int64)
    for a in range(0, len(steps), STEP_CHUNK):
        chunk = steps[a:a + STEP_CHUNK]
        for j in range(d):
            column = _prefix_sum(atoms[:, j], chunk, z[j], buf[:len(chunk)])
            lo[j] = min(lo[j], int(column.min()))
            hi[j] = max(hi[j], int(column.max()))
            z[j] = int(column[-1])

    def fill(strides, out):
        # a step moves the offset by its atom's; an atom the path takes moves
        # it by less than the cells, so its offset fits out's dtype (int32 on
        # the dense route), and one it never takes is never read
        offsets = (atoms @ np.asarray(strides, dtype=np.int64)).astype(out.dtype)
        out[0] = z = sum((c - b) * s for c, b, s in zip(path.origin, lo, strides))
        for a in range(0, len(steps), STEP_CHUNK):
            chunk = steps[a:a + STEP_CHUNK]
            z = int(_prefix_sum(offsets, chunk, z, out[a + 1:a + 1 + len(chunk)])[-1])

    return _box_sites(path.n, lo, hi, fill)


def _prefix_sum(values: np.ndarray, steps: np.ndarray, start: int,
                out: np.ndarray) -> np.ndarray:
    """out = start + the running sum of values[steps], in out's dtype; the
    partial sums are differences of box offsets, so int32 holds them while
    the box has fewer than 2^31 cells."""
    # mode="clip" gathers straight into out; "raise" would buffer a copy
    np.take(values, steps, out=out, mode="clip")
    np.cumsum(out, out=out, dtype=out.dtype)
    out += start
    return out


def _strides(extents: list) -> list:
    """Row-major strides of a box with these extents."""
    return [math.prod(extents[j + 1:]) for j in range(len(extents))]


def _box_sites(n: int, lo: list, hi: list, fill) -> tuple:
    """unique_sites of n points in the box lo..hi.

    ``fill(strides, out)`` writes each point's offset sum_j (z_j - lo_j) s_j
    into the integer buffer ``out``.  A box of 2^62 cells or more fills the
    rows one coordinate at a time (unit strides) and sorts them.
    """
    d = len(lo)
    extents = [b - a + 1 for a, b in zip(lo, hi)]
    cells = math.prod(extents)
    if cells >= _KEYED_CELLS:
        rows = np.empty((n, d), dtype=np.int64)
        for j in range(d):
            fill([int(i == j) for i in range(d)], rows[:, j])
            rows[:, j] += lo[j]
        sites, inverse = np.unique(rows, axis=0, return_inverse=True)
        # n <= MAX_STEPS = 2^31, so every index fits int32 at half the memory
        return sites, inverse.reshape(-1).astype(np.int32), None
    strides = _strides(extents)
    # cells < 2^31 keeps every offset, and the distinct count, inside int32
    if cells <= 4 * n + _DENSE_SLACK and cells < 2**31:
        inverse = np.empty(n, dtype=np.int32)
        fill(strides, inverse)
        keys = _rank_in_place(inverse, cells)
    else:
        keys = np.empty(n, dtype=np.int64)
        fill(strides, keys)
        keys, inverse = np.unique(keys, return_inverse=True)
        inverse = inverse.reshape(-1).astype(np.int32)
    # the keys back to coordinates
    sites = np.empty((len(keys), d), dtype=np.int64)
    offset = keys
    for j in range(d - 1, 0, -1):
        offset, sites[:, j] = np.divmod(offset, extents[j])
        sites[:, j] += lo[j]
    sites[:, 0] = offset + lo[0]
    return sites, inverse, keys


def _rank_in_place(inverse: np.ndarray, cells: int) -> np.ndarray:
    """Counting sort: replace each box offset in ``inverse`` by its rank among
    the distinct ones, a chunk at a time, and return those, ascending."""
    present = np.zeros(cells, dtype=bool)
    present[inverse] = True
    keys = np.flatnonzero(present)
    del present
    rank = np.empty(cells, dtype=np.int32)  # read at the present cells only
    rank[keys] = np.arange(len(keys), dtype=np.int32)
    for a in range(0, len(inverse), STEP_CHUNK):
        chunk = inverse[a:a + STEP_CHUNK]
        # mode="clip" gathers straight into the chunk; "raise" would buffer a copy
        np.take(rank, chunk, out=chunk, mode="clip")
    return keys


@dataclass(frozen=True)
class PathTable:
    """Every site a path visits, sorted, and the index of each step's site."""

    sites: np.ndarray             # (M, d) int64, lexicographic order
    inverse: np.ndarray           # (n,) int32 index into ``sites`` of each position
    keys: Optional[np.ndarray]    # (M,) int64 offsets in the bounding box of ``sites``,
                                  # None when it has 2^62 cells or more


def path_table(path: WalkPath) -> PathTable:
    """The path's site table, tabulated once and cached on the path instance."""
    cached = getattr(path, "_site_table", None)
    if cached is None:
        cached = PathTable(*_path_sites(path))
        object.__setattr__(path, "_site_table", cached)
    return cached


def window_tables(path: WalkPath, windows) -> np.ndarray:
    """Local times of each window [lo, hi), one int64 row per window: the
    bincount of the path's site index over its M sites, plus a zero slot M."""
    table = path_table(path)
    out = np.empty((len(windows), len(table.sites) + 1), dtype=np.int64)
    for row, (lo, hi) in zip(out, windows):
        lo, hi = int(lo), int(hi)
        if not (0 <= lo <= hi <= path.n):
            raise IndexError(f"window [{lo}, {hi}) out of range [0, {path.n})")
        row[:] = np.bincount(table.inverse[lo:hi], minlength=len(row))
    return out


def site_shift(path: WalkPath, p) -> np.ndarray:
    """The lag map of p: the slot of sites[i] - p for each site i, M where it is
    unvisited (and M for M).  A key moves by p . strides, and the moved keys
    of the sites that stay in the box are matched by searchsorted.  A box of
    2^62 cells or more matches rows through a dict."""
    table = path_table(path)
    sites, keys = table.sites, table.keys
    m, d = sites.shape
    p = [int(c) for c in p]
    if not any(p):
        return np.arange(m + 1)
    shift = np.full(m + 1, m)
    if keys is None:
        index = {s: i for i, s in enumerate(map(tuple, sites.tolist()))}
        moved = sites - np.asarray(p, dtype=np.int64)
        shift[:m] = [index.get(s, m) for s in map(tuple, moved.tolist())]
        return shift
    lo = [int(sites[:, j].min()) for j in range(d)]
    hi = [int(sites[:, j].max()) for j in range(d)]
    extents = [b - a + 1 for a, b in zip(lo, hi)]
    if any(abs(c) >= e for c, e in zip(p, extents)):
        return shift
    # sites[i] - p stays in the box iff each moved coordinate does
    hit = np.ones(m, dtype=bool)
    for j, c in enumerate(p):
        if c > 0:
            hit &= sites[:, j] >= lo[j] + c
        elif c < 0:
            hit &= sites[:, j] <= hi[j] + c
    wanted = keys - sum(c * s for c, s in zip(p, _strides(extents)))
    pos = np.searchsorted(keys, wanted)
    hit &= keys[np.minimum(pos, m - 1)] == wanted
    np.copyto(shift[:m], pos, where=hit)
    return shift


def window_counts(path: WalkPath, edges) -> tuple:
    """``(ids, counts)`` of the windows [edges[j], edges[j+1]): the ascending
    indices into ``path_table(path).sites`` of the sites they visit, and the
    (len(ids), s) int64 counts there, one column per window."""
    counts = window_tables(path, list(zip(edges, edges[1:])))[:, :-1]
    ids = np.flatnonzero(counts.any(axis=0))
    return ids, np.ascontiguousarray(counts[:, ids].T)


@dataclass
class LocalTimeTable:
    """Visit counts of a path over an index window, visited sites only."""

    sites: np.ndarray   # (m, d) int64
    counts: np.ndarray  # (m,) int64

    def __len__(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return int(self.counts.sum())

    def as_dict(self) -> dict:
        return {tuple(int(c) for c in s): int(c2) for s, c2 in zip(self.sites, self.counts)}


def local_times(path: WalkPath, window) -> LocalTimeTable:
    """Local-time table w(omega, [start, stop), .), cut from the window's bincount."""
    counts = window_tables(path, [window])[0]
    ids = np.flatnonzero(counts)
    return LocalTimeTable(path_table(path).sites[ids], counts[ids])


def pair_count_tables(path: WalkPath, window_pairs, p_set) -> np.ndarray:
    """V(omega, I, J, p) = sum_x w_I(x) w_J(x - p), exact in int64, per window
    pair (I, J) (rows) and lag p (columns); each window and lag map built once."""
    window_pairs = [(tuple(map(int, i)), tuple(map(int, j))) for i, j in window_pairs]
    windows = list(dict.fromkeys(w for pair in window_pairs for w in pair))
    w = dict(zip(windows, window_tables(path, windows)))
    out = np.empty((len(window_pairs), len(p_set)), dtype=np.int64)
    for col, p in enumerate(p_set):
        shift = site_shift(path, p)
        for row, (i, j) in enumerate(window_pairs):
            out[row, col] = np.dot(w[i], w[j][shift])
    return out


def quadruple_count(path: WalkPath, n_prefix: int, ells) -> int:
    """W_n = sum_x w(x) w(x+l1) w(x+l2) w(x+l3) over the prefix window."""
    if len(ells) != 3:
        raise ValueError("quadruple_count expects three displacement vectors")
    w = window_tables(path, [(0, n_prefix)])[0]
    factors = [w] + [w[site_shift(path, -np.asarray(ell, dtype=np.int64))] for ell in ells]
    # each term is at most max(w)^3 w(x), so the sum is at most max(w)^3 n_prefix
    if int(w.max()) ** 3 * n_prefix >= 2**63:
        factors = [f.astype(object) for f in factors]
    return int(np.sum(factors[0] * factors[1] * factors[2] * factors[3]))


def max_local_time(path: WalkPath, n_prefix: int) -> int:
    """sup_l w_n(omega, l) over the prefix window."""
    return int(window_tables(path, [(0, n_prefix)]).max())

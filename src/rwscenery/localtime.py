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
site list and every step's int32 index into it.  For d <= 3 two routes give
the same table.  When the bounding box of the n positions has at most
4n + _DENSE_SLACK cells, a counting sort marks the visited cells and ranks
them in row-major box order, which is lexicographic order, in O(n + cells).
It reads the path's steps, not its positions, a chunk at a time: prefix sums
of the atoms' coordinates give the box, and prefix sums of the atoms' box
offsets fill the int32 index, which is then ranked in place.  Wider boxes
(3-d and drifted walks, far-flung hand-built paths) sort the positions'
packed integer keys with ``np.unique``; d > 3 or coordinates past the packed
bit widths sort the rows themselves.

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

_PACK_BITS = {1: 62, 2: 31, 3: 20}  # per coordinate; a field takes bits + 1

# unique_sites counts into the bounding box while it has at most
# 4n + _DENSE_SLACK cells: a bool mark and an int32 rank per cell
_DENSE_SLACK = 65536


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
    Packable points whose bounding box has at most 4n + _DENSE_SLACK cells
    are ranked by a counting sort over the box; wider boxes sort packed keys.
    """
    n, d = points.shape
    if d in _PACK_BITS and n:
        # per-column reductions: min(axis=0) over an (n, d) array is far slower
        lo = [int(points[:, j].min()) for j in range(d)]
        hi = [int(points[:, j].max()) for j in range(d)]

        def fill(strides, out):
            for a in range(0, n, STEP_CHUNK):
                chunk = points[a:a + STEP_CHUNK]
                box = np.zeros(len(chunk), dtype=np.int64)
                for j in range(d):
                    box += np.subtract(chunk[:, j], lo[j], dtype=np.int64) * strides[j]
                out[a:a + len(box)] = box

        table = _counted_sites(n, lo, hi, fill)
        if table is not None:
            return table
    return _sorted_sites(points)


def _sorted_sites(points: np.ndarray) -> tuple:
    """unique_sites by sorting: np.unique on packed keys when they fit, else on the rows."""
    d = points.shape[1]
    if _pack_shift_ok(points, d):
        keys, inverse = np.unique(pack_sites(points, d), return_inverse=True)
        sites = unpack_sites(keys, d)
    else:
        sites, inverse = np.unique(points, axis=0, return_inverse=True)
        keys = None
    # n <= MAX_STEPS = 2^31, so every index fits int32 at half the memory
    return sites, inverse.reshape(-1).astype(np.int32), keys


def _counted_sites(n: int, lo: list, hi: list, fill) -> Optional[tuple]:
    """unique_sites of n points by a counting sort over their bounding box
    lo..hi, or None when the box does not pack or is too wide to count in.

    ``fill(strides, out)`` writes each point's row-major box offset (box order
    is lexicographic order) into the int32 buffer ``out``; the cells it marks
    are ranked, and the buffer is ranked in place, a chunk at a time.
    """
    lim = 2 ** _PACK_BITS[len(lo)] - 1
    extents = [b - a + 1 for a, b in zip(lo, hi)]
    cells = math.prod(extents)
    # cells < 2^31 keeps every offset, and the distinct count, inside int32
    if not (-lim < min(lo) and max(hi) < lim and cells <= 4 * n + _DENSE_SLACK
            and cells < 2**31):
        return None
    strides = [math.prod(extents[j + 1:]) for j in range(len(extents))]
    inverse = np.empty(n, dtype=np.int32)
    fill(strides, inverse)
    present = np.zeros(cells, dtype=bool)
    present[inverse] = True
    rank = np.cumsum(present, dtype=np.int32)
    rank -= 1
    for a in range(0, n, STEP_CHUNK):
        chunk = inverse[a:a + STEP_CHUNK]
        # mode="clip" gathers straight into the chunk; "raise" would buffer a copy
        np.take(rank, chunk, out=chunk, mode="clip")
    # the visited cells in box order, back to coordinates
    offset = np.flatnonzero(present)
    sites = np.empty((len(offset), len(lo)), dtype=np.int64)
    for j in range(len(lo) - 1, 0, -1):
        offset, sites[:, j] = np.divmod(offset, extents[j])
        sites[:, j] += lo[j]
    sites[:, 0] = offset + lo[0]
    return sites, inverse, pack_sites(sites, len(lo))


def _path_sites(path: WalkPath) -> tuple:
    """unique_sites of the path's positions, counted from its steps where it
    packs: one chunked pass of per-coordinate prefix sums gives the box, and
    the box offset of Z_k is a prefix sum of each step atom's offset."""
    d, steps = path.model.dimension, path.steps
    if d in _PACK_BITS:
        atoms = path.model.law.site_array()
        lo, hi = list(path.origin), list(path.origin)
        for j in range(d):
            z = path.origin[j]
            for a in range(0, len(steps), STEP_CHUNK):
                column = _prefix_sum(atoms[:, j], steps[a:a + STEP_CHUNK], z)
                lo[j] = min(lo[j], int(column.min()))
                hi[j] = max(hi[j], int(column.max()))
                z = int(column[-1])

        def fill(strides, out):
            offsets = atoms @ np.asarray(strides, dtype=np.int64)
            out[0] = z = sum((c - b) * s for c, b, s in zip(path.origin, lo, strides))
            for a in range(0, len(steps), STEP_CHUNK):
                box = _prefix_sum(offsets, steps[a:a + STEP_CHUNK], z)
                out[a + 1:a + 1 + len(box)] = box
                z = int(box[-1])

        table = _counted_sites(path.n, lo, hi, fill)
        if table is not None:
            return table
    return _sorted_sites(path.positions)


def _prefix_sum(values: np.ndarray, steps: np.ndarray, start: int) -> np.ndarray:
    """start + the running sum of values[steps], in int64."""
    out = values.take(steps)
    np.cumsum(out, out=out)
    out += start
    return out


@dataclass(frozen=True)
class PathTable:
    """Every site a path visits, sorted, and the index of each step's site."""

    sites: np.ndarray             # (M, d) int64, lexicographic order
    inverse: np.ndarray           # (n,) int32 index into ``sites`` of each position
    keys: Optional[np.ndarray]    # (M,) packed uint64 keys, None when unpackable


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
    unvisited (and M for M).  Packed keys are matched by searchsorted; d > 3,
    or a shift past the packed bit widths, matches rows through a dict."""
    table = path_table(path)
    m, d = table.sites.shape
    p = np.asarray(p, dtype=np.int64)
    if not p.any():
        return np.arange(m + 1)
    moved = table.sites - p
    shift = np.full(m + 1, m)
    if table.keys is not None and _pack_shift_ok(moved, d):
        wanted = pack_sites(moved, d)
        pos = np.searchsorted(table.keys, wanted)
        hit = table.keys[np.minimum(pos, m - 1)] == wanted
        shift[:m][hit] = pos[hit]
    else:
        index = {s: i for i, s in enumerate(map(tuple, table.sites.tolist()))}
        shift[:m] = [index.get(s, m) for s in map(tuple, moved.tolist())]
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


def pair_count(path: WalkPath, window_i, window_j, p) -> int:
    """V(omega, I, J, p) = #{(u, v) in I x J : Z_u - Z_v = p}."""
    return int(pair_count_tables(path, [(window_i, window_j)], [p])[0, 0])


def self_intersections(path: WalkPath, n_prefix: int, p=None) -> int:
    """V_n(omega, p) over the prefix window [0, n_prefix); p defaults to 0."""
    p = (0,) * path.model.dimension if p is None else p
    return pair_count(path, (0, n_prefix), (0, n_prefix), p)


def quadruple_count(path: WalkPath, n_prefix: int, ells) -> int:
    """W_n = sum_x w(x) w(x+l1) w(x+l2) w(x+l3) over the prefix window."""
    if len(ells) != 3:
        raise ValueError("quadruple_count expects three displacement vectors")
    w = window_tables(path, [(0, n_prefix)])[0]
    factors = [w] + [w[site_shift(path, -np.asarray(ell, dtype=np.int64))] for ell in ells]
    if int(w.max()) >= 2**15:  # a product of four could overflow int64
        factors = [f.astype(object) for f in factors]
    return int(np.sum(factors[0] * factors[1] * factors[2] * factors[3]))


def max_local_time(path: WalkPath, n_prefix: int) -> int:
    """sup_l w_n(omega, l) over the prefix window."""
    return int(window_tables(path, [(0, n_prefix)]).max())

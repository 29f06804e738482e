from collections import Counter
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rwscenery import harness, localtime, walk


def brute_pair_count(positions, wi, wj, p):
    p = np.asarray(p, dtype=np.int64)
    total = 0
    for u in range(*wi):
        total += int(np.sum(np.all(positions[wj[0]:wj[1]] == positions[u] - p, axis=1)))
    return total


def count_pairs(path, wi, wj, p):
    """V(omega, I, J, p), one entry of ``pair_count_tables``."""
    return localtime.pair_count_tables(path, [(wi, wj)], [p])[0, 0]


def prefix_pairs(path, n, p):
    """V_n(omega, p) over the prefix window [0, n)."""
    return count_pairs(path, (0, n), (0, n), p)


def reference_table(points):
    """(sites, inverse) by sorting the rows themselves."""
    sites, inverse = np.unique(points, axis=0, return_inverse=True)
    return sites, inverse.reshape(-1).astype(np.int32)


def reference_keys(sites):
    """Each site's row-major offset in the bounding box, in exact integers, or
    None when the box has 2^62 cells or more."""
    lo, hi = sites.min(axis=0).tolist(), sites.max(axis=0).tolist()
    extents = [b - a + 1 for a, b in zip(lo, hi)]
    if math.prod(extents) >= 2**62:
        return None
    keys = []
    for site in sites.tolist():
        key = 0
        for c, a, e in zip(site, lo, extents):
            key = key * e + (c - a)
        keys.append(key)
    return keys


def reference_shift(sites, p):
    """The lag map of p through a dict of the rows."""
    index = {s: i for i, s in enumerate(map(tuple, sites.tolist()))}
    moved = sites - np.asarray(p, dtype=np.int64)
    return [index.get(s, len(sites)) for s in map(tuple, moved.tolist())] + [len(sites)]


def assert_reference_table(table, points):
    """sites, inverse and keys equal the references, value for value and
    dtype for dtype; keys are int64 or None."""
    sites, inverse = reference_table(points)
    assert table.sites.dtype == np.int64 and np.array_equal(table.sites, sites)
    assert table.inverse.dtype == np.int32 and np.array_equal(table.inverse, inverse)
    want = reference_keys(sites)
    if want is None:
        assert table.keys is None
    else:
        assert table.keys.dtype == np.int64 and table.keys.tolist() == want


def index_loop_quadruple(positions, n, ells):
    """Independent oracle: loop the anchor index, count matching indices per
    displacement from a position-keyed index table (O(n^2 / lookup))."""
    table = {}
    for i in range(n):
        table.setdefault(tuple(positions[i]), []).append(i)
    total = 0
    for i0 in range(n):
        z = positions[i0]
        prod = 1
        for ell in ells:
            prod *= len(table.get(tuple(z + np.asarray(ell)), []))
            if prod == 0:
                break
        total += prod
    return total


def test_constant_path_local_times():
    m = walk.build_walk_model(walk.deterministic_law((0, 0)))
    path = walk.sample_path(m, 5, seed=0)
    tab = localtime.local_times(path, (0, 5))
    assert tab.as_dict() == {(0, 0): 5}


def test_straight_path_local_times():
    m = walk.build_walk_model(walk.deterministic_law((1, 0)))
    path = walk.sample_path(m, 5, seed=0)
    tab = localtime.local_times(path, (0, 5))
    assert sorted(tab.as_dict().items()) == [((k, 0), 1) for k in range(5)]


@given(st.integers(0, 2**31 - 1), st.integers(1, 400), st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_mass_conservation(seed, length, start):
    m = walk.build_walk_model(walk.lazy_walk_law_2d())
    path = walk.sample_path(m, start + length, seed=seed)
    tab = localtime.local_times(path, (start, start + length))
    assert tab.total() == length


def test_window_out_of_range(lazy_model):
    path = walk.sample_path(lazy_model, 10, seed=1)
    with pytest.raises(IndexError):
        localtime.local_times(path, (0, 11))


def test_pair_count_monotone_under_inclusion(lazy_model):
    path = walk.sample_path(lazy_model, 3000, seed=9)
    small = count_pairs(path, (100, 500), (1500, 2000), (0, 0))
    bigger = count_pairs(path, (100, 900), (1500, 2000), (0, 0))
    biggest = count_pairs(path, (100, 900), (1200, 2400), (0, 0))
    assert small <= bigger <= biggest


def test_pair_count_trivial_cases():
    const = walk.build_walk_model(walk.deterministic_law((0, 0)))
    n = 64
    path = walk.sample_path(const, n, seed=0)
    assert count_pairs(path, (0, n), (0, n), (0, 0)) == n * n
    straight = walk.sample_path(walk.build_walk_model(walk.deterministic_law((1, 0))), n, seed=0)
    assert count_pairs(straight, (0, n), (0, n), (0, 0)) == n


def test_self_intersections_straight_path():
    m = walk.build_walk_model(walk.deterministic_law((1, 0)))
    path = walk.sample_path(m, 100, seed=0)
    assert prefix_pairs(path, 100, (0, 0)) == 100
    assert prefix_pairs(path, 100, (1, 0)) == 99
    assert prefix_pairs(path, 100, (-1, 0)) == 99


def test_self_intersection_symmetry(lazy_model):
    path = walk.sample_path(lazy_model, 2000, seed=17)
    for p in [(1, 0), (0, 1), (2, -1)]:
        mp = tuple(-c for c in p)
        assert prefix_pairs(path, 2000, p) == \
            prefix_pairs(path, 2000, mp)


def test_quadruple_trivial_and_straight(lazy_model):
    path = walk.sample_path(lazy_model, 500, seed=3)
    tab = localtime.local_times(path, (0, 500))
    w4 = int(np.sum(tab.counts.astype(object) ** 4))
    assert localtime.quadruple_count(path, 500, [(0, 0), (0, 0), (0, 0)]) == w4
    straight = walk.sample_path(walk.build_walk_model(walk.deterministic_law((1, 0))), 200, seed=0)
    assert localtime.quadruple_count(straight, 200, [(1, 0), (2, 0), (3, 0)]) == 197


def test_quadruple_against_index_loop_oracle(lazy_model):
    gen = np.random.default_rng(5)
    for _ in range(10):
        n = int(gen.integers(50, 500))
        path = walk.sample_path(lazy_model, n, seed=int(gen.integers(2**31)))
        ells = [tuple(int(x) for x in gen.integers(-2, 3, size=2)) for _ in range(3)]
        assert localtime.quadruple_count(path, n, ells) == \
            index_loop_quadruple(path.positions, n, ells)


def test_quadruple_big_counts_use_exact_integers():
    # constant path: W_n = n^4 overflows int64 for n = 2^17; result stays exact
    m = walk.build_walk_model(walk.deterministic_law((0, 0)))
    n = 2**17
    path = walk.sample_path(m, n, seed=0)
    assert localtime.quadruple_count(path, n, [(0, 0), (0, 0), (0, 0)]) == n**4


@pytest.mark.parametrize("sites", [8, 9])
def test_quadruple_sum_overflow_boundary(sites):
    # 32767 visits per site keep each w^4 inside int64, but the sum of 9 of
    # them passes 2^63: the bound max(w)^3 n_prefix sends 9 sites to exact
    # integers, while 8 sites (8 * 32767^4 < 2^63) stay in int64
    visits = 2**15 - 1
    path = _hand_path(np.repeat([[k, 0] for k in range(sites)], visits, axis=0))
    zero = [(0, 0)] * 3
    assert localtime.quadruple_count(path, path.n, zero) == sites * visits**4


def test_additivity_over_disjoint_windows(lazy_model):
    path = walk.sample_path(lazy_model, 4000, seed=23)
    i, j = (100, 1300), (1300, 3100)
    u = (100, 3100)
    p = (1, 0)
    total = count_pairs(path, u, u, p)
    parts = (count_pairs(path, i, i, p) + count_pairs(path, j, j, p)
             + count_pairs(path, i, j, p) + count_pairs(path, j, i, p))
    assert total == parts


def test_shift_covariance(lazy_model):
    # counts over [b, b+k) match the path re-based at time b
    path = walk.sample_path(lazy_model, 3000, seed=31)
    b, k = 700, 900
    rebased = walk.WalkPath(model=path.model, n=k, seed=path.seed, origin=(0, 0),
                            steps=path.steps[b:b + k - 1])
    for p in [(0, 0), (1, 0)]:
        assert count_pairs(path, (b, b + k), (b, b + k), p) == \
            prefix_pairs(rebased, k, p)


@given(st.integers(0, 2**31 - 1), st.integers(2, 600))
@settings(max_examples=20, deadline=None)
def test_super_additivity_of_self_intersections(seed, n):
    # V(omega,[0,k)) + V(omega,[k,n)) <= V(omega,[0,n))
    m = walk.build_walk_model(walk.lazy_walk_law_2d())
    path = walk.sample_path(m, n, seed=seed)
    k = n // 2
    left = count_pairs(path, (0, k), (0, k), (0, 0))
    right = count_pairs(path, (k, n), (k, n), (0, 0))
    total = count_pairs(path, (0, n), (0, n), (0, 0))
    assert left + right <= total


def test_bounded_sum_over_p_and_diagonal(lazy_model):
    path = walk.sample_path(lazy_model, 1500, seed=2)
    n = 1500
    ps = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    total = sum(prefix_pairs(path, n, p) for p in ps)
    assert total <= n * n
    assert prefix_pairs(path, n, (0, 0)) >= n


def test_max_local_time_and_ratio(lazy_model):
    const = walk.sample_path(walk.build_walk_model(walk.deterministic_law((0, 0))), 50, seed=0)
    assert localtime.max_local_time(const, 50) == 50
    straight = walk.sample_path(walk.build_walk_model(walk.deterministic_law((1, 0))), 50, seed=0)
    assert localtime.max_local_time(straight, 50) == 1
    rep = harness.track_erdos_taylor(walk=lazy_model, n_ladder=[1000], n_omegas=1, epsilon=0.1,
                                     seed=4)
    path = walk.sample_path(lazy_model, 1000, harness._omega_seed(4, 0))
    assert rep.log_ratio[1000] == [localtime.max_local_time(path, 1000) / math.log(1000) ** 2]


def test_zero_displacement_pair_count(lazy_model):
    path = walk.sample_path(lazy_model, 3000, seed=8)
    tab = localtime.local_times(path, (0, 3000))
    assert localtime.pair_count_tables(path, [((0, 3000), (0, 3000))], [(0, 0)]).tolist() == \
        [[int(np.dot(tab.counts, tab.counts))]]
    # the identity lag map: a cross-window count, and V_n again for one window
    assert localtime.site_shift(path, (0, 0)).tolist() == list(range(len(tab) + 1))
    for wi, wj in (((0, 1000), (500, 3000)), ((0, 3000), (0, 3000))):
        assert localtime.pair_count_tables(path, [(wi, wj)], [(0, 0)])[0, 0] == \
            brute_pair_count(path.positions, wi, wj, (0, 0))


def test_high_dimension_path_gets_keys():
    # d = 4 and 5 paths are keyed by their box offsets like any other
    for d in (4, 5):
        path = walk.sample_path(walk.build_walk_model(walk.simple_walk_law(d)), 2000, seed=6)
        table = localtime.path_table(path)
        assert table.keys is not None
        assert_reference_table(table, path.positions)
        tab = localtime.local_times(path, (0, 2000))
        assert tab.total() == 2000
        for p in [(0,) * d, (1,) + (0,) * (d - 1), (0,) * (d - 1) + (-2,)]:
            assert prefix_pairs(path, 2000, p) == \
                brute_pair_count(path.positions, (0, 2000), (0, 2000), p)


def _items(tab):
    return list(zip(map(tuple, tab.sites.tolist()), tab.counts.tolist()))


def _hand_path(positions):
    """The path through ``positions``: its origin, and steps over the uniform
    law on its own distinct differences (the zero step for one position)."""
    positions = np.asarray(positions, dtype=np.int64)
    diffs = np.diff(positions, axis=0)
    atoms = sorted(set(map(tuple, diffs.tolist()))) or [(0,) * positions.shape[1]]
    law = walk.increment_law([(a, 1 / len(atoms)) for a in atoms])
    index = {a: i for i, a in enumerate(atoms)}
    steps = np.array([index[a] for a in map(tuple, diffs.tolist())],
                     dtype=walk.step_dtype(law))
    path = walk.WalkPath(model=walk.build_walk_model(law), n=len(positions), seed=0,
                         origin=tuple(positions[0].tolist()), steps=steps)
    assert np.array_equal(path.positions, positions)
    return path


@given(st.integers(1, 4), st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_local_times_equal_a_counter_in_lexicographic_order(d, n, seed, windows):
    gen = np.random.default_rng(seed)
    path = _hand_path(gen.integers(-3, 4, size=(n, d)))
    for u, v in windows:
        lo, hi = sorted((int(u * n), int(v * n)))
        tab = localtime.local_times(path, (lo, hi))
        want = Counter(map(tuple, path.positions[lo:hi].tolist()))
        assert _items(tab) == sorted(want.items())


# boxes of 2^62 - 1 cells (keyed) and of 2^62 cells (rows), far from the origin
_KEY_BOUNDARY = [
    ((2**62 - 1,), (2**62,)),
    ((2**31 - 1, 2**31 + 1), (2**31, 2**31)),
    ((3, 715827883, 2**31 - 1), (2**20, 2**21, 2**21)),
]


@pytest.mark.parametrize("keyed_extents, row_extents", _KEY_BOUNDARY,
                         ids=[f"d{len(k)}" for k, _ in _KEY_BOUNDARY])
@pytest.mark.parametrize("sign", [1, -1])
def test_key_cell_bound(keyed_extents, row_extents, sign):
    # 2^62 - 1 cells keep every key +- p . strides inside int64; one cell
    # more sorts the rows and maps lags through a dict.  Both routes give the
    # reference tables and lag maps, for lags that reach the box edge or
    # step past it
    assert math.prod(keyed_extents) == 2**62 - 1 and math.prod(row_extents) == 2**62
    for extents, keyed in [(keyed_extents, True), (row_extents, False)]:
        d = len(extents)
        lo = np.array([sign * 2**61 - 7 * j for j in range(d)], dtype=np.int64)
        hi = lo + np.array(extents, dtype=np.int64) - 1
        corner = np.where(np.arange(d) % 2 == 0, lo, hi)
        mid = lo + (hi - lo) // 2
        rows = np.array([lo, hi, mid, corner, lo, hi, mid, lo], dtype=np.int64)
        path = _hand_path(rows)
        table = localtime.path_table(path)
        assert (table.keys is not None) == keyed
        assert_reference_table(table, rows)
        if keyed:
            # box order is lexicographic order: the keys ascend with the sites
            assert np.all(np.diff(table.keys) > 0)
        want = Counter(map(tuple, rows.tolist()))
        for wlo, whi in [(0, len(rows)), (2, 6)]:
            tab = localtime.local_times(path, (wlo, whi))
            assert _items(tab) == sorted(Counter(map(tuple, rows[wlo:whi].tolist())).items())
        full = localtime.window_tables(path, [(0, len(rows))])[0]
        assert full[table.inverse].tolist() == [want[tuple(r)] for r in rows.tolist()]
        span = hi - lo
        lags = [np.zeros(d, dtype=np.int64), span, -span, span + 1, np.ones(d, dtype=np.int64),
                -np.ones(d, dtype=np.int64), hi - mid, corner - lo, lo - corner]
        lags += [np.eye(d, dtype=np.int64)[j] * (extents[j] - 1) for j in range(d)]
        lags += [np.eye(d, dtype=np.int64)[j] * extents[j] for j in range(d)]
        for p in lags:
            assert localtime.site_shift(path, p).tolist() == reference_shift(table.sites, p)
            assert prefix_pairs(path, len(rows), p) == \
                brute_pair_count(rows, (0, len(rows)), (0, len(rows)), p)


@pytest.mark.parametrize("d, bits", [(2, 31), (3, 20)])
def test_packed_key_bit_width_boundary(d, bits):
    # sites at +-(2^bits - 2) and +-(2^bits - 1) span a box past 2^62 cells
    # and take the row route; the same sites clipped to [0, edge] are keyed
    # while the box stays under 2^62 cells.  Both routes give the same tables
    routes = set()
    for edge in (2**bits - 2, 2**bits - 1):
        full = np.array([[edge] * d, [-edge] * d, [0] * d, [edge] + [-edge] * (d - 1),
                         [-edge] + [edge] * (d - 1), [edge] * d, [0] * d, [edge] * d],
                        dtype=np.int64)
        for rows in (full, np.maximum(full, 0)):
            path = _hand_path(rows)
            table = localtime.path_table(path)
            keyed = math.prod((rows.max(axis=0) - rows.min(axis=0) + 1).tolist()) < 2**62
            assert (table.keys is not None) == keyed
            routes.add(keyed)
            assert_reference_table(table, rows)
            want = Counter(map(tuple, rows.tolist()))
            for lo, hi in [(0, len(rows)), (2, 6)]:
                tab = localtime.local_times(path, (lo, hi))
                assert _items(tab) == sorted(Counter(map(tuple, rows[lo:hi].tolist())).items())
            counts = localtime.window_tables(path, [(0, len(rows))])[0]
            assert counts[table.inverse].tolist() == [want[tuple(r)] for r in rows.tolist()]
            assert prefix_pairs(path, len(rows), (0,) * d) == \
                sum(c * c for c in want.values())
            # a lag that moves the edge sites one past the box edge
            for p in [(1,) * d, (-1,) * d]:
                assert prefix_pairs(path, len(rows), p) == \
                    brute_pair_count(rows, (0, len(rows)), (0, len(rows)), p)
    assert routes == {True, False}


@pytest.mark.parametrize("sign", [1, -1])
def test_pack_sites_planar_coordinate_limits(sign):
    # planar sites in sign * [0, 2^31 - 2] fill a box of (2^31 - 1)^2 < 2^62
    # cells and are keyed; one more step on both axes makes 2^62 cells and
    # the rows are sorted instead.  Keys decode to the sites, ascend in
    # lexicographic order, and both routes index every point
    for top, keyed in [(2**31 - 2, True), (2**31 - 1, False)]:
        edge = sign * top
        points = np.array([[edge, 0], [0, edge], [edge, edge], [0, 0], [edge, 0]],
                          dtype=np.int64)
        sites, inverse, keys = localtime.unique_sites(points)
        assert (keys is not None) == keyed
        want_sites, want_inverse = reference_table(points)
        assert np.array_equal(sites, want_sites) and np.array_equal(inverse, want_inverse)
        assert np.array_equal(sites[inverse], points)
        if keyed:
            assert keys.dtype == np.int64 and keys.tolist() == reference_keys(sites)
            order = np.lexsort(points[:, ::-1].T)
            assert np.array_equal(np.argsort(keys[inverse], kind="stable"), order)


@given(st.integers(1, 5), st.integers(1, 120), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 1000, 10**5]), st.sampled_from([0, 2**40, -(2**40)]))
@settings(max_examples=80, deadline=None)
def test_pair_count_tables_match_brute_force(d, n, seed, scale, offset):
    # scale 1 keeps the box dense; 1000 and 10^5 take np.unique on the keys
    # or, past 2^62 cells (d >= 4 at 10^5), the rows
    gen = np.random.default_rng(seed)
    points = gen.integers(-3, 4, size=(n, d)) * scale + offset
    path = _hand_path(points)
    pairs = [tuple(tuple(sorted(gen.integers(0, n + 1, size=2).tolist())) for _ in range(2))
             for _ in range(3)]
    lags = [(0,) * d, (-scale,) * d, tuple((gen.integers(-4, 5, size=d) * scale).tolist())]
    lags += [tuple((points[i] - points[j]).tolist()) for i, j in gen.integers(0, n, size=(3, 2))]
    got = localtime.pair_count_tables(path, pairs, lags)
    assert got.dtype == np.int64 and got.shape == (len(pairs), len(lags))
    assert got.tolist() == [[brute_pair_count(path.positions, wi, wj, p) for p in lags]
                            for wi, wj in pairs]
    sites = localtime.path_table(path).sites
    for p in lags:
        assert localtime.site_shift(path, p).tolist() == reference_shift(sites, p)


def test_windows_of_one_path_share_one_sort(lazy_model, monkeypatch):
    calls = []
    tabulate = localtime._path_sites
    monkeypatch.setattr(localtime, "_path_sites", lambda p: calls.append(1) or tabulate(p))
    path = walk.sample_path(lazy_model, 1000, seed=8)
    first = localtime.local_times(path, (0, 600))
    second = localtime.local_times(path, (400, 1000))
    assert len(calls) == 1
    assert localtime.path_table(path) is localtime.path_table(path)
    assert first.total() == 600 and second.total() == 600
    localtime.local_times(walk.sample_path(lazy_model, 1000, seed=9), (0, 10))
    assert len(calls) == 2


def _unique_route(points, monkeypatch):
    """unique_sites of the points, checked against the references value for
    value and dtype for dtype; returns whether np.unique ran."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    got = localtime.unique_sites(points)
    monkeypatch.undo()
    assert_reference_table(localtime.PathTable(*got), points)
    return bool(calls)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("offset", [0, -1000, -(2**19)])
def test_counting_sort_matches_sorting(d, offset, monkeypatch):
    gen = np.random.default_rng(d * 7 + offset % 5)
    for n in (1, 2, 50, 3000):
        points = np.cumsum(gen.integers(-1, 2, size=(n, d)), axis=0) + offset
        _unique_route(points, monkeypatch)  # 3000 steps in 3-d overflow the box
        assert not _unique_route(np.repeat(points[:7], 5, axis=0), monkeypatch)


def test_counting_sort_one_point_and_repeated_points(monkeypatch):
    for d in (1, 2, 3):
        assert not _unique_route(np.full((1, d), -3, dtype=np.int64), monkeypatch)
        assert not _unique_route(np.full((9, d), 4, dtype=np.int64), monkeypatch)
    two = np.array([[0, -1], [-2, 5], [0, -1], [-2, 5], [0, -1]], dtype=np.int64)
    assert not _unique_route(two, monkeypatch)


@pytest.mark.parametrize("dense, extents", [
    (True, (65552,)), (False, (65553,)),
    (True, (16, 4097)), (False, (3, 21851)),
    (True, (16, 17, 241)), (False, (3, 1, 21851)),
])
def test_counting_sort_cell_bound(dense, extents, monkeypatch):
    # four points span the box; 4 * 4 + 65536 = 65552 cells is the last
    # the counting sort takes, one cell more goes to np.unique on the keys
    lo = np.array([-5, -7, 11][:len(extents)])
    hi = lo + np.array(extents) - 1
    points = np.stack([lo, hi, hi, (lo + hi) // 2])
    assert 4 * len(points) + localtime._DENSE_SLACK == 65552
    assert _unique_route(points, monkeypatch) is not dense


@pytest.mark.parametrize("far", [[[-(2**61)], [2**61]], [[-(2**30), 5], [2**30, -5]],
                                 [[2**19, 0, -(2**19)], [-(2**19), 1, 2**19]]])
def test_far_apart_points_take_the_sort(far, monkeypatch):
    assert _unique_route(np.array(far, dtype=np.int64), monkeypatch)


@st.composite
def _stepped_paths(draw):
    """A WalkPath of random atoms in d = 1..5 (drifted or not, with steps that
    stretch the box past the counting bound, and in d >= 4 past 2^62 cells)
    from an origin that may sit far from 0."""
    d = draw(st.integers(1, 5))
    reach = draw(st.sampled_from([1, 3, 40]))
    atoms = draw(st.lists(st.tuples(*[st.integers(-reach, reach)] * d), min_size=1,
                          max_size=20, unique=True))
    law = walk.increment_law([(a, 1 / len(atoms)) for a in atoms])
    n = draw(st.integers(1, 400))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = gen.integers(0, len(atoms), size=n - 1).astype(walk.step_dtype(law))
    origin = tuple(draw(st.sampled_from([0, 5, 2**40, -(2**40), 2**62 - reach * n]))
                   for _ in range(d))
    return walk.WalkPath(model=walk.build_walk_model(law), n=n, seed=0, origin=origin,
                         steps=steps)


def _walk_positions(n, d, seed):
    """n positions of a lazy walk in d dimensions from the origin."""
    steps = np.random.default_rng(seed).integers(-1, 2, size=(n - 1, d))
    return np.concatenate([np.zeros((1, d), dtype=np.int64), np.cumsum(steps, axis=0)])


# four points spanning boxes of 4 * 4 + _DENSE_SLACK = 65552 cells, the last
# the counting sort takes, and of 65553 cells, past it
_BOUNDARY_PATHS = {
    "dense1d": [[-5], [65546], [65546], [3]], "sorted1d": [[-5], [65547], [65547], [3]],
    "dense2d": [[-5, -7], [10, 4089], [10, 4089], [2, 2041]],
    "sorted2d": [[-5, -7], [-3, 21843], [-3, 21843], [-4, 10918]],
}


@given(_stepped_paths())
@settings(max_examples=150, deadline=None)
@example(_hand_path([[5, -2]]))  # n = 1: no steps, an empty chunk buffer
@example(_hand_path([[0], [3]]))  # n = 2: one step
@example(_hand_path(_walk_positions(walk.STEP_CHUNK + 101, 2, 1)))  # a short last chunk
@example(_hand_path(_walk_positions(2 * walk.STEP_CHUNK + 1, 3, 2)))  # two full chunks
@example(_hand_path(_BOUNDARY_PATHS["dense1d"]))
@example(_hand_path(_BOUNDARY_PATHS["sorted1d"]))
@example(_hand_path(_BOUNDARY_PATHS["dense2d"]))
@example(_hand_path(_BOUNDARY_PATHS["sorted2d"]))
def test_path_table_from_steps_equals_unique_sites(path):
    # the table counted from the steps is the sort of the positions, value
    # for value and dtype for dtype, on every route, and so are its lag maps
    table = localtime.path_table(path)
    assert_reference_table(table, path.positions)
    for p in [(1,) + (0,) * (path.model.dimension - 1), path.positions[-1] - path.positions[0]]:
        assert localtime.site_shift(path, p).tolist() == reference_shift(table.sites, p)


@pytest.mark.parametrize("law", [walk.lazy_walk_law_2d(), walk.simple_walk_law(3),
                                 walk.simple_walk_law(5)], ids=["lazy2d", "simple3d", "simple5d"])
def test_path_table_never_builds_positions(law, monkeypatch):
    path = walk.sample_path(walk.build_walk_model(law), 5000, seed=3)
    want = path.positions

    def forbidden(self):
        raise AssertionError("the site table read the path's positions")

    monkeypatch.setattr(walk.WalkPath, "positions", property(forbidden))
    table = localtime.path_table(path)
    monkeypatch.undo()
    assert_reference_table(table, want)


def test_planar_path_keeps_one_byte_per_step(lazy_model):
    # a 2^20-step lazy2d path is its steps, one byte each; drawing it and
    # tabulating its sites peaks at 12.1 MiB.  The bound fails a counting
    # sort that keeps its per-cell marks and ranks while it decodes the sites
    # (17.5 MiB), and int64 positions (40 MiB)
    n = 2**20
    tracemalloc.start()
    try:
        path = walk.sample_path(lazy_model, n, 5)
        localtime.path_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.steps.nbytes == n - 1
    assert peak <= 14 * 2**20


@pytest.mark.parametrize("name", list(_BOUNDARY_PATHS))
def test_path_table_cell_bound(name, monkeypatch):
    # the boundary paths of the test above take the route their names say
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    path = _hand_path(_BOUNDARY_PATHS[name])
    extents = np.ptp(path.positions, axis=0) + 1
    assert math.prod(extents.tolist()) == 4 * path.n + localtime._DENSE_SLACK \
        + name.startswith("sorted")
    localtime.path_table(path)
    assert bool(calls) is name.startswith("sorted")


def test_window_tables_range_guard(lazy_model):
    path = walk.sample_path(lazy_model, 300, 2)
    assert localtime.window_tables(path, [(100, 300)])[0].sum() == 200
    sites = len(localtime.path_table(path).sites)
    for lo in (0, 150, 300):  # an empty window counts nothing
        empty = localtime.window_tables(path, [(lo, lo), (0, 1)])
        assert empty.dtype == np.int64 and empty.shape == (2, sites + 1)
        assert not empty[0].any() and empty[1].sum() == 1
    with pytest.raises(IndexError):
        localtime.window_tables(path, [(100, 301)])


def test_planar_path_is_tabulated_without_np_unique(lazy_model, monkeypatch):
    path = walk.sample_path(lazy_model, 2**16, seed=4)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.unique called on a planar walk path")

    monkeypatch.setattr(np, "unique", forbidden)
    table = localtime.path_table(path)
    assert table.keys is not None
    assert len(table.inverse) == 2**16

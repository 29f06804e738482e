from collections import Counter
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwscenery import harness, localtime, walk


def brute_pair_count(positions, wi, wj, p):
    p = np.asarray(p, dtype=np.int64)
    total = 0
    for u in range(*wi):
        total += int(np.sum(np.all(positions[wj[0]:wj[1]] == positions[u] - p, axis=1)))
    return total


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
    small = localtime.pair_count(path, (100, 500), (1500, 2000), (0, 0))
    bigger = localtime.pair_count(path, (100, 900), (1500, 2000), (0, 0))
    biggest = localtime.pair_count(path, (100, 900), (1200, 2400), (0, 0))
    assert small <= bigger <= biggest


def test_pair_count_trivial_cases():
    const = walk.build_walk_model(walk.deterministic_law((0, 0)))
    n = 64
    path = walk.sample_path(const, n, seed=0)
    assert localtime.pair_count(path, (0, n), (0, n), (0, 0)) == n * n
    straight = walk.sample_path(walk.build_walk_model(walk.deterministic_law((1, 0))), n, seed=0)
    assert localtime.pair_count(straight, (0, n), (0, n), (0, 0)) == n


def test_self_intersections_straight_path():
    m = walk.build_walk_model(walk.deterministic_law((1, 0)))
    path = walk.sample_path(m, 100, seed=0)
    assert localtime.self_intersections(path, 100) == 100
    assert localtime.self_intersections(path, 100, (1, 0)) == 99
    assert localtime.self_intersections(path, 100, (-1, 0)) == 99


def test_self_intersection_symmetry(lazy_model):
    path = walk.sample_path(lazy_model, 2000, seed=17)
    for p in [(1, 0), (0, 1), (2, -1)]:
        mp = tuple(-c for c in p)
        assert localtime.self_intersections(path, 2000, p) == \
            localtime.self_intersections(path, 2000, mp)


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


def test_additivity_over_disjoint_windows(lazy_model):
    path = walk.sample_path(lazy_model, 4000, seed=23)
    i, j = (100, 1300), (1300, 3100)
    u = (100, 3100)
    p = (1, 0)
    total = localtime.pair_count(path, u, u, p)
    parts = (localtime.pair_count(path, i, i, p) + localtime.pair_count(path, j, j, p)
             + localtime.pair_count(path, i, j, p) + localtime.pair_count(path, j, i, p))
    assert total == parts


def test_shift_covariance(lazy_model):
    # counts over [b, b+k) match the path re-based at time b
    path = walk.sample_path(lazy_model, 3000, seed=31)
    b, k = 700, 900
    rebased = walk.WalkPath(model=path.model, n=k, seed=path.seed, origin=(0, 0),
                            steps=path.steps[b:b + k - 1])
    for p in [(0, 0), (1, 0)]:
        assert localtime.pair_count(path, (b, b + k), (b, b + k), p) == \
            localtime.self_intersections(rebased, k, p)


@given(st.integers(0, 2**31 - 1), st.integers(2, 600))
@settings(max_examples=20, deadline=None)
def test_super_additivity_of_self_intersections(seed, n):
    # V(omega,[0,k)) + V(omega,[k,n)) <= V(omega,[0,n))
    m = walk.build_walk_model(walk.lazy_walk_law_2d())
    path = walk.sample_path(m, n, seed=seed)
    k = n // 2
    left = localtime.pair_count(path, (0, k), (0, k), (0, 0))
    right = localtime.pair_count(path, (k, n), (k, n), (0, 0))
    total = localtime.pair_count(path, (0, n), (0, n), (0, 0))
    assert left + right <= total


def test_bounded_sum_over_p_and_diagonal(lazy_model):
    path = walk.sample_path(lazy_model, 1500, seed=2)
    n = 1500
    ps = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    total = sum(localtime.self_intersections(path, n, p) for p in ps)
    assert total <= n * n
    assert localtime.self_intersections(path, n) >= n


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


def test_dict_fallback_for_high_dimension():
    law = walk.increment_law([((1, 0, 0, 0), 0.5), ((-1, 0, 0, 0), 0.5)])
    m = walk.build_walk_model(law)
    path = walk.sample_path(m, 200, seed=6)
    tab = localtime.local_times(path, (0, 200))
    assert localtime.path_table(path).keys is None
    assert tab.total() == 200
    assert localtime.self_intersections(path, 200) == \
        brute_pair_count(path.positions, (0, 200), (0, 200), (0, 0, 0, 0))


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


@pytest.mark.parametrize("d, bits", [(2, 31), (3, 20)])
def test_packed_key_bit_width_boundary(d, bits):
    # |coordinate| <= 2^bits - 2 packs into uint64 keys; 2^bits - 1 takes
    # the row route, which must give the same table
    for edge, packed in [(2**bits - 2, True), (2**bits - 1, False)]:
        rows = [[edge] * d, [-edge] * d, [0] * d, [edge] + [-edge] * (d - 1),
                [-edge] + [edge] * (d - 1), [edge] * d, [0] * d, [edge] * d]
        path = _hand_path(rows)
        assert (localtime.path_table(path).keys is not None) == packed
        want = Counter(map(tuple, rows))
        for lo, hi in [(0, len(rows)), (2, 6)]:
            tab = localtime.local_times(path, (lo, hi))
            assert _items(tab) == sorted(Counter(map(tuple, rows[lo:hi])).items())
        full = localtime.window_tables(path, [(0, len(rows))])[0]
        assert full[localtime.path_table(path).inverse].tolist() == [want[tuple(r)] for r in rows]
        assert localtime.self_intersections(path, len(rows)) == \
            sum(c * c for c in want.values())
        # a lag that moves the edge sites one past the width takes the dict route
        for p in [(1,) * d, (-1,) * d]:
            assert localtime.self_intersections(path, len(rows), p) == \
                brute_pair_count(path.positions, (0, len(rows)), (0, len(rows)), p)


@given(st.integers(1, 4), st.integers(1, 120), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_pair_count_tables_match_brute_force(d, n, seed, near_edge):
    # d = 4 has no packed keys; near the edge, a site at the last packable
    # coordinate is pushed past the width by the lag -1 (and by some others)
    gen = np.random.default_rng(seed)
    points = gen.integers(-3, 4, size=(n, d))
    if near_edge and d in localtime._PACK_BITS:
        points += 2 ** localtime._PACK_BITS[d] - 5
        points[0] = 2 ** localtime._PACK_BITS[d] - 2
    path = _hand_path(points)
    pairs = [tuple(tuple(sorted(gen.integers(0, n + 1, size=2).tolist())) for _ in range(2))
             for _ in range(3)]
    lags = [(0,) * d, (-1,) * d, tuple(gen.integers(-4, 5, size=d).tolist())]
    lags += [tuple((points[i] - points[j]).tolist()) for i, j in gen.integers(0, n, size=(3, 2))]
    got = localtime.pair_count_tables(path, pairs, lags)
    assert got.dtype == np.int64 and got.shape == (len(pairs), len(lags))
    assert got.tolist() == [[brute_pair_count(path.positions, wi, wj, p) for p in lags]
                            for wi, wj in pairs]


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


def _sorted_reference(points):
    """unique_sites before the counting sort, verbatim: np.unique on packed
    keys when they fit, else on the rows."""
    d = points.shape[1]
    if localtime._pack_shift_ok(points, d):
        keys, inverse = np.unique(localtime.pack_sites(points, d), return_inverse=True)
        sites = localtime.unpack_sites(keys, d)
    else:
        sites, inverse = np.unique(points, axis=0, return_inverse=True)
        keys = None
    return sites, inverse.reshape(-1).astype(np.int32), keys


def _unique_route(points, monkeypatch):
    """unique_sites of the points, checked against the sorting reference
    value for value and dtype for dtype; returns whether np.unique ran."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    got = localtime.unique_sites(points)
    monkeypatch.undo()
    for g, w in zip(got, _sorted_reference(points)):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)
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
    # the counting sort takes, one cell more goes to the packed sort
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
    """A WalkPath of random atoms (drifted or not, with steps that stretch the
    box past the counting bound) from an origin that may sit at the packing edge."""
    d = draw(st.integers(1, 4))
    reach = draw(st.sampled_from([1, 3, 40]))
    atoms = draw(st.lists(st.tuples(*[st.integers(-reach, reach)] * d), min_size=1,
                          max_size=20, unique=True))
    law = walk.increment_law([(a, 1 / len(atoms)) for a in atoms])
    n = draw(st.integers(1, 400))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = gen.integers(0, len(atoms), size=n - 1).astype(walk.step_dtype(law))
    edge = 2 ** localtime._PACK_BITS.get(d, 20) - 2
    origin = tuple(draw(st.sampled_from([0, 5, edge, -edge, edge - reach * n]))
                   for _ in range(d))
    return walk.WalkPath(model=walk.build_walk_model(law), n=n, seed=0, origin=origin,
                         steps=steps)


@given(_stepped_paths())
@settings(max_examples=150, deadline=None)
def test_path_table_from_steps_equals_unique_sites(path):
    # the table counted from the steps is the sort of the positions, value
    # for value and dtype for dtype, on every route
    got = localtime.path_table(path)
    want = localtime.unique_sites(path.positions)
    for g, w in zip((got.sites, got.inverse, got.keys), want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_planar_path_keeps_one_byte_per_step(lazy_model):
    # a 2^20-step lazy2d path is its steps, one byte each; drawing it and
    # tabulating its sites peaks at 17.5 MiB (40 MiB with int64 positions)
    n = 2**20
    tracemalloc.start()
    try:
        path = walk.sample_path(lazy_model, n, 5)
        localtime.path_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.steps.nbytes == n - 1
    assert peak <= 27 * 2**20


def test_window_tables_range_guard(lazy_model):
    path = walk.sample_path(lazy_model, 300, 2)
    assert localtime.window_tables(path, [(100, 300)])[0].sum() == 200
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


@pytest.mark.parametrize("sign", [1, -1])
def test_pack_sites_planar_coordinate_limits(sign):
    # d = 2 packs 31 bits plus a sign offset per coordinate: |x| <= 2^31 - 2
    edge = sign * (2**31 - 2)
    points = np.array([[edge, 0], [0, edge], [edge, -edge], [0, 0]], dtype=np.int64)
    assert localtime._pack_shift_ok(points, 2)
    keys = localtime.pack_sites(points, 2)
    assert np.array_equal(localtime.unpack_sites(keys, 2), points)
    order = np.lexsort(points[:, ::-1].T)
    assert np.array_equal(np.argsort(keys, kind="stable"), order)
    for j in range(2):
        past = points.copy()
        past[0, j] = sign * (2**31 - 1)
        assert not localtime._pack_shift_ok(past, 2)

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import motionlink.windex as windex

from motionlink.engine import FilterConfig, activity_filter, filter_pairs_naive
from motionlink.errors import (
    BudgetExceedsLength,
    ConfigError,
    DataError,
    MemoryCapExceeded,
)
from motionlink.model import ActivityLabel, MotionDataset, VisualDataset
from motionlink.windex import (
    build_index,
    estimate_index_memory,
    estimate_query_memory,
    filter_pairs_indexed,
    filter_with_index,
)
from series_rows import motion_series, visual_series
from windex_oracle import expansion_count, wildcard_expansions

L = ActivityLabel


def brute_arrays(v_mat, m_mat, t_abs):
    """(rows, ids, distances) of every pair within t_abs, by full scan."""
    dists = (v_mat[:, None, :] != m_mat[None, :, :]).sum(axis=2)
    rows, ids = np.nonzero(dists <= t_abs)
    return rows, ids, dists[rows, ids]


def brute_pairs(v_mat, m_mat, t_abs):
    rows, ids, _ = brute_arrays(v_mat, m_mat, t_abs)
    return set(zip(rows.tolist(), ids.tolist()))


# ---------------------------------------------------------------------------
# expansions

def test_expansion_count_values():
    assert expansion_count(5, 0) == 1
    assert expansion_count(5, 1) == 6
    assert expansion_count(5, 2) == 16
    assert expansion_count(10, 3) == 176
    assert expansion_count(7, 2) == 1 + 7 + 21


def test_expansion_count_validation():
    with pytest.raises(BudgetExceedsLength):
        expansion_count(5, 6)
    with pytest.raises(ConfigError):
        expansion_count(0, 0)
    with pytest.raises(ConfigError):
        expansion_count(5, -1)


def test_wildcard_expansions_of_a_five_symbol_sequence():
    seq = [L(4), L(7), L(6), L(3), L(4)]
    keys = wildcard_expansions(seq, 2)
    assert len(keys) == 16
    assert bytes([4, 7, 6, 3, 4]) in keys
    assert bytes([0xFF, 0xFF, 6, 3, 4]) in keys
    assert bytes([4, 0xFF, 6, 0xFF, 4]) in keys
    assert bytes([4, 7, 0xFF, 3, 0xFF]) in keys
    assert bytes([0xFF, 0xFF, 0xFF, 3, 4]) not in keys  # 3 wildcards > budget
    for key in keys:
        assert len(key) == 5
        assert sum(1 for b in key if b == 0xFF) <= 2


def test_expansions_count_matches_formula_randomized():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        t = int(rng.integers(0, k + 1))
        seq = [L(int(c)) for c in rng.integers(0, 8, k)]
        assert len(wildcard_expansions(seq, t)) == expansion_count(k, t)


# ---------------------------------------------------------------------------
# build and query

def assert_entry_counts(mat, t_abs, idx):
    """The paper's key set, enumerated, against what the index stores."""
    q, k = mat.shape
    keys = [wildcard_expansions([L(int(c)) for c in row], t_abs) for row in mat]
    assert sum(len(ks) for ks in keys) == q * sum(math.comb(k, i) for i in range(t_abs + 1))
    maximal = sum(1 for ks in keys for key in ks if key.count(0xFF) == t_abs)
    assert idx.entry_count == maximal == q * math.comb(k, t_abs)


def test_entry_count_identity():
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 8, (50, 5)).astype(np.uint8)
    assert_entry_counts(mat, 2, build_index(mat, 2))
    mat = rng.integers(0, 8, (30, 10)).astype(np.uint8)
    assert_entry_counts(mat, 3, build_index(mat, 3))


def query_ids(idx, seq):
    _, ids, _ = filter_pairs_indexed(np.array([seq], dtype=np.uint8), idx)
    return tuple(ids.tolist())


def test_query_within_budget():
    mat = np.array([
        [4, 7, 6, 3, 4],
        [4, 7, 6, 3, 0],  # distance 1 from row 0
        [0, 0, 0, 0, 0],  # distance 5
    ], dtype=np.uint8)
    idx = build_index(mat, 2)
    assert query_ids(idx, [4, 7, 6, 3, 4]) == (0, 1)
    assert query_ids(idx, [0, 0, 0, 0, 0]) == (2,)
    assert query_ids(idx, [1, 2, 3, 4, 5]) == ()


def test_identical_sequences_share_every_key():
    mat = np.array([[1, 2, 3, 4, 5], [1, 2, 3, 4, 5]], dtype=np.uint8)
    idx = build_index(mat, 2)
    rows, ids, dists = filter_pairs_indexed(mat[:1], idx)
    assert ids.tolist() == [0, 1] and dists.tolist() == [0, 0]
    seqs = [[L(int(c)) for c in row] for row in mat]
    assert wildcard_expansions(seqs[0], 2) == wildcard_expansions(seqs[1], 2)


def test_query_length_mismatch():
    idx = build_index(np.zeros((3, 5), dtype=np.uint8), 1)
    with pytest.raises(DataError):
        filter_pairs_indexed(np.zeros((1, 2), dtype=np.uint8), idx)


@pytest.mark.parametrize("k,t", [(5, 0), (5, 2), (10, 3), (8, 1), (4, 4), (60, 2), (70, 1)])
def test_index_matches_brute_force(k, t):
    rng = np.random.default_rng(100 + k + t)
    p, q = 40, 60
    v_mat = rng.integers(0, 8, (p, k)).astype(np.uint8)
    m_mat = rng.integers(0, 8, (q, k)).astype(np.uint8)
    # seed some near-duplicates so matches actually occur
    for i in range(0, p, 3):
        v_mat[i] = m_mat[rng.integers(0, q)]
        flips = rng.integers(0, k, size=rng.integers(0, t + 1))
        for f in flips:
            v_mat[i, f] = rng.integers(0, 8)
    idx = build_index(m_mat, t)
    rows, ids, dists = filter_pairs_indexed(v_mat, idx)
    got = set(zip(rows.tolist(), ids.tolist()))
    assert got == brute_pairs(v_mat, m_mat, t)
    for r, i, d in zip(rows, ids, dists):
        assert d == int((v_mat[r] != m_mat[i]).sum())
        assert d <= t


def test_long_sequences_use_hashed_keys_and_agree():
    rng = np.random.default_rng(55)
    k, t = 20, 2
    v_mat = rng.integers(0, 8, (25, k)).astype(np.uint8)
    m_mat = rng.integers(0, 8, (30, k)).astype(np.uint8)
    for i in range(0, 25, 2):
        v_mat[i] = m_mat[rng.integers(0, 30)]
        if i % 4 == 0:
            v_mat[i, rng.integers(0, k)] = rng.integers(0, 8)
    idx = build_index(m_mat, t)
    assert_entry_counts(m_mat, t, idx)
    rows, ids, _ = filter_pairs_indexed(v_mat, idx)
    assert set(zip(rows.tolist(), ids.tolist())) == brute_pairs(v_mat, m_mat, t)


@pytest.mark.parametrize("t_abs", [0, 1, 2])
def test_distinct_variants_never_share_a_key(t_abs):
    # every length-4 sequence: the index must hold one key value per distinct
    # (mask, masked sequence) variant, so no two variants share a key
    mat = np.array(list(itertools.product(range(8), repeat=4)), dtype=np.uint8)
    idx = build_index(mat, t_abs)
    keys = np.unique(idx._words >> np.uint64(windex._id_bits(len(mat))))
    variants = {key for row in mat for key in wildcard_expansions([L(int(c)) for c in row], t_abs)
                if key.count(0xFF) == t_abs}
    assert keys.size == len(variants) == math.comb(4, t_abs) * 8 ** (4 - t_abs)


@st.composite
def index_cases(draw):
    """Motion and visual code matrices for k up to 40, with duplicate rows
    and visual rows a few mutations from a motion row."""
    k = draw(st.one_of(st.integers(1, 40), st.sampled_from([15, 16])), label="k")
    t_abs = draw(st.sampled_from(sorted({0, 1, 2, k - 2, k - 1, k} & set(range(k + 1)))),
                 label="t_abs")
    q = draw(st.integers(1, 12), label="q")
    p = draw(st.integers(1, 12), label="p")
    alphabet = draw(st.sampled_from([2, 8]), label="alphabet")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    m_mat = rng.integers(0, alphabet, (q, k)).astype(np.uint8)
    m_mat[rng.random(q) < 0.3] = m_mat[0]
    v_mat = m_mat[rng.integers(0, q, p)]
    for row in v_mat:
        flips = rng.choice(k, size=int(rng.integers(0, min(t_abs + 2, k) + 1)), replace=False)
        row[flips] = (row[flips] + rng.integers(1, 8, flips.size)) % 8
    v_mat[rng.random(p) < 0.2] = m_mat[-1]
    return v_mat, m_mat, t_abs


@settings(max_examples=300, deadline=None)
@given(index_cases())
def test_index_equals_brute_force_property(case):
    v_mat, m_mat, t_abs = case
    rows, ids, dists = filter_pairs_indexed(v_mat, build_index(m_mat, t_abs))
    e_rows, e_ids, e_dists = brute_arrays(v_mat, m_mat, t_abs)
    assert rows.tolist() == e_rows.tolist()
    assert ids.tolist() == e_ids.tolist()
    assert dists.tolist() == e_dists.tolist()
    # the naive scan, at the normalized budget that floors to t_abs
    naive = filter_pairs_naive(v_mat, m_mat, t_abs / v_mat.shape[1])
    assert [a.tolist() for a in naive] == [e_rows.tolist(), e_ids.tolist(), e_dists.tolist()]


@st.composite
def block_cases(draw):
    """`index_cases` for k up to 64 with a block count: every m from 1 to
    min(k, t_abs + 2), so t_abs < m too, or None for the planned one."""
    k = draw(st.one_of(st.integers(1, 64), st.sampled_from([15, 16])), label="k")
    t_abs = draw(st.sampled_from(sorted({0, 1, 2, k - 1, k} & set(range(k + 1)))),
                 label="t_abs")
    m = draw(st.none() | st.integers(1, min(k, t_abs + 2)), label="m")
    q = draw(st.integers(1, 12), label="q")
    p = draw(st.integers(1, 12), label="p")
    alphabet = draw(st.sampled_from([2, 8]), label="alphabet")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    m_mat = rng.integers(0, alphabet, (q, k)).astype(np.uint8)
    m_mat[rng.random(q) < 0.3] = m_mat[0]
    v_mat = m_mat[rng.integers(0, q, p)]
    for row in v_mat:
        flips = rng.choice(k, size=int(rng.integers(0, min(t_abs + 2, k) + 1)), replace=False)
        row[flips] = (row[flips] + rng.integers(1, alphabet, flips.size)) % alphabet
    v_mat[rng.random(p) < 0.2] = m_mat[-1]
    return v_mat, m_mat, t_abs, m


@settings(max_examples=300, deadline=None)
@given(block_cases())
def test_block_index_equals_brute_force_property(case):
    v_mat, m_mat, t_abs, m = case
    if m is None:
        m, _ = windex.plan_index(len(v_mat), len(m_mat), v_mat.shape[1], t_abs)
    index = build_index(m_mat, t_abs, m)
    budget = t_abs // m
    assert index.entry_count == len(m_mat) * sum(
        math.comb(stop - start, budget) for start, stop, _ in index.blocks)
    rows, ids, dists = filter_pairs_indexed(v_mat, index)
    e_rows, e_ids, e_dists = brute_arrays(v_mat, m_mat, t_abs)
    assert rows.tolist() == e_rows.tolist()
    assert ids.tolist() == e_ids.tolist()
    assert dists.tolist() == e_dists.tolist()


def test_blocks_tile_the_positions_evenly():
    for k in range(1, 70):
        for m in range(1, k + 1):
            blocks = windex._blocks(k, m)
            assert len(blocks) == m and blocks[0][0] == 0 and blocks[-1][1] == k
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            lengths = {stop - start for start, stop in blocks}
            assert max(lengths) - min(lengths) <= 1


def test_block_count_is_checked():
    mat = np.zeros((3, 5), dtype=np.uint8)
    for m in (0, 6):
        with pytest.raises(ConfigError, match="block count"):
            build_index(mat, 2, m)


@pytest.mark.parametrize("k", [16, 15])
def test_hash_collisions_are_dropped_by_the_distance_check(monkeypatch, k):
    # MIX = 0 makes every position term, and so every key, 0: every variant
    # collides with every other one, and only the mismatch count tells
    # true pairs from the rest
    monkeypatch.setattr(windex, "MIX", 0)
    rng = np.random.default_rng(77)
    t_abs = 1
    m_mat = rng.integers(0, 8, (40, k)).astype(np.uint8)
    v_mat = rng.integers(0, 8, (30, k)).astype(np.uint8)
    m_mat[:, -1] = 3
    v_mat[:, -1] = 3
    v_mat[::3] = m_mat[:10]
    v_mat[1::6, 0] = (v_mat[1::6, 0] + 1) % 8
    rows, ids, dists = filter_pairs_indexed(v_mat, build_index(m_mat, t_abs))
    e_rows, e_ids, e_dists = brute_arrays(v_mat, m_mat, t_abs)
    assert 0 < rows.size < v_mat.shape[0] * m_mat.shape[0]
    assert rows.tolist() == e_rows.tolist() and ids.tolist() == e_ids.tolist()
    assert (dists <= t_abs).all() and dists.tolist() == e_dists.tolist()


@pytest.mark.parametrize("p", [12, 5000])
@pytest.mark.parametrize("q", [16, 17])
def test_index_equals_brute_force_at_the_exact_key_boundary(q, p):
    # 16 index rows fill a 4-bit row field and 17 need 5; 5000 query rows
    # widen the row field past the index's, so the query compares fewer key
    # bits than the index stores
    rng = np.random.default_rng(q * 7919 + p)
    k, t_abs = 15, 2
    m_mat = rng.integers(0, 3, (q, k)).astype(np.uint8)
    v_mat = m_mat[rng.integers(0, q, p)]
    flip = rng.random(v_mat.shape) < 0.15
    v_mat[flip] = rng.integers(0, 8, flip.sum())
    rows, ids, dists = filter_pairs_indexed(v_mat, build_index(m_mat, t_abs))
    e_rows, e_ids, e_dists = brute_arrays(v_mat, m_mat, t_abs)
    assert e_rows.size > p // 2
    assert rows.tolist() == e_rows.tolist()
    assert ids.tolist() == e_ids.tolist()
    assert dists.tolist() == e_dists.tolist()


@pytest.mark.parametrize("chunk", [1, 3, 50])
@pytest.mark.parametrize("k", [12, 30])
def test_confirmation_chunks_split_a_blocks_raw_hits(monkeypatch, k, chunk):
    # half the index rows are one row, so a key of it hits 30 entries: its
    # hits straddle chunk edges, and every block's hits span several chunks.
    # One-word rows (k=12) are confirmed as their hits expand, two-word rows
    # (k=30) once their pairs are deduped
    rng = np.random.default_rng(53)
    t_abs = 2
    m_mat = rng.integers(0, 3, (60, k)).astype(np.uint8)
    m_mat[30:] = m_mat[0]
    v_mat = m_mat[rng.integers(0, 60, 40)]
    flip = rng.random(v_mat.shape) < 0.1
    v_mat[flip] = rng.integers(0, 8, flip.sum())
    confirmed = []
    count = windex.mismatch_counts
    monkeypatch.setattr(windex, "_pair_step", lambda cells: chunk)
    monkeypatch.setattr(windex, "mismatch_counts",
                        lambda a, b, counted=None: confirmed.append(len(a)) or count(a, b, counted))
    want = brute_arrays(v_mat, m_mat, t_abs)
    for m in (1, 2, 3):
        confirmed.clear()
        got = filter_pairs_indexed(v_mat, build_index(m_mat, t_abs, m))
        assert max(confirmed) <= chunk and len(confirmed) >= 3 * m
        for col, expected in zip(got, want):
            assert col.dtype == np.int64 and col.tolist() == expected.tolist()


def test_empty_index_and_empty_query_find_no_pairs():
    codes = np.random.default_rng(3).integers(0, 8, (4, 5)).astype(np.uint8)
    empty = np.zeros((0, 5), dtype=np.uint8)
    for v_mat, m_mat in ((codes, empty), (empty, codes), (empty, empty)):
        got = filter_pairs_indexed(v_mat, build_index(m_mat, 1))
        naive = filter_pairs_naive(v_mat, m_mat, 1 / 5)
        assert [a.dtype for a in got] == [np.int64] * 3
        assert [a.tolist() for a in got] == [a.tolist() for a in naive] == [[], [], []]


def test_budget_monotonicity():
    rng = np.random.default_rng(8)
    v_mat = rng.integers(0, 8, (30, 8)).astype(np.uint8)
    m_mat = rng.integers(0, 8, (30, 8)).astype(np.uint8)
    prev = set()
    for t in range(4):
        idx = build_index(m_mat, t)
        rows, ids, _ = filter_pairs_indexed(v_mat, idx)
        got = set(zip(rows.tolist(), ids.tolist()))
        assert prev <= got
        prev = got


def test_filter_with_index_equals_naive_filter():
    rng = np.random.default_rng(9)
    n = 10
    q, p = 40, 30
    m = MotionDataset([
        motion_series(f"m{j:03d}", rng.integers(0, 8, n)) for j in range(q)
    ])
    visuals = []
    for i in range(p):
        codes = m.codes[rng.integers(0, q)].copy()
        for f in rng.integers(0, n, size=rng.integers(0, 4)):
            codes[f] = rng.integers(0, 8)
        visuals.append(visual_series(f"a{i:03d}", codes))
    v = VisualDataset(visuals)
    t_abs = 3
    cfg = FilterConfig(t_norm=t_abs / n)
    naive = activity_filter(v, m, cfg)
    indexed = filter_with_index(v, m, t_abs)
    assert indexed == naive


def test_filter_with_index_checks_inputs_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("index built before the inputs were checked")

    monkeypatch.setattr(windex, "build_index", no_build)
    rng = np.random.default_rng(10)
    m = MotionDataset([motion_series(f"m{j}", rng.integers(0, 8, 6)) for j in range(5)])
    with pytest.raises(DataError):
        filter_with_index(VisualDataset([visual_series("a0", rng.integers(0, 8, 7))]), m, 2)
    v = VisualDataset([visual_series("a0", rng.integers(0, 8, 6))])
    with pytest.raises(BudgetExceedsLength):
        filter_with_index(v, m, 7)
    with pytest.raises(ConfigError):
        filter_with_index(v, m, -1)


# ---------------------------------------------------------------------------
# memory cap

def test_memory_estimate_grows():
    small = estimate_index_memory(100, 10, 3)
    big = estimate_index_memory(10_000, 10, 3)
    assert 0 < small < big
    assert estimate_index_memory(100, 10, 3) < estimate_index_memory(100, 10, 5)


def test_memory_estimate_bounds_measured_build_peak():
    rng = np.random.default_rng(31)
    for q in (1_000, 10_000):
        for k in (5, 10, 15, 16, 20, 30):
            mat = rng.integers(0, 8, (q, k)).astype(np.uint8)
            for t_abs in range(4):
                tracemalloc.start()
                try:
                    build_index(mat, t_abs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                estimate = estimate_index_memory(q, k, t_abs)
                assert estimate >= peak, (q, k, t_abs, estimate, peak)


def test_query_estimate_bounds_measured_query_peak(monkeypatch):
    # the estimate filter_pairs_indexed checks once the raw hits are counted
    # bounds the query's whole peak; the index is built before tracing starts
    estimates = []
    monkeypatch.setattr(windex, "estimate_query_memory",
                        lambda *args: estimates.append(estimate_query_memory(*args))
                        or estimates[-1])
    rng = np.random.default_rng(37)
    for q in (1_000, 10_000):
        for k in (5, 10, 15, 16, 20):
            mat = rng.integers(0, 8, (q, k)).astype(np.uint8)
            queries = mat[rng.integers(0, q, 500)]
            flip = rng.random(queries.shape) < 0.15
            queries[flip] = rng.integers(0, 8, flip.sum())
            for t_abs in range(4):
                index = build_index(mat, t_abs)
                estimates.clear()
                tracemalloc.start()
                try:
                    filter_pairs_indexed(queries, index)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert len(estimates) == 2 and max(estimates) >= peak, \
                    (q, k, t_abs, estimates, peak)


def block_memory_cases():
    """(q, k, t_abs, m) with m > 1 for q in {10^3, 10^4} and k in {10, 20,
    60}, where the m-block build stays under 64 MiB."""
    for q in (1_000, 10_000):
        for k, budgets in ((10, (1, 3)), (20, (2, 5)), (60, (3, 18))):
            for t_abs in budgets:
                for m in range(2, t_abs + 3):
                    if estimate_index_memory(q, k, t_abs, m) <= 64 * 1024 ** 2:
                        yield q, k, t_abs, m


def test_block_memory_estimates_bound_measured_peaks(monkeypatch):
    # the build's peak, and the query's against a built index, under the
    # estimates summed over the blocks; the query is checked once before
    # its keys and once per block, with the raw hits so far
    estimates = []
    monkeypatch.setattr(windex, "estimate_query_memory",
                        lambda *args: estimates.append(estimate_query_memory(*args))
                        or estimates[-1])
    rng = np.random.default_rng(41)
    cases = list(block_memory_cases())
    assert {(q, k) for q, k, _, _ in cases} == {(q, k) for q in (1_000, 10_000)
                                                 for k in (10, 20, 60)}
    for q, k, t_abs, m in cases:
        mat = rng.integers(0, 8, (q, k)).astype(np.uint8)
        queries = mat[rng.integers(0, q, 500)]
        flip = rng.random(queries.shape) < 0.15
        queries[flip] = rng.integers(0, 8, flip.sum())
        tracemalloc.start()
        try:
            index = build_index(mat, t_abs, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = estimate_index_memory(q, k, t_abs, m)
        assert estimate >= peak, (q, k, t_abs, m, estimate, peak)
        estimates.clear()
        tracemalloc.start()
        try:
            filter_pairs_indexed(queries, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(estimates) == m + 1 and max(estimates) >= peak, \
            (q, k, t_abs, m, estimates, peak)


def test_query_charges_one_block_of_lookup_keys(monkeypatch):
    # each block frees its lookup keys before the next packs its own, so a
    # cap that holds every block's keys at their 33 bytes each, and no more
    # of the query, admits the 6-block query: no refusal, the scan's pairs,
    # and a peak under the last estimate
    p = q = 1000
    k, t_abs, m = 60, 18, 6
    rng = np.random.default_rng(43)
    mat = rng.integers(0, 8, (q, k)).astype(np.uint8)
    queries = mat[rng.integers(0, q, p)]
    flip = rng.random(queries.shape) < 0.15
    queries[flip] = rng.integers(0, 8, flip.sum())
    index = build_index(mat, t_abs, m)
    every_block_keys = p * m * math.comb(k // m, t_abs // m) * 33
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP",
                       str(index._words.nbytes + index.packed.nbytes + every_block_keys))
    estimates = []
    monkeypatch.setattr(windex, "estimate_query_memory",
                        lambda *args: estimates.append(estimate_query_memory(*args))
                        or estimates[-1])
    tracemalloc.start()
    try:
        got = filter_pairs_indexed(queries, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for col, expected in zip(got, filter_pairs_naive(queries, mat, 0.3)):
        np.testing.assert_array_equal(col, expected)
    assert got[0].size >= p // 2
    assert len(estimates) == m + 1 and peak <= estimates[-1]


def test_query_cap_refusal(monkeypatch):
    mat = np.zeros((1000, 10), dtype=np.uint8)
    index = build_index(mat, 3)
    # every query key hits all 1000 identities: the raw hits blow the cap
    # though the query keys alone fit
    keys_only = estimate_query_memory(10, 10, 3) + index.entry_count * 16 + 20_000
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(keys_only))
    with pytest.raises(MemoryCapExceeded, match="raw hits"):
        filter_pairs_indexed(mat[:10], index)
    v = VisualDataset([visual_series("a0", [0] * 10)])
    m = MotionDataset([motion_series(f"m{j}", [0] * 10) for j in range(20)])
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(estimate_index_memory(20, 10, 3) + 1))
    with pytest.raises(MemoryCapExceeded, match="its query"):
        filter_with_index(v, m, 3)


def test_plan_refuses_when_no_block_count_fits(monkeypatch):
    # the plan is the one up-front decision: over the cap at every m, it
    # raises, naming the smallest estimate, where it used to return that m
    p, q, k, t_abs = 200, 300, 12, 3
    needs = {m: estimate_index_memory(q, k, t_abs, m) + estimate_query_memory(p, k, t_abs, 0, m)
             for m in range(1, t_abs + 2)}
    m = min(needs, key=needs.get)
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "1024")
    with pytest.raises(MemoryCapExceeded) as err:
        windex.plan_index(p, q, k, t_abs)
    assert str(err.value) == (f"index over q={q} k={k} t_abs={t_abs} and its query of p={p} "
                              f"at m={m} needs about {needs[m]} bytes, cap is 1024")
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(needs[m]))
    assert windex.plan_index(p, q, k, t_abs)[0] == m
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "64MiB")
    with pytest.raises(ConfigError):
        windex.plan_index(p, q, k, t_abs)


def test_memory_cap_refusal(monkeypatch):
    mat = np.zeros((1000, 10), dtype=np.uint8)
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "1000")
    with pytest.raises(MemoryCapExceeded):
        build_index(mat, 3)
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(10 ** 9))
    build_index(mat, 3)  # generous cap is fine


def test_memory_cap_env_var(monkeypatch):
    mat = np.zeros((1000, 10), dtype=np.uint8)
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "1000")
    with pytest.raises(MemoryCapExceeded):
        build_index(mat, 3)
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "not-a-number")
    with pytest.raises(ConfigError):
        build_index(mat, 3)


def test_build_validation():
    with pytest.raises(BudgetExceedsLength):
        build_index(np.zeros((2, 3), dtype=np.uint8), 4)
    with pytest.raises(DataError):
        build_index(np.full((2, 3), 9, dtype=np.uint8), 1)
    with pytest.raises(DataError):
        build_index(np.zeros(5, dtype=np.uint8), 1)

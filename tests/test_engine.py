import ast
import logging
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import event, given, settings
from hypothesis import strategies as st

from motionlink import engine, windex
from motionlink.engine import (
    CandidatePairSet,
    FilterConfig,
    RankEntry,
    RankedIdentityList,
    activity_filter,
    correlate,
    _restricted_lut,
    filter_pairs_naive,
    fractional_ranks,
    mismatch_budget,
    mismatch_counts,
    pack_codes,
    rank_identities,
    ranking_from_dict,
    ranking_to_dict,
    read_rankings_jsonl,
    spearman_rho,
    write_rankings_jsonl,
)
from motionlink.errors import (
    ConfigError,
    DataError,
    EmptyRanking,
    InsufficientData,
    LengthMismatch,
    UndefinedCorrelation,
)
from motionlink.model import (
    ActivityLabel,
    MotionDataset,
    SensorPosition,
    VisualDataset,
)
from motionlink.evalbench import bench_matrices
from motionlink.pipeline import ConfusionMatrix
from motionlink.synth import CohortSpec, generate_cohort
from series_rows import motion_series, visual_series

L = ActivityLabel


def visual_mags(n, base=None, **overrides):
    """Magnitudes of every position: `overrides` by name, else `base`, else 1.0."""
    return {p.value: overrides.get(p.value, base if base is not None else [1.0] * n)
            for p in SensorPosition}


# ---------------------------------------------------------------------------
# hamming distance and budget

def hamming(a, b, restricted=None):
    """(distance, n_effective) of two label lists by elementwise compare:
    with a restricted set, only windows whose labels both lie in it count."""
    a, b = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise LengthMismatch(f"sequences of length {a.size} and {b.size}")
    counted = np.ones(a.shape, dtype=bool)
    if restricted is not None:
        codes = [int(label) for label in restricted]
        counted = np.isin(a, codes) & np.isin(b, codes)
    return int((counted & (a != b)).sum()), int(counted.sum())


def packed_hamming(a, b, restricted=None):
    """`mismatch_counts` on two label lists packed as the scan packs them;
    unrestricted, n_effective is None."""
    a, b = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    if restricted is None:
        return int(mismatch_counts(pack_codes(a), pack_codes(b))[0]), None
    lut = _restricted_lut(frozenset(restricted))
    dist, n_eff = mismatch_counts(pack_codes(a), pack_codes(b),
                                  pack_codes(lut[a]) & pack_codes(lut[b]))
    return int(dist), int(n_eff)


def test_hamming_single_mismatch_is_ten_percent():
    a = [L.WALKING] * 10
    b = [L.WALKING] * 8 + [L.IDLE] + [L.WALKING]
    distance, n_eff = hamming(a, b)
    assert distance == 1
    assert n_eff == 10
    assert distance / n_eff == pytest.approx(0.10)
    assert packed_hamming(a, b) == (1, None)


def test_hamming_identical_and_disjoint():
    a = [L.IDLE, L.WALKING, L.JUMPING]
    assert hamming(a, a)[0] == packed_hamming(a, a)[0] == 0
    b = [L.OTHER, L.BENDING, L.IDLE]
    assert hamming(a, b)[0] == packed_hamming(a, b)[0] == 3


def test_hamming_length_mismatch():
    # rows of 5 and 7 windows pack into one word each; the scan compares
    # window counts, not words
    with pytest.raises(LengthMismatch):
        filter_pairs_naive(np.zeros((1, 5), np.uint8), np.zeros((1, 7), np.uint8), 0.3)
    # the kernel sees words: rows of 21 and 22 windows differ by one
    with pytest.raises(LengthMismatch):
        packed_hamming([L.IDLE] * 21, [L.IDLE] * 22)


def test_hamming_restricted_skips_out_of_set_windows():
    a = [L.IDLE, L.HEAD_ROTATION, L.WALKING]
    b = [L.IDLE, L.OTHER, L.WALKING]
    restricted = frozenset(l for l in L if l is not L.HEAD_ROTATION)
    assert hamming(a, b, restricted) == packed_hamming(a, b, restricted) == (0, 2)


def test_hamming_restricted_requires_both_sides_in_set():
    a = [L.WALKING, L.HEAD_ROTATION]
    b = [L.HEAD_ROTATION, L.WALKING]
    restricted = frozenset({L.WALKING})
    # every window has one side outside the set
    assert hamming(a, b, restricted) == packed_hamming(a, b, restricted) == (0, 0)


def test_restricted_distance_never_exceeds_unrestricted():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        a = rng.integers(0, 8, n)
        b = rng.integers(0, 8, n)
        keep = rng.choice(list(L), size=int(rng.integers(1, 8)), replace=False)
        restricted = frozenset(L(int(l)) for l in np.atleast_1d(keep))
        full = hamming(a, b)
        part = hamming(a, b, restricted)
        assert part[0] <= full[0]
        assert part[1] <= full[1]
        assert packed_hamming(a, b)[0] == full[0]
        assert packed_hamming(a, b, restricted) == part


def test_mismatch_counts_broadcast_rows():
    # one sequence against a matrix of rows, as the filter and the offset
    # search call it, equals the row-by-row counts
    rng = np.random.default_rng(4)
    mat = rng.integers(0, 8, (6, 9)).astype(np.uint8)
    row = rng.integers(0, 8, 9).astype(np.uint8)
    restricted = frozenset({L.IDLE, L.WALKING, L.OTHER})
    lut = _restricted_lut(restricted)
    dist, n_eff = mismatch_counts(pack_codes(row), pack_codes(mat),
                                  pack_codes(lut[row]) & pack_codes(lut[mat]))
    for i in range(6):
        assert (dist[i], n_eff[i]) == hamming(row, mat[i], restricted)
    got = mismatch_counts(pack_codes(mat), pack_codes(row))[0]
    assert got.tolist() == [hamming(r, row)[0] for r in mat]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, 130) | st.sampled_from([20, 21, 22, 42, 43, 63, 64]),
       p=st.integers(1, 5), q=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       labels=st.none() | st.sets(st.sampled_from(list(L)), min_size=1))
def test_packed_kernel_equals_the_code_compare(k, p, q, seed, labels):
    # uint8 `!=` counts are the oracle for both forms the library calls:
    # rows against a matrix (the scan, the offset search) and gathered pairs
    # (the index's confirmation); rows of 21, 42 and 63 windows fill their
    # last word, and 22, 43 and 64 start a new one
    rng = np.random.default_rng(seed)
    a = rng.integers(0, len(L), (p, k), dtype=np.uint8)
    b = rng.integers(0, len(L), (q, k), dtype=np.uint8)
    b[::2] = a[rng.integers(0, p, len(b[::2]))]
    b[rng.random(b.shape) < 0.1] = 7
    rows, ids = rng.integers(0, p, 20), rng.integers(0, q, 20)
    in_a, in_b = np.ones(a.shape, dtype=bool), np.ones(b.shape, dtype=bool)
    if labels is not None:
        lut = _restricted_lut(frozenset(labels))
        in_a, in_b = lut[a], lut[b]
    counted = in_a[:, None] & in_b
    want = (((a[:, None] != b) & counted).sum(axis=-1), counted.sum(axis=-1))
    words_a, words_b = pack_codes(a), pack_codes(b)
    assert words_a.shape == (p, max(1, -(-k // 21))) and words_a.dtype == np.uint64
    if labels is None:
        got = mismatch_counts(words_a[:, None], words_b)
        assert got[1] is None
        gathered = mismatch_counts(words_a[rows], words_b[ids])[0]
    else:
        packed_in = pack_codes(in_a)[:, None] & pack_codes(in_b)
        got = mismatch_counts(words_a[:, None], words_b, packed_in)
        np.testing.assert_array_equal(got[1], want[1])
        gathered = mismatch_counts(words_a[rows], words_b[ids], packed_in[rows, ids])[0]
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(gathered, want[0][rows, ids])
    event("restricted" if labels is not None else "every window counts")


def test_mismatch_budget_floor_semantics():
    assert mismatch_budget(0.30, 10) == 3  # not 2: guard against 0.3*10=2.999...
    assert mismatch_budget(0.30, 5) == 1
    assert mismatch_budget(1.0, 7) == 7
    assert mismatch_budget(0.0, 50) == 0
    assert mismatch_budget(0.5, 0) == 0
    with pytest.raises(ConfigError):
        mismatch_budget(1.5, 10)


@pytest.mark.parametrize("t_norm", [0.0, 0.3, 0.7, 1.0])
def test_mismatch_budget_broadcasts_over_counts(t_norm):
    counts = np.arange(201)
    budgets = mismatch_budget(t_norm, counts)
    assert budgets.dtype == np.int64
    assert budgets.tolist() == [mismatch_budget(t_norm, n) for n in range(201)]
    assert budgets.tolist() == [math.floor(t_norm * n + 1e-9) for n in range(201)]
    assert all(type(mismatch_budget(t_norm, n)) is int for n in (0, 7, 200))
    with pytest.raises(DataError, match="got -1"):
        mismatch_budget(t_norm, -1)
    with pytest.raises(DataError, match="got -2"):
        mismatch_budget(t_norm, np.array([3, -2, 5]))


def _loops_around(tree: ast.AST, name: str) -> list[int]:
    """Line numbers of the calls to `name` that sit inside a loop or a
    comprehension."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = []

    def visit(node, in_loop):
        if isinstance(node, ast.Call) and in_loop and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or isinstance(node, loops))

    visit(tree, False)
    return found


def test_rank_candidates_is_never_called_in_a_loop():
    # every caller ranks all its pairs in one call
    package = Path(engine.__file__).parent
    assert [(p.name, line) for p in sorted(package.rglob("*.py"))
            for line in _loops_around(ast.parse(p.read_text()), "_rank_candidates")] == []


def test_filter_config_validation():
    with pytest.raises(ConfigError):
        FilterConfig(t_norm=-0.1)
    with pytest.raises(ConfigError):
        FilterConfig(t_norm=1.1)
    with pytest.raises(ConfigError):
        FilterConfig(t_norm=0.3, restricted=frozenset())
    cfg = FilterConfig(0.3, frozenset({L.WALKING}))
    assert cfg.restricted == frozenset({L.WALKING})


# ---------------------------------------------------------------------------
# activity filter

def brute_force_filter(visual, motion, config):
    """Independent reference: plain Python loops, no shared code path."""
    result = {}
    for v in visual:
        kept = {}
        for m in motion:
            d = 0
            n_eff = 0
            for la, lb in zip(v.codes.tolist(), m.codes.tolist()):
                if config.restricted is not None and (
                        la not in config.restricted or lb not in config.restricted):
                    continue
                n_eff += 1
                if la != lb:
                    d += 1
            budget = math.floor(config.t_norm * n_eff + 1e-9)
            if d <= budget:
                kept[m.source_id] = d
        if kept:
            result[v.source_id] = kept
    return result


def test_activity_filter_basic():
    v = VisualDataset([visual_series("a0", [4, 4, 4, 4, 4, 4, 4, 4, 4, 4])])
    m = MotionDataset([
        motion_series("m0", [4] * 10),            # distance 0
        motion_series("m1", [4] * 7 + [0, 0, 0]),  # distance 3
        motion_series("m2", [0] * 10),            # distance 10
    ])
    got = activity_filter(v, m, FilterConfig(t_norm=0.30))
    assert got.candidates("a0") == {"m0": 0, "m1": 3}
    assert got.total_pairs() == 2


def test_activity_filter_zero_threshold_requires_exact_match():
    v = VisualDataset([visual_series("a0", [4, 5, 6])])
    m = MotionDataset([
        motion_series("m0", [4, 5, 6]),
        motion_series("m1", [4, 5, 7]),
    ])
    got = activity_filter(v, m, FilterConfig(t_norm=0.0))
    assert got.candidates("a0") == {"m0": 0}


def test_activity_filter_full_threshold_keeps_everything():
    v = VisualDataset([visual_series("a0", [0, 1, 2])])
    m = MotionDataset([motion_series("m0", [7, 7, 7]), motion_series("m1", [0, 0, 0])])
    got = activity_filter(v, m, FilterConfig(t_norm=1.0))
    assert set(got.candidates("a0")) == {"m0", "m1"}


def test_activity_filter_matches_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(8):
        n = int(rng.integers(3, 15))
        p, q = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        v = VisualDataset([
            visual_series(f"a{i}", rng.integers(0, 8, n).tolist()) for i in range(p)
        ])
        m = MotionDataset([
            motion_series(f"m{j}", rng.integers(0, 8, n).tolist()) for j in range(q)
        ])
        restricted = None
        if trial % 2:
            labels = rng.choice(8, size=int(rng.integers(2, 8)), replace=False)
            restricted = frozenset(L(int(l)) for l in labels)
        cfg = FilterConfig(t_norm=float(rng.choice([0.0, 0.2, 0.3, 0.5, 1.0])),
                           restricted=restricted)
        got = activity_filter(v, m, cfg)
        assert got.pairs == brute_force_filter(v, m, cfg)


def test_activity_filter_rejects_mismatched_grids():
    v = VisualDataset([visual_series("a0", [0, 1])])
    m = MotionDataset([motion_series("m0", [0, 1, 2])])
    with pytest.raises(LengthMismatch):
        activity_filter(v, m, FilterConfig())
    v2 = VisualDataset([visual_series("a0", [0, 1], w=2.0)])
    m2 = MotionDataset([motion_series("m0", [0, 1], w=1.0)])
    with pytest.raises(Exception):
        activity_filter(v2, m2, FilterConfig())


def scalar_filter(v_mat, m_mat, t_norm, restricted):
    """(rows, ids, dists) lists of the pairs within budget, one pair and one
    window at a time: the naive scan's contract."""
    out = [], [], []
    for r, a in enumerate(v_mat.tolist()):
        for i, b in enumerate(m_mat.tolist()):
            counted = [restricted is None or (L(x) in restricted and L(y) in restricted)
                       for x, y in zip(a, b)]
            d = sum(x != y for x, y, c in zip(a, b, counted) if c)
            if d <= mismatch_budget(t_norm, sum(counted)):
                for col, value in zip(out, (r, i, d)):
                    col.append(value)
    return out


@st.composite
def scan_inputs(draw):
    """(v_mat, m_mat) label codes, p and q in 0..9 and k in 0..70, over an
    alphabet of one to eight labels; some identity rows copy an avatar's
    with a few windows changed, so pairs sit on both sides of the budget."""
    p, q, k = draw(st.integers(0, 9)), draw(st.integers(0, 9)), draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(st.integers(1, len(L)))
    v_mat = rng.integers(0, labels, (p, k), dtype=np.uint8)
    m_mat = rng.integers(0, labels, (q, k), dtype=np.uint8)
    for j in range(min(p, q) if k else 0):
        if rng.random() < 0.5:
            m_mat[j] = v_mat[rng.integers(p)]
            m_mat[j, rng.integers(0, k, rng.integers(0, 4))] = rng.integers(0, len(L))
    return v_mat, m_mat


@settings(max_examples=300, deadline=None)
@given(scan_inputs(), st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]),
       st.none() | st.frozensets(st.sampled_from(list(L)), min_size=1),
       st.sampled_from([1, 7, 4096]))
def test_blocked_scan_equals_scalar_oracle(inputs, t_norm, restricted, block_cells):
    v_mat, m_mat = inputs
    # small blocks put one row per block; 4096 puts many rows, or all, in one
    with mock.patch.object(engine, "_BLOCK_CELLS", block_cells):
        got = filter_pairs_naive(v_mat, m_mat, t_norm, restricted)
        event("several rows per block" if 4 * block_cells >= 2 * m_mat.size
              else "one row per block")
    event("pairs kept and dropped" if 0 < got[0].size < v_mat.shape[0] * m_mat.shape[0]
          else "all or none kept")
    for col, expected in zip(got, scalar_filter(v_mat, m_mat, t_norm, restricted)):
        assert col.dtype == np.int64
        assert col.tolist() == expected


def mismatch_calls(v_mat, m_mat, t_norm):
    """How many `mismatch_counts` calls the naive scan of v_mat x m_mat makes."""
    calls = []

    def counted(a, b, counted=None):
        calls.append(a.shape)
        return mismatch_counts(a, b, counted)

    with mock.patch.object(engine, "mismatch_counts", counted):
        filter_pairs_naive(v_mat, m_mat, t_norm)
    return len(calls)


def test_naive_scan_compares_blocks_of_rows():
    """On the `rank_heavy` cohort (120 x 120, 30 windows) a block holds as
    many avatar rows as fit in 4 * _BLOCK_CELLS cells; where one row's
    cells already fill a block, as at c02's 10^4 identities of 10 windows,
    each row is its own block."""
    visual, motion, _ = rank_heavy_cohort()
    step = 4 * engine._BLOCK_CELLS // motion.codes.size
    assert step > 1
    assert mismatch_calls(visual.codes, motion.codes, 0.8) == math.ceil(120 / step)
    v_mat, m_mat = bench_matrices(5, 10_000, 10)
    assert m_mat.size >= 4 * engine._BLOCK_CELLS
    assert mismatch_calls(v_mat, m_mat, 0.3) == 5


@pytest.mark.parametrize("restricted", [False, True])
def test_correlate_rejects_mixed_window_widths(restricted):
    v = VisualDataset([visual_series("a0", [0, 1], w=2.0)])
    m = MotionDataset([motion_series("m0", [0, 1], w=1.0)])
    labels = frozenset({L.IDLE, L.WALKING}) if restricted else None
    with pytest.raises(DataError, match="window width"):
        correlate(v, m, FilterConfig(t_norm=0.5, restricted=labels))


# ---------------------------------------------------------------------------
# the filter's plan

def datasets(v_mat, m_mat):
    """Visual and motion datasets over the code rows, every magnitude 1."""
    p, n = v_mat.shape
    visual = VisualDataset.from_arrays([f"a{i}" for i in range(p)], v_mat,
                                       np.ones((p, len(SensorPosition), n)), 1.0)
    motion = MotionDataset.from_arrays([f"m{j}" for j in range(len(m_mat))], m_mat,
                                       np.ones(m_mat.shape), 1.0)
    return visual, motion


def planned(monkeypatch, p, q, n, t_abs, restricted=None):
    """The path `activity_filter` takes on p x q rows of n windows at budget
    t_abs, both paths stubbed out."""
    ran, empty = [], np.zeros(0, dtype=np.int64)

    def naive(v_mat, m_mat, t_norm, labels=None):
        ran.append("naive")
        return empty, empty, empty

    def indexed(visual, motion, budget):
        assert budget == t_abs
        ran.append("indexed")
        return CandidatePairSet(visual.ids, motion.ids, empty, empty, empty)

    monkeypatch.setattr(engine, "filter_pairs_naive", naive)
    monkeypatch.setattr(windex, "filter_with_index", indexed)
    visual, motion = datasets(np.zeros((p, n), dtype=np.uint8), np.zeros((q, n), dtype=np.uint8))
    # mismatch_budget(t_abs / n, n) is t_abs exactly
    activity_filter(visual, motion, FilterConfig(t_abs / max(n, 1), restricted))
    return ran


@pytest.mark.parametrize("p, q, n, t_abs, restricted, plan, m", [
    (200, 200, 60, 18, None, "indexed", 10),  # cohort_e2e: 2.9 ms against the scan's 3.4 ms
    (120, 120, 30, 24, None, "naive", None),   # rank_heavy
    (10, 10, 40, 16, None, "naive", None),     # trace_align
    (2000, 2000, 60, 18, None, "indexed", 10),  # the README's 2000 x 60 cohort at t_norm 0.3
    (2000, 2000, 60, 3, None, "indexed", 4),   # 1.3 ms against the scan's 0.23 s
    (2000, 2000, 60, 2, None, "indexed", 3),
    (1000, 1000, 60, 59, None, "naive", None),  # short blocks match most rows
    (300, 300, 16, 16, None, "naive", None),   # t_norm 1: every pair is kept
    (271, 271, 60, 0, frozenset({L.WALKING}), "naive", None),
    (10_000, 10_000, 10, 3, frozenset(L), "naive", None),
    (10_000, 10_000, 10, 3, None, "indexed", 2),  # c02's 10^4 row and filter_scale's k10 call
    (2000, 2000, 20, 2, None, "indexed", 3),   # filter_scale's k20 call
    (1000, 10_000, 10, 3, None, "indexed", 2),  # filter_scale's naive-against-indexed call
    (271, 271, 60, 0, None, "indexed", 1),     # c07 at t_norm 0
    (2000, 2000, 60, 1, None, "indexed", 2),
], ids=["cohort_e2e", "rank_heavy", "trace_align", "readme-cohort", "k60-t3", "k60-t2",
        "k60-t59", "t-norm-one", "restricted-c07", "restricted-c02", "c02", "filter_scale-k20",
        "filter_scale-naive", "c07-exact", "k60-t1"])
def test_filter_plans_by_cost(monkeypatch, caplog, p, q, n, t_abs, restricted, plan, m):
    caplog.set_level(logging.INFO, logger="motionlink.engine")
    assert planned(monkeypatch, p, q, n, t_abs, restricted) == [plan]
    assert f"filter plan: {plan} " in caplog.text
    if m is not None:
        assert windex.plan_index(p, q, n, t_abs)[0] == m
        assert caplog.text.rstrip().endswith(f"at m={m}")


def test_filter_plans_the_naive_scan_over_zero_windows(monkeypatch):
    assert planned(monkeypatch, 500, 500, 0, 0) == ["naive"]


def test_index_over_the_cap_falls_back_to_the_naive_scan(monkeypatch, caplog):
    # 300 x 300 x 10 at t_abs 1 plans the index; a 1 KiB cap refuses it
    # before it builds anything
    caplog.set_level(logging.INFO, logger="motionlink.engine")
    v_mat, m_mat = bench_matrices(300, 300, 10)
    visual, motion = datasets(v_mat, m_mat)
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "1024")
    got = activity_filter(visual, motion, FilterConfig(t_norm=0.1))
    want = filter_pairs_naive(v_mat, m_mat, 0.1)
    assert got.rows.size > 0
    for col, expected in zip((got.rows, got.ids, got.dists), want):
        np.testing.assert_array_equal(col, expected)
    assert "filter plan: naive " in caplog.text
    assert "index refused: index over q=300 k=10 t_abs=1 and its query" in caplog.text


def test_restricted_sets_do_not_plan_the_index(monkeypatch, caplog):
    # a restricted set rules the index out, so a cap no index fits refuses
    # nothing; a malformed cap still raises on this path
    caplog.set_level(logging.INFO, logger="motionlink.engine")
    v_mat, m_mat = bench_matrices(300, 300, 10)
    visual, motion = datasets(v_mat, m_mat)
    config = FilterConfig(t_norm=0.1, restricted=frozenset({L.IDLE, L.WALKING}))
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "1024")
    with mock.patch.object(windex, "plan_index", side_effect=AssertionError("planned")):
        got = activity_filter(visual, motion, config)
    for col, expected in zip((got.rows, got.ids, got.dists),
                             filter_pairs_naive(v_mat, m_mat, 0.1, config.restricted)):
        np.testing.assert_array_equal(col, expected)
    assert got.rows.size > 0
    assert "filter plan: naive " in caplog.text and "refused" not in caplog.text
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "64MiB")
    with pytest.raises(ConfigError):
        activity_filter(visual, motion, config)


def test_query_over_the_cap_falls_back_to_the_naive_scan(monkeypatch, caplog):
    # every row is the same, so each of the 200 x 120 query keys hits all
    # 1000 rows: the cap admits the index and the query keys, not the hits
    caplog.set_level(logging.INFO, logger="motionlink.engine")
    visual, motion = datasets(np.zeros((200, 10), dtype=np.uint8),
                              np.zeros((1000, 10), dtype=np.uint8))
    cap = windex.estimate_index_memory(1000, 10, 3) + windex.estimate_query_memory(200, 10, 3)
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(cap))
    got = activity_filter(visual, motion, FilterConfig(t_norm=0.3))
    assert got.total_pairs() == 200 * 1000 and not got.dists.any()
    assert "filter plan: naive " in caplog.text
    assert "raw hits" in caplog.text


def test_paper_length_series_run_the_planned_index(monkeypatch, caplog):
    # 600 windows at t_norm 0.3 plan m=91 within a 64 MiB cap.  A charge of
    # 3k + 8 bytes per raw hit, for rows the confirmation gathered all at
    # once, refused this query after the index was built
    caplog.set_level(logging.INFO, logger="motionlink.engine")
    visual, motion, _ = generate_cohort(CohortSpec(200, 600, seed=5))
    monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(64 * 1024 ** 2))
    estimates, peaks = [], []
    estimate = windex.estimate_query_memory
    monkeypatch.setattr(windex, "estimate_query_memory",
                        lambda *args: estimates.append(estimate(*args)) or estimates[-1])
    query = windex.filter_pairs_indexed

    def traced(v_mat, index):
        tracemalloc.start()
        try:
            return query(v_mat, index)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(windex, "filter_pairs_indexed", traced)
    got = activity_filter(visual, motion, FilterConfig(t_norm=0.3))
    assert "filter plan: indexed " in caplog.text and "at m=91" in caplog.text
    for col, expected in zip((got.rows, got.ids, got.dists),
                             filter_pairs_naive(visual.codes, motion.codes, 0.3)):
        np.testing.assert_array_equal(col, expected)
    assert len(peaks) == 1 and peaks[0] <= estimates[-1]


@st.composite
def filter_inputs(draw):
    """(v_mat, m_mat) label codes, p and q in 1..300, often large enough for
    the index to pay, and k in 1..16; some identity rows copy an avatar's
    with a few windows changed."""
    sizes = st.integers(1, 300) | st.integers(150, 300)
    p, q, k = draw(sizes), draw(sizes), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v_mat = rng.integers(0, len(L), (p, k), dtype=np.uint8)
    m_mat = rng.integers(0, len(L), (q, k), dtype=np.uint8)
    copies = rng.random(q) < 0.5
    m_mat[copies] = v_mat[rng.integers(0, p, copies.sum())]
    changed = rng.random((q, k)) < 0.1
    m_mat[changed] = rng.integers(0, len(L), changed.sum())
    return v_mat, m_mat


@settings(max_examples=300, deadline=None)
@given(filter_inputs(), st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0]),
       st.none() | st.just(frozenset({L.IDLE, L.WALKING, L.BENDING})))
def test_activity_filter_equals_the_naive_scan(inputs, t_norm, restricted):
    v_mat, m_mat = inputs
    visual, motion = datasets(v_mat, m_mat)
    with mock.patch.object(windex, "filter_with_index", wraps=windex.filter_with_index) as spy:
        got = activity_filter(visual, motion, FilterConfig(t_norm, restricted))
    event("indexed" if spy.called else "naive")
    for col, expected in zip((got.rows, got.ids, got.dists),
                             filter_pairs_naive(v_mat, m_mat, t_norm, restricted)):
        assert col.dtype == np.int64
        np.testing.assert_array_equal(col, expected)


# ---------------------------------------------------------------------------
# spearman

def closed_form_spearman(x, y):
    """Textbook tie-free formula, used as the oracle."""
    rx = np.argsort(np.argsort(x)) + 1
    ry = np.argsort(np.argsort(y)) + 1
    d = rx - ry
    n = len(x)
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def test_spearman_perfect_and_inverse():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_rho(x, x) == pytest.approx(1.0)
    assert spearman_rho(x, x[::-1]) == pytest.approx(-1.0)
    # any strictly monotone transform preserves rho exactly
    y = [math.exp(v) for v in x]
    assert spearman_rho(x, y) == pytest.approx(1.0)


def test_spearman_small_example():
    assert spearman_rho([3.0, 1.0, 2.0], [2.0, 1.0, 3.0]) == pytest.approx(0.5)


def test_spearman_matches_closed_form_when_tie_free():
    rng = np.random.default_rng(33)
    for _ in range(300):
        n = int(rng.integers(3, 50))
        x = rng.normal(0, 1, n)
        y = rng.normal(0, 1, n)
        assert abs(spearman_rho(x, y) - closed_form_spearman(x, y)) < 1e-12


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(34)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        x = rng.integers(0, 5, n).astype(float)
        y = rng.integers(0, 5, n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)


def test_spearman_monotone_invariance_on_ties():
    rng = np.random.default_rng(35)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        x = rng.integers(0, 4, n).astype(float)
        y = rng.normal(0, 1, n)
        if len(set(x)) < 2:
            continue
        assert spearman_rho(x, y) == pytest.approx(
            spearman_rho(3.0 * x + 1.0, y), abs=1e-12)


def test_spearman_errors():
    with pytest.raises(InsufficientData):
        spearman_rho([1.0], [2.0])
    with pytest.raises(UndefinedCorrelation):
        spearman_rho([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


def test_fractional_ranks_with_ties():
    ranks = fractional_ranks(np.array([10.0, 20.0, 20.0, 30.0]))
    assert ranks.tolist() == [1.0, 2.5, 2.5, 4.0]
    ranks = fractional_ranks(np.array([5.0, 5.0, 5.0]))
    assert ranks.tolist() == [2.0, 2.0, 2.0]


# ---------------------------------------------------------------------------
# ranking

def test_rank_identities_prefers_matching_magnitudes():
    n = 8
    motion_vals = [1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0, 8.0]
    codes = [4] * n
    target = motion_series("m_true", codes, motion_vals)
    decoy = motion_series("m_decoy", codes, [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0])
    v = visual_series("a0", codes, visual_mags(
        n, base=[0.5] * n, left_front_pocket=[v * 10 for v in motion_vals]))
    ranking = rank_identities(v, [target, decoy])
    assert ranking.entries[0].identity_id == "m_true"
    assert ranking.entries[0].rho == pytest.approx(1.0)
    assert ranking.entries[0].position is SensorPosition.LEFT_FRONT_POCKET


def test_rank_identities_pairwise_deletion():
    n = 6
    motion_vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    m = motion_series("m0", [4] * n, motion_vals)
    # left wrist observed on 4 of 6 windows, agreeing on those; others constant
    lw = [None, 1.0, None, 2.0, 3.0, 4.0]
    v = visual_series("a0", [4] * n, visual_mags(n, base=[2.0] * n, left_wrist=lw))
    ranking = rank_identities(v, [m])
    assert ranking.entries[0].rho == pytest.approx(1.0)
    assert ranking.entries[0].position is SensorPosition.LEFT_WRIST


def test_rank_identities_skips_sparse_positions():
    n = 6
    m = motion_series("m0", [4] * n, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    sparse = [None, None, None, None, 1.0, 2.0]  # 1/3 observed < 0.5
    v = visual_series("a0", [4] * n, visual_mags(n, base=None, left_wrist=sparse))
    # all other positions are constant -> undefined, kept at -inf
    ranking = rank_identities(v, [m])
    assert ranking.entries[0].rho == float("-inf")

    # drop the coverage floor and the sparse position becomes usable
    ranking = rank_identities(v, [m], min_observed_fraction=0.2)
    assert ranking.entries[0].rho == pytest.approx(1.0)
    assert ranking.entries[0].position is SensorPosition.LEFT_WRIST


def test_rank_identities_all_skipped_raises():
    n = 4
    m = motion_series("m0", [4] * n, [1.0, 2.0, 3.0, 4.0])
    v = visual_series("a0", [4] * n, visual_mags(n, base=[None] * n))
    with pytest.raises(EmptyRanking):
        rank_identities(v, [m])


def test_rank_identities_tie_breaks_on_identity_id():
    n = 5
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    m1 = motion_series("m_b", [4] * n, vals)
    m2 = motion_series("m_a", [4] * n, [v * 2 for v in vals])  # same ranks
    v = visual_series("a0", [4] * n, visual_mags(n, base=vals))
    ranking = rank_identities(v, [m1, m2])
    assert [e.identity_id for e in ranking.entries] == ["m_a", "m_b"]
    assert ranking.entries[0].rho == ranking.entries[1].rho == pytest.approx(1.0)


def test_rank_identities_empty_candidates():
    v = visual_series("a0", [4, 4])
    ranking = rank_identities(v, [])
    assert ranking.entries == ()


def test_rank_identities_length_mismatch():
    v = visual_series("a0", [4, 4])
    m = motion_series("m0", [4, 4, 4])
    with pytest.raises(LengthMismatch):
        rank_identities(v, [m])


# ---------------------------------------------------------------------------
# batched ranking against the scalar oracle

def scalar_ranking(avatar, identities, min_observed_fraction):
    """Entries from one `spearman_rho` call per (pair, position): the
    skip rules, -inf for undefined, first position wins, (-rho, id) order."""
    entries = []
    for m in identities:
        best = None
        for position in SensorPosition:
            seq = avatar.magnitude_for(position)
            mask = seq.observed_mask
            n, n_obs = len(seq), int(mask.sum())
            if n == 0 or n_obs / n < min_observed_fraction or n_obs < 2:
                continue
            try:
                rho = spearman_rho(seq.values[mask], m.motion_magnitudes.values[mask])
            except UndefinedCorrelation:
                rho = float("-inf")
            if best is None or rho > best[0]:
                best = (rho, position)
        if best is not None:
            entries.append(RankEntry(m.source_id, best[0], best[1]))
    entries.sort(key=lambda e: (-e.rho, e.identity_id))
    return tuple(entries)


# small integer magnitudes so ties, constant rows and exact coverage
# fractions (0.5 of an even n) come up often
grid_values = st.integers(0, 3).map(float)


@st.composite
def cohorts(draw):
    n = draw(st.integers(1, 10))
    avatars = []
    for a in range(draw(st.integers(1, 3))):
        mags = {}
        for p in SensorPosition:
            n_obs = draw(st.integers(0, n))
            holes = draw(st.permutations(range(n)))[: n - n_obs]
            vals = draw(st.lists(grid_values, min_size=n, max_size=n))
            mags[p.value] = [None if i in holes else v for i, v in enumerate(vals)]
        avatars.append(visual_series(f"a{a}", [4] * n, mags))
    identities = [
        motion_series(f"m{j}", [4] * n, draw(st.lists(grid_values, min_size=n, max_size=n)))
        for j in draw(st.permutations(range(draw(st.integers(1, 5)))))
    ]
    return avatars, identities


@settings(max_examples=300, deadline=None)
@given(cohorts(), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1, 100, 4096]))
def test_batched_ranking_equals_scalar_oracle(cohort, min_observed_fraction, block_cells):
    avatars, identities = cohort
    # small blocks make one avatar's candidates span several kernel calls
    with mock.patch.object(engine, "_BLOCK_CELLS", block_cells):
        rankings = correlate(VisualDataset(avatars), MotionDataset(identities),
                             FilterConfig(t_norm=1.0), min_observed_fraction)
        for avatar, ranking in zip(avatars, rankings):
            expected = scalar_ranking(avatar, identities, min_observed_fraction)
            assert ranking.avatar_id == avatar.source_id
            assert ranking.entries == expected
            if expected:
                assert rank_identities(avatar, identities,
                                       min_observed_fraction).entries == expected
            else:
                with pytest.raises(EmptyRanking):
                    rank_identities(avatar, identities, min_observed_fraction)


def test_rank_candidates_skip_rules_and_first_position_wins():
    vis = np.full((3, 6, 4), np.nan)
    vis[0, 2, :2] = [1.0, 2.0]          # 2 of 4 windows: at the 0.5 floor
    vis[1, 0, :1] = [1.0]               # one window: skipped at any floor
    vis[1, 1, :3] = [3.0, 2.0, 1.0]     # rho -1
    vis[1, 3, :3] = [1.0, 2.0, 3.0]     # rho 1 ...
    vis[1, 4, :3] = [2.0, 4.0, 6.0]     # ... tied here; the earlier one wins
    mot = np.tile([1.0, 2.0, 3.0, 4.0], (3, 1))
    pairs = np.arange(3)
    rho, pos = engine._rank_candidates(vis, mot, pairs, pairs, 4, 0.5)
    assert rho.tolist() == [1.0, 1.0, float("-inf")]
    assert pos.tolist() == [2, 3, -1]
    rho, pos = engine._rank_candidates(vis, mot, pairs, pairs, 5, 0.5)  # 2 of 5 falls below it
    assert pos.tolist() == [-1, 3, -1]


def scalar_best(vis_row, mot_row, n_windows, min_observed_fraction):
    """(rho, position index) of one pair from `spearman_rho` per position:
    the kernel's contract, with (-inf, -1) where every position is skipped."""
    best = (float("-inf"), -1)
    for k, values in enumerate(vis_row):
        mask = ~np.isnan(values)
        n_obs = int(mask.sum())
        if n_windows == 0 or n_obs / n_windows < min_observed_fraction or n_obs < 2:
            continue
        try:
            rho = spearman_rho(values[mask], mot_row[mask])
        except UndefinedCorrelation:
            rho = float("-inf")
        if best[1] < 0 or rho > best[0]:
            best = (rho, k)
    return best


@st.composite
def kernel_inputs(draw):
    """(vis, mot, rows, ids, n_windows) for `_rank_candidates`.  Each visual
    row observes a span [lo, hi) with holes in it (coverage 0..span) and is
    NaN outside; motion rows hold a finite filler outside their span and
    may be constant.  Align-shaped draws pair row c with row c and divide
    coverage by each span; the others pair rows at random over all n."""
    n = draw(st.integers(1, 8))
    align_shaped = draw(st.booleans())
    n_vis = draw(st.integers(1, 4))
    n_mot = n_vis if align_shaped else draw(st.integers(1, 4))
    spans = []
    for _ in range(max(n_vis, n_mot)):
        lo = draw(st.integers(0, n - 1))
        spans.append((lo, draw(st.integers(lo + 1, n))))
    vis = np.full((n_vis, len(SensorPosition), n), np.nan)
    for c, (lo, hi) in enumerate(spans[:n_vis]):
        for k in range(len(SensorPosition)):
            vals = draw(st.lists(grid_values, min_size=hi - lo, max_size=hi - lo))
            holes = draw(st.permutations(range(hi - lo)))[:draw(st.integers(0, hi - lo))]
            vis[c, k, lo:hi] = [np.nan if i in holes else v for i, v in enumerate(vals)]
    mot = np.empty((n_mot, n))
    for c, (lo, hi) in enumerate(spans[:n_mot]):
        mot[c] = draw(grid_values)
        if not draw(st.booleans()):  # else all tied: syy = 0 everywhere
            mot[c, lo:hi] = draw(st.lists(grid_values, min_size=hi - lo, max_size=hi - lo))
    if align_shaped:
        rows = ids = np.arange(n_vis)
        return vis, mot, rows, ids, np.array([hi - lo for lo, hi in spans])
    n_pairs = draw(st.integers(0, 6))
    rows = np.array(draw(st.lists(st.integers(0, n_vis - 1), min_size=n_pairs,
                                  max_size=n_pairs)), dtype=np.int64)
    ids = np.array(draw(st.lists(st.integers(0, n_mot - 1), min_size=n_pairs,
                                 max_size=n_pairs)), dtype=np.int64)
    return vis, mot, rows, ids, n


@settings(max_examples=300, deadline=None)
@given(kernel_inputs(), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1, 7, 60, 4096]))
def test_rank_candidates_equals_scalar_oracle(inputs, min_observed_fraction, block_cells):
    vis, mot, rows, ids, n_windows = inputs
    # small blocks split both the per-row tables and the pairs
    with mock.patch.object(engine, "_BLOCK_CELLS", block_cells):
        rho, pos = engine._rank_candidates(vis, mot, rows, ids, n_windows,
                                           min_observed_fraction)
    windows = np.broadcast_to(n_windows, rows.shape)
    expected = [scalar_best(vis[r], mot[i], w, min_observed_fraction)
                for r, i, w in zip(rows, ids, windows.tolist())]
    assert rho.tolist() == [r for r, _ in expected]
    assert pos.tolist() == [k for _, k in expected]


def test_ranking_over_zero_windows_skips_every_position():
    v = visual_series("a0", [])
    m = motion_series("m0", [], [])
    assert correlate(VisualDataset([v]), MotionDataset([m]), FilterConfig(t_norm=1.0)) == [
        RankedIdentityList("a0", ())]
    with pytest.raises(EmptyRanking):
        rank_identities(v, [m])


def test_ranking_memory_grows_only_by_its_outputs():
    """Per-row tables and pair blocks are bounded, so ranking ~4x more pairs
    of one cohort peaks higher only by the 16 bytes per pair of rho/pos."""
    prior = {L.IDLE: 0.7, L.BODY_ROTATION: 0.3}
    visual, motion, _ = generate_cohort(
        CohortSpec(num_identities=200, n_windows=11, activity_prior=prior, seed=5))

    def peak(t_norm):
        pairs = activity_filter(visual, motion, FilterConfig(t_norm=t_norm))
        tracemalloc.start()
        try:
            engine._rank_candidates(visual.mags, motion.mags, pairs.rows, pairs.ids, 11, 0.5)
            return pairs.total_pairs(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, few_peak = peak(0.3)
    many, many_peak = peak(1.0)
    assert many > 4 * few
    assert many_peak - few_peak <= 16 * (many - few) + 64 * 1024


def identity_rows_ranked(vis, mot, rows, ids, n_windows, min_observed_fraction=0.5):
    """(rho, pos, rows ranked for identities) of one `_rank_candidates` call:
    the rows its `_centred_ranks` calls rank, less the avatars' own R x 6."""
    ranked = []
    centred_ranks = engine._centred_ranks

    def counted(starts, seen):
        ranked.append(math.prod(seen.shape[:-1]))
        return centred_ranks(starts, seen)

    with mock.patch.object(engine, "_centred_ranks", counted):
        rho, pos = engine._rank_candidates(vis, mot, rows, ids, n_windows, min_observed_fraction)
    return rho, pos, sum(ranked) - len(vis) * len(SensorPosition)


@st.composite
def mask_inputs(draw):
    """(vis, mot, rows, ids, n) for `_rank_candidates`, n on and beside the
    byte edges of the packed mask keys.  Shared draws give every avatar
    position one of a pool of one to three observed-window masks and rank at
    least one pair per identity, so the per-mask table is smaller than the
    pair cells; the others draw a mask per position, mostly per-pair work.
    Values are small integers (ties), and some identity rows are constant."""
    n = draw(st.sampled_from([1, 2, 8, 9, 64, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vis, n_mot, shared = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.booleans())

    def mask():
        return rng.random(n) < rng.choice([0.0, 0.5, 0.9, 1.0])

    pool = [mask() for _ in range(draw(st.integers(1, 3)))]
    observed = np.array([[pool[rng.integers(len(pool))] if shared else mask()
                          for _ in SensorPosition] for _ in range(n_vis)])
    vis = np.where(observed, rng.integers(0, 4, observed.shape), np.nan)
    mot = rng.integers(0, 4, (n_mot, n)).astype(np.float64)
    mot[rng.random(n_mot) < 0.25] = 1.0
    n_pairs = draw(st.integers(n_mot if shared else 0, 12))
    return vis, mot, rng.integers(0, n_vis, n_pairs), rng.integers(0, n_mot, n_pairs), n


@settings(max_examples=300, deadline=None)
@given(mask_inputs(), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1, 60, 4096]))
def test_both_ranking_paths_equal_scalar_oracle(inputs, min_observed_fraction, block_cells):
    vis, mot, rows, ids, n = inputs
    with mock.patch.object(engine, "_BLOCK_CELLS", block_cells):
        rho, pos, ranked = identity_rows_ranked(vis, mot, rows, ids, n, min_observed_fraction)
    masks = {tuple(m) for m in ~np.isnan(vis).reshape(-1, n)}
    event("per-mask table" if len(mot) * len(masks) < rows.size * len(SensorPosition)
          else "per pair")
    # one row per (identity, mask) or one per pair cell, whichever is fewer
    assert ranked == min(len(mot) * len(masks), rows.size * len(SensorPosition))
    expected = [scalar_best(vis[r], mot[i], n, min_observed_fraction) for r, i in zip(rows, ids)]
    assert rho.tolist() == [r for r, _ in expected]
    assert pos.tolist() == [k for _, k in expected]


@pytest.mark.parametrize("n_vis, n_mot, n_pairs, n", [
    (0, 0, 0, 5),
    (2, 3, 0, 5),
    (1, 1, 3, 0),  # per-mask table: 1 identity x 1 mask < 3 pairs x 6 cells
    (1, 6, 1, 0),  # per pair: 6 identities x 1 mask = 1 pair x 6 cells
])
def test_rank_candidates_without_pairs_or_windows(n_vis, n_mot, n_pairs, n):
    vis, mot = np.ones((n_vis, len(SensorPosition), n)), np.ones((n_mot, n))
    rows = ids = np.zeros(n_pairs, dtype=np.int64)
    rho, pos, ranked = identity_rows_ranked(vis, mot, rows, ids, n, 0.0)
    assert rho.tolist() == [float("-inf")] * n_pairs
    assert pos.tolist() == [-1] * n_pairs
    assert ranked == min(n_mot * (n_vis > 0), n_pairs * len(SensorPosition))


@pytest.mark.parametrize("n", [1860, 1861])  # the last window count summed in int32, the first in int64
@pytest.mark.parametrize("partial", [False, True], ids=["per-mask table", "per pair"])
def test_rank_sums_are_exact_at_the_int32_edge(n, partial):
    """Row 0 correlates perfectly with identity 0, so sxx = syy = sxy =
    n(n^2 - 1)/3, the largest sum: it fits int32 at n = 1860, not at 1861.
    Tied rows and identities sum less.  rho equals `spearman_rho` bit for
    bit on either side of the edge, on the table path (one full mask) and
    on the per-pair path (a distinct mask per position)."""
    rng = np.random.default_rng(n)
    at = np.arange(n, dtype=np.float64)
    mot = np.stack([at, at // 3, rng.integers(0, 40, n)])
    tested = np.stack([2 * at, -at, at // 7, rng.integers(0, 40, n)])
    # constant positions score -inf, so each pair's best is its tested position 2;
    # the last row is in no pair
    vis = np.ones((len(tested) + 1, len(SensorPosition), n))
    if partial:  # a one-window hole per position, but for row 0's tested one
        cells = vis.reshape(-1, n)
        cells[np.arange(len(cells)), np.arange(len(cells))] = np.nan
    vis[:-1, 2] = np.where(np.isnan(vis[:-1, 2]), np.nan, tested)
    vis[0, 2] = tested[0]
    rows, ids = np.divmod(np.arange(len(tested) * len(mot)), len(mot))
    rho, pos, ranked = identity_rows_ranked(vis, mot, rows, ids, n)
    assert ranked == (rows.size * len(SensorPosition) if partial else len(mot))
    expected = [scalar_best(vis[r], mot[i], n, 0.5) for r, i in zip(rows, ids)]
    assert rho.tolist() == [r for r, _ in expected]
    assert pos.tolist() == [k for _, k in expected] == [2] * rows.size
    assert rho[0] == 1.0 and rho[len(mot)] == -1.0


def rank_heavy_cohort(**spec):
    """perfbench's `rank_heavy` cohort at seed 3: 120 x 30, 0.5-diagonal
    label confusion on both channels."""
    rows = np.full((len(L), len(L)), 0.5 / (len(L) - 1))
    np.fill_diagonal(rows, 0.5)
    confusion = ConfusionMatrix(rows)
    return generate_cohort(CohortSpec(num_identities=120, n_windows=30, seed=3,
                                      motion_confusion=confusion, visual_confusion=confusion,
                                      magnitude_noise_sd=0.15, **spec))


@pytest.mark.parametrize("observability", [None, 0.7])
def test_identity_rows_ranked_once_per_mask(observability):
    """Fully observed, every position shares one mask: each identity is
    ranked once, not once per pair cell.  At 0.7 observability nearly every
    position has its own mask, and ranking stays per pair."""
    spec = {} if observability is None else {
        "position_observability": {p: observability for p in SensorPosition}}
    visual, motion, _ = rank_heavy_cohort(**spec)
    pairs = activity_filter(visual, motion, FilterConfig(t_norm=0.8))
    _, _, ranked = identity_rows_ranked(visual.mags, motion.mags, pairs.rows, pairs.ids, 30)
    if observability is None:
        assert pairs.total_pairs() == 2958
        assert ranked == len(motion) == 120
    else:
        assert ranked == pairs.total_pairs() * len(SensorPosition)


def test_rank_entry_equals_a_field_by_field_instance():
    fields = {"identity_id": "u1", "rho": 0.25, "position": SensorPosition.LEFT_WRIST}
    plain = RankEntry(**fields)
    entry = RankEntry("u1", 0.25, SensorPosition.LEFT_WRIST)
    assert entry == plain and entry._asdict() == plain._asdict() == fields
    assert hash(entry) == hash(plain) == hash(tuple(fields.values()))
    assert repr(entry) == repr(plain) == (
        "RankEntry(identity_id='u1', rho=0.25, position=<SensorPosition.LEFT_WRIST: 'left_wrist'>)")
    assert entry != RankEntry("u1", 0.5, SensorPosition.LEFT_WRIST)
    assert entry._replace(rho=0.5) == RankEntry(**dict(fields, rho=0.5))
    for change in (lambda e: setattr(e, "rho", 1.0), lambda e: delattr(e, "rho")):
        with pytest.raises(AttributeError):
            change(entry)
    # ranking builds its entries with tuple.__new__, not RankEntry(...)
    made = correlate(*small_world(seed=3), FilterConfig(t_norm=0.0))[0].entries[0]
    rebuilt = RankEntry(made.identity_id, made.rho, made.position)
    assert type(made) is RankEntry and made == rebuilt and made.identity_id == "m0"
    assert made._asdict() == rebuilt._asdict() == dict(zip(RankEntry._fields, rebuilt))
    assert hash(made) == hash(rebuilt) == hash(tuple(rebuilt))
    assert repr(made) == repr(rebuilt) == (
        f"RankEntry(identity_id='m0', rho={made.rho!r}, position={made.position!r})")
    with pytest.raises(AttributeError):
        made.rho = 0.0


# ---------------------------------------------------------------------------
# correlate end-to-end

def small_world(seed=0, p=6, q=6, n=12, noise=0.0):
    """q identities with distinct scripts; avatar i is identity i's visual twin."""
    rng = np.random.default_rng(seed)
    motion, visual = [], []
    for i in range(q):
        codes = rng.integers(0, 8, n).tolist()
        mags = rng.uniform(0.5, 4.0, n)
        motion.append(motion_series(f"m{i}", codes, mags.tolist()))
        if i < p:
            vm = visual_mags(n, base=(mags * rng.uniform(1 - noise, 1 + noise, n)).tolist())
            visual.append(visual_series(f"a{i}", codes, vm))
    return VisualDataset(visual), MotionDataset(motion)


def test_correlate_self_match():
    v, m = small_world(seed=3)
    rankings = correlate(v, m, FilterConfig(t_norm=0.0))
    assert len(rankings) == 6
    for i, r in enumerate(rankings):
        assert r.avatar_id == f"a{i}"
        assert r.entries[0].identity_id == f"m{i}"


def test_correlate_none_correlated():
    v = VisualDataset([visual_series("a0", [0, 0, 0])])
    m = MotionDataset([motion_series("m0", [7, 7, 7])])
    rankings = correlate(v, m, FilterConfig(t_norm=0.0))
    assert rankings[0].entries == ()


def test_correlate_threshold_monotonicity():
    rng = np.random.default_rng(10)
    v, m = small_world(seed=11, p=5, q=8, n=10)
    kept = []
    for t in (0.0, 0.2, 0.4, 0.8, 1.0):
        rankings = correlate(v, m, FilterConfig(t_norm=t))
        kept.append({r.avatar_id: {e.identity_id for e in r.entries} for r in rankings})
    for lo, hi in zip(kept, kept[1:]):
        for avatar, ids in lo.items():
            assert ids <= hi[avatar]


def test_correlate_deterministic(tmp_path):
    v, m = small_world(seed=7, noise=0.1)
    r1 = correlate(v, m, FilterConfig(t_norm=0.5))
    r2 = correlate(v, m, FilterConfig(t_norm=0.5))
    p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    write_rankings_jsonl(r1, p1)
    write_rankings_jsonl(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# serialization

def test_ranking_serialization_roundtrip(tmp_path):
    v, m = small_world(seed=5)
    rankings = correlate(v, m, FilterConfig(t_norm=0.3))
    path = tmp_path / "rankings.jsonl"
    truth = {f"a{i}": f"m{i}" for i in range(6)}
    write_rankings_jsonl(rankings, path, truth)
    back = read_rankings_jsonl(path)
    assert len(back) == len(rankings)
    for a, b in zip(rankings, back):
        assert a.avatar_id == b.avatar_id
        assert tuple(e.identity_id for e in a.entries) == tuple(e.identity_id for e in b.entries)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.rho == pytest.approx(eb.rho)
            assert ea.position is eb.position


def test_ranking_outcome_field():
    r = RankedIdentityList("a0", ())
    assert ranking_to_dict(r, {"a0": "m0"})["outcome"] == "none"
    v, m = small_world(seed=6, p=1, q=2)
    rankings = correlate(v, m, FilterConfig(t_norm=1.0))
    d = ranking_to_dict(rankings[0], {"a0": "m0"})
    assert d["outcome"] == "correct"
    d = ranking_to_dict(rankings[0], {"a0": "m1"})
    assert d["outcome"] == "incorrect"


def test_ranking_minus_inf_serializes_as_null():
    n = 4
    m = motion_series("m0", [4] * n, [1.0, 2.0, 3.0, 4.0])
    v = visual_series("a0", [4] * n, visual_mags(n))  # constant everywhere
    ranking = rank_identities(v, [m])
    d = ranking_to_dict(ranking)
    assert d["ranking"][0]["rho"] is None
    back = ranking_from_dict(d)
    assert back.entries[0].rho == float("-inf")

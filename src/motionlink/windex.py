"""Wildcard hash index: activity filtering in near-linear time.

The naive filter compares every visual sequence against every motion
sequence, O(p*q*k).  The paper's index instead expands each length-k
sequence into every variant with up to t_abs positions replaced by a
wildcard, sum_{i=0..t_abs} C(k, i) keys per sequence.  Two sequences lie
within Hamming distance t_abs exactly when they share a variant whose
wildcard positions cover all their mismatches, so a lookup replaces the
quadratic scan: build O(q), query O(p), each scaled by the per-sequence key
count.

Only maximal-mask variants are stored: any pair at distance d <= t_abs
shares a variant whose wildcard set is some size-t_abs superset of its
mismatch positions, and variants with fewer wildcards can only repeat pairs
the maximal ones already find.  An index over q sequences therefore holds
q * C(k, t_abs) entries.

That count explodes with k (C(60, 18) is about 9e14), so the filter splits
the k positions into m contiguous blocks whose lengths differ by at most
one, and indexes each block on its own with budget floor(t_abs / m)
(multi-index hashing: Norouzi, Punjani & Fleet, CVPR 2012; Manku, Jain &
Das Sarma, WWW 2007).  A pair within t_abs mismatches has at most that many
in some block, since m blocks each over it would hold more than t_abs, so
the union of the blocks' pairs holds every true pair.  Per block the index
holds q * C(length, floor(t_abs / m)) entries, and the q * C(k, t_abs) above
is the one block of m = 1, the paper's index, which `build_index` builds by
default.  `plan_index` picks m for the filter by cost within the memory cap,
and is the filter's one up-front memory decision: when no m fits, it
refuses, and nothing is built.  The query then checks only what it cannot
know in advance, its raw hits, as it counts them.

A key is one sum for every k: over the unmasked positions p of a variant,
(code_p + 1) * MIX^(p+1) mod 2^64.  A wildcard adds nothing and every code
a nonzero term, so a mask's key is the sequence's full sum less the terms at
its positions.  An entry is one 8-byte word: the key's top 64 - b bits
above the row that produced it in the low b = bits(q), so one in-place sort
orders both.  Distinct variants may share those top bits: the filter
confirms every pair by its mismatch count, which it computes anyway.
"""

from __future__ import annotations

import itertools
import logging
import math
import os

import numpy as np

from .engine import (
    CandidatePairSet,
    _PACK_BYTES,
    _common_grid,
    _pair_step,
    _word_count,
    mismatch_counts,
    pack_codes,
)
from .errors import (
    BudgetExceedsLength,
    ConfigError,
    DataError,
    MemoryCapExceeded,
)
from .model import ActivityLabel, MotionDataset, VisualDataset, label_codes

logger = logging.getLogger(__name__)

_FULL = (1 << 64) - 1
MIX = 0x9E3779B97F4A7C15  # odd, so every power of it is too: the key's per-position base

MEMORY_CAP_ENV = "MOTIONLINK_MEMORY_CAP"
DEFAULT_MEMORY_CAP = 8 * 1024 ** 3


def _check_budget(k: int, t_abs: int) -> None:
    if k < 1:
        raise ConfigError(f"sequence length must be >= 1, got {k}")
    if t_abs < 0:
        raise ConfigError(f"t_abs must be >= 0, got {t_abs}")
    if t_abs > k:
        raise BudgetExceedsLength(f"budget {t_abs} exceeds sequence length {k}")


def _blocks(k: int, m: int) -> list[tuple[int, int]]:
    """(start, stop) of m contiguous blocks over k positions whose lengths
    differ by at most one."""
    edges = [i * k // m for i in range(m + 1)]
    return list(zip(edges, edges[1:]))


def _block_lengths(k: int, m: int) -> list[tuple[int, int]]:
    """(length, count) of the `_blocks(k, m)`: k % m of them are one longer."""
    short, extra = divmod(k, m)
    return [(length, count) for length, count in ((short + 1, extra), (short, m - extra))
            if count]


def estimate_index_memory(q: int, k: int, t_abs: int, m: int = 1) -> int:
    """Upper bound on the peak bytes of building an m-block index over q
    length-k sequences, checked against the tracemalloc peak in the tests."""
    budget, total = t_abs // m, 0
    for length, count in _block_lengths(k, m):
        masks = math.comb(length, budget)
        # an entry is one 8-byte word, packed and sorted in place; per
        # sequence come the block's position terms and their sum (8 * length
        # + 8), its row number and its codes; per mask, its tuple.  A
        # sixteenth on top covers allocator and sort-kernel differences
        # between numpy builds.
        base = q * masks * 8 + q * (9 * length + 16) + masks * (150 + 8 * budget)
        total += count * (base + base // 16 + 64 * 1024)
    return total + q * _PACK_BYTES * _word_count(k)


def estimate_query_memory(p: int, k: int, t_abs: int, raw_hits: int = 0, m: int = 1,
                          confirmed: int = 0) -> int:
    """Upper bound on the peak bytes a query of p length-k sequences
    allocates against a built m-block index, checked against the
    tracemalloc peak in the tests.  `raw_hits`, the (query key, index
    entry) matches the block about to expand holds, is known only once its
    keys have been looked up, and `confirmed`, the distinct pairs the
    earlier blocks kept, only once they have run."""
    keys = p * max(math.comb(length, t_abs // m) for length, _ in _block_lengths(k, m))
    words = _word_count(k)
    # Per query sequence, its k position terms and their sum, its row number
    # and its codes, as in the build, and its packed row.  Per query key of
    # the largest block, as each block frees its keys before the next packs
    # its own, the lookup keeps its packed word, lower bound and hit mask
    # (17 bytes) and briefly holds the clamped bound, the gathered index
    # word and their xor: 33.  Per raw hit of the block, since a hit key has
    # at least one hit: 48 for the hit keys' bounds, words, counts, ends,
    # first hits and rows, which also covers the 8-byte pair code of each
    # hit kept and the 17 bytes of the block's dedupe.  Per hit of a chunk,
    # and of the one before it: its index position, id and row, and, where
    # the chunk is confirmed, its gathered rows, their xor and fold, and its
    # distance and code (80 + 40 per word).  Per pair code kept by an
    # earlier block, 8 bytes while the blocks run, and at the end 24: the
    # codes' concatenation, sort mask and distinct copy, then the confirmed
    # codes, or the returned rows, ids and distances.
    if words == 1:  # hits confirmed as they expand
        chunks = min(raw_hits, _pair_step(k)) * 120
    else:  # hits expanded, then the distinct pairs confirmed
        chunks = min(raw_hits, _pair_step(1)) * 48 + _pair_step(k) * (80 + 40 * words)
    base = (keys * 33 + p * (9 * k + 16 + _PACK_BYTES * words) + raw_hits * 48 + chunks
            + confirmed * 24)
    return base + base // 16 + 64 * 1024


def _refuse_over(cap: int, need: int, what: str) -> None:
    if need > cap:
        raise MemoryCapExceeded(f"{what} needs about {need} bytes, cap is {cap}")


def _resolve_cap() -> int:
    """The memory cap in bytes: MOTIONLINK_MEMORY_CAP, or 8 GiB by default."""
    env = os.environ.get(MEMORY_CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{MEMORY_CAP_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_MEMORY_CAP


# ---------------------------------------------------------------------------
# keys

def _id_bits(m: int) -> int:
    """Bits that hold a row number below m."""
    return max((m - 1).bit_length(), 1)


def _pack(mat: np.ndarray, t_abs: int, row_bits: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sorted words of every row of `mat` under every size-t_abs mask: the top
    bits of the key, the row's sum of position terms less the mask's, above the
    row in the low `row_bits`.  They are written into `out` when given."""
    n, k = mat.shape
    masks = list(itertools.combinations(range(k), t_abs))
    powers = np.array([pow(MIX, p + 1, 1 << 64) for p in range(k)], dtype=np.uint64)
    terms = mat.T.astype(np.uint64, order="C")  # (k, n): a position's terms contiguous
    terms += 1
    terms *= powers[:, None]
    full = terms.sum(axis=0, dtype=np.uint64)
    words = np.empty((len(masks), n), dtype=np.uint64) if out is None else out.reshape(len(masks), n)
    for block, mask in zip(words, masks):
        block[...] = full
        for pos in mask:
            block -= terms[pos]
    del terms, full
    words &= _FULL ^ ((1 << row_bits) - 1)
    words |= np.arange(n, dtype=np.uint64)
    words = words.reshape(-1)
    words.sort()
    return words


# ---------------------------------------------------------------------------

class WildcardIndex:
    """Sorted maximal-mask entries of each of m position blocks: each word
    holds a key of its block and the row that produced it."""

    def __init__(self, codes: np.ndarray, t_abs: int, words: np.ndarray, blocks: list):
        self.packed = pack_codes(codes)  # the rows the query's distance check gathers
        self.t_abs = t_abs
        self.size, self.k = codes.shape
        self.entry_count = int(words.size)
        self._words = words  # every block's sorted words in turn, one per (sequence, block mask)
        self.blocks = blocks  # (start, stop, its slice of _words) per position block


def build_index(codes, t_abs: int, m: int = 1) -> WildcardIndex:
    """Expand and sort the keys lookups run against, over a (q, k) matrix
    of codes, checked by `label_codes` (never cast): with m = 1, the
    paper's index; with m blocks, one sub-index per block at budget
    floor(t_abs / m), for `plan_index` to choose.

    Refuses with MemoryCapExceeded when the documented estimate blows
    the cap (MOTIONLINK_MEMORY_CAP or 8 GiB by default).
    """
    codes = np.ascontiguousarray(label_codes(codes, "code matrix"))
    if codes.ndim != 2:
        raise DataError(f"expected a (q, k) code matrix, got shape {codes.shape}")
    q, k = codes.shape
    _check_budget(k, t_abs)
    if not 1 <= m <= k:
        raise ConfigError(f"block count must lie in [1, k={k}], got {m}")
    estimate = estimate_index_memory(q, k, t_abs, m)
    cap = _resolve_cap()
    budget = t_abs // m
    entries = q * sum(count * math.comb(length, budget) for length, count in _block_lengths(k, m))
    logger.info(
        "index build: q=%d k=%d t_abs=%d m=%d entries=%d estimated %.1f MiB (cap %.1f MiB)",
        q, k, t_abs, m, entries, estimate / 1024 ** 2, cap / 1024 ** 2,
    )
    _refuse_over(cap, estimate, f"index over q={q} k={k} t_abs={t_abs} m={m}")
    words, at, blocks = np.empty(entries, dtype=np.uint64), 0, []
    for start, stop in _blocks(k, m):
        size = q * math.comb(stop - start, budget)
        out = words[at:at + size]
        _pack(codes[:, start:stop], budget, _id_bits(q), out=out)
        blocks.append((start, stop, out))
        at += size
    return WildcardIndex(codes, t_abs, words, blocks)


def filter_pairs_indexed(v_mat: np.ndarray, index: WildcardIndex):
    """(rows, ids, distances) of all pairs within the index budget, sorted
    by (row, id), for a (p, k) query matrix of codes checked by `label_codes`.

    Refuses with MemoryCapExceeded when the index plus the query's
    estimated peak would blow the cap: once before the query keys are
    expanded, and again per block, with its raw hits counted and the pairs
    the earlier blocks kept, before its hits expand.
    """
    v_mat = np.ascontiguousarray(label_codes(v_mat, "query matrix"))
    if v_mat.ndim != 2 or v_mat.shape[1] != index.k:
        raise DataError(f"query matrix must be (p, {index.k}), got {v_mat.shape}")
    p, k = v_mat.shape
    q, m, t_abs = index.size, len(index.blocks), index.t_abs
    cap = _resolve_cap()
    resident = index._words.nbytes + index.packed.nbytes
    what = f"query of p={p} k={k} t_abs={t_abs} m={m}"
    _refuse_over(cap, resident + estimate_query_memory(p, k, t_abs, 0, m), what)
    packed = pack_codes(v_mat)
    # with p > q the row field widens, so fewer key bits are compared
    b = _id_bits(q)
    row_bits = max(b, _id_bits(p))
    low = (1 << row_bits) - 1
    # one-word rows confirm about as fast as their pair codes sort, so each
    # chunk of hits is confirmed as it expands and the dedupe sees only
    # confirmed pairs; longer rows cost more to confirm than to sort, so
    # their pairs are deduped first and confirmed once, at the end.  A chunk
    # of hits to confirm spans k windows a hit, as the scan's blocks count
    # cells; one only coded spans a word
    one_word, empty = packed.shape[1] == 1, np.zeros(0, dtype=np.int64)
    step, found, confirmed = _pair_step(k if one_word else 1), [], 0
    for start, stop, ix in index.blocks:
        words = _pack(v_mat[:, start:stop], t_abs // m, row_bits)
        n = ix.size
        lo = np.searchsorted(ix, words & (_FULL ^ low), side="left")
        hit = lo < n
        if n:
            hit &= (ix[np.minimum(lo, n - 1)] ^ words) <= low
        h_lo, h_words = lo[hit], words[hit]
        del words, lo, hit  # per query key; free them before the hits expand
        counts = np.searchsorted(ix, h_words | low, side="right") - h_lo
        ends = np.cumsum(counts)
        hits = int(ends[-1]) if ends.size else 0
        _refuse_over(cap, resident + estimate_query_memory(p, k, t_abs, hits, m, confirmed),
                     f"{what} with {hits} raw hits in a block")
        # number the block's hits in key order: hit j of a key sits at its
        # lower bound plus j, so hit h at the key's bound less its first hit, plus h
        first_at = h_lo - ends
        first_at += counts
        h_rows = (h_words & low).view(np.int64)
        del h_lo, h_words
        block = [empty]
        for s in range(0, hits, step):
            e = min(s + step, hits)
            a, z = np.searchsorted(ends, (s, e - 1), side="right")  # keys of hits s, e - 1
            per_key = counts[a:z + 1].copy()
            per_key[0] = ends[a] - s
            per_key[-1] -= ends[z] - e
            at = np.repeat(first_at[a:z + 1], per_key)
            at += np.arange(s, e)
            ids = (ix[at] & ((1 << b) - 1)).view(np.int64)
            rows = np.repeat(h_rows[a:z + 1], per_key)
            if one_word:
                block.append(_confirmed(packed, index, rows, ids))
            else:  # the pair code row * q + id
                rows *= q
                rows += ids
                block.append(rows)
        del first_at, h_rows, counts, ends
        # a pair at distance d < t_abs is found once per mask covering its mismatches
        found.append(_distinct(block))
        confirmed += found[-1].size
    # and once per block holding at most t_abs // m of them
    pairs = _distinct(found)
    if not one_word:
        step = _pair_step(k)
        pairs = np.concatenate([empty] + [
            _confirmed(packed, index, *np.divmod(pairs[s:s + step], q))
            for s in range(0, pairs.size, step)])
    dists = pairs % (t_abs + 1)
    pairs //= t_abs + 1
    ids = pairs % q
    pairs //= q
    return pairs, ids, dists


def _confirmed(packed: np.ndarray, index: WildcardIndex, rows: np.ndarray,
               ids: np.ndarray) -> np.ndarray:
    """The pairs (packed[rows], index rows `ids`) within the index budget,
    each coded (row * q + id) * (t_abs + 1) + distance.  Equal truncated
    keys do not prove a match, nor does one block's; the count does."""
    d, _ = mismatch_counts(packed.take(rows, axis=0), index.packed.take(ids, axis=0))
    keep = np.flatnonzero(d <= index.t_abs)
    code = rows.take(keep) * index.size
    code += ids.take(keep)
    code *= index.t_abs + 1
    code += d.take(keep)
    return code


def _distinct(parts: list) -> np.ndarray:
    """The sorted distinct values of a list of int64 arrays, which it empties."""
    values = np.concatenate(parts)
    parts.clear()
    values.sort()
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


# ---------------------------------------------------------------------------
# the plan

# Index costs in naive (pair, window) cells: per window of a block entry, per
# window of a whole row per raw hit (the count that confirms it), and per
# block.  On a 2-core host, over 18 `bench_matrices` and cohort shapes at k 10
# to 60, the cheapest estimate picked the fastest m on 16 and an m within
# 1.7x of it on the other two.  Re-timed on the packed mismatch kernel, no
# planned path of the planner's test shapes ran more than 1.3x slower than
# the other; fit again when either path's cost changes.
_INDEX_CELLS = 0.7
_INDEX_HIT_CELLS = 2
_INDEX_CALL_CELLS = 10 ** 5


def _index_cost(p: int, q: int, k: int, t_abs: int, m: int) -> float:
    """Estimated cells of the m-block index filter: per block of length L at
    budget b, C(L, b) entries per row, and the raw hits of keys that fix
    L - b positions, under uniform labels p * q * C(L, b) * 8^-(L - b), the
    binomial from logs."""
    budget, cost = t_abs // m, 0.0
    for length, count in _block_lengths(k, m):
        log_masks = (math.lgamma(length + 1) - math.lgamma(budget + 1)
                     - math.lgamma(length - budget + 1))
        masks = math.exp(min(log_masks, 700.0))  # e^700 cells outcost any scan
        hits = p * q * (masks * len(ActivityLabel) ** -float(length - budget))
        cost += count * (_INDEX_CELLS * length * (p + q) * masks
                         + _INDEX_HIT_CELLS * k * hits + _INDEX_CALL_CELLS)
    return cost


def plan_index(p: int, q: int, k: int, t_abs: int) -> tuple[int, float]:
    """(m, cost): the block count of the cheapest index filter of p query
    rows against q indexed rows of k positions at budget t_abs, among those
    whose estimated build and query memory fits the cap, and its estimated
    cost in naive (pair, window) cells.

    Blocks past t_abs + 1 only shorten the blocks at budget 0, so m runs
    over 1..min(k, t_abs + 1).  When no m fits, raises MemoryCapExceeded
    naming the smallest estimate, before anything is built.  Reads the cap,
    so a malformed MOTIONLINK_MEMORY_CAP raises ConfigError here.
    """
    cap = _resolve_cap()
    fits, over = [], []
    for m in range(1, max(1, min(k, t_abs + 1)) + 1):
        need = estimate_index_memory(q, k, t_abs, m) + estimate_query_memory(p, k, t_abs, 0, m)
        if need <= cap:
            fits.append((_index_cost(p, q, k, t_abs, m), m))
        else:
            over.append((need, m))
    if not fits:
        need, m = min(over)
        raise MemoryCapExceeded(f"index over q={q} k={k} t_abs={t_abs} and its query of p={p} "
                                f"at m={m} needs about {need} bytes, cap is {cap}")
    cost, m = min(fits)
    return m, cost


def filter_with_index(visual: VisualDataset, motion: MotionDataset, t_abs: int):
    """Index-backed equivalent of the naive absolute-budget activity filter:
    the same CandidatePairSet, distances included, that the naive scan
    produces, from the index `plan_index` chooses.  The grids and the
    budget are checked, and the plan refuses an index over the cap, before
    anything is built.
    """
    k = _common_grid(visual, motion)
    _check_budget(k, t_abs)
    m, _ = plan_index(len(visual), len(motion), k, t_abs)
    index = build_index(motion.codes, t_abs, m)
    return CandidatePairSet(visual.ids, motion.ids, *filter_pairs_indexed(visual.codes, index))

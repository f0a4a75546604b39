"""Wildcard hash index: activity filtering in near-linear time.

The naive filter compares every visual sequence against every motion
sequence, O(p*q*k).  The paper's index instead expands each length-k
sequence into every variant with up to t_abs positions replaced by a
wildcard, sum_{i=0..t_abs} C(k, i) keys per sequence (`wildcard_expansions`
enumerates them).  Two sequences lie within Hamming distance t_abs exactly
when they share a variant whose wildcard positions cover all their
mismatches, so a lookup replaces the quadratic scan: build O(q), query O(p),
each scaled by the per-sequence key count.

Only maximal-mask variants are stored: any pair at distance d <= t_abs
shares a variant whose wildcard set is some size-t_abs superset of its
mismatch positions, and variants with fewer wildcards can only repeat pairs
the maximal ones already find.  An index over q sequences therefore holds
q * C(k, t_abs) entries.

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
from typing import Sequence

import numpy as np

from .engine import CandidatePairSet, _common_grid, mismatch_counts
from .errors import (
    BudgetExceedsLength,
    ConfigError,
    DataError,
    MemoryCapExceeded,
)
from .model import MotionDataset, VisualDataset, label_codes

logger = logging.getLogger(__name__)

WILDCARD_BYTE = 0xFF
_FULL = (1 << 64) - 1
MIX = 0x9E3779B97F4A7C15  # odd, so every power of it is too: the key's per-position base

MEMORY_CAP_ENV = "MOTIONLINK_MEMORY_CAP"
DEFAULT_MEMORY_CAP = 8 * 1024 ** 3


def expansion_count(k: int, t_abs: int) -> int:
    """Variants per sequence: sum over i of C(k, i) for i = 0..t_abs."""
    _check_budget(k, t_abs)
    return sum(math.comb(k, i) for i in range(t_abs + 1))


def _check_budget(k: int, t_abs: int) -> None:
    if k < 1:
        raise ConfigError(f"sequence length must be >= 1, got {k}")
    if t_abs < 0:
        raise ConfigError(f"t_abs must be >= 0, got {t_abs}")
    if t_abs > k:
        raise BudgetExceedsLength(f"budget {t_abs} exceeds sequence length {k}")


def wildcard_expansions(seq: Sequence, t_abs: int) -> frozenset[bytes]:
    """All masked variants of one sequence, one byte per position and 0xFF
    for the wildcard: the paper's key set, of size expansion_count(k, t_abs)."""
    codes = label_codes(list(seq), "sequence")
    k = codes.size
    _check_budget(k, t_abs)
    out = set()
    for i in range(t_abs + 1):
        for mask in itertools.combinations(range(k), i):
            key = bytearray(codes.tobytes())
            for pos in mask:
                key[pos] = WILDCARD_BYTE
            out.add(bytes(key))
    return frozenset(out)


def estimate_index_memory(q: int, k: int, t_abs: int) -> int:
    """Upper bound on the peak bytes of building an index over q length-k
    sequences, checked against the tracemalloc peak in the tests."""
    masks = math.comb(k, t_abs)
    entries = q * masks
    # an entry is one 8-byte word, packed and sorted in place; per sequence
    # come its k position terms and their sum (8k + 8), its row number and
    # its codes; per mask, its tuple.  A sixteenth on top covers allocator
    # and sort-kernel differences between numpy builds.
    base = entries * 8 + q * (9 * k + 16) + masks * (150 + 8 * t_abs)
    return base + base // 16 + 64 * 1024


def estimate_query_memory(p: int, k: int, t_abs: int, raw_hits: int = 0) -> int:
    """Upper bound on the peak bytes a query of p length-k sequences
    allocates against a built index, checked against the tracemalloc peak
    in the tests.  `raw_hits`, the (query key, index entry) matches to
    expand, is known only once the keys have been looked up."""
    keys = p * math.comb(k, t_abs)
    # Per query sequence, its k position terms and their sum, its row number
    # and its codes, as in the build.  Per query key, the lookup keeps its
    # packed word, lower bound and hit mask (17 bytes) and briefly holds the
    # clamped bound, the gathered index word and their xor: 33.  Per raw hit,
    # since a hit key has at least one hit and no more pairs come out than
    # hits go in: 24 toward the hit keys' bounds, words, counts and start
    # offsets (40 bytes each, 16 of them in the freed lookup temporaries);
    # 41 for the hit's index position and the count added to it, the
    # first-occurrence mask and a pair code, row and id; and the most any
    # one later stage adds: the replaced rows and ids (16), the distance
    # check's gathered sequences, mismatch mask and count (3k + 8), or the
    # distances, their mask and the kept rows, ids and distances (33).
    per_hit = 24 + 41 + max(16, 3 * k + 8, 33)
    base = keys * 33 + raw_hits * per_hit + p * (9 * k + 16)
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


def _pack(mat: np.ndarray, t_abs: int, row_bits: int) -> np.ndarray:
    """Sorted words of every row of `mat` under every size-t_abs mask: the top
    bits of the key, the row's sum of position terms less the mask's, above the
    row in the low `row_bits`."""
    m, k = mat.shape
    masks = list(itertools.combinations(range(k), t_abs))
    powers = np.array([pow(MIX, p + 1, 1 << 64) for p in range(k)], dtype=np.uint64)
    terms = mat.T.astype(np.uint64, order="C")  # (k, m): a position's terms contiguous
    terms += 1
    terms *= powers[:, None]
    full = terms.sum(axis=0, dtype=np.uint64)
    words = np.empty((len(masks), m), dtype=np.uint64)
    for block, mask in zip(words, masks):
        block[...] = full
        for pos in mask:
            block -= terms[pos]
    del terms, full
    words &= _FULL ^ ((1 << row_bits) - 1)
    words |= np.arange(m, dtype=np.uint64)
    words = words.reshape(-1)
    words.sort()
    return words


# ---------------------------------------------------------------------------

class WildcardIndex:
    """Sorted maximal-mask entries: each word holds a key and the row that produced it."""

    def __init__(self, codes: np.ndarray, t_abs: int, words: np.ndarray):
        self.codes = codes
        self.t_abs = t_abs
        self.k = codes.shape[1]
        self.size = codes.shape[0]
        self.entry_count = int(words.size)
        self._words = words  # sorted, one per (sequence, size-t_abs mask)


def build_index(codes, t_abs: int) -> WildcardIndex:
    """Expand and sort the keys lookups run against, over a (q, k) matrix
    of codes, checked by `label_codes` (never cast).

    Refuses with MemoryCapExceeded when the documented estimate blows
    the cap (MOTIONLINK_MEMORY_CAP or 8 GiB by default).
    """
    codes = np.ascontiguousarray(label_codes(codes, "code matrix"))
    if codes.ndim != 2:
        raise DataError(f"expected a (q, k) code matrix, got shape {codes.shape}")
    q, k = codes.shape
    _check_budget(k, t_abs)
    estimate = estimate_index_memory(q, k, t_abs)
    cap = _resolve_cap()
    logger.info(
        "index build: q=%d k=%d t_abs=%d entries=%d estimated %.1f MiB (cap %.1f MiB)",
        q, k, t_abs, q * math.comb(k, t_abs),
        estimate / 1024 ** 2, cap / 1024 ** 2,
    )
    _refuse_over(cap, estimate, f"index over q={q} k={k} t_abs={t_abs}")
    return WildcardIndex(codes, t_abs, _pack(codes, t_abs, _id_bits(q)))


def filter_pairs_indexed(v_mat: np.ndarray, index: WildcardIndex):
    """(rows, ids, distances) of all pairs within the index budget, sorted
    by (row, id), for a (p, k) query matrix of codes checked by `label_codes`.

    Refuses with MemoryCapExceeded when the index plus the query's
    estimated peak would blow the cap: once before the query keys are
    expanded, and again, with the raw hits counted, before those are.
    """
    v_mat = np.ascontiguousarray(label_codes(v_mat, "query matrix"))
    if v_mat.ndim != 2 or v_mat.shape[1] != index.k:
        raise DataError(f"query matrix must be (p, {index.k}), got {v_mat.shape}")
    p, k = v_mat.shape
    cap = _resolve_cap()
    resident = index._words.nbytes + index.codes.nbytes
    what = f"query of p={p} k={k} t_abs={index.t_abs}"
    _refuse_over(cap, resident + estimate_query_memory(p, k, index.t_abs), what)
    # with p > q the row field widens, so fewer key bits are compared
    b = _id_bits(index.size)
    row_bits = max(b, _id_bits(p))
    low = (1 << row_bits) - 1
    words = _pack(v_mat, index.t_abs, row_bits)
    ix = index._words
    n = ix.size
    lo = np.searchsorted(ix, words & (_FULL ^ low), side="left")
    hit = lo < n
    if n:
        hit &= (ix[np.minimum(lo, n - 1)] ^ words) <= low
    if not hit.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty.copy()
    h_lo, h_words = lo[hit], words[hit]
    h_hi = np.searchsorted(ix, h_words | low, side="right")
    counts = h_hi - h_lo
    total = int(counts.sum())
    _refuse_over(cap, resident + estimate_query_memory(p, k, index.t_abs, total),
                 f"{what} with {total} raw hits")
    # hit j of a key sits at its lower bound plus j: the bound less the hits
    # before the key, repeated per hit, plus the hit's overall number
    at = np.repeat(h_lo - (np.cumsum(counts) - counts), counts)
    at += np.arange(total)
    ids = (ix[at] & ((1 << b) - 1)).view(np.int64)
    del at  # per raw hit; free it before the sort and distance check
    rows = np.repeat((h_words & low).view(np.int64), counts)
    # a pair at distance d < t_abs is found once per mask covering its
    # mismatches: sort in place and keep each code's first occurrence
    pair_codes = rows * index.size + ids
    pair_codes.sort()
    first = np.ones(total, dtype=bool)
    np.not_equal(pair_codes[1:], pair_codes[:-1], out=first[1:])
    pair_codes = pair_codes[first]
    del first
    rows, ids = pair_codes // index.size, pair_codes % index.size
    dists = mismatch_counts(v_mat[rows], index.codes[ids])[0]
    # equal truncated keys do not prove a match; the count does
    within = dists <= index.t_abs
    if not within.all():
        rows, ids, dists = rows[within], ids[within], dists[within]
    return rows, ids, dists


def filter_with_index(visual: VisualDataset, motion: MotionDataset, t_abs: int):
    """Index-backed equivalent of the naive absolute-budget activity filter:
    the same CandidatePairSet, distances included, that the naive scan
    produces.  The grids, the budget and the cap on the index and its
    query are checked before anything is built.
    """
    k = _common_grid(visual, motion)
    _check_budget(k, t_abs)
    p, q = len(visual), len(motion)
    need = estimate_index_memory(q, k, t_abs) + estimate_query_memory(p, k, t_abs)
    _refuse_over(_resolve_cap(), need,
                 f"index over q={q} k={k} t_abs={t_abs} and its query of p={p}")
    index = build_index(motion.codes, t_abs)
    return CandidatePairSet(visual.ids, motion.ids, *filter_pairs_indexed(visual.codes, index))

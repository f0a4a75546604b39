"""Correlation engine: activity-based filtering and magnitude-based ranking.

Given the p visual-channel series and the q motion-channel series on a
shared window grid, the engine first keeps only identity candidates whose
label sequence lies within a mismatch budget of the avatar's (normalized
Hamming distance), then ranks the survivors by the best rank correlation
between the avatar's per-position magnitudes and the candidate's motion
magnitudes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptyRanking,
    InsufficientData,
    LengthMismatch,
    MemoryCapExceeded,
    UndefinedCorrelation,
)
from .model import (
    ActivityLabel,
    ActivityVectorSeries,
    Channel,
    MotionDataset,
    SensorPosition,
    VisualDataset,
    json_value,
    label_codes,
    read_json_lines,
    write_json_lines,
)

logger = logging.getLogger(__name__)

DEFAULT_T_NORM = 0.30
DEFAULT_MIN_OBSERVED_FRACTION = 0.5
_BUDGET_EPS = 1e-9

# Ranking builds its tables at most this many magnitude cells at a time, and
# the two pair loops, the naive scan and ranking, take blocks of four times
# as many.  Past its outputs, only the per-row tables grow with the dataset:
# the avatar ranks, and the identity ranks per observed-window mask, which
# are built only when they have fewer rows than the pairs have cells.
_BLOCK_CELLS = 16384


@dataclass(frozen=True)
class FilterConfig:
    """Filtering knobs: normalized mismatch threshold and an optional
    restricted label set (windows whose labels fall outside it are ignored)."""

    t_norm: float = DEFAULT_T_NORM
    restricted: frozenset[ActivityLabel] | None = None

    def __post_init__(self):
        if not 0.0 <= self.t_norm <= 1.0:
            raise ConfigError(f"t_norm must lie in [0, 1], got {self.t_norm}")
        if self.restricted is not None:
            codes = label_codes(list(self.restricted), "restricted label set")
            restricted = frozenset(map(ActivityLabel, codes.tolist()))
            if not restricted:
                raise ConfigError("restricted label set must be non-empty")
            object.__setattr__(self, "restricted", restricted)


def _pair_step(cells: int) -> int:
    """Items per block of a pair loop whose items span `cells` cells each:
    blocks of up to 4 * _BLOCK_CELLS cells, and of at least one item."""
    return max(1, 4 * _BLOCK_CELLS // max(1, cells))


def _restricted_lut(restricted: frozenset[ActivityLabel]) -> np.ndarray:
    lut = np.zeros(len(ActivityLabel), dtype=bool)
    lut[label_codes(list(restricted), "restricted label set")] = True
    return lut


# Packed rows: window j of a row of label codes sits in the 3-bit slot j % 21
# of word j // 21, so a row of k windows is one uint64 word per 21 of them.
_SLOTS = 21
_SLOT_BASE = np.uint64(8) ** np.arange(_SLOTS, dtype=np.uint64)
_LOW = np.uint64(sum(1 << 3 * j for j in range(_SLOTS)))  # the low bit of every slot
# Bytes per word of a row that `pack_codes` holds at its peak: the row's
# slots as bytes and as uint64 for the product, and the words.
_PACK_BYTES = 200


def _word_count(k: int) -> int:
    """uint64 words in a packed row of k windows."""
    return max(1, -(-k // _SLOTS))


def pack_codes(codes) -> np.ndarray:
    """The uint64 words of label codes 0..7 along the last axis, at least
    one per row: window j in the 3-bit slot j % 21 of word j // 21, unused
    slots 0.  Booleans pack to 0 or 1 per slot, the low bit that
    `mismatch_counts` keeps, so in-set flags pack the same way."""
    codes = np.asarray(codes, dtype=np.uint8)
    *lead, k = codes.shape
    if k <= _SLOTS:
        return (codes @ _SLOT_BASE[:k])[..., None]
    n_words = _word_count(k)
    slots = np.zeros((*lead, n_words * _SLOTS), dtype=np.uint8)
    slots[..., :k] = codes
    return slots.reshape(*lead, n_words, _SLOTS) @ _SLOT_BASE


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits along the last axis: uint8 for one word, else int64 sums (a
    product with ones, which numpy runs faster than a sum over a short axis)."""
    bits = np.bitwise_count(words)
    if bits.shape[-1] == 1:
        return bits[..., 0]
    return bits @ np.ones(bits.shape[-1], dtype=np.int64)


def mismatch_counts(a: np.ndarray, b: np.ndarray, counted: np.ndarray | None = None):
    """Mismatches between rows `a` and `b` of uint64 words packed by
    `pack_codes`, broadcast over the leading axes: (distance, n_effective),
    integer counts.

    A pair's distance sums popcount((x | x >> 1 | x >> 2) & LOW) over its
    words, x = a ^ b: a slot holds a mismatch when any of its three bits
    differs, and LOW keeps one bit per slot.  Without a mask every window
    counts, and n_effective is None, as words do not record their window
    count.  With a restricted label set, `counted` is the AND of the rows'
    packed in-set flags, marking the windows whose labels both lie in it;
    only those count toward either number.
    """
    if a.shape[-1] != b.shape[-1]:
        raise LengthMismatch(f"rows of {a.shape[-1]} and {b.shape[-1]} words")
    x = a ^ b
    slot = x >> np.uint64(1)
    slot |= x
    x >>= np.uint64(2)
    slot |= x
    slot &= _LOW if counted is None else counted
    return _popcount(slot), None if counted is None else _popcount(counted)


def mismatch_budget(t_norm: float, n_effective: int | np.ndarray) -> int | np.ndarray:
    """Allowed absolute mismatches: floor(t_norm * n_effective), an int for
    one count and an int64 array for an array of counts.

    The product is nudged before flooring so that thresholds like 0.30 of 10
    windows give 3, not 2, despite binary float representation.
    """
    if not 0.0 <= t_norm <= 1.0:
        raise ConfigError(f"t_norm must lie in [0, 1], got {t_norm}")
    counts = np.asarray(n_effective)
    if (counts < 0).any():
        raise DataError(f"n_effective must be >= 0, got {counts.min()}")
    budget = np.floor(t_norm * counts + _BUDGET_EPS).astype(np.int64)
    return int(budget) if budget.ndim == 0 else budget


@dataclass(frozen=True, eq=False)
class CandidatePairSet:
    """Surviving (avatar, identity) pairs with their Hamming distances.

    `rows` index `avatar_ids` and `ids` index `identity_ids`; with `dists`
    they are int64 arrays sorted by (avatar row, identity row).  `pairs`
    and `candidates()` are dict views of them, keyed by source id.
    """

    avatar_ids: tuple[str, ...]
    identity_ids: tuple[str, ...]
    rows: np.ndarray
    ids: np.ndarray
    dists: np.ndarray

    @cached_property
    def pairs(self) -> dict[str, dict[str, int]]:
        names = np.array(self.identity_ids, dtype=object)[self.ids].tolist()
        dists = self.dists.tolist()
        bounds = np.searchsorted(self.rows, np.arange(len(self.avatar_ids) + 1)).tolist()
        return {a: dict(zip(names[lo:hi], dists[lo:hi]))
                for a, lo, hi in zip(self.avatar_ids, bounds, bounds[1:]) if hi > lo}

    def candidates(self, avatar_id: str) -> dict[str, int]:
        return self.pairs.get(avatar_id, {})

    def total_pairs(self) -> int:
        return int(self.rows.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidatePairSet):
            return NotImplemented
        return self.pairs == other.pairs


def filter_pairs_naive(v_mat: np.ndarray, m_mat: np.ndarray, t_norm: float,
                       restricted: frozenset[ActivityLabel] | None = None):
    """(rows, ids, distances) of all pairs within the mismatch budget, int64
    and sorted by (row, id): the quadratic-scan reference, every pair compared.

    A pair is kept within floor(t_norm * n_effective) mismatches, where
    n_effective is the window count, or with a restricted label set the
    count of windows whose labels both lie in it (only those count).  Both
    matrices are packed once, and avatar rows are compared with every
    identity a block of rows at a time, each block at most 4 * _BLOCK_CELLS
    (row, identity, window) cells, or one row where one row holds more.
    Raises LengthMismatch when the two matrices' window counts differ.
    """
    if v_mat.shape[1] != m_mat.shape[1]:
        raise LengthMismatch(f"rows of {v_mat.shape[1]} and {m_mat.shape[1]} windows")
    budget = mismatch_budget(t_norm, m_mat.shape[1])
    v_words, m_words = pack_codes(v_mat), pack_codes(m_mat)
    if restricted is not None:
        lut = _restricted_lut(restricted)
        v_in, m_in = pack_codes(lut[v_mat]), pack_codes(lut[m_mat])
    step, q = _pair_step(m_mat.size), len(m_mat)
    empty = np.zeros(0, dtype=np.int64)
    kept, dists = [empty], [empty]
    for s in range(0, len(v_mat), step):
        block = v_words[s:s + step, None]
        if restricted is None:
            d, _ = mismatch_counts(block, m_words)
        else:
            d, n_eff = mismatch_counts(block, m_words, v_in[s:s + step, None] & m_in)
            budget = mismatch_budget(t_norm, n_eff)
        keep = np.flatnonzero(d <= budget)  # flat indices: np.nonzero on 2-D is far slower
        kept.append(keep + s * q)
        dists.append(d.take(keep))
    rows, ids = np.divmod(np.concatenate(kept), q)
    return rows, ids, np.concatenate(dists)


def _common_grid(visual: VisualDataset, motion: MotionDataset) -> int:
    """The window count n both datasets share, which must be on one grid."""
    n_v, n_m = visual.codes.shape[1], motion.codes.shape[1]
    if n_v != n_m:
        raise LengthMismatch(f"visual series have n={n_v}, motion series n={n_m}")
    if visual.window_seconds != motion.window_seconds:
        raise DataError(
            f"window width mismatch: {visual.window_seconds} vs {motion.window_seconds}"
        )
    return n_v


def activity_filter(visual: VisualDataset, motion: MotionDataset,
                    config: FilterConfig) -> CandidatePairSet:
    """Keep (avatar, identity) pairs within the normalized mismatch budget.

    All series must share one window grid and one length n.  The naive scan
    (`filter_pairs_naive`) compares all p * q * n (pair, window) cells; the
    wildcard index (`windex.filter_with_index`) finds the same pairs instead
    when no label set is restricted and the m-block index `windex.plan_index`
    picks within the memory cap costs less.  An index the plan or its query
    refuses over the cap falls back to the scan.  A restricted set is never
    planned for the index.  The plan, both costs, m and any refusal are
    logged at INFO.  The cap is read first, so a malformed one raises
    ConfigError whichever path runs.
    """
    from .windex import _resolve_cap, filter_with_index, plan_index  # windex imports this module

    n = _common_grid(visual, motion)
    p, q, t_abs = len(visual), len(motion), mismatch_budget(config.t_norm, n)
    plan = _plan_text(p, q, n)
    if config.restricted is not None:
        _resolve_cap()
        plan += ", no index for a restricted label set"
    else:
        try:
            m, cost = plan_index(p, q, n, t_abs)
            plan += f", index {cost:.3g} at m={m}"
            if cost < p * q * n:
                pairs = filter_with_index(visual, motion, t_abs)
                logger.info("filter plan: indexed %s", plan)
                return pairs
        except MemoryCapExceeded as exc:
            plan += f"; index refused: {exc}"
    logger.info("filter plan: naive %s", plan)
    return CandidatePairSet(visual.ids, motion.ids, *filter_pairs_naive(
        visual.codes, motion.codes, config.t_norm, config.restricted))


def _plan_text(p: int, q: int, n: int) -> str:
    """The logged scan side of a filter plan over p x q rows of n windows."""
    return f"for p={p} q={q} n={n}, cost in cells: naive {p * q * n}"


# ---------------------------------------------------------------------------
# rank correlation

def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    average = starts + (counts + 1) / 2.0
    return average[inverse]


def spearman_rho(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of fractional ranks.

    Ties are handled by average ranks, which reduces to the classic
    1 - 6*sum(d^2) / (n*(n^2-1)) form when no ties are present.  Raises
    InsufficientData below two pairs and UndefinedCorrelation when either
    side has zero rank variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"paired vectors required, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("correlation inputs must be finite")
    if x.size < 2:
        raise InsufficientData(f"need at least 2 pairs, got {x.size}")
    rx = fractional_ranks(x)
    ry = fractional_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelation("an input has zero rank variance")
    return float(dx @ dy / math.sqrt(sxx * syy))


# ---------------------------------------------------------------------------
# ranking

class RankEntry(NamedTuple):
    identity_id: str
    rho: float  # -inf marks a candidate whose correlation was undefined everywhere
    position: SensorPosition


@dataclass(frozen=True)
class RankedIdentityList:
    """Candidates for one avatar, best rho first; ties break on identity id."""

    avatar_id: str
    entries: tuple[RankEntry, ...]


_POSITIONS = np.array(tuple(SensorPosition), dtype=object)


def _tie_starts(values: np.ndarray) -> np.ndarray:
    """int32 position in its row's sorted order of the first of each entry's ties."""
    starts, n = np.empty(values.shape, dtype=np.int32), values.shape[1]
    at, step = np.arange(n, dtype=np.int32), max(1, _BLOCK_CELLS // max(1, n))
    for s in range(0, len(values), step):
        order = np.argsort(values[s:s + step], axis=-1)
        order += (np.arange(len(order)) * n)[:, None]
        v = values[s:s + step].take(order)
        first = np.concatenate([np.ones((len(v), 1), bool), v[:, 1:] != v[:, :-1]], axis=1)
        starts[s:s + step].put(order, np.maximum.accumulate(np.where(first, at, 0), axis=-1))
    return starts


def _centred_ranks(starts: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Doubled centred average-tie ranks 2r - (n_seen + 1) of each row's `seen`
    entries among themselves (0 elsewhere), from the row's `_tie_starts`: if
    in_group[j] of them tie from sorted position j, and up_to is its running
    sum, theirs is 2 * up_to[j] - in_group[j] - n_seen."""
    *lead, n = seen.shape
    at = starts + (np.arange(math.prod(lead)) * n).reshape(*lead, 1)
    in_group = np.bincount(at[seen], minlength=seen.size).astype(np.int32).reshape(seen.shape)
    doubled = 2 * np.cumsum(in_group, axis=-1, dtype=np.int32) - in_group
    return (doubled.take(at) - seen.sum(axis=-1, keepdims=True, dtype=np.int32)) * seen


def _rank_candidates(vis: np.ndarray, mot: np.ndarray, rows: np.ndarray, ids: np.ndarray,
                     n_windows, min_observed_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Best per-position Spearman rho of each pair (vis[rows[s]], mot[ids[s]]).

    `vis` is (R, 6, n), NaN where unobservable; `mot` is (Q, n).  A position
    drops its unobservable windows, is skipped below two observed windows or
    below `min_observed_fraction` of `n_windows` (a scalar or one per pair),
    and scores -inf where rho is undefined.  Returns (best rho, best position
    index), the index -1 where every position was skipped; the first wins ties.

    Each row is sorted once, into `_tie_starts`.  An identity's ranks over an
    avatar position's observed windows depend only on the identity and that
    window mask, so with M distinct masks among the R x 6 positions, when
    Q * M < pairs * 6 they are ranked once per (identity, mask) into a table
    that the pairs gather from; otherwise each pair ranks its identity under
    each of its positions' masks.  Pairs go in blocks of up to
    4 * _BLOCK_CELLS magnitude cells: a block gathers its (pair, position,
    window) ranks with `take`, and its sums, correlations and skip rules are
    (position, pair) arrays, so each pair's best position comes from one
    max and one argmax over the position axis of the whole block.  Doubled
    ranks are integers, so the integer sums of their products are exact, and
    a quarter of each is exactly the float sum `spearman_rho` forms from
    half-integer deviations: rho is bit-identical to it on either path.  By
    Cauchy-Schwarz no partial sum exceeds the untied n(n^2 - 1)/3, so the
    sums run in int32 while that fits (n <= 1860 windows), else in int64.
    """
    k, n = vis.shape[1:]
    acc = np.int32 if n * (n * n - 1) // 3 < 2 ** 31 else np.int64
    observed = ~np.isnan(vis)
    n_obs = observed.sum(axis=-1).T
    dx = _tie_starts(vis.reshape(len(vis) * k, n)).reshape(vis.shape)
    step = max(1, _BLOCK_CELLS // max(1, k * n))
    for s in range(0, len(vis), step):
        dx[s:s + step] = _centred_ranks(dx[s:s + step], observed[s:s + step])
    sxx = np.einsum("rkn,rkn->kr", dx, dx, dtype=acc) / 4
    starts = _tie_starts(mot)
    # key each position's mask as packed bytes (np.unique(axis=0) on the
    # booleans is far slower), a byte wider than needed so that n = 0 keys too
    seen = observed.reshape(len(vis) * k, n)
    keys = np.zeros((len(seen), n // 8 + 1), dtype=np.uint8)
    keys[:, :(n + 7) // 8] = np.packbits(seen, axis=-1)
    _, first, mask_of = np.unique(keys.view(f"V{keys.shape[1]}")[:, 0],
                                  return_index=True, return_inverse=True)
    masks, mask_of = seen[first], mask_of.reshape(len(vis), k).T
    n_masks, table = len(masks), None
    if len(mot) * n_masks < rows.size * k:
        table = np.empty((len(mot) * n_masks, n), dtype=np.int32)
        row_step = max(1, _BLOCK_CELLS // max(1, n))
        for s in range(0, len(table), row_step):
            identity, mask = np.divmod(np.arange(s, min(s + row_step, len(table))), n_masks)
            table[s:s + row_step] = _centred_ranks(starts[identity], masks[mask])
        table_syy = np.einsum("tn,tn->t", table, table, dtype=acc) / 4
    windows = np.broadcast_to(n_windows, rows.shape)
    rho, pos = np.empty(rows.size), np.empty(rows.size, dtype=np.intp)
    step = _pair_step(k * n)
    for s in range(0, rows.size, step):
        r, e = rows[s:s + step], s + step
        if table is None:
            dy = _centred_ranks(starts.take(ids[s:e], axis=0)[:, None], observed.take(r, axis=0))
            syy = np.einsum("pkn,pkn->kp", dy, dy, dtype=acc) / 4
        else:
            cell = ids[s:e] * n_masks + mask_of.take(r, axis=1)
            dy, syy = table.take(cell.T, axis=0), table_syy.take(cell)
        sxy = np.einsum("pkn,pkn->kp", dx.take(r, axis=0), dy, dtype=acc) / 4
        sxx_p = sxx.take(r, axis=1)
        corr = np.full(sxy.shape, -np.inf)
        np.divide(sxy, np.sqrt(sxx_p * syy), out=corr, where=(sxx_p > 0) & (syy > 0))
        count, w = n_obs.take(r, axis=1), windows[s:e]
        with np.errstate(divide="ignore", invalid="ignore"):
            usable = (w > 0) & (count >= 2) & ~(count / w < min_observed_fraction)
        np.copyto(corr, -np.inf, where=~usable)
        rho[s:e] = best = corr.max(axis=0)
        pos[s:e] = np.where(usable.any(axis=0), np.argmax(usable & (corr == best), axis=0), -1)
    return rho, pos


def _ranked(avatar_ids: Sequence[str], identity_ids: Sequence[str], rows: np.ndarray,
            ids: np.ndarray, rho: np.ndarray, pos: np.ndarray) -> list[RankedIdentityList]:
    """Per avatar, its pairs not skipped: best rho first, ties on identity id.
    `tuple.__new__` builds each entry in C, not RankEntry's Python `__new__`."""
    name_rank = np.argsort(sorted(range(len(identity_ids)), key=identity_ids.__getitem__))
    kept = np.flatnonzero(pos >= 0)
    kept = kept[np.lexsort((name_rank[ids[kept]], -rho[kept], rows[kept]))]
    names = np.array(identity_ids, dtype=object)[ids[kept]].tolist()
    entries = list(map(tuple.__new__, repeat(RankEntry), zip(
        names, rho[kept].tolist(), _POSITIONS[pos[kept]].tolist())))
    bounds = np.searchsorted(rows[kept], np.arange(len(avatar_ids) + 1)).tolist()
    return [RankedIdentityList(a, tuple(entries[lo:hi]))
            for a, lo, hi in zip(avatar_ids, bounds, bounds[1:])]


def _check_fraction(min_observed_fraction: float) -> None:
    if not 0.0 <= min_observed_fraction <= 1.0:
        raise ConfigError(
            f"min_observed_fraction must lie in [0, 1], got {min_observed_fraction}"
        )


def rank_identities(visual_series: ActivityVectorSeries,
                    candidates: Iterable[ActivityVectorSeries],
                    min_observed_fraction: float = DEFAULT_MIN_OBSERVED_FRACTION,
                    ) -> RankedIdentityList:
    """Rank candidate identities for one avatar by best per-position rho."""
    _check_fraction(min_observed_fraction)
    items = list(candidates)
    if visual_series.channel is not Channel.VISUAL:
        raise DataError(f"{visual_series.source_id}: ranking needs a visual series")
    if not items:
        return RankedIdentityList(visual_series.source_id, ())
    n = len(visual_series)
    for m in items:
        if len(m) != n:
            raise LengthMismatch(f"{m.source_id}: length {len(m)} vs avatar length {n}")
    mot = np.stack([m.motion_magnitudes.values for m in items])
    rows, ids = np.zeros(len(items), dtype=np.intp), np.arange(len(items))
    rho, pos = _rank_candidates(visual_series.mags[None], mot, rows, ids, n, min_observed_fraction)
    ranking, = _ranked([visual_series.source_id], [m.source_id for m in items], rows, ids, rho, pos)
    if not ranking.entries:
        raise EmptyRanking(
            f"{visual_series.source_id}: every position of every candidate was skipped"
        )
    return ranking


def correlate(visual: VisualDataset, motion: MotionDataset, config: FilterConfig,
              min_observed_fraction: float = DEFAULT_MIN_OBSERVED_FRACTION,
              ) -> list[RankedIdentityList]:
    """Full two-stage pipeline: filter candidates, then rank them.

    Returns one RankedIdentityList per avatar, in dataset order; an avatar
    whose candidate set ends up empty (or all-skipped) gets an empty list,
    the "none correlated" outcome.  Entries equal what `rank_identities`
    gives each avatar's `activity_filter` candidates.
    """
    _check_fraction(min_observed_fraction)
    pairs = activity_filter(visual, motion, config)
    return _ranked(visual.ids, motion.ids, pairs.rows, pairs.ids, *_rank_candidates(
        visual.mags, motion.mags, pairs.rows, pairs.ids, visual.codes.shape[1],
        min_observed_fraction))


# ---------------------------------------------------------------------------
# ranking serialization

def ranking_to_dict(ranking: RankedIdentityList,
                    truth: Mapping[str, str] | None = None) -> dict:
    obj = {
        "avatar": ranking.avatar_id,
        "ranking": [
            {
                "identity": e.identity_id,
                "rho": None if math.isinf(e.rho) else e.rho,
                "position": e.position.value,
            }
            for e in ranking.entries
        ],
    }
    if truth is not None:
        if not ranking.entries:
            obj["outcome"] = "none"
        elif truth.get(ranking.avatar_id) == ranking.entries[0].identity_id:
            obj["outcome"] = "correct"
        else:
            obj["outcome"] = "incorrect"
    return obj


def _rho_value(value) -> float:
    """A rho read from a file: null, an undefined correlation, is -inf; any
    other value must be a number in [-1, 1], which NaN and +-inf are not."""
    if value is None:
        return float("-inf")
    rho = json_value(value, float, "rho")
    if not -1.0 <= rho <= 1.0:
        raise DataError(f"rho must be null or a finite number in [-1, 1], got {value!r}")
    return rho


def ranking_from_dict(obj: Mapping) -> RankedIdentityList:
    try:
        entries = tuple(
            RankEntry(
                json_value(e["identity"], str, "identity"),
                _rho_value(e["rho"]),
                SensorPosition(e["position"]),
            )
            for e in obj["ranking"]
        )
        return RankedIdentityList(json_value(obj["avatar"], str, "avatar"), entries)
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"bad ranking object: {exc}") from None


def write_rankings_jsonl(rankings: Sequence[RankedIdentityList], path,
                         truth: Mapping[str, str] | None = None) -> None:
    write_json_lines(path, (ranking_to_dict(r, truth) for r in rankings))


def read_rankings_jsonl(path) -> list[RankedIdentityList]:
    """The rankings of a file, one line per avatar, in file order.  An empty
    file, or an avatar on a second line, raises DataError naming the file or
    that line."""
    rankings = read_json_lines(path, ranking_from_dict, "ranking")
    if not rankings:
        raise DataError(f"{path}: no rankings found")
    first: dict[str, int] = {}
    for line, ranking in rankings.items():
        at = first.setdefault(ranking.avatar_id, line)
        if at != line:
            raise DataError(f"{path}:{line}: avatar {ranking.avatar_id!r} repeats line {at}")
    return list(rankings.values())

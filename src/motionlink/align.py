"""Temporal alignment between body-sensor traces and observed series.

A body-sensor recording rarely starts at the same instant as the capture of
the avatar it should be compared with.  Cut into windows from its own start,
a trace that began delta seconds late yields windows whose content straddles
two behaviour windows, and the label sequences stop agreeing even for the
true pair.  The remedy is a grid search: shift the trace by a candidate
offset, rebuild its series on a fixed window grid, and keep the offset whose
label sequence sits closest to the observed one.

Window indices are shared between the two sides by convention: grid window j
of the rebuilt trace is compared against window j of the observed series, so
the recovered offset directly measures how late (positive) or early
(negative) the sensor recording started relative to the observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, DataError, NoOverlap
from .engine import (
    DEFAULT_MIN_OBSERVED_FRACTION,
    FilterConfig,
    RankedIdentityList,
    _pair_step,
    _rank_candidates,
    _ranked,
    _restricted_lut,
    mismatch_budget,
    mismatch_counts,
    pack_codes,
)
from .model import ActivityLabel, ActivityVectorSeries, Channel, VisualDataset
from .pipeline import (
    _EPS,
    ClassifierModel,
    MotionTrace,
    _check_channel,
    classify_windows,
    motion_features,
)
from .windex import _refuse_over, _resolve_cap

__all__ = [
    "AlignConfig",
    "AlignmentResult",
    "OffsetScore",
    "align_offset_search",
    "correlate_with_alignment",
]


# Bytes the offset search holds per candidate offset: every offset rebuilds
# the whole trace on the window grid.  Measured under tracemalloc: about 630
# for a trace spanning four windows, growing by about 57 per window.
_OFFSET_BYTES = 640
_OFFSET_WINDOW_BYTES = 64


@dataclass(frozen=True)
class AlignConfig:
    """Offset grid: every multiple of `step` in [-delta_max, delta_max]."""

    delta_max: float = 4.0
    step: float = 0.5

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ConfigError(f"step must be positive and finite, got {self.step}")
        if not 0 <= self.delta_max < math.inf:
            raise ConfigError(f"delta_max must be finite and >= 0, got {self.delta_max}")
        if self.delta_max / self.step == math.inf:
            raise ConfigError(f"delta_max / step overflows: {self.delta_max} / {self.step}")

    @property
    def n_offsets(self) -> int:
        """How many offsets the grid holds, counted without building it."""
        return 2 * math.floor(self.delta_max / self.step + _EPS) + 1

    def check_memory(self, windows: float = 0.0) -> None:
        """Refuse with MemoryCapExceeded a grid whose offsets the search
        could not hold under the memory cap (MOTIONLINK_MEMORY_CAP or
        8 GiB by default), for a trace spanning `windows` windows."""
        per_offset = _OFFSET_BYTES + _OFFSET_WINDOW_BYTES * windows
        _refuse_over(_resolve_cap(), math.ceil(self.n_offsets * per_offset),
                     f"offset grid of {self.n_offsets} offsets")

    def offsets(self) -> tuple[float, ...]:
        """Candidate offsets in preference order: 0, then outward in pairs
        with the positive one first, so equal distances resolve to the
        smallest magnitude and then to the positive sign.  A grid over the
        memory cap is refused before any offset is built."""
        self.check_memory()
        out = [0.0]
        for i in range(1, self.n_offsets // 2 + 1):
            out.append(i * self.step)
            out.append(-i * self.step)
        return tuple(out)


@dataclass(frozen=True)
class OffsetScore:
    offset: float
    distance: int
    n_common: int
    n_effective: int


@dataclass(frozen=True)
class AlignmentResult:
    offset: float
    distance: int
    n_common: int
    n_effective: int
    curve: tuple[OffsetScore, ...]


def _rebuild(
    trace: MotionTrace,
    offsets,
    w: float,
    model: ClassifierModel,
    origin: float,
) -> dict[float, tuple[np.ndarray, np.ndarray, int]]:
    """{offset: (labels, magnitudes, first grid index)} of the trace shifted
    by each offset and cut on the window grid {origin + j*w}.

    Only fully covered windows count; an offset whose shifted trace covers
    none is left out.  A window's features and magnitude depend only on the
    trace and its sample range [lo, hi), and offsets a whole number of
    windows apart cut the same ranges, so each distinct range is featurized
    and classified once, in one call, and the results are scattered back to
    every offset that cuts it: the cost follows the distinct windows (the
    offsets' phases modulo w), not the number of offsets.
    """
    edges = {}
    for offset in offsets:
        t_start = float(trace.timestamps[0]) + offset
        j0 = math.ceil((t_start - origin) / w - _EPS)
        j1 = math.floor((t_start + trace.duration - origin) / w + _EPS)
        if j1 > j0:
            grid = origin + w * np.arange(j0, j1 + 1, dtype=np.float64)
            idx = np.searchsorted(trace.timestamps + offset, grid - _EPS, side="left")
            edges[offset] = idx, j0
    if not edges:
        return {}
    # one int64 code per (lo, hi) sample range; both lie in [0, N]
    span = trace.timestamps.size + 1
    windows, where = np.unique(
        np.concatenate([idx[:-1] * span + idx[1:] for idx, _ in edges.values()]),
        return_inverse=True)
    feats, mags = motion_features(trace, windows // span, windows % span)
    codes, mags = classify_windows(model, feats)[where], mags[where]
    out, start = {}, 0
    for offset, (idx, first) in edges.items():
        stop = start + idx.size - 1
        out[offset] = codes[start:stop], mags[start:stop], first
        start = stop
    return out


def _scores(trace: MotionTrace, v_codes: np.ndarray, w: float, model: ClassifierModel,
            align: AlignConfig, lut: np.ndarray | None) -> list[tuple] | None:
    """The trace rebuilt at each offset of `align` and scored against the
    label rows `v_codes`, (p, n): None if no offset produces a full window.

    For each offset whose rebuilt sequence overlaps the grid [0, n), in
    preference order, one (offset, mags, first, lo, hi, distance,
    n_effective): the sequence's magnitudes and the grid index `first` of
    their start, the compared span [lo, hi), and one distance and one
    effective window count per visual row over that span.  The visual rows
    are packed once, and each offset's codes once, placed on the grid with
    their span's windows (in the restricted set) as the counted ones.  A
    model of the wrong channel raises ModelMismatch, and a grid the memory
    cap cannot hold for this trace MemoryCapExceeded, before anything is
    featurized.
    """
    _check_channel(model, "motion", Channel.MOTION)
    align.check_memory(trace.duration / w)
    rebuilt = _rebuild(trace, align.offsets(), w, model, float(trace.timestamps[0]))
    if not rebuilt:
        return None
    n = v_codes.shape[1]
    spans = [(offset, mags, first, max(0, first), min(n, first + codes.size), codes)
             for offset, (codes, mags, first) in rebuilt.items()]
    spans = [span for span in spans if span[4] > span[3]]
    grid = np.zeros((len(spans), n), dtype=np.uint8)
    counted = np.zeros(grid.shape, dtype=bool)
    for row, seen, (_, _, first, lo, hi, codes) in zip(grid, counted, spans):
        row[lo:hi] = codes[lo - first:hi - first]
        seen[lo:hi] = True
    v_words, g_words = pack_codes(v_codes), pack_codes(grid)[:, None]
    if lut is not None:
        counted &= lut[grid]
        v_in = pack_codes(lut[v_codes])
    g_in = pack_codes(counted)[:, None]
    scores, step = [], _pair_step(v_words.size)
    for s in range(0, len(spans), step):
        in_set = g_in[s:s + step] if lut is None else g_in[s:s + step] & v_in
        dist, n_eff = mismatch_counts(g_words[s:s + step], v_words, in_set)
        scores += [(*span[:5], d, e) for span, d, e
                   in zip(spans[s:s + step], dist, np.broadcast_to(n_eff, dist.shape))]
    return scores


def align_offset_search(
    trace: MotionTrace,
    visual_series: ActivityVectorSeries,
    model: ClassifierModel,
    align: AlignConfig = AlignConfig(),
    *,
    restricted: frozenset[ActivityLabel] | None = None,
) -> AlignmentResult:
    """Find the trace offset whose rebuilt labels best match one series.

    Minimizes the Hamming distance over the overlapping windows; ties go to
    the smaller offset magnitude, then to the positive sign.  Offsets whose
    shifted trace shares no window with the series are skipped; if none
    overlaps, NoOverlap propagates.  A motion series raises DataError.
    """
    if visual_series.channel is not Channel.VISUAL:
        raise DataError(f"{visual_series.source_id}: alignment needs a visual series")
    lut = _restricted_lut(restricted) if restricted is not None else None
    scores = _scores(trace, visual_series.codes[None], visual_series.window_seconds, model,
                     align, lut)
    if not scores:
        raise NoOverlap(
            f"no offset in ±{align.delta_max}s overlaps series {visual_series.source_id!r}"
        )
    curve = [OffsetScore(offset, int(dist[0]), hi - lo, int(n_eff[0]))
             for offset, _, _, lo, hi, dist, n_eff in scores]
    best = min(curve, key=lambda score: score.distance)  # the first minimum
    return AlignmentResult(best.offset, best.distance, best.n_common, best.n_effective,
                           tuple(sorted(curve, key=lambda score: score.offset)))


def correlate_with_alignment(
    motion_traces: Mapping[str, MotionTrace],
    visual: VisualDataset,
    model: ClassifierModel,
    config: FilterConfig = FilterConfig(),
    align: AlignConfig = AlignConfig(),
    *,
    min_observed_fraction: float = DEFAULT_MIN_OBSERVED_FRACTION,
) -> tuple[list[RankedIdentityList], dict[str, dict[str, float]]]:
    """Filter-and-rank where every identity's clock may be off.

    For each (avatar, identity) pair the offset grid is searched first; the
    pair survives filtering if its best-offset distance fits the mismatch
    budget of the compared span, and ranking then correlates magnitudes
    over that same span.

    Returns the rankings plus {avatar_id: {identity_id: chosen offset}} for
    every evaluated pair.  A `visual` of motion series raises DataError.
    """
    if not isinstance(visual, VisualDataset):
        raise DataError(f"expected a VisualDataset, got {type(visual).__name__}")
    n = visual.codes.shape[1]
    lut = _restricted_lut(config.restricted) if config.restricted is not None else None
    avatars = np.arange(len(visual))
    names, chosen_offsets = [], []
    # kept pairs as (avatar row, identity, motion row, lo, hi) rows, and the
    # motion rows: each rebuilt sequence some kept pair uses, on the grid,
    # zero outside its span
    pairs, mot = [np.empty((0, 5), dtype=np.int64)], []
    for ident, trace in motion_traces.items():
        scores = _scores(trace, visual.codes, visual.window_seconds, model, align, lut)
        if scores is None:
            raise NoOverlap(f"trace {ident!r}: no offset produces a full window")
        if not scores:
            continue
        offsets, mags, first, lo, hi, dist, n_eff = zip(*scores)
        dist, n_eff = np.stack(dist), np.stack(n_eff)
        # each avatar's best offset: the first minimum in preference order
        best = np.argmin(dist, axis=0)
        kept = np.flatnonzero(dist[best, avatars]
                              <= mismatch_budget(config.t_norm, n_eff[best, avatars]))
        kept_best = best[kept]
        used, row = np.unique(kept_best, return_inverse=True)
        pairs.append(np.stack([kept, np.full_like(kept, len(names)), len(mot) + row,
                               np.take(lo, kept_best), np.take(hi, kept_best)], axis=1))
        names.append(ident)
        chosen_offsets.append(np.take(offsets, best).tolist())
        mot += [np.pad(mags[i][lo[i] - first[i]:hi[i] - first[i]], (lo[i], n - hi[i]))
                for i in used.tolist()]
    rows, ids, mot_rows, lo, hi = np.concatenate(pairs).T
    # rank over the compared span [lo, hi) only: one visual row per (span,
    # avatar) in use, every position unobservable outside the span
    spans, vis_rows = np.unique(np.stack([lo, hi, rows], axis=1), axis=0, return_inverse=True)
    window = np.arange(n)
    inside = (spans[:, :1] <= window) & (window < spans[:, 1:2])
    vis = np.where(inside[:, None, :], visual.mags[spans[:, 2]], np.nan)
    rho, pos = _rank_candidates(vis, np.reshape(mot, (-1, n)), vis_rows, mot_rows, hi - lo,
                                min_observed_fraction)
    by_name = sorted(zip(names, chosen_offsets))
    chosen = {avatar_id: {name: column[a] for name, column in by_name}
              for a, avatar_id in enumerate(visual.ids)}
    return _ranked(visual.ids, names, rows, ids, rho, pos), chosen

"""The offset search as it ran before it moved to pair arrays and before
the rebuild featurized each distinct sample window once.

`_rebuild` here featurizes every window of every offset, duplicates
included.  `correlate_with_alignment` scores every (avatar, identity) pair
in a Python loop, with a scalar `mismatch_budget` call per pair and one
`_rank_candidates` call per avatar, and `align_offset_search` scores its
offsets one at a time.  Distances come from an elementwise compare of the
label codes, not from the library's packed kernel.  Tests compare the
`motionlink.align` functions against them for equal rebuilds (arrays bit
for bit), equal rankings (rho bit for bit), equal chosen offsets, equal
alignment results and the same exceptions.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from motionlink.align import AlignConfig, AlignmentResult, OffsetScore
from motionlink.engine import (
    DEFAULT_MIN_OBSERVED_FRACTION,
    FilterConfig,
    RankedIdentityList,
    _rank_candidates,
    _ranked,
    _restricted_lut,
    mismatch_budget,
)
from motionlink.errors import NoOverlap
from motionlink.model import ActivityLabel, ActivityVectorSeries, VisualDataset
from motionlink.pipeline import (
    _EPS,
    ClassifierModel,
    MotionTrace,
    classify_windows,
    motion_features,
)


def _mismatches(v: np.ndarray, m: np.ndarray, lut: np.ndarray | None):
    """(distance, n_effective) of code rows `v` against `m` along the last
    axis by elementwise compare: with a restricted set's `lut`, only windows
    whose labels both lie in it count."""
    counted = np.ones(np.broadcast_shapes(v.shape, m.shape), dtype=bool)
    if lut is not None:
        counted = lut[v] & lut[m]
    return (counted & (v != m)).sum(axis=-1), counted.sum(axis=-1)


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
    none is left out.  The windows of every offset are featurized in one
    call.
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
    feats, mags = motion_features(
        trace,
        np.concatenate([idx[:-1] for idx, _ in edges.values()]),
        np.concatenate([idx[1:] for idx, _ in edges.values()]),
    )
    codes = classify_windows(model, feats)
    out, start = {}, 0
    for offset, (idx, first) in edges.items():
        stop = start + idx.size - 1
        out[offset] = codes[start:stop], mags[start:stop], first
        start = stop
    return out


class _Scored(NamedTuple):
    """One identity rebuilt at one offset, scored against every avatar over
    the compared grid span [lo, hi)."""

    offset: float
    mags: np.ndarray
    first: int  # grid index of mags[0]
    lo: int
    hi: int
    distance: np.ndarray  # (p,), one per avatar
    n_effective: np.ndarray  # (p,)


def _overlap(first: int, length: int, n_visual: int) -> tuple[int, int]:
    """Common grid index range [lo, hi) between a rebuilt sequence starting
    at grid index `first` and a visual series occupying indices [0, n)."""
    return max(0, first), min(n_visual, first + length)


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
    overlaps, NoOverlap propagates.
    """
    w = visual_series.window_seconds
    v_codes = visual_series.codes
    lut = _restricted_lut(restricted) if restricted is not None else None
    rebuilt = _rebuild(trace, align.offsets(), w, model, float(trace.timestamps[0]))
    curve = []
    best: OffsetScore | None = None
    for offset, (codes, _, first) in rebuilt.items():
        lo, hi = _overlap(first, codes.size, v_codes.size)
        if hi <= lo:
            continue
        v, m = v_codes[lo:hi], codes[lo - first:hi - first]
        dist, n_eff = _mismatches(v, m, lut)
        score = OffsetScore(offset, int(dist), hi - lo, int(n_eff))
        curve.append(score)
        if best is None or score.distance < best.distance:
            best = score
    if best is None:
        raise NoOverlap(
            f"no offset in ±{align.delta_max}s overlaps series {visual_series.source_id!r}"
        )
    curve.sort(key=lambda s: s.offset)
    return AlignmentResult(
        best.offset, best.distance, best.n_common, best.n_effective, tuple(curve)
    )


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
    every evaluated pair.
    """
    w = visual.window_seconds
    v_codes = visual.codes
    n_visual = v_codes.shape[1]
    lut = _restricted_lut(config.restricted) if config.restricted is not None else None

    # one rebuild per identity covers every offset; each rebuilt label
    # sequence is scored against all avatars at once.  scored[ident] lists
    # the overlapping offsets in preference order
    scored: dict[str, list[_Scored]] = {}
    for ident, trace in motion_traces.items():
        rebuilt = _rebuild(trace, align.offsets(), w, model, float(trace.timestamps[0]))
        if not rebuilt:
            raise NoOverlap(f"trace {ident!r}: no offset produces a full window")
        rows = []
        for offset, (codes, mags, first) in rebuilt.items():
            lo, hi = _overlap(first, codes.size, n_visual)
            if hi <= lo:
                continue
            v, m = v_codes[:, lo:hi], codes[lo - first:hi - first]
            dist, n_eff = _mismatches(v, m, lut)
            rows.append(_Scored(offset, mags, first, lo, hi, dist,
                                np.broadcast_to(n_eff, dist.shape)))
        scored[ident] = rows
    # per identity, each avatar's best offset: the first minimum in preference order
    best_row = {
        ident: np.argmin(np.stack([row.distance for row in rows]), axis=0)
        for ident, rows in scored.items() if rows
    }

    rankings = []
    chosen: dict[str, dict[str, float]] = {}
    # one avatar's kept candidates, filled from the front
    vis = np.empty((len(best_row), *visual.mags.shape[1:]))
    mot = np.empty((len(best_row), n_visual))
    spans = np.empty(len(best_row), dtype=np.int64)
    for a, avatar_id in enumerate(visual.ids):
        avatar_mags = visual.mags[a]
        ids = []
        offsets_here: dict[str, float] = {}
        for ident in sorted(best_row):
            offset, mags, first, lo, hi, dist, n_eff = scored[ident][best_row[ident][a]]
            offsets_here[ident] = offset
            if dist[a] > mismatch_budget(config.t_norm, int(n_eff[a])):
                continue
            # rank over the compared span [lo, hi) only: windows outside
            # it are unobservable for every position
            c = len(ids)
            vis[c] = np.nan
            vis[c, :, lo:hi] = avatar_mags[:, lo:hi]
            mot[c] = 0.0
            mot[c, lo:hi] = mags[lo - first:hi - first]
            spans[c] = hi - lo
            ids.append(ident)
        kept = np.arange(len(ids))
        rho, pos = _rank_candidates(vis[:len(ids)], mot[:len(ids)], kept, kept,
                                    spans[:len(ids)], min_observed_fraction)
        rankings += _ranked([avatar_id], ids, np.zeros_like(kept), kept, rho, pos)
        chosen[avatar_id] = offsets_here
    return rankings, chosen

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
    _position_matrix,
    _rank_pairs,
    _ranked,
    _restricted_lut,
    mismatch_budget,
)
from .model import (
    ActivityLabel,
    ActivityVectorSeries,
    Channel,
    MagnitudeSeq,
    VisualDataset,
)
from .pipeline import (
    SAVGOL_ORDER,
    SAVGOL_WINDOW,
    ClassifierModel,
    MotionTrace,
    _smooth_columns,
    classify_window,
    motion_magnitude,
    motion_window_features,
)

__all__ = [
    "AlignConfig",
    "AlignmentResult",
    "OffsetScore",
    "shift_and_rebuild",
    "align_offset_search",
    "correlate_with_alignment",
]

_EPS = 1e-9


@dataclass(frozen=True)
class AlignConfig:
    """Offset grid: every multiple of `step` in [-delta_max, delta_max]."""

    delta_max: float = 4.0
    step: float = 0.5
    share_offset: bool = False

    def __post_init__(self):
        if not self.step > 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if self.delta_max < 0:
            raise ConfigError(f"delta_max must be >= 0, got {self.delta_max}")

    def offsets(self) -> tuple[float, ...]:
        """Candidate offsets in preference order: 0, then outward in pairs
        with the positive one first, so equal distances resolve to the
        smallest magnitude and then to the positive sign."""
        steps = int(math.floor(self.delta_max / self.step + _EPS))
        out = [0.0]
        for i in range(1, steps + 1):
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


def _smoothed(trace: MotionTrace, savgol_window: int, savgol_order: int):
    return (
        _smooth_columns(trace.accel, savgol_window, savgol_order),
        _smooth_columns(trace.gyro, savgol_window, savgol_order),
    )


def _grid_series(
    trace: MotionTrace,
    offset: float,
    w: float,
    model: ClassifierModel,
    origin: float,
    smoothed: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Labels, magnitudes, and first grid index of the shifted trace cut on
    the window grid {origin + j*w}.  Only fully covered windows count."""
    ts = trace.timestamps + offset
    t_start = float(ts[0])
    t_end = t_start + trace.duration
    j0 = math.ceil((t_start - origin) / w - _EPS)
    j1 = math.floor((t_end - origin) / w + _EPS)
    if j1 <= j0:
        raise NoOverlap(
            f"no full {w}s window fits the trace shifted by {offset:+g}s"
        )
    edges = origin + w * np.arange(j0, j1 + 1, dtype=np.float64)
    idx = np.searchsorted(ts, edges - _EPS, side="left")
    accel, gyro = smoothed
    codes = np.empty(j1 - j0, dtype=np.uint8)
    mags = np.empty(j1 - j0, dtype=np.float64)
    for k in range(j1 - j0):
        sl = slice(int(idx[k]), int(idx[k + 1]))
        feats = motion_window_features(accel[sl], gyro[sl])
        codes[k] = int(classify_window(model, feats))
        mags[k] = motion_magnitude(trace.accel[sl])
    return codes, mags, j0


def shift_and_rebuild(
    trace: MotionTrace,
    offset: float,
    w: float,
    model: ClassifierModel,
    source_id: str,
    *,
    grid_origin: float | None = None,
    savgol_window: int = SAVGOL_WINDOW,
    savgol_order: int = SAVGOL_ORDER,
) -> tuple[ActivityVectorSeries, int]:
    """Shift the trace by `offset` seconds and rebuild its series on a fixed
    window grid.

    The grid is anchored at `grid_origin` (default: the unshifted trace
    start), so the windows move relative to the data as the offset changes.
    Returns the series plus the grid index of its first window; the index
    can be negative for negative offsets.  At offset 0 with the default
    origin this reproduces the plain series builder output.
    """
    if not isinstance(trace, MotionTrace):
        raise DataError("alignment operates on body-sensor traces")
    if not w > 0:
        raise DataError(f"window width must be positive, got {w}")
    origin = float(trace.timestamps[0]) if grid_origin is None else float(grid_origin)
    codes, mags, first = _grid_series(
        trace, float(offset), w, model, origin,
        _smoothed(trace, savgol_window, savgol_order),
    )
    series = ActivityVectorSeries(
        source_id=source_id,
        channel=Channel.MOTION,
        window_seconds=w,
        activities=tuple(ActivityLabel(int(c)) for c in codes),
        magnitudes={ActivityVectorSeries.MOTION_KEY: MagnitudeSeq(mags.tolist())},
    )
    return series, first


def _overlap(first: int, length: int, n_visual: int) -> tuple[int, int]:
    """Common grid index range [lo, hi) between a rebuilt sequence starting
    at grid index `first` and a visual series occupying indices [0, n)."""
    return max(0, first), min(n_visual, first + length)


def _masked_distance(
    v_codes: np.ndarray, m_codes: np.ndarray, lut: np.ndarray | None
) -> tuple[int, int]:
    if lut is None:
        return int((v_codes != m_codes).sum()), int(v_codes.size)
    counted = lut[v_codes] & lut[m_codes]
    return int(((v_codes != m_codes) & counted).sum()), int(counted.sum())


def align_offset_search(
    trace: MotionTrace,
    visual_series: ActivityVectorSeries,
    model: ClassifierModel,
    align: AlignConfig = AlignConfig(),
    *,
    restricted: frozenset[ActivityLabel] | None = None,
    grid_origin: float | None = None,
    savgol_window: int = SAVGOL_WINDOW,
    savgol_order: int = SAVGOL_ORDER,
) -> AlignmentResult:
    """Find the trace offset whose rebuilt labels best match one series.

    Minimizes the Hamming distance over the overlapping windows; ties go to
    the smaller offset magnitude, then to the positive sign.  Offsets whose
    shifted trace shares no window with the series are skipped; if none
    overlaps, NoOverlap propagates.
    """
    w = visual_series.window_seconds
    v_codes = visual_series.activity_codes()
    lut = _restricted_lut(restricted) if restricted is not None else None
    origin = float(trace.timestamps[0]) if grid_origin is None else float(grid_origin)
    smoothed = _smoothed(trace, savgol_window, savgol_order)
    curve = []
    best: OffsetScore | None = None
    for offset in align.offsets():
        try:
            codes, _, first = _grid_series(trace, offset, w, model, origin, smoothed)
        except NoOverlap:
            continue
        lo, hi = _overlap(first, codes.size, v_codes.size)
        if hi <= lo:
            continue
        dist, n_eff = _masked_distance(
            v_codes[lo:hi], codes[lo - first:hi - first], lut
        )
        score = OffsetScore(offset, dist, hi - lo, n_eff)
        curve.append(score)
        if best is None or dist < best.distance:
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
    grid_origin: float | None = None,
    savgol_window: int = SAVGOL_WINDOW,
    savgol_order: int = SAVGOL_ORDER,
) -> tuple[list[RankedIdentityList], dict[str, dict[str, float]]]:
    """Filter-and-rank where every identity's clock may be off.

    For each (avatar, identity) pair the offset grid is searched first; the
    pair survives filtering if its best-offset distance fits the mismatch
    budget of the compared span, and ranking then correlates magnitudes
    over that same span.  With `align.share_offset` each identity commits
    to one offset (its best across all avatars) instead of choosing per
    pair, which suits clocks that are wrong by one constant per device.

    Returns the rankings plus {avatar_id: {identity_id: chosen offset}} for
    every evaluated pair.
    """
    n_visual = visual.uniform_length()
    w = None
    for series in visual:
        w = series.window_seconds
        break
    if w is None:
        raise DataError("visual dataset is empty")
    lut = _restricted_lut(config.restricted) if config.restricted is not None else None

    # one rebuild per (identity, offset), shared across avatars
    rebuilt: dict[str, dict[float, tuple[np.ndarray, np.ndarray, int]]] = {}
    for ident, trace in motion_traces.items():
        origin = float(trace.timestamps[0]) if grid_origin is None else float(grid_origin)
        smoothed = _smoothed(trace, savgol_window, savgol_order)
        per_offset = {}
        for offset in align.offsets():
            try:
                per_offset[offset] = _grid_series(
                    trace, offset, w, model, origin, smoothed
                )
            except NoOverlap:
                continue
        if not per_offset:
            raise NoOverlap(f"trace {ident!r}: no offset produces a full window")
        rebuilt[ident] = per_offset

    def pair_score(avatar_codes, ident, offset):
        codes, _, first = rebuilt[ident][offset]
        lo, hi = _overlap(first, codes.size, n_visual)
        if hi <= lo:
            return None
        dist, n_eff = _masked_distance(
            avatar_codes[lo:hi], codes[lo - first:hi - first], lut
        )
        return dist, n_eff, lo, hi

    shared: dict[str, float] = {}
    if align.share_offset:
        # an identity's clock error is one constant: commit to the offset
        # that best explains its closest avatar
        for ident in rebuilt:
            best = None
            for offset in align.offsets():
                if offset not in rebuilt[ident]:
                    continue
                for avatar in visual:
                    score = pair_score(avatar.activity_codes(), ident, offset)
                    if score is None:
                        continue
                    if best is None or score[0] < best[0]:
                        best = (score[0], offset)
            if best is None:
                raise NoOverlap(f"identity {ident!r} overlaps no avatar")
            shared[ident] = best[1]

    rankings = []
    chosen: dict[str, dict[str, float]] = {}
    for avatar in visual:
        avatar_codes = avatar.activity_codes()
        avatar_mags = _position_matrix(avatar)
        ids, rows = [], []
        offsets_here: dict[str, float] = {}
        for ident in sorted(rebuilt):
            if align.share_offset:
                candidates = [shared[ident]]
            else:
                candidates = [o for o in align.offsets() if o in rebuilt[ident]]
            best = None
            for offset in candidates:
                score = pair_score(avatar_codes, ident, offset)
                if score is None:
                    continue
                if best is None or score[0] < best[0]:
                    best = (score[0], score[1], score[2], score[3], offset)
            if best is None:
                continue
            dist, n_eff, lo, hi, offset = best
            offsets_here[ident] = offset
            if dist > mismatch_budget(config.t_norm, n_eff):
                continue
            # rank over the compared span [lo, hi) only: windows outside
            # it are unobservable for every position
            codes, mags, first = rebuilt[ident][offset]
            vis = np.full_like(avatar_mags, np.nan)
            vis[:, lo:hi] = avatar_mags[:, lo:hi]
            mot = np.zeros(n_visual)
            mot[lo:hi] = mags[lo - first:hi - first]
            ids.append(ident)
            rows.append((vis, mot, hi - lo))
        rho, pos = _rank_pairs(rows, min_observed_fraction)
        rankings.append(_ranked(avatar.source_id, ids, rho, pos))
        chosen[avatar.source_id] = offsets_here
    return rankings, chosen

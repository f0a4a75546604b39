"""Scalar per-window reference for the batched window featurizer.

These are the one-window-at-a-time feature, magnitude and classification
functions the pipeline used before it featurized windows in blocks.  Tests
compare `pipeline.motion_features`, `pipeline.visual_features` and
`pipeline.classify_windows` against them with exact equality, and use them
to read single windows of synthesized traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from motionlink.errors import DataError, EmptyWindow, ModelMismatch
from motionlink.model import ActivityLabel, SensorPosition
from motionlink.pipeline import (
    FEATURE_GROUPS,
    GRAVITY,
    POSITION_PROXIES,
    UNOBSERVABLE_MISSING_FRACTION,
    ClassifierModel,
    KeypointTrace,
    MotionTrace,
    window_edges,
)


@dataclass(frozen=True)
class WindowSpan:
    """Half-open window [start, end) and the sample index range it covers."""

    index: int
    start: float
    end: float
    lo: int
    hi: int

    @property
    def n_samples(self) -> int:
        return self.hi - self.lo


def segment_windows(trace: MotionTrace | KeypointTrace, w: float) -> list[WindowSpan]:
    """`pipeline.window_edges` as one span per window."""
    idx = window_edges(trace, w)
    t0 = float(trace.timestamps[0])
    edges = t0 + w * np.arange(idx.size)
    return [
        WindowSpan(i, float(edges[i]), float(edges[i + 1]), int(idx[i]), int(idx[i + 1]))
        for i in range(idx.size - 1)
    ]


def motion_magnitude(accel: np.ndarray) -> float:
    """Mean absolute deviation of |accel| from gravity over one window."""
    accel = np.asarray(accel, dtype=np.float64)
    if accel.size == 0:
        raise EmptyWindow("motion window has no samples")
    if accel.ndim != 2 or accel.shape[1] != 3:
        raise DataError(f"accel window must be (n, 3), got {accel.shape}")
    norms = np.linalg.norm(accel, axis=1)
    return float(np.abs(norms - GRAVITY).mean())


def _present_mask(xy: np.ndarray) -> np.ndarray:
    return ~np.isnan(xy).any(axis=1)


def visual_magnitude(trace: KeypointTrace, span: WindowSpan,
                     position: SensorPosition) -> float | None:
    """Mean keypoint acceleration magnitude for one position over one window.

    Velocities and accelerations come from finite differences over the
    frames where the proxy keypoint was detected, using the real frame
    spacing.  Returns None (unobservable) when the keypoint is missing in
    more than half the frames or fewer than three frames remain.
    """
    if span.n_samples == 0:
        raise EmptyWindow(f"visual window {span.index} has no frames")
    proxy = POSITION_PROXIES[position]
    arr = trace.points.get(proxy)
    if arr is None:
        return None
    ts = trace.timestamps[span.lo:span.hi]
    xy = arr[span.lo:span.hi]
    present = _present_mask(xy)
    n = present.size
    if (n - present.sum()) / n > UNOBSERVABLE_MISSING_FRACTION:
        return None
    ts, xy = ts[present], xy[present]
    if ts.size < 3:
        return None
    dt = np.diff(ts)
    vel = np.diff(xy, axis=0) / dt[:, None]
    mid = 0.5 * (ts[1:] + ts[:-1])
    acc = np.diff(vel, axis=0) / np.diff(mid)[:, None]
    return float(np.linalg.norm(acc, axis=1).mean())


def _dominant_bin(x: np.ndarray) -> float:
    if x.size < 4:
        return 0.0
    spec = np.abs(np.fft.rfft(x - x.mean()))
    if spec.size < 2 or not spec[1:].any():
        return 0.0
    return float(np.argmax(spec[1:]) + 1)


def motion_window_features(accel: np.ndarray, gyro: np.ndarray) -> np.ndarray:
    """Per-axis summary features of one motion window."""
    accel = np.asarray(accel, dtype=np.float64)
    gyro = np.asarray(gyro, dtype=np.float64)
    if accel.size == 0 or gyro.size == 0:
        raise EmptyWindow("motion window has no samples")
    feats = []
    for axis in range(3):
        for x in (accel[:, axis], gyro[:, axis]):
            centered = x - x.mean()
            feats.extend([x.mean(), x.std(), float((centered ** 2).mean()),
                          _dominant_bin(x)])
    return np.asarray(feats, dtype=np.float64)


def visual_window_features(trace: KeypointTrace, span: WindowSpan) -> np.ndarray:
    """Displacement statistics of the keypoint groups over one window.

    Per group: mean and std of frame steps plus the group's share of the
    total path length.  The shares are scale-free, which keeps the pattern
    part of the signature stable across movement intensities.
    """
    if span.n_samples == 0:
        raise EmptyWindow(f"visual window {span.index} has no frames")
    stats = []
    group_paths = []
    path_lengths = []
    for _, names in FEATURE_GROUPS:
        disps = []
        group_total = 0.0
        for name in names:
            arr = trace.points.get(name)
            if arr is None:
                continue
            xy = arr[span.lo:span.hi]
            present = _present_mask(xy)
            pts = xy[present]
            if pts.shape[0] < 2:
                continue
            d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            disps.append(d)
            path_lengths.append(d.sum())
            group_total += d.sum()
        if disps:
            alld = np.concatenate(disps)
            stats.append((alld.mean(), alld.std()))
        else:
            stats.append((0.0, 0.0))
        group_paths.append(group_total)
    total_path = sum(group_paths)
    feats = []
    for (mean, std), path in zip(stats, group_paths):
        share = path / total_path if total_path > 0 else 0.0
        feats.extend([mean, std, share])
    spread = float(np.std(path_lengths)) if len(path_lengths) >= 2 else 0.0
    feats.append(spread)
    return np.asarray(feats, dtype=np.float64)


def classify_window(model: ClassifierModel, features: np.ndarray) -> ActivityLabel:
    """Nearest centroid by Euclidean distance; exact ties go to the lowest code."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (model.dim,):
        raise ModelMismatch(
            f"feature vector of shape {features.shape} against model dim {model.dim}"
        )
    z = (features - model.feature_mean) / model.feature_std
    d2 = ((model.centroids - z) ** 2).sum(axis=1)
    return ActivityLabel(int(np.argmin(d2)))  # argmin returns the first == lowest code

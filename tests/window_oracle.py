"""Scalar per-window references for the batched window code.

These are the one-window-at-a-time feature, magnitude and classification
functions the pipeline used before it featurized windows in blocks, and the
per-window trace synthesizers `synth` used before it built traces as block
arithmetic.  Tests compare `pipeline.motion_features`,
`pipeline.visual_features`, `pipeline.classify_windows`,
`synth.synthesize_motion_trace` and `synth.synthesize_keypoint_trace`
against them with exact equality (the synthesizers also on the generator
state they leave behind), and use them to read single windows of
synthesized traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from motionlink.errors import ConfigError, DataError, EmptyWindow, ModelMismatch
from motionlink.model import ActivityLabel, SensorPosition
from motionlink.pipeline import (
    FEATURE_GROUPS,
    GRAVITY,
    KEYPOINT_NAMES,
    POSITION_PROXIES,
    UNOBSERVABLE_MISSING_FRACTION,
    ClassifierModel,
    KeypointTrace,
    MotionTrace,
    window_edges,
)
from motionlink.synth import (
    _ACCEL_PER_UNIT,
    _ELLIPSE_MEAN,
    _KEYPOINT_GROUP,
    _MOTION_SIGNATURES,
    _REST_POSE,
    _VISUAL_ELLIPSE,
    _VISUAL_WEIGHTS,
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


def synthesize_motion_trace(
    script: Sequence[int],
    amplitudes: Sequence[float],
    window_seconds: float,
    rng: np.random.Generator,
    *,
    sample_rate: float = 50.0,
) -> MotionTrace:
    """Inertial trace acting out `script`, one entry per window, at
    `sample_rate` rounded to whole samples per window: the library's fixed
    50 Hz by default, another rate where a test needs one.

    Within window t the vertical acceleration oscillates around gravity with
    mean absolute deviation equal to amplitudes[t]; the per-activity
    signature sets the frequency, the lateral leakage, and the gyroscope
    mix.
    """
    script = np.asarray(script, dtype=np.int64)
    amps = np.asarray(amplitudes, dtype=np.float64)
    if script.shape != amps.shape:
        raise DataError("script and amplitudes must have the same length")
    per_win = int(round(window_seconds * sample_rate))
    if per_win < 2:
        raise ConfigError("window too short for the requested sample rate")
    n = len(script)
    dt = window_seconds / per_win
    ts = np.arange(n * per_win, dtype=np.float64) * dt
    accel = np.zeros((n * per_win, 3), dtype=np.float64)
    gyro = np.zeros((n * per_win, 3), dtype=np.float64)
    tau = np.arange(per_win, dtype=np.float64) * dt
    for t in range(n):
        lab = ActivityLabel(int(script[t]))
        freq, wx, wy, freq_g, gw = _MOTION_SIGNATURES[lab]
        a = amps[t]
        # peak = (pi/2) * amplitude makes mean |sin| come out to `amplitude`
        peak = 0.5 * math.pi * a
        phase = rng.uniform(0.0, 2.0 * math.pi)
        phase_g = rng.uniform(0.0, 2.0 * math.pi)
        arg = 2.0 * math.pi * freq * tau
        arg_g = 2.0 * math.pi * freq_g * tau
        sl = slice(t * per_win, (t + 1) * per_win)
        accel[sl, 0] = peak * wx * np.sin(arg + phase + 1.1)
        accel[sl, 1] = peak * wy * np.cos(arg + phase + 0.4)
        accel[sl, 2] = GRAVITY + peak * np.sin(arg + phase)
        for axis in range(3):
            gyro[sl, axis] = gw[axis] * a * np.sin(arg_g + phase_g + 0.7 * axis)
    return MotionTrace(timestamps=ts, accel=accel, gyro=gyro)


def synthesize_keypoint_trace(
    script: Sequence[int],
    amplitudes: Sequence[float],
    window_seconds: float,
    rng: np.random.Generator,
    *,
    keypoint_observability: Mapping[str, float] | None = None,
) -> KeypointTrace:
    """2-D keypoint trace acting out `script` at 30 frames per second.

    Each keypoint oscillates around its rest position; excursion scales with
    the realized amplitude and the activity's per-group weight, divided by
    the activity's frequency-squared and path-shape factor so the per-window
    acceleration magnitude comes back as amplitude times one constant no
    matter which activity produced it.  Dropout, if requested, is drawn per
    keypoint per window (a whole window of a keypoint disappears at once,
    matching how occlusion behaves).
    """
    script = np.asarray(script, dtype=np.int64)
    amps = np.asarray(amplitudes, dtype=np.float64)
    if script.shape != amps.shape:
        raise DataError("script and amplitudes must have the same length")
    per_win = int(round(window_seconds * 30.0))
    if per_win < 4:
        raise ConfigError("window too short for the frame rate")
    n = len(script)
    dt = window_seconds / per_win
    ts = np.arange(n * per_win, dtype=np.float64) * dt
    tau = np.arange(per_win, dtype=np.float64) * dt
    obs = keypoint_observability or {}
    # second-central-difference gain of a unit sinusoid at each frequency
    accel_gain = {
        lab: (2.0 * math.sin(math.pi * sig[0] * dt) / dt) ** 2 * _ELLIPSE_MEAN[lab]
        for lab, sig in _MOTION_SIGNATURES.items()
    }
    points: dict[str, np.ndarray] = {}
    for name in KEYPOINT_NAMES:
        rest = _REST_POSE[name]
        group = _KEYPOINT_GROUP[name]
        xy = np.empty((n * per_win, 2), dtype=np.float64)
        p_obs = float(obs.get(name, 1.0))
        for t in range(n):
            lab = ActivityLabel(int(script[t]))
            freq = _MOTION_SIGNATURES[lab][0]
            weight = _VISUAL_WEIGHTS[lab][group]
            ex, ey = _VISUAL_ELLIPSE[lab]
            amp_px = _ACCEL_PER_UNIT * amps[t] * weight / accel_gain[lab]
            phase = rng.uniform(0.0, 2.0 * math.pi)
            arg = 2.0 * math.pi * freq * tau + phase
            sl = slice(t * per_win, (t + 1) * per_win)
            xy[sl, 0] = rest[0] + amp_px * ex * np.sin(arg)
            xy[sl, 1] = rest[1] + amp_px * ey * 0.6 * np.cos(arg)
            if p_obs < 1.0 and rng.random() >= p_obs:
                xy[sl] = np.nan
        points[name] = xy
    return KeypointTrace(timestamps=ts, points=points)

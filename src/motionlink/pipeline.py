"""Signal pipeline: raw traces -> windows -> labels and magnitudes.

Two trace kinds feed the pipeline.  MotionTrace is an on-body IMU recording
(tri-axial accelerometer + gyroscope); KeypointTrace is a 2-D pose track of
an observed avatar.  Both reduce to an ActivityVectorSeries on a fixed
window grid: a classified activity label per window plus movement
magnitudes (one sequence for motion, one per candidate sensor position for
visual, where a position's magnitude is derived from its proxy keypoints
and may be unobservable).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.signal import savgol_filter

from .errors import (
    DataError,
    EmptyWindow,
    FilterConfigError,
    InvalidConfusionMatrix,
    ModelMismatch,
    TraceTooShort,
)
from .model import (
    ActivityLabel,
    ActivityVectorSeries,
    Channel,
    MagnitudeSeq,
    SensorPosition,
    not_utf8,
)

GRAVITY = 9.81
DEFAULT_SAMPLE_INTERVAL = 0.020  # 50 Hz IMU
DEFAULT_FRAME_RATE = 30.0

SAVGOL_WINDOW = 11
SAVGOL_ORDER = 3

# A position's movement is read off the keypoint(s) closest to where the
# sensor would sit: pockets track the hip on that side, wrists the wrist.
POSITION_PROXIES: dict[SensorPosition, str] = {
    SensorPosition.LEFT_FRONT_POCKET: "left_hip",
    SensorPosition.RIGHT_FRONT_POCKET: "right_hip",
    SensorPosition.LEFT_BACK_POCKET: "left_hip",
    SensorPosition.RIGHT_BACK_POCKET: "right_hip",
    SensorPosition.LEFT_WRIST: "left_wrist",
    SensorPosition.RIGHT_WRIST: "right_wrist",
}

KEYPOINT_NAMES = (
    "nose",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
    "left_ankle",
    "right_ankle",
)

# Keypoint groups used for visual features, in feature order.
FEATURE_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("head", ("nose",)),
    ("wrists", ("left_wrist", "right_wrist")),
    ("hips", ("left_hip", "right_hip")),
    ("ankles", ("left_ankle", "right_ankle")),
)

UNOBSERVABLE_MISSING_FRACTION = 0.5
_EPS = 1e-9


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class MotionTrace:
    """Timestamped IMU samples.

    timestamps : (N,) seconds, strictly increasing
    accel      : (N, 3) m/s^2, gravity included
    gyro       : (N, 3) rad/s
    """

    timestamps: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    nominal_interval: float = DEFAULT_SAMPLE_INTERVAL

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        acc = np.asarray(self.accel, dtype=np.float64)
        gyr = np.asarray(self.gyro, dtype=np.float64)
        if ts.ndim != 1 or ts.size == 0:
            raise DataError("timestamps must be a non-empty 1-D array")
        if acc.shape != (ts.size, 3) or gyr.shape != (ts.size, 3):
            raise DataError(
                f"accel/gyro must be ({ts.size}, 3), got {acc.shape} and {gyr.shape}"
            )
        if not (np.isfinite(ts).all() and np.isfinite(acc).all() and np.isfinite(gyr).all()):
            raise DataError("trace contains non-finite values")
        if ts.size > 1 and not (np.diff(ts) > 0).all():
            raise DataError("timestamps must be strictly increasing")
        if not self.nominal_interval > 0:
            raise DataError("nominal_interval must be positive")
        for name, arr in (("timestamps", ts), ("accel", acc), ("gyro", gyr)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def duration(self) -> float:
        """Covered time span; the last sample covers one nominal interval."""
        return float(self.timestamps[-1] - self.timestamps[0] + self.nominal_interval)

    def shifted(self, offset: float) -> "MotionTrace":
        return MotionTrace(self.timestamps + offset, self.accel, self.gyro,
                           self.nominal_interval)


@dataclass(frozen=True)
class KeypointTrace:
    """2-D keypoint tracks of one observed avatar.

    points maps keypoint name -> (N, 2) pixel coordinates with NaN rows
    where the keypoint was not detected in that frame.
    """

    timestamps: np.ndarray
    points: Mapping[str, np.ndarray]
    frame_rate: float = DEFAULT_FRAME_RATE

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        if ts.ndim != 1 or ts.size == 0:
            raise DataError("timestamps must be a non-empty 1-D array")
        if ts.size > 1 and not (np.diff(ts) > 0).all():
            raise DataError("timestamps must be strictly increasing")
        if not self.frame_rate > 0:
            raise DataError("frame_rate must be positive")
        pts = {}
        for name, arr in self.points.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (ts.size, 2):
                raise DataError(f"keypoint {name!r} must be ({ts.size}, 2), got {arr.shape}")
            arr.setflags(write=False)
            pts[str(name)] = arr
        ts.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def nominal_interval(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0] + self.nominal_interval)

    def shifted(self, offset: float) -> "KeypointTrace":
        return KeypointTrace(self.timestamps + offset, self.points, self.frame_rate)


MOTION_CSV_FIELDS = ("ts", "ax", "ay", "az", "gx", "gy", "gz")


def write_motion_csv(trace: MotionTrace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MOTION_CSV_FIELDS)
        for i in range(len(trace)):
            writer.writerow(
                [repr(float(trace.timestamps[i]))]
                + [repr(float(v)) for v in trace.accel[i]]
                + [repr(float(v)) for v in trace.gyro[i]]
            )


def read_motion_csv(path, nominal_interval: float = DEFAULT_SAMPLE_INTERVAL) -> MotionTrace:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != MOTION_CSV_FIELDS:
                raise DataError(f"{path}: expected header {','.join(MOTION_CSV_FIELDS)}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 7:
                    raise DataError(f"{path}:{lineno}: expected 7 columns, got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    if not rows:
        raise DataError(f"{path}: no samples")
    arr = np.asarray(rows, dtype=np.float64)
    return MotionTrace(arr[:, 0], arr[:, 1:4], arr[:, 4:7], nominal_interval)


def write_keypoint_jsonl(trace: KeypointTrace, path) -> None:
    names = sorted(trace.points)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(trace)):
            kp = {}
            for name in names:
                xy = trace.points[name][i]
                kp[name] = None if np.isnan(xy).any() else [float(xy[0]), float(xy[1])]
            fh.write(json.dumps({"ts": float(trace.timestamps[i]), "kp": kp},
                               sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_keypoint_jsonl(path, frame_rate: float = DEFAULT_FRAME_RATE) -> KeypointTrace:
    ts, frames = [], []
    names: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    ts.append(float(obj["ts"]))
                    frames.append(obj["kp"])
                    names.update(obj["kp"])
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise DataError(f"{path}:{lineno}: bad keypoint frame: {exc}") from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    if not ts:
        raise DataError(f"{path}: no frames")
    points = {name: np.full((len(ts), 2), np.nan) for name in names}
    for i, frame in enumerate(frames):
        for name, xy in frame.items():
            if xy is not None:
                points[name][i] = xy
    return KeypointTrace(np.asarray(ts), points, frame_rate)


# ---------------------------------------------------------------------------
# windowing

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
    """Cut a trace into floor(duration / w) half-open windows of width w.

    The grid starts at the first timestamp; a trailing remainder shorter
    than w is dropped.  Raises TraceTooShort when not even one window fits.
    """
    if not w > 0:
        raise DataError(f"window width must be positive, got {w}")
    n = int(math.floor(trace.duration / w + _EPS))
    if n < 1:
        raise TraceTooShort(
            f"trace covers {trace.duration:.3f}s, shorter than one {w}s window"
        )
    t0 = float(trace.timestamps[0])
    edges = t0 + w * np.arange(n + 1)
    # right edges are exclusive: a sample exactly on an edge opens a window
    idx = np.searchsorted(trace.timestamps, edges - _EPS, side="left")
    return [
        WindowSpan(i, float(edges[i]), float(edges[i + 1]), int(idx[i]), int(idx[i + 1]))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# smoothing

def savgol_smooth(signal: np.ndarray, window_len: int = SAVGOL_WINDOW,
                  poly_order: int = SAVGOL_ORDER) -> np.ndarray:
    """Savitzky-Golay smoothing with mirrored edges.

    Fits a poly_order polynomial over each odd-length window_len neighborhood
    and evaluates it at the center.  Linearity in the input and exact
    reproduction of polynomials up to poly_order are what the tests pin down.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise DataError("savgol_smooth expects a 1-D signal")
    if window_len < 3 or window_len % 2 == 0:
        raise FilterConfigError(f"window_len must be odd and >= 3, got {window_len}")
    if poly_order < 0 or poly_order >= window_len:
        raise FilterConfigError(
            f"poly_order must satisfy 0 <= order < window_len, got {poly_order}"
        )
    if signal.size < window_len:
        raise FilterConfigError(
            f"signal of {signal.size} samples is shorter than window_len {window_len}"
        )
    return savgol_filter(signal, window_len, poly_order, mode="mirror")


def _smooth_columns(arr: np.ndarray, window_len: int, poly_order: int) -> np.ndarray:
    if arr.shape[0] < window_len:
        return arr  # too short to smooth; classification still sees raw data
    return savgol_filter(arr, window_len, poly_order, axis=0, mode="mirror")


# ---------------------------------------------------------------------------
# magnitudes

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


# ---------------------------------------------------------------------------
# features

MOTION_FEATURE_DIM = 24  # 6 axes x (mean, std, detrended energy, dominant bin)
VISUAL_FEATURE_DIM = 13  # 4 groups x (disp mean, disp std, share of total) + spread


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


# ---------------------------------------------------------------------------
# classifier

@dataclass(frozen=True)
class ClassifierModel:
    """Nearest-centroid classifier in z-scored feature space, one centroid per label."""

    channel: Channel
    feature_mean: np.ndarray
    feature_std: np.ndarray
    centroids: np.ndarray  # (8, dim), row index == label code

    def __post_init__(self):
        mean = np.asarray(self.feature_mean, dtype=np.float64)
        std = np.asarray(self.feature_std, dtype=np.float64)
        cent = np.asarray(self.centroids, dtype=np.float64)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise ModelMismatch("feature_mean and feature_std must be 1-D and equal length")
        if cent.shape != (len(ActivityLabel), mean.size):
            raise ModelMismatch(
                f"centroids must be ({len(ActivityLabel)}, {mean.size}), got {cent.shape}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and np.isfinite(cent).all()):
            raise ModelMismatch("model parameters must be finite")
        if (std <= 0).any():
            raise ModelMismatch("feature_std entries must be positive")
        for name, arr in (("feature_mean", mean), ("feature_std", std), ("centroids", cent)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.feature_mean.size


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


def fit_classifier(features: np.ndarray, labels: Sequence[ActivityLabel],
                   channel: Channel) -> ClassifierModel:
    """Fit z-scoring stats and per-label centroids from labeled windows."""
    features = np.asarray(features, dtype=np.float64)
    labels = [ActivityLabel(l) for l in labels]
    if features.ndim != 2 or features.shape[0] != len(labels):
        raise ModelMismatch("features must be (n_windows, dim) matching labels")
    present = set(labels)
    missing = [l.name for l in ActivityLabel if l not in present]
    if missing:
        raise ModelMismatch(f"training data has no windows for {missing}")
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std < _EPS] = 1.0  # constant features carry no information; leave them unscaled
    z = (features - mean) / std
    codes = np.asarray([int(l) for l in labels])
    centroids = np.stack([z[codes == int(l)].mean(axis=0) for l in ActivityLabel])
    return ClassifierModel(channel, mean, std, centroids)


def save_classifier(model: ClassifierModel, path) -> None:
    obj = {
        "channel": model.channel.value,
        "feature_mean": model.feature_mean.tolist(),
        "feature_std": model.feature_std.tolist(),
        "centroids": model.centroids.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_classifier(path) -> ClassifierModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            return ClassifierModel(
                Channel(obj["channel"]),
                np.asarray(obj["feature_mean"]),
                np.asarray(obj["feature_std"]),
                np.asarray(obj["centroids"]),
            )
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise DataError(f"{path}: bad classifier model: {exc}") from None


# ---------------------------------------------------------------------------
# confusion channel

class ConfusionMatrix:
    """Row-stochastic 8x8 matrix; rows[i, j] = P(observed j | true i)."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.float64)
        k = len(ActivityLabel)
        if rows.shape != (k, k):
            raise InvalidConfusionMatrix(f"matrix must be ({k}, {k}), got {rows.shape}")
        if not np.isfinite(rows).all():
            raise InvalidConfusionMatrix("matrix entries must be finite")
        if (rows < -1e-12).any() or (rows > 1 + 1e-12).any():
            raise InvalidConfusionMatrix("matrix entries must lie in [0, 1]")
        sums = rows.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > 1e-9)[0]
        if bad.size:
            raise InvalidConfusionMatrix(
                f"rows {bad.tolist()} sum to {sums[bad].tolist()}, expected 1"
            )
        rows = np.clip(rows, 0.0, 1.0)
        rows.setflags(write=False)
        self.rows = rows

    @classmethod
    def identity(cls) -> "ConfusionMatrix":
        return cls(np.eye(len(ActivityLabel)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)


def apply_confusion(labels: Sequence[ActivityLabel], matrix: ConfusionMatrix,
                    rng: np.random.Generator | int) -> tuple[ActivityLabel, ...]:
    """Resample each label through the confusion channel, deterministically per seed."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    codes = np.asarray([int(ActivityLabel(l)) for l in labels], dtype=np.intp)
    if codes.size == 0:
        return ()
    cum = np.cumsum(matrix.rows, axis=1)
    cum[:, -1] = 1.0  # guard against rounding in the last column
    u = rng.random(codes.size)
    out = (u[:, None] >= cum[codes]).sum(axis=1)
    return tuple(ActivityLabel(int(c)) for c in out)


# ---------------------------------------------------------------------------
# series construction

def build_series(trace: MotionTrace | KeypointTrace, w: float, model: ClassifierModel,
                 source_id: str, *, savgol_window: int = SAVGOL_WINDOW,
                 savgol_order: int = SAVGOL_ORDER) -> ActivityVectorSeries:
    """Run the full pipeline on one trace.

    Motion traces are smoothed per axis before feature extraction (the
    magnitude is taken from the raw accelerometer so smoothing cannot bite
    into genuine movement energy); keypoint traces are used as-is.
    """
    if isinstance(trace, MotionTrace):
        if model.channel is not Channel.MOTION:
            raise ModelMismatch("motion trace needs a motion-channel model")
        return _build_motion_series(trace, w, model, source_id, savgol_window, savgol_order)
    if isinstance(trace, KeypointTrace):
        if model.channel is not Channel.VISUAL:
            raise ModelMismatch("keypoint trace needs a visual-channel model")
        return _build_visual_series(trace, w, model, source_id)
    raise DataError(f"cannot build a series from {type(trace).__name__}")


def _build_motion_series(trace, w, model, source_id, savgol_window, savgol_order):
    spans = segment_windows(trace, w)
    smooth_acc = _smooth_columns(trace.accel, savgol_window, savgol_order)
    smooth_gyr = _smooth_columns(trace.gyro, savgol_window, savgol_order)
    labels, mags = [], []
    for span in spans:
        sl = slice(span.lo, span.hi)
        feats = motion_window_features(smooth_acc[sl], smooth_gyr[sl])
        labels.append(classify_window(model, feats))
        mags.append(motion_magnitude(trace.accel[sl]))
    return ActivityVectorSeries(
        source_id=source_id,
        channel=Channel.MOTION,
        window_seconds=w,
        activities=tuple(labels),
        magnitudes={ActivityVectorSeries.MOTION_KEY: MagnitudeSeq(mags)},
    )


def _build_visual_series(trace, w, model, source_id):
    spans = segment_windows(trace, w)
    labels = []
    per_position: dict[str, list[float | None]] = {p.value: [] for p in SensorPosition}
    for span in spans:
        feats = visual_window_features(trace, span)
        labels.append(classify_window(model, feats))
        for position in SensorPosition:
            per_position[position.value].append(visual_magnitude(trace, span, position))
    return ActivityVectorSeries(
        source_id=source_id,
        channel=Channel.VISUAL,
        window_seconds=w,
        activities=tuple(labels),
        magnitudes={name: MagnitudeSeq(vals) for name, vals in per_position.items()},
    )

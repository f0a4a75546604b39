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
import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    EmptyWindow,
    InvalidConfusionMatrix,
    ModelMismatch,
    TraceTooShort,
)
from .model import (
    ActivityLabel,
    ActivityVectorSeries,
    Channel,
    MotionDataset,
    SensorPosition,
    VisualDataset,
    json_numbers,
    json_value,
    label_codes,
    not_utf8,
    read_json,
    read_json_lines,
    write_json_lines,
)

GRAVITY = 9.81

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

_PROXY_KEYPOINTS = frozenset(POSITION_PROXIES.values())

UNOBSERVABLE_MISSING_FRACTION = 0.5
_EPS = 1e-9


# ---------------------------------------------------------------------------
# traces

def _set_timestamps(trace) -> int:
    """Check a trace's timestamps (non-empty, 1-D, finite, strictly
    increasing), make them read-only and set the trace's duration from them:
    N samples of the mean step each, so a lone sample covers none.  Returns N."""
    ts = np.asarray(trace.timestamps, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise DataError("timestamps must be a non-empty 1-D array")
    if not np.isfinite(ts).all():
        raise DataError("timestamps must be finite")
    if ts.size > 1 and not (np.diff(ts) > 0).all():
        raise DataError("timestamps must be strictly increasing")
    ts.setflags(write=False)
    n = ts.size
    object.__setattr__(trace, "timestamps", ts)
    object.__setattr__(trace, "duration", float((ts[-1] - ts[0]) * n / max(n - 1, 1)))
    return n


@dataclass(frozen=True)
class MotionTrace:
    """Timestamped IMU samples.

    timestamps : (N,) seconds, finite and strictly increasing
    accel      : (N, 3) m/s^2, gravity included
    gyro       : (N, 3) rad/s
    duration   : seconds covered, set from the timestamps (`_set_timestamps`)
    """

    timestamps: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    duration: float = field(init=False)

    def __post_init__(self):
        n = _set_timestamps(self)
        acc = np.asarray(self.accel, dtype=np.float64)
        gyr = np.asarray(self.gyro, dtype=np.float64)
        if acc.shape != (n, 3) or gyr.shape != (n, 3):
            raise DataError(f"accel/gyro must be ({n}, 3), got {acc.shape} and {gyr.shape}")
        if not (np.isfinite(acc).all() and np.isfinite(gyr).all()):
            raise DataError("trace contains non-finite values")
        for name, arr in (("accel", acc), ("gyro", gyr)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotionTrace):
            return NotImplemented
        return all(map(np.array_equal, *[(t.timestamps, t.accel, t.gyro) for t in (self, other)]))

    def __len__(self) -> int:
        return self.timestamps.size


@dataclass(frozen=True)
class KeypointTrace:
    """2-D keypoint tracks of one observed avatar.

    timestamps and duration are as for a MotionTrace; points maps keypoint
    name -> (N, 2) pixel coordinates, NaN where the keypoint was not
    detected in that frame and finite elsewhere.
    """

    timestamps: np.ndarray
    points: Mapping[str, np.ndarray]
    duration: float = field(init=False)

    def __post_init__(self):
        n = _set_timestamps(self)
        pts = {}
        for name, arr in self.points.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (n, 2):
                raise DataError(f"keypoint {name!r} must be ({n}, 2), got {arr.shape}")
            if np.isinf(arr).any():
                raise DataError(f"keypoint {name!r} has infinite coordinates")
            arr.setflags(write=False)
            pts[str(name)] = arr
        object.__setattr__(self, "points", pts)

    def __eq__(self, other: object) -> bool:  # frames missing (NaN) in both compare equal
        if not isinstance(other, KeypointTrace):
            return NotImplemented
        return (np.array_equal(self.timestamps, other.timestamps)
                and self.points.keys() == other.points.keys()
                and all(np.array_equal(xy, other.points[k], equal_nan=True)
                        for k, xy in self.points.items()))

    def __len__(self) -> int:
        return self.timestamps.size


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


def _not_after(path, line: int, ts: float, before: float) -> DataError:
    return DataError(f"{path}:{line}: ts {ts!r} is not after the one before it, {before!r}")


def read_motion_csv(path) -> MotionTrace:
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
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                for name, value in zip(MOTION_CSV_FIELDS, values):
                    if not math.isfinite(value):
                        raise DataError(f"{path}:{lineno}: {name} must be finite, got {value!r}")
                if rows and values[0] <= rows[-1][0]:
                    raise _not_after(path, lineno, values[0], rows[-1][0])
                rows.append(values)
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    if not rows:
        raise DataError(f"{path}: no samples")
    arr = np.asarray(rows, dtype=np.float64)
    return MotionTrace(arr[:, 0], arr[:, 1:4], arr[:, 4:7])


def write_keypoint_jsonl(trace: KeypointTrace, path) -> None:
    names = sorted(trace.points)
    write_json_lines(path, ({
        "ts": float(trace.timestamps[i]),
        "kp": {name: None if np.isnan(trace.points[name][i]).any()
               else trace.points[name][i].tolist() for name in names},
    } for i in range(len(trace))))


def _finite(value, name: str) -> float:
    """`value`, the field `name` of a frame, if it is a finite JSON number;
    a non-finite one is named as the file writes it."""
    value = json_value(value, float, name)
    if not math.isfinite(value):
        raise DataError(f"{name} must be finite, got {value!r}")
    return value


def _keypoint_frame(obj) -> tuple[float, dict]:
    """The timestamp and {keypoint: [x, y] or None} of one frame object."""
    kp = {}
    for name, xy in obj["kp"].items():
        if xy is not None:
            x, y = xy
            xy = [_finite(x, f"{name} x"), _finite(y, f"{name} y")]
        kp[name] = xy
    return _finite(obj["ts"], "ts"), kp


def read_keypoint_jsonl(path) -> KeypointTrace:
    lines = read_json_lines(path, _keypoint_frame, "keypoint frame")
    if not lines:
        raise DataError(f"{path}: no frames")
    frames = list(lines.values())
    ts = [t for t, _ in frames]
    back = np.flatnonzero(np.diff(ts) <= 0)
    if back.size:
        i = int(back[0]) + 1
        raise _not_after(path, list(lines)[i], ts[i], ts[i - 1])
    missing = [math.nan, math.nan]
    points = {name: np.array([kp.get(name) or missing for _, kp in frames])
              for name in sorted(set().union(*(kp for _, kp in frames)))}
    return KeypointTrace(ts, points)


# ---------------------------------------------------------------------------
# windowing

def window_edges(trace: MotionTrace | KeypointTrace, w: float) -> np.ndarray:
    """Sample index edges of the floor(duration / w) half-open windows of width w.

    Window i holds samples [edges[i], edges[i + 1]).  The grid starts at the
    first timestamp; a trailing remainder shorter than w is dropped.  Raises
    TraceTooShort when not even one window fits.
    """
    if not w > 0:
        raise DataError(f"window width must be positive, got {w}")
    n = int(math.floor(trace.duration / w + _EPS))
    if n < 1:
        raise TraceTooShort(
            f"trace covers {trace.duration:.3f}s, shorter than one {w}s window"
        )
    edges = float(trace.timestamps[0]) + w * np.arange(n + 1)
    # right edges are exclusive: a sample exactly on an edge opens a window
    return np.searchsorted(trace.timestamps, edges - _EPS, side="left")


# ---------------------------------------------------------------------------
# smoothing

# Savitzky-Golay weights, solved by least squares on the Vandermonde system
# of the reversed abscissa as the reference filter solves them (the rounded
# table values [-36, 9, 44, ...] / 429 differ in the last bits), then reversed
# as a convolution reverses them; only the left half is read.
_HALF = SAVGOL_WINDOW // 2
_SMOOTH_WEIGHTS = np.linalg.lstsq(
    np.arange(_HALF, -_HALF - 1, -1.0) ** np.arange(SAVGOL_ORDER + 1.0)[:, None],
    np.eye(SAVGOL_ORDER + 1)[0], rcond=None)[0][::-1]


def _smoothed(*arrays: np.ndarray) -> np.ndarray:
    """Savitzky-Golay smoothing (window SAVGOL_WINDOW, order SAVGOL_ORDER),
    with mirrored edges, of the columns of k (n, c) arrays: column j of the
    i-th array becomes row j * k + i of a C-contiguous (k * c, n + 2 * _HALF)
    buffer, whose first n columns hold the result, raw if n < SAVGOL_WINDOW
    (too short to smooth; classification still sees raw data).  Sums each
    symmetric pair of taps, centre term first and then from the outermost
    pair inward, as ndimage correlates a symmetric kernel; the tests pin the
    result bit for bit against the reference filter in "mirror" mode."""
    k, n, h, w = len(arrays), len(arrays[0]), _HALF, _SMOOTH_WEIGHTS
    x = np.empty((k * arrays[0].shape[1], n + 2 * h))
    for i, arr in enumerate(arrays):
        x[i::k, h:h + n] = arr.T
    if n < SAVGOL_WINDOW:
        x[:, :n] = x[:, h:h + n]
        return x
    x[:, :h], x[:, h + n:] = x[:, 2 * h:h:-1], x[:, h + n - 2:n - 2:-1]
    step = max(1, 4 * _BLOCK_CELLS // x.shape[0])
    acc, pair = np.empty((2, x.shape[0], min(step, n)))
    for a in range(0, n, step):  # in place: a tile overwrites only taps no later tile reads
        b = min(a + step, n)
        out, tmp = acc[:, :b - a], pair[:, :b - a]
        np.multiply(x[:, a + h:b + h], w[h], out=out)
        for j in range(h, 0, -1):
            np.add(x[:, a + h - j:b + h - j], x[:, a + h + j:b + h + j], out=tmp)
            tmp *= w[h - j]
            out += tmp
        x[:, a:b] = out
    return x


def _smooth_columns(arr: np.ndarray) -> np.ndarray:
    """`_smoothed` columns of an (n, ...) array, as an array of its shape."""
    return _smoothed(arr.reshape(len(arr), -1))[:, :len(arr)].T.reshape(arr.shape)


# ---------------------------------------------------------------------------
# window features
#
# Windows are featurized together, in blocks of windows that share one
# length: one sample count, or for keypoints one count of detected frames.
# A motion trace's six axes are the rows of one buffer, smoothed in place
# in tiles of at most 4 * _BLOCK_CELLS cells with one reused temporary, so
# one gather and one `_axis_stats` pass serve all six axes of a block.  A
# keypoint trace lays every keypoint's steps end to end in one buffer, so
# each statistic is one blocked pass over all its (keypoint, window) rows.
# Every reduction runs along the contiguous last axis of a block, where
# numpy sums each row exactly as it sums a lone window, so the results are
# bit-identical to featurizing the windows one at a time.

MOTION_FEATURE_DIM = 24  # 6 axes x (mean, std, detrended energy, dominant bin)
VISUAL_FEATURE_DIM = 13  # 4 groups x (disp mean, disp std, share of total) + spread

# Cells per block array; bounds the temporaries of a call whatever its size.
_BLOCK_CELLS = 1 << 14


def _blocks(lengths: np.ndarray, width: int = 1):
    """(length, window indices) for the windows of each distinct length, in
    blocks of at most _BLOCK_CELLS // (length * width) windows."""
    if not lengths.size:
        return
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    cuts = (np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [order.size]):
        length = int(lengths[a])
        step = max(1, _BLOCK_CELLS // max(1, length * width))
        for i in range(a, b, step):
            yield length, order[i:min(i + step, b)]


def _axis_stats(block: np.ndarray) -> np.ndarray:
    """Mean, std, detrended energy and dominant frequency bin of each row
    of an (a, m, n) block of a axes, as (m, a, 4)."""
    mean = block.mean(axis=-1)
    centered = block - mean[..., None]
    energy = (centered ** 2).mean(axis=-1)  # the variance: ndarray.std is its root
    dominant = np.zeros_like(mean)
    if block.shape[-1] >= 4:
        spec = np.abs(np.fft.rfft(centered, axis=-1))[..., 1:]
        dominant = np.where(spec.any(axis=-1), spec.argmax(axis=-1) + 1.0, 0.0)
    return np.stack([mean, np.sqrt(energy), energy, dominant], axis=-1).swapaxes(0, 1)


def motion_features(trace: MotionTrace, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features and magnitudes of the motion windows [lo[i], hi[i]).

    Features, (n, MOTION_FEATURE_DIM): for each axis, accelerometer then
    gyroscope, the mean, std, detrended energy and dominant frequency bin of
    the smoothed signal.  Magnitudes, (n,): mean absolute deviation of the
    raw |accel| from gravity, so smoothing cannot bite into genuine movement
    energy.  Raises EmptyWindow if a window holds no sample.
    """
    lo = np.asarray(lo, dtype=np.intp)
    lengths = np.asarray(hi, dtype=np.intp) - lo
    if (lengths <= 0).any():
        raise EmptyWindow("motion window has no samples")
    # rows x, y, z, accel before gyro: a window's gather reads only its own samples
    axes = _smoothed(trace.accel, trace.gyro)
    deviation = np.abs(np.linalg.norm(trace.accel, axis=1) - GRAVITY)
    feats = np.empty((lo.size, 6, 4))
    mags = np.empty(lo.size)
    # seven channels per sample: smoothed accel and gyro, raw |accel| deviation
    for length, sel in _blocks(lengths, width=7):
        idx = lo[sel, None] + np.arange(length)
        feats[sel] = _axis_stats(np.take(axes, idx, axis=1))
        mags[sel] = deviation[idx].mean(axis=-1)
    return feats.reshape(lo.size, MOTION_FEATURE_DIM), mags


def _run_stats(values: np.ndarray, parts, stats: tuple[str, ...]) -> np.ndarray:
    """Reductions of each row's run of `values`, (*shape, len(stats)).

    `parts` is a sequence of (starts, lengths) pairs of index arrays of one
    shape; row i's run is values[starts[i]:starts[i] + lengths[i]] of every
    part, concatenated in order.  `stats` names ndarray reductions ("sum",
    "mean", "std").  Rows with an empty run get NaN.
    """
    shape = np.shape(parts[0][0])
    parts = [(np.ravel(starts), np.ravel(lengths)) for starts, lengths in parts]
    lengths = sum(length for _, length in parts)
    out = np.full((lengths.size, len(stats)), np.nan)
    for length, sel in _blocks(lengths):
        if length == 0:
            continue
        j = np.arange(length)
        # the first part's run, then each later part written over its own span
        idx, before = parts[0][0][sel, None] + j, parts[0][1][sel, None]
        for starts, part_lengths in parts[1:]:
            after = before + part_lengths[sel, None]
            idx = np.where((j >= before) & (j < after), starts[sel, None] - before + j, idx)
            before = after
        block = values[idx]
        for k, stat in enumerate(stats):
            out[sel, k] = getattr(block, stat)(axis=-1)
    return out.reshape(shape + (len(stats),))


def _zero_nan(x: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(x), 0.0, x)


def visual_features(trace: KeypointTrace, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features and per-position magnitudes of the keypoint windows [lo[i], hi[i]).

    Features, (n, VISUAL_FEATURE_DIM): per keypoint group, the mean and std
    of the steps between detected frames and the group's share of the total
    path length, then the spread (std) of the per-keypoint path lengths.
    The shares are scale-free, which keeps the pattern part of the
    signature stable across movement intensities.  A keypoint with fewer
    than two detected frames in a window has no steps there.

    Magnitudes, (n, 6) in SensorPosition order: the mean acceleration of
    the position's proxy keypoint, by finite differences over its detected
    frames at their real spacing.  NaN (unobservable) when the keypoint is
    missing in more than half the frames or fewer than three remain.
    Raises EmptyWindow if a window holds no frame.
    """
    lo = np.asarray(lo, dtype=np.intp)
    frames = np.asarray(hi, dtype=np.intp) - lo
    empty = np.flatnonzero(frames <= 0)
    if empty.size:
        raise EmptyWindow(f"visual window {empty[0]} has no frames")
    n = lo.size
    # the trace's feature keypoints in feature order, each one's row in the
    # statistics (row len(present) is an empty run) and its detected frames
    present = [name for _, names in FEATURE_GROUPS for name in names if name in trace.points]
    row = {name: k for k, name in enumerate(present)}
    detected = [~(np.isnan(xy[:, 0]) | np.isnan(xy[:, 1]))
                for xy in (trace.points[name] for name in present)]
    proxies = [k for k, name in enumerate(present) if name in _PROXY_KEYPOINTS]
    # Detected frames compacted to the front: a window's are det[first:first +
    # count]; its steps, and a proxy's accelerations, are the runs of count - 1
    # and count - 2 from `first` in the keypoint's slice of `steps` and `accels`.
    step_at = np.cumsum([0] + [max(np.count_nonzero(mask) - 1, 0) for mask in detected])
    acc_at = np.cumsum([0] + [max(step_at[k + 1] - step_at[k] - 1, 0) for k in proxies])
    steps, accels = np.empty(step_at[-1]), np.empty(acc_at[-1])
    first, count = np.zeros((2, len(present) + 1, n), dtype=np.intp)
    for k, (name, mask) in enumerate(zip(present, detected)):
        det, xy = np.flatnonzero(mask), trace.points[name]
        first[k] = np.searchsorted(det, lo)
        count[k] = np.searchsorted(det, hi) - first[k]
        dx, dy = (c[1:] - c[:-1] for c in (xy[:, 0].take(det), xy[:, 1].take(det)))
        np.sqrt(dx * dx + dy * dy, out=steps[step_at[k]:step_at[k + 1]])
        if k in proxies:
            p, ts = proxies.index(k), trace.timestamps.take(det)
            dt, dmid = ts[1:] - ts[:-1], 0.5 * (ts[1:] + ts[:-1])
            dmid = dmid[1:] - dmid[:-1]  # the midpoints' steps; rebinding frees the midpoints
            ax, ay = ((v[1:] - v[:-1]) / dmid for v in (dx / dt, dy / dt))
            np.sqrt(ax * ax + ay * ay, out=accels[acc_at[p]:acc_at[p + 1]])
    # one _run_stats call per statistic, a row per window of each keypoint or group
    starts, runs = first + step_at[:, None], np.maximum(count - 1, 0)
    paths = _run_stats(steps, [(starts, runs)], ("sum",))[..., 0]
    # a group's steps: its keypoints' runs in order, the empty row for a missing one
    slots = [[row.get(name, len(present)) for name in slot]
             for slot in zip_longest(*(names for _, names in FEATURE_GROUPS))]
    stats = _run_stats(steps, [(starts[s], runs[s]) for s in slots], ("mean", "std"))
    group_paths = sum(_zero_nan(paths[s]) for s in slots)
    total = sum(group_paths)
    shares = np.divide(group_paths, total, out=np.zeros_like(group_paths), where=total > 0)
    # spread: std of the path lengths the window has, in keypoint order
    seen = runs[:-1].T > 0
    lengths = np.count_nonzero(seen, axis=1)
    spread = _run_stats(paths[:-1].T[seen], [(np.cumsum(lengths) - lengths, lengths)], ("std",))
    per_group = np.concatenate([_zero_nan(stats), shares[..., None]], axis=-1).swapaxes(0, 1)
    feats = np.column_stack([per_group.reshape(n, VISUAL_FEATURE_DIM - 1), _zero_nan(spread)])
    at = proxies + [len(present)]  # the empty row: NaN for an absent proxy
    mags = _run_stats(accels, [(first[at] + acc_at[:, None], np.maximum(count[at] - 2, 0))],
                      ("mean",))[..., 0]
    mags[(frames - count[at]) / frames > UNOBSERVABLE_MISSING_FRACTION] = np.nan
    return feats, mags[[at.index(row.get(POSITION_PROXIES[p], len(present)))
                        for p in SensorPosition]].T


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


def classify_windows(model: ClassifierModel, features: np.ndarray) -> np.ndarray:
    """Label codes, (n,) uint8, of feature rows (n, dim) by nearest centroid.

    Euclidean distance in z-scored feature space; exact ties go to the
    lowest code.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.dim:
        raise ModelMismatch(
            f"features of shape {features.shape} against model dim {model.dim}"
        )
    z = (features - model.feature_mean) / model.feature_std
    codes = np.empty(len(z), dtype=np.uint8)
    step = max(1, _BLOCK_CELLS // model.centroids.size)
    for i in range(0, len(z), step):
        d2 = ((model.centroids - z[i:i + step, None, :]) ** 2).sum(axis=-1)
        codes[i:i + step] = np.argmin(d2, axis=1)  # the first minimum: lowest code
    return codes


def fit_classifier(features: np.ndarray, labels: Sequence[ActivityLabel] | np.ndarray,
                   channel: Channel) -> ClassifierModel:
    """Fit z-scoring stats and per-label centroids; labels must pass `label_codes`."""
    features = np.asarray(features, dtype=np.float64)
    codes = label_codes(labels, "labels")
    if features.ndim != 2 or codes.shape != (features.shape[0],):
        raise ModelMismatch("features must be (n_windows, dim) matching labels")
    counts = np.bincount(codes, minlength=len(ActivityLabel))
    missing = [l.name for l in ActivityLabel if not counts[int(l)]]
    if missing:
        raise ModelMismatch(f"training data has no windows for {missing}")
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std < _EPS] = 1.0  # constant features carry no information; leave them unscaled
    z = (features - mean) / std
    centroids = np.stack([z[codes == int(l)].mean(axis=0) for l in ActivityLabel])
    return ClassifierModel(channel, mean, std, centroids)


def save_classifier(model: ClassifierModel, path) -> None:
    write_json_lines(path, [{  # one compact line
        "channel": model.channel.value,
        "feature_mean": model.feature_mean.tolist(),
        "feature_std": model.feature_std.tolist(),
        "centroids": model.centroids.tolist(),
    }])


def _parse_classifier(obj) -> ClassifierModel:
    for name in ("feature_mean", "feature_std"):
        json_numbers([obj[name]], name)
    json_numbers(obj["centroids"], "centroids")
    return ClassifierModel(Channel(obj["channel"]), obj["feature_mean"], obj["feature_std"],
                           obj["centroids"])


def load_classifier(path) -> ClassifierModel:
    return read_json(path, _parse_classifier, "classifier model")


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)


def _confusion_codes(codes: np.ndarray, matrix: ConfusionMatrix, u: np.ndarray) -> np.ndarray:
    """The uint8 codes valid label codes `codes` turn into through the
    confusion channel, given one uniform draw per code in `u` (same shape):
    a code becomes the first column whose cumulative probability exceeds
    its draw."""
    cum = np.cumsum(matrix.rows, axis=1)
    cum[:, -1] = 1.0  # guard against rounding in the last column
    return (u[..., None] >= cum[codes]).sum(axis=-1).astype(np.uint8)


# ---------------------------------------------------------------------------
# series construction

def window_features(trace: MotionTrace | KeypointTrace,
                    w: float) -> tuple[np.ndarray, np.ndarray]:
    """Features and magnitudes of a trace's windows of width w: those of
    `motion_features` for a motion trace, of `visual_features` for a
    keypoint trace."""
    edges = window_edges(trace, w)
    features = motion_features if isinstance(trace, MotionTrace) else visual_features
    return features(trace, edges[:-1], edges[1:])


def _check_channel(model: ClassifierModel, kind: str, channel: Channel) -> None:
    """Raise ModelMismatch unless `model` classifies `channel` windows, those
    of a `kind` trace."""
    if model.channel is not channel:
        raise ModelMismatch(f"{kind} trace needs a {channel.value}-channel model")


def build_series(trace: MotionTrace | KeypointTrace, w: float, model: ClassifierModel,
                 source_id: str) -> ActivityVectorSeries:
    """Run the full pipeline on one trace.

    Motion traces are smoothed per axis before feature extraction (the
    magnitude is taken from the raw accelerometer so smoothing cannot bite
    into genuine movement energy); keypoint traces are used as-is.
    """
    if isinstance(trace, MotionTrace):
        kind, dataset = "motion", MotionDataset
    elif isinstance(trace, KeypointTrace):
        kind, dataset = "keypoint", VisualDataset
    else:
        raise DataError(f"cannot build a series from {type(trace).__name__}")
    _check_channel(model, kind, dataset.channel)
    feats, mags = window_features(trace, w)
    codes = classify_windows(model, feats)
    return dataset.from_arrays((source_id,), codes[None], mags.T[None], w)[0]

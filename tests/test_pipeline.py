import dataclasses
import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import savgol_filter

import motionlink
from motionlink import pipeline, synth
from motionlink.align import AlignConfig, align_offset_search
from motionlink.errors import (
    DataError,
    EmptyWindow,
    InvalidConfusionMatrix,
    ModelMismatch,
    TraceTooShort,
)
from motionlink.model import (
    ActivityLabel,
    Channel,
    SensorPosition,
)
from motionlink.pipeline import (
    GRAVITY,
    KEYPOINT_NAMES,
    ClassifierModel,
    ConfusionMatrix,
    KeypointTrace,
    MotionTrace,
    _confusion_codes,
    build_series,
    classify_windows,
    fit_classifier,
    load_classifier,
    motion_features,
    read_keypoint_jsonl,
    read_motion_csv,
    save_classifier,
    visual_features,
    window_edges,
    write_keypoint_jsonl,
    write_motion_csv,
)
from window_oracle import (
    WindowSpan,
    classify_window,
    motion_magnitude,
    motion_window_features,
    segment_windows,
    visual_magnitude,
    visual_window_features,
)
from series_rows import visual_series


def _smooth_columns(arr: np.ndarray) -> np.ndarray:
    """`pipeline._smoothed` columns of an (n, ...) array, as an array of its shape."""
    return pipeline._smoothed(arr.reshape(len(arr), -1))[:, :len(arr)].T.reshape(arr.shape)


def flat_trace(seconds, rate=50.0, start=0.0):
    n = int(round(seconds * rate))
    ts = start + np.arange(n) / rate
    accel = np.zeros((n, 3))
    accel[:, 2] = GRAVITY
    return MotionTrace(ts, accel, np.zeros((n, 3)))


def keypoint_trace(seconds, rate=30.0, jitter=0.0, seed=0, start=0.0):
    n = int(round(seconds * rate))
    ts = start + np.arange(n) / rate
    rng = np.random.default_rng(seed)
    names = ["nose", "left_wrist", "right_wrist", "left_hip", "right_hip",
             "left_ankle", "right_ankle"]
    points = {}
    for i, name in enumerate(names):
        base = np.array([100.0 + 30 * i, 80.0 + 20 * i])
        pts = np.tile(base, (n, 1))
        if jitter:
            pts = pts + rng.normal(0, jitter, size=(n, 2))
        points[name] = pts
    return KeypointTrace(ts, points)


# ---------------------------------------------------------------------------
# traces

def test_motion_trace_validation():
    ts = np.arange(5) * 0.02
    ok = np.zeros((5, 3))
    with pytest.raises(DataError):
        MotionTrace(ts, np.zeros((4, 3)), ok)
    with pytest.raises(DataError):
        MotionTrace(ts[::-1], ok, ok)
    with pytest.raises(DataError):
        bad = ok.copy()
        bad[0, 0] = np.nan
        MotionTrace(ts, bad, ok)
    with pytest.raises(DataError):
        MotionTrace(np.array([]), np.zeros((0, 3)), np.zeros((0, 3)))


def test_trace_duration_counts_last_sample():
    # 3000 samples at 50 Hz span exactly 60 s of coverage
    tr = flat_trace(60.0)
    assert len(tr) == 3000
    assert tr.duration == pytest.approx(60.0)


def test_duration_is_samples_times_mean_step():
    # 50 frames at 25 fps cover 2 s, whatever rate a reader might assume
    tr = keypoint_trace(2.0, rate=25.0)
    assert len(tr) == 50 and tr.duration == pytest.approx(2.0)
    assert window_edges(tr, 1.0).tolist() == [0, 25, 50]
    ragged = MotionTrace([0.0, 0.1, 0.5], np.zeros((3, 3)), np.zeros((3, 3)))
    assert ragged.duration == pytest.approx(0.75)


def test_one_sample_trace_covers_no_window():
    tr = MotionTrace([5.0], [[0.0, 0.0, GRAVITY]], [[0.0, 0.0, 0.0]])
    assert tr.duration == 0.0
    with pytest.raises(TraceTooShort, match="covers 0.000s"):
        window_edges(tr, 0.5)


def test_replace_recomputes_duration():
    tr = flat_trace(3.0)
    half = dataclasses.replace(tr, timestamps=tr.timestamps[75:], accel=tr.accel[75:],
                               gyro=tr.gyro[75:])
    assert half.duration == pytest.approx(1.5)
    with pytest.raises(TypeError):
        MotionTrace(tr.timestamps, tr.accel, tr.gyro, 0.02)


def test_traces_compare_by_value():
    def zeros():
        return MotionTrace(np.arange(3.0), np.zeros((3, 3)), np.zeros((3, 3)))

    assert zeros() == zeros() and not zeros() != zeros()
    tr = flat_trace(1.0)
    assert tr == MotionTrace(tr.timestamps.copy(), tr.accel.copy(), tr.gyro.copy())
    bumped = tr.gyro.copy()
    bumped[7, 1] = 1e-12
    assert tr != MotionTrace(tr.timestamps, tr.accel, bumped)
    assert tr != dataclasses.replace(tr, timestamps=tr.timestamps + 1.0)
    assert tr != flat_trace(1.02)  # one sample more
    assert tr != "trace" and tr != keypoint_trace(1.0)

    # a keypoint missing from a frame is NaN in both traces, and compares equal
    kp = keypoint_trace(1.0, jitter=2.0, seed=3)
    points = {name: xy.copy() for name, xy in kp.points.items()}
    points["nose"][4:9] = np.nan
    points["left_wrist"][0, 1] = np.nan
    holed = KeypointTrace(kp.timestamps, points)
    assert holed == KeypointTrace(kp.timestamps.copy(), {k: v.copy() for k, v in points.items()})
    assert holed != kp
    assert kp != KeypointTrace(kp.timestamps, dict(kp.points, nose=kp.points["nose"] + 1e-9))
    assert kp != KeypointTrace(kp.timestamps, {k: v for k, v in kp.points.items() if k != "nose"})
    assert kp != dataclasses.replace(kp, timestamps=kp.timestamps * 2.0)
    assert kp != "trace"


def test_motion_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    n = 40
    tr = MotionTrace(np.arange(n) * 0.02, rng.normal(0, 1, (n, 3)),
                     rng.normal(0, 1, (n, 3)))
    path = tmp_path / "trace.csv"
    write_motion_csv(tr, path)
    back = read_motion_csv(path)
    assert np.array_equal(back.timestamps, tr.timestamps)
    assert np.array_equal(back.accel, tr.accel)
    assert np.array_equal(back.gyro, tr.gyro)


def test_motion_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y,z\n0,1,2,3\n")
    with pytest.raises(DataError):
        read_motion_csv(path)


def test_keypoint_jsonl_roundtrip(tmp_path):
    tr = keypoint_trace(1.0, jitter=2.0)
    # punch a hole: left_wrist missing in frames 3..7
    pts = {k: v.copy() for k, v in tr.points.items()}
    pts["left_wrist"][3:8] = np.nan
    tr = KeypointTrace(tr.timestamps, pts)
    path = tmp_path / "kp.jsonl"
    write_keypoint_jsonl(tr, path)
    back = read_keypoint_jsonl(path)
    assert np.array_equal(back.timestamps, tr.timestamps)
    for name in tr.points:
        assert np.array_equal(back.points[name], tr.points[name], equal_nan=True)


def test_keypoint_trace_rejects_non_finite_stamps_and_infinite_points():
    ts = np.arange(3) / 30.0
    ok = np.array([[1.0, 2.0], [np.nan, np.nan], [3.0, 4.0]])  # NaN: not detected
    KeypointTrace(ts, {"nose": ok})
    for bad_ts in (np.nan, np.inf):
        with pytest.raises(DataError, match="timestamps must be finite"):
            KeypointTrace(np.array([0.0, bad_ts, 1.0]), {"nose": ok})
    with pytest.raises(DataError, match="'nose' has infinite coordinates"):
        KeypointTrace(ts, {"nose": np.where(np.isnan(ok), -np.inf, ok)})


def test_motion_csv_names_the_file_of_a_bad_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("ts,ax,ay,az,gx,gy,gz\n0,nan,0,9.81,0,0,0\n")
    with pytest.raises(DataError, match=f"^{path}:2: ax must be finite, got nan$"):
        read_motion_csv(path)


def test_keypoint_jsonl_names_the_file_of_a_bad_trace(tmp_path):
    path = tmp_path / "kp.jsonl"
    path.write_text('{"ts": 1.0, "kp": {}}\n{"ts": 0.5, "kp": {}}\n')
    with pytest.raises(DataError, match=f"^{path}:2: ts 0.5 is not after the one before it, 1.0$"):
        read_keypoint_jsonl(path)


# ---------------------------------------------------------------------------
# windowing

def test_sixty_second_trace_makes_sixty_windows():
    spans = segment_windows(flat_trace(60.0), 1.0)
    assert len(spans) == 60


def test_remainder_is_dropped():
    # 10.7 s at w=2 -> 5 windows
    tr = flat_trace(10.7)
    spans = segment_windows(tr, 2.0)
    assert len(spans) == 5
    assert spans[-1].end == pytest.approx(10.0)


def test_too_short_trace_raises():
    with pytest.raises(TraceTooShort):
        segment_windows(flat_trace(0.4), 0.5)
    # exactly one window is fine
    assert len(segment_windows(flat_trace(0.5), 0.5)) == 1


def test_windows_partition_samples():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rate = rng.choice([25.0, 30.0, 50.0])
        seconds = float(rng.uniform(2.0, 12.0))
        w = float(rng.choice([0.5, 1.0, 2.0]))
        tr = flat_trace(seconds, rate=rate, start=float(rng.uniform(-5, 5)))
        if tr.duration < w:
            continue
        spans = segment_windows(tr, w)
        # contiguous, non-overlapping, each w wide
        for a, b in zip(spans, spans[1:]):
            assert a.hi == b.lo
            assert b.start == pytest.approx(a.end)
            assert a.end - a.start == pytest.approx(w)
        # samples fall inside their window
        for span in spans:
            chunk = tr.timestamps[span.lo:span.hi]
            assert (chunk >= span.start - 1e-9).all()
            assert (chunk < span.end - 1e-9 + 1e-6).all()
        assert spans[0].lo == 0


# ---------------------------------------------------------------------------
# smoothing

def lsq_savgol_oracle(x, window_len, poly_order):
    """Direct per-point polynomial fit with mirrored edges (no scipy)."""
    half = window_len // 2
    padded = np.concatenate([x[half:0:-1], x, x[-2:-half - 2:-1]])
    grid = np.arange(window_len)
    out = np.empty(len(x))
    for i in range(len(x)):
        seg = padded[i:i + window_len]
        coef = np.polynomial.polynomial.polyfit(grid, seg, poly_order)
        out[i] = np.polynomial.polynomial.polyval(half, coef)
    return out


def test_savgol_preserves_polynomials():
    # constants survive everywhere; higher polynomials survive away from the
    # mirrored edges, where reflection deliberately bends the extension
    x = np.linspace(0, 4, 41)
    out = _smooth_columns(np.full(41, 2.5))
    assert np.allclose(out, 2.5, atol=1e-9)
    for sig in (1.0 + 3.0 * x, 0.5 * x ** 2 - x + 2, x ** 3 - 2 * x):
        out = _smooth_columns(sig)
        assert np.allclose(out[5:-5], sig[5:-5], atol=1e-9)


def test_savgol_matches_direct_least_squares():
    sig = np.random.default_rng(7).normal(0, 1, 60)
    assert np.allclose(_smooth_columns(sig), lsq_savgol_oracle(sig, 11, 3), atol=1e-9)


def test_savgol_is_linear():
    rng = np.random.default_rng(8)
    a, b = rng.normal(0, 1, 50), rng.normal(0, 1, 50)
    lhs = _smooth_columns(2.0 * a + 3.0 * b)
    rhs = 2.0 * _smooth_columns(a) + 3.0 * _smooth_columns(b)
    assert np.allclose(lhs, rhs, atol=1e-9)


# Tiles of at most 4 * _BLOCK_CELLS cells: 1 and 40 split the rows mid-trace.
_BLOCK = st.sampled_from([1, 40, 1 << 14])


def test_smoothing_is_per_column():
    rng = np.random.default_rng(9)
    arr = rng.normal(0, 1, (400, 3))
    want = _smooth_columns(arr)
    for block in (1, 40, 1 << 14):
        with mock.patch.object(pipeline, "_BLOCK_CELLS", block):
            out = _smooth_columns(arr)
            for c in range(3):
                assert np.array_equal(out[:, c], _smooth_columns(arr[:, c]))
            # too short to smooth: returned as is
            assert np.array_equal(_smooth_columns(arr[:10]), arr[:10])
            assert np.array_equal(_smooth_columns(arr[:10, 1]), arr[:10, 1])
        assert np.array_equal(out, want)


def _smoothing_input(rng, kind, shape):
    if kind == "normal":
        return rng.normal(0, 1, shape)
    if kind == "gravity":  # an accelerometer offset at the 1e3 scale
        return rng.normal(GRAVITY, 1, shape) * 1e3
    return _signal(rng, kind, shape)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(11, 3000), columns=st.booleans(),
       kind=st.sampled_from(["normal", "walk", "ints", "constant", "gravity"]), block=_BLOCK)
def test_smoothing_equals_scipy_savgol_bit_for_bit(seed, n, columns, kind, block):
    rng = np.random.default_rng(seed)
    x = _smoothing_input(rng, kind, (n, 3) if columns else (n,))
    with mock.patch.object(pipeline, "_BLOCK_CELLS", block):
        out = _smooth_columns(x)
    assert np.array_equal(out, savgol_filter(x, 11, 3, axis=0, mode="mirror"))


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test oracle
    src = os.path.dirname(os.path.dirname(motionlink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, motionlink; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# magnitudes

def test_motion_magnitude_of_rest_is_zero():
    accel = np.tile([0.0, 0.0, GRAVITY], (50, 1))
    assert motion_magnitude(accel) == pytest.approx(0.0)


def test_motion_magnitude_of_symmetric_bounce():
    # |accel| alternates 9.81 +/- 2 -> mean deviation exactly 2
    accel = np.tile([0.0, 0.0, GRAVITY], (50, 1))
    accel[::2, 2] += 2.0
    accel[1::2, 2] -= 2.0
    assert motion_magnitude(accel) == pytest.approx(2.0)


def test_motion_magnitude_empty_window():
    with pytest.raises(EmptyWindow):
        motion_magnitude(np.zeros((0, 3)))


def test_visual_magnitude_stationary_and_linear():
    tr = keypoint_trace(2.0)
    span = segment_windows(tr, 1.0)[0]
    assert visual_magnitude(tr, span, SensorPosition.LEFT_WRIST) == pytest.approx(0.0)

    # constant velocity: zero acceleration
    n = len(tr)
    pts = {k: v.copy() for k, v in tr.points.items()}
    drift = np.outer(np.arange(n), [3.0, -1.0])
    pts = {k: v + drift for k, v in pts.items()}
    moving = KeypointTrace(tr.timestamps, pts)
    mag = visual_magnitude(moving, span, SensorPosition.RIGHT_WRIST)
    assert mag == pytest.approx(0.0, abs=1e-6)


def test_visual_magnitude_mostly_missing_is_unobservable():
    tr = keypoint_trace(1.0)  # 30 frames
    pts = {k: v.copy() for k, v in tr.points.items()}
    pts["left_wrist"][:19] = np.nan  # 19/30 missing > half
    tr = KeypointTrace(tr.timestamps, pts)
    span = segment_windows(tr, 1.0)[0]
    assert visual_magnitude(tr, span, SensorPosition.LEFT_WRIST) is None
    # the right wrist is intact
    assert visual_magnitude(tr, span, SensorPosition.RIGHT_WRIST) is not None


def test_visual_magnitude_too_few_frames_is_unobservable():
    ts = np.array([0.0, 0.4, 0.8])
    pts = {"left_hip": np.array([[0.0, 0.0], [np.nan, np.nan], [2.0, 2.0]])}
    tr = KeypointTrace(ts, pts)
    span = segment_windows(tr, 1.2)[0]
    assert visual_magnitude(tr, span, SensorPosition.LEFT_FRONT_POCKET) is None


def test_visual_magnitude_unknown_keypoint_is_unobservable():
    tr = KeypointTrace(np.arange(30) / 30.0,
                       {"nose": np.zeros((30, 2))})
    span = segment_windows(tr, 1.0)[0]
    assert visual_magnitude(tr, span, SensorPosition.LEFT_WRIST) is None


# ---------------------------------------------------------------------------
# features

def test_motion_features_of_rest():
    accel = np.tile([0.0, 0.0, GRAVITY], (50, 1))
    gyro = np.zeros((50, 3))
    f = motion_window_features(accel, gyro)
    assert f.shape == (24,)
    # per axis: mean, std, energy, dominant bin; z accel mean is gravity
    assert f[16] == pytest.approx(GRAVITY)  # z-axis accel mean
    stds = f[1::4]
    energies = f[2::4]
    assert np.allclose(stds, 0.0)
    assert np.allclose(energies, 0.0)


def test_motion_features_pick_up_oscillation():
    n = 50
    t = np.arange(n) / 50.0
    accel = np.tile([0.0, 0.0, GRAVITY], (n, 1))
    accel[:, 2] += 2.0 * np.sin(2 * np.pi * 3.0 * t)  # 3 Hz
    f = motion_window_features(accel, np.zeros((n, 3)))
    # z accel dominant bin sits at 3 (1 Hz resolution over a 1 s window)
    assert f[19] == pytest.approx(3.0)
    assert f[17] > 1.0  # z std


def test_motion_features_cost_is_linear_in_trace_length():
    # a window block gathers only its own samples, so ten times the windows
    # cost about ten times the time; gathering from strided rows of the
    # whole trace made it about 38 times
    def best_of_3(n):
        trace = flat_trace(float(n))
        lo = np.arange(n) * 50
        times = []
        for _ in range(3):
            start = time.perf_counter()
            motion_features(trace, lo, lo + 50)
            times.append(time.perf_counter() - start)
        return min(times)

    short, long = best_of_3(600), best_of_3(6000)
    assert long / short < 20, f"600 windows {short:.4f} s, 6000 windows {long:.4f} s"


def test_visual_features_shape_and_determinism():
    tr = keypoint_trace(1.0, jitter=3.0, seed=5)
    span = segment_windows(tr, 1.0)[0]
    f1 = visual_window_features(tr, span)
    f2 = visual_window_features(tr, span)
    assert f1.shape == (13,)
    assert np.array_equal(f1, f2)
    assert (f1[:12:3] > 0).all()  # every group moved
    assert sum(f1[2:12:3]) == pytest.approx(1.0)  # shares partition the path


# ---------------------------------------------------------------------------
# classifier

def blob_model(seed=0):
    """Training set of 8 well-separated gaussian blobs in 6 dims."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 50, size=(8, 6))
    feats, labels = [], []
    for label in ActivityLabel:
        pts = centers[int(label)] + rng.normal(0, 1.0, size=(30, 6))
        feats.append(pts)
        labels.extend([label] * 30)
    return np.vstack(feats), labels, centers


def test_fit_and_classify_recovers_blobs():
    feats, labels, centers = blob_model()
    model = fit_classifier(feats, labels, Channel.MOTION)
    rng = np.random.default_rng(1)
    truth = np.repeat(np.arange(8), 20)
    x = centers[truth] + rng.normal(0, 1.0, size=(truth.size, 6))
    assert (classify_windows(model, x) == truth).mean() >= 0.95


def test_classify_tie_breaks_to_lower_code():
    mean = np.zeros(2)
    std = np.ones(2)
    centroids = np.zeros((8, 2))
    for l in ActivityLabel:
        centroids[int(l)] = [100.0 + 10 * int(l), 100.0]
    centroids[int(ActivityLabel.WALKING)] = [1.0, 0.0]
    centroids[int(ActivityLabel.JUMPING)] = [-1.0, 0.0]
    model = ClassifierModel(Channel.MOTION, mean, std, centroids)
    # the origin is exactly equidistant from walking and jumping
    assert classify_windows(model, np.zeros((3, 2))).tolist() == [ActivityLabel.WALKING] * 3


def test_classify_dimension_mismatch():
    feats, labels, _ = blob_model()
    model = fit_classifier(feats, labels, Channel.MOTION)
    with pytest.raises(ModelMismatch):
        classify_windows(model, np.zeros((1, 3)))
    with pytest.raises(ModelMismatch):
        classify_windows(model, np.zeros(6))


def test_fit_requires_every_label():
    rng = np.random.default_rng(2)
    feats = rng.normal(0, 1, (20, 4))
    labels = [ActivityLabel.IDLE] * 20
    with pytest.raises(ModelMismatch):
        fit_classifier(feats, labels, Channel.MOTION)


def test_classifier_roundtrip(tmp_path):
    feats, labels, _ = blob_model()
    model = fit_classifier(feats, labels, Channel.VISUAL)
    path = tmp_path / "model.json"
    save_classifier(model, path)
    back = load_classifier(path)
    assert back.channel is Channel.VISUAL
    assert np.array_equal(back.centroids, model.centroids)
    assert np.array_equal(back.feature_mean, model.feature_mean)


# ---------------------------------------------------------------------------
# confusion channel

def test_confusion_matrix_validation():
    with pytest.raises(InvalidConfusionMatrix):
        ConfusionMatrix(np.zeros((8, 8)))
    with pytest.raises(InvalidConfusionMatrix):
        ConfusionMatrix(np.ones((8, 8)))
    with pytest.raises(InvalidConfusionMatrix):
        ConfusionMatrix(np.eye(7))
    bad = np.eye(8)
    bad[0, 0] = 1.5
    bad[0, 1] = -0.5
    with pytest.raises(InvalidConfusionMatrix):
        ConfusionMatrix(bad)
    ConfusionMatrix(np.eye(8))  # identity is fine


def confuse(labels, matrix, rng):
    """The codes `labels` turn into through `matrix` on `rng`'s draws."""
    codes = np.asarray(labels, dtype=np.intp)
    return _confusion_codes(codes, matrix, rng.random(codes.size))


def test_identity_confusion_is_exact():
    labels = tuple(ActivityLabel(c) for c in [0, 3, 7, 4, 4, 1])
    for seed in range(5):
        out = confuse(labels, ConfusionMatrix(np.eye(8)), np.random.default_rng(seed))
        assert out.dtype == np.uint8 and out.tolist() == list(labels)


def test_apply_confusion_is_deterministic_per_seed():
    rows = np.full((8, 8), 1 / 8)
    cm = ConfusionMatrix(rows)
    labels = tuple(ActivityLabel(c % 8) for c in range(100))
    a = confuse(labels, cm, np.random.default_rng(42))
    b = confuse(labels, cm, np.random.default_rng(42))
    c = confuse(labels, cm, np.random.default_rng(43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_apply_confusion_hits_target_rates():
    # idle row: 40% stays idle, 40% flips to walking, 20% to other
    rows = np.eye(8)
    rows[0] = 0.0
    rows[0, int(ActivityLabel.IDLE)] = 0.4
    rows[0, int(ActivityLabel.WALKING)] = 0.4
    rows[0, int(ActivityLabel.OTHER)] = 0.2
    cm = ConfusionMatrix(rows)
    labels = (ActivityLabel.IDLE,) * 20000
    out = confuse(labels, cm, np.random.default_rng(9))
    frac_walk = np.mean(out == ActivityLabel.WALKING)
    frac_idle = np.mean(out == ActivityLabel.IDLE)
    assert abs(frac_walk - 0.4) < 0.02
    assert abs(frac_idle - 0.4) < 0.02


def test_apply_confusion_empty():
    assert confuse((), ConfusionMatrix(np.eye(8)), np.random.default_rng(0)).size == 0


# ---------------------------------------------------------------------------
# end-to-end series construction

def test_build_series_motion_counts_and_raw_magnitude():
    # 10 s at 50 Hz; |accel| alternates +/-2 about gravity at the Nyquist rate,
    # which smoothing would flatten: the magnitude must come from raw samples.
    tr = flat_trace(10.0)
    accel = tr.accel.copy()
    accel[::2, 2] += 2.0
    accel[1::2, 2] -= 2.0
    tr = MotionTrace(tr.timestamps, accel, tr.gyro)
    feats, labels, _ = blob_model()
    # a real model shape for the motion pipeline: use fitted stats on real dims
    windows = segment_windows(tr, 1.0)
    model = _fit_motion_model_from_trace(tr, windows)
    series = build_series(tr, 1.0, model, "m0")
    assert len(series) == 10
    assert series.channel is Channel.MOTION
    mags = series.motion_magnitudes.values
    assert np.allclose(mags, 2.0, atol=1e-9)


def _fit_motion_model_from_trace(tr, windows):
    feats, _ = motion_features(tr, [s.lo for s in windows], [s.hi for s in windows])
    # enough distinct rows for every label: tile with offsets
    all_feats, all_labels = [], []
    rng = np.random.default_rng(0)
    for label in ActivityLabel:
        all_feats.append(feats + rng.normal(0, 0.1, feats.shape) + int(label) * 10.0)
        all_labels.extend([label] * len(feats))
    return fit_classifier(np.vstack(all_feats), all_labels, Channel.MOTION)


def test_build_series_window_width_halves_count():
    tr = flat_trace(12.0)
    windows = segment_windows(tr, 1.0)
    model = _fit_motion_model_from_trace(tr, windows)
    s1 = build_series(tr, 1.0, model, "m0")
    s2 = build_series(tr, 2.0, model, "m0")
    assert len(s1) == 12
    assert len(s2) == 6


def test_build_series_visual_unobservable_positions():
    tr = keypoint_trace(5.0, jitter=1.5, seed=9)
    pts = {k: v.copy() for k, v in tr.points.items()}
    pts.pop("left_wrist")  # never detected at all
    tr = KeypointTrace(tr.timestamps, pts)
    edges = window_edges(tr, 1.0)
    feats, _ = visual_features(tr, edges[:-1], edges[1:])
    all_feats, all_labels = [], []
    rng = np.random.default_rng(0)
    for label in ActivityLabel:
        all_feats.append(feats + rng.normal(0, 0.05, feats.shape) + int(label))
        all_labels.extend([label] * len(feats))
    model = fit_classifier(np.vstack(all_feats), all_labels, Channel.VISUAL)
    series = build_series(tr, 1.0, model, "a0")
    assert len(series) == 5
    lw = series.magnitude_for(SensorPosition.LEFT_WRIST)
    assert not lw.observed_mask.any()
    hips = series.magnitude_for(SensorPosition.LEFT_FRONT_POCKET)
    assert hips.observed_mask.sum() == 5


def test_build_series_channel_model_mismatch():
    tr = flat_trace(5.0)
    feats, labels, _ = blob_model()
    visual_model = fit_classifier(feats, labels, Channel.VISUAL)
    with pytest.raises(ModelMismatch):
        build_series(tr, 1.0, visual_model, "m0")


# ---------------------------------------------------------------------------
# batched featurization against the scalar per-window oracle

def _signal(rng, kind, shape):
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "constant":  # integer columns: exact means, all-zero spectra
        return np.broadcast_to(rng.integers(-3, 4, shape[1:]), shape).astype(float)
    if kind == "ints":  # exact zeros and tied values
        return rng.integers(-2, 3, shape).astype(float)
    return np.cumsum(rng.normal(0, 3, shape), axis=0)


def _jittered(rng, n, dt):
    """n strictly increasing timestamps, spacings of 0.3 to 1.7 dt."""
    return np.cumsum(rng.uniform(0.3, 1.7, n)) * dt


def _windows(trace, w, extra):
    """Window edges of the trace's own grid plus arbitrary, possibly
    overlapping (lo, length) windows clipped to the trace, as (lo, hi)."""
    n = len(trace)
    try:
        edges = window_edges(trace, w)
    except TraceTooShort:
        edges = np.zeros(1, dtype=np.intp)
    lo = [int(e) for e in edges[:-1]] + [a % n for a, _ in extra]
    hi = [int(e) for e in edges[1:]] + [min(n, a % n + b) for a, b in extra]
    return np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp)


_EXTRA = st.lists(st.tuples(st.integers(0, 500), st.integers(1, 60)), max_size=4)


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 120),
       per_window=st.floats(1.0, 8.0), kinds=st.tuples(*[st.sampled_from(
           ["zeros", "constant", "ints", "walk"])] * 2),
       extra=_EXTRA, block=_BLOCK)
def test_batched_motion_features_equal_scalar_oracle(seed, n, per_window, kinds, extra, block):
    rng = np.random.default_rng(seed)
    trace = MotionTrace(_jittered(rng, n, 0.02), _signal(rng, kinds[0], (n, 3)),
                        _signal(rng, kinds[1], (n, 3)))
    lo, hi = _windows(trace, 0.02 * per_window, extra)
    if not lo.size:
        return
    with mock.patch.object(pipeline, "_BLOCK_CELLS", block):
        if (hi <= lo).any():  # a jittered gap emptied a window
            with pytest.raises(EmptyWindow):
                motion_features(trace, lo, hi)
            return
        feats, mags = motion_features(trace, lo, hi)
    accel = _smooth_columns(trace.accel)
    gyro = _smooth_columns(trace.gyro)
    want = np.stack([motion_window_features(accel[a:b], gyro[a:b]) for a, b in zip(lo, hi)])
    assert np.array_equal(feats, want)
    assert np.array_equal(mags, [motion_magnitude(trace.accel[a:b]) for a, b in zip(lo, hi)])


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 90),
       per_window=st.floats(1.0, 8.0), kind=st.sampled_from(["constant", "ints", "walk"]),
       absent=st.sets(st.sampled_from(KEYPOINT_NAMES), max_size=7),
       dropout=st.lists(st.sampled_from(["none", "frames", "runs", "one_axis", "all"]),
                        min_size=7, max_size=7),
       extra=_EXTRA, block=_BLOCK)
def test_batched_visual_features_equal_scalar_oracle(seed, n, per_window, kind, absent,
                                                     dropout, extra, block):
    rng = np.random.default_rng(seed)
    points = {}
    for name, drop in zip(KEYPOINT_NAMES, dropout):
        xy = _signal(rng, kind, (n, 2))
        if drop == "frames":
            xy[rng.random(n) < rng.uniform(0.1, 0.9)] = np.nan
        elif drop == "runs":
            start = int(rng.integers(0, n))
            xy[start:start + int(rng.integers(1, 8))] = np.nan
        elif drop == "one_axis":  # a half-missing coordinate drops the frame
            xy[rng.random(n) < 0.5, int(rng.integers(0, 2))] = np.nan
        elif drop == "all":
            xy[:] = np.nan
        if name not in absent:
            points[name] = xy
    trace = KeypointTrace(_jittered(rng, n, 1 / 30.0), points)
    lo, hi = _windows(trace, per_window / 30.0, extra)
    if not lo.size:
        return
    with mock.patch.object(pipeline, "_BLOCK_CELLS", block):
        if (hi <= lo).any():
            with pytest.raises(EmptyWindow):
                visual_features(trace, lo, hi)
            return
        feats, mags = visual_features(trace, lo, hi)
    spans = [WindowSpan(i, 0.0, 0.0, int(a), int(b)) for i, (a, b) in enumerate(zip(lo, hi))]
    assert np.array_equal(feats, np.stack([visual_window_features(trace, s) for s in spans]))
    want = [[np.nan if (m := visual_magnitude(trace, s, p)) is None else m
             for p in SensorPosition] for s in spans]
    assert np.array_equal(mags, want, equal_nan=True)


def _sparse_keypoint_trace(detections, n=24, seed=7):
    """A jittered n-frame trace whose keypoints, in KEYPOINT_NAMES order, are
    detected in every frame unless `detections` maps them to a number of
    frames (spread over the trace) or to None (absent from the trace)."""
    rng = np.random.default_rng(seed)
    points = {}
    for name in KEYPOINT_NAMES:
        xy = np.cumsum(rng.normal(0, 3, (n, 2)), axis=0)
        count = detections.get(name, n)
        if count is None:
            continue
        xy[np.setdiff1d(np.arange(n), np.linspace(0, n - 1, count).round())] = np.nan
        points[name] = xy
    return KeypointTrace(_jittered(rng, n, 1 / 30.0), points)


def _oracle_visual(trace, lo, hi):
    spans = [WindowSpan(i, 0.0, 0.0, int(a), int(b)) for i, (a, b) in enumerate(zip(lo, hi))]
    feats = np.stack([visual_window_features(trace, s) for s in spans])
    mags = [[np.nan if (m := visual_magnitude(trace, s, p)) is None else m
             for p in SensorPosition] for s in spans]
    return feats, np.array(mags)


# Keypoints feed the step buffer in KEYPOINT_NAMES order and the proxy
# acceleration buffer in the order left_wrist, right_wrist, left_hip,
# right_hip; 0, 1 or 2 detected frames leave a keypoint's acceleration slice
# empty, 0 or 1 its step slice.
@pytest.mark.parametrize("detections", [
    {"nose": 0, "left_wrist": 1, "right_wrist": 2, "left_hip": 3, "right_ankle": 0},
    {"left_wrist": 3, "right_wrist": 0, "left_hip": 1, "right_hip": 2, "left_ankle": 1},
    {"left_wrist": 2, "right_hip": 1, "right_ankle": 3},
    {"left_wrist": None, "right_hip": None},  # a proxy absent, its group-mate present
    {"nose": 2, "left_wrist": None, "right_wrist": 3, "left_ankle": None},
    {name: None for name in KEYPOINT_NAMES if name != "nose"},  # the head alone
    {name: 1 for name in KEYPOINT_NAMES},
], ids=["empty-first-and-last", "empty-middle", "empty-proxy-last", "proxy-mate-absent",
        "head-beside-lone-keypoints", "head-alone", "one-frame-each"])
def test_visual_buffer_slice_edges_equal_scalar_oracle(detections):
    trace = _sparse_keypoint_trace(detections)
    edges = window_edges(trace, 0.2)
    lo = np.r_[edges[:-1], 0, 5, 20, 0, 23]
    hi = np.r_[edges[1:], 24, 13, 24, 1, 24]
    feats, mags = visual_features(trace, lo, hi)
    want_feats, want_mags = _oracle_visual(trace, lo, hi)
    assert np.array_equal(feats, want_feats)
    assert np.array_equal(mags, want_mags, equal_nan=True)


@pytest.mark.parametrize("absent, extra", [
    ((), None),
    (("nose", "right_wrist", "left_hip"), None),
    ((), "left_knee"),
    (KEYPOINT_NAMES, None),
], ids=["all-seven", "three-absent", "extra-keypoint", "none"])
def test_visual_features_makes_four_run_stats_calls(absent, extra):
    # one call per statistic kind (path sums, group mean and std, spread,
    # proxy accelerations), whatever the keypoints
    trace = _sparse_keypoint_trace({name: None for name in absent})
    if extra:
        points = dict(trace.points, **{extra: trace.points["nose"] * 2 + 1})
        trace = KeypointTrace(trace.timestamps, points)
    edges = window_edges(trace, 0.2)
    calls = []

    def counted(*args):
        calls.append(args)
        return run_stats(*args)

    run_stats = pipeline._run_stats
    with mock.patch.object(pipeline, "_run_stats", counted):
        feats, mags = visual_features(trace, edges[:-1], edges[1:])
    assert len(calls) == 4
    want_feats, want_mags = _oracle_visual(trace, edges[:-1], edges[1:])
    assert np.array_equal(feats, want_feats)
    assert np.array_equal(mags, want_mags, equal_nan=True)
    if extra:  # a keypoint outside the feature groups changes nothing
        without = KeypointTrace(trace.timestamps,
                                {k: v for k, v in trace.points.items() if k != extra})
        base_feats, base_mags = visual_features(without, edges[:-1], edges[1:])
        assert np.array_equal(feats, base_feats)
        assert np.array_equal(mags, base_mags, equal_nan=True)


@pytest.mark.parametrize("block", [40, 1 << 14])
def test_motion_features_makes_one_axis_stats_call_per_block(block):
    # one gather serves all six axes of a block: accel and gyro x, y, z
    rng = np.random.default_rng(11)
    trace = MotionTrace(_jittered(rng, 300, 0.02), _signal(rng, "walk", (300, 3)),
                        _signal(rng, "walk", (300, 3)))
    lo, hi = _windows(trace, 0.1, [(0, 7), (40, 12), (250, 60), (9, 7)])
    calls = []

    def counted(axes):
        calls.append(axes.shape)
        return axis_stats(axes)

    axis_stats = pipeline._axis_stats
    with mock.patch.object(pipeline, "_BLOCK_CELLS", block), \
            mock.patch.object(pipeline, "_axis_stats", counted):
        feats, mags = motion_features(trace, lo, hi)
        blocks = list(pipeline._blocks(hi - lo, width=7))
    assert len(calls) == len(blocks) >= len(set((hi - lo).tolist()))
    assert [shape[:2] for shape in calls] == [(6, sel.size) for _, sel in blocks]
    accel, gyro = _smooth_columns(trace.accel), _smooth_columns(trace.gyro)
    want = np.stack([motion_window_features(accel[a:b], gyro[a:b]) for a, b in zip(lo, hi)])
    assert np.array_equal(feats, want)
    assert np.array_equal(mags, [motion_magnitude(trace.accel[a:b]) for a, b in zip(lo, hi)])


@pytest.mark.parametrize("channel", [Channel.MOTION, Channel.VISUAL])
def test_featurization_peak_memory_is_about_twice_the_trace(channel):
    # the 480-window training trace of train_classifier: the smoothing
    # tiles and block temporaries stay bounded, and no per-keypoint copy
    # outlives its loop
    traces, featurize = [], synth.window_features
    with mock.patch.object(synth, "window_features",
                           lambda trace, w: featurize(traces.append(trace) or trace, w)):
        synth.train_classifier(channel, 1.0)
    trace, = traces
    if channel is Channel.MOTION:
        samples = trace.accel.nbytes + trace.gyro.nbytes
    else:
        samples = sum(xy.nbytes for xy in trace.points.values())
    tracemalloc.start()
    try:
        feats, _ = pipeline.window_features(trace, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(feats) == 480
    assert peak <= 2.1 * samples, f"peak {peak} B against {samples} B of samples"


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2, 13, 24]),
       n=st.integers(1, 60), twins=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                                            max_size=4), block=_BLOCK)
def test_classify_windows_equals_scalar_oracle(seed, dim, n, twins, block):
    # small integer grids make exact distance ties common; twin centroids
    # tie on every window
    rng = np.random.default_rng(seed)
    centroids = rng.integers(-2, 3, (8, dim)).astype(float)
    for a, b in twins:
        centroids[b] = centroids[a]
    model = ClassifierModel(Channel.MOTION, rng.integers(-1, 2, dim).astype(float),
                            rng.choice([0.5, 1.0, 2.0], dim), centroids)
    feats = rng.integers(-3, 4, (n, dim)).astype(float)
    with mock.patch.object(pipeline, "_BLOCK_CELLS", block):
        codes = classify_windows(model, feats)
    assert codes.tolist() == [int(classify_window(model, f)) for f in feats]


def test_gap_that_empties_a_window_raises_empty_window():
    motion = flat_trace(6.0)
    keep = (motion.timestamps < 2.0) | (motion.timestamps >= 3.2)
    gapped = MotionTrace(motion.timestamps[keep], motion.accel[keep], motion.gyro[keep])
    model = _fit_motion_model_from_trace(motion, segment_windows(motion, 1.0))
    with pytest.raises(EmptyWindow):
        build_series(gapped, 1.0, model, "m0")
    series = build_series(motion, 1.0, model, "a0")
    visual = visual_series("a0", series.codes,
                           {p.value: series.mags.tolist() for p in SensorPosition})
    with pytest.raises(EmptyWindow):
        align_offset_search(gapped, visual, model, AlignConfig(delta_max=0.0))

    kp = keypoint_trace(6.0, jitter=1.0)
    keep = (kp.timestamps < 2.0) | (kp.timestamps >= 3.2)
    gapped = KeypointTrace(kp.timestamps[keep],
                           {k: v[keep] for k, v in kp.points.items()})
    rng = np.random.default_rng(0)
    visual_model = fit_classifier(rng.normal(0, 1, (80, 13)), np.repeat(np.arange(8), 10),
                                  Channel.VISUAL)
    with pytest.raises(EmptyWindow, match="visual window 2 has no frames"):
        build_series(gapped, 1.0, visual_model, "a0")

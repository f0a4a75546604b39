"""Offset search tests.

The central scenario: a body-sensor recording that started late relative to
the observed capture.  Built from its own start, its windows straddle two
behaviour windows each and the label sequences disagree; the searched offset
must bring the distance back to near zero and sit within one grid step of
the true lag.
"""

import dataclasses

import numpy as np
import pytest

from motionlink import align
from motionlink.align import (
    AlignConfig,
    _rebuild,
    align_offset_search,
    correlate_with_alignment,
)
from motionlink.engine import FilterConfig
from motionlink.errors import ConfigError, MemoryCapExceeded, ModelMismatch, NoOverlap
from motionlink.model import ActivityLabel, Channel, SensorPosition, VisualDataset
from motionlink.pipeline import MotionTrace, build_series
from motionlink.synth import (
    DEFAULT_MAGNITUDE_BASE,
    train_classifier,
    synthesize_motion_trace,
)
from series_rows import visual_series

@pytest.fixture(scope="module")
def motion_model():
    return train_classifier(Channel.MOTION, 1.0, seed=0, reps=40)


def make_script(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 8, size=n)


def script_amps(script, mult=1.2):
    return np.array(
        [DEFAULT_MAGNITUDE_BASE[ActivityLabel(int(c))] for c in script]
    ) * mult


def visual_from_script(codes, mags, source_id="a0"):
    """Channel-exact observed series: true labels, identical magnitudes at
    every sensor position."""
    return visual_series(source_id, codes, {p.value: list(mags) for p in SensorPosition})


def late_start(trace: MotionTrace, lag: float) -> MotionTrace:
    """Drop the first `lag` seconds of samples: a recording that began late."""
    i0 = int(np.searchsorted(trace.timestamps, lag - 1e-9, side="left"))
    return MotionTrace(trace.timestamps[i0:], trace.accel[i0:], trace.gyro[i0:])


class TestAlignConfig:
    def test_offset_order_prefers_zero_then_small_then_positive(self):
        cfg = AlignConfig(delta_max=1.0, step=0.5)
        assert cfg.offsets() == (0.0, 0.5, -0.5, 1.0, -1.0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            AlignConfig(step=0.0)
        with pytest.raises(ConfigError):
            AlignConfig(delta_max=-1.0)

    @pytest.mark.parametrize("delta_max, step", [
        (np.inf, 0.5), (np.nan, 0.5), (4.0, np.inf), (4.0, np.nan), (4.0, -np.inf),
        (1e300, 1e-300),  # finite, but the count overflows a float
    ])
    def test_rejects_unbounded_grid(self, delta_max, step):
        with pytest.raises(ConfigError):
            AlignConfig(delta_max=delta_max, step=step)

    @pytest.mark.parametrize("delta_max, step", [
        (0.0, 0.5), (0.4, 0.5), (1.0, 0.5), (1.0, 0.1), (1.5, 0.3), (0.1, 0.0125), (3.0, 1.0),
    ])
    def test_offset_count_matches_the_grid(self, delta_max, step):
        cfg = AlignConfig(delta_max=delta_max, step=step)
        assert cfg.n_offsets == len(cfg.offsets())

    def test_huge_grid_is_counted_and_refused_without_being_built(self):
        cfg = AlignConfig(delta_max=2.0 ** 40, step=0.5)
        assert cfg.n_offsets == 2 ** 42 + 1
        with pytest.raises(MemoryCapExceeded, match=f"offset grid of {2 ** 42 + 1} offsets"):
            cfg.offsets()

    def test_memory_cap_charges_the_trace_length(self, monkeypatch, motion_model):
        script = [0, 1, 2, 3, 4] * 4
        trace = synthesize_motion_trace(script, script_amps(script), 1.0,
                                        np.random.default_rng(5))
        visual = visual_from_script(script, script_amps(script))
        cfg = AlignConfig(delta_max=2.0, step=0.5)  # 9 offsets
        # room for every offset's floor, not for a 20-window trace's rebuilds
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(9 * 2 * align._OFFSET_BYTES))
        assert len(cfg.offsets()) == 9
        with pytest.raises(MemoryCapExceeded):
            align_offset_search(trace, visual, motion_model, cfg)
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(9 * (align._OFFSET_BYTES + 20 * 64)))
        assert align_offset_search(trace, visual, motion_model, cfg).offset == 0.0

    def test_memory_cap_bounds_the_grid(self, monkeypatch):
        cfg = AlignConfig(delta_max=24.5, step=0.5)  # 99 offsets
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(99 * align._OFFSET_BYTES))
        assert len(cfg.offsets()) == 99
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(99 * align._OFFSET_BYTES - 1))
        with pytest.raises(MemoryCapExceeded):
            cfg.offsets()


class TestShiftAndRebuild:
    """A trace shifted by an offset and rebuilt on a fixed window grid
    (`_rebuild`, which the offset search runs for every offset)."""

    def test_zero_offset_matches_plain_builder(self, motion_model):
        script = make_script(8, seed=1)
        trace = synthesize_motion_trace(
            script, script_amps(script), 1.0, np.random.default_rng(1)
        )
        plain = build_series(trace, 1.0, motion_model, "m")
        origin = float(trace.timestamps[0])
        codes, mags, first = _rebuild(trace, (0.0,), 1.0, motion_model, origin)[0.0]
        assert first == 0
        assert codes.tolist() == plain.codes.tolist()
        np.testing.assert_allclose(mags, plain.motion_magnitudes.values)

    def test_whole_window_offsets_shift_indices_only(self, motion_model):
        script = make_script(8, seed=2)
        trace = synthesize_motion_trace(
            script, script_amps(script), 1.0, np.random.default_rng(2)
        )
        plain = build_series(trace, 1.0, motion_model, "m").codes.tolist()
        rebuilt = _rebuild(trace, (2.0, -3.0), 1.0, motion_model, float(trace.timestamps[0]))
        for offset, first_expected in ((2.0, 2), (-3.0, -3)):
            codes, _, first = rebuilt[offset]
            assert first == first_expected
            assert codes.tolist() == plain

    def test_grid_origin_honoured(self, motion_model):
        script = make_script(6, seed=3)
        trace = synthesize_motion_trace(
            script, script_amps(script), 1.0, np.random.default_rng(3),
        )
        trace = dataclasses.replace(trace, timestamps=trace.timestamps + 3.0)
        codes, _, first = _rebuild(trace, (0.0,), 1.0, motion_model, 0.0)[0.0]
        assert first == 3
        plain = build_series(trace, 1.0, motion_model, "m")
        assert codes.tolist() == plain.codes.tolist()

    def test_too_short_trace_raises(self, motion_model):
        trace = synthesize_motion_trace([0], [0.1], 0.5, np.random.default_rng(4))
        assert _rebuild(trace, (0.0,), 1.0, motion_model, 0.0) == {}
        visual = visual_from_script([0], [0.1])
        with pytest.raises(NoOverlap):
            align_offset_search(trace, visual, motion_model, AlignConfig(delta_max=0.0))


class TestOffsetSearch:
    def test_recovers_known_lag_within_one_step(self, motion_model):
        lag = 2.4
        script = make_script(66, seed=10)
        amps = script_amps(script)
        full = synthesize_motion_trace(script, amps, 1.0, np.random.default_rng(10))
        trace = late_start(full, lag)
        visual = visual_from_script(script[:60], amps[:60])
        result = align_offset_search(
            trace, visual, motion_model, AlignConfig(delta_max=4.0, step=0.5)
        )
        assert abs(result.offset - lag) <= 0.5
        # 0.1s of each window still holds the neighbouring activity, so a
        # few labels flip; the gap to the unaligned floor stays wide
        assert result.distance <= 12
        at_zero = {s.offset: s for s in result.curve}[0.0]
        assert at_zero.distance >= 20
        assert result.n_common >= 50

    def test_finer_grid_tightens_recovery(self, motion_model):
        lag = 2.4
        script = make_script(66, seed=11)
        amps = script_amps(script)
        full = synthesize_motion_trace(script, amps, 1.0, np.random.default_rng(11))
        trace = late_start(full, lag)
        visual = visual_from_script(script[:60], amps[:60])
        result = align_offset_search(
            trace, visual, motion_model, AlignConfig(delta_max=3.0, step=0.1)
        )
        assert abs(result.offset - lag) <= 0.1 + 1e-9

    def test_aligned_trace_prefers_zero(self, motion_model):
        script = make_script(30, seed=12)
        amps = script_amps(script)
        trace = synthesize_motion_trace(script, amps, 1.0, np.random.default_rng(12))
        visual = visual_from_script(script[:28], amps[:28])
        result = align_offset_search(
            trace, visual, motion_model, AlignConfig(delta_max=2.0, step=0.5)
        )
        assert result.offset == 0.0
        assert result.distance <= 1

    def test_curve_is_sorted_and_complete(self, motion_model):
        script = make_script(20, seed=13)
        amps = script_amps(script)
        trace = synthesize_motion_trace(script, amps, 1.0, np.random.default_rng(13))
        visual = visual_from_script(script, amps)
        cfg = AlignConfig(delta_max=2.0, step=1.0)
        result = align_offset_search(trace, visual, motion_model, cfg)
        offsets = [s.offset for s in result.curve]
        assert offsets == sorted(offsets)
        assert set(offsets) == {-2.0, -1.0, 0.0, 1.0, 2.0}

    def test_restricted_search_ignores_out_of_set_windows(self, motion_model):
        # labels outside the set differ wildly, in-set windows agree: a
        # restricted search must call this aligned at zero
        keep = frozenset({ActivityLabel.WALKING, ActivityLabel.JUMPING})
        script = np.array([4, 6, 4, 6, 4, 6, 4, 6, 4, 6])
        amps = script_amps(script)
        trace = synthesize_motion_trace(script, amps, 1.0, np.random.default_rng(14))
        noisy = np.array([4, 6, 4, 6, 4, 6, 4, 6, 4, 6])
        visual_codes = noisy.copy()
        visual_codes[1::2] = 0  # replace jumping windows with out-of-set idle
        visual = visual_from_script(visual_codes, amps)
        result = align_offset_search(
            trace, visual, motion_model,
            AlignConfig(delta_max=1.0, step=1.0), restricted=keep,
        )
        assert result.offset == 0.0
        assert result.distance == 0
        assert result.n_effective <= 5


@pytest.fixture(scope="module")
def cohort():
    # five identities, each with its own start lag relative to capture
    lags = {0: 0.0, 1: 0.5, 2: 1.5, 3: 2.5, 4: 1.0}
    n_visual = 20
    traces = {}
    visual_series = []
    rng = np.random.default_rng(77)
    for i, lag in lags.items():
        script = rng.integers(0, 8, size=n_visual + 4)
        amps = script_amps(script, mult=float(rng.uniform(0.9, 1.5)))
        full = synthesize_motion_trace(
            script, amps, 1.0, np.random.default_rng(100 + i)
        )
        traces[f"u{i}"] = late_start(full, lag)
        visual_series.append(
            visual_from_script(script[:n_visual], amps[:n_visual], f"a{i}")
        )
    return traces, VisualDataset(visual_series), lags


class TestCorrelateWithAlignment:

    def test_recovers_offsets_and_identities(self, cohort, motion_model):
        traces, visual, lags = cohort
        rankings, offsets = correlate_with_alignment(
            traces, visual, motion_model,
            FilterConfig(t_norm=0.3), AlignConfig(delta_max=3.0, step=0.5),
        )
        by_avatar = {r.avatar_id: r for r in rankings}
        for i, lag in lags.items():
            ranking = by_avatar[f"a{i}"]
            assert ranking.entries
            assert ranking.entries[0].identity_id == f"u{i}"
            assert offsets[f"a{i}"][f"u{i}"] == pytest.approx(lag)

    def test_true_pair_rho_is_high(self, cohort, motion_model):
        traces, visual, lags = cohort
        rankings, _ = correlate_with_alignment(
            traces, visual, motion_model,
            FilterConfig(t_norm=0.3), AlignConfig(delta_max=3.0, step=0.5),
        )
        for r in rankings:
            assert r.entries[0].rho > 0.9

    def test_uncorrected_comparison_fails_where_search_succeeds(self, motion_model):
        # the headline effect: without the search, a 2.4s lag destroys the
        # match; with it, the true identity comes back
        lag = 2.4
        script = make_script(64, seed=15)
        amps = script_amps(script)
        full = synthesize_motion_trace(script, amps, 1.0, np.random.default_rng(15))
        trace = late_start(full, lag)
        visual = visual_from_script(script[:60], amps[:60], "a0")
        uncorrected = build_series(trace, 1.0, motion_model, "u0")
        raw = (visual.codes[:len(uncorrected)] != uncorrected.codes[:60]).sum()
        assert raw > 20  # hopeless without alignment
        rankings, offsets = correlate_with_alignment(
            {"u0": trace}, VisualDataset([visual]), motion_model,
            FilterConfig(t_norm=0.3), AlignConfig(delta_max=4.0, step=0.5),
        )
        assert rankings[0].entries[0].identity_id == "u0"
        assert abs(offsets["a0"]["u0"] - lag) <= 0.5


def test_visual_model_is_refused_before_featurizing(cohort, monkeypatch):
    traces, visual, _ = cohort
    visual_model = train_classifier(Channel.VISUAL, 1.0, seed=0, reps=4)

    def featurize(*args):
        raise AssertionError("featurized with a wrong-channel model")

    monkeypatch.setattr(align, "motion_features", featurize)
    message = "motion trace needs a motion-channel model"
    with pytest.raises(ModelMismatch, match=f"^{message}$"):
        correlate_with_alignment(traces, visual, visual_model)
    with pytest.raises(ModelMismatch, match=f"^{message}$"):
        align_offset_search(traces["u0"], visual[0], visual_model)

"""Cohort synthesis tests.

Oracles used here on purpose:
- magnitude ratios between activity labels must equal the ratios of the
  configured per-label bases (the personal intensity factor cancels), which
  checks realized amplitudes without re-deriving them the same way;
- trace-mode amplitude calibration is checked by running the real magnitude
  extractor over synthesized windows and comparing against the requested
  amplitude.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from motionlink.errors import ConfigError, DataError
from motionlink.model import (
    ActivityLabel,
    Channel,
    SensorPosition,
)
from motionlink.pipeline import (
    ConfusionMatrix,
    build_series,
    motion_features,
    visual_features,
    window_edges,
)
from motionlink.synth import (
    DEFAULT_MAGNITUDE_BASE,
    CohortSpec,
    GroundTruth,
    avatar_permutation,
    cohort_spec_from_dict,
    generate_cohort,
    generate_sessions,
    identity_id,
    load_cohort_spec,
    permute_expand,
    synthesize_keypoint_trace,
    synthesize_motion_trace,
    synthesize_trace_cohort,
    train_classifier,
)

POSITIONS = [p.value for p in SensorPosition]


def spread_confusion(diag: float) -> ConfusionMatrix:
    off = (1.0 - diag) / 7.0
    rows = np.full((8, 8), off)
    np.fill_diagonal(rows, diag)
    return ConfusionMatrix(rows)


class TestSpecValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            CohortSpec(num_identities=0, n_windows=10)
        with pytest.raises(ConfigError):
            CohortSpec(num_identities=3, n_windows=0)

    def test_rejects_bad_prior(self):
        prior = {lab: 0.0 for lab in ActivityLabel}
        prior[ActivityLabel.IDLE] = 0.5
        with pytest.raises(ConfigError):
            CohortSpec(num_identities=2, n_windows=4, activity_prior=prior)

    def test_rejects_bad_intensity_range(self):
        with pytest.raises(ConfigError):
            CohortSpec(num_identities=2, n_windows=4, intensity_range=(1.5, 0.5))

    def test_rejects_bad_observability(self):
        with pytest.raises(ConfigError):
            CohortSpec(
                num_identities=2,
                n_windows=4,
                position_observability={SensorPosition.LEFT_WRIST: 1.5},
            )

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"activity_prior": {ActivityLabel.IDLE: math.nan, ActivityLabel.WALKING: 1.0}},
        {"intensity_range": (1.0, math.inf)},
        {"magnitude_noise_sd": math.nan},
        {"magnitude_noise_sd": math.inf},
        {"magnitude_base": {**DEFAULT_MAGNITUDE_BASE, ActivityLabel.IDLE: math.nan}},
        {"magnitude_base": {**DEFAULT_MAGNITUDE_BASE, ActivityLabel.WALKING: math.inf}},
        {"window_seconds": math.inf},
    ], ids=["seed", "prior-nan", "intensity-inf", "noise-nan", "noise-inf", "base-nan",
            "base-inf", "width-inf"])
    def test_rejects_non_finite_values_and_negative_seed(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            CohortSpec(num_identities=2, n_windows=4, **kwargs)


class TestChannelMode:
    def test_shapes_and_ids(self):
        spec = CohortSpec(num_identities=5, n_windows=12, seed=3)
        visual, motion, truth = generate_cohort(spec)
        assert len(visual) == 5 and len(motion) == 5
        assert sorted(truth.mapping) == [f"a{j:04d}" for j in range(5)]
        assert sorted(truth.mapping.values()) == [f"u{i:04d}" for i in range(5)]
        for ident, script in truth.scripts.items():
            assert len(script) == 12
            assert len(motion[ident]) == 12

    def test_noiseless_cohort_reproduces_scripts(self):
        spec = CohortSpec(num_identities=4, n_windows=30, seed=11)
        visual, motion, truth = generate_cohort(spec)
        for aid, ident in truth.mapping.items():
            assert visual[aid].codes.tolist() == list(truth.scripts[ident])
            assert motion[ident].codes.tolist() == list(truth.scripts[ident])

    def test_magnitude_ratios_match_base_ratios(self):
        spec = CohortSpec(num_identities=3, n_windows=200, seed=7)
        _, motion, truth = generate_cohort(spec)
        for ident, script in truth.scripts.items():
            mags = motion[ident].motion_magnitudes.values
            codes = np.array([int(c) for c in script])
            per_label = {}
            for lab in set(script):
                vals = mags[codes == int(lab)]
                assert np.ptp(vals) < 1e-12  # zero noise: one value per label
                per_label[lab] = vals[0]
            labs = sorted(per_label)
            for a in labs:
                for b in labs:
                    expect = DEFAULT_MAGNITUDE_BASE[a] / DEFAULT_MAGNITUDE_BASE[b]
                    assert per_label[a] / per_label[b] == pytest.approx(expect, rel=1e-9)
            # implied intensity must sit inside the configured range
            intensity = per_label[labs[0]] / DEFAULT_MAGNITUDE_BASE[labs[0]]
            lo, hi = spec.intensity_range
            assert lo <= intensity <= hi

    def test_visual_magnitudes_equal_motion_at_zero_noise(self):
        spec = CohortSpec(num_identities=4, n_windows=25, seed=5)
        visual, motion, truth = generate_cohort(spec)
        for aid, ident in truth.mapping.items():
            m = motion[ident].motion_magnitudes.values
            for pos in POSITIONS:
                v = visual[aid].magnitude_for(pos)
                assert v.observed_mask.all()
                np.testing.assert_allclose(v.values, m, rtol=0, atol=0)

    def test_observability_dropout(self):
        spec = CohortSpec(
            num_identities=2,
            n_windows=600,
            seed=9,
            position_observability={
                SensorPosition.LEFT_WRIST: 0.0,
                SensorPosition.RIGHT_WRIST: 0.5,
            },
        )
        visual, _, _ = generate_cohort(spec)
        for series in visual:
            assert not series.magnitude_for("left_wrist").observed_mask.any()
            frac = series.magnitude_for("right_wrist").observed_mask.mean()
            assert 0.42 <= frac <= 0.58
            assert series.magnitude_for("left_front_pocket").observed_mask.all()

    def test_confusion_rate(self):
        cm = spread_confusion(0.7)
        spec = CohortSpec(
            num_identities=1, n_windows=4000, seed=2, visual_confusion=cm
        )
        visual, _, truth = generate_cohort(spec)
        aid = next(iter(truth.mapping))
        script = truth.scripts[truth.mapping[aid]]
        observed = visual[aid].codes.tolist()
        err = np.mean([o != s for o, s in zip(observed, script)])
        assert err == pytest.approx(0.3, abs=0.03)

    def test_deterministic_and_order_free(self):
        big = CohortSpec(num_identities=5, n_windows=20, seed=21)
        small = CohortSpec(num_identities=3, n_windows=20, seed=21)
        _, motion_a, _ = generate_cohort(big)
        _, motion_b, _ = generate_cohort(big)
        _, motion_c, _ = generate_cohort(small)
        ident = identity_id(2)
        assert motion_a[ident] == motion_b[ident]
        # identity 2's data must not depend on cohort size
        assert motion_a[ident] == motion_c[ident]

    def test_permutation_stable_across_sessions(self):
        spec = CohortSpec(num_identities=6, n_windows=8, seed=13)
        _, _, t0 = generate_cohort(spec, session=0)
        _, _, t1 = generate_cohort(spec, session=1)
        assert dict(t0.mapping) == dict(t1.mapping)
        assert any(t0.scripts[i] != t1.scripts[i] for i in t0.scripts)

    def test_intensity_stable_across_sessions(self):
        spec = CohortSpec(num_identities=3, n_windows=60, seed=17)
        _, motion0, t0 = generate_cohort(spec, session=0)
        _, motion1, t1 = generate_cohort(spec, session=1)
        ident = identity_id(1)
        for truth, motion in ((t0, motion0), (t1, motion1)):
            codes = np.array([int(c) for c in truth.scripts[ident]])
            mags = motion[ident].motion_magnitudes.values
            sel = codes == int(ActivityLabel.WALKING)
            if sel.any():
                base = DEFAULT_MAGNITUDE_BASE[ActivityLabel.WALKING]
                implied = mags[sel][0] / base
                # same identity, same trait, either session
                lo, hi = spec.intensity_range
                assert lo <= implied <= hi

    def test_shared_script(self):
        spec = CohortSpec(num_identities=4, n_windows=15, seed=19, shared_script=True)
        _, motion, truth = generate_cohort(spec)
        scripts = list(truth.scripts.values())
        assert all(s == scripts[0] for s in scripts)
        mags = {i: motion[i].motion_magnitudes.values for i in truth.scripts}
        vals = list(mags.values())
        assert any(not np.array_equal(vals[0], v) for v in vals[1:])

    def test_noise_decorrelates_channels(self):
        spec = CohortSpec(
            num_identities=1, n_windows=400, seed=23, magnitude_noise_sd=0.4
        )
        visual, motion, truth = generate_cohort(spec)
        aid = next(iter(truth.mapping))
        m = motion[truth.mapping[aid]].motion_magnitudes.values
        v = visual[aid].magnitude_for("left_wrist").values
        assert not np.array_equal(m, v)
        assert (v >= 0).all()
        # still the same behaviour underneath
        assert np.corrcoef(m, v)[0, 1] > 0.5


class TestGroundTruth:
    def test_bijection(self):
        spec = CohortSpec(num_identities=7, n_windows=5, seed=1)
        perm = avatar_permutation(spec)
        assert sorted(perm.tolist()) == list(range(7))

    def test_round_trip(self, tmp_path):
        spec = CohortSpec(num_identities=3, n_windows=6, seed=4)
        _, _, truth = generate_cohort(spec)
        path = tmp_path / "truth.json"
        truth.save(path)
        loaded = GroundTruth.load(path)
        assert dict(loaded.mapping) == dict(truth.mapping)
        assert dict(loaded.scripts) == dict(truth.scripts)

    # 2**70 is beyond int64, so numpy cannot stack it as an integer
    @pytest.mark.parametrize("code", [1.5, 2.0, True, -1, 8, "1", 2**70])
    def test_label_codes_must_be_integers_in_range(self, code):
        with pytest.raises(DataError, match="no activity label with code"):
            GroundTruth.from_dict({"avatars": {"a0": "u0"}, "scripts": {"u0": [0, code]}})

    def test_scripts_may_differ_in_length(self):
        truth = GroundTruth.from_dict({"avatars": {"a0": "u0"},
                                       "scripts": {"u0": [0, 7], "u1": [4]}})
        assert truth.scripts == {"u0": (ActivityLabel.IDLE, ActivityLabel.OTHER),
                                 "u1": (ActivityLabel.WALKING,)}


class TestSessions:
    def test_session_count_and_shared_mapping(self):
        spec = CohortSpec(num_identities=4, n_windows=10, seed=8)
        sessions, truth = generate_sessions(spec, 3)
        assert len(sessions) == 3
        for visual, motion in sessions:
            assert len(visual) == 4 and len(motion) == 4
            for aid in truth.mapping:
                assert visual[aid] is not None
        with pytest.raises(ConfigError):
            generate_sessions(spec, 0)


class TestPermuteExpand:
    def test_rows_are_permutations_of_base_rows(self):
        base = np.array(
            [[0, 0, 1, 2, 3], [4, 4, 4, 5, 6]], dtype=np.uint8
        )
        out = permute_expand(base, 40, seed=5)
        assert out.shape == (40, 5) and out.dtype == np.uint8
        base_sorted = {tuple(sorted(row)) for row in base}
        for row in out:
            assert tuple(sorted(row)) in base_sorted

    def test_deterministic(self):
        base = np.array([[1, 2, 3, 4]], dtype=np.uint8)
        a = permute_expand(base, 10, seed=2)
        b = permute_expand(base, 10, seed=2)
        np.testing.assert_array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            permute_expand(np.empty((0, 4), dtype=np.uint8), 5)


def motion_mags(trace):
    """Per-window magnitudes of a trace cut into 1 s windows."""
    edges = window_edges(trace, 1.0)
    return motion_features(trace, edges[:-1], edges[1:])[1]


def visual_mags(trace, position):
    """One position's per-window magnitudes (NaN: unobservable), 1 s windows."""
    edges = window_edges(trace, 1.0)
    mags = visual_features(trace, edges[:-1], edges[1:])[1]
    return mags[:, list(SensorPosition).index(position)]


class TestMotionTraceSynthesis:
    def test_magnitude_calibration(self):
        rng = np.random.default_rng(0)
        amp = 3.0
        trace = synthesize_motion_trace(
            [int(ActivityLabel.WALKING)] * 6, [amp] * 6, 1.0, rng
        )
        for got in motion_mags(trace):
            assert got == pytest.approx(amp, rel=0.05)

    def test_magnitude_calibration_all_labels(self):
        rng = np.random.default_rng(1)
        for lab in ActivityLabel:
            trace = synthesize_motion_trace([int(lab)] * 3, [1.5] * 3, 1.0, rng)
            assert np.mean(motion_mags(trace)) == pytest.approx(1.5, rel=0.08)

    def test_magnitude_monotone_in_amplitude(self):
        rng = np.random.default_rng(2)
        amps = [0.5, 1.5, 3.0]
        trace = synthesize_motion_trace(
            [int(ActivityLabel.JUMPING)] * 3, amps, 1.0, rng
        )
        mags = motion_mags(trace)
        assert mags[0] < mags[1] < mags[2]

    def test_start_time_shifts_stamps_only(self):
        rng = np.random.default_rng(3)
        t0 = synthesize_motion_trace([0, 1], [0.5, 0.5], 1.0, rng)
        assert t0.timestamps[0] == 0.0
        t1 = dataclasses.replace(t0, timestamps=t0.timestamps + 2.4)
        assert t1.timestamps[0] == pytest.approx(2.4)
        assert t1.duration == pytest.approx(t0.duration) == pytest.approx(2.0)
        np.testing.assert_allclose(t0.accel, t1.accel)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DataError):
            synthesize_motion_trace([0, 1], [1.0], 1.0, rng)


class TestKeypointTraceSynthesis:
    def test_visual_magnitude_monotone(self):
        rng = np.random.default_rng(5)
        amps = [0.5, 1.5, 3.0]
        trace = synthesize_keypoint_trace(
            [int(ActivityLabel.JUMPING)] * 3, amps, 1.0, rng
        )
        mags = visual_mags(trace, SensorPosition.LEFT_WRIST)
        assert all(m > 0 for m in mags)  # observed: NaN fails the comparison
        assert mags[0] < mags[1] < mags[2]

    def test_magnitude_proportional_to_amplitude_for_every_label(self):
        # the proxy keypoints are compensated per activity, so extracted
        # magnitude over amplitude must come out as one shared constant
        rng = np.random.default_rng(12)
        script = [int(l) for l in ActivityLabel] * 4
        amps = rng.uniform(0.5, 3.0, size=len(script))
        trace = synthesize_keypoint_trace(script, amps, 1.0, rng)
        for pos in (SensorPosition.LEFT_WRIST, SensorPosition.RIGHT_BACK_POCKET):
            mags = visual_mags(trace, pos)
            ratios = mags / amps
            assert np.allclose(ratios, ratios.mean(), rtol=0.05)

    def test_observability_drops_whole_windows(self):
        rng = np.random.default_rng(6)
        trace = synthesize_keypoint_trace(
            [int(ActivityLabel.WALKING)] * 50,
            [2.0] * 50,
            1.0,
            rng,
            keypoint_observability={"left_wrist": 0.4},
        )
        edges = window_edges(trace, 1.0)
        missing = 0
        for lo, hi in zip(edges[:-1], edges[1:]):
            xy = trace.points["left_wrist"][lo:hi]
            nan = np.isnan(xy).any(axis=1)
            assert nan.all() or not nan.any()  # all-or-nothing per window
            missing += int(nan.all())
        assert 15 <= missing <= 45


@pytest.mark.parametrize("synthesize", [synthesize_motion_trace, synthesize_keypoint_trace])
@pytest.mark.parametrize("w", [0.15, 0.25, 0.75, 0.9, 1.0, 1.5])
def test_synthesized_trace_has_one_window_per_script_entry(synthesize, w):
    # 0.75 s rounds to 22 frames of 0.0341 s, not 1/30 s: the trace covers
    # its samples' own steps, so it still holds every scripted window
    trace = synthesize([0, 3, 5, 7, 2], [1.0] * 5, w, np.random.default_rng(8))
    assert trace.duration == pytest.approx(5 * w)
    assert window_edges(trace, w).size == 6


class TestClassifiers:
    @pytest.mark.parametrize("w", [0.15, 0.75])
    def test_visual_classifier_fits_at_a_width_off_the_frame_grid(self, w):
        model = train_classifier(Channel.VISUAL, w, seed=0, reps=10)
        assert model.channel is Channel.VISUAL

    def test_motion_classifier_recovers_script(self):
        model = train_classifier(Channel.MOTION, 1.0, seed=0, reps=40)
        rng = np.random.default_rng(30)
        script = rng.integers(0, 8, size=40)
        amps = np.array(
            [DEFAULT_MAGNITUDE_BASE[ActivityLabel(int(c))] for c in script]
        ) * 1.2
        trace = synthesize_motion_trace(script, amps, 1.0, rng)
        series = build_series(trace, 1.0, model, "m")
        got = series.codes
        assert (got == script).mean() >= 0.9

    def test_visual_classifier_recovers_script(self):
        model = train_classifier(Channel.VISUAL, 1.0, seed=0, reps=40)
        rng = np.random.default_rng(31)
        script = rng.integers(0, 8, size=40)
        amps = np.array(
            [DEFAULT_MAGNITUDE_BASE[ActivityLabel(int(c))] for c in script]
        ) * 1.2
        trace = synthesize_keypoint_trace(script, amps, 1.0, rng)
        series = build_series(trace, 1.0, model, "v")
        got = series.codes
        assert (got == script).mean() >= 0.8


class TestTraceCohort:
    def test_end_to_end_series_agree_with_scripts(self):
        spec = CohortSpec(num_identities=3, n_windows=12, seed=42)
        cohort = synthesize_trace_cohort(spec)
        m_model = train_classifier(Channel.MOTION, 1.0, seed=0, reps=40)
        v_model = train_classifier(Channel.VISUAL, 1.0, seed=0, reps=40)
        for ident, trace in cohort.motion_traces.items():
            series = build_series(trace, 1.0, m_model, ident)
            script = np.array([int(c) for c in cohort.truth.scripts[ident]])
            got = series.codes
            assert (got == script).mean() >= 0.8
            np.testing.assert_allclose(
                series.motion_magnitudes.values,
                cohort.amplitudes[ident],
                rtol=0.12,
            )
        for aid, trace in cohort.keypoint_traces.items():
            series = build_series(trace, 1.0, v_model, aid)
            ident = cohort.truth.mapping[aid]
            script = np.array([int(c) for c in cohort.truth.scripts[ident]])
            got = series.codes
            assert (got == script).mean() >= 0.7
            # visual magnitudes track the shared amplitudes up to one
            # constant, so rank correlation against the motion side is clean
            wrist = np.array(
                series.magnitude_for(SensorPosition.LEFT_WRIST).values
            )
            ratios = wrist / cohort.amplitudes[ident]
            assert np.allclose(ratios, ratios.mean(), rtol=0.1)


class TestSpecSerialization:
    def test_round_trip(self, tmp_path):
        spec = CohortSpec(
            num_identities=3,
            n_windows=9,
            window_seconds=0.5,
            seed=6,
            magnitude_noise_sd=0.2,
            visual_confusion=spread_confusion(0.8),
            position_observability={SensorPosition.LEFT_WRIST: 0.7},
        )
        payload = {
            "num_identities": 3,
            "n_windows": 9,
            "window_seconds": 0.5,
            "seed": 6,
            "magnitude_noise_sd": 0.2,
            "visual_confusion": spec.visual_confusion.rows.tolist(),
            "position_observability": {"left_wrist": 0.7},
            "magnitude_base": {lab.token: v for lab, v in DEFAULT_MAGNITUDE_BASE.items()},
            "intensity_range": [0.8, 1.6],
            "shared_script": False,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        loaded = load_cohort_spec(path)
        v0, m0, _ = generate_cohort(spec)
        v1, m1, _ = generate_cohort(loaded)
        assert tuple(v0) == tuple(v1)
        assert tuple(m0) == tuple(m1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cohort_spec_from_dict({"num_identities": 2, "n_windows": 3, "bogus": 1})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            cohort_spec_from_dict({"num_identities": 2})

    def test_bad_confusion_payload(self):
        with pytest.raises(ConfigError):
            cohort_spec_from_dict(
                {"num_identities": 2, "n_windows": 3, "visual_confusion": [[1.0]]}
            )

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_cohort_spec(path)

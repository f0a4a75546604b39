"""Trace synthesis against its scalar oracle, and pinned synthesized outputs.

`synth.synthesize_motion_trace` and `synth.synthesize_keypoint_trace` build
a whole trace as block arithmetic; `window_oracle` keeps the per-window loops
they replaced.  The two must agree bit for bit, draw the same number of
random values, and fail the same way.  The digests below were computed with
the per-window loops, so they pin the classifier training, a trace cohort
and the `generate --traces` / `build-series` files to those outputs.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionlink.cli import main
from motionlink.errors import InvalidLabelCode
from motionlink.model import Channel, SensorPosition
from motionlink.pipeline import KEYPOINT_NAMES
from motionlink.synth import (
    CohortSpec,
    synthesize_keypoint_trace,
    synthesize_motion_trace,
    synthesize_trace_cohort,
    train_classifier,
)

import window_oracle

WINDOW_SECONDS = (0.5, 0.9, 1.0, 1.5, 2.0)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the oracle comparison is on the exception type
        return None, type(exc)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@st.composite
def scripts(draw):
    n = draw(st.integers(0, 80))
    codes = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    amps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=n, max_size=n))
    return codes, amps


common = dict(
    case=scripts(),
    w=st.sampled_from(WINDOW_SECONDS),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None)
@given(**common)
def test_motion_synthesis_equals_scalar_oracle(case, w, seed):
    codes, amps = case
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_exc = _outcome(synthesize_motion_trace, codes, amps, w, rngs[0])
    want, want_exc = _outcome(window_oracle.synthesize_motion_trace, codes, amps, w, rngs[1])
    assert got_exc is want_exc
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    if want is None:
        return
    for name in ("timestamps", "accel", "gyro"):
        assert _same_array(getattr(got, name), getattr(want, name)), name
    assert got.duration == want.duration


@settings(max_examples=200, deadline=None)
@given(obs=st.lists(st.sampled_from((0.0, 0.5, 0.9, 1.0)), min_size=len(KEYPOINT_NAMES),
                    max_size=len(KEYPOINT_NAMES)),
       **common)
def test_keypoint_synthesis_equals_scalar_oracle(case, w, seed, obs):
    codes, amps = case
    observability = dict(zip(KEYPOINT_NAMES, obs))
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_exc = _outcome(synthesize_keypoint_trace, codes, amps, w, rngs[0],
                            keypoint_observability=observability)
    want, want_exc = _outcome(window_oracle.synthesize_keypoint_trace, codes, amps, w, rngs[1],
                              keypoint_observability=observability)
    assert got_exc is want_exc
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    if want is None:
        return
    assert _same_array(got.timestamps, want.timestamps)
    assert list(got.points) == list(want.points)
    for name in KEYPOINT_NAMES:
        assert _same_array(got.points[name], want.points[name]), name
    assert got.duration == want.duration


@pytest.mark.parametrize("synthesize", [synthesize_motion_trace, synthesize_keypoint_trace])
@pytest.mark.parametrize("code", [8, -1])
def test_bad_label_code_is_rejected_before_any_draw(synthesize, code):
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(InvalidLabelCode):
        synthesize([0, 3, code, 1], [1.0, 1.0, 1.0, 1.0], 1.0, rng)
    assert rng.bit_generator.state == before


# --- outputs pinned to the per-window synthesizers ---------------------------


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


PINNED_CLASSIFIERS = {
    (Channel.MOTION, 0): "44dc87c79fe5a485173689c35a42a991bb2f92c80aba655ea6b302d1d41de5e7",
    (Channel.MOTION, 1): "72affc4b44a3c5b362e53bed598688eef500c5700ae22c062def404e0ca3d568",
    (Channel.VISUAL, 0): "9816401b6f5d0d30d38220f2806771e13350057fba362a0fb241b79656d20ada",
    (Channel.VISUAL, 1): "0d3a1bb55f1cb8188e5ef589bd0b67f4d1b30e36b11ec52da0c5c871e6752999",
}


@pytest.mark.parametrize("channel, seed", list(PINNED_CLASSIFIERS))
def test_trained_classifier_is_pinned(channel, seed):
    model = train_classifier(channel, 1.0, seed=seed)
    digest = _digest((model.feature_mean, model.feature_std, model.centroids))
    assert digest == PINNED_CLASSIFIERS[channel, seed]


PINNED_TRACE_COHORT = {
    "motion": "60876adcff612e894b0ba706c2bf420d904014aeebaf84deff8ec65f354276e2",
    "keypoints": "1698332f079cb0acfb950dbaf4eacaa78f06d2761c35fe1edfc15e492106593d",
    "truth": "e8cb80d4c00c743398660332f53973fe074ac8801ce7c0f996793031c2023896",
}


def test_trace_cohort_arrays_are_pinned():
    spec = CohortSpec(num_identities=20, n_windows=40, seed=3, magnitude_noise_sd=0.2,
                      position_observability={SensorPosition.LEFT_WRIST: 0.7,
                                              SensorPosition.RIGHT_FRONT_POCKET: 0.5})
    cohort = synthesize_trace_cohort(spec)
    motion = [arr for ident in sorted(cohort.motion_traces)
              for arr in (cohort.motion_traces[ident].timestamps,
                          cohort.motion_traces[ident].accel,
                          cohort.motion_traces[ident].gyro,
                          cohort.amplitudes[ident])]
    keypoints = [arr for aid in sorted(cohort.keypoint_traces)
                 for arr in (cohort.keypoint_traces[aid].timestamps,
                             *(cohort.keypoint_traces[aid].points[name]
                               for name in KEYPOINT_NAMES))]
    truth = json.dumps(cohort.truth.to_dict(), sort_keys=True).encode()
    digests = {"motion": _digest(motion), "keypoints": _digest(keypoints),
               "truth": hashlib.sha256(truth).hexdigest()}
    assert digests == PINNED_TRACE_COHORT


PINNED_TRACE_FILES = {
    "motion/u0001.csv": "05d168a881f36e2decc5ff48bea7ef3ce22bdf37a5cdd7d5117e8e8651716f22",
    "keypoints/a0002.jsonl": "c6f1566e0fd77b31dd643faa2c15183e669a814591150ee9de0e621953cba9ae",
    "truth.json": "ffb12f1792ad1ddc3db0f45a9c2ca5aa01c885404fa557b9570f9d0f475999f4",
    "motion_series.jsonl": "cea6d12d303cb226cca020609923708089e5dbb784b644d4fc3d3d6adafc41ec",
    "visual_series.jsonl": "1f459ffabcc243751aabdb0518b1f394824d14de75590d776b8f0568bcdb67e5",
}


def test_generated_trace_files_and_series_are_pinned(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_identities": 3, "n_windows": 12, "seed": 8,
                                "magnitude_noise_sd": 0.1,
                                "position_observability": {"left_wrist": 0.5,
                                                           "right_front_pocket": 0.7}}))
    out = tmp_path / "d"
    assert main(["generate", "--spec", str(spec), "--out-dir", str(out), "--traces"]) == 0
    for channel, trace in (("motion", "motion/u0001.csv"), ("visual", "keypoints/a0002.jsonl")):
        assert main(["build-series", "--trace", str(out / trace), "--channel", channel,
                     "--out", str(out / f"{channel}_series.jsonl")]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED_TRACE_FILES}
    assert digests == PINNED_TRACE_FILES

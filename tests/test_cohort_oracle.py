"""Cohort generation against the per-identity implementation it replaced,
and the vectorized seed hash against numpy's SeedSequence.

`cohort_oracle` builds a SeedSequence for every stream and post-processes
each identity on its own.  `synth` hashes the seeds of all of a salt's
streams at once and runs everything after the draws over the whole cohort;
both must give the same datasets (codes and magnitudes byte for byte, NaN
included), the same ids and the same ground truth, for any spec, session
and seed, including seeds that span several 32-bit entropy words.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohort_oracle
from motionlink.model import ActivityLabel, Channel, SensorPosition
from motionlink.pipeline import KEYPOINT_NAMES, ConfusionMatrix
from motionlink.synth import (
    CohortSpec,
    _seed_words,
    _stream,
    generate_cohort,
    synthesize_trace_cohort,
    train_classifier,
)

SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**80), st.sampled_from((0, 2**32 - 1, 2**32, 2**64 + 1)))


@st.composite
def confusions(draw):
    if draw(st.booleans()):
        return None
    diagonal = draw(st.floats(0.0, 1.0))
    rows = np.full((8, 8), (1.0 - diagonal) / 7)
    np.fill_diagonal(rows, diagonal)
    return ConfusionMatrix(rows)


@st.composite
def priors(draw):
    """None (the default prior) or one with zero-probability labels."""
    weights = draw(st.one_of(st.none(), st.lists(st.integers(0, 4), min_size=8, max_size=8)
                             .filter(any)))
    if weights is None:
        return None
    return {label: w / sum(weights) for label, w in zip(ActivityLabel, weights)}


@st.composite
def specs(draw):
    observability = draw(st.sampled_from(("none", "zero", "partial", "one")))
    if observability == "none":
        obs = None
    else:
        value = {"zero": st.just(0.0), "partial": st.floats(0.0, 1.0), "one": st.just(1.0)}
        obs = {pos: draw(value[observability])
               for pos in draw(st.sets(st.sampled_from(list(SensorPosition)), min_size=1))}
    return CohortSpec(
        num_identities=draw(st.integers(1, 9)),
        n_windows=draw(st.integers(1, 25)),
        activity_prior=draw(priors()),
        motion_confusion=draw(confusions()),
        visual_confusion=draw(confusions()),
        magnitude_noise_sd=draw(st.sampled_from((0.0, 0.05, 0.15, 2.0))),
        position_observability=obs,
        shared_script=draw(st.booleans()),
        seed=draw(SEEDS),
    )


def _same_dataset(got, want):
    assert got.ids == want.ids
    assert got.window_seconds == want.window_seconds
    for name in ("codes", "mags"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(spec=specs(), session=st.integers(0, 3))
def test_generate_cohort_equals_per_identity_oracle(spec, session):
    visual, motion, truth = generate_cohort(spec, session)
    o_visual, o_motion, o_truth = cohort_oracle.generate_cohort(spec, session)
    _same_dataset(visual, o_visual)
    _same_dataset(motion, o_motion)
    assert truth.to_dict() == o_truth.to_dict()


@settings(max_examples=12, deadline=None)
@given(spec=specs().map(lambda s: CohortSpec(
    num_identities=min(s.num_identities, 3), n_windows=min(s.n_windows, 6),
    magnitude_noise_sd=s.magnitude_noise_sd, position_observability=s.position_observability,
    shared_script=s.shared_script, seed=s.seed)), session=st.integers(0, 3))
def test_trace_cohort_equals_per_identity_oracle(spec, session):
    got = synthesize_trace_cohort(spec, session)
    want = cohort_oracle.synthesize_trace_cohort(spec, session)
    assert got.truth.to_dict() == want.truth.to_dict()
    assert list(got.amplitudes) == list(want.amplitudes)
    for ident, amps in want.amplitudes.items():
        assert got.amplitudes[ident].tobytes() == amps.tobytes()
    assert list(got.motion_traces) == list(want.motion_traces)
    for ident, trace in want.motion_traces.items():
        for name in ("timestamps", "accel", "gyro"):
            assert getattr(got.motion_traces[ident], name).tobytes() == \
                getattr(trace, name).tobytes()
    assert list(got.keypoint_traces) == list(want.keypoint_traces)
    for aid, trace in want.keypoint_traces.items():
        assert got.keypoint_traces[aid].timestamps.tobytes() == trace.timestamps.tobytes()
        for name in KEYPOINT_NAMES:
            assert got.keypoint_traces[aid].points[name].tobytes() == \
                trace.points[name].tobytes()


@pytest.mark.parametrize("channel", list(Channel))
@pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**64 + 1])
def test_train_classifier_equals_per_identity_oracle(channel, seed):
    got = train_classifier(channel, 1.0, seed=seed, reps=6)
    want = cohort_oracle.train_classifier(channel, 1.0, seed=seed, reps=6)
    for name in ("feature_mean", "feature_std", "centroids"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# --- the seed hash --------------------------------------------------------

ENTROPY = (0, 1, 2**32 - 1, 2**32, 2**64 + 1)


def _reference(seed, salt, index, session):
    return np.random.SeedSequence((seed, salt, index, session))


@pytest.mark.parametrize("seed", ENTROPY)
@pytest.mark.parametrize("session", ENTROPY)
def test_seed_words_equal_seed_sequence(seed, session):
    salts, indices = [1, 11, 2**32 - 1], [0, 1, 5, 2**31, 2**32 - 1]
    want = np.array([[_reference(seed, salt, i, session).generate_state(4, np.uint64)
                      for i in indices] for salt in salts])
    got = _seed_words(seed, np.array(salts)[:, None], np.array(indices), session)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for salt, row in zip(salts, want):
        assert np.array_equal(_seed_words(seed, salt, np.array(indices), session), row)
        assert np.array_equal(_seed_words(seed, salt, indices[-1], session), row[-1])


@pytest.mark.parametrize("seed", ENTROPY)
def test_stream_starts_where_default_rng_does(seed):
    indices = [0, 3, 2**32 - 1]
    for index, words in zip(indices, _seed_words(seed, 4, np.array(indices), 2)):
        got, want = _stream(words), np.random.default_rng(_reference(seed, 4, index, 2))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(3).tobytes() == want.random(3).tobytes()
        assert got.integers(0, 2**63, 3).tolist() == want.integers(0, 2**63, 3).tolist()


def test_no_indices_gives_no_words():
    assert _seed_words(1, 2, np.arange(0), 0).shape == (0, 4)


@pytest.mark.parametrize("index", [np.array([0, -1]), np.array([0, 2**32]), np.array([0.0])])
def test_array_entropy_outside_one_word_is_refused(index):
    with pytest.raises((TypeError, ValueError)):
        _seed_words(0, 1, index, 0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_entropy_raises_what_seed_sequence_raises(seed):
    with pytest.raises(Exception) as want:
        _reference(seed, 1, 0, 0)
    with pytest.raises(want.type):
        _seed_words(seed, 1, 0, 0)

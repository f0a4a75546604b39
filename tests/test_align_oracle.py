"""The offset search against the implementation it replaced.

`align_oracle` holds the per-pair loop and the rebuild that featurizes
every window of every offset.  On small synthesized cohorts with random
clock lags, regular or irregular sampling and grids whose step does or does
not divide the window, both must give the same rebuilds (arrays bit for
bit), the same rankings (rho compared with ==), the same chosen offsets,
the same alignment results and the same exceptions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import align_oracle
import window_oracle
import motionlink.align
from motionlink.align import AlignConfig, _rebuild, align_offset_search, correlate_with_alignment
from motionlink.engine import FilterConfig
from motionlink.errors import MotionLinkError
from motionlink.evalbench import DEFAULT_RESTRICTED_SET
from motionlink.model import Channel, VisualDataset
from motionlink.pipeline import GRAVITY, MotionTrace
from motionlink.synth import (
    DEFAULT_MAGNITUDE_BASE,
    CohortSpec,
    synthesize_trace_cohort,
    train_classifier,
)

BASE = np.array([DEFAULT_MAGNITUDE_BASE[label] for label in sorted(DEFAULT_MAGNITUDE_BASE)])

# A trace 1.5e-9 s shorter than one window.  The wide grid rebuilds no
# window of it; the narrow grid's step sits 0.75e-9 s under one window, so
# its negative offset rebuilds one window at grid index -1, left of every
# avatar, and the other two offsets none.
STUB = MotionTrace(np.arange(50) * ((1 - 1.5e-9) / 50), np.tile([0.0, 0.0, GRAVITY], (50, 1)),
                   np.zeros((50, 3)))
GRIDS = (AlignConfig(delta_max=2.0, step=0.5), AlignConfig(delta_max=1.0, step=1 - 0.75e-9))
# steps that do not divide the window, and one below a sample interval
ODD_GRIDS = (AlignConfig(delta_max=1.5, step=0.3), AlignConfig(delta_max=1.5, step=0.75),
             AlignConfig(delta_max=0.1, step=0.0125))


@pytest.fixture(scope="module")
def model():
    return train_classifier(Channel.MOTION, 1.0, seed=0, reps=40)


def test_stub_trace_rebuilds_as_documented(model):
    assert _rebuild(STUB, GRIDS[0].offsets(), 1.0, model, 0.0) == {}
    rebuilt = _rebuild(STUB, GRIDS[1].offsets(), 1.0, model, 0.0)
    assert list(rebuilt) == [-GRIDS[1].step]
    codes, _, first = rebuilt[-GRIDS[1].step]
    assert (codes.size, first) == (1, -1)


def late_start(trace: MotionTrace, lag: float) -> MotionTrace:
    i0 = int(np.searchsorted(trace.timestamps, lag - 1e-9, side="left"))
    return MotionTrace(trace.timestamps[i0:], trace.accel[i0:], trace.gyro[i0:])


def irregular(trace: MotionTrace, rng: np.random.Generator, drop: float) -> MotionTrace:
    """The trace with each sample time jittered by up to 0.4 of the sample
    interval and a share `drop` of its samples, never the first, dropped:
    its windows differ in sample count."""
    ts = trace.timestamps
    ts = ts + rng.uniform(-0.4, 0.4, size=ts.size) * (ts[1] - ts[0])
    keep = rng.random(ts.size) >= drop
    keep[0] = True
    return MotionTrace(ts[keep], trace.accel[keep], trace.gyro[keep])


@st.composite
def motion_traces(draw, rng: np.random.Generator, script, amps) -> MotionTrace:
    """A trace acting out `script`, sampled at 50 Hz or at 64 Hz, then
    made irregular or not and started late by a random lag.  At 64 Hz every
    sample time is exact in binary, as are the grid edges of the dyadic
    steps and origins, so shifted samples fall exactly on grid edges."""
    rate = draw(st.sampled_from([50.0, 64.0]))
    trace = window_oracle.synthesize_motion_trace(script, amps, 1.0, rng, sample_rate=rate)
    drop = draw(st.sampled_from([None, 0.1, 0.4]))
    if drop is not None:
        trace = irregular(trace, rng, drop)
    return late_start(trace, draw(st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5, 2.0])))


@st.composite
def cohorts(draw):
    """(traces, visual): q identities whose recordings start late by a
    random lag, and p avatars acting out their scripts with label flips,
    unobservable windows and tied or constant magnitudes; optionally one
    stub trace among the identities."""
    p, q, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(8, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    traces, scripts = {}, []
    for i in rng.permutation(q):  # insertion order is not name order
        script = rng.integers(0, 8, size=n + 3)
        amps = BASE[script] * rng.uniform(0.8, 1.5, size=script.size)
        traces[f"u{i}"] = draw(motion_traces(rng, script, amps))
        scripts.append((script[:n], amps[:n]))
    if draw(st.booleans()):
        items = list(traces.items())
        items.insert(draw(st.integers(0, q)), ("stub", STUB))
        traces = dict(items)
    truth = rng.integers(0, q, size=p)
    codes = np.stack([scripts[t][0] for t in truth])
    flips = rng.random(codes.shape) < draw(st.sampled_from([0.0, 0.2]))
    codes = np.where(flips, rng.integers(0, 8, size=codes.shape), codes)
    mags = np.stack([np.tile(scripts[t][1], (6, 1)) for t in truth])
    mags *= rng.uniform(0.9, 1.1, size=mags.shape)
    if draw(st.booleans()):
        mags = mags.round()  # tied magnitudes
    if draw(st.booleans()):
        mags[0] = 1.0  # zero rank variance: rho is undefined at every position
    mags[rng.random(mags.shape) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = np.nan
    return traces, VisualDataset.from_arrays([f"a{i}" for i in range(p)], codes, mags, 1.0)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except MotionLinkError as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(cohort=cohorts(), t_norm=st.sampled_from([0.0, 0.4, 1.0]), restricted=st.booleans(),
       grid=st.sampled_from(GRIDS + ODD_GRIDS),
       fraction=st.sampled_from([0.0, 0.5, 0.9]))
def test_offset_search_equals_per_pair_loop(model, cohort, t_norm, restricted, grid, fraction):
    traces, visual = cohort
    labels = DEFAULT_RESTRICTED_SET if restricted else None
    align = AlignConfig(grid.delta_max, grid.step)
    args = traces, visual, model, FilterConfig(t_norm, labels), align
    got = outcome(correlate_with_alignment, *args, min_observed_fraction=fraction)
    want = outcome(align_oracle.correlate_with_alignment, *args, min_observed_fraction=fraction)
    assert got == want
    for trace in traces.values():
        args = trace, visual[0], model, align
        assert (outcome(align_offset_search, *args, restricted=labels)
                == outcome(align_oracle.align_offset_search, *args, restricted=labels))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data(),
       grid=st.sampled_from(GRIDS + ODD_GRIDS), origin=st.sampled_from([None, 0.0, 0.25]))
def test_rebuild_is_per_offset_and_equals_oracle(model, seed, data, grid, origin):
    """Rebuilding all offsets at once gives each offset what rebuilding it
    alone gives, and what the oracle gives, array for array, bit for bit."""
    rng = np.random.default_rng(seed)
    script = rng.integers(0, 8, size=6)
    trace = data.draw(motion_traces(rng, script, BASE[script]))
    origin = float(trace.timestamps[0]) if origin is None else origin
    offsets = grid.offsets()
    got = _rebuild(trace, offsets, 1.0, model, origin)
    alone = {o: r[o] for o in offsets for r in [_rebuild(trace, (o,), 1.0, model, origin)] if r}
    want = align_oracle._rebuild(trace, offsets, 1.0, model, origin)
    for other in (alone, want):
        assert list(got) == list(other)
        for (codes, mags, first), (codes2, mags2, first2) in zip(got.values(), other.values()):
            assert first == first2
            assert codes.dtype == codes2.dtype and codes.tobytes() == codes2.tobytes()
            assert mags.dtype == mags2.dtype and mags.tobytes() == mags2.tobytes()


def test_rebuild_featurizes_each_distinct_window_once(model, monkeypatch):
    """On a 40-window cohort trace that starts 2 s late, the ±2 s grid in
    0.5 s steps cuts 338 windows over its 9 offsets, 75 of them distinct:
    the rebuild featurizes those 75 only."""
    trace = synthesize_trace_cohort(CohortSpec(num_identities=10, n_windows=40, seed=1))
    trace = late_start(next(iter(trace.motion_traces.values())), 2.0)
    offsets, origin = AlignConfig(2.0, 0.5).offsets(), float(trace.timestamps[0])

    def recorded(module):
        calls, features = [], module.motion_features
        monkeypatch.setattr(module, "motion_features",
                            lambda t, lo, hi: (calls.append((lo, hi)), features(t, lo, hi))[1])
        return calls

    oracle_calls, calls = recorded(align_oracle), recorded(motionlink.align)
    align_oracle._rebuild(trace, offsets, 1.0, model, origin)
    _rebuild(trace, offsets, 1.0, model, origin)
    (lo, hi), = oracle_calls
    distinct = set(zip(lo.tolist(), hi.tolist()))
    assert (lo.size, len(distinct)) == (338, 75)
    (lo, hi), = calls
    assert lo.size == len(distinct)
    assert set(zip(lo.tolist(), hi.tolist())) == distinct

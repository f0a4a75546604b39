"""The offset search on pair arrays against the per-pair loop it replaced.

`align_oracle` holds the loop implementation; on small synthesized cohorts
with random clock lags, both must give the same rankings (rho compared with
==), the same chosen offsets, the same alignment results and the same
exceptions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import align_oracle
from motionlink.align import AlignConfig, _rebuild, align_offset_search, correlate_with_alignment
from motionlink.engine import FilterConfig
from motionlink.errors import MotionLinkError
from motionlink.evalbench import DEFAULT_RESTRICTED_SET
from motionlink.model import Channel, VisualDataset
from motionlink.pipeline import GRAVITY, MotionTrace
from motionlink.synth import DEFAULT_MAGNITUDE_BASE, synthesize_motion_trace, train_classifier

BASE = np.array([DEFAULT_MAGNITUDE_BASE[label] for label in sorted(DEFAULT_MAGNITUDE_BASE)])

# A trace 1.5e-9 s shorter than one window.  The wide grid rebuilds no
# window of it; the narrow grid's step sits 0.75e-9 s under one window, so
# its negative offset rebuilds one window at grid index -1, left of every
# avatar, and the other two offsets none.
STUB = MotionTrace(np.arange(50) * 0.02, np.tile([0.0, 0.0, GRAVITY], (50, 1)),
                   np.zeros((50, 3)), nominal_interval=0.02 - 1.5e-9)
GRIDS = (AlignConfig(delta_max=2.0, step=0.5), AlignConfig(delta_max=1.0, step=1 - 0.75e-9))


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


@st.composite
def cohorts(draw):
    """(traces, visual): q identities whose recordings start late by a
    random lag, and p avatars acting out their scripts with label flips,
    unobservable windows and tied or constant magnitudes; optionally one
    stub trace among the identities."""
    p, q, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(8, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lags = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5, 2.0]),
                         min_size=q, max_size=q))
    traces, scripts = {}, []
    for i, lag in zip(rng.permutation(q), lags):  # insertion order is not name order
        script = rng.integers(0, 8, size=n + 3)
        amps = BASE[script] * rng.uniform(0.8, 1.5, size=script.size)
        traces[f"u{i}"] = late_start(synthesize_motion_trace(script, amps, 1.0, rng), lag)
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
       share=st.booleans(), grid=st.sampled_from(GRIDS),
       fraction=st.sampled_from([0.0, 0.5, 0.9]))
def test_offset_search_equals_per_pair_loop(model, cohort, t_norm, restricted, share, grid,
                                            fraction):
    traces, visual = cohort
    labels = DEFAULT_RESTRICTED_SET if restricted else None
    align = AlignConfig(grid.delta_max, grid.step, share_offset=share)
    args = traces, visual, model, FilterConfig(t_norm, labels), align
    got = outcome(correlate_with_alignment, *args, min_observed_fraction=fraction)
    want = outcome(align_oracle.correlate_with_alignment, *args, min_observed_fraction=fraction)
    assert got == want
    for trace in traces.values():
        args = trace, visual[0], model, align
        assert (outcome(align_offset_search, *args, restricted=labels)
                == outcome(align_oracle.align_offset_search, *args, restricted=labels))

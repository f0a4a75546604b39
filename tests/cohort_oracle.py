"""Cohort generation as it ran before `synth` seeded its streams in one
vectorized pass.

Every random stream here is built from its own `np.random.SeedSequence`,
identity by identity, and each identity's draws are post-processed on their
own.  `generate_cohort`, `synthesize_trace_cohort` and `train_classifier`
are the per-identity versions `synth` replaced; the trace synthesizers and
the confusion channel they call are the scalar references, so nothing here
runs the code it is compared with.  Tests compare the `motionlink.synth`
functions against them byte for byte.
"""

from __future__ import annotations

import numpy as np

from motionlink.errors import InvalidLabelCode
from motionlink.model import ActivityLabel, Channel, MotionDataset, SensorPosition, VisualDataset
from motionlink.pipeline import ClassifierModel, ConfusionMatrix, fit_classifier, window_features
from motionlink.synth import (
    _KEYPOINT_GATE,
    DEFAULT_MAGNITUDE_BASE,
    CohortSpec,
    GroundTruth,
    TraceCohort,
    avatar_id,
    identity_id,
)

import window_oracle

_SALT_SCRIPT = 1
_SALT_INTENSITY = 2
_SALT_REALIZE = 3
_SALT_CONF_MOTION = 4
_SALT_CONF_VISUAL = 5
_SALT_MAG_VISUAL = 6
_SALT_OBSERVE = 7
_SALT_PERMUTE = 8
_SALT_TRACE_MOTION = 9
_SALT_TRACE_VISUAL = 10
_SALT_TRAIN = 11

_POSITIONS = tuple(SensorPosition)
_LABELS = tuple(ActivityLabel)


def _rng(seed: int, salt: int, index: int = 0, session: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, salt, index, session)))


def _per_label(table) -> np.ndarray:
    return np.array([table[lab] for lab in ActivityLabel], dtype=np.float64)


def apply_confusion(codes, matrix: ConfusionMatrix, rng: np.random.Generator) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.intp)
    if ((codes < 0) | (codes >= len(ActivityLabel))).any():
        raise InvalidLabelCode("activity codes must lie in 0..7")
    cum = np.cumsum(matrix.rows, axis=1)
    cum[:, -1] = 1.0  # guard against rounding in the last column
    u = rng.random(codes.size)
    return (u[:, None] >= cum[codes]).sum(axis=1).astype(np.uint8)


def _draw_script(spec: CohortSpec, prior: np.ndarray, index: int, session: int) -> np.ndarray:
    src = 0 if spec.shared_script else index
    rng = _rng(spec.seed, _SALT_SCRIPT, src, session)
    return rng.choice(8, size=spec.n_windows, p=prior).astype(np.uint8)


def _intensity(spec: CohortSpec, index: int) -> float:
    # Intensity is a stable trait of the identity: no session salt.
    lo, hi = spec.intensity_range
    return float(_rng(spec.seed, _SALT_INTENSITY, index).uniform(lo, hi))


def _realized_amplitudes(
    spec: CohortSpec, base: np.ndarray, script: np.ndarray, index: int, session: int
) -> np.ndarray:
    amps = base[script] * _intensity(spec, index)
    if spec.magnitude_noise_sd > 0:
        eta = _rng(spec.seed, _SALT_REALIZE, index, session).normal(
            0.0, spec.magnitude_noise_sd, size=script.shape
        )
        amps = amps * np.clip(1.0 + eta, 0.0, None)
    return amps


def avatar_permutation(spec: CohortSpec) -> np.ndarray:
    """Avatar j belongs to identity permutation[j]; stable across sessions."""
    return _rng(spec.seed, _SALT_PERMUTE).permutation(spec.num_identities)


def _confuse(codes: np.ndarray, matrix: ConfusionMatrix | None, seed: int, salt: int,
             index: int, session: int) -> np.ndarray:
    if matrix is None:
        return codes
    return apply_confusion(codes, matrix, _rng(seed, salt, index, session))


def generate_cohort(
    spec: CohortSpec, session: int = 0
) -> tuple[VisualDataset, MotionDataset, GroundTruth]:
    count, n, n_pos = spec.num_identities, spec.n_windows, len(_POSITIONS)
    m_codes = np.empty((count, n), dtype=np.uint8)
    m_mags = np.empty((count, n))
    v_codes = np.empty((count, n), dtype=np.uint8)
    v_mags = np.empty((count, n_pos, n))
    scripts = {}
    obs = spec.observability_vector()
    prior, base = spec.prior_vector(), _per_label(spec.magnitude_base)
    for i in range(count):
        script = _draw_script(spec, prior, i, session)
        scripts[identity_id(i)] = tuple(map(_LABELS.__getitem__, script.tolist()))
        amps = _realized_amplitudes(spec, base, script, i, session)
        m_codes[i] = _confuse(script, spec.motion_confusion, spec.seed, _SALT_CONF_MOTION,
                              i, session)
        m_mags[i] = amps
        v_codes[i] = _confuse(script, spec.visual_confusion, spec.seed, _SALT_CONF_VISUAL,
                              i, session)
        if spec.magnitude_noise_sd > 0:
            eps = _rng(spec.seed, _SALT_MAG_VISUAL, i, session).normal(
                0.0, spec.magnitude_noise_sd, size=(n_pos, n)
            )
            v_mags[i] = amps * np.clip(1.0 + eps, 0.0, None)
        else:
            v_mags[i] = amps
        observed = _rng(spec.seed, _SALT_OBSERVE, i, session).random((n_pos, n)) < obs[:, None]
        v_mags[i][~observed] = np.nan

    perm = avatar_permutation(spec)
    avatars = [avatar_id(j) for j in range(count)]
    truth = GroundTruth(
        mapping={aid: identity_id(int(i)) for aid, i in zip(avatars, perm)}, scripts=scripts
    )
    visual = VisualDataset.from_arrays(avatars, v_codes[perm], v_mags[perm], spec.window_seconds)
    motion = MotionDataset.from_arrays(
        [identity_id(i) for i in range(count)], m_codes, m_mags, spec.window_seconds
    )
    return visual, motion, truth


def synthesize_trace_cohort(spec: CohortSpec, session: int = 0) -> TraceCohort:
    perm = avatar_permutation(spec)
    obs_vec = spec.observability_vector()
    kp_obs = {
        name: float(obs_vec[_POSITIONS.index(gate)])
        for name, gate in _KEYPOINT_GATE.items()
    }
    prior, base = spec.prior_vector(), _per_label(spec.magnitude_base)
    codes = {}
    scripts = {}
    amplitudes = {}
    motion_traces = {}
    keypoint_traces = {}
    for i in range(spec.num_identities):
        ident = identity_id(i)
        script = codes[ident] = _draw_script(spec, prior, i, session)
        scripts[ident] = tuple(map(_LABELS.__getitem__, script.tolist()))
        amps = _realized_amplitudes(spec, base, script, i, session)
        amplitudes[ident] = amps
        motion_traces[ident] = window_oracle.synthesize_motion_trace(
            script,
            amps,
            spec.window_seconds,
            _rng(spec.seed, _SALT_TRACE_MOTION, i, session),
        )
    mapping = {}
    for j in range(spec.num_identities):
        i = int(perm[j])
        aid = avatar_id(j)
        ident = identity_id(i)
        mapping[aid] = ident
        keypoint_traces[aid] = window_oracle.synthesize_keypoint_trace(
            codes[ident],
            amplitudes[ident],
            spec.window_seconds,
            _rng(spec.seed, _SALT_TRACE_VISUAL, i, session),
            keypoint_observability=kp_obs,
        )
    truth = GroundTruth(mapping=mapping, scripts=scripts)
    return TraceCohort(
        motion_traces=motion_traces,
        keypoint_traces=keypoint_traces,
        truth=truth,
        amplitudes=amplitudes,
    )


def train_classifier(
    channel: Channel,
    window_seconds: float = 1.0,
    *,
    seed: int = 0,
    reps: int = 60,
) -> ClassifierModel:
    rng = _rng(seed, _SALT_TRAIN, 0, 0 if channel is Channel.MOTION else 1)
    script = np.repeat(np.arange(8, dtype=np.int64), reps)
    rng.shuffle(script)
    amps = _per_label(DEFAULT_MAGNITUDE_BASE)[script] * rng.uniform(0.5, 1.6, size=script.size)
    synthesize = (window_oracle.synthesize_motion_trace if channel is Channel.MOTION
                  else window_oracle.synthesize_keypoint_trace)
    feats, _ = window_features(synthesize(script, amps, window_seconds, rng), window_seconds)
    return fit_classifier(feats, script, channel)

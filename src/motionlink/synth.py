"""Synthetic cohorts for exercising the linkage pipeline end to end.

Generates matched pairs of recordings for a population of identities: each
identity follows a per-window activity script with a personal intensity level,
and both channels observe the same underlying behaviour through their own
noise.  Two generation modes exist:

* channel mode (`generate_cohort`): emits activity-vector series directly,
  applying per-channel label confusion and magnitude noise.  Fast; used for
  large populations.
* trace mode (`synthesize_trace_cohort`): emits raw inertial traces and
  keypoint traces that must be run through the feature pipeline.  Slower but
  exercises windowing, classification, and magnitude extraction for real.

All randomness is derived from per-purpose seed streams so that any single
identity's data is reproducible regardless of generation order: the stream
of salt s for identity i in session t is PCG64 seeded by
`np.random.SeedSequence((seed, s, i, t))`.  `_seed_words` computes the seed
words of all of a cohort's streams in one vectorized pass of the
SeedSequence hash instead of building a SeedSequence per stream, and the
draws then go salt by salt; the streams, and so every generated output,
are the same as with one SeedSequence each.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, InvalidLabelCode
from .model import (
    ActivityLabel,
    Channel,
    MotionDataset,
    SensorPosition,
    VisualDataset,
    _INTEGERS,
    _json_entries,
    json_value,
    label_codes,
    label_from_token,
    read_json,
    write_json,
)
from .pipeline import (
    GRAVITY,
    KEYPOINT_NAMES,
    ClassifierModel,
    ConfusionMatrix,
    KeypointTrace,
    MotionTrace,
    _confusion_codes,
    fit_classifier,
    window_features,
)

__all__ = [
    "CohortSpec",
    "GroundTruth",
    "DEFAULT_ACTIVITY_PRIOR",
    "DEFAULT_MAGNITUDE_BASE",
    "generate_cohort",
    "generate_sessions",
    "permute_expand",
    "synthesize_motion_trace",
    "synthesize_keypoint_trace",
    "synthesize_trace_cohort",
    "train_classifier",
    "load_cohort_spec",
    "cohort_spec_from_dict",
]

# Typical per-activity movement energy, in the same unit the motion channel
# reports (mean absolute deviation of acceleration norm from gravity, m/s^2).
DEFAULT_MAGNITUDE_BASE: dict[ActivityLabel, float] = {
    ActivityLabel.IDLE: 0.05,
    ActivityLabel.BODY_ROTATION: 1.2,
    ActivityLabel.HEAD_ROTATION: 0.8,
    ActivityLabel.HAND_MOVEMENT: 1.6,
    ActivityLabel.WALKING: 2.4,
    ActivityLabel.BENDING: 2.0,
    ActivityLabel.JUMPING: 3.2,
    ActivityLabel.OTHER: 1.0,
}

DEFAULT_ACTIVITY_PRIOR: dict[ActivityLabel, float] = {
    ActivityLabel.IDLE: 0.30,
    ActivityLabel.BODY_ROTATION: 0.10,
    ActivityLabel.HEAD_ROTATION: 0.10,
    ActivityLabel.HAND_MOVEMENT: 0.15,
    ActivityLabel.WALKING: 0.15,
    ActivityLabel.BENDING: 0.08,
    ActivityLabel.JUMPING: 0.05,
    ActivityLabel.OTHER: 0.07,
}

# Sub-stream salts; every random draw comes from a stream seeded with one of
# these, so identity i's data never depends on how many identities precede it.
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


# numpy's SeedSequence: O'Neill's seed_seq_fe hash over 32-bit words, with a
# pool of four words.  The hash constants advance by a fixed multiplier per
# use, so their sequences are known before any entropy is seen.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_STATE_CONSTS = tuple(accumulate(repeat(0x58F38DED, 2 * _POOL_SIZE),
                                 lambda c, m: c * m & _MASK32, initial=0x8B51F9DD))


def _int_words(value) -> list[int]:
    """SeedSequence's entropy words of a non-negative integer: 32-bit words,
    least significant first; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(seed, salt, index, session) -> np.ndarray:
    """Seed words of the streams (seed, salt, index, session), all hashed
    in one pass.

    Each part is an int, or an integer array whose entries each fit one
    32-bit word; the arrays broadcast together to a shape S.  Returns
    S + (4,) uint64: for each element, the words
    `np.random.SeedSequence((seed, salt, index, session))
    .generate_state(4, np.uint64)` gives, the state PCG64 seeds from.  An
    int part stays a Python int until it meets an array part, so what all
    streams share is hashed once; every step masks to 32 bits, so the same
    expressions serve both kinds.
    """
    entropy = []
    for part in (seed, salt, index, session):
        if isinstance(part, np.ndarray):
            if part.dtype.kind not in "iu":
                raise TypeError(f"seed entropy must be integers, got {part.dtype}")
            if part.size and not 0 <= part.min() <= part.max() <= _MASK32:
                raise ValueError("array seed entropy must lie in [0, 2**32)")
            entropy.append(part.astype(np.uint32))
        else:
            entropy += _int_words(part)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        xor, const = const, const * _MULT_A & _MASK32
        value = (value ^ xor) * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    shape = np.broadcast_shapes(*map(np.shape, entropy))
    state = np.empty((*shape, 2 * _POOL_SIZE), dtype="<u4")
    for k in range(2 * _POOL_SIZE):
        value = (pool[k % _POOL_SIZE] ^ _STATE_CONSTS[k]) * _STATE_CONSTS[k + 1] & _MASK32
        state[..., k] = value ^ value >> 16
    # word pairs read as little-endian uint64, as generate_state does
    return state.view("<u8").astype(np.uint64)


@cache
def _state_words_type() -> type:
    """A seed sequence type that hands a bit generator state words computed
    ahead of time: the four uint64 words PCG64 asks for when seeded.  It is
    made on first use, so importing this module does not import
    numpy.random."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _stream(words: np.ndarray) -> np.random.Generator:
    """The generator `np.random.default_rng` builds from a SeedSequence
    whose state words are `words`, one row of `_seed_words`."""
    return np.random.Generator(np.random.PCG64(_state_words_type()(words)))


def _draw_rows(words: np.ndarray, shape: tuple, draw) -> np.ndarray:
    """(m, *shape) floats: row i is `draw(rng, shape)` from the stream
    seeded by words[i]."""
    out = np.empty((len(words), *shape))
    for i, row in enumerate(words):
        out[i] = draw(_stream(row), shape)
    return out


def _per_label(table: Mapping[ActivityLabel, object]) -> np.ndarray:
    """A per-label table as a float array indexed by label code."""
    return np.array([table[lab] for lab in ActivityLabel], dtype=np.float64)


@dataclass(frozen=True)
class CohortSpec:
    """Parameters of a synthetic population.

    `magnitude_noise_sd` is the standard deviation of the relative noise
    applied when an activity's nominal amplitude is realized per window; the
    realized amplitude is shared by both channels (it is the behaviour), and
    the visual channel adds an independent per-position copy of the same
    noise on top.
    """

    num_identities: int
    n_windows: int
    window_seconds: float = 1.0
    activity_prior: Mapping[ActivityLabel, float] | None = None
    motion_confusion: ConfusionMatrix | None = None
    visual_confusion: ConfusionMatrix | None = None
    magnitude_base: Mapping[ActivityLabel, float] = field(
        default_factory=lambda: dict(DEFAULT_MAGNITUDE_BASE)
    )
    intensity_range: tuple[float, float] = (0.8, 1.6)
    magnitude_noise_sd: float = 0.0
    position_observability: Mapping[SensorPosition, float] | None = None
    seed: int = 0
    shared_script: bool = False

    def __post_init__(self):
        if self.num_identities < 1:
            raise ConfigError("num_identities must be >= 1")
        if self.n_windows < 1:
            raise ConfigError("n_windows must be >= 1")
        if not 0 < self.window_seconds < math.inf:
            raise ConfigError("window_seconds must be positive and finite")
        lo, hi = self.intensity_range
        if not (0 < lo <= hi < math.inf):
            raise ConfigError("intensity_range must satisfy 0 < low <= high < inf")
        if not 0 <= self.magnitude_noise_sd < math.inf:
            raise ConfigError("magnitude_noise_sd must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.activity_prior is not None:
            if not all(0 <= v < math.inf for v in self.activity_prior.values()):
                raise ConfigError("activity_prior entries must be finite and >= 0")
            total = math.fsum(self.activity_prior.get(lab, 0.0) for lab in ActivityLabel)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"activity_prior must sum to 1, got {total!r}")
        for lab in ActivityLabel:
            base = self.magnitude_base.get(lab)
            if base is None or not 0 <= base < math.inf:
                raise ConfigError(f"magnitude_base for {lab.token} must be given, finite, >= 0")
        if self.position_observability is not None:
            for pos, p in self.position_observability.items():
                if not 0.0 <= p <= 1.0:
                    raise ConfigError(f"observability for {pos.value} must be in [0, 1]")

    def prior_vector(self) -> np.ndarray:
        prior = self.activity_prior or DEFAULT_ACTIVITY_PRIOR
        vec = np.array([prior.get(lab, 0.0) for lab in ActivityLabel], dtype=np.float64)
        return vec / vec.sum()

    def observability_vector(self) -> np.ndarray:
        obs = self.position_observability or {}
        return np.array([obs.get(pos, 1.0) for pos in _POSITIONS], dtype=np.float64)


@dataclass(frozen=True)
class GroundTruth:
    """Avatar-to-identity mapping plus the per-identity scripts."""

    mapping: Mapping[str, str]
    scripts: Mapping[str, tuple[ActivityLabel, ...]]

    def to_dict(self) -> dict:
        return {
            "avatars": dict(sorted(self.mapping.items())),
            "scripts": {
                ident: [int(lab) for lab in script]
                for ident, script in sorted(self.scripts.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "GroundTruth":
        try:
            mapping = {k: json_value(v, str, f"identity of {k}")
                       for k, v in payload["avatars"].items()}
            # a boolean among integers would stack as a code
            _json_entries(payload["scripts"].values(), _INTEGERS, "no activity label with code")
            scripts = {}
            for k, v in payload["scripts"].items():
                where, codes = f"script of {k}", np.array(v)
                if codes.size and codes.dtype.kind not in "iu":
                    # an integer beyond int64 stacks as an object or float array
                    bad = next(c for c in v if not 0 <= c < len(_LABELS))
                    raise InvalidLabelCode(f"{where}: no activity label with code {bad}")
                scripts[k] = tuple(map(_LABELS.__getitem__, label_codes(codes, where).tolist()))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DataError(f"malformed ground truth payload: {exc}") from exc
        return cls(mapping=mapping, scripts=scripts)

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "GroundTruth":
        return read_json(path, cls.from_dict, "ground truth")


def identity_id(index: int) -> str:
    return f"u{index:04d}"


def avatar_id(index: int) -> str:
    return f"a{index:04d}"


def _cohort_words(spec: CohortSpec, session: int,
                  salts: tuple[int, ...]) -> dict[int, np.ndarray]:
    """{salt: (count, 4) seed words of every identity's stream}: the
    `salts` at `session`, hashed in one pass, and the intensity, a stable
    trait of the identity drawn without the session, at session 0."""
    index = np.arange(spec.num_identities)
    words = dict(zip(salts, _seed_words(spec.seed, np.array(salts)[:, None], index, session)))
    words[_SALT_INTENSITY] = _seed_words(spec.seed, _SALT_INTENSITY, index, 0)
    return words


def _behaviour(spec: CohortSpec, words: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every identity's activity script, (count, n) uint8 codes, and the
    amplitudes it realizes, (count, n), drawn from the `_cohort_words`.

    A script is what `Generator.choice(8, n, p=prior)` draws: n uniforms
    looked up in the prior's normalized CDF, `side="right"`; one script
    serves everyone with `shared_script`.  The amplitude is the label's
    base times the identity's intensity times the clipped realization
    noise.
    """
    count, n = spec.num_identities, spec.n_windows
    cdf = spec.prior_vector().cumsum()
    cdf /= cdf[-1]
    u = _draw_rows(words[_SALT_SCRIPT][:1 if spec.shared_script else count], (n,),
                   np.random.Generator.random)
    script = np.broadcast_to(cdf.searchsorted(u, side="right").astype(np.uint8), (count, n))
    del u
    lo, hi = spec.intensity_range
    intensity = _draw_rows(words[_SALT_INTENSITY], (), lambda rng, _: rng.uniform(lo, hi))
    amps = _per_label(spec.magnitude_base)[script] * intensity[:, None]
    if spec.magnitude_noise_sd > 0:
        amps *= _noise(spec, words[_SALT_REALIZE], (n,))
    return script, amps


def _noise(spec: CohortSpec, words: np.ndarray, shape: tuple) -> np.ndarray:
    """Per-identity relative noise factors, clip(1 + N(0, sd), 0): (count, *shape)."""
    sd = spec.magnitude_noise_sd
    eps = _draw_rows(words, shape, lambda rng, size: rng.normal(0.0, sd, size=size))
    eps += 1.0
    return np.clip(eps, 0.0, None, out=eps)


def avatar_permutation(spec: CohortSpec) -> np.ndarray:
    """Avatar j belongs to identity permutation[j]; stable across sessions."""
    return _stream(_seed_words(spec.seed, _SALT_PERMUTE, 0, 0)).permutation(spec.num_identities)


def _confuse(script: np.ndarray, matrix: ConfusionMatrix | None, words: np.ndarray) -> np.ndarray:
    """The (count, n) script as one channel labels it through `matrix`."""
    if matrix is None:
        return script
    u = _draw_rows(words, script.shape[1:], np.random.Generator.random)
    return _confusion_codes(script, matrix, u)


def _scripts(script: np.ndarray) -> dict[str, tuple[ActivityLabel, ...]]:
    """The ground-truth scripts of the (count, n) label codes."""
    labels = np.array(_LABELS, dtype=object)[script]
    return {identity_id(i): row for i, row in enumerate(map(tuple, labels.tolist()))}


def generate_cohort(
    spec: CohortSpec, session: int = 0
) -> tuple[VisualDataset, MotionDataset, GroundTruth]:
    """Directly emit paired series for every identity.

    The motion series carries the realized amplitudes exactly; the visual
    series carries six per-position copies with independent relative noise
    (same standard deviation as the realization noise) and per-position
    dropout according to `position_observability`.  Each random quantity
    is drawn for all identities, stream by stream, into one array, and
    everything after the draws runs once over the whole cohort.
    """
    count, n, n_pos = spec.num_identities, spec.n_windows, len(_POSITIONS)
    words = _cohort_words(spec, session, (_SALT_SCRIPT, _SALT_REALIZE, _SALT_CONF_MOTION,
                                          _SALT_CONF_VISUAL, _SALT_MAG_VISUAL, _SALT_OBSERVE))
    script, amps = _behaviour(spec, words)
    m_codes = _confuse(script, spec.motion_confusion, words[_SALT_CONF_MOTION])
    v_codes = _confuse(script, spec.visual_confusion, words[_SALT_CONF_VISUAL])
    if spec.magnitude_noise_sd > 0:
        v_mags = _noise(spec, words[_SALT_MAG_VISUAL], (n_pos, n))
        v_mags *= amps[:, None, :]
    else:
        v_mags = np.repeat(amps[:, None, :], n_pos, axis=1)
    obs = spec.observability_vector()
    if (obs < 1.0).any():  # at full observability every draw (< 1) is observed
        u = _draw_rows(words[_SALT_OBSERVE], (n_pos, n), np.random.Generator.random)
        v_mags[u >= obs[:, None]] = np.nan
        del u

    perm = avatar_permutation(spec)
    avatars = [avatar_id(j) for j in range(count)]
    truth = GroundTruth(
        mapping={aid: identity_id(int(i)) for aid, i in zip(avatars, perm)},
        scripts=_scripts(script),
    )
    visual = VisualDataset.from_arrays(avatars, v_codes[perm], v_mags[perm], spec.window_seconds)
    motion = MotionDataset.from_arrays(
        [identity_id(i) for i in range(count)], m_codes, amps, spec.window_seconds
    )
    return visual, motion, truth


def generate_sessions(
    spec: CohortSpec, n_sessions: int
) -> tuple[list[tuple[VisualDataset, MotionDataset]], GroundTruth]:
    """Independent recording sessions of the same population.

    Identities keep their intensity and the avatar mapping across sessions;
    scripts, noise, and dropout are redrawn per session.
    """
    if n_sessions < 1:
        raise ConfigError("n_sessions must be >= 1")
    out = []
    truth = None
    for s in range(n_sessions):
        visual, motion, t = generate_cohort(spec, session=s)
        out.append((visual, motion))
        if truth is None:
            truth = GroundTruth(mapping=t.mapping, scripts={})
    return out, truth


def permute_expand(
    base_rows: np.ndarray, count: int, seed: int = 0
) -> np.ndarray:
    """Expand a small matrix of label rows into `count` rows by sampling
    rows and permuting each sampled row's entries independently.

    Used to mass-produce distinct sequences with a realistic label mix for
    scaling runs.
    """
    base = label_codes(base_rows, "base rows")
    if base.ndim != 2 or base.shape[0] == 0:
        raise ConfigError("base_rows must be a non-empty 2-D array")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 97)))
    picks = rng.integers(0, base.shape[0], size=count)
    order = np.argsort(rng.random((count, base.shape[1])), axis=1)
    return np.take_along_axis(base[picks], order, axis=1)


# --- trace mode -----------------------------------------------------------

# Per-activity oscillation signature for the inertial synthesizer:
# (accel frequency Hz, x weight, y weight, gyro frequency Hz, gyro weights
# xyz).  The vertical acceleration component is calibrated so the window's
# mean absolute deviation from gravity equals the realized amplitude; x/y
# weights stay small so they perturb the norm little.  Frequencies are
# integers so every window of an integral number of seconds covers whole
# cycles, and the (accel, gyro) frequency pair is unique per activity: the
# dominant-frequency features are the only scale-free ones the classifier
# sees, so they must disambiguate on their own.
_MOTION_SIGNATURES: dict[
    ActivityLabel, tuple[float, float, float, float, tuple[float, float, float]]
] = {
    ActivityLabel.IDLE: (1.0, 0.10, 0.10, 1.0, (0.02, 0.02, 0.02)),
    ActivityLabel.BODY_ROTATION: (1.0, 0.30, 0.30, 4.0, (0.10, 0.10, 1.00)),
    ActivityLabel.HEAD_ROTATION: (3.0, 0.15, 0.15, 3.0, (0.15, 1.00, 0.20)),
    ActivityLabel.HAND_MOVEMENT: (5.0, 0.35, 0.10, 5.0, (0.80, 0.25, 0.15)),
    ActivityLabel.WALKING: (2.0, 0.20, 0.10, 2.0, (0.15, 0.15, 0.30)),
    ActivityLabel.BENDING: (1.0, 0.10, 0.35, 6.0, (1.00, 0.10, 0.10)),
    ActivityLabel.JUMPING: (4.0, 0.10, 0.10, 2.0, (0.05, 0.05, 0.05)),
    ActivityLabel.OTHER: (6.0, 0.25, 0.25, 1.0, (0.40, 0.40, 0.40)),
}

# How strongly each keypoint group moves per activity: (head, wrists, hips,
# ankles).  Wrists and hips sit at 1.0 for every activity on purpose: those
# two groups are the proxies the sensor positions read their magnitude
# sequences from, and a per-activity factor there would scramble magnitude
# ranks between the channels.  Head and ankles carry the group contrast the
# classifier works from instead.
_VISUAL_WEIGHTS: dict[ActivityLabel, tuple[float, float, float, float]] = {
    ActivityLabel.IDLE: (0.10, 1.00, 1.00, 0.05),
    ActivityLabel.BODY_ROTATION: (0.55, 1.00, 1.00, 0.15),
    ActivityLabel.HEAD_ROTATION: (1.00, 1.00, 1.00, 0.02),
    ActivityLabel.HAND_MOVEMENT: (0.10, 1.00, 1.00, 0.05),
    ActivityLabel.WALKING: (0.30, 1.00, 1.00, 1.00),
    ActivityLabel.BENDING: (1.00, 1.00, 1.00, 0.05),
    ActivityLabel.JUMPING: (0.80, 1.00, 1.00, 0.80),
    ActivityLabel.OTHER: (0.45, 1.00, 1.00, 0.50),
}

# Keypoint path shape per activity: x/y semi-axes of the oscillation
# ellipse.  A circular path gives near-constant frame steps, an elongated
# one makes step lengths pulse; that spread is part of the feature set.
_VISUAL_ELLIPSE: dict[ActivityLabel, tuple[float, float]] = {
    ActivityLabel.IDLE: (1.00, 1.00),
    ActivityLabel.BODY_ROTATION: (1.00, 1.00),
    ActivityLabel.HEAD_ROTATION: (1.00, 0.45),
    ActivityLabel.HAND_MOVEMENT: (1.00, 0.80),
    ActivityLabel.WALKING: (1.00, 0.30),
    ActivityLabel.BENDING: (0.30, 1.00),
    ActivityLabel.JUMPING: (0.15, 1.00),
    ActivityLabel.OTHER: (0.70, 0.70),
}

_KEYPOINT_GROUP: dict[str, int] = {
    "nose": 0,
    "left_wrist": 1,
    "right_wrist": 1,
    "left_hip": 2,
    "right_hip": 2,
    "left_ankle": 3,
    "right_ankle": 3,
}

# Keypoint acceleration (px/s^2) per unit of realized amplitude.  The
# excursion radius is divided by each activity's frequency-squared and
# path-shape factor below, so the acceleration magnitude the extraction
# recovers is amplitude times this one constant, for every activity.
_ACCEL_PER_UNIT = 400.0


def _ellipse_mean(ex: float, ey: float) -> float:
    theta = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    path = np.sqrt((ex * np.sin(theta)) ** 2 + (0.6 * ey * np.cos(theta)) ** 2)
    return float(path.mean())


_ELLIPSE_MEAN = {lab: _ellipse_mean(*_VISUAL_ELLIPSE[lab]) for lab in ActivityLabel}

# The tables above as arrays indexed by label code, for whole-script lookups:
# motion columns are accel frequency, x and y weights, gyro frequency and the
# three gyro weights.
_MOTION_TABLE = _per_label({lab: (f, wx, wy, fg, *gw)
                            for lab, (f, wx, wy, fg, gw) in _MOTION_SIGNATURES.items()})
_WEIGHT_TABLE = _per_label(_VISUAL_WEIGHTS)
_ELLIPSE_TABLE = _per_label(_VISUAL_ELLIPSE)
_ELLIPSE_MEAN_TABLE = _per_label(_ELLIPSE_MEAN)

_REST_POSE: dict[str, tuple[float, float]] = {
    "nose": (320.0, 80.0),
    "left_wrist": (240.0, 300.0),
    "right_wrist": (400.0, 300.0),
    "left_hip": (280.0, 360.0),
    "right_hip": (360.0, 360.0),
    "left_ankle": (285.0, 560.0),
    "right_ankle": (355.0, 560.0),
}


SAMPLE_RATE = 50.0  # synthesized IMU samples per second, and
FRAME_RATE = 30.0  # keypoint frames, each rounded to whole samples per window


def _checked_script(script: Sequence[int], amplitudes: Sequence[float]):
    script = label_codes(script, "script")
    amps = np.asarray(amplitudes, dtype=np.float64)
    if script.shape != amps.shape:
        raise DataError("script and amplitudes must have the same length")
    return script, amps


def synthesize_motion_trace(
    script: Sequence[int],
    amplitudes: Sequence[float],
    window_seconds: float,
    rng: np.random.Generator,
) -> MotionTrace:
    """Inertial trace acting out `script`, one code per window, checked by
    `label_codes` (a float code is refused, not truncated), at SAMPLE_RATE.

    Within window t the vertical acceleration oscillates around gravity with
    mean absolute deviation equal to amplitudes[t]; the per-activity
    signature sets the frequency, the lateral leakage, and the gyroscope
    mix.
    """
    script, amps = _checked_script(script, amplitudes)
    per_win = int(round(window_seconds * SAMPLE_RATE))
    if per_win < 2:
        raise ConfigError("window too short for the sample rate")
    n = len(script)
    dt = window_seconds / per_win
    ts = np.arange(n * per_win, dtype=np.float64) * dt
    tau = np.arange(per_win, dtype=np.float64) * dt
    sig = _MOTION_TABLE[script]
    # peak = (pi/2) * amplitude makes mean |sin| come out to `amplitude`
    peak = 0.5 * math.pi * amps
    phase, phase_g = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2)).T
    # (windows, samples) blocks; each product and sum keeps the order of the
    # per-window loop this replaced, so traces stay bit-identical to it
    arg = (2.0 * math.pi * sig[:, 0])[:, None] * tau + phase[:, None]
    arg_g = (2.0 * math.pi * sig[:, 3])[:, None] * tau + phase_g[:, None]
    accel = np.empty((n, per_win, 3), dtype=np.float64)
    accel[:, :, 0] = (peak * sig[:, 1])[:, None] * np.sin(arg + 1.1)
    accel[:, :, 1] = (peak * sig[:, 2])[:, None] * np.cos(arg + 0.4)
    accel[:, :, 2] = GRAVITY + peak[:, None] * np.sin(arg)
    gyro = (sig[:, 4:] * amps[:, None])[:, None, :] * np.sin(
        arg_g[:, :, None] + 0.7 * np.arange(3)
    )
    accel, gyro = accel.reshape(n * per_win, 3), gyro.reshape(n * per_win, 3)
    return MotionTrace(timestamps=ts, accel=accel, gyro=gyro)


def synthesize_keypoint_trace(
    script: Sequence[int],
    amplitudes: Sequence[float],
    window_seconds: float,
    rng: np.random.Generator,
    *,
    keypoint_observability: Mapping[str, float] | None = None,
) -> KeypointTrace:
    """2-D keypoint trace at FRAME_RATE acting out `script`, its codes
    checked by `label_codes`.

    Each keypoint oscillates around its rest position; excursion scales with
    the realized amplitude and the activity's per-group weight, divided by
    the activity's frequency-squared and path-shape factor so the per-window
    acceleration magnitude comes back as amplitude times one constant no
    matter which activity produced it.  Dropout, if requested, is drawn per
    keypoint per window (a whole window of a keypoint disappears at once,
    matching how occlusion behaves).
    """
    script, amps = _checked_script(script, amplitudes)
    per_win = int(round(window_seconds * FRAME_RATE))
    if per_win < 4:
        raise ConfigError("window too short for the frame rate")
    n = len(script)
    dt = window_seconds / per_win
    ts = np.arange(n * per_win, dtype=np.float64) * dt
    tau = np.arange(per_win, dtype=np.float64) * dt
    obs = keypoint_observability or {}
    # second-central-difference gain of a unit sinusoid at each frequency
    accel_gain = np.array([
        (2.0 * math.sin(math.pi * freq * dt) / dt) ** 2 * mean
        for freq, mean in zip(_MOTION_TABLE[:, 0].tolist(), _ELLIPSE_MEAN_TABLE.tolist())
    ])
    gain, (ex, ey) = accel_gain[script], _ELLIPSE_TABLE[script].T
    cycle = (2.0 * math.pi * _MOTION_TABLE[script, 0])[:, None] * tau
    points: dict[str, np.ndarray] = {}
    for name in KEYPOINT_NAMES:
        rest = _REST_POSE[name]
        amp_px = _ACCEL_PER_UNIT * amps * _WEIGHT_TABLE[script, _KEYPOINT_GROUP[name]] / gain
        p_obs = float(obs.get(name, 1.0))
        # per window, the phase draw and then (below full observability)
        # the dropout draw
        if p_obs < 1.0:
            u = rng.random((n, 2))
            phase, dropped = 2.0 * math.pi * u[:, 0], u[:, 1] >= p_obs
        else:
            phase, dropped = rng.uniform(0.0, 2.0 * math.pi, size=n), None
        arg = cycle + phase[:, None]
        xy = np.empty((n, per_win, 2), dtype=np.float64)
        xy[:, :, 0] = rest[0] + (amp_px * ex)[:, None] * np.sin(arg)
        xy[:, :, 1] = rest[1] + (amp_px * ey * 0.6)[:, None] * np.cos(arg)
        if dropped is not None:
            xy[dropped] = np.nan
        points[name] = xy.reshape(n * per_win, 2)
    return KeypointTrace(timestamps=ts, points=points)


@dataclass(frozen=True)
class TraceCohort:
    motion_traces: Mapping[str, MotionTrace]
    keypoint_traces: Mapping[str, KeypointTrace]
    truth: GroundTruth
    amplitudes: Mapping[str, np.ndarray]


# Which sensor position gates each keypoint's visibility in trace mode.
# Head and ankles are taken as always trackable.
_KEYPOINT_GATE: dict[str, SensorPosition] = {
    "left_wrist": SensorPosition.LEFT_WRIST,
    "right_wrist": SensorPosition.RIGHT_WRIST,
    "left_hip": SensorPosition.LEFT_FRONT_POCKET,
    "right_hip": SensorPosition.RIGHT_FRONT_POCKET,
}


def synthesize_trace_cohort(spec: CohortSpec, session: int = 0) -> TraceCohort:
    """Raw-trace variant of `generate_cohort`.

    Motion traces are keyed by identity id, keypoint traces by avatar id;
    both act out the same script with the same realized amplitudes, through
    independently drawn phases.
    """
    perm = avatar_permutation(spec)
    obs_vec = spec.observability_vector()
    kp_obs = {
        name: float(obs_vec[_POSITIONS.index(gate)])
        for name, gate in _KEYPOINT_GATE.items()
    }
    words = _cohort_words(spec, session, (_SALT_SCRIPT, _SALT_REALIZE, _SALT_TRACE_MOTION,
                                          _SALT_TRACE_VISUAL))
    script, amps = _behaviour(spec, words)
    idents = [identity_id(i) for i in range(spec.num_identities)]
    motion_traces = {
        ident: synthesize_motion_trace(script[i], amps[i], spec.window_seconds,
                                       _stream(words[_SALT_TRACE_MOTION][i]))
        for i, ident in enumerate(idents)
    }
    mapping = {}
    keypoint_traces = {}
    for j, i in enumerate(perm.tolist()):
        aid = avatar_id(j)
        mapping[aid] = idents[i]
        keypoint_traces[aid] = synthesize_keypoint_trace(
            script[i],
            amps[i],
            spec.window_seconds,
            _stream(words[_SALT_TRACE_VISUAL][i]),
            keypoint_observability=kp_obs,
        )
    truth = GroundTruth(mapping=mapping, scripts=_scripts(script))
    return TraceCohort(
        motion_traces=motion_traces,
        keypoint_traces=keypoint_traces,
        truth=truth,
        amplitudes=dict(zip(idents, amps)),
    )


def train_classifier(
    channel: Channel,
    window_seconds: float = 1.0,
    *,
    seed: int = 0,
    reps: int = 60,
) -> ClassifierModel:
    """Fit a window classifier on a synthetic mixed-activity trace.

    Training mirrors the production path end to end: one long trace with
    activities interleaved (so window edges see the same neighbour bleed
    the smoother produces on real input), smoothed and featurized exactly
    as the series builder does.  Each label's amplitudes are drawn around
    that label's typical energy; how hard an activity shakes the sensor is
    part of its signature, so the training distribution has to match per
    label, not globally.
    """
    rng = _stream(_seed_words(seed, _SALT_TRAIN, 0, 0 if channel is Channel.MOTION else 1))
    script = np.repeat(np.arange(8, dtype=np.int64), reps)
    rng.shuffle(script)
    amps = _per_label(DEFAULT_MAGNITUDE_BASE)[script] * rng.uniform(0.5, 1.6, size=script.size)
    synthesize = (synthesize_motion_trace if channel is Channel.MOTION
                  else synthesize_keypoint_trace)
    feats, _ = window_features(synthesize(script, amps, window_seconds, rng), window_seconds)
    return fit_classifier(feats, script, channel)


# --- spec (de)serialization ----------------------------------------------


def _label_map_from_json(obj, what: str) -> dict[ActivityLabel, float]:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{what} must be an object of label token -> number")
    return {label_from_token(key): json_value(val, float, what, ConfigError)
            for key, val in obj.items()}


def _confusion_from_json(obj, what: str) -> ConfusionMatrix | None:
    if obj is None or obj == "identity":
        return None
    try:
        entries = np.asarray(obj, dtype=object)
        for entry in entries.flat:
            json_value(entry, float, what, ConfigError)
        return ConfusionMatrix(entries.astype(np.float64))
    except (TypeError, ValueError, DataError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


# the spec's scalar fields and the JSON kind of each
_SPEC_SCALARS = {"num_identities": int, "n_windows": int, "window_seconds": float,
                 "magnitude_noise_sd": float, "seed": int, "shared_script": bool}
_SPEC_KEYS = {*_SPEC_SCALARS, "activity_prior", "motion_confusion", "visual_confusion",
              "magnitude_base", "intensity_range", "position_observability"}


def cohort_spec_from_dict(payload: Mapping) -> CohortSpec:
    if not isinstance(payload, Mapping):
        raise ConfigError("cohort spec must be a JSON object")
    unknown = set(payload) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown cohort spec keys: {sorted(unknown)}")
    for key in ("num_identities", "n_windows"):
        if key not in payload:
            raise ConfigError(f"cohort spec missing required key {key!r}")
    kwargs = {key: json_value(payload[key], kind, key, ConfigError)
              for key, kind in _SPEC_SCALARS.items() if key in payload}
    if payload.get("activity_prior") is not None:
        kwargs["activity_prior"] = _label_map_from_json(
            payload["activity_prior"], "activity_prior"
        )
    if "motion_confusion" in payload:
        kwargs["motion_confusion"] = _confusion_from_json(
            payload["motion_confusion"], "motion_confusion"
        )
    if "visual_confusion" in payload:
        kwargs["visual_confusion"] = _confusion_from_json(
            payload["visual_confusion"], "visual_confusion"
        )
    if payload.get("magnitude_base") is not None:
        base = dict(DEFAULT_MAGNITUDE_BASE)
        base.update(_label_map_from_json(payload["magnitude_base"], "magnitude_base"))
        kwargs["magnitude_base"] = base
    if "intensity_range" in payload:
        pair = payload["intensity_range"]
        if not isinstance(pair, Sequence) or len(pair) != 2:
            raise ConfigError("intensity_range must be a [low, high] pair")
        kwargs["intensity_range"] = tuple(json_value(v, float, "intensity_range", ConfigError)
                                          for v in pair)
    if payload.get("position_observability") is not None:
        obs_in = payload["position_observability"]
        if not isinstance(obs_in, Mapping):
            raise ConfigError("position_observability must be an object")
        obs = {}
        for key, val in obs_in.items():
            try:
                pos = SensorPosition(key)
            except ValueError:
                raise ConfigError(f"unknown sensor position {key!r}") from None
            obs[pos] = json_value(val, float, "position_observability", ConfigError)
        kwargs["position_observability"] = obs
    return CohortSpec(**kwargs)


def load_cohort_spec(path) -> CohortSpec:
    return read_json(path, cohort_spec_from_dict, "cohort spec", ConfigError)

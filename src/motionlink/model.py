"""Core domain model: activity labels, sensor positions, and activity-vector series.

An activity-vector series is the common representation both channels reduce
to: a sequence of classified activity labels over fixed-width time windows,
paired with per-window movement magnitudes.  Motion-channel series carry one
magnitude sequence; visual-channel series carry one per candidate sensor
position, with entries that may be unobservable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, InvalidLabelCode, LengthMismatch

SERIES_FORMAT_VERSION = 1


class ActivityLabel(IntEnum):
    """The eight activity classes.  Codes are part of the wire format: 0 through 7,
    in this order, forever.  Ties and orderings elsewhere break on the code."""

    IDLE = 0
    BODY_ROTATION = 1
    HEAD_ROTATION = 2
    HAND_MOVEMENT = 3
    WALKING = 4
    BENDING = 5
    JUMPING = 6
    OTHER = 7

    @property
    def token(self) -> str:
        return self.name.lower()


def label_from_code(code: int) -> ActivityLabel:
    """Map an integer code to its label; raise InvalidLabelCode outside 0..7."""
    try:
        return ActivityLabel(code)
    except ValueError:
        raise InvalidLabelCode(f"no activity label with code {code!r}") from None


def label_from_token(token: str) -> ActivityLabel:
    try:
        return ActivityLabel[token.strip().upper()]
    except KeyError:
        raise InvalidLabelCode(f"no activity label named {token!r}") from None


class SensorPosition(Enum):
    """Candidate on-body sensor positions, enumeration order fixed."""

    LEFT_FRONT_POCKET = "left_front_pocket"
    RIGHT_FRONT_POCKET = "right_front_pocket"
    LEFT_BACK_POCKET = "left_back_pocket"
    RIGHT_BACK_POCKET = "right_back_pocket"
    LEFT_WRIST = "left_wrist"
    RIGHT_WRIST = "right_wrist"


def position_from_token(token: str) -> SensorPosition:
    try:
        return SensorPosition(token)
    except ValueError:
        raise DataError(f"unknown sensor position {token!r}") from None


class Channel(Enum):
    MOTION = "motion"
    VISUAL = "visual"


class MagnitudeSeq:
    """Per-window movement magnitudes; entries are floats or None (unobservable).

    Internally the values live in a float array with NaN holes plus a boolean
    observed mask, so vector math has to go through `values`/`observed_mask`
    explicitly and can never fold a missing entry into a mean by accident.
    """

    __slots__ = ("_values", "_mask")

    def __init__(self, entries: Iterable[float | None]):
        entries = list(entries)
        values = np.empty(len(entries), dtype=np.float64)
        mask = np.empty(len(entries), dtype=bool)
        for i, e in enumerate(entries):
            if e is None:
                values[i] = np.nan
                mask[i] = False
            else:
                v = float(e)
                if not np.isfinite(v):
                    raise DataError(f"magnitude entry {i} is not finite: {v!r}")
                if v < 0:
                    raise DataError(f"magnitude entry {i} is negative: {v!r}")
                values[i] = v
                mask[i] = True
        values.setflags(write=False)
        mask.setflags(write=False)
        self._values = values
        self._mask = mask

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MagnitudeSeq):
            return NotImplemented
        return len(self) == len(other) and np.array_equal(
            self._values, other._values, equal_nan=True
        )

    def __repr__(self) -> str:
        return f"MagnitudeSeq({self.entries()!r})"

    @property
    def values(self) -> np.ndarray:
        """Float array with NaN at unobservable entries."""
        return self._values

    @property
    def observed_mask(self) -> np.ndarray:
        return self._mask

    @property
    def n_observed(self) -> int:
        return int(self._mask.sum())

    def observed_fraction(self) -> float:
        return self.n_observed / len(self) if len(self) else 0.0

    def entries(self) -> list[float | None]:
        return [float(v) if m else None for v, m in zip(self._values, self._mask)]


@dataclass(frozen=True)
class ActivityVectorSeries:
    """One source's activity labels plus magnitudes on a fixed window grid.

    Parameters
    ----------
    source_id : str
        Identifier of the trace this series was derived from.
    channel : Channel
        MOTION series hold a single fully observed magnitude sequence under
        the reserved name "motion"; VISUAL series hold one sequence per
        SensorPosition, entries possibly unobservable.
    window_seconds : float
        Window width w used to build the series.
    activities : tuple[ActivityLabel, ...]
    magnitudes : mapping of sequence name to MagnitudeSeq
    """

    source_id: str
    channel: Channel
    window_seconds: float
    activities: tuple[ActivityLabel, ...]
    magnitudes: Mapping[str, MagnitudeSeq] = field(default_factory=dict)

    MOTION_KEY = "motion"

    def __post_init__(self):
        if not self.source_id:
            raise DataError("source_id must be non-empty")
        if not self.window_seconds > 0:
            raise DataError(f"window_seconds must be positive, got {self.window_seconds}")
        acts = tuple(
            a if isinstance(a, ActivityLabel) else label_from_code(a) for a in self.activities
        )
        object.__setattr__(self, "activities", acts)
        mags = dict(self.magnitudes)
        n = len(acts)
        if self.channel is Channel.MOTION:
            if set(mags) != {self.MOTION_KEY}:
                raise DataError(
                    f"motion series needs exactly one magnitude sequence {self.MOTION_KEY!r}, "
                    f"got {sorted(mags)}"
                )
            seq = mags[self.MOTION_KEY]
            if len(seq) != n:
                raise LengthMismatch(
                    f"{self.source_id}: {n} activities vs {len(seq)} magnitudes"
                )
            if seq.n_observed != n:
                raise DataError(f"{self.source_id}: motion magnitudes cannot be unobservable")
        else:
            want = {p.value for p in SensorPosition}
            if set(mags) != want:
                raise DataError(
                    f"visual series must carry all sensor positions, got {sorted(mags)}"
                )
            for name, seq in mags.items():
                if len(seq) != n:
                    raise LengthMismatch(
                        f"{self.source_id}/{name}: {n} activities vs {len(seq)} magnitudes"
                    )
        object.__setattr__(self, "magnitudes", mags)

    def __len__(self) -> int:
        return len(self.activities)

    def activity_codes(self) -> np.ndarray:
        return np.fromiter((int(a) for a in self.activities), dtype=np.uint8, count=len(self))

    @property
    def motion_magnitudes(self) -> MagnitudeSeq:
        if self.channel is not Channel.MOTION:
            raise DataError("motion_magnitudes on a visual series")
        return self.magnitudes[self.MOTION_KEY]

    def magnitude_for(self, position: "SensorPosition | str") -> MagnitudeSeq:
        if self.channel is not Channel.VISUAL:
            raise DataError("magnitude_for(position) on a motion series")
        key = position.value if isinstance(position, SensorPosition) else str(position)
        try:
            return self.magnitudes[key]
        except KeyError:
            raise DataError(f"unknown sensor position {position!r}") from None


# ---------------------------------------------------------------------------
# serialization
#
# One JSON object per series.  Writers emit sorted keys and compact
# separators so identical series always produce identical bytes.

def series_to_dict(series: ActivityVectorSeries) -> dict:
    return {
        "source_id": series.source_id,
        "channel": series.channel.value,
        "w": series.window_seconds,
        "activities": [int(a) for a in series.activities],
        "magnitudes": {name: seq.entries() for name, seq in series.magnitudes.items()},
    }


def series_from_dict(obj: Mapping) -> ActivityVectorSeries:
    try:
        channel = Channel(obj["channel"])
        activities = tuple(label_from_code(int(c)) for c in obj["activities"])
        magnitudes = {
            str(name): MagnitudeSeq(entries) for name, entries in obj["magnitudes"].items()
        }
        return ActivityVectorSeries(
            source_id=str(obj["source_id"]),
            channel=channel,
            window_seconds=float(obj["w"]),
            activities=activities,
            magnitudes=magnitudes,
        )
    except KeyError as exc:
        raise DataError(f"series object missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"malformed series object: {exc}") from None


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, NaN forbidden."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def series_to_json(series: ActivityVectorSeries) -> str:
    return dumps_canonical(series_to_dict(series))


def series_from_json(line: str) -> ActivityVectorSeries:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"bad series JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError("series JSON must be an object")
    return series_from_dict(obj)


# ---------------------------------------------------------------------------
# datasets

class _SeriesDataset:
    """Ordered, immutable collection of same-channel series on one window grid."""

    channel: Channel | None = None

    def __init__(self, series: Iterable[ActivityVectorSeries]):
        series = tuple(series)
        if not series:
            raise DataError("dataset must contain at least one series")
        w = series[0].window_seconds
        seen: set[str] = set()
        for s in series:
            if self.channel is not None and s.channel is not self.channel:
                raise DataError(
                    f"expected {self.channel.value} series, got {s.channel.value} "
                    f"({s.source_id})"
                )
            if s.window_seconds != w:
                raise DataError(
                    f"mixed window widths in dataset: {w} vs {s.window_seconds} "
                    f"({s.source_id})"
                )
            if s.source_id in seen:
                raise DataError(f"duplicate source_id {s.source_id!r}")
            seen.add(s.source_id)
        self._series = series
        self._by_id = {s.source_id: s for s in series}

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[ActivityVectorSeries]:
        return iter(self._series)

    def __getitem__(self, key: int | str) -> ActivityVectorSeries:
        if isinstance(key, str):
            return self._by_id[key]
        return self._series[key]

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._by_id

    @property
    def window_seconds(self) -> float:
        return self._series[0].window_seconds

    @property
    def source_ids(self) -> tuple[str, ...]:
        return tuple(s.source_id for s in self._series)

    def uniform_length(self) -> int:
        """Common series length n; raises LengthMismatch if lengths differ."""
        lengths = {len(s) for s in self._series}
        if len(lengths) != 1:
            raise LengthMismatch(f"series lengths differ: {sorted(lengths)}")
        return lengths.pop()

    def label_matrix(self) -> np.ndarray:
        """(count, n) uint8 matrix of activity codes; requires uniform length."""
        n = self.uniform_length()
        out = np.empty((len(self._series), n), dtype=np.uint8)
        for i, s in enumerate(self._series):
            out[i] = s.activity_codes()
        return out


class MotionDataset(_SeriesDataset):
    """The q motion-channel series (one per known identity)."""

    channel = Channel.MOTION


class VisualDataset(_SeriesDataset):
    """The p visual-channel series (one per observed avatar)."""

    channel = Channel.VISUAL


def _dataset_class(channel: Channel):
    return MotionDataset if channel is Channel.MOTION else VisualDataset


def write_dataset_jsonl(dataset: _SeriesDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in dataset:
            fh.write(series_to_json(s))
            fh.write("\n")


def not_utf8(path, error_type=DataError) -> Exception:
    """The error for a text file that fails to decode, naming the line of
    its first bad byte (text-mode reads decode in chunks, so the reader's
    own line count cannot)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return error_type(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    return error_type(f"{path}: not UTF-8 text")


def read_dataset_jsonl(path) -> MotionDataset | VisualDataset:
    series = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    series.append(series_from_json(line))
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    if not series:
        raise DataError(f"{path}: no series found")
    return _dataset_class(series[0].channel)(series)

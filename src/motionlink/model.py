"""Core domain model: activity labels, sensor positions, and activity-vector datasets.

An activity-vector series is the common representation both channels reduce
to: a sequence of classified activity labels over fixed-width time windows,
paired with per-window movement magnitudes.  Motion-channel series carry one
magnitude sequence; visual-channel series carry one per candidate sensor
position, with entries that may be unobservable.

A dataset holds the series of one channel as columns: `ids`, `codes` and
`mags`.  A single series is a row view of a dataset.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from enum import Enum, IntEnum
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DataError, InvalidLabelCode, LengthMismatch, MotionLinkError

SERIES_FORMAT_VERSION = 1
MOTION_KEY = "motion"


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


_LABELS = tuple(ActivityLabel)


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


_POSITION_NAMES = tuple(p.value for p in SensorPosition)


class Channel(Enum):
    MOTION = "motion"
    VISUAL = "visual"


def _sequence_names(channel: Channel) -> tuple[str, ...]:
    """Names of a series' magnitude sequences, in `mags` order."""
    return (MOTION_KEY,) if channel is Channel.MOTION else _POSITION_NAMES


class MagnitudeSeq:
    """Per-window movement magnitudes; entries are floats or None (unobservable).

    The values live in a read-only float array with NaN holes, so vector
    math has to go through `values`/`observed_mask` explicitly and can never
    fold a missing entry into a mean by accident.  The sequences of a
    dataset series are views of the dataset's `mags`.
    """

    __slots__ = ("_values",)

    def __init__(self, entries: Iterable[float | None]):
        raw = np.array(list(entries), dtype=object)
        # only None marks an unobservable entry: a NaN entry reads as inf,
        # which validation rejects as not finite
        values = np.where(np.equal(raw, None), np.nan,
                          np.where(np.not_equal(raw, raw), np.inf, raw)).astype(np.float64)
        _check_magnitudes(values[None, None], ("",), lambda i: "magnitudes")
        values.setflags(write=False)
        self._values = values

    @classmethod
    def _view(cls, values: np.ndarray) -> "MagnitudeSeq":
        seq = object.__new__(cls)
        seq._values = values
        return seq

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"MagnitudeSeq({self.entries()!r})"

    @property
    def values(self) -> np.ndarray:
        """Float array with NaN at unobservable entries."""
        return self._values

    @property
    def observed_mask(self) -> np.ndarray:
        return ~np.isnan(self._values)

    def entries(self) -> list[float | None]:
        return np.where(np.isnan(self._values), None, self._values).tolist()


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True in `bad`, or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def _check_magnitudes(mags: np.ndarray, names: tuple[str, ...], where) -> None:
    """Reject infinite and negative entries of (N, sequences, n) magnitudes."""
    for bad, what in ((np.isinf(mags), "is not finite"), (mags < 0, "is negative")):
        at = _first(bad)
        if at is not None:
            i, s, j = at
            name = f"{names[s]} " if len(names) > 1 else ""
            raise DataError(f"{where(i)}: {name}magnitude entry {j} {what}: {float(mags[at])!r}")


# ---------------------------------------------------------------------------
# datasets and their row views

class _SeriesDataset:
    """Ordered, immutable series of one channel on one window grid, as
    read-only columns: `ids`, a tuple of unique source ids; `codes`, (N, n)
    uint8 activity codes; `mags`, float64 magnitudes, (N, n) for motion and
    (N, 6, n) for visual series in SensorPosition order, NaN where a window
    is unobservable; and `window_seconds`.  Iteration, `dataset[i]` and
    `dataset[id]` yield ActivityVectorSeries row views."""

    __slots__ = ("ids", "codes", "mags", "window_seconds", "_rows")
    channel: Channel

    def __init__(self, series: Iterable["ActivityVectorSeries"]):
        rows = [(s.source_id, s.channel, s.window_seconds, s.codes, s.mags) for s in series]
        self._stack(rows, lambda i: f"series {rows[i][0]!r}")

    @classmethod
    def from_arrays(cls, ids: Iterable[str], codes, mags, window_seconds: float):
        """A dataset over copies of the given columns, validated like any other."""
        ids = tuple(ids)
        if not len(ids) == len(codes) == len(mags):
            raise LengthMismatch(
                f"{len(ids)} ids, {len(codes)} code rows, {len(mags)} magnitude rows"
            )
        rows = [(i, cls.channel, window_seconds, np.asarray(c), np.asarray(m, dtype=np.float64))
                for i, c, m in zip(ids, codes, mags)]
        dataset = cls.__new__(cls)
        dataset._stack(rows, lambda i: f"series {rows[i][0]!r}")
        return dataset

    def _stack(self, rows, where) -> None:
        """Fill the columns from (source_id, channel, w, codes, mags) rows,
        checking every dataset, and so every series, once.  `where(i)` names
        row i in error messages."""
        if not rows:
            raise DataError("dataset must contain at least one series")
        w, n = rows[0][2], rows[0][3].size
        if not 0 < w < math.inf:
            raise DataError(f"{where(0)}: window width must be positive and finite, got {w!r}")
        names = _sequence_names(self.channel)
        lead = () if self.channel is Channel.MOTION else (len(names),)
        for i, (_, channel, w_i, codes, mags) in enumerate(rows):
            if channel is not self.channel:
                raise DataError(
                    f"{where(i)}: expected {self.channel.value} series, got {channel.value}"
                )
            if w_i != w:
                raise DataError(f"{where(i)}: window width {w_i} differs from {w} in {where(0)}")
            if codes.ndim != 1 or mags.shape != lead + codes.shape:
                raise LengthMismatch(
                    f"{where(i)}: {codes.size} activities vs magnitudes of shape {mags.shape}"
                )
            if codes.size != n:
                raise LengthMismatch(f"{where(i)}: {codes.size} windows, {where(0)} has {n}")
            if n and codes.dtype.kind not in "iu":
                raise DataError(f"{where(i)}: activity codes must be integers, got {codes.dtype}")
        ids, _, _, codes, mags = zip(*rows)
        codes, mags = np.array(codes), np.array(mags, dtype=np.float64)
        at = _first((codes < 0) | (codes >= len(_LABELS)))
        if at is not None:
            raise InvalidLabelCode(f"{where(at[0])}: no activity label with code {int(codes[at])}")
        _check_magnitudes(mags.reshape(len(ids), len(names), n), names, where)
        at = _first(np.isnan(mags)) if self.channel is Channel.MOTION else None
        if at is not None:
            raise DataError(f"{where(at[0])}: motion magnitudes cannot be unobservable")
        by_id = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # first occurrences
        if len(by_id) != len(ids):
            i = next(i for i, source_id in enumerate(ids) if by_id[source_id] != i)
            raise DataError(f"{where(i)}: duplicate source_id {ids[i]!r}")
        if "" in by_id:
            raise DataError(f"{where(by_id[''])}: source_id must be non-empty")
        codes = codes.astype(np.uint8)
        codes.setflags(write=False)
        mags.setflags(write=False)
        self.ids, self.codes, self.mags, self.window_seconds = ids, codes, mags, float(w)
        self._rows = by_id

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator["ActivityVectorSeries"]:
        return (ActivityVectorSeries._view(self, i) for i in range(len(self.ids)))

    def __getitem__(self, key: int | str) -> "ActivityVectorSeries":
        row = self._rows[key] if isinstance(key, str) else range(len(self.ids))[key]
        return ActivityVectorSeries._view(self, row)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._rows


class MotionDataset(_SeriesDataset):
    """The q motion-channel series (one per known identity)."""

    __slots__ = ()
    channel = Channel.MOTION


class VisualDataset(_SeriesDataset):
    """The p visual-channel series (one per observed avatar)."""

    __slots__ = ()
    channel = Channel.VISUAL


def _series_row(source_id: str, channel: Channel, w: float, activities,
                sequences: Mapping) -> tuple:
    """The (source_id, channel, w, codes, mags) dataset row of one series,
    its magnitude sequences given by name."""
    names = _sequence_names(channel)
    if set(sequences) != set(names):
        raise DataError(f"{channel.value} series needs magnitude sequences "
                        f"{sorted(names)}, got {sorted(map(str, sequences))}")
    seqs = [sequences[name] for name in names]
    if len({len(seq) for seq in seqs}) > 1:
        raise LengthMismatch(f"{source_id!r}: magnitude sequences of different lengths")
    return (source_id, channel, w, np.array(activities),
            np.array(seqs if len(names) > 1 else seqs[0], dtype=np.float64))


def _from_rows(rows: list[tuple], where) -> MotionDataset | VisualDataset:
    cls = MotionDataset if rows[0][1] is Channel.MOTION else VisualDataset
    dataset = cls.__new__(cls)
    dataset._stack(rows, where)
    return dataset


class ActivityVectorSeries:
    """One source's activity labels plus magnitudes on a fixed window grid:
    a row view of a dataset.  Constructed directly from its `source_id`,
    `channel`, `window_seconds`, `activities` (labels or codes) and
    `magnitudes` (name -> MagnitudeSeq: "motion" alone for a MOTION series,
    one per SensorPosition for a VISUAL one), it is the only row of a
    one-series dataset, validated like any other."""

    __slots__ = ("_data", "_row")

    def __init__(self, source_id: str, channel: Channel, window_seconds: float,
                 activities, magnitudes: Mapping[str, MagnitudeSeq]):
        sequences = {name: seq.values for name, seq in magnitudes.items()}
        row = _series_row(source_id, channel, window_seconds, activities, sequences)
        self._data, self._row = _from_rows([row], lambda i: f"series {source_id!r}"), 0

    @classmethod
    def _view(cls, data: _SeriesDataset, row: int) -> "ActivityVectorSeries":
        view = object.__new__(cls)
        view._data, view._row = data, row
        return view

    @property
    def source_id(self) -> str:
        return self._data.ids[self._row]

    @property
    def channel(self) -> Channel:
        return self._data.channel

    @property
    def window_seconds(self) -> float:
        return self._data.window_seconds

    @property
    def codes(self) -> np.ndarray:
        """(n,) uint8 activity codes."""
        return self._data.codes[self._row]

    @property
    def mags(self) -> np.ndarray:
        """(n,) motion or (6, n) visual magnitudes, NaN where unobservable."""
        return self._data.mags[self._row]

    @property
    def activities(self) -> tuple[ActivityLabel, ...]:
        return tuple(map(_LABELS.__getitem__, self.codes.tolist()))

    def __len__(self) -> int:
        return self._data.codes.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivityVectorSeries):
            return NotImplemented
        return (self.source_id == other.source_id and self.channel is other.channel
                and self.window_seconds == other.window_seconds
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.mags, other.mags, equal_nan=True))

    @property
    def motion_magnitudes(self) -> MagnitudeSeq:
        if self.channel is not Channel.MOTION:
            raise DataError("motion_magnitudes on a visual series")
        return MagnitudeSeq._view(self.mags)

    def magnitude_for(self, position: "SensorPosition | str") -> MagnitudeSeq:
        if self.channel is not Channel.VISUAL:
            raise DataError("magnitude_for(position) on a motion series")
        key = position.value if isinstance(position, SensorPosition) else str(position)
        if key not in _POSITION_NAMES:
            raise DataError(f"unknown sensor position {position!r}")
        return MagnitudeSeq._view(self.mags[_POSITION_NAMES.index(key)])


# ---------------------------------------------------------------------------
# serialization
#
# Every JSON file the toolkit reads or writes goes through the functions
# below.  Writers emit sorted keys, so identical objects always produce
# identical bytes; a JSON-lines file holds one canonical object per line.
# Readers turn whatever malformed content raises into one error naming the
# file and line.

# What decoding a malformed file, or building objects from its values, can
# raise; UnicodeDecodeError and JSONDecodeError are ValueErrors.
_MALFORMED = (RecursionError, KeyError, TypeError, ValueError, AttributeError, OverflowError)


class _Literal(float):
    """A NaN or +-Infinity literal read from a file.  It reads as inf, which
    validation rejects as not finite, so a NaN read from a file only ever
    means null; as text it is the literal the file holds, so the error
    names what is there."""

    __slots__ = ("text",)

    def __new__(cls, text: str):
        value = super().__new__(cls, math.inf)
        value.text = text
        return value

    def __repr__(self) -> str:
        return self.text

    __str__ = __repr__


_decode = json.JSONDecoder(parse_constant=_Literal).decode


_JSON_KINDS = {float: "number", int: "integer", bool: "boolean", str: "string"}
_INTEGERS = frozenset({int})
_NUMBERS = _INTEGERS | {float, _Literal}
_NUMBERS_OR_NULL = _NUMBERS | {type(None)}
_FINITE_OR_NULL = _NUMBERS_OR_NULL - {_Literal}


def json_value(value, kind: type, name: str, error_type=DataError):
    """`value`, the field `name` read from a file, if it is a JSON `kind`:
    for float any number but a boolean, returned as a float; for int, bool
    or str exactly that type.  Anything else raises error_type rather than
    being cast; a non-finite literal is returned as it is, to be refused
    by name."""
    if kind is float and type(value) in _NUMBERS:
        return float(value) if type(value) is int else value
    if type(value) is not kind:
        raise error_type(f"{name} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


def json_numbers(arrays: Iterable[list], name: str, nullable: bool = False) -> None:
    """Refuse `arrays`, JSON arrays read as `name`, if an entry is not a
    number or, with `nullable`, null: a numeric string or a boolean raises
    DataError rather than being cast."""
    _json_entries(arrays, _NUMBERS_OR_NULL if nullable else _NUMBERS,
                  f"{name} must be JSON numbers{' or null' * nullable}")


def _json_entries(arrays: Iterable[list], allowed: frozenset, rule: str) -> None:
    """Raise DataError stating `rule` unless every entry of `arrays` has a
    type in `allowed`.  The entry types are scanned in C, not checked by a
    call per entry."""
    if not allowed.issuperset(map(type, chain.from_iterable(arrays))):
        bad = next(v for v in chain.from_iterable(arrays) if type(v) not in allowed)
        raise DataError(f"{rule}, got {bad!r}")


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, NaN forbidden."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path, obj) -> None:
    """One JSON value, sorted keys and default separators, then a newline."""
    text = json.dumps(obj, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json_lines(path, objs: Iterable) -> None:
    """One canonical JSON line per object."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(dumps_canonical(obj) + "\n")


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


@contextmanager
def in_file(path, line: int | None = None, what: str = "content", error_type=DataError):
    """Re-raise what the block raises on malformed content as one
    error_type naming path:line.  A toolkit error keeps its type and gets
    the same prefix; a JSON syntax error names its own line, counting the
    decoded text as starting on `line`."""
    where = f"{path}:{line}" if line else f"{path}"
    try:
        yield
    except MotionLinkError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error_type(f"{path}:{line + exc.lineno - 1}: not valid JSON "
                         f"({exc.msg} at column {exc.colno})") from None
    except _MALFORMED as exc:
        reason = (f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError)
                  else "nested too deeply" if isinstance(exc, RecursionError) else exc)
        raise error_type(f"{where}: bad {what}: {reason}") from None


def read_json(path, parse, what: str, error_type=DataError):
    """parse(value) of the one JSON value in a file.  Malformed content, in
    the text or in what `parse` makes of it, raises one error_type naming
    the file and a line: that of a bad byte or a syntax error, else 1."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise not_utf8(path, error_type) from None
    with in_file(path, 1, what, error_type):
        return parse(_decode(text))


def read_json_lines(path, parse, what: str) -> dict:
    """{line number: parse(value)} of each non-blank line of a JSON-lines
    file, in file order.  Malformed content raises one DataError naming
    its line."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    with in_file(path, lineno, what):
                        out[lineno] = parse(_decode(line))
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return out


def _series_obj(data: _SeriesDataset, row: int) -> dict:
    mags = data.mags[row].reshape(-1, data.codes.shape[1])
    entries = np.where(np.isnan(mags), None, mags).tolist()
    return {
        "source_id": data.ids[row],
        "channel": data.channel.value,
        "w": data.window_seconds,
        "activities": data.codes[row].tolist(),
        "magnitudes": dict(zip(_sequence_names(data.channel), entries)),
    }


def _parse_series(obj) -> tuple:
    """The dataset row of one series object."""
    _json_entries([obj["activities"]], _INTEGERS, "activity codes must be integers")
    seqs = obj["magnitudes"]
    if not _FINITE_OR_NULL.issuperset(map(type, chain.from_iterable(seqs.values()))):
        # a wrong type, or a non-finite literal named as the file writes it
        json_numbers(seqs.values(), "magnitude entries", nullable=True)
        name, j, value = next((name, j, v) for name, seq in seqs.items()
                              for j, v in enumerate(seq) if type(v) is _Literal)
        raise DataError(f"{name} magnitude entry {j} is not finite: {value!r}")
    return _series_row(json_value(obj["source_id"], str, "source_id"), Channel(obj["channel"]),
                       json_value(obj["w"], float, "w"), obj["activities"], seqs)


def write_dataset_jsonl(dataset: _SeriesDataset, path) -> None:
    write_json_lines(path, (_series_obj(dataset, row) for row in range(len(dataset))))


def read_dataset_jsonl(path) -> MotionDataset | VisualDataset:
    """Read a series file into one dataset, validated once after every
    line is parsed.  An error names its line, for a duplicate source id
    the second occurrence; series of mixed channel, width or length are
    refused."""
    rows = read_json_lines(path, _parse_series, "series")
    if not rows:
        raise DataError(f"{path}: no series found")
    lines = list(rows)
    return _from_rows(list(rows.values()), lambda i: f"{path}:{lines[i]}")

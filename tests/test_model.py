import ast
import importlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motionlink
from motionlink.engine import FilterConfig, filter_pairs_naive
from motionlink.errors import DataError, InvalidLabelCode, LengthMismatch
from motionlink.model import (
    ActivityLabel,
    Channel,
    MotionDataset,
    SensorPosition,
    VisualDataset,
    label_codes,
    label_from_token,
    read_dataset_jsonl,
    write_dataset_jsonl,
)
from motionlink.pipeline import fit_classifier
from motionlink.synth import (
    GroundTruth,
    permute_expand,
    synthesize_keypoint_trace,
    synthesize_motion_trace,
)
from motionlink.windex import build_index, filter_pairs_indexed
from series_rows import motion_series, visual_series

# Wire-format goldens.  These orderings are load-bearing: codes appear in
# serialized files and break ties, so they must never drift.
EXPECTED_LABEL_CODES = [
    ("IDLE", 0),
    ("BODY_ROTATION", 1),
    ("HEAD_ROTATION", 2),
    ("HAND_MOVEMENT", 3),
    ("WALKING", 4),
    ("BENDING", 5),
    ("JUMPING", 6),
    ("OTHER", 7),
]

EXPECTED_POSITIONS = [
    "left_front_pocket",
    "right_front_pocket",
    "left_back_pocket",
    "right_back_pocket",
    "left_wrist",
    "right_wrist",
]


def test_label_codes_are_frozen():
    assert [(l.name, int(l)) for l in ActivityLabel] == EXPECTED_LABEL_CODES


def test_label_tokens():
    assert label_from_token("walking") is ActivityLabel.WALKING
    assert label_from_token("BODY_ROTATION") is ActivityLabel.BODY_ROTATION
    assert ActivityLabel.HAND_MOVEMENT.token == "hand_movement"
    with pytest.raises(InvalidLabelCode):
        label_from_token("sprinting")


def test_sensor_positions_are_frozen():
    assert [p.value for p in SensorPosition] == EXPECTED_POSITIONS


def test_magnitude_seq_basics():
    seq = visual_series("a0", [0] * 4, {"left_wrist": [1.0, None, 0.0, 2.5]}).magnitude_for(
        SensorPosition.LEFT_WRIST)
    assert len(seq) == 4
    assert seq.observed_mask.sum() == 3
    assert seq.values[seq.observed_mask].tolist() == [1.0, 0.0, 2.5]
    assert list(seq.observed_mask) == [True, False, True, True]
    assert np.isnan(seq.values[1])


def test_series_length():
    assert len(motion_series("m0", (0,) * 10, [1.0] * 10)) == 10
    empty = motion_series("m0", (), [])
    assert len(empty) == 0


def series_line(tmp_path, channel, magnitudes):
    """A series file holding one line of `channel` with two windows."""
    path = tmp_path / "line.jsonl"
    path.write_text(json.dumps({"source_id": "s0", "channel": channel, "w": 1.0,
                                "activities": [0, 0], "magnitudes": magnitudes}) + "\n")
    return path


def test_motion_series_validation(tmp_path):
    with pytest.raises(LengthMismatch):
        motion_series("m0", (0, 1), [1.0])
    with pytest.raises(DataError):
        # unobservable entries are a visual-channel concept
        motion_series("m0", (0, 1), [1.0, None])
    path = series_line(tmp_path, "motion", {"left_wrist": [1.0, 1.0]})
    with pytest.raises(DataError, match="motion series needs magnitude sequences"):
        read_dataset_jsonl(path)


def test_visual_series_validation(tmp_path):
    # a visual line names every position, each with one entry per window
    mags = {p.value: [1.0, 1.0] for p in SensorPosition}
    del mags["left_wrist"]
    with pytest.raises(DataError, match="visual series needs magnitude sequences"):
        read_dataset_jsonl(series_line(tmp_path, "visual", mags))
    mags["left_wrist"] = [1.0]
    with pytest.raises(LengthMismatch, match="magnitude sequences of different lengths"):
        read_dataset_jsonl(series_line(tmp_path, "visual", mags))


def test_series_rejects_bad_window():
    with pytest.raises(DataError):
        motion_series("m0", (0, 4, 4), w=0.0)
    with pytest.raises(DataError):
        motion_series("m0", (0, 4, 4), w=-1.0)


def test_activity_codes_array():
    s = motion_series("m0", (ActivityLabel.IDLE, ActivityLabel.WALKING, ActivityLabel.JUMPING),
                      [1, 2, 3])
    assert s.codes.dtype == np.uint8
    assert s.codes.tolist() == [0, 4, 6]
    with pytest.raises(ValueError):
        s.codes[0] = 1  # a row view of read-only dataset columns


def series_file(tmp_path, series, name="s.jsonl"):
    """A series file holding the one series `series`."""
    path = tmp_path / name
    dataset = MotionDataset if series.channel is Channel.MOTION else VisualDataset
    write_dataset_jsonl(dataset([series]), path)
    return path


def test_motion_series_json_golden(tmp_path):
    s = motion_series("m1", (0, 4), [0.5, 2.0])
    assert series_file(tmp_path, s).read_text() == (
        '{"activities":[0,4],"channel":"motion","magnitudes":{"motion":[0.5,2.0]},'
        '"source_id":"m1","w":1.0}\n'
    )


def test_series_json_roundtrip_motion(tmp_path):
    s = motion_series("m2", (0, 1, 2, 3, 4, 5, 6, 7), [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    path = series_file(tmp_path, s)
    back = read_dataset_jsonl(path)[0]
    assert back == s
    assert series_file(tmp_path, back, "back.jsonl").read_bytes() == path.read_bytes()


def test_series_json_roundtrip_visual_with_unobservable(tmp_path):
    s = visual_series("a7", (4, 4, 6), {"left_wrist": [None, 1.25, None]})
    path = series_file(tmp_path, s)
    assert '"left_wrist":[null,1.25,null]' in path.read_text()
    back = read_dataset_jsonl(path)[0]
    assert back == s
    left_wrist = back.magnitude_for(SensorPosition.LEFT_WRIST)
    assert left_wrist.observed_mask.tolist() == [False, True, False]
    assert left_wrist.values[1] == 1.25


def test_series_from_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    for line, error in [
        ("not json at all {", DataError),
        ('["a","list"]', DataError),
        ('{"source_id":"x","channel":"motion","w":1.0}', DataError),
        ('{"source_id":"x","channel":"motion","w":1.0,"activities":[9],'
         '"magnitudes":{"motion":[1.0]}}', InvalidLabelCode),
    ]:
        path.write_text(line + "\n")
        with pytest.raises(error, match=f"{path}:1: "):
            read_dataset_jsonl(path)


@pytest.mark.parametrize("w, motion, message", [
    ("-Infinity", "[1.0]", "window width must be positive and finite, got -Infinity"),
    ("NaN", "[1.0]", "window width must be positive and finite, got NaN"),
    ("1.0", "[NaN]", "motion magnitude entry 0 is not finite: NaN"),
    ("1.0", "[1.0, Infinity]", "motion magnitude entry 1 is not finite: Infinity"),
    ("1.0", "[null, -Infinity]", "motion magnitude entry 1 is not finite: -Infinity"),
], ids=["w-minus-infinity", "w-nan", "nan-entry", "infinity-entry", "minus-infinity-entry"])
def test_non_finite_literals_are_refused_by_name(tmp_path, w, motion, message):
    # NaN and +-Infinity read as inf, which every check refuses; the error
    # quotes the literal in the file rather than that inf
    path = tmp_path / "bad.jsonl"
    codes = [0] * len(motion.split(","))
    path.write_text(f'{{"source_id":"x","channel":"motion","w":{w},"activities":{codes},'
                    f'"magnitudes":{{"motion":{motion}}}}}\n')
    with pytest.raises(DataError) as err:
        read_dataset_jsonl(path)
    assert str(err.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("codes", ["[1.5]", "[2.0]", "[true]"])
def test_series_codes_must_be_integers(tmp_path, codes):
    # a float or boolean code is refused, never truncated to an integer
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"source_id":"x","channel":"motion","w":1.0,"activities":{codes},'
                    f'"magnitudes":{{"motion":[1.0]}}}}\n')
    with pytest.raises(DataError, match=f"{path}:1: activity codes must be integers"):
        read_dataset_jsonl(path)
    with pytest.raises(DataError, match="activity codes must be integers"):
        motion_series("x", json.loads(codes), [1.0])


def _imports_json(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "json" or name.startswith("json.") for name in names):
            return True
    return False


def test_only_model_imports_json():
    # every file reader and writer goes through the JSON functions of model.py
    package = Path(motionlink.__file__).parent
    assert [p.name for p in sorted(package.rglob("*.py")) if _imports_json(p)] == ["model.py"]


def _reads_environ(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names):
            return True
    return False


def test_only_windex_reads_os_environ():
    # the memory cap has one source: MOTIONLINK_MEMORY_CAP, read in windex
    package = Path(motionlink.__file__).parent
    assert [p.name for p in sorted(package.rglob("*.py")) if _reads_environ(p)] == ["windex.py"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _motionlink_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every name `path` takes from motionlink: by
    `from motionlink... import X`, or as `alias.X` after `import motionlink`."""
    tree = ast.parse(path.read_text())
    aliases, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "motionlink"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "motionlink":
            names += [(node.module, alias.name) for alias in node.names]
    names += [("motionlink", node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases]
    return names


def test_every_name_perfbench_uses_still_resolves():
    # the benchmark is frozen between benchmark changes, so the library
    # keeps every name it takes
    names = [name for path in sorted(PERFBENCH.glob("*.py")) for name in _motionlink_names(path)]
    assert ("motionlink", "bench_scaling") in names
    assert ("motionlink.windex", "estimate_index_memory") in names
    assert [(module, name) for module, name in names
            if not hasattr(importlib.import_module(module), name)] == []


def test_dataset_invariants():
    a = motion_series("m0", (0, 4, 4))
    b = motion_series("m1", (0, 4, 4))
    ds = MotionDataset([a, b])
    assert len(ds) == 2
    assert ds.ids == ("m0", "m1")
    assert ds["m1"] == b
    assert "m0" in ds

    with pytest.raises(DataError):
        MotionDataset([a, motion_series("m0", (0, 4, 4))])
    with pytest.raises(DataError):
        MotionDataset([a, motion_series("m2", (0, 4, 4), w=2.0)])
    with pytest.raises(DataError):
        MotionDataset([visual_series("a0", (0, 4, 4))])
    with pytest.raises(DataError):
        MotionDataset([])


def test_dataset_uniform_length_and_matrix():
    ds = MotionDataset([
        motion_series("m0", (0, 4, 6), [1, 2, 3]),
        motion_series("m1", (7, 7, 7), [1, 2, 3]),
    ])
    assert ds.codes.dtype == np.uint8
    assert ds.codes.tolist() == [[0, 4, 6], [7, 7, 7]]
    assert ds.mags.tolist() == [[1, 2, 3], [1, 2, 3]]
    assert not ds.codes.flags.writeable and not ds.mags.flags.writeable

    with pytest.raises(LengthMismatch):
        MotionDataset.from_arrays(["m0"], ds.codes, ds.mags, 1.0)  # one id, two rows
    # a dataset cannot be ragged
    with pytest.raises(LengthMismatch):
        MotionDataset([
            motion_series("m0", (0,), [1]),
            motion_series("m1", (0, 1), [1, 2]),
        ])


U8 = np.uint8
FROM_ARRAYS_ERRORS = [
    pytest.param(MotionDataset, [], np.zeros((0, 3), U8), np.zeros((0, 3)), 1.0, DataError,
                 "dataset must contain at least one series", id="empty"),
    pytest.param(MotionDataset, ["m0"], np.zeros((1, 2), U8), np.ones((1, 2)), 0.0, DataError,
                 "series 'm0': window width must be positive and finite, got 0.0",
                 id="zero-width"),
    pytest.param(MotionDataset, ["m0"], np.zeros((1, 2), U8), np.ones((1, 2)), float("nan"),
                 DataError, "series 'm0': window width must be positive and finite, got nan",
                 id="nan-width"),
    pytest.param(MotionDataset, ["m0"], np.zeros((1, 3), U8), np.ones((1, 4)), 1.0,
                 LengthMismatch, "series 'm0': 3 activities vs magnitudes of shape (4,)",
                 id="motion-shape"),
    pytest.param(VisualDataset, ["a0"], np.zeros((1, 3), U8), np.ones((1, 3)), 1.0,
                 LengthMismatch, "series 'a0': 3 activities vs magnitudes of shape (3,)",
                 id="visual-shape"),
    pytest.param(MotionDataset, ["m0", "m1"], np.zeros(2, U8), np.ones((2, 2)), 1.0,
                 LengthMismatch, "series 'm0': 1 activities vs magnitudes of shape (2,)",
                 id="codes-one-dimensional"),
    pytest.param(MotionDataset, ["m0", "m1"], [[0, 1], [0]], [[1.0, 1.0], [1.0]], 1.0,
                 LengthMismatch, "series 'm1': 1 windows, series 'm0' has 2", id="ragged"),
    pytest.param(MotionDataset, ["m0"], np.zeros((1, 2)), np.ones((1, 2)), 1.0, DataError,
                 "series 'm0': activity codes must be integers, got float64",
                 id="float-codes"),
    pytest.param(MotionDataset, ["m0", "m1"], [[0, 1], [0.5, 1]], [[1.0, 1.0], [1.0, 1.0]],
                 1.0, DataError, "series 'm1': activity codes must be integers, got float64",
                 id="float-codes-in-second-row"),
    pytest.param(MotionDataset, ["m0", "m1"], np.array([[0, 7], [8, 0]]), np.ones((2, 2)),
                 1.0, InvalidLabelCode, "series 'm1': no activity label with code 8",
                 id="label-code"),
    pytest.param(MotionDataset, ["m0", "m1"], np.zeros((2, 2), U8),
                 np.array([[1.0, 1.0], [1.0, np.inf]]), 1.0, DataError,
                 "series 'm1': magnitude entry 1 is not finite: inf", id="infinite-magnitude"),
    pytest.param(VisualDataset, ["a0"], np.zeros((1, 3), U8),
                 np.where(np.arange(6)[:, None] == 4, [0.0, 1.0, -1.0], 1.0)[None], 1.0,
                 DataError, "series 'a0': left_wrist magnitude entry 2 is negative: -1.0",
                 id="negative-magnitude"),
    pytest.param(MotionDataset, ["m0"], np.zeros((1, 2), U8), np.array([[1.0, np.nan]]), 1.0,
                 DataError, "series 'm0': motion magnitudes cannot be unobservable",
                 id="unobservable-motion"),
    pytest.param(MotionDataset, ["m0", "m0"], np.zeros((2, 2), U8), np.ones((2, 2)), 1.0,
                 DataError, "series 'm0': duplicate source_id 'm0'", id="duplicate-id"),
    pytest.param(MotionDataset, ["m0", ""], np.zeros((2, 2), U8), np.ones((2, 2)), 1.0,
                 DataError, "series '': source_id must be non-empty", id="empty-id"),
    pytest.param(VisualDataset, ["a0"], [[0, 1]], [[[1.0, 1.0]] * 5 + [[1.0]]], 1.0,
                 DataError, "series 'a0': activities and magnitudes must be rectangular "
                 "numeric arrays", id="ragged-inside-magnitudes"),
    pytest.param(MotionDataset, ["m0"], [[0, [1]]], [[1.0, 1.0]], 1.0,
                 DataError, "series 'm0': activities and magnitudes must be rectangular "
                 "numeric arrays", id="ragged-inside-codes"),
]


@pytest.mark.parametrize("cls, ids, codes, mags, w, error, message", FROM_ARRAYS_ERRORS)
def test_from_arrays_names_the_first_bad_series(cls, ids, codes, mags, w, error, message):
    with pytest.raises(error) as err:
        cls.from_arrays(ids, codes, mags, w)
    assert type(err.value) is error and str(err.value) == message


def test_dataset_jsonl_roundtrip_byte_identical(tmp_path):
    ds = VisualDataset([
        visual_series("a0", (0, 1, 2, 3), {"right_wrist": [None, None, 3.5, 0.0]}),
        visual_series("a1", (4, 5, 6, 7)),
    ])
    p1 = tmp_path / "v1.jsonl"
    p2 = tmp_path / "v2.jsonl"
    write_dataset_jsonl(ds, p1)
    back = read_dataset_jsonl(p1)
    assert isinstance(back, VisualDataset)
    assert back.ids == ds.ids
    assert tuple(back) == tuple(ds)
    write_dataset_jsonl(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_dataset_reports_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    good = series_file(tmp_path, motion_series("m0", (0, 4, 4))).read_text()
    p.write_text(good + "{broken\n")
    with pytest.raises(DataError, match="2"):
        read_dataset_jsonl(p)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(DataError):
        read_dataset_jsonl(empty)


def test_json_floats_are_plain_numbers(tmp_path):
    # w serializes as a JSON number so readers in any language can parse it
    s = motion_series("m0", (0, 4, 4), w=0.5)
    obj = json.loads(series_file(tmp_path, s).read_text())
    assert obj["w"] == 0.5
    assert isinstance(obj["w"], float)


# ---------------------------------------------------------------------------
# the one activity-code check

LABEL_DTYPES = ["int8", "int64", "uint8", "uint16", "float64", "bool", "object"]


@st.composite
def code_arrays(draw):
    """An array of 0 to 3 dimensions, empty ones included, of one of
    LABEL_DTYPES, holding values in -2..300 that the dtype can represent."""
    dtype = np.dtype(draw(st.sampled_from(LABEL_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    lo, hi = (-2, 300) if dtype.kind not in "iu" else (
        max(-2, np.iinfo(dtype).min), min(300, np.iinfo(dtype).max))
    values = {"b": st.booleans(), "f": st.floats(-2, 300)}.get(dtype.kind, st.integers(lo, hi))
    flat = draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(flat, dtype=dtype).reshape(shape)


def label_codes_oracle(values: np.ndarray, where):
    """(error type, message) of label_codes on `values`, entry by entry in
    C order, or None if they are codes."""
    if not values.size:
        return None
    if values.dtype.kind not in "iu":
        return DataError, f"{where(0)}: activity codes must be integers, got {values.dtype}"
    row_size = values.size // len(values) if values.ndim else 1
    for i, value in enumerate(values.reshape(-1).tolist()):
        if not 0 <= value <= 7:
            return InvalidLabelCode, f"{where(i // row_size)}: no activity label with code {value}"
    return None


@settings(max_examples=400, deadline=None)
@given(values=code_arrays(), by_row=st.booleans())
def test_label_codes_matches_scalar_oracle(values, by_row):
    # `where` as a name, or (with a first axis) as a function of the bad row
    where = (lambda row: f"row {row}") if by_row and values.ndim else "codes"
    expected = label_codes_oracle(values, where if callable(where) else lambda row: where)
    if expected is None:
        out = label_codes(values, where)
        assert out.dtype == np.uint8 and out.shape == values.shape
        assert np.array_equal(out, values.astype(np.uint8))
    else:
        error, message = expected
        with pytest.raises(DataError) as err:
            label_codes(values, where)
        assert type(err.value) is error and str(err.value) == message


def _read_series(codes):
    """The dataset of a series file whose one line holds `codes`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.jsonl"
        path.write_text(json.dumps({"source_id": "m0", "channel": "motion", "w": 1.0,
                                    "activities": codes.tolist(),
                                    "magnitudes": {"motion": [1.0] * codes.size}}) + "\n")
        return read_dataset_jsonl(path)


def _index_query(codes):
    index = build_index(np.arange(8, dtype=np.uint8)[None], 1)
    return filter_pairs_indexed(codes[None], index)


# every entry point that takes activity codes, on one length-8 sequence
CODE_ENTRY_POINTS = {
    "dataset": lambda c: MotionDataset.from_arrays(["m0"], c[None], np.ones((1, c.size)), 1.0),
    "series": _read_series,
    "truth": lambda c: GroundTruth.from_dict({"avatars": {"a0": "u0"},
                                              "scripts": {"u0": c.tolist()}}),
    "motion-trace": lambda c: synthesize_motion_trace(c, np.ones(c.size), 1.0,
                                                      np.random.default_rng(0)),
    "keypoint-trace": lambda c: synthesize_keypoint_trace(c, np.ones(c.size), 1.0,
                                                          np.random.default_rng(0)),
    "fit-classifier": lambda c: fit_classifier(np.random.default_rng(0).random((c.size, 3)), c,
                                               Channel.MOTION),
    "build-index": lambda c: build_index(c[None], 1),
    "index-query": _index_query,
    "filter-config": lambda c: FilterConfig(restricted=frozenset(c.tolist())),
    "naive-restricted": lambda c: filter_pairs_naive(np.zeros((1, 8), np.uint8),
                                                     np.zeros((1, 8), np.uint8), 0.3,
                                                     frozenset(c.tolist())),
    "permute-expand": lambda c: permute_expand(c[None], 2),
}

BAD_CODES = [
    pytest.param(np.r_[np.arange(7), 8], id="8"),
    pytest.param(np.r_[np.arange(7), -1], id="minus-1"),
    pytest.param(np.r_[np.arange(7), 256], id="256"),  # wraps to 0 as uint8
    pytest.param(np.arange(8) + 0.5, id="float"),  # truncates to every code
    pytest.param(np.arange(8) % 2 == 1, id="bool"),
]


# entry points that take nested lists of codes, each with the name it gives them
RAGGED = [[0, 1], [2]]
RAGGED_ENTRY_POINTS = {
    "build-index": ("code matrix", lambda: build_index(RAGGED, 1)),
    "index-query": ("query matrix", lambda: filter_pairs_indexed(
        RAGGED, build_index(np.zeros((1, 2), np.uint8), 1))),
    "permute-expand": ("base rows", lambda: permute_expand(RAGGED, 2)),
    "motion-trace": ("script", lambda: synthesize_motion_trace(
        RAGGED, np.ones(2), 1.0, np.random.default_rng(0))),
    "keypoint-trace": ("script", lambda: synthesize_keypoint_trace(
        RAGGED, np.ones(2), 1.0, np.random.default_rng(0))),
}


@pytest.mark.parametrize("entry", RAGGED_ENTRY_POINTS)
def test_ragged_codes_are_refused_by_name(entry):
    where, call = RAGGED_ENTRY_POINTS[entry]
    with pytest.raises(DataError) as err:
        call()
    assert type(err.value) is DataError
    assert str(err.value) == f"{where}: activity codes must form a rectangular array"


@pytest.mark.parametrize("entry", CODE_ENTRY_POINTS)
def test_every_code_input_takes_valid_codes(entry):
    CODE_ENTRY_POINTS[entry](np.arange(8))


@pytest.mark.parametrize("codes", BAD_CODES)
@pytest.mark.parametrize("entry", CODE_ENTRY_POINTS)
def test_every_code_input_refuses_a_bad_code(entry, codes):
    with pytest.raises(DataError) as err:
        CODE_ENTRY_POINTS[entry](codes)
    assert type(err.value) in (DataError, InvalidLabelCode)

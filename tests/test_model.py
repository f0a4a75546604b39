import ast
import json
from pathlib import Path

import numpy as np
import pytest

import motionlink
from motionlink.errors import DataError, InvalidLabelCode, LengthMismatch
from motionlink.model import (
    ActivityLabel,
    ActivityVectorSeries,
    Channel,
    MagnitudeSeq,
    MotionDataset,
    SensorPosition,
    VisualDataset,
    label_from_token,
    read_dataset_jsonl,
    write_dataset_jsonl,
)

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


def make_visual_mags(n, fill=1.0):
    return {p.value: MagnitudeSeq([fill] * n) for p in SensorPosition}


def make_motion_series(source_id="m0", codes=(0, 4, 4), mags=None, w=1.0):
    codes = tuple(codes)
    if mags is None:
        mags = [1.0 + i for i in range(len(codes))]
    return ActivityVectorSeries(
        source_id=source_id,
        channel=Channel.MOTION,
        window_seconds=w,
        activities=tuple(ActivityLabel(c) for c in codes),
        magnitudes={"motion": MagnitudeSeq(mags)},
    )


def make_visual_series(source_id="a0", codes=(0, 4, 4), w=1.0, mags=None):
    codes = tuple(codes)
    return ActivityVectorSeries(
        source_id=source_id,
        channel=Channel.VISUAL,
        window_seconds=w,
        activities=tuple(ActivityLabel(c) for c in codes),
        magnitudes=mags if mags is not None else make_visual_mags(len(codes)),
    )


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
    seq = MagnitudeSeq([1.0, None, 0.0, 2.5])
    assert len(seq) == 4
    assert seq.observed_mask.sum() == 3
    assert seq.entries() == [1.0, None, 0.0, 2.5]
    assert list(seq.observed_mask) == [True, False, True, True]
    assert np.isnan(seq.values[1])


def test_magnitude_seq_rejects_bad_entries():
    with pytest.raises(DataError):
        MagnitudeSeq([1.0, -0.5])
    with pytest.raises(DataError):
        MagnitudeSeq([float("inf")])
    with pytest.raises(DataError):
        MagnitudeSeq([float("nan")])


def test_series_length():
    assert len(make_motion_series(codes=(0,) * 10, mags=[1.0] * 10)) == 10
    empty = make_motion_series(codes=(), mags=[])
    assert len(empty) == 0


def test_motion_series_validation():
    with pytest.raises(LengthMismatch):
        make_motion_series(codes=(0, 1), mags=[1.0])
    with pytest.raises(DataError):
        # unobservable entries are a visual-channel concept
        make_motion_series(codes=(0, 1), mags=[1.0, None])
    with pytest.raises(DataError):
        ActivityVectorSeries(
            source_id="m0",
            channel=Channel.MOTION,
            window_seconds=1.0,
            activities=(ActivityLabel.IDLE,),
            magnitudes={"left_wrist": MagnitudeSeq([1.0])},
        )


def test_visual_series_validation():
    with pytest.raises(DataError):
        mags = make_visual_mags(2)
        del mags["left_wrist"]
        ActivityVectorSeries(
            source_id="a0",
            channel=Channel.VISUAL,
            window_seconds=1.0,
            activities=(ActivityLabel.IDLE, ActivityLabel.IDLE),
            magnitudes=mags,
        )
    with pytest.raises(LengthMismatch):
        mags = make_visual_mags(2)
        mags["left_wrist"] = MagnitudeSeq([1.0])
        ActivityVectorSeries(
            source_id="a0",
            channel=Channel.VISUAL,
            window_seconds=1.0,
            activities=(ActivityLabel.IDLE, ActivityLabel.IDLE),
            magnitudes=mags,
        )


def test_series_rejects_bad_window():
    with pytest.raises(DataError):
        make_motion_series(w=0.0)
    with pytest.raises(DataError):
        make_motion_series(w=-1.0)


def test_activity_codes_array():
    s = make_motion_series(codes=(0, 4, 6), mags=[1, 2, 3])
    assert s.codes.dtype == np.uint8
    assert s.codes.tolist() == [0, 4, 6]
    assert s.activities == (ActivityLabel.IDLE, ActivityLabel.WALKING, ActivityLabel.JUMPING)
    with pytest.raises(ValueError):
        s.codes[0] = 1  # a row view of read-only dataset columns


def series_file(tmp_path, series, name="s.jsonl"):
    """A series file holding the one series `series`."""
    path = tmp_path / name
    dataset = MotionDataset if series.channel is Channel.MOTION else VisualDataset
    write_dataset_jsonl(dataset([series]), path)
    return path


def test_motion_series_json_golden(tmp_path):
    s = make_motion_series(source_id="m1", codes=(0, 4), mags=[0.5, 2.0], w=1.0)
    assert series_file(tmp_path, s).read_text() == (
        '{"activities":[0,4],"channel":"motion","magnitudes":{"motion":[0.5,2.0]},'
        '"source_id":"m1","w":1.0}\n'
    )


def test_series_json_roundtrip_motion(tmp_path):
    s = make_motion_series(source_id="m2", codes=(0, 1, 2, 3, 4, 5, 6, 7),
                           mags=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    path = series_file(tmp_path, s)
    back = read_dataset_jsonl(path)[0]
    assert back == s
    assert series_file(tmp_path, back, "back.jsonl").read_bytes() == path.read_bytes()


def test_series_json_roundtrip_visual_with_unobservable(tmp_path):
    mags = make_visual_mags(3)
    mags["left_wrist"] = MagnitudeSeq([None, 1.25, None])
    s = make_visual_series(source_id="a7", codes=(4, 4, 6), mags=mags)
    path = series_file(tmp_path, s)
    assert '"left_wrist":[null,1.25,null]' in path.read_text()
    back = read_dataset_jsonl(path)[0]
    assert back == s
    assert back.magnitude_for(SensorPosition.LEFT_WRIST).entries() == [None, 1.25, None]


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
        ActivityVectorSeries("x", Channel.MOTION, 1.0, json.loads(codes),
                             {"motion": MagnitudeSeq([1.0])})


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


def test_dataset_invariants():
    a = make_motion_series(source_id="m0")
    b = make_motion_series(source_id="m1")
    ds = MotionDataset([a, b])
    assert len(ds) == 2
    assert ds.ids == ("m0", "m1")
    assert ds["m1"] == b
    assert "m0" in ds

    with pytest.raises(DataError):
        MotionDataset([a, make_motion_series(source_id="m0")])
    with pytest.raises(DataError):
        MotionDataset([a, make_motion_series(source_id="m2", w=2.0)])
    with pytest.raises(DataError):
        MotionDataset([make_visual_series()])
    with pytest.raises(DataError):
        MotionDataset([])


def test_dataset_uniform_length_and_matrix():
    ds = MotionDataset([
        make_motion_series(source_id="m0", codes=(0, 4, 6), mags=[1, 2, 3]),
        make_motion_series(source_id="m1", codes=(7, 7, 7), mags=[1, 2, 3]),
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
            make_motion_series(source_id="m0", codes=(0,), mags=[1]),
            make_motion_series(source_id="m1", codes=(0, 1), mags=[1, 2]),
        ])


def test_dataset_jsonl_roundtrip_byte_identical(tmp_path):
    mags = make_visual_mags(4)
    mags["right_wrist"] = MagnitudeSeq([None, None, 3.5, 0.0])
    ds = VisualDataset([
        make_visual_series(source_id="a0", codes=(0, 1, 2, 3), mags=mags),
        make_visual_series(source_id="a1", codes=(4, 5, 6, 7)),
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
    good = series_file(tmp_path, make_motion_series()).read_text()
    p.write_text(good + "{broken\n")
    with pytest.raises(DataError, match="2"):
        read_dataset_jsonl(p)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(DataError):
        read_dataset_jsonl(empty)


def test_json_floats_are_plain_numbers(tmp_path):
    # w serializes as a JSON number so readers in any language can parse it
    s = make_motion_series(w=0.5)
    obj = json.loads(series_file(tmp_path, s).read_text())
    assert obj["w"] == 0.5
    assert isinstance(obj["w"], float)

import csv
import hashlib
import json
import logging
import math
from dataclasses import fields
from pathlib import Path

import pytest

from motionlink.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE,
    RunConfig,
    main,
)
from motionlink.engine import read_rankings_jsonl
from motionlink.errors import ConfigError
from motionlink.model import SensorPosition
from motionlink.pipeline import MOTION_FEATURE_DIM
from motionlink.windex import estimate_index_memory, plan_index


def write_spec(path, **overrides):
    payload = {"num_identities": 6, "n_windows": 24, "window_seconds": 1.0, "seed": 5}
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return str(path)


def generate(directory, **spec):
    """Paths of a cohort generated in `directory` from `write_spec(**spec)`."""
    directory.mkdir(exist_ok=True)
    out = directory / "data"
    assert main(["generate", "--spec", write_spec(directory / "spec.json", **spec),
                 "--out-dir", str(out)]) == EXIT_OK
    return {"visual": str(out / "visual.jsonl"), "motion": str(out / "motion.jsonl"),
            "truth": str(out / "truth.json")}


@pytest.fixture
def wide_dataset(tmp_path):
    """150 x 12 windows: at --t-norm 0.1 (t_abs 1) the filter plans the index."""
    return generate(tmp_path / "wide", num_identities=150, n_windows=12)


@pytest.fixture
def dataset(tmp_path):
    """A small noiseless cohort written to disk, plus its file paths."""
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "data"
    assert main(["generate", "--spec", spec, "--out-dir", str(out)]) == EXIT_OK
    return {
        "spec": spec,
        "visual": str(out / "visual.jsonl"),
        "motion": str(out / "motion.jsonl"),
        "truth": str(out / "truth.json"),
    }


class TestVersionAndParsing:
    def test_version_lists_every_format(self, capsys):
        assert main(["--version"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("motionlink ")
        for name in ("series-jsonl", "rankings-jsonl", "truth-json",
                     "scaling-csv", "sweep-csv"):
            assert name in out
        assert "index-snapshot" not in out

    def test_unknown_subcommand_is_config_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_missing_required_flag_is_config_error(self, capsys):
        assert main(["generate", "--spec", "x.json"]) == EXIT_CONFIG


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.t_norm == 0.30
        assert cfg.restricted is False

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(t_norm=1.5)
        with pytest.raises(ConfigError):
            RunConfig(top_k=0)


class TestGenerate:
    def test_summary_line(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        assert main(["generate", "--spec", spec, "--out-dir", str(tmp_path / "d")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "p=6" in out and "q=6" in out and "k=24" in out

    @pytest.mark.parametrize("reason", ["Unable to allocate 7.45 TiB for an array", ""])
    def test_out_of_memory_is_resource_error(self, tmp_path, capsys, monkeypatch, reason):
        # a cohort too large for numpy to allocate; the command is stubbed,
        # so nothing large is allocated here
        def generate(args):
            raise MemoryError(reason)

        monkeypatch.setattr("motionlink.cli.cmd_generate", generate)
        spec = write_spec(tmp_path / "spec.json", num_identities=1_000_000, n_windows=100_000)
        assert main(["generate", "--spec", spec, "--out-dir", str(tmp_path / "d")]) \
            == EXIT_RESOURCE
        assert capsys.readouterr().err == f"error: {reason or 'out of memory'}\n"

    def test_byte_identical_across_runs(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        for d in ("a", "b"):
            assert main(["generate", "--spec", spec, "--out-dir", str(tmp_path / d)]) == EXIT_OK
        for name in ("visual.jsonl", "motion.jsonl", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # sha256 of visual.jsonl, motion.jsonl and truth.json, taken before
    # datasets became columnar
    PINNED = {
        "c10": ("dd2b3f094f4585765b8f6e839402ba35d687bd16d07d5a276fe3287fb61ca0eb",
                "83d649d5ea75d39552fdcd774b388b2b8149f9159fac237940a6df684fba862d",
                "e887d9540eddb954bcb4b07d100c4d3dcfd91db6b18c845653e14d86cc0728b1"),
        "271x60": ("8b55a2be954e7611edf526fe8e2454aa09a64fa240ff728412588610d15ef281",
                   "d26b0f8857f3c526b9279f6f84b71ecd9507633e35cceddfb920e8bc307fab28",
                   "9f32f2cd2d9681afa4ea18333cacda555a7b739e58c3a1ca59fe56a7d5f67b04"),
    }

    @pytest.mark.parametrize("name, spec", [
        ("c10", {"num_identities": 6, "n_windows": 24, "seed": 77, "magnitude_noise_sd": 0.1}),
        ("271x60", {"num_identities": 271, "n_windows": 60, "seed": 42,
                    "magnitude_noise_sd": 0.15,
                    "motion_confusion": [[0.8 if i == j else 0.2 / 7 for j in range(8)]
                                         for i in range(8)],
                    "visual_confusion": [[0.7 if i == j else 0.3 / 7 for j in range(8)]
                                         for i in range(8)],
                    "position_observability": {"left_wrist": 0.7,
                                               "right_back_pocket": 0.5}}),
    ])
    def test_generated_bytes_are_pinned(self, tmp_path, name, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["generate", "--spec", str(path), "--out-dir", str(tmp_path / "d")]) == 0
        digests = tuple(hashlib.sha256((tmp_path / "d" / f).read_bytes()).hexdigest()
                        for f in ("visual.jsonl", "motion.jsonl", "truth.json"))
        assert digests == self.PINNED[name]

    def test_bad_prior_names_the_field(self, tmp_path, capsys):
        prior = {"idle": 0.9}  # nowhere near summing to 1
        spec = write_spec(tmp_path / "spec.json", activity_prior=prior)
        assert main(["generate", "--spec", spec, "--out-dir", str(tmp_path / "d")]) == EXIT_CONFIG
        assert "activity_prior" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("seed", -1),
        ("activity_prior", {"idle": math.nan, "walking": 1.0}),
        ("intensity_range", [1.0, math.inf]),
        ("magnitude_noise_sd", math.nan),
        ("magnitude_base", {"idle": math.nan}),
        ("magnitude_base", {"walking": math.inf}),
        ("window_seconds", math.inf),
        ("seed", 1.5),
        ("num_identities", 3.9),
        ("n_windows", "12"),
        ("num_identities", True),
        ("shared_script", "false"),
        ("window_seconds", True),
        ("magnitude_noise_sd", "0.1"),
        ("intensity_range", ["1", 2]),
        ("activity_prior", {"idle": "0.5", "walking": 0.5}),
        ("magnitude_base", {"idle": False}),
        ("position_observability", {"left_wrist": True}),
        ("motion_confusion", [[1.0 if i == j else 0 for j in range(8)] for i in range(7)]
         + [["0"] * 7 + [1.0]]),
    ], ids=["seed", "prior-nan", "intensity-inf", "noise-nan", "base-nan", "base-inf",
            "width-inf", "seed-float", "count-float", "windows-string", "count-bool",
            "shared-string", "width-bool", "noise-string", "intensity-string",
            "prior-string", "base-bool", "observability-bool", "confusion-string"])
    def test_bad_spec_value_is_config_error(self, tmp_path, capsys, field, value):
        spec = write_spec(tmp_path / "spec.json", **{field: value})
        out = tmp_path / "d"
        assert main(["generate", "--spec", spec, "--out-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}:1: {field} ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_traces_layout(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", num_identities=2, n_windows=10)
        out = tmp_path / "d"
        assert main(["generate", "--spec", spec, "--out-dir", str(out), "--traces"]) == EXIT_OK
        assert sorted(p.name for p in (out / "motion").iterdir()) == ["u0000.csv", "u0001.csv"]
        assert sorted(p.name for p in (out / "keypoints").iterdir()) == ["a0000.jsonl", "a0001.jsonl"]
        assert (out / "truth.json").exists()


class TestCorrelate:
    def test_noiseless_cohort_ranks_perfectly(self, dataset, tmp_path, capsys):
        rank = tmp_path / "rank.jsonl"
        report = tmp_path / "report.json"
        rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                   "--out", str(rank), "--truth", dataset["truth"], "--report", str(report)])
        assert rc == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["top_1_rate"] == 1.0
        lines = rank.read_text().splitlines()
        assert len(lines) == 6
        assert all(json.loads(l)["ranking"] for l in lines)

    def test_naive_and_indexed_write_identical_files(self, wide_dataset, tmp_path,
                                                     monkeypatch, caplog):
        # the filter plans the index; a cap below its estimate forces the naive scan
        caplog.set_level(logging.INFO, logger="motionlink.engine")
        outs = {}
        for plan, cap in (("indexed", None), ("naive", "1024")):
            if cap:
                monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", cap)
            caplog.clear()
            out = tmp_path / f"{plan}.jsonl"
            rc = main(["correlate", "--visual", wide_dataset["visual"], "--motion",
                       wide_dataset["motion"], "--out", str(out), "--t-norm", "0.1"])
            assert rc == EXIT_OK
            assert f"filter plan: {plan} " in caplog.text
            outs[plan] = out.read_bytes()
        assert outs["naive"] == outs["indexed"]

    def test_repeated_runs_write_identical_files(self, dataset, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.jsonl"
            rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                       "--out", str(out)])
            assert rc == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_report_without_truth_fails_before_writing(self, dataset, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                   "--out", str(out), "--report", str(tmp_path / "report.json")])
        assert rc == EXIT_CONFIG
        assert "--truth" in capsys.readouterr().err
        assert not out.exists()

    def test_top_k_without_report_fails_before_writing(self, dataset, tmp_path, capsys):
        # only the report reads top_k, so without one the flag would set nothing
        out = tmp_path / "r.jsonl"
        rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                   "--out", str(out), "--top-k", "1"])
        assert rc == EXIT_CONFIG
        assert "--top-k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["not json\n", '{"avatars": [], "scripts": {}}\n'])
    def test_bad_truth_is_data_error_before_writing(self, dataset, tmp_path, capsys, text):
        truth = tmp_path / "truth.json"
        truth.write_text(text)
        out = tmp_path / "r.jsonl"
        rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                   "--out", str(out), "--truth", str(truth)])
        assert rc == EXIT_DATA
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("magnitudes", [1, 2]),
        ("activities", "x"),
    ])
    def test_malformed_series_line_is_data_error(self, dataset, tmp_path, capsys,
                                                 field, value):
        visual = Path(dataset["visual"])
        lines = visual.read_text().splitlines()
        obj = json.loads(lines[1])
        obj[field] = value
        lines[1] = json.dumps(obj)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.jsonl"
        rc = main(["correlate", "--visual", str(bad), "--motion", dataset["motion"],
                   "--out", str(out)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("which, lineno, mutate, message", [
        # a series at odds with the rest of its file: the line that breaks
        # the dataset is named, for a duplicate id its second occurrence
        ("visual", 3, lambda obj, first: obj.update(source_id=first["source_id"]),
         "duplicate source_id"),
        ("visual", 2, lambda obj, first: obj.update(
            channel="motion", magnitudes={"motion": obj["magnitudes"]["left_wrist"]}),
         "expected visual series, got motion"),
        ("motion", 4, lambda obj, first: obj.update(w=2.0), "window width 2.0"),
        ("motion", 5, lambda obj, first: obj.update(
            activities=obj["activities"][:-1],
            magnitudes={"motion": obj["magnitudes"]["motion"][:-1]}), "23 windows"),
        # bad entries; a non-finite literal is never read as an unobservable
        # null, and is named as written
        ("visual", 2, lambda obj, first: obj["magnitudes"]["left_wrist"].__setitem__(
            0, math.nan), "left_wrist magnitude entry 0 is not finite: NaN"),
        ("motion", 2, lambda obj, first: obj["magnitudes"]["motion"].__setitem__(
            0, math.nan), "motion magnitude entry 0 is not finite: NaN"),
        ("visual", 2, lambda obj, first: obj["magnitudes"]["right_wrist"].__setitem__(
            3, math.inf), "right_wrist magnitude entry 3 is not finite: Infinity"),
        ("motion", 1, lambda obj, first: obj.update(w=-math.inf),
         "window width must be positive and finite, got -Infinity"),
        ("motion", 2, lambda obj, first: obj["magnitudes"]["motion"].__setitem__(
            1, -0.5), "magnitude entry 1 is negative"),
        ("visual", 2, lambda obj, first: obj["activities"].__setitem__(0, 8),
         "no activity label with code 8"),
        # a float or boolean code is refused, never truncated
        ("visual", 3, lambda obj, first: obj.update(
            activities=[c + 0.5 for c in obj["activities"]]), "activity codes must be integers"),
        ("motion", 2, lambda obj, first: obj.update(
            activities=[c % 2 == 1 for c in obj["activities"]]),
         "activity codes must be integers"),
        # one boolean among integer codes would otherwise be cast to 0 or 1
        ("motion", 2, lambda obj, first: obj["activities"].__setitem__(1, True),
         "activity codes must be integers, got True"),
        ("visual", 3, lambda obj, first: obj["activities"].__setitem__(0, False),
         "activity codes must be integers, got False"),
        # every position, each with one entry per window
        ("visual", 2, lambda obj, first: obj["magnitudes"].pop("left_wrist"),
         "visual series needs magnitude sequences"),
        ("visual", 3, lambda obj, first: obj["magnitudes"]["right_wrist"].pop(),
         "magnitude sequences of different lengths"),
    ], ids=["duplicate-id", "second-channel", "second-width", "other-length",
            "visual-nan", "motion-nan", "infinity", "minus-infinity-width", "negative",
            "code-8", "float-codes", "bool-codes", "motion-bool-among-codes",
            "visual-bool-among-codes", "missing-position", "ragged-sequences"])
    def test_bad_series_line_is_named(self, dataset, tmp_path, capsys, which, lineno,
                                      mutate, message):
        objs = [json.loads(line) for line in Path(dataset[which]).read_text().splitlines()]
        mutate(objs[lineno - 1], objs[0])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        files = {"visual": dataset["visual"], "motion": dataset["motion"], which: str(bad)}
        out = tmp_path / "r.jsonl"
        rc = main(["correlate", "--visual", files["visual"], "--motion", files["motion"],
                   "--out", str(out)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:{lineno}: " in err and message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_missing_motion_file_is_io_error(self, dataset, tmp_path):
        rc = main(["correlate", "--visual", dataset["visual"], "--motion",
                   str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "r.jsonl")])
        assert rc == EXIT_IO

    def test_length_mismatch_is_data_error_not_io(self, dataset, tmp_path):
        other_spec = write_spec(tmp_path / "other.json", n_windows=12)
        other = tmp_path / "other"
        assert main(["generate", "--spec", other_spec, "--out-dir", str(other)]) == EXIT_OK
        rc = main(["correlate", "--visual", dataset["visual"], "--motion",
                   str(other / "motion.jsonl"), "--out", str(tmp_path / "r.jsonl")])
        assert rc == EXIT_DATA

    def test_swapped_channels_is_data_error(self, dataset, tmp_path):
        rc = main(["correlate", "--visual", dataset["motion"], "--motion", dataset["visual"],
                   "--out", str(tmp_path / "r.jsonl")])
        assert rc == EXIT_DATA

    def test_w_flag_is_refused(self, dataset, tmp_path, capsys):
        # the series files carry the width, so even their own width is refused
        out = tmp_path / "r.jsonl"
        rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                   "--out", str(out), "-w", "1.0"])
        assert rc == EXIT_CONFIG
        assert "-w" in capsys.readouterr().err
        assert not out.exists()

    # a valid value other than the default for every RunConfig field
    NON_DEFAULT = {"t_norm": 0.1, "restricted": True, "min_observed_fraction": 0.9,
                   "top_k": 1}

    def test_every_run_setting_changes_the_output(self, tmp_path):
        # a setting that changes neither the rankings nor the report, its
        # echo of the settings aside, is inert; a new field with no entry in
        # NON_DEFAULT fails with KeyError.  Noisy labels and magnitudes and
        # partly observed positions give every setting something to change
        confusion = [[0.8 if i == j else 0.2 / 7 for j in range(8)] for i in range(8)]
        data = generate(tmp_path, num_identities=12, n_windows=12, magnitude_noise_sd=0.5,
                        motion_confusion=confusion, visual_confusion=confusion,
                        position_observability={p.value: 0.8 for p in SensorPosition})

        def run(name, settings):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(settings))
            out, report = tmp_path / f"{name}.jsonl", tmp_path / f"{name}-report.json"
            assert main(["correlate", "--visual", data["visual"], "--motion", data["motion"],
                         "--truth", data["truth"], "--config", str(cfg), "--out", str(out),
                         "--report", str(report)]) == EXIT_OK
            scores = json.loads(report.read_text())
            scores.pop("config")
            return out.read_bytes(), scores

        default = run("default", {})
        for f in fields(RunConfig):
            assert f.default != self.NON_DEFAULT[f.name]
            changed = run(f.name, {f.name: self.NON_DEFAULT[f.name]})
            assert changed[0] != default[0] or changed[1] != default[1], f.name

    def test_index_mode_flag_and_key_are_refused(self, dataset, tmp_path, capsys):
        # the filter plans its own path
        out = tmp_path / "r.jsonl"
        base = ["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                "--out", str(out)]
        assert main(base + ["--index-mode", "indexed"]) == EXIT_CONFIG
        assert "--index-mode" in capsys.readouterr().err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"index_mode": "naive"}))
        assert main(base + ["--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.endswith(":1: unknown config keys: index_mode\n")
        assert not out.exists()

    def test_memory_cap_env_is_resource_error(self, wide_dataset, tmp_path, monkeypatch):
        # an offset grid over the cap exits 4; the filter plans around it
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "1024")
        rc = main(["align", "--motion-csv", str(tmp_path / "none.csv"), "--visual",
                   wide_dataset["visual"], "--avatar", "a0000", "--out",
                   str(tmp_path / "x.json")])
        assert rc == EXIT_RESOURCE
        rc = main(["correlate", "--visual", wide_dataset["visual"], "--motion",
                   wide_dataset["motion"], "--out", str(tmp_path / "r.jsonl"), "--t-norm", "0.1"])
        assert rc == EXIT_OK

    def test_malformed_memory_cap_exits_2_where_the_index_is_planned(
            self, wide_dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "8GiB")
        out = tmp_path / "r.jsonl"
        assert main(["correlate", "--visual", wide_dataset["visual"], "--motion",
                     wide_dataset["motion"], "--t-norm", "0.1", "--out", str(out)]) == EXIT_CONFIG
        assert "MOTIONLINK_MEMORY_CAP must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--restricted"]])
    def test_malformed_memory_cap_exits_2_where_the_scan_is_planned(
            self, dataset, tmp_path, monkeypatch, capsys, flags):
        # 6 x 24 windows plan the naive scan, and a restricted set rules the
        # index out; the cap is read before the plan all the same
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "8GiB")
        out = tmp_path / "r.jsonl"
        assert main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                     "--out", str(out)] + flags) == EXIT_CONFIG
        assert "MOTIONLINK_MEMORY_CAP must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_cap_covers_the_index_query(self, wide_dataset, tmp_path, monkeypatch,
                                               caplog):
        # 150 x 12 windows at t_norm 0.1: t_abs 1.  The cap clears the build
        # estimate but not the build plus the query, so the naive scan runs
        caplog.set_level(logging.INFO, logger="motionlink.engine")
        argv = ["correlate", "--visual", wide_dataset["visual"], "--motion",
                wide_dataset["motion"], "--t-norm", "0.1", "--out"]
        assert main(argv + [str(tmp_path / "indexed.jsonl")]) == EXIT_OK
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(estimate_index_memory(150, 12, 1) + 1))
        caplog.clear()
        assert main(argv + [str(tmp_path / "naive.jsonl")]) == EXIT_OK
        assert "filter plan: naive " in caplog.text
        assert "index refused: index over q=150 k=12 t_abs=1 and its query" in caplog.text
        assert ((tmp_path / "naive.jsonl").read_bytes()
                == (tmp_path / "indexed.jsonl").read_bytes())

    def test_filter_plan_goes_to_stderr_only(self, dataset, tmp_path, capsys):
        # one plan line per run on stderr, naming m; stdout is the summary alone
        out = tmp_path / "r.jsonl"
        argv = ["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                "--out", str(out)]
        for _ in range(2):
            assert main(argv) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.out == f"ranked 6 avatars (6 with candidates) -> {out}\n"
            plans = [l for l in captured.err.splitlines() if "filter plan:" in l]
            assert len(plans) == 1
            assert plans[0].startswith("motionlink.engine: filter plan: naive for p=6 q=6 n=24, ")
            assert " at m=" in plans[0]
        assert not logging.getLogger("motionlink").handlers

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"t_norm": 1.0, "top_k": 2}))
        report = tmp_path / "report.json"
        rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                   "--out", str(tmp_path / "r.jsonl"), "--truth", dataset["truth"],
                   "--report", str(report), "--config", str(cfg), "--t-norm", "0.2"])
        assert rc == EXIT_OK
        echo = json.loads(report.read_text())["config"]
        assert echo["t_norm"] == 0.2  # flag beat the file
        assert json.loads(report.read_text())["top_k"] == 2  # file value survived

    def test_unknown_config_key_is_config_error(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tnorm": 0.5}))
        rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                   "--out", str(tmp_path / "r.jsonl"), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert "tnorm" in capsys.readouterr().err

    def test_threads_config_key_is_rejected(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"threads": 2}))
        rc = main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                   "--out", str(tmp_path / "r.jsonl"), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert "threads" in capsys.readouterr().err

    def test_seed_config_key_and_flag_are_rejected(self, dataset, tmp_path, capsys):
        # correlate draws nothing at random, so a seed would be ignored silently
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 3}))
        out = tmp_path / "r.jsonl"
        base = ["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                "--out", str(out)]
        assert main(base + ["--config", str(cfg)]) == EXIT_CONFIG
        assert "unknown config keys: seed" in capsys.readouterr().err
        assert main(base + ["--seed", "3"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_one_size_two_rows(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        assert main(["bench", "--sizes", "100x100", "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert [r["method"] for r in rows] == ["naive", "indexed"]
        assert all(r["status"] == "ok" for r in rows)
        assert rows[0]["pairs_retained"] == rows[1]["pairs_retained"]

    def test_indexed_rows_log_their_plan_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        assert main(["bench", "--sizes", "100x100", "--k", "60", "--t-abs", "18",
                     "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert [l.split(":")[0] for l in captured.out.splitlines()] == [
            "naive 100x100", "indexed 100x100"]
        plans = [l for l in captured.err.splitlines() if "filter plan:" in l]
        m, _ = plan_index(100, 100, 60, 18)
        assert len(plans) == 1 and plans[0].endswith(f" at m={m}")
        assert plans[0].startswith(
            "motionlink.evalbench: filter plan: indexed for p=100 q=100 n=60, ")

    def test_naive_cutoff_marks_row_skipped(self, tmp_path):
        out = tmp_path / "scaling.csv"
        rc = main(["bench", "--sizes", "200x200", "--out", str(out),
                   "--k", "5", "--t-abs", "1", "--naive-cutoff", "10000"])
        assert rc == EXIT_OK
        rows = {r["method"]: r for r in csv.DictReader(out.open())}
        assert rows["naive"]["status"] == "skipped"
        assert rows["naive"]["wall_time_ms"] == ""
        assert rows["indexed"]["status"] == "ok"

    def test_retained_counts_reproducible(self, tmp_path):
        counts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["bench", "--sizes", "80x80,160x160", "--out", str(out)]) == EXIT_OK
            counts.append([r["pairs_retained"] for r in csv.DictReader(out.open())])
        assert counts[0] == counts[1]

    def test_malformed_sizes_is_config_error(self, tmp_path, capsys):
        rc = main(["bench", "--sizes", "100by100", "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_CONFIG


class TestEvaluate:
    def test_round_trip_through_files(self, dataset, tmp_path, capsys):
        rank = tmp_path / "rank.jsonl"
        assert main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                     "--out", str(rank)]) == EXIT_OK
        capsys.readouterr()
        report = tmp_path / "report.json"
        rc = main(["evaluate", "--rankings", str(rank), "--truth", dataset["truth"],
                   "--out", str(report)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "top-1 rate 1.0000" in out
        payload = json.loads(report.read_text())
        assert payload["fraction_correct"] == 1.0

    def test_truth_missing_an_avatar_is_data_error(self, dataset, tmp_path):
        rank = tmp_path / "rank.jsonl"
        assert main(["correlate", "--visual", dataset["visual"], "--motion", dataset["motion"],
                     "--out", str(rank)]) == EXIT_OK
        truth = json.loads(open(dataset["truth"]).read())
        truth["avatars"].popitem()
        broken = tmp_path / "truth.json"
        broken.write_text(json.dumps(truth))
        rc = main(["evaluate", "--rankings", str(rank), "--truth", str(broken)])
        assert rc == EXIT_DATA

    def test_repeated_avatar_is_data_error(self, tmp_path, capsys):
        paths = generate(tmp_path / "five", num_identities=5)
        rank, report = tmp_path / "rank.jsonl", tmp_path / "report.json"
        assert main(["correlate", "--visual", paths["visual"], "--motion", paths["motion"],
                     "--out", str(rank)]) == EXIT_OK
        truth = json.loads(Path(paths["truth"]).read_text())["avatars"]
        wrong = next(u for u in sorted(truth.values()) if u != truth["a0000"])
        with rank.open("a") as fh:  # a sixth line, naming a0000 again with a wrong identity
            fh.write(json.dumps({"avatar": "a0000", "ranking": [
                {"identity": wrong, "rho": 0.5, "position": "left_wrist"}]}) + "\n")
        capsys.readouterr()
        rc = main(["evaluate", "--rankings", str(rank), "--truth", paths["truth"],
                   "--out", str(report)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == f"error: {rank}:6: avatar 'a0000' repeats line 1\n"
        assert not report.exists()

    @pytest.mark.parametrize("content", ["", "\n \n"])
    def test_empty_rankings_file_is_data_error(self, dataset, tmp_path, capsys, content):
        rank, report = tmp_path / "rank.jsonl", tmp_path / "report.json"
        rank.write_text(content)
        rc = main(["evaluate", "--rankings", str(rank), "--truth", dataset["truth"],
                   "--out", str(report)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == f"error: {rank}: no rankings found\n"
        assert not report.exists()


class TestSweep:
    def test_grid_csv(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", num_identities=4, n_windows=16)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--spec", spec, "--w-values", "1.0",
                   "--t-values", "0.3,1.0", "--out", str(out)])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        # a full-width threshold never filters, so nobody is left unmatched
        full = next(r for r in rows if r["t_norm"] == "1.0")
        assert full["fraction_none"] == "0.0"

    def test_threads_flag_is_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", num_identities=4, n_windows=16)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--spec", spec, "--w-values", "1.0", "--t-values", "0.3",
                   "--out", str(out), "--threads", "2"])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_bad_values_list_is_config_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        rc = main(["sweep", "--spec", spec, "--w-values", "", "--t-values", "0.3",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("grid", [["--w-values", "-1", "--t-values", "0.3"],
                                      ["--w-values", "nan", "--t-values", "0.3"],
                                      ["--w-values", "inf", "--t-values", "0.3"],
                                      ["--w-values", "1.0", "--t-values", "1.5"]],
                             ids=["negative-w", "nan-w", "infinite-w", "t-over-one"])
    def test_trace_mode_checks_the_grid_before_synthesizing(self, tmp_path, capsys,
                                                            monkeypatch, grid):
        def synthesize(*args, **kwargs):
            raise AssertionError("traces synthesized for a grid that is refused")

        monkeypatch.setattr("motionlink.cli.synthesize_trace_cohort", synthesize)
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", spec, "--trace-mode", *grid,
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_top_k_flag_is_refused(self, tmp_path, capsys):
        # the CSV has no top-k column for the flag to set
        spec = write_spec(tmp_path / "spec.json", num_identities=4, n_windows=16)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", spec, "--w-values", "1.0", "--t-values", "0.3",
                     "--out", str(out), "--top-k", "3"]) == EXIT_CONFIG
        assert "--top-k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("widths, widest", [("100,1", "100.0"), ("20", "20.0")])
    def test_width_longer_than_the_spec_exits_before_generating(self, tmp_path, capsys,
                                                                monkeypatch, widths, widest):
        # 12 windows of 1 s: a 20 s or 100 s window does not fit even once
        def generate_cohort(*args, **kwargs):
            raise AssertionError("cohort generated for a grid with a width that cannot fit")

        monkeypatch.setattr("motionlink.evalbench.generate_cohort", generate_cohort)
        spec = write_spec(tmp_path / "spec.json", num_identities=3, n_windows=12)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", spec, "--w-values", widths, "--t-values", "0.3",
                     "--out", str(out)]) == EXIT_DATA
        assert f"records less than one {widest}s window" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_mode_sweeps_a_width_off_the_frame_grid(self, tmp_path, capsys):
        # 0.75 s windows hold 22 frames of 0.0341 s; the visual classifier
        # once lost its last window to a 1/30 s frame step and exited 3
        spec = tmp_path / "spec.json"
        spec.write_text('{"num_identities": 4, "n_windows": 12, "seed": 1}')
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", str(spec), "--trace-mode", "--w-values",
                     "0.5,0.75,1", "--t-values", "0.3", "--out", str(out)]) == EXIT_OK
        assert [row["w"] for row in csv.DictReader(out.open())] == ["0.5", "0.75", "1.0"]

    def test_trace_mode_width_longer_than_the_traces_exits_before_training(
            self, tmp_path, capsys, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("classifier trained for a grid with a width that cannot fit")

        monkeypatch.setattr("motionlink.evalbench.train_classifier", train)
        spec = write_spec(tmp_path / "spec.json", num_identities=3, n_windows=12)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", spec, "--trace-mode", "--w-values", "0.5,100",
                     "--t-values", "0.3", "--out", str(out)]) == EXIT_DATA
        assert "shorter than one 100.0s window" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traces")
    spec = write_spec(tmp / "spec.json", num_identities=2, n_windows=16, seed=9)
    out = tmp / "d"
    assert main(["generate", "--spec", spec, "--out-dir", str(out), "--traces"]) == EXIT_OK
    return out


# one command per input-file reader, {bad} the file under test; each
# command's other inputs are well formed
READERS = {
    "visual": (["correlate", "--visual", "{bad}", "--motion", "{motion}", "--out", "{out}"],
               EXIT_DATA),
    "motion": (["correlate", "--visual", "{visual}", "--motion", "{bad}", "--out", "{out}"],
               EXIT_DATA),
    "config": (["correlate", "--config", "{bad}", "--visual", "{visual}", "--motion",
                "{motion}", "--out", "{out}"], EXIT_CONFIG),
    "rankings": (["evaluate", "--rankings", "{bad}", "--truth", "{truth}", "--out", "{out}"],
                 EXIT_DATA),
    "spec": (["generate", "--spec", "{bad}", "--out-dir", "{out}"], EXIT_CONFIG),
    "motion-csv": (["build-series", "--trace", "{bad}", "--channel", "motion", "--out",
                    "{out}"], EXIT_DATA),
    "keypoints": (["build-series", "--trace", "{bad}", "--channel", "visual", "--out",
                   "{out}"], EXIT_DATA),
    "truth": (["evaluate", "--rankings", "{rankings}", "--truth", "{bad}", "--out", "{out}"],
              EXIT_DATA),
    "model": (["build-series", "--trace", "{trace}", "--channel", "motion", "--out", "{out}",
               "--model", "{bad}"], EXIT_DATA),
}
JSON_READERS = [name for name in READERS if name != "motion-csv"]


def run_on_bad_file(reader, content: bytes, dataset, trace_dir, tmp_path, capsys) -> str:
    """stderr of the reader's command on a file holding `content`, after
    checking its exit code, that it is one line naming the file, and that
    no output was written."""
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    rankings = tmp_path / "rankings.jsonl"
    rankings.write_text(f"{ranking_line('0.5')}\n")
    out = tmp_path / "out"
    names = dict(dataset, bad=str(bad), out=str(out), rankings=str(rankings),
                 trace=str(trace_dir / "motion" / "u0000.csv"))
    argv, code = READERS[reader]
    assert main([arg.format(**names) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
    return err


@pytest.mark.parametrize("reader", READERS)
def test_undecodable_input_is_one_line_error(dataset, trace_dir, tmp_path, capsys, reader):
    # a UTF-16 byte-order mark on line 2: not UTF-8
    err = run_on_bad_file(reader, b"{}\n\xff\xfe{}\n", dataset, trace_dir, tmp_path, capsys)
    assert ":2: not UTF-8 text" in err


DEEP = "[" * 100_000 + "]" * 100_000

# a wrongly typed field for each JSON reader
WRONG_TYPE = {
    "visual": '{"source_id": "a", "channel": "visual", "w": "x", "activities": [], '
              '"magnitudes": {}}',
    "motion": '{"source_id": "u", "channel": "motion", "w": 1.0, "activities": [1], '
              '"magnitudes": {"motion": "ab"}}',
    "config": '{"t_norm": "x"}',
    "rankings": '{"avatar": "a0", "ranking": [{"identity": "u0", "rho": "x", '
                '"position": "left_wrist"}]}',
    "spec": '{"num_identities": "x", "n_windows": 3}',
    "keypoints": '{"ts": "x", "kp": {}}',
    "truth": '{"avatars": {"a0": "u0"}, "scripts": {"u0": [1.5]}}',
    "model": '{"channel": 5, "feature_mean": [], "feature_std": [], "centroids": []}',
}


# Well-formed files but for the leading entries of one array: a series of
# the `dataset` cohort's length, a model of the motion feature dimension.
N_WINDOWS = 24


def motion_line(lead: list) -> str:
    mags = lead + [1.0] * (N_WINDOWS - len(lead))
    return json.dumps({"source_id": "u", "channel": "motion", "w": 1.0,
                       "activities": [0] * N_WINDOWS, "magnitudes": {"motion": mags}})


def visual_line(lead: list) -> str:
    mags = {p.value: [None] * N_WINDOWS for p in SensorPosition}
    mags["left_wrist"] = lead + [1.0] * (N_WINDOWS - len(lead))
    return json.dumps({"source_id": "a", "channel": "visual", "w": 1.0,
                       "activities": [0] * N_WINDOWS, "magnitudes": mags})


def model_line(**lead) -> str:
    dim = MOTION_FEATURE_DIM
    obj = {"channel": "motion", "feature_mean": [0.0] * dim, "feature_std": [1.0] * dim,
           "centroids": [[0.0] * dim for _ in range(8)]}
    for name, values in lead.items():
        row = obj[name][0] if name == "centroids" else obj[name]
        row[:len(values)] = values
    return json.dumps(obj)


@pytest.mark.parametrize("reader, content", [
    *(pytest.param(r, "[1, 2]", id=f"{r}-list") for r in JSON_READERS),
    *(pytest.param(r, DEEP, id=f"{r}-deep") for r in JSON_READERS),
    *(pytest.param(r, WRONG_TYPE[r], id=f"{r}-type") for r in JSON_READERS),
    pytest.param("config", '{"top_k": 2.5}', id="config-float-top-k"),
    pytest.param("config", '{"restricted": "no"}', id="config-string-flag"),
    pytest.param("config", '{"min_observed_fraction": true}', id="config-bool-fraction"),
    pytest.param("config", '{"w": true}', id="config-bool-w"),
    pytest.param("config", '{"w": 1.0}', id="config-w"),
    pytest.param("config", '{"t_norm": false}', id="config-bool-t-norm"),
    pytest.param("model", '"x"', id="model-string"),
    pytest.param("keypoints", '{"ts": 0.0, "kp": [1]}', id="keypoints-kp-list"),
    pytest.param("keypoints", '{"ts": 0.0, "kp": {"nose": "ab"}}', id="keypoints-xy-string"),
    pytest.param("keypoints", '{"ts": 0.0, "kp": {"nose": ["1", "2"]}}',
                 id="keypoints-xy-numeric-strings"),
    pytest.param("keypoints", '{"ts": 0.0, "kp": {"nose": [true, false]}}',
                 id="keypoints-xy-bools"),
    pytest.param("keypoints", '{"ts": "0.5", "kp": {}}', id="keypoints-ts-numeric-string"),
    pytest.param("spec", '{"num_identities": 2, "n_windows": 3, "magnitude_noise_sd": [1]}',
                 id="spec-noise-list"),
    pytest.param("truth", '{"avatars": {"a0": "u0"}, "scripts": {"u0": [true]}}',
                 id="truth-bool-code"),
    pytest.param("motion", '{"source_id": "u", "channel": "motion", "w": true, '
                 '"activities": [1], "magnitudes": {"motion": [1.0]}}', id="motion-bool-w"),
    pytest.param("motion", '{"source_id": "u", "channel": "motion", "w": "1.0", '
                 '"activities": [1], "magnitudes": {"motion": [1.0]}}', id="motion-string-w"),
    pytest.param("rankings", '{"avatar": "a0000", "ranking": [{"identity": "u0000", '
                 '"rho": "0.25", "position": "left_wrist"}]}', id="rankings-string-rho"),
    pytest.param("rankings", '{"avatar": "a0000", "ranking": [{"identity": 5, '
                 '"rho": 0.25, "position": "left_wrist"}]}', id="rankings-int-identity"),
    pytest.param("rankings", '{"avatar": 7, "ranking": [{"identity": "u0000", '
                 '"rho": 0.25, "position": "left_wrist"}]}', id="rankings-int-avatar"),
    pytest.param("truth", '{"avatars": {"a0000": 5}, "scripts": {}}', id="truth-int-identity"),
])
def test_malformed_content_is_one_line_error(dataset, trace_dir, tmp_path, capsys,
                                             reader, content):
    err = run_on_bad_file(reader, f"{content}\n".encode(), dataset, trace_dir, tmp_path,
                          capsys)
    if content == '{"w": 1.0}':  # the series files carry the width
        assert err.endswith(":1: unknown config keys: w\n")


def ranking_line(rho: str, avatar: str = "a0000") -> str:
    return (f'{{"avatar": "{avatar}", "ranking": [{{"identity": "u0000", '
            f'"rho": {rho}, "position": "left_wrist"}}]}}')


# a non-finite rho once read as +inf, the best possible match
@pytest.mark.parametrize("rho", ["-Infinity", "NaN", "1.5", "-2"])
def test_rho_outside_its_range_is_refused(dataset, trace_dir, tmp_path, capsys, rho):
    err = run_on_bad_file("rankings", f"{ranking_line(rho)}\n".encode(), dataset, trace_dir,
                          tmp_path, capsys)
    # the value is named as the file writes it, a non-finite literal included
    assert err.endswith(f":1: rho must be null or a finite number in [-1, 1], got {rho}\n")


def test_null_rho_reads_as_undefined(tmp_path):
    path = tmp_path / "rankings.jsonl"
    path.write_text(f"{ranking_line('null')}\n{ranking_line('-1', avatar='a0001')}\n")
    first, second = read_rankings_jsonl(path)
    assert first.entries[0].rho == float("-inf")
    assert second.entries[0].rho == -1.0


@pytest.mark.parametrize("reader, content", [
    pytest.param("motion", motion_line(["1.39"]), id="motion-numeric-string-magnitude"),
    pytest.param("motion", motion_line([True]), id="motion-bool-magnitude"),
    pytest.param("motion", motion_line([[1.0]]), id="motion-nested-magnitude"),
    pytest.param("visual", visual_line([False]), id="visual-bool-magnitude"),
    pytest.param("visual", visual_line(["0.5"]), id="visual-numeric-string-magnitude"),
    pytest.param("model", model_line(feature_mean=["0.5"]), id="model-string-mean"),
    pytest.param("model", model_line(feature_std=[True]), id="model-bool-std"),
    pytest.param("model", model_line(centroids=["0.0"]), id="model-string-centroid"),
])
def test_non_numeric_array_entry_is_refused(dataset, trace_dir, tmp_path, capsys,
                                            reader, content):
    err = run_on_bad_file(reader, f"{content}\n".encode(), dataset, trace_dir, tmp_path, capsys)
    assert "must be JSON numbers" in err


class TestTraceCommands:
    def test_build_series_and_align(self, trace_dir, tmp_path, capsys):
        truth = json.loads((trace_dir / "truth.json").read_text())
        ident = truth["avatars"]["a0000"]
        model = tmp_path / "model.json"
        visual = tmp_path / "v.jsonl"
        rc = main(["build-series", "--trace", str(trace_dir / "keypoints" / "a0000.jsonl"),
                   "--channel", "visual", "--out", str(visual)])
        assert rc == EXIT_OK
        rc = main(["build-series", "--trace", str(trace_dir / "motion" / f"{ident}.csv"),
                   "--channel", "motion", "--out", str(tmp_path / "m.jsonl"),
                   "--save-model", str(model)])
        assert rc == EXIT_OK
        assert model.exists()
        capsys.readouterr()

        align_out = tmp_path / "align.json"
        rc = main(["align", "--motion-csv", str(trace_dir / "motion" / f"{ident}.csv"),
                   "--visual", str(visual), "--avatar", "a0000", "--out", str(align_out),
                   "--model", str(model)])
        assert rc == EXIT_OK
        payload = json.loads(align_out.read_text())
        assert payload["offset"] == 0.0
        assert len(payload["curve"]) == 17  # -4s .. +4s in 0.5s steps

    def test_align_unknown_avatar_is_data_error(self, trace_dir, tmp_path):
        visual = tmp_path / "v.jsonl"
        assert main(["build-series", "--trace", str(trace_dir / "keypoints" / "a0001.jsonl"),
                     "--channel", "visual", "--out", str(visual)]) == EXIT_OK
        rc = main(["align", "--motion-csv", str(trace_dir / "motion" / "u0000.csv"),
                   "--visual", str(visual), "--avatar", "a9999",
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("flags, code, message", [
        (["--delta-max", "inf"], EXIT_CONFIG, "delta_max must be finite and >= 0, got inf"),
        (["--step", "nan"], EXIT_CONFIG, "step must be positive and finite, got nan"),
        (["--delta-max", "1e15"], EXIT_RESOURCE, "offset grid of 4000000000000001 offsets"),
    ], ids=["infinite-delta-max", "nan-step", "grid-over-cap"])
    def test_unbounded_offset_grid_is_refused_before_input(self, tmp_path, capsys,
                                                           flags, code, message):
        # the inputs do not exist: the grid is refused before anything is read
        rc = main(["align", "--motion-csv", str(tmp_path / "none.csv"),
                   "--visual", str(tmp_path / "none.jsonl"), "--avatar", "a0000",
                   "--out", str(tmp_path / "x.json"), *flags])
        assert rc == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and message in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("frame, message", [
        ('{"ts": NaN, "kp": {}}', "ts must be finite, got NaN"),
        ('{"ts": -Infinity, "kp": {}}', "ts must be finite, got -Infinity"),
        ('{"ts": 1e999, "kp": {}}', "ts must be finite, got inf"),
        ('{"ts": 0.5, "kp": {"nose": [Infinity, 1.0]}}', "nose x must be finite, got Infinity"),
        ('{"ts": 0.5, "kp": {"nose": [1.0, NaN]}}', "nose y must be finite, got NaN"),
    ], ids=["nan-stamp", "minus-infinity-stamp", "overflowing-stamp", "infinite-point",
            "nan-point"])
    def test_non_finite_keypoint_frame_is_data_error(self, tmp_path, capsys, frame, message):
        # the bad frame follows a good one: the error names its line and literal
        trace = tmp_path / "kp.jsonl"
        trace.write_text('{"ts": 0.0, "kp": {"nose": [1.0, 2.0]}}\n' + frame + "\n")
        out = tmp_path / "v.jsonl"
        rc = main(["build-series", "--trace", str(trace), "--channel", "visual",
                   "--out", str(out)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {trace}:2: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("channel, rows, message", [
        ("motion", ["0,0,0,9.81,0,0,0", "", "0.02,nan,0,9.81,0,0,0"],
         ":4: ax must be finite, got nan"),
        ("motion", ["0,0,0,9.81,0,0,0", "0.02,0,0,9.81,0,0,-inf"],
         ":3: gz must be finite, got -inf"),
        ("motion", ["nan,0,0,9.81,0,0,0"], ":2: ts must be finite, got nan"),
        ("motion", ["0.04,0,0,9.81,0,0,0", "", "", "0.02,0,0,9.81,0,0,0"],
         ":5: ts 0.02 is not after the one before it, 0.04"),
        ("motion", ["0,0,0,9.81,0,0,0", "0.02,0,0,9.81,0,0,0", "0.02,0,0,9.81,0,0,0"],
         ":4: ts 0.02 is not after the one before it, 0.02"),
        ("visual", ['{"ts": 0.0, "kp": {}}', "", '{"ts": 0.0, "kp": {}}'],
         ":3: ts 0.0 is not after the one before it, 0.0"),
        ("visual", ['{"ts": 0.0, "kp": {}}', '{"ts": 0.5, "kp": {}}', "",
                    '{"ts": 0.25, "kp": {}}'], ":4: ts 0.25 is not after the one before it, 0.5"),
    ], ids=["nan-value", "infinite-value", "nan-stamp", "stamp-out-of-order",
            "stamp-repeated", "frame-stamp-repeated", "frame-stamp-out-of-order"])
    def test_bad_trace_sample_names_its_line(self, tmp_path, capsys, channel, rows, message):
        # blank lines are skipped but counted
        header = ["ts,ax,ay,az,gx,gy,gz"] if channel == "motion" else []
        trace = tmp_path / "bad"
        trace.write_text("\n".join(header + rows) + "\n")
        out = tmp_path / "s.jsonl"
        rc = main(["build-series", "--trace", str(trace), "--channel", channel,
                   "--out", str(out)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == f"error: {trace}{message}\n"
        assert not out.exists()

    def test_quarter_second_traces_correlate_window_for_window(self, tmp_path, capsys):
        # the motion CSV keeps no sample interval: both channels must read
        # 8 windows from their samples alone
        spec = write_spec(tmp_path / "spec.json", num_identities=2, n_windows=8,
                          window_seconds=0.25)
        data = tmp_path / "d"
        assert main(["generate", "--spec", spec, "--out-dir", str(data), "--traces"]) == EXIT_OK
        series = {}
        for channel, trace in (("motion", data / "motion" / "u0000.csv"),
                               ("visual", data / "keypoints" / "a0000.jsonl")):
            series[channel] = tmp_path / f"{channel}.jsonl"
            assert main(["build-series", "--trace", str(trace), "--channel", channel,
                         "-w", "0.25", "--out", str(series[channel])]) == EXIT_OK
            assert len(json.loads(series[channel].read_text())["activities"]) == 8
        assert main(["correlate", "--visual", str(series["visual"]), "--motion",
                     str(series["motion"]), "--out", str(tmp_path / "r.jsonl")]) == EXIT_OK

    def test_model_channel_mismatch_is_config_error(self, trace_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["build-series", "--trace", str(trace_dir / "motion" / "u0000.csv"),
                     "--channel", "motion", "--out", str(tmp_path / "m.jsonl"),
                     "--save-model", str(model)]) == EXIT_OK
        rc = main(["build-series", "--trace", str(trace_dir / "keypoints" / "a0000.jsonl"),
                   "--channel", "visual", "--out", str(tmp_path / "v.jsonl"),
                   "--model", str(model)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("with_model", [False, True], ids=["trained", "saved-model"])
    @pytest.mark.parametrize("w, code", [
        ("nan", EXIT_CONFIG), ("inf", EXIT_CONFIG), ("0", EXIT_CONFIG), ("-1", EXIT_CONFIG),
        ("1e300", EXIT_DATA), ("100", EXIT_DATA),
    ])
    def test_bad_width_exits_before_training(self, trace_dir, tmp_path, capsys, monkeypatch,
                                             w, code, with_model):
        model = tmp_path / "model.json"
        flags = ["--model", str(model)] if with_model else []
        if with_model:
            assert main(["build-series", "--trace", str(trace_dir / "motion" / "u0000.csv"),
                         "--channel", "motion", "--out", str(tmp_path / "m.jsonl"),
                         "--save-model", str(model)]) == EXIT_OK

        def train(*args, **kwargs):
            raise AssertionError("classifier trained for a width that is refused")

        # a width longer than the 16 s trace is refused before any training
        monkeypatch.setattr("motionlink.cli.train_classifier", train)
        out = tmp_path / "bad.jsonl"
        rc = main(["build-series", "--trace", str(trace_dir / "motion" / "u0000.csv"),
                   "--channel", "motion", "--out", str(out), f"-w={w}", *flags])
        assert rc == code
        assert not out.exists()

    def test_align_classifies_at_the_series_width(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", num_identities=3, n_windows=24, seed=5)
        data = tmp_path / "d"
        assert main(["generate", "--spec", spec, "--out-dir", str(data), "--traces"]) == EXIT_OK
        ident = json.loads((data / "truth.json").read_text())["avatars"]["a0000"]
        visual = tmp_path / "v.jsonl"
        assert main(["build-series", "--trace", str(data / "keypoints" / "a0000.jsonl"),
                     "--channel", "visual", "--out", str(visual), "-w", "0.5"]) == EXIT_OK
        out = tmp_path / "align.json"
        assert main(["align", "--motion-csv", str(data / "motion" / f"{ident}.csv"),
                     "--visual", str(visual), "--avatar", "a0000",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["distance"] == 0


# every seed and session flag, set to -1; {out} is what the command writes
NEGATIVE_SEEDS = {
    "generate-session": ["generate", "--spec", "{spec}", "--out-dir", "{out}", "--session", "-1"],
    "generate-traces-session": ["generate", "--spec", "{spec}", "--out-dir", "{out}",
                                "--traces", "--session", "-1"],
    "build-series-train-seed": ["build-series", "--trace", "{trace}", "--channel", "motion",
                                "--out", "{out}", "--train-seed", "-1"],
    "align-train-seed": ["align", "--motion-csv", "{trace}", "--visual", "{visual}",
                         "--avatar", "a0000", "--out", "{out}", "--train-seed", "-1"],
    "sweep-train-seed": ["sweep", "--spec", "{spec}", "--w-values", "1.0", "--t-values", "0.3",
                         "--out", "{out}", "--trace-mode", "--train-seed", "-1"],
    "bench-seed": ["bench", "--sizes", "10x10", "--out", "{out}", "--seed", "-1"],
}


@pytest.mark.parametrize("command", NEGATIVE_SEEDS)
def test_negative_seed_is_refused_before_any_output(dataset, trace_dir, tmp_path, capsys,
                                                    command):
    out = tmp_path / "out"
    names = dict(dataset, out=str(out), trace=str(trace_dir / "motion" / "u0000.csv"))
    assert main([arg.format(**names) for arg in NEGATIVE_SEEDS[command]]) == EXIT_CONFIG
    assert "must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()

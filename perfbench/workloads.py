"""The four benchmark workloads.

Each workload prepares its inputs from the seed (set-up, not timed), runs
one timed iteration of public library calls through the runner, checks the
outputs, and, in a traced iteration, runs a probe and derives its
per-layer metrics from the spans.  perfbench/manifest.json describes the
inputs; ``small`` shrinks every input so the self-test finishes in seconds.
`reference` names the kernel in run.py whose speed tracks the workload's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np

import motionlink as ml
from motionlink.errors import UndefinedCorrelation
from motionlink.evalbench import bench_matrices
from motionlink.windex import estimate_index_memory

MIB = 1024 ** 2


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rankings_sha256(r, rankings, name: str) -> str:
    path = r.workdir / f"{name}.jsonl"
    ml.write_rankings_jsonl(rankings, path)
    return _file_sha256(path)


def _diag_confusion(diagonal: float) -> ml.ConfusionMatrix:
    k = len(ml.ActivityLabel)
    rows = np.full((k, k), (1.0 - diagonal) / (k - 1))
    np.fill_diagonal(rows, diagonal)
    return ml.ConfusionMatrix(rows)


def _check_order(r, op: str, rankings) -> None:
    for rl in rankings:
        keys = [(-e.rho, e.identity_id) for e in rl.entries]
        r.check(op, keys == sorted(keys), f"{rl.avatar_id}: entries not in (-rho, id) order")


def _rank_probe(r, visual, motion, config, rankings) -> int:
    """Filter, then rank each avatar's candidates one call at a time.

    This repeats what `correlate` does internally so the trace can split
    its time into filtering and ranking; the probe's rankings must equal
    the ones `correlate` returned.  Returns the number of pairs retained.
    """
    pairs = r.call("engine.activity_filter", ml.activity_filter, visual, motion, config)
    by_avatar = {rl.avatar_id: rl for rl in rankings}
    for avatar in visual:
        ids = pairs.candidates(avatar.source_id)
        if not ids:
            continue
        ranked = r.call("engine.rank_identities", ml.rank_identities,
                        avatar, [motion[i] for i in sorted(ids)])
        r.check("engine.rank_identities", ranked == by_avatar[avatar.source_id],
                f"{avatar.source_id}: probe ranking differs from correlate's")
    return pairs.total_pairs()


def _engine_metrics(view, retained: int, rankings, p: int, q: int) -> dict:
    filter_s = view.self_s("engine.activity_filter")
    rank_s = view.self_s("engine.rank_identities")
    p50, p95 = np.percentile(view.durations("engine.rank_identities"), [50, 95])
    entries = [e for rl in rankings for e in rl.entries]
    return {
        "engine.activity_filter_s": filter_s,
        "engine.pairs_retained": retained,
        "engine.filter_keep_ratio": retained / (p * q),
        "engine.naive_pairs_screened_per_s": p * q / filter_s,
        "engine.correlate_s": view.self_s("engine.correlate"),
        "engine.rank_s": rank_s,
        "engine.pairs_ranked": len(entries),
        "engine.rank_us_per_pair": rank_s * 1e6 / retained,
        "engine.rank_identities_ms.p50": float(p50) * 1e3,
        "engine.rank_identities_ms.p95": float(p95) * 1e3,
        "engine.undefined_rho": sum(1 for e in entries if math.isinf(e.rho)),
        "engine.empty_rankings": sum(1 for rl in rankings if not rl.entries),
    }


class CohortE2E:
    """generate -> write -> read -> correlate -> write/read rankings -> evaluate."""

    name = "cohort_e2e"
    reference = "interpreter"

    def prepare(self, r, small: bool) -> None:
        n, k = (50, 20) if small else (200, 60)
        self.spec = ml.CohortSpec(num_identities=n, n_windows=k, magnitude_noise_sd=0.1,
                                  seed=r.seed)
        self.config = ml.FilterConfig(t_norm=0.3)

    def iterate(self, r) -> dict:
        paths = {name: r.workdir / name for name in
                 ("visual.jsonl", "motion.jsonl", "truth.json", "rankings.jsonl")}
        visual, motion, truth = r.call("synth.generate_cohort", ml.generate_cohort, self.spec)
        r.call("model.write_dataset_jsonl", ml.write_dataset_jsonl, visual, paths["visual.jsonl"])
        r.call("model.write_dataset_jsonl", ml.write_dataset_jsonl, motion, paths["motion.jsonl"])
        r.call("synth.GroundTruth.save", truth.save, paths["truth.json"])
        visual_in = r.call("model.read_dataset_jsonl", ml.read_dataset_jsonl, paths["visual.jsonl"])
        motion_in = r.call("model.read_dataset_jsonl", ml.read_dataset_jsonl, paths["motion.jsonl"])
        truth_in = r.call("synth.GroundTruth.load", ml.GroundTruth.load, paths["truth.json"])
        rankings = r.call("engine.correlate", ml.correlate, visual_in, motion_in, self.config)
        r.call("engine.write_rankings_jsonl", ml.write_rankings_jsonl, rankings,
               paths["rankings.jsonl"], truth_in.mapping)
        rankings_in = r.call("engine.read_rankings_jsonl", ml.read_rankings_jsonl,
                             paths["rankings.jsonl"])
        report = r.call("evalbench.evaluate", ml.evaluate, rankings_in, truth_in)
        return {"paths": paths, "visual": visual, "motion": motion, "truth": truth,
                "visual_in": visual_in, "motion_in": motion_in, "truth_in": truth_in,
                "rankings": rankings, "rankings_in": rankings_in, "report": report,
                "avatars": len(visual), "screened": len(visual) * len(motion)}

    def verify(self, r, out: dict) -> None:
        paths = out["paths"]
        r.check("model.read_dataset_jsonl",
                tuple(out["visual_in"]) == tuple(out["visual"])
                and tuple(out["motion_in"]) == tuple(out["motion"]),
                "datasets read back differ from the generated ones")
        r.check("synth.GroundTruth.load", out["truth_in"] == out["truth"],
                "ground truth read back differs")
        r.check("engine.read_rankings_jsonl", out["rankings_in"] == out["rankings"],
                "rankings read back differ from the written ones")
        r.check("evalbench.evaluate", out["report"].top_1_rate == 1.0,
                f"top-1 rate {out['report'].top_1_rate} on clean labels, expected 1.0")
        _check_order(r, "engine.correlate", out["rankings"])
        r.count("engine.correlate", "pairs_ranked",
                sum(len(rl.entries) for rl in out["rankings"]))
        r.count("model.write_dataset_jsonl", "series_bytes",
                paths["visual.jsonl"].stat().st_size + paths["motion.jsonl"].stat().st_size)
        r.count("engine.write_rankings_jsonl", "rankings_sha256",
                _file_sha256(paths["rankings.jsonl"]))
        r.count("evalbench.evaluate", "top1_rate", out["report"].top_1_rate)

    def probe(self, r, out: dict) -> dict:
        return {"retained": _rank_probe(r, out["visual_in"], out["motion_in"], self.config,
                                        out["rankings"])}

    def layer_metrics(self, view, out: dict, probe: dict) -> dict:
        n_series = len(out["visual_in"]) + len(out["motion_in"])
        read_s = view.self_s("model.read_dataset_jsonl")
        paths = out["paths"]
        p, q = len(out["visual"]), len(out["motion"])
        return {
            "synth.generate_cohort_s": view.self_s("synth.generate_cohort"),
            "model.write_dataset_s": view.self_s("model.write_dataset_jsonl"),
            "model.read_dataset_s": read_s,
            "model.series_read_per_s": n_series / read_s,
            "model.series_bytes": paths["visual.jsonl"].stat().st_size
            + paths["motion.jsonl"].stat().st_size,
            "engine.rankings_io_s": view.self_s("engine.write_rankings_jsonl")
            + view.self_s("engine.read_rankings_jsonl"),
            "evalbench.evaluate_s": view.self_s("evalbench.evaluate"),
            **_engine_metrics(view, probe["retained"], out["rankings"], p, q),
        }


class RankHeavy:
    """Noisy labels on both channels and a loose threshold: ranking dominates."""

    name = "rank_heavy"
    reference = "interpreter"
    sampled_avatars = 10

    def prepare(self, r, small: bool) -> None:
        n, k = (30, 20) if small else (120, 30)
        confusion = _diag_confusion(0.5)
        self.spec = ml.CohortSpec(num_identities=n, n_windows=k, motion_confusion=confusion,
                                  visual_confusion=confusion, magnitude_noise_sd=0.15,
                                  seed=r.seed)
        self.config = ml.FilterConfig(t_norm=0.8)

    def iterate(self, r) -> dict:
        visual, motion, truth = r.call("synth.generate_cohort", ml.generate_cohort, self.spec)
        rankings = r.call("engine.correlate", ml.correlate, visual, motion, self.config)
        report = r.call("evalbench.evaluate", ml.evaluate, rankings, truth)
        return {"visual": visual, "motion": motion, "rankings": rankings, "report": report,
                "avatars": len(visual), "screened": len(visual) * len(motion)}

    def verify(self, r, out: dict) -> None:
        visual, motion, rankings = out["visual"], out["motion"], out["rankings"]
        step = max(1, len(visual) // self.sampled_avatars)
        for avatar, rl in list(zip(visual, rankings))[::step]:
            for e in rl.entries:
                seq = avatar.magnitude_for(e.position)
                mask = seq.observed_mask
                try:
                    expected = ml.spearman_rho(
                        seq.values[mask], motion[e.identity_id].motion_magnitudes.values[mask])
                except UndefinedCorrelation:
                    expected = float("-inf")
                same = e.rho == expected or abs(e.rho - expected) <= 1e-12
                r.check("engine.correlate", same,
                        f"{rl.avatar_id}/{e.identity_id}: rho {e.rho!r} but spearman_rho "
                        f"gives {expected!r}")
        _check_order(r, "engine.correlate", rankings)
        r.count("engine.correlate", "pairs_ranked", sum(len(rl.entries) for rl in rankings))
        r.count("engine.correlate", "rankings_sha256", _rankings_sha256(r, rankings, "rankings"))
        r.count("evalbench.evaluate", "top1_rate", out["report"].top_1_rate)

    def probe(self, r, out: dict) -> dict:
        return {"retained": _rank_probe(r, out["visual"], out["motion"], self.config,
                                        out["rankings"])}

    def layer_metrics(self, view, out: dict, probe: dict) -> dict:
        p, q = len(out["visual"]), len(out["motion"])
        return {
            "synth.generate_cohort_s": view.self_s("synth.generate_cohort"),
            "evalbench.evaluate_s": view.self_s("evalbench.evaluate"),
            **_engine_metrics(view, probe["retained"], out["rankings"], p, q),
        }


class FilterScale:
    """Three `bench_scaling` calls: both index key backends and the naive scan."""

    name = "filter_scale"
    reference = "vector"

    def prepare(self, r, small: bool) -> None:
        # (tag, p, q, k, t_abs, methods); "k10" packs keys into int64, "k20"
        # needs the bytes-key backend, "naive" pits the scan against the index
        a, b, c = ((2000, 2000), (500, 500), (100, 2000)) if small else \
            ((10000, 10000), (2000, 2000), (1000, 10000))
        self.calls = [
            ("k10", *a, 10, 3, ("indexed",)),
            ("k20", *b, 20, 2, ("indexed",)),
            ("naive", *c, 10, 3, ("naive", "indexed")),
        ]

    def iterate(self, r) -> dict:
        rows = {}
        for tag, p, q, k, t_abs, methods in self.calls:
            rows[tag] = r.call("evalbench.bench_scaling", ml.bench_scaling, [(p, q)], k=k,
                               t_abs=t_abs, methods=methods, seed=r.seed)
        ok = [row for tag_rows in rows.values() for row in tag_rows if row.status == "ok"]
        return {"rows": rows, "avatars": sum(row.p for row in ok),
                "screened": sum(row.p * row.q for row in ok)}

    def verify(self, r, out: dict) -> None:
        for tag, rows in out["rows"].items():
            r.check("evalbench.bench_scaling", all(row.status == "ok" for row in rows),
                    f"{tag}: a row was skipped or refused")
            for row in rows:
                r.count("evalbench.bench_scaling", f"pairs_retained.{tag}.{row.method}",
                        row.pairs_retained)
        naive, indexed = out["rows"]["naive"]
        r.check("evalbench.bench_scaling", naive.pairs_retained == indexed.pairs_retained,
                f"naive keeps {naive.pairs_retained} pairs, indexed {indexed.pairs_retained}")

    def probe(self, r, out: dict) -> dict:
        """Time `build_index` alone on the matrices `bench_scaling` used,
        and take the tracemalloc peak of one k=10 build."""
        result = {}
        for tag, p, q, k, t_abs, _ in self.calls[:2]:
            _, m_mat = r.call("evalbench.bench_matrices", bench_matrices, p, q, k, seed=r.seed)
            index = r.call(f"windex.build_index.{tag}", ml.build_index, m_mat, t_abs)
            result[f"entry_count.{tag}"] = index.entry_count
            r.count("windex.build_index", f"entry_count.{tag}", index.entry_count)
            del index
            if tag == "k10":
                tracemalloc.start()
                try:
                    r.call("windex.build_index.tracemalloc", ml.build_index, m_mat, t_abs)
                    result["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                result["estimate_bytes"] = estimate_index_memory(q, k, t_abs)
        return result

    def layer_metrics(self, view, out: dict, probe: dict) -> dict:
        rows = out["rows"]
        naive = rows["naive"][0]
        metrics = {
            "evalbench.bench_scaling_s": view.self_s("evalbench.bench_scaling"),
            "engine.pairs_retained": naive.pairs_retained,
            "engine.filter_keep_ratio": naive.pairs_retained / (naive.p * naive.q),
            "engine.naive_pairs_screened_per_s": naive.p * naive.q / (naive.wall_time_ms / 1e3),
            "windex.pairs_retained": sum(row.pairs_retained for tag_rows in rows.values()
                                         for row in tag_rows if row.method == "indexed"),
            "windex.peak_mb": probe["peak_bytes"] / MIB,
            "windex.estimate_over_peak": probe["estimate_bytes"] / probe["peak_bytes"],
        }
        for tag in ("k10", "k20"):
            build_s = view.self_s(f"windex.build_index.{tag}")
            metrics[f"windex.build_s.{tag}"] = build_s
            # derived: the indexed filter time bench_scaling reports, less the
            # separately timed build on the same matrices
            metrics[f"windex.query_s.{tag}"] = rows[tag][0].wall_time_ms / 1e3 - build_s
            metrics[f"windex.entry_count.{tag}"] = probe[f"entry_count.{tag}"]
        return metrics


class TraceAlign:
    """Raw traces through featurization, plain correlation, and offset search."""

    name = "trace_align"
    reference = "interpreter"
    lag_s = 2.0
    window_s = 1.0
    align = ml.AlignConfig(delta_max=2.0, step=0.5)

    def prepare(self, r, small: bool) -> None:
        n, k = (6, 16) if small else (10, 40)
        cohort = r.call("synth.synthesize_trace_cohort", ml.synthesize_trace_cohort,
                        ml.CohortSpec(num_identities=n, n_windows=k, seed=r.seed))
        lagged = {}
        for ident, trace in cohort.motion_traces.items():
            # the motion recording starts lag_s late, as its clock would if offset
            ts = trace.timestamps
            i0 = int(np.searchsorted(ts, ts[0] + self.lag_s - 1e-9))
            lagged[ident] = dataclasses.replace(trace, timestamps=ts[i0:],
                                                accel=trace.accel[i0:], gyro=trace.gyro[i0:])
        self.cohort, self.lagged = cohort, lagged
        self.config = ml.FilterConfig(t_norm=0.4)

    def iterate(self, r) -> dict:
        w, cohort = self.window_s, self.cohort
        motion_model = r.call("synth.train_classifier", ml.train_classifier,
                              ml.Channel.MOTION, w, seed=r.seed)
        visual_model = r.call("synth.train_classifier", ml.train_classifier,
                              ml.Channel.VISUAL, w, seed=r.seed)
        motion = ml.MotionDataset(
            r.call("pipeline.build_series.motion", ml.build_series, trace, w, motion_model, ident)
            for ident, trace in cohort.motion_traces.items())
        visual = ml.VisualDataset(
            r.call("pipeline.build_series.visual", ml.build_series, trace, w, visual_model, avatar)
            for avatar, trace in cohort.keypoint_traces.items())
        rankings = r.call("engine.correlate", ml.correlate, visual, motion, self.config)
        aligned, offsets = r.call("align.correlate_with_alignment", ml.correlate_with_alignment,
                                  self.lagged, visual, motion_model, self.config, self.align)
        report = r.call("evalbench.evaluate", ml.evaluate, aligned, cohort.truth)
        return {"visual": visual, "motion": motion, "rankings": rankings, "aligned": aligned,
                "offsets": offsets, "report": report,
                "avatars": len(visual), "screened": 2 * len(visual) * len(motion)}

    def verify(self, r, out: dict) -> None:
        offsets = out["offsets"]
        for avatar, ident in self.cohort.truth.mapping.items():
            chosen = offsets[avatar].get(ident)
            r.check("align.correlate_with_alignment",
                    chosen is not None and abs(chosen - self.lag_s) <= self.align.step + 1e-9,
                    f"{avatar}: offset {chosen} chosen for {ident}, lag is {self.lag_s}")
        _check_order(r, "align.correlate_with_alignment", out["aligned"])
        windows = sum(len(s) for s in out["motion"]) + sum(len(s) for s in out["visual"])
        r.count("pipeline.build_series", "windows", windows)
        for key in ("rankings", "aligned"):
            r.count("engine.correlate", f"pairs_ranked.{key}",
                    sum(len(rl.entries) for rl in out[key]))
            r.count("engine.correlate", f"rankings_sha256.{key}",
                    _rankings_sha256(r, out[key], key))
        r.count("evalbench.evaluate", "top1_rate", out["report"].top_1_rate)

    def probe(self, r, out: dict) -> dict:
        return {"retained": _rank_probe(r, out["visual"], out["motion"], self.config,
                                        out["rankings"])}

    def layer_metrics(self, view, out: dict, probe: dict) -> dict:
        motion_s = view.self_s("pipeline.build_series.motion")
        visual_s = view.self_s("pipeline.build_series.visual")
        windows = sum(len(s) for s in out["motion"]) + sum(len(s) for s in out["visual"])
        p, q = len(out["visual"]), len(out["motion"])
        return {
            "synth.train_classifier_s": view.self_s("synth.train_classifier"),
            "pipeline.build_series_s.motion": motion_s,
            "pipeline.build_series_s.visual": visual_s,
            "pipeline.windows_per_s": windows / (motion_s + visual_s),
            "align.correlate_with_alignment_s": view.self_s("align.correlate_with_alignment"),
            "align.pairs_evaluated": sum(len(v) for v in out["offsets"].values()),
            "evalbench.evaluate_s": view.self_s("evalbench.evaluate"),
            **_engine_metrics(view, probe["retained"], out["rankings"], p, q),
        }

    def setup_metrics(self, setup_views) -> dict:
        return {"synth.synthesize_trace_cohort_s": float(np.median(
            [v.self_s("synth.synthesize_trace_cohort") for v in setup_views]))}


WORKLOADS = {w.name: w for w in (CohortE2E, RankHeavy, FilterScale, TraceAlign)}

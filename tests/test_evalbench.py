import csv
import math

import numpy as np
import pytest

from motionlink import evalbench
from motionlink.engine import RankEntry, RankedIdentityList
from motionlink.errors import ConfigError, DataError, MemoryCapExceeded, MissingGroundTruth
from motionlink.evalbench import (
    DEFAULT_RESTRICTED_SET,
    Outcome,
    ScalingRow,
    bench_matrices,
    bench_scaling,
    evaluate,
    intersect_sessions,
    label_agreement,
    restricted_set_from_confusion,
    sweep_parameters,
    sweep_to_rows,
    write_scaling_csv,
    write_sweep_csv,
)
from motionlink.model import ActivityLabel, SensorPosition
from motionlink.pipeline import ConfusionMatrix
from motionlink.synth import (
    CohortSpec,
    GroundTruth,
    synthesize_trace_cohort,
)
from motionlink.windex import estimate_index_memory, estimate_query_memory
from scaling_fit import fit_r2

LW = SensorPosition.LEFT_WRIST
RW = SensorPosition.RIGHT_WRIST


def ranking(avatar, *ids_rhos):
    entries = tuple(RankEntry(i, r, LW) for i, r in ids_rhos)
    return RankedIdentityList(avatar, entries)


class TestEvaluate:
    def test_perfect_rankings(self):
        rankings = [ranking(f"a{i}", (f"u{i}", 0.9)) for i in range(4)]
        truth = {f"a{i}": f"u{i}" for i in range(4)}
        report = evaluate(rankings, truth)
        assert report.top_1_rate == 1.0
        assert report.top_3_rate == 1.0
        assert all(o is Outcome.CORRECT for o in report.outcomes.values())
        assert report.fraction_correct == 1.0

    def test_all_empty_is_none_correlated(self):
        rankings = [RankedIdentityList(f"a{i}", ()) for i in range(3)]
        truth = {f"a{i}": f"u{i}" for i in range(3)}
        report = evaluate(rankings, truth)
        assert report.fraction_none == 1.0
        assert report.top_1_rate == 0.0
        assert report.top_3_rate == 0.0

    def test_half_at_rank_two(self):
        # truth first for two avatars, second for the other two
        rankings = [
            ranking("a0", ("u0", 0.9), ("x", 0.5)),
            ranking("a1", ("u1", 0.9), ("x", 0.5)),
            ranking("a2", ("x", 0.9), ("u2", 0.5)),
            ranking("a3", ("x", 0.9), ("u3", 0.5)),
        ]
        truth = {f"a{i}": f"u{i}" for i in range(4)}
        report = evaluate(rankings, truth)
        assert report.top_1_rate == 0.5
        assert report.top_3_rate == 1.0

    def test_fractions_partition_one(self):
        rankings = [
            ranking("a0", ("u0", 0.9)),
            ranking("a1", ("x", 0.9)),
            RankedIdentityList("a2", ()),
        ]
        truth = {"a0": "u0", "a1": "u1", "a2": "u2"}
        report = evaluate(rankings, truth)
        total = (report.fraction_correct + report.fraction_incorrect
                 + report.fraction_none)
        assert total == pytest.approx(1.0)
        assert report.fraction_correct == pytest.approx(1 / 3)
        assert report.fraction_incorrect == pytest.approx(1 / 3)
        assert report.fraction_none == pytest.approx(1 / 3)

    def test_top_k_parameter(self):
        rankings = [ranking("a0", ("x", 0.9), ("u0", 0.8))]
        truth = {"a0": "u0"}
        assert evaluate(rankings, truth, top_k=1).top_k_rate == 0.0
        assert evaluate(rankings, truth, top_k=2).top_k_rate == 1.0

    def test_order_beyond_top_k_is_irrelevant(self):
        truth = {"a0": "u0"}
        base = ranking("a0", ("u0", 0.9), ("b", 0.8), ("c", 0.7), ("d", 0.6), ("e", 0.5))
        swapped = ranking("a0", ("u0", 0.9), ("b", 0.8), ("c", 0.7), ("e", 0.5), ("d", 0.6))
        r1 = evaluate([base], truth)
        r2 = evaluate([swapped], truth)
        assert r1.to_dict() == r2.to_dict()

    def test_top_k_rate_reads_past_the_first_three(self):
        misses = [(f"x{j}", 0.9 - j / 10) for j in range(4)]
        report = evaluate([ranking("a0", *misses, ("u0", 0.1))], {"a0": "u0"}, top_k=5)
        assert (report.top_3_rate, report.top_k_rate) == (0.0, 1.0)

    def test_repeated_avatar_is_refused(self):
        # scored twice, a0's rates were over 3 lines but its fractions over 2 avatars
        rankings = [ranking("a0", ("u0", 0.9)), ranking("a1", ("u1", 0.9)),
                    ranking("a0", ("x", 0.9))]
        with pytest.raises(DataError, match="avatar 'a0' is ranked more than once"):
            evaluate(rankings, {"a0": "u0", "a1": "u1"})

    def test_accepts_ground_truth_object(self):
        truth = GroundTruth({"a0": "u0"}, {})
        report = evaluate([ranking("a0", ("u0", 0.9))], truth)
        assert report.top_1_rate == 1.0

    def test_unknown_avatar(self):
        with pytest.raises(MissingGroundTruth):
            evaluate([ranking("ghost", ("u0", 0.9))], {"a0": "u0"})

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            evaluate([], {"a0": "u0"})
        with pytest.raises(ConfigError):
            evaluate([ranking("a0", ("u0", 0.9))], {"a0": "u0"}, top_k=0)

    def test_config_echo_round_trips(self):
        report = evaluate([ranking("a0", ("u0", 0.9))], {"a0": "u0"},
                          config={"w": 1.0, "t_norm": 0.3})
        assert report.to_dict()["config"] == {"w": 1.0, "t_norm": 0.3}


# ---------------------------------------------------------------------------

def diag_confusion(diagonal):
    """Row-stochastic matrix with the given per-label diagonal, remainder
    spread uniformly over the other labels."""
    k = len(ActivityLabel)
    rows = np.empty((k, k))
    for i, d in enumerate(diagonal):
        rows[i] = (1.0 - d) / (k - 1)
        rows[i, i] = d
    return ConfusionMatrix(rows)


def weak_idle_pair():
    # idle and head rotation agree rarely across channels; the rest agree well
    motion_diag = [0.36, 0.85, 0.55, 0.85, 0.9, 0.8, 0.9, 0.8]
    visual_diag = [0.22, 0.85, 0.6, 0.85, 0.9, 0.8, 0.9, 0.8]
    return diag_confusion(motion_diag), diag_confusion(visual_diag)


class TestRestrictedSet:
    def test_identity_matrices_keep_everything(self):
        pair = (ConfusionMatrix(np.eye(8)), ConfusionMatrix(np.eye(8)))
        assert restricted_set_from_confusion(pair, 0.6) == frozenset(ActivityLabel)

    def test_low_agreement_labels_dropped(self):
        result = restricted_set_from_confusion(weak_idle_pair(), 0.6)
        assert result == DEFAULT_RESTRICTED_SET
        assert ActivityLabel.IDLE not in result
        assert ActivityLabel.HEAD_ROTATION not in result

    def test_threshold_one_keeps_all(self):
        assert restricted_set_from_confusion(weak_idle_pair(), 1.0) == frozenset(ActivityLabel)

    def test_monotone_in_threshold(self):
        pair = weak_idle_pair()
        small = restricted_set_from_confusion(pair, 0.3)
        mid = restricted_set_from_confusion(pair, 0.6)
        large = restricted_set_from_confusion(pair, 0.9)
        assert small <= mid <= large

    def test_agreement_is_diagonal_product(self):
        pair = weak_idle_pair()
        agree = label_agreement(pair)
        assert agree[ActivityLabel.IDLE] == pytest.approx(0.36 * 0.22)
        assert agree[ActivityLabel.WALKING] == pytest.approx(0.9 * 0.9)

    def test_threshold_bounds(self):
        pair = weak_idle_pair()
        with pytest.raises(ConfigError):
            restricted_set_from_confusion(pair, 0.0)
        with pytest.raises(ConfigError):
            restricted_set_from_confusion(pair, 1.5)


# ---------------------------------------------------------------------------

class TestIntersectSessions:
    def test_common_candidate_survives(self):
        s1 = [ranking("a0", ("u0", 0.8))]
        s2 = [ranking("a0", ("u0", 0.6))]
        merged = intersect_sessions([s1, s2])
        assert len(merged) == 1
        assert merged[0].avatar_id == "a0"
        assert tuple(e.identity_id for e in merged[0].entries) == ("u0",)
        assert merged[0].entries[0].rho == pytest.approx(0.7)

    def test_disjoint_sets_empty(self):
        s1 = [ranking("a0", ("u0", 0.8))]
        s2 = [ranking("a0", ("u1", 0.8))]
        merged = intersect_sessions([s1, s2])
        assert merged[0].entries == ()

    def test_reranked_by_mean_rho(self):
        # u1 wins session one but u0 has the better mean
        s1 = [ranking("a0", ("u1", 0.9), ("u0", 0.8))]
        s2 = [ranking("a0", ("u0", 0.9), ("u1", 0.1))]
        merged = intersect_sessions([s1, s2])
        assert tuple(e.identity_id for e in merged[0].entries) == ("u0", "u1")

    def test_position_from_best_session(self):
        e1 = RankedIdentityList("a0", (RankEntry("u0", 0.5, LW),))
        e2 = RankedIdentityList("a0", (RankEntry("u0", 0.9, RW),))
        merged = intersect_sessions([[e1], [e2]])
        assert merged[0].entries[0].position is RW

    def test_never_grows_candidate_sets(self):
        rng = np.random.default_rng(5)
        ids = [f"u{i}" for i in range(8)]
        sessions = []
        for _ in range(3):
            chosen = rng.choice(ids, size=rng.integers(1, 6), replace=False)
            entries = tuple(RankEntry(i, float(rng.random()), LW) for i in sorted(chosen))
            sessions.append([RankedIdentityList("a0", entries)])
        merged = intersect_sessions(sessions)
        smallest = min(len(s[0].entries) for s in sessions)
        assert len(merged[0].entries) <= smallest

    def test_undefined_rho_sorts_last(self):
        s1 = [ranking("a0", ("u0", -math.inf), ("u1", 0.2))]
        s2 = [ranking("a0", ("u0", 0.9), ("u1", 0.1))]
        merged = intersect_sessions([s1, s2])
        assert tuple(e.identity_id for e in merged[0].entries) == ("u1", "u0")

    def test_validation(self):
        s1 = [ranking("a0", ("u0", 0.8))]
        with pytest.raises(ConfigError):
            intersect_sessions([s1])
        s2 = [ranking("aX", ("u0", 0.8))]
        with pytest.raises(DataError):
            intersect_sessions([s1, s2])


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_cohort():
    spec = CohortSpec(num_identities=4, n_windows=12, seed=11)
    return synthesize_trace_cohort(spec)


class TestSweep:
    def test_noiseless_grid(self, small_cohort):
        grid = sweep_parameters(small_cohort, [1.0], [0.3, 1.0])
        assert set(grid) == {(1.0, 0.3), (1.0, 1.0)}
        for report in grid.values():
            assert report.top_1_rate == 1.0
            assert report.fraction_none == 0.0

    def test_full_threshold_never_filters(self, small_cohort):
        # t=1 admits every candidate pair, so no avatar can end up empty
        grid = sweep_parameters(small_cohort, [1.0], [1.0])
        assert grid[(1.0, 1.0)].fraction_none == 0.0

    def test_config_echo(self, small_cohort):
        grid = sweep_parameters(small_cohort, [1.0], [0.3])
        echo = grid[(1.0, 0.3)].config
        assert echo["w"] == 1.0
        assert echo["t_norm"] == 0.3
        assert echo["restricted"] is None
        assert len(echo["positions"]) == 6

    def test_restricted_sweep(self, small_cohort):
        grid = sweep_parameters(small_cohort, [1.0], [0.3],
                                restricted=DEFAULT_RESTRICTED_SET)
        report = grid[(1.0, 0.3)]
        assert report.top_1_rate == 1.0
        assert sorted(report.config["restricted"]) == sorted(
            l.name for l in DEFAULT_RESTRICTED_SET)

    def test_two_runs_give_equal_grids(self, small_cohort):
        g1 = sweep_parameters(small_cohort, [1.0], [0.3, 1.0])
        g2 = sweep_parameters(small_cohort, [1.0], [0.3, 1.0])
        assert {k: v.to_dict() for k, v in g1.items()} == \
               {k: v.to_dict() for k, v in g2.items()}

    def test_second_width_trains_its_own_models(self, small_cohort):
        grid = sweep_parameters(small_cohort, [0.5, 1.0], [1.0])
        assert set(grid) == {(0.5, 1.0), (1.0, 1.0)}
        # no filtering at t=1, and magnitudes still line up at any width
        assert grid[(0.5, 1.0)].fraction_none == 0.0
        assert grid[(0.5, 1.0)].top_1_rate == 1.0

    def test_rows_and_csv(self, small_cohort, tmp_path):
        grid = sweep_parameters(small_cohort, [1.0], [0.3, 1.0])
        rows = sweep_to_rows(grid)
        assert [r["t_norm"] for r in rows] == [0.3, 1.0]
        for row in rows:
            total = (row["fraction_correct"] + row["fraction_incorrect"]
                     + row["fraction_none"])
            assert total == pytest.approx(1.0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(grid, path)
        with open(path, newline="") as fh:
            read = list(csv.DictReader(fh))
        assert len(read) == 2
        assert read[0]["w"] == "1.0"

    def test_validation(self, small_cohort):
        with pytest.raises(ConfigError):
            sweep_parameters(small_cohort, [], [0.3])
        with pytest.raises(ConfigError):
            sweep_parameters(small_cohort, [1.0], [])
        with pytest.raises(ConfigError):
            sweep_parameters(small_cohort, [-1.0], [0.3])
        with pytest.raises(ConfigError):
            sweep_parameters(small_cohort, [1.0], [1.5])


class TestSweepFromSpec:
    def test_noiseless_grid_is_all_correct(self):
        spec = CohortSpec(num_identities=6, n_windows=20, seed=3)
        grid = sweep_parameters(spec, [0.5, 1.0, 2.0], [0.0, 0.3, 1.0])
        assert len(grid) == 9
        for report in grid.values():
            assert report.top_1_rate == 1.0
            assert report.fraction_none == 0.0

    def test_widths_rescale_sequence_length(self):
        spec = CohortSpec(num_identities=3, n_windows=20, seed=3)
        grid = sweep_parameters(spec, [0.5, 2.0], [1.0])
        # 20 s of recording: 40 windows at half a second, 10 at two seconds
        assert grid[(0.5, 1.0)].config["w"] == 0.5
        assert grid[(2.0, 1.0)].top_1_rate == 1.0

    def test_zero_threshold_with_noisy_channel(self):
        noisy = diag_confusion([0.6] * 8)
        spec = CohortSpec(num_identities=10, n_windows=30, seed=5,
                          motion_confusion=noisy)
        grid = sweep_parameters(spec, [1.0], [0.0, 1.0])
        # 30 windows at 40% flip rate: some mismatch is all but certain
        assert grid[(1.0, 0.0)].fraction_none >= 0.9
        assert grid[(1.0, 1.0)].fraction_none == 0.0


# ---------------------------------------------------------------------------

class TestBench:
    def test_matrices_shape_and_range(self):
        v, m = bench_matrices(40, 60, 10, seed=3)
        assert v.shape == (40, 10) and m.shape == (60, 10)
        assert v.max() < 8 and m.max() < 8

    def test_matrices_deterministic(self):
        a = bench_matrices(30, 30, 5, seed=7)
        b = bench_matrices(30, 30, 5, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = bench_matrices(30, 30, 5, seed=8)
        assert not np.array_equal(a[0], c[0])

    def test_methods_agree_on_retained_pairs(self):
        rows = bench_scaling([(60, 60), (120, 120)], k=10, t_abs=3)
        assert len(rows) == 4
        by_size = {}
        for row in rows:
            assert row.status == "ok"
            assert row.wall_time_ms > 0
            assert 0 <= row.pairs_retained <= row.p * row.q
            by_size.setdefault((row.p, row.q), {})[row.method] = row.pairs_retained
        for counts in by_size.values():
            assert counts["naive"] == counts["indexed"]
            # planted pool rows guarantee hits, so agreement is not 0 == 0
            assert counts["naive"] > 0

    def test_methods_that_disagree_are_refused(self, monkeypatch):
        real = evalbench.filter_pairs_indexed

        def drop_one_pair(v_mat, index):
            return tuple(column[1:] for column in real(v_mat, index))

        monkeypatch.setattr(evalbench, "filter_pairs_indexed", drop_one_pair)
        with pytest.raises(DataError, match="disagree at 60x60"):
            bench_scaling([(60, 60)], k=10, t_abs=3)

    def test_naive_cutoff_skips(self):
        rows = bench_scaling([(200, 200)], k=5, t_abs=1, naive_cutoff=10_000)
        naive = next(r for r in rows if r.method == "naive")
        indexed = next(r for r in rows if r.method == "indexed")
        assert naive.status == "skipped"
        assert naive.wall_time_ms is None and naive.pairs_retained is None
        assert indexed.status == "ok"

    def test_memory_cap_refusal_is_a_row(self, monkeypatch):
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", "1024")
        rows = bench_scaling([(100, 100)], k=10, t_abs=3, methods=("indexed",))
        assert rows[0].status == "refused"
        assert rows[0].wall_time_ms is None

    def test_an_index_over_the_cap_is_refused_before_it_builds(self, monkeypatch):
        # the cap admits the smallest build but no build with its query, so
        # the plan refuses and the index is never built
        q, k, t_abs = 100, 10, 3
        builds = [estimate_index_memory(q, k, t_abs, m) for m in range(1, t_abs + 2)]
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(min(builds) + 1))

        def build(*args):
            raise AssertionError("an index was built over the cap")

        monkeypatch.setattr(evalbench, "build_index", build)
        rows = bench_scaling([(100, q)], k=k, t_abs=t_abs, methods=("indexed",))
        assert rows[0].status == "refused"

    def test_memory_cap_covers_the_query(self, monkeypatch):
        # the cap admits every block count's build with its query before
        # any key is looked up, so the plan succeeds and the index is built;
        # on all-equal rows every query key hits every identity, and the
        # query must be refused on its raw hits
        p, q, k, t_abs = 200, 200, 10, 3
        needs = [estimate_index_memory(q, k, t_abs, m) + estimate_query_memory(p, k, t_abs, 0, m)
                 for m in range(1, t_abs + 2)]
        monkeypatch.setenv("MOTIONLINK_MEMORY_CAP", str(max(needs)))
        monkeypatch.setattr(evalbench, "bench_matrices", lambda p, q, k, seed: (
            np.zeros((p, k), dtype=np.uint8), np.zeros((q, k), dtype=np.uint8)))
        built, refusals = [], []
        build_index, filter_pairs_indexed = evalbench.build_index, evalbench.filter_pairs_indexed

        def build(*args):
            built.append(build_index(*args))
            return built[-1]

        def query(*args):
            try:
                return filter_pairs_indexed(*args)
            except MemoryCapExceeded as err:
                refusals.append(str(err))
                raise

        monkeypatch.setattr(evalbench, "build_index", build)
        monkeypatch.setattr(evalbench, "filter_pairs_indexed", query)
        rows = bench_scaling([(p, q)], k=k, t_abs=t_abs, methods=("indexed",))
        assert rows[0].status == "refused"
        assert len(built) == 1
        assert len(refusals) == 1 and "raw hits" in refusals[0]

    def test_budget_outside_sequence_is_config_error(self):
        with pytest.raises(ConfigError):
            bench_scaling([(10, 10)], k=5, t_abs=6, methods=("naive",))

    def test_retained_counts_reproducible(self):
        first = bench_scaling([(80, 80)], k=10, t_abs=3, seed=5)
        second = bench_scaling([(80, 80)], k=10, t_abs=3, seed=5)
        assert [r.pairs_retained for r in first] == [r.pairs_retained for r in second]

    def test_row_validation(self):
        with pytest.raises(ConfigError):
            ScalingRow(10, 10, 5, 1, "fancy", "ok", 1.0, 5)
        with pytest.raises(ConfigError):
            ScalingRow(10, 10, 5, 1, "naive", "maybe", 1.0, 5)
        with pytest.raises(DataError):
            ScalingRow(10, 10, 5, 1, "naive", "ok", 0.0, 5)
        with pytest.raises(DataError):
            ScalingRow(10, 10, 5, 1, "naive", "ok", 1.0, 101)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            bench_scaling([(10, 10)], methods=("fancy",))

    def test_csv_output(self, tmp_path):
        rows = bench_scaling([(50, 50)], k=5, t_abs=1, naive_cutoff=100)
        path = tmp_path / "scaling.csv"
        write_scaling_csv(rows, path)
        with open(path, newline="") as fh:
            read = list(csv.DictReader(fh))
        assert len(read) == 2
        skipped = next(r for r in read if r["method"] == "naive")
        assert skipped["status"] == "skipped"
        assert skipped["wall_time_ms"] == ""
        ok = next(r for r in read if r["method"] == "indexed")
        assert float(ok["wall_time_ms"]) > 0


class TestFitR2:
    def test_perfect_line(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2.0 * v + 1.0 for v in x]
        assert fit_r2(x, y) == pytest.approx(1.0)

    def test_quadratic_against_squared_abscissa(self):
        p = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        y = 3e-4 * p ** 2 + 5.0
        assert fit_r2(p ** 2, y) == pytest.approx(1.0)
        # the same data fits a straight line in p worse
        assert fit_r2(p, y) < 0.95
        assert fit_r2(p, y) < fit_r2(p ** 2, y)

    def test_constant_data(self):
        assert fit_r2([1, 2, 3], [4.0, 4.0, 4.0]) == pytest.approx(1.0)

    def test_needs_three_points(self):
        with pytest.raises(ConfigError):
            fit_r2([1, 2], [1, 2])

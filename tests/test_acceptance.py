"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance and emits exactly one PASS/FAIL line with the measured numbers,
so a full run reads as a checklist.  Run with -s to see the lines as they
happen.
"""
import json
import math
import os
import time

import numpy as np
import pytest

from motionlink.align import AlignConfig, correlate_with_alignment
from motionlink.cli import main as cli_main
from motionlink.engine import (
    FilterConfig,
    correlate,
    filter_pairs_naive,
    mismatch_budget,
    spearman_rho,
)
from motionlink.evalbench import (
    DEFAULT_RESTRICTED_SET,
    bench_scaling,
    evaluate,
    intersect_sessions,
    sweep_parameters,
)
from motionlink.model import (
    ActivityLabel,
    Channel,
    MotionDataset,
    SensorPosition,
    VisualDataset,
)
from motionlink.pipeline import ConfusionMatrix, MotionTrace, build_series
from motionlink.synth import (
    CohortSpec,
    DEFAULT_MAGNITUDE_BASE,
    GroundTruth,
    generate_cohort,
    generate_sessions,
    synthesize_motion_trace,
    train_classifier,
)
from motionlink.windex import (
    build_index,
    filter_with_index,
)
from scaling_fit import fit_r2
from series_rows import visual_series
from windex_oracle import expansion_count, wildcard_expansions

# set to "1" to include the naive scan at p=q=10^5 in the scaling check;
# that single row takes hours, so it stays out of the default run
FULL_NAIVE_ENV = "MOTIONLINK_FULL_NAIVE"


def check(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


def window_mags(mat, *lead) -> np.ndarray:
    """Magnitudes j % 7 + 0.5 of window j in every row of `mat`, shaped
    (rows, *lead, windows)."""
    mags = np.arange(mat.shape[1]) % 7 + 0.5
    return np.broadcast_to(mags, (len(mat), *lead, mat.shape[1]))


def motion_dataset(mat) -> MotionDataset:
    return MotionDataset.from_arrays([f"u{i}" for i in range(len(mat))], mat,
                                     window_mags(mat), 1.0)


def visual_dataset(mat) -> VisualDataset:
    return VisualDataset.from_arrays([f"a{i}" for i in range(len(mat))], mat,
                                     window_mags(mat, len(SensorPosition)), 1.0)


def diag_confusion(diagonal) -> ConfusionMatrix:
    k = len(ActivityLabel)
    rows = np.empty((k, k))
    for i, d in enumerate(diagonal):
        rows[i] = (1.0 - d) / (k - 1)
        rows[i, i] = d
    return ConfusionMatrix(rows)


def test_c01_index_matches_brute_force_on_random_datasets():
    rng = np.random.default_rng(11)
    n_datasets = 100
    start = time.perf_counter()
    for _ in range(n_datasets):
        p = int(rng.integers(1, 2001))
        q = int(rng.integers(1, 2001))
        k = int(rng.choice([5, 10]))
        t_abs = int(rng.integers(0, 4))
        m_mat = rng.integers(0, 8, size=(q, k), dtype=np.uint8)
        v_mat = rng.integers(0, 8, size=(p, k), dtype=np.uint8)
        # half the visual rows are near-copies of motion rows, mutated in
        # 0..t_abs+1 positions, to land on both sides of the budget
        for i in range(0, p, 2):
            row = m_mat[int(rng.integers(0, q))].copy()
            for pos in rng.choice(k, size=int(rng.integers(0, t_abs + 2)), replace=False):
                row[pos] = (row[pos] + int(rng.integers(1, 8))) % 8
            v_mat[i] = row

        visual = visual_dataset(v_mat)
        motion = motion_dataset(m_mat)
        got = filter_with_index(visual, motion, t_abs).pairs
        expected = {}
        for i in range(p):
            dists = (m_mat != v_mat[i]).sum(axis=1)
            keep = np.flatnonzero(dists <= t_abs)
            if keep.size:
                expected[f"a{i}"] = {f"u{j}": int(dists[j]) for j in keep}
        assert got == expected
    elapsed = time.perf_counter() - start
    check(elapsed < 300.0,
          f"indexed filtering equals brute force on {n_datasets} random datasets "
          f"(p,q<=2000, k in 5/10, t in 0..3), zero discrepancies, {elapsed:.0f}s")


def test_c02_scaling_speedup_and_growth_rates():
    sizes = [(1000, 1000), (3162, 3162), (10000, 10000), (100000, 100000)]
    full_naive = os.environ.get(FULL_NAIVE_ENV) == "1"
    cutoff = 10 ** 11 if full_naive else 10 ** 10
    rows = bench_scaling(sizes, k=10, t_abs=3, naive_cutoff=cutoff)
    naive = {r.p: r for r in rows if r.method == "naive"}
    indexed = {r.p: r for r in rows if r.method == "indexed"}

    assert naive[100000].status == ("ok" if full_naive else "skipped")
    for p in (1000, 3162, 10000):
        assert naive[p].pairs_retained == indexed[p].pairs_retained

    speedup = naive[10000].wall_time_ms / indexed[10000].wall_time_ms
    idx_sizes = [1000, 10000, 100000]
    r2_lin = fit_r2([2.0 * p for p in idx_sizes],
                    [indexed[p].wall_time_ms for p in idx_sizes])
    naive_ps = [p for p in (1000, 3162, 10000, 100000) if naive[p].status == "ok"]
    r2_quad = fit_r2([float(p) ** 2 for p in naive_ps],
                     [naive[p].wall_time_ms for p in naive_ps])
    check(speedup >= 10.0 and r2_lin >= 0.95 and r2_quad >= 0.95,
          f"scaling at k=10 t=3: indexed {speedup:.0f}x faster at 10^4, "
          f"indexed linear in p+q R2={r2_lin:.3f}, naive quadratic in p R2={r2_quad:.3f}")


def test_c03_index_key_count_identity():
    assert expansion_count(5, 2) == 16
    assert expansion_count(10, 3) == 176
    rng = np.random.default_rng(23)
    results = []
    for q, k, t_abs in ((23, 5, 2), (57, 10, 3), (9, 8, 1)):
        mat = rng.integers(0, 8, size=(q, k), dtype=np.uint8)
        index = build_index(mat, t_abs)
        # the paper's key set, enumerated per sequence
        keys = [wildcard_expansions([ActivityLabel(int(c)) for c in row], t_abs)
                for row in mat]
        per_seq = sum(math.comb(k, i) for i in range(t_abs + 1))
        assert sum(len(ks) for ks in keys) == q * per_seq
        # the index stores only the variants with exactly t_abs wildcards
        maximal = sum(1 for ks in keys for key in ks if key.count(0xFF) == t_abs)
        assert maximal == q * math.comb(k, t_abs)
        assert index.entry_count == maximal
        results.append(f"{q}x{per_seq} enumerated, {q}x{math.comb(k, t_abs)} stored")
    check(True,
          "enumerated wildcard keys equal q * sum C(k,i): 16 keys/seq at k=5 t=2, "
          "176 at k=10 t=3; the index stores the q * C(k,t) keys with exactly t "
          f"wildcards; built sizes {', '.join(results)}")


def test_c04_spearman_matches_closed_form():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(3, 51))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        rho = spearman_rho(x, y)
        rx = np.argsort(np.argsort(x)) + 1.0
        ry = np.argsort(np.argsort(y)) + 1.0
        d2 = float(((rx - ry) ** 2).sum())
        worst = max(worst, abs(rho - (1.0 - 6.0 * d2 / (n * (n * n - 1.0)))))
    # strictly increasing maps must not move rank correlation at all
    for _ in range(200):
        n = int(rng.integers(3, 51))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert spearman_rho(np.exp(x), y ** 3 + 2.0 * y) == spearman_rho(x, y)
    check(worst <= 1e-12,
          f"rank correlation matches 1 - 6*sum(d^2)/(n(n^2-1)) on 10,000 tie-free "
          f"pairs, worst |diff| {worst:.1e}; invariant under monotone maps")


def test_c05_threshold_endpoints():
    # budget arithmetic at the ends
    for n in (1, 7, 24, 100):
        assert mismatch_budget(1.0, n) == n
        assert mismatch_budget(0.0, n) == 0
    # t=0 keeps exactly the identical sequences
    rng = np.random.default_rng(41)
    for _ in range(30):
        q, k = 12, 16
        m_mat = rng.integers(0, 8, size=(q, k), dtype=np.uint8)
        v_mat = m_mat.copy()
        flip = rng.random(q) < 0.5
        for i in np.flatnonzero(flip):  # plant exactly one mismatch
            j = int(rng.integers(0, k))
            v_mat[i, j] = (v_mat[i, j] + 1) % 8
        rows, ids, dists = filter_pairs_naive(v_mat, m_mat, 0.0)
        for i in range(q):
            expected = np.flatnonzero((m_mat != v_mat[i]).sum(axis=1) == 0)
            assert np.array_equal(np.sort(ids[rows == i]), expected)
        assert all(d == 0 for d in dists)
    # a full-width budget never produces a none-correlated outcome
    noisy = diag_confusion([0.5] * 8)
    nones_full = []
    for seed in range(10):
        spec = CohortSpec(num_identities=8, n_windows=24, seed=500 + seed,
                          motion_confusion=noisy, visual_confusion=noisy,
                          magnitude_noise_sd=0.2)
        visual, motion, truth = generate_cohort(spec)
        rep = evaluate(correlate(visual, motion, FilterConfig(t_norm=1.0)), truth)
        nones_full.append(rep.fraction_none)
    # and one sweep over the same grid shows both endpoints at once
    spec = CohortSpec(num_identities=8, n_windows=24, seed=555,
                      motion_confusion=noisy, visual_confusion=noisy,
                      magnitude_noise_sd=0.2)
    grid = sweep_parameters(spec, [1.0], [0.0, 1.0])
    sweep_none_full = grid[(1.0, 1.0)].fraction_none
    sweep_none_zero = grid[(1.0, 0.0)].fraction_none
    check(max(nones_full) == 0.0 and sweep_none_full == 0.0 and sweep_none_zero >= 0.9,
          f"t=1.0 yields zero none-correlated outcomes (10 noisy cohorts and a sweep "
          f"cell); t=0 drops every mismatched pair (sweep none={sweep_none_zero:.2f})")


def test_c06_alignment_recovers_a_2p4s_offset():
    lag, n, t_norm = 2.4, 20, 0.4
    model = train_classifier(Channel.MOTION, 1.0, seed=0)
    rng = np.random.default_rng(606)
    traces, vis, mapping = {}, [], {}
    for i in range(n):
        script = rng.integers(0, 8, size=n + 4)
        amps = np.array([DEFAULT_MAGNITUDE_BASE[ActivityLabel(int(c))] for c in script]) \
            * rng.uniform(0.9, 1.5)
        full = synthesize_motion_trace(script, amps, 1.0, np.random.default_rng(700 + i))
        i0 = int(np.searchsorted(full.timestamps, lag - 1e-9))
        traces[f"u{i:02d}"] = MotionTrace(full.timestamps[i0:], full.accel[i0:],
                                          full.gyro[i0:])
        vis.append(visual_series(f"a{i:02d}", script[:n],
                                 {p.value: amps[:n].tolist() for p in SensorPosition}))
        mapping[f"a{i:02d}"] = f"u{i:02d}"
    visual = VisualDataset(vis)
    truth = GroundTruth(mapping=mapping, scripts={})

    built = MotionDataset(build_series(tr, 1.0, model, ident) for ident, tr in traces.items())
    motion = MotionDataset.from_arrays(built.ids, built.codes[:, :n], built.mags[:, :n],
                                       built.window_seconds)
    plain = evaluate(correlate(visual, motion, FilterConfig(t_norm=t_norm)), truth)

    corrected, offsets = correlate_with_alignment(
        traces, visual, model, FilterConfig(t_norm=t_norm),
        AlignConfig(delta_max=4.0, step=0.5))
    rep = evaluate(corrected, truth)
    err = max(abs(offsets[a].get(mapping[a], np.inf) - lag) for a in mapping)
    check(plain.top_1_rate == 0.0 and rep.top_1_rate == 1.0 and err <= 0.5,
          f"2.4s clock offset, 20 identities, w=1s: uncorrected top-1 "
          f"{plain.top_1_rate:.0%}, offset recovered within {err:.1f}s, corrected "
          f"top-1 {rep.top_1_rate:.0%}")


def test_c07_large_cohort_end_to_end():
    spec = CohortSpec(num_identities=271, n_windows=60, seed=42)
    visual, motion, truth = generate_cohort(spec)
    clean = evaluate(correlate(visual, motion, FilterConfig(t_norm=0.0)), truth)
    assert clean.top_1_rate == 1.0

    motion_cm = diag_confusion([0.36, 0.85, 0.65, 0.85, 0.90, 0.80, 0.90, 0.80])
    visual_cm = diag_confusion([0.22, 0.85, 0.62, 0.85, 0.90, 0.80, 0.90, 0.80])
    plain_rates, restricted_rates = [], []
    for seed in range(10):
        spec = CohortSpec(num_identities=271, n_windows=60, seed=100 + seed,
                          motion_confusion=motion_cm, visual_confusion=visual_cm,
                          magnitude_noise_sd=0.15)
        visual, motion, truth = generate_cohort(spec)
        rep_u = evaluate(correlate(visual, motion, FilterConfig(t_norm=0.3)), truth)
        rep_r = evaluate(correlate(
            visual, motion, FilterConfig(t_norm=0.3, restricted=DEFAULT_RESTRICTED_SET)),
            truth)
        plain_rates.append(rep_u.top_1_rate)
        restricted_rates.append(rep_r.top_1_rate)
    chance = 1.0 / 271.0
    mean_u = float(np.mean(plain_rates))
    mean_r = float(np.mean(restricted_rates))
    check(clean.top_1_rate == 1.0 and mean_u > chance and mean_r >= mean_u,
          f"271 identities: noiseless t=0 top-1 100%; noisy-label top-1 {mean_u:.3f} "
          f"vs chance {chance:.4f} over 10 seeds; restricted labels {mean_r:.3f} "
          f"(not worse)")


def test_c08_identical_scripts_disambiguated_by_magnitude():
    rates = []
    for seed in range(20):
        spec = CohortSpec(num_identities=10, n_windows=40, seed=200 + seed,
                          shared_script=True, magnitude_noise_sd=0.2)
        visual, motion, truth = generate_cohort(spec)
        rep = evaluate(correlate(visual, motion, FilterConfig(t_norm=0.3)), truth)
        rates.append(rep.top_3_rate)
    mean = float(np.mean(rates))
    check(mean > 0.3,
          f"10 identities on one shared script, intensity + noise only: top-3 "
          f"{mean:.3f} over 20 seeds vs 0.3 chance")


def test_c09_three_session_intersection_beats_single_sessions():
    idle_heavy = {lab: (0.70 if lab is ActivityLabel.IDLE else 0.30 / 7)
                  for lab in ActivityLabel}
    singles = np.zeros((10, 3))
    merged_rates = np.zeros(10)
    for seed in range(10):
        spec = CohortSpec(num_identities=40, n_windows=8, seed=300 + seed,
                          activity_prior=idle_heavy, magnitude_noise_sd=0.35)
        sessions, truth = generate_sessions(spec, 3)
        per_session = []
        for s, (visual, motion) in enumerate(sessions):
            rankings = correlate(visual, motion, FilterConfig(t_norm=0.625))
            per_session.append(rankings)
            singles[seed, s] = evaluate(rankings, truth).top_1_rate
        merged_rates[seed] = evaluate(intersect_sessions(per_session), truth).top_1_rate
    best_single = float(singles.mean(axis=0).max())
    merged = float(merged_rates.mean())
    check(merged > best_single,
          f"3-session intersection top-1 {merged:.3f} vs best single session "
          f"{best_single:.3f} over 10 seeds")


def test_c10_outputs_deterministic_across_runs(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"num_identities": 6, "n_windows": 24, "seed": 77, "magnitude_noise_sd": 0.1}))
    for d in ("one", "two"):
        assert cli_main(["generate", "--spec", str(spec),
                         "--out-dir", str(tmp_path / d)]) == 0
    gen_same = all(
        (tmp_path / "one" / f).read_bytes() == (tmp_path / "two" / f).read_bytes()
        for f in ("visual.jsonl", "motion.jsonl", "truth.json"))

    ranks = []
    for run in ("1", "2"):
        out = tmp_path / f"rank{run}.jsonl"
        assert cli_main(["correlate", "--visual", str(tmp_path / "one" / "visual.jsonl"),
                         "--motion", str(tmp_path / "one" / "motion.jsonl"),
                         "--out", str(out)]) == 0
        ranks.append(out.read_bytes())

    retained = []
    for name in ("s1.csv", "s2.csv"):
        assert cli_main(["bench", "--sizes", "200x200",
                         "--out", str(tmp_path / name)]) == 0
        rows = (tmp_path / name).read_text().splitlines()[1:]
        retained.append([line.rsplit(",", 1)[1] for line in rows])

    check(gen_same and ranks[0] == ranks[1] and retained[0] == retained[1],
          "fixed seeds give byte-identical generated files, byte-identical "
          "rankings across runs, and reproducible benchmark pair counts")

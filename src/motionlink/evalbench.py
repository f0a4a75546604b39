"""Outcome metrics and experiment harnesses built on the correlation engine.

Everything downstream of `correlate` lives here: scoring ranked identity
lists against ground truth, sweeping the (window width, threshold) grid,
shrinking candidate sets with multi-session intersection, deriving the
restricted label set from channel confusion, and the naive-vs-indexed
filtering benchmark.
"""
from __future__ import annotations

import csv
import logging
import time
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .engine import (
    FilterConfig,
    RankEntry,
    RankedIdentityList,
    _plan_text,
    correlate,
    filter_pairs_naive,
)
from .errors import ConfigError, DataError, MemoryCapExceeded, MissingGroundTruth, TraceTooShort
from .model import ActivityLabel, Channel, MotionDataset, VisualDataset
from .pipeline import _EPS, build_dataset, window_edges
from .synth import (
    CohortSpec,
    GroundTruth,
    TraceCohort,
    generate_cohort,
    permute_expand,
    train_classifier,
)
from .windex import build_index, filter_pairs_indexed, plan_index

logger = logging.getLogger(__name__)

__all__ = [
    "Outcome",
    "EvalReport",
    "ScalingRow",
    "DEFAULT_CONFUSION_THRESHOLD",
    "DEFAULT_RESTRICTED_SET",
    "DEFAULT_NAIVE_CUTOFF",
    "evaluate",
    "sweep_parameters",
    "sweep_to_rows",
    "write_sweep_csv",
    "restricted_set_from_confusion",
    "label_agreement",
    "intersect_sessions",
    "bench_matrices",
    "bench_scaling",
    "write_scaling_csv",
]


class Outcome(Enum):
    """Per-avatar result of one correlation run."""

    CORRECT = "correctly_correlated"
    INCORRECT = "incorrectly_correlated"
    NONE = "none_correlated"


@dataclass(frozen=True)
class EvalReport:
    """Scored outcomes for one ranking batch.

    `config` echoes whatever run parameters produced the rankings so a
    report row is self-describing when written out next to others.
    """

    outcomes: Mapping[str, Outcome]
    top_1_rate: float
    top_3_rate: float
    top_k: int
    top_k_rate: float
    config: Mapping[str, object] = field(default_factory=dict)

    def fraction(self, outcome: Outcome) -> float:
        n = len(self.outcomes)
        return sum(1 for o in self.outcomes.values() if o is outcome) / n

    @property
    def fraction_correct(self) -> float:
        return self.fraction(Outcome.CORRECT)

    @property
    def fraction_incorrect(self) -> float:
        return self.fraction(Outcome.INCORRECT)

    @property
    def fraction_none(self) -> float:
        return self.fraction(Outcome.NONE)

    def to_dict(self) -> dict:
        return {
            "top_1_rate": self.top_1_rate,
            "top_3_rate": self.top_3_rate,
            "top_k": self.top_k,
            "top_k_rate": self.top_k_rate,
            "fraction_correct": self.fraction_correct,
            "fraction_incorrect": self.fraction_incorrect,
            "fraction_none": self.fraction_none,
            "outcomes": {a: o.value for a, o in sorted(self.outcomes.items())},
            "config": dict(self.config),
        }


def evaluate(rankings: Sequence[RankedIdentityList], truth, top_k: int = 3,
             *, config: Mapping[str, object] | None = None) -> EvalReport:
    """Score rankings against the avatar-to-identity ground truth.

    An empty ranking is the "none correlated" outcome; otherwise the top
    entry decides correct vs incorrect.  Top-k rates count avatars whose
    true identity appears among the first k entries.  Each avatar is scored
    once: a list that repeats one raises DataError.
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    if not rankings:
        raise DataError("no rankings to evaluate")
    mapping = truth.mapping if isinstance(truth, GroundTruth) else truth
    outcomes: dict[str, Outcome] = {}
    hits_1 = hits_3 = hits_k = 0
    head = max(3, top_k)  # the entries the rates read
    for ranking in rankings:
        avatar = ranking.avatar_id
        if avatar in outcomes:
            raise DataError(f"avatar {avatar!r} is ranked more than once")
        try:
            true_id = mapping[avatar]
        except KeyError:
            raise MissingGroundTruth(f"no ground truth for avatar {avatar!r}") from None
        ids = [e.identity_id for e in ranking.entries[:head]]
        if not ids:
            outcomes[avatar] = Outcome.NONE
            continue
        outcomes[avatar] = Outcome.CORRECT if ids[0] == true_id else Outcome.INCORRECT
        hits_1 += ids[0] == true_id
        hits_3 += true_id in ids[:3]
        hits_k += true_id in ids[:top_k]
    n = len(rankings)
    return EvalReport(
        outcomes=outcomes,
        top_1_rate=hits_1 / n,
        top_3_rate=hits_3 / n,
        top_k=top_k,
        top_k_rate=hits_k / n,
        config=dict(config) if config else {},
    )


# ---------------------------------------------------------------------------
# (w, t) parameter sweep

def _cohort_at(cohort: TraceCohort | CohortSpec, w: float, train_seed: int,
               ) -> tuple[VisualDataset, MotionDataset, GroundTruth]:
    """The cohort's (visual, motion, truth) at window width `w`."""
    if isinstance(cohort, CohortSpec):
        n_w = int(round(cohort.n_windows * cohort.window_seconds / w))
        return generate_cohort(replace(cohort, window_seconds=w, n_windows=n_w))
    motion_model = train_classifier(Channel.MOTION, w, seed=train_seed)
    visual_model = train_classifier(Channel.VISUAL, w, seed=train_seed)
    motion = build_dataset(cohort.motion_traces, w, motion_model)
    visual = build_dataset(cohort.keypoint_traces, w, visual_model)
    return visual, motion, cohort.truth


def _check_grid(w_values: Sequence[float], t_values: Sequence[float]) -> None:
    """Refuse an empty sweep grid and an invalid w or t."""
    if not w_values or not t_values:
        raise ConfigError("w_values and t_values must be non-empty")
    if any(not 0 < w < np.inf for w in w_values):
        raise ConfigError("window widths must be positive and finite")
    if any(not 0.0 <= t <= 1.0 for t in t_values):
        raise ConfigError("normalized thresholds must lie in [0, 1]")


def sweep_parameters(cohort: TraceCohort | CohortSpec, w_values: Sequence[float],
                     t_values: Sequence[float], *,
                     restricted: frozenset[ActivityLabel] | None = None,
                     train_seed: int = 0) -> dict[tuple[float, float], EvalReport]:
    """Full factorial grid over window width and normalized threshold.

    Given a TraceCohort, series are rebuilt from the raw traces for every
    w, with classifiers trained per width.  Given a CohortSpec, the cohort is
    regenerated per width with the total recording time held fixed, so
    wider windows mean shorter sequences just as re-windowing would.  Each
    width is scored at every threshold before the next is built, and a width
    longer than the shortest trace, or than the spec's recording, raises
    TraceTooShort before any is built.  Returns {(w, t): EvalReport}.
    """
    _check_grid(w_values, t_values)
    if isinstance(cohort, TraceCohort):
        traces = [*cohort.motion_traces.values(), *cohort.keypoint_traces.values()]
        window_edges(min(traces, key=lambda trace: trace.duration), max(w_values))
    elif cohort.n_windows * cohort.window_seconds / max(w_values) + _EPS < 1:
        raise TraceTooShort(f"the spec records less than one {max(w_values)}s window")
    grid: dict[tuple[float, float], EvalReport] = {}
    for w in dict.fromkeys(w_values):  # a repeated width is built once
        visual, motion, truth = _cohort_at(cohort, w, train_seed)
        for t in t_values:
            rankings = correlate(visual, motion, FilterConfig(t_norm=t, restricted=restricted))
            grid[(w, t)] = evaluate(rankings, truth)
    return grid


SWEEP_FIELDS = ["w", "t_norm", "top_1_rate", "top_3_rate",
                 "fraction_correct", "fraction_incorrect", "fraction_none"]


def sweep_to_rows(grid: Mapping[tuple[float, float], EvalReport]) -> list[dict]:
    """Long-format rows (one per grid cell) for plotting or CSV export."""
    rows = []
    for (w, t), report in sorted(grid.items()):
        rows.append({"w": w, "t_norm": t, **{f: getattr(report, f) for f in SWEEP_FIELDS[2:]}})
    return rows


def write_sweep_csv(grid: Mapping[tuple[float, float], EvalReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        writer.writeheader()
        writer.writerows(sweep_to_rows(grid))


# ---------------------------------------------------------------------------
# restricted label set from channel confusion

DEFAULT_CONFUSION_THRESHOLD = 0.6

# Labels that survive the default threshold under typical channel error
# rates: idle and head rotation confuse too easily across channels.
DEFAULT_RESTRICTED_SET = frozenset({
    ActivityLabel.BODY_ROTATION,
    ActivityLabel.HAND_MOVEMENT,
    ActivityLabel.WALKING,
    ActivityLabel.BENDING,
    ActivityLabel.JUMPING,
    ActivityLabel.OTHER,
})


def label_agreement(cm_pair) -> dict[ActivityLabel, float]:
    """Per-label rate at which both channels report the true label.

    Channels mislabel independently, so the agreement rate for label l is
    the product of the two diagonal entries at l.
    """
    motion_cm, visual_cm = cm_pair
    diag_m = np.diagonal(motion_cm.rows)
    diag_v = np.diagonal(visual_cm.rows)
    return {label: float(diag_m[label.value] * diag_v[label.value])
            for label in ActivityLabel}


def restricted_set_from_confusion(cm_pair, threshold: float = DEFAULT_CONFUSION_THRESHOLD,
                                  ) -> frozenset[ActivityLabel]:
    """Labels whose cross-channel confusion (1 - agreement) stays under
    `threshold`.  Larger thresholds always retain a superset."""
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must lie in (0, 1], got {threshold}")
    agreement = label_agreement(cm_pair)
    return frozenset(label for label, a in agreement.items() if 1.0 - a < threshold)


# ---------------------------------------------------------------------------
# multi-session intersection

def intersect_sessions(session_rankings: Sequence[Sequence[RankedIdentityList]],
                       ) -> list[RankedIdentityList]:
    """Combine rankings of the same avatars across recording sessions.

    A candidate survives only if every session ranked it; survivors are
    re-ordered by mean rho, each keeping the sensor position from its
    best-scoring session.  An empty intersection leaves the avatar with an
    empty ranking.
    """
    if len(session_rankings) < 2:
        raise ConfigError("need at least two sessions to intersect")
    per_session: list[dict[str, RankedIdentityList]] = []
    for rankings in session_rankings:
        per_session.append({r.avatar_id: r for r in rankings})
    avatars = list(per_session[0])
    expected = set(avatars)
    for i, by_avatar in enumerate(per_session[1:], start=2):
        if set(by_avatar) != expected:
            raise DataError(f"session {i} ranks a different avatar set")

    merged: list[RankedIdentityList] = []
    for avatar in avatars:
        entry_maps = [
            {e.identity_id: e for e in by_avatar[avatar].entries}
            for by_avatar in per_session
        ]
        survivors = set(entry_maps[0])
        for m in entry_maps[1:]:
            survivors &= set(m)
        scored = []
        for ident in survivors:
            entries = [m[ident] for m in entry_maps]
            rhos = [e.rho for e in entries]
            best = max(entries, key=lambda e: e.rho)
            scored.append((sum(rhos) / len(rhos), ident, best.position))
        scored.sort(key=lambda item: (-item[0], item[1]))
        merged.append(RankedIdentityList(avatar, tuple(
            RankEntry(ident, rho, position) for rho, ident, position in scored
        )))
    return merged


# ---------------------------------------------------------------------------
# scaling benchmark

DEFAULT_NAIVE_CUTOFF = 10 ** 10  # pair comparisons; naive rows at or past it are skipped


@dataclass(frozen=True)
class ScalingRow:
    """One timing measurement of the filtering stage."""

    p: int
    q: int
    k: int
    t_abs: int
    method: str  # "naive" | "indexed"
    status: str  # "ok" | "skipped" | "refused"
    wall_time_ms: float | None
    pairs_retained: int | None

    def __post_init__(self):
        if self.method not in ("naive", "indexed"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.status not in ("ok", "skipped", "refused"):
            raise ConfigError(f"unknown status {self.status!r}")
        if self.status == "ok":
            if self.wall_time_ms is None or self.wall_time_ms <= 0:
                raise DataError("measured rows need a positive wall time")
            if self.pairs_retained is None or not 0 <= self.pairs_retained <= self.p * self.q:
                raise DataError("pairs_retained must lie in [0, p*q]")


SCALING_FIELDS = [f.name for f in fields(ScalingRow)]


def bench_matrices(p: int, q: int, k: int, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Label-code matrices for one benchmark size.

    A pool of at most 32 random rows is expanded to p visual and q motion rows
    by row sampling plus per-row permutation, which keeps a realistic label
    mix while making sequences distinct.  The pool rows themselves lead
    both matrices verbatim so the filter always has exact matches to find;
    without them, independent permutations rarely land within a small
    mismatch budget and every probe would come back empty.
    """
    if p < 1 or q < 1 or k < 1:
        raise ConfigError(f"need positive p, q, k; got {p}, {q}, {k}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 97)))
    base = rng.integers(0, len(ActivityLabel), size=(min(32, q), k), dtype=np.uint8)
    v_mat = permute_expand(base, p, seed=seed + 1)
    m_mat = permute_expand(base, q, seed=seed + 2)
    v_mat[: min(len(base), p)] = base[: min(len(base), p)]
    m_mat[: len(base)] = base
    return v_mat, m_mat


def _timed(call) -> tuple[float, int]:
    """Wall milliseconds of a filter `call()` and the pairs it retained."""
    start = time.perf_counter()
    rows, _, _ = call()
    elapsed = time.perf_counter() - start
    return elapsed * 1e3, int(rows.size)


def bench_scaling(sizes: Sequence[tuple[int, int]], k: int = 10, t_abs: int = 3,
                  methods: Sequence[str] = ("naive", "indexed"), *,
                  seed: int = 0,
                  naive_cutoff: int = DEFAULT_NAIVE_CUTOFF) -> list[ScalingRow]:
    """Time the filtering stage per size and method.

    Dataset generation is excluded from the clock.  Naive rows whose p*q
    reaches `naive_cutoff` are emitted with status "skipped".  An indexed
    row times the m-block index `windex.plan_index` picks, and logs that
    plan at INFO; an index the plan refuses over the memory cap, before it
    builds, or the query refuses on its raw hits becomes status "refused".
    The retained-pair count is deterministic given the seed; wall times
    are not.  Raises DataError when both methods measure a size and retain
    different pair counts.
    """
    if not 0 <= t_abs <= k:
        raise ConfigError(f"t_abs must lie in [0, k={k}], got {t_abs}")
    for method in methods:
        if method not in ("naive", "indexed"):
            raise ConfigError(f"unknown method {method!r}")
    rows: list[ScalingRow] = []
    for p, q in sizes:
        v_mat, m_mat = bench_matrices(p, q, k, seed=seed)
        for method in methods:
            if method == "naive":
                if p * q >= naive_cutoff:
                    rows.append(ScalingRow(p, q, k, t_abs, method, "skipped", None, None))
                    continue
                # mismatch_budget(t_abs / k, k) is t_abs exactly: the budget is
                # floored after a nudge far above the quotient's rounding error
                wall_ms, retained = _timed(lambda: filter_pairs_naive(v_mat, m_mat, t_abs / k))
            else:
                try:
                    m, cost = plan_index(p, q, k, t_abs)
                    logger.info("filter plan: indexed %s, index %.3g at m=%d",
                                _plan_text(p, q, k), cost, m)
                    wall_ms, retained = _timed(
                        lambda: filter_pairs_indexed(v_mat, build_index(m_mat, t_abs, m)))
                except MemoryCapExceeded:
                    rows.append(ScalingRow(p, q, k, t_abs, method, "refused", None, None))
                    continue
            rows.append(ScalingRow(p, q, k, t_abs, method, "ok",
                                   max(wall_ms, 1e-6), retained))
        kept = {r.method: r.pairs_retained for r in rows[-len(methods):] if r.status == "ok"}
        if len(set(kept.values())) > 1:
            raise DataError(f"naive and indexed filters disagree at {p}x{q}: {kept}")
    return rows


def write_scaling_csv(rows: Sequence[ScalingRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SCALING_FIELDS)
        writer.writeheader()
        writer.writerows(asdict(row) for row in rows)

"""Command-line front end.

One binary, one subcommand per pipeline stage, so a full experiment is
reproducible from shell history alone: generate a cohort, build series
from raw traces, recover clock offsets, correlate the two channels,
benchmark the filter, evaluate rankings, sweep the parameter grid.

Exit codes separate the failure classes a caller might branch on:
0 success, 2 bad configuration, 3 bad or inconsistent data, 4 resource
cap hit or memory exhausted, 5 file-system trouble.  The library's INFO log, such as the filter
plan of `correlate` and `bench`, goes to stderr; stdout and the files
written do not change with it.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import asdict, dataclass, fields
from importlib import metadata
from pathlib import Path

from .align import AlignConfig, align_offset_search
from .engine import (
    DEFAULT_MIN_OBSERVED_FRACTION,
    DEFAULT_T_NORM,
    FilterConfig,
    _check_fraction,
    correlate,
    read_rankings_jsonl,
    write_rankings_jsonl,
)
from .errors import ConfigError, DataError, MemoryCapExceeded, MotionLinkError
from .evalbench import (
    DEFAULT_NAIVE_CUTOFF,
    DEFAULT_RESTRICTED_SET,
    SCALING_FIELDS,
    SWEEP_FIELDS,
    _check_grid,
    bench_scaling,
    evaluate,
    sweep_parameters,
    write_scaling_csv,
    write_sweep_csv,
)
from .model import (
    SERIES_FORMAT_VERSION,
    Channel,
    MotionDataset,
    VisualDataset,
    json_value,
    read_dataset_jsonl,
    read_json,
    write_dataset_jsonl,
    write_json,
)
from .pipeline import (
    build_series,
    load_classifier,
    read_keypoint_jsonl,
    read_motion_csv,
    save_classifier,
    window_edges,
    write_keypoint_jsonl,
    write_motion_csv,
)
from .synth import (
    GroundTruth,
    generate_cohort,
    load_cohort_spec,
    synthesize_trace_cohort,
    train_classifier,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RESOURCE = 4
EXIT_IO = 5

# Schema identifiers reported by --version.  Bump an entry when the
# on-disk layout changes shape, not when values change.
FORMAT_IDS = (
    ("series-jsonl", f"v{SERIES_FORMAT_VERSION}"),
    ("rankings-jsonl", "v1"),
    ("truth-json", "v1"),
    ("cohort-spec-json", "v1"),
    ("classifier-json", "v1"),
    ("alignment-json", "v1"),
    ("scaling-csv", ",".join(SCALING_FIELDS)),
    ("sweep-csv", ",".join(SWEEP_FIELDS)),
)


def version_text() -> str:
    try:
        pkg = metadata.version("motionlink")
    except metadata.PackageNotFoundError:
        pkg = "0+local"
    lines = [f"motionlink {pkg}"]
    lines += [f"{name} {ident}" for name, ident in FORMAT_IDS]
    return "\n".join(lines)


@dataclass(frozen=True)
class RunConfig:
    """Correlation-run settings shared between the config file and flags.

    Flags override file values field by field; unknown file keys are an
    error rather than a silent ignore.  The window width is not a setting:
    the series files carry it.
    """

    t_norm: float = DEFAULT_T_NORM
    restricted: bool = False
    min_observed_fraction: float = DEFAULT_MIN_OBSERVED_FRACTION
    top_k: int = 3

    def __post_init__(self):
        for name, kind in (("t_norm", float), ("min_observed_fraction", float),
                           ("restricted", bool), ("top_k", int)):
            json_value(getattr(self, name), kind, name, ConfigError)
        FilterConfig(self.t_norm)  # the engine's own range checks
        _check_fraction(self.min_observed_fraction)
        if self.top_k < 1:
            raise ConfigError(f"top_k must be an integer >= 1, got {self.top_k!r}")


_RUN_FIELDS = tuple(f.name for f in fields(RunConfig))


def _config_from_dict(payload) -> dict:
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(payload) - set(_RUN_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    RunConfig(**payload)  # the file's values must be valid on their own
    return payload


def resolve_run_config(args) -> RunConfig:
    """The config file's values, overridden by the flags given explicitly."""
    values = {}
    if args.config:
        values = read_json(args.config, _config_from_dict, "config", ConfigError)
    for name in _RUN_FIELDS:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return RunConfig(**values)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--{what}: {exc}") from exc
    return vals


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            p, q = map(int, tok.lower().split("x"))
        except ValueError:
            raise ConfigError(f"--sizes entries must look like PxQ, got {tok!r}") from None
        sizes.append((p, q))
    if not sizes:
        raise ConfigError("--sizes must list at least one PxQ entry")
    return sizes


def _seed(text: str) -> int:
    """argparse type of a seed or session number: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return int(text)


def _width(text: str) -> float:
    """argparse type of a window width in seconds: positive and finite."""
    if not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return float(text)


def _classifier_for(channel: Channel, w: float, args):
    if getattr(args, "model", None):
        model = load_classifier(args.model)
        if model.channel is not channel:
            raise ConfigError(
                f"classifier in {args.model} is for the {model.channel.value} "
                f"channel, not {channel.value}"
            )
        return model
    return train_classifier(channel, w, seed=args.train_seed)


# --- subcommands ----------------------------------------------------------


def cmd_generate(args) -> int:
    spec = load_cohort_spec(args.spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.traces:
        cohort = synthesize_trace_cohort(spec, session=args.session)
        motion_dir = out / "motion"
        visual_dir = out / "keypoints"
        motion_dir.mkdir(exist_ok=True)
        visual_dir.mkdir(exist_ok=True)
        for ident in sorted(cohort.motion_traces):
            write_motion_csv(cohort.motion_traces[ident], motion_dir / f"{ident}.csv")
        for avatar in sorted(cohort.keypoint_traces):
            write_keypoint_jsonl(
                cohort.keypoint_traces[avatar], visual_dir / f"{avatar}.jsonl"
            )
        cohort.truth.save(out / "truth.json")
        p, q = len(cohort.keypoint_traces), len(cohort.motion_traces)
    else:
        visual, motion, truth = generate_cohort(spec, session=args.session)
        write_dataset_jsonl(visual, out / "visual.jsonl")
        write_dataset_jsonl(motion, out / "motion.jsonl")
        truth.save(out / "truth.json")
        p, q = len(visual), len(motion)
    print(f"generated p={p} avatars, q={q} identities, k={spec.n_windows} windows in {out}")
    return EXIT_OK


def cmd_build_series(args) -> int:
    channel = Channel.MOTION if args.channel == "motion" else Channel.VISUAL
    if channel is Channel.MOTION:
        trace = read_motion_csv(args.trace)
        dataset_cls = MotionDataset
    else:
        trace = read_keypoint_jsonl(args.trace)
        dataset_cls = VisualDataset
    window_edges(trace, args.w)  # a trace shorter than one window fails before training
    model = _classifier_for(channel, args.w, args)
    source_id = args.source_id or Path(args.trace).stem
    series = build_series(trace, args.w, model, source_id)
    write_dataset_jsonl(dataset_cls([series]), args.out)
    if args.save_model:
        save_classifier(model, args.save_model)
    print(f"built {channel.value} series {source_id!r}: {len(series)} windows of {args.w}s")
    return EXIT_OK


def cmd_align(args) -> int:
    align = AlignConfig(delta_max=args.delta_max, step=args.step)
    align.check_memory()
    trace = read_motion_csv(args.motion_csv)
    visual = read_dataset_jsonl(args.visual)
    if not isinstance(visual, VisualDataset):
        raise DataError(f"{args.visual} holds motion series, expected visual")
    if args.avatar not in visual:
        raise DataError(f"avatar {args.avatar!r} not present in {args.visual}")
    model = _classifier_for(Channel.MOTION, visual.window_seconds, args)
    result = align_offset_search(trace, visual[args.avatar], model, align)
    write_json(args.out, asdict(result))
    print(f"best offset {result.offset:+.3f}s (distance {result.distance})")
    return EXIT_OK


def cmd_correlate(args) -> int:
    cfg = resolve_run_config(args)
    if args.report and not args.truth:
        raise ConfigError("--report requires --truth")
    if args.top_k is not None and not args.report:
        raise ConfigError("--top-k applies only with --report")
    truth = GroundTruth.load(args.truth) if args.truth else None
    visual = read_dataset_jsonl(args.visual)
    motion = read_dataset_jsonl(args.motion)
    if not isinstance(visual, VisualDataset):
        raise DataError(f"{args.visual} holds motion series, expected visual")
    if not isinstance(motion, MotionDataset):
        raise DataError(f"{args.motion} holds visual series, expected motion")
    restricted = DEFAULT_RESTRICTED_SET if cfg.restricted else None
    rankings = correlate(visual, motion, FilterConfig(cfg.t_norm, restricted),
                         cfg.min_observed_fraction)
    write_rankings_jsonl(rankings, args.out, truth=truth.mapping if truth else None)
    matched = sum(1 for r in rankings if len(r.entries) > 0)
    print(f"ranked {len(rankings)} avatars ({matched} with candidates) -> {args.out}")
    if args.report:
        report = evaluate(
            rankings,
            truth,
            top_k=cfg.top_k,
            config={
                "w": visual.window_seconds,
                "t_norm": cfg.t_norm,
                "restricted": sorted(l.token for l in restricted) if restricted else None,
                "min_observed_fraction": cfg.min_observed_fraction,
            },
        )
        write_json(args.report, report.to_dict())
        print(f"top-1 {report.top_1_rate:.3f}, top-3 {report.top_3_rate:.3f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    rows = bench_scaling(
        sizes,
        k=args.k,
        t_abs=args.t_abs,
        methods=methods,
        seed=args.seed,
        naive_cutoff=args.naive_cutoff,
    )
    write_scaling_csv(rows, args.out)
    for row in rows:
        label = f"{row.method} {row.p}x{row.q}"
        if row.status == "ok":
            print(f"{label}: {row.wall_time_ms:.1f} ms, {row.pairs_retained} pairs")
        else:
            print(f"{label}: {row.status}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    rankings = read_rankings_jsonl(args.rankings)
    truth = GroundTruth.load(args.truth)
    report = evaluate(rankings, truth, top_k=args.top_k)
    print(f"avatars {len(report.outcomes)}")
    print(f"top-1 rate {report.top_1_rate:.4f}")
    print(f"top-3 rate {report.top_3_rate:.4f}")
    print(f"correctly correlated {report.fraction_correct:.4f}")
    print(f"incorrectly correlated {report.fraction_incorrect:.4f}")
    print(f"none correlated {report.fraction_none:.4f}")
    if args.out:
        write_json(args.out, report.to_dict())
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_cohort_spec(args.spec)
    w_values = _parse_floats(args.w_values, "w-values")
    t_values = _parse_floats(args.t_values, "t-values")
    _check_grid(w_values, t_values)  # before traces are synthesized
    restricted = DEFAULT_RESTRICTED_SET if args.restricted else None
    cohort = synthesize_trace_cohort(spec) if args.trace_mode else spec
    grid = sweep_parameters(
        cohort,
        w_values,
        t_values,
        restricted=restricted,
        train_seed=args.train_seed,
    )
    write_sweep_csv(grid, args.out)
    print(f"swept {len(grid)} cells -> {args.out}")
    return EXIT_OK


# --- parser and dispatch --------------------------------------------------


def _add_run_flags(sub) -> None:
    # defaults stay None so only explicit flags override the config file
    sub.add_argument("--config", help="JSON file with run settings")
    sub.add_argument("--t-norm", dest="t_norm", type=float, default=None,
                     help="normalized mismatch threshold in [0, 1]")
    sub.add_argument("--restricted", dest="restricted",
                     action=argparse.BooleanOptionalAction, default=None,
                     help="filter on the reliable label subset only")
    sub.add_argument("--min-observed-fraction", dest="min_observed_fraction",
                     type=float, default=None)
    sub.add_argument("--top-k", dest="top_k", type=int, default=None)


def _add_model_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--model", help="saved classifier JSON")
    group.add_argument("--train-seed", dest="train_seed", type=_seed, default=0,
                       help="train a fresh classifier with this seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionlink",
        description="Cross-channel motion correlation toolkit",
        # raw text keeps each --version schema identifier on its own line
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=version_text(),
                        help="print tool and file-format versions")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="synthesize a cohort to files")
    p.add_argument("--spec", required=True, help="cohort spec JSON")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--session", type=_seed, default=0)
    p.add_argument("--traces", action="store_true",
                   help="emit raw traces instead of finished series")
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("build-series", help="classify one raw trace into a series")
    p.add_argument("--trace", required=True, help="motion CSV or keypoint JSONL")
    p.add_argument("--channel", choices=["motion", "visual"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("-w", type=_width, default=1.0, help="window width in seconds")
    p.add_argument("--source-id", dest="source_id", default=None,
                   help="series id (default: trace file stem)")
    p.add_argument("--save-model", dest="save_model", default=None,
                   help="also write the classifier used")
    _add_model_flags(p)
    p.set_defaults(func=cmd_build_series)

    p = subs.add_parser("align", help="recover one avatar's clock offset")
    p.add_argument("--motion-csv", dest="motion_csv", required=True)
    p.add_argument("--visual", required=True, help="visual series JSONL")
    p.add_argument("--avatar", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.5)
    _add_model_flags(p)
    p.set_defaults(func=cmd_align)

    p = subs.add_parser("correlate", help="rank identities for every avatar")
    p.add_argument("--visual", required=True)
    p.add_argument("--motion", required=True)
    p.add_argument("--out", required=True, help="rankings JSONL")
    p.add_argument("--truth", default=None, help="ground truth JSON, annotates outcomes")
    p.add_argument("--report", default=None, help="also write an evaluation JSON")
    _add_run_flags(p)
    p.set_defaults(func=cmd_correlate)

    p = subs.add_parser("bench", help="time the filtering stage at scale")
    p.add_argument("--sizes", required=True, help="comma list of PxQ, e.g. 100x100,1000x1000")
    p.add_argument("--out", required=True, help="scaling CSV")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--t-abs", dest="t_abs", type=int, default=3)
    p.add_argument("--methods", default="naive,indexed")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--naive-cutoff", dest="naive_cutoff", type=int,
                   default=DEFAULT_NAIVE_CUTOFF,
                   help="skip naive rows with p*q at or above this")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("evaluate", help="score rankings against ground truth")
    p.add_argument("--rankings", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--top-k", dest="top_k", type=int, default=3)
    p.add_argument("--out", default=None, help="write the report JSON here too")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("sweep", help="run the (w, t) evaluation grid")
    p.add_argument("--spec", required=True, help="cohort spec JSON")
    p.add_argument("--w-values", dest="w_values", required=True)
    p.add_argument("--t-values", dest="t_values", required=True)
    p.add_argument("--out", required=True, help="long-format CSV, one row per cell")
    p.add_argument("--trace-mode", dest="trace_mode", action="store_true",
                   help="synthesize raw traces and rebuild series per width")
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--train-seed", dest="train_seed", type=_seed, default=0)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_CONFIG
    log = logging.getLogger("motionlink")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (MemoryCapExceeded, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MotionLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def entrypoint() -> None:
    raise SystemExit(main())

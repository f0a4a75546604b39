"""One-command benchmark for motionlink.

    python3 perfbench/run.py
        runs every workload twice, untraced then traced, each in its own
        process, and prints every metric with its unit and sample count.
    python3 perfbench/run.py --workload rank_heavy --seed 3 --seconds 25 --trace 0
        runs one workload; the last line of output is the result as JSON.

Workloads, the library calls each makes, and which end-to-end metric each
per-layer metric moves are listed in perfbench/manifest.json; metric names
and units come from BENCHMARK.json.  The library is imported from the
checkout's src/ directory and nowhere else.

An untraced run (--trace 0) reports the end-to-end metrics.  A traced run
(--trace 1) alternates untraced and traced iterations: the traced ones
record spans around every library call, then run a probe that splits
`correlate` into filtering and ranking or times the index build alone.
It reports per-layer metrics and the tracing overhead.  Per-layer metrics
of layers a workload does not touch read 0.  Spans and a results file go
to perfbench/out/.

Timed metrics are reported at a nominal host speed; see REFERENCE_S.  The
raw wall times are in the results file.

Every iteration checks its outputs.  A failed check, a call that raises, or
a deterministic count that changes between iterations is a failed
operation, and the run then exits with code 1.
"""

import time

_START = time.perf_counter()  # set-up time is measured from here

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("cohort_e2e", "rank_heavy", "filter_scale", "trace_align")

# How long each reference kernel takes on an unloaded core of the 2-core
# x86-64 machine the workloads were sized on.  This kind of shared host runs
# the same code up to twice as slowly for stretches of seconds to minutes,
# and interpreter-bound and large-array numpy code slow down independently.
# So each timed metric is scaled by (nominal / measured kernel time), measured
# next to the work it scales with the kernel that matches where the workload
# spends its time, and reads as if measured at the nominal speed.  setup_s,
# mostly import time, is scaled with the interpreter kernel: it follows import
# time only loosely, but closer than wall seconds do from one stretch of host
# load to the next.
REFERENCE_S = {"interpreter": 0.017, "vector": 0.040}


@dataclasses.dataclass(frozen=True)
class _Row:
    key: int
    value: float
    name: str


_JSON_ROWS = [{"id": f"u{i:04d}", "x": [j / 7 for j in range(30)], "codes": list(range(30))}
              for i in range(40)]


def _interpreter_kernel() -> None:
    """Small-object construction and sorting, JSON round trips, and many
    numpy calls on short arrays: the kind of work the series, I/O and
    ranking code does."""
    import numpy as np

    rows = [_Row(i, i / 3, str(i)) for i in range(8000)]
    rows.sort(key=lambda r: (-r.value, r.name))
    for _ in range(3):
        json.loads(json.dumps(_JSON_ROWS, sort_keys=True))
    small = np.linspace(0.0, 1.0, 30) ** 2
    for _ in range(400):
        np.unique(small, return_inverse=True, return_counts=True)
        centred = small - small.mean()
        float(centred @ centred)


def _vector_kernel() -> None:
    """A large int64 sort and row-against-matrix compares: the kind of work
    the filters and the wildcard index do."""
    import numpy as np

    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2 ** 40, size=400_000)
    codes = rng.integers(0, 8, size=(20_000, 10), dtype=np.uint8)
    np.sort(keys)
    for row in codes[:60]:
        (codes != row).sum(axis=1)


_KERNELS = {"interpreter": _interpreter_kernel, "vector": _vector_kernel}


def _speed(kind: str) -> float:
    """Nominal over measured time of one reference kernel run: 1.0 at the
    nominal speed, 0.5 when the host runs it twice as slowly."""
    gc.disable()  # a collection would scan whatever heap the workload left
    try:
        began = time.perf_counter()
        _KERNELS[kind]()
        return REFERENCE_S[kind] / (time.perf_counter() - began)
    finally:
        gc.enable()


def _fresh_import_s() -> float:
    """Seconds a new interpreter takes to import the library."""
    code = ("import time; began = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(SRC)!r}); import motionlink; "
            "print(time.perf_counter() - began)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def _at_nominal_speed(metrics: dict, units: dict, speed: float) -> dict:
    """Scale timed values by the host speed they were measured at."""
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        if unit in ("s", "ms", "us"):
            value *= speed
        elif unit.endswith("/s"):
            value /= speed
        out[name] = value
    return out


def _import_library():
    sys.path.insert(0, str(SRC))
    try:
        import motionlink
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import motionlink from {SRC}: {exc}")
    if not Path(motionlink.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: motionlink came from {motionlink.__file__}, not {SRC}")


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"perfbench: cannot read {path}: {exc}")


def _resolve(dotted: str):
    """The object a dotted name such as motionlink.GroundTruth.save names."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def _check_manifest(manifest: dict, benchmark: dict) -> None:
    """Every listed call exists and the manifest names the declared metrics."""
    missing = []
    for name, spec in manifest["workloads"].items():
        for call in spec["calls"]:
            try:
                _resolve(call)
            except (ImportError, AttributeError):
                missing.append(f"{name}: {call}")
    if missing:
        sys.exit("perfbench: library calls the benchmark needs are gone: " + ", ".join(missing))
    listed = {m for module in manifest["modules"] for m in module["metrics"]}
    declared = {m["name"] for m in benchmark["per_layer"]} - {"trace.overhead_s"}
    if listed != declared:
        sys.exit(f"perfbench: manifest and BENCHMARK.json disagree on {sorted(listed ^ declared)}")


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "motionlink").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Aborted(Exception):
    """A library call raised, so the rest of the iteration cannot run."""


class Runner:
    """What a workload calls the library through.

    Counts attempted and failed operations, records a span per call, and
    holds the deterministic counts every iteration must reproduce.
    """

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed_ops: set[tuple[str, str]] = set()
        self.failures: list[str] = []
        self.counts: dict[str, object] = {}

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        with self.tracer.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # a raising call is a measured failure
                traceback.print_exc(file=sys.stderr)
                self.fail(name, f"raised {exc!r}")
                raise Aborted(name) from exc

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add((self.tracer.iteration, op))
        self.failures.append(f"[{self.tracer.iteration}] {op}: {message}")

    def check(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def count(self, op: str, key: str, value) -> None:
        first = self.counts.setdefault(key, value)
        if value != first:
            self.fail(op, f"count {key} is {value!r}, an earlier iteration had {first!r}")


@dataclasses.dataclass
class Measurement:
    # this process's, then fresh interpreters' (see _fresh_import_s)
    import_s: list = dataclasses.field(default_factory=list)
    prepare_s: list = dataclasses.field(default_factory=list)
    # at each set-up step; scales setup_s and the traced run's set-up spans
    setup_speeds: list = dataclasses.field(default_factory=list)
    # per iteration, keyed by whether it was traced
    walls: dict = dataclasses.field(default_factory=lambda: {False: [], True: []})
    speeds: dict = dataclasses.field(default_factory=lambda: {False: [], True: []})
    # per untraced iteration: (avatars, pairs screened)
    work: list = dataclasses.field(default_factory=list)
    # per traced iteration: (per-layer metrics as measured, speed)
    layer: list = dataclasses.field(default_factory=list)


def measure(workload, runner, tracer, traced_run: bool, seconds: float, small: bool,
            ) -> Measurement:
    m = Measurement(import_s=[time.perf_counter() - _START])
    if not traced_run:
        m.import_s += [_fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    m.setup_speeds.append(_speed("interpreter"))
    for i in range(SETUP_REPEATS):
        tracer.enabled, tracer.iteration = traced_run, f"setup{i}"
        began = time.perf_counter()
        workload.prepare(runner, small)
        m.prepare_s.append(time.perf_counter() - began)
        tracer.enabled = False
        m.setup_speeds.append(_speed("interpreter"))

    last_cost = {}
    loop_start = time.perf_counter()
    i = 0
    while True:
        traced = traced_run and i % 2 == 1
        began = time.perf_counter()
        gc.collect()  # every iteration starts from the same heap
        speed_before = _speed(workload.reference)
        tracer.enabled, tracer.iteration = traced, f"it{i}"
        try:
            start = time.perf_counter()
            with tracer.span("iteration"):
                out = workload.iterate(runner)
            wall = time.perf_counter() - start
            tracer.enabled = False
            speed = (speed_before + _speed(workload.reference)) / 2
            tracer.enabled = traced
            m.walls[traced].append(wall)
            m.speeds[traced].append(speed)
            if not traced:
                m.work.append((out["avatars"], out["screened"]))
            try:
                workload.verify(runner, out)
            except Exception as exc:  # an output of unexpected shape fails the check
                traceback.print_exc(file=sys.stderr)
                runner.fail("verify", repr(exc))
            if traced:
                with tracer.span("probe"):
                    probe = workload.probe(runner, out)
                m.layer.append((workload.layer_metrics(
                    tracer.iteration_view(tracer.iteration), out, probe), speed))
        except Aborted:
            pass
        out = None
        tracer.enabled = False
        last_cost[traced] = time.perf_counter() - began
        i += 1
        upcoming = traced_run and i % 2 == 1
        elapsed = time.perf_counter() - loop_start
        if i >= (2 if traced_run else 1) and \
                elapsed + last_cost.get(upcoming, last_cost[traced]) > seconds:
            return m


def untraced_metrics(m: Measurement) -> dict:
    """End-to-end metrics, name -> (value, samples)."""
    if not m.work:
        return {}
    n = len(m.work)
    nominal_walls = [w * s for w, s in zip(m.walls[False], m.speeds[False])]
    return {
        "avatars_per_s": (statistics.median(a / w for (a, _), w in zip(m.work, nominal_walls)), n),
        "pairs_screened_per_s": (statistics.median(
            p / w for (_, p), w in zip(m.work, nominal_walls)), n),
        "setup_s": ((statistics.median(m.import_s) + statistics.median(m.prepare_s))
                    * statistics.median(m.setup_speeds), len(m.prepare_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def traced_metrics(m: Measurement, workload, tracer, units: dict, expected: set) -> dict:
    """Per-layer metrics, name -> (value, samples); layers the workload does
    not touch read 0 with 0 samples."""
    if not m.layer or not m.walls[False]:
        return {}
    scaled = [_at_nominal_speed(values, units, speed) for values, speed in m.layer]
    measured = {name: (statistics.median(it[name] for it in scaled), len(scaled))
                for name in scaled[0]}
    if hasattr(workload, "setup_metrics"):
        views = [tracer.iteration_view(f"setup{i}") for i in range(SETUP_REPEATS)]
        values = _at_nominal_speed(workload.setup_metrics(views), units,
                                   statistics.median(m.setup_speeds))
        measured.update({name: (v, SETUP_REPEATS) for name, v in values.items()})
    if set(measured) != expected:
        raise RuntimeError(f"{workload.name} measured {sorted(measured)}, "
                           f"manifest expects {sorted(expected)}")
    traced = [w * s for w, s in zip(m.walls[True], m.speeds[True])]
    untraced = [w * s for w, s in zip(m.walls[False], m.speeds[False])]
    measured["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced),
                                    min(len(traced), len(untraced)))
    return {name: measured.get(name, (0, 0)) for name in units}


def run_one(args, benchmark: dict, manifest: dict) -> int:
    import workloads
    from tracing import Tracer

    traced_run = args.trace == 1
    declared = benchmark["per_layer" if traced_run else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    tracer = Tracer()
    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(args.seed, tracer, workdir)
    try:
        m = measure(workload, runner, tracer, traced_run, args.seconds, args.small)
    except Aborted:  # set-up failed
        m = Measurement()
    finally:
        tracer.enabled = False
        shutil.rmtree(workdir, ignore_errors=True)
    if traced_run:
        expected = {name for module in manifest["modules"]
                    for name, on in module["metrics"].items() if args.workload in on}
        metrics = traced_metrics(m, workload, tracer, units, expected)
    else:
        metrics = untraced_metrics(m)

    failed = len(runner.failed_ops)
    attempted = max(runner.attempted, 1)
    provenance = _provenance(args.seed)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "small": args.small, "provenance": provenance,
            "attempted": attempted, "failed": failed, "failures": runner.failures,
            "metrics": {name: {"value": v, "unit": units[name], "samples": n}
                        for name, (v, n) in metrics.items()},
            "counts": runner.counts,
            "setup": {"import_s": m.import_s, "prepare_s": m.prepare_s,
                      "speed": m.setup_speeds},
            "iteration_wall_s": {"untraced": m.walls[False], "traced": m.walls[True]},
            "speed": {"untraced": m.speeds[False], "traced": m.speeds[True]},
        }, fh, indent=1, sort_keys=True)
    if traced_run:
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"provenance": provenance, "spans": tracer.to_json()}, fh)

    print(f"perfbench {args.workload} trace={args.trace} seconds={args.seconds}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, n) in metrics.items():
        if n:  # layers this workload does not touch are left out here
            print(f"  {name:<40} {value:>16.6g} {units[name]:<10} n={n}")
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} {'ratio':<10} "
          f"({failed} of {attempted} operations failed)")
    for key, value in sorted(runner.counts.items()):
        print(f"  count {key} = {value}")
    for line in runner.failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    print(f"results {result_path.relative_to(ROOT)}")
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--small"] if args.small else [])
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            sys.stderr.write(done.stderr)
            status = status or done.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                combined["correct"] = False
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated inputs (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics")
    parser.add_argument("--small", action="store_true",
                        help="shrink every input; for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_library()
    if args.workload == "all":
        return run_all(args)
    benchmark = _load_json(ROOT / "BENCHMARK.json")
    manifest = _load_json(HERE / "manifest.json")
    _check_manifest(manifest, benchmark)
    return run_one(args, benchmark, manifest)


if __name__ == "__main__":
    sys.exit(main())

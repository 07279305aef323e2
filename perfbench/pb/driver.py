"""Run one workload: set up, measure passes for a fixed time, check, report.

The last line on stdout is the JSON result:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
traced run reports the per-layer ones.  A run record with the metadata (and,
when traced, the spans) is written under perfbench/_work/records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from . import THREAD_VARS, stats
from .calibrate import Calibration, reference_factor
from .tracing import Instrumentation, Tracer, write_spans
from .workloads import DEFAULT_SEED, FULL, SKIPPED_RUNG_ENTRIES, WORKLOADS

SETUP_REPEATS = 5


def metric_units(root: Path, kind: str) -> dict[str, str]:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json, in order."""
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in benchmark[kind]}


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_passes(workload, seconds: float, tracer: Tracer) -> list[tuple[float, float, float]]:
    """Repeat the fixed work until the next pass would end after `seconds`.

    Returns (start, end, seconds inside stodep) for each pass.
    """
    passes = []
    started = time.perf_counter()
    while True:
        start = time.perf_counter()
        busy = workload.run_pass(tracer)
        end = time.perf_counter()
        passes.append((start, end, busy))
        if end - started + busy > seconds:
            return passes


# Run in a fresh interpreter: ticks, `import stodep`, ticks; prints the import's
# seconds and the ticks, so the import is scaled by the speed of its own CPU.
# numpy is imported first, untimed: its import is third-party work no change to
# stodep moves, and most of it starts the BLAS thread pool, whose time depends
# on where the scheduler puts the pool's threads, which the ticks do not see.
IMPORT_PROBE = """
import time
import numpy
from pb.calibrate import tick_seconds
ticks = [tick_seconds() for _ in range(5)]
started = time.perf_counter()
import stodep
seconds = time.perf_counter() - started
ticks += [tick_seconds() for _ in range(5)]
print(seconds, *ticks)
"""


def import_seconds(root: Path, calibration: Calibration) -> float:
    """`import stodep` in a fresh interpreter, as a CLI user pays it, in reference seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    with calibration.paused():
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
    seconds, *ticks = (float(v) for v in out.stdout.split())
    return seconds * reference_factor(ticks)


def timed_setup(workload, root: Path, calibration: Calibration):
    """One set-up: the import in reference seconds, and the build's (start, end, seconds)."""
    imported = import_seconds(root, calibration)
    start = time.perf_counter()
    workload.setup()
    end = time.perf_counter()
    return imported, (start, end, end - start)


def reference_seconds(calibration: Calibration, spans) -> list[float]:
    """(start, end, seconds) spans in reference seconds, at the speed seen from start to end."""
    return [seconds * calibration.factor(start, end - start) for start, end, seconds in spans]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setups, passes, certify, rows) -> dict:
    """Times in reference seconds (see calibrate.py)."""
    return {
        "setup_s": stats.median(setups),
        "wall_s": stats.median(passes),
        "peak_rss_mb": peak_rss_mb(),
        "certify_largest_s": stats.median(certify),
        "row_p50_ms": 1000.0 * stats.percentile(rows, 50.0),
        "row_p95_ms": 1000.0 * stats.percentile(rows, 95.0),
    }


def layer_metrics(tracer: Tracer, setup: dict, passes: int, rows: int, overhead: float) -> dict:
    """Per-layer figures for one set-up plus one pass; per-row counts from passes only."""
    final = tracer.snapshot()

    def per_cycle(kind, name):
        before = setup[kind].get(name, 0.0)
        return before + (final[kind].get(name, 0.0) - before) / passes

    def in_passes(kind, name):
        return final[kind].get(name, 0) - setup[kind].get(name, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    calls = final["calls"]
    busy = final["busy"]
    select_calls = calls.get("policies.select", 0)
    potential_calls = calls.get("rewards.potential", 0)
    sweeps = in_passes("calls", "dp.solve") + in_passes("calls", "dp.evaluate")
    out = {
        "dp.solve.busy_s": per_cycle("busy", "dp.solve"),
        "dp.solve.entries_per_s": ratio(final["counts"]["dp.solve.entries"], busy.get("dp.solve", 0)),
        "dp.evaluate.busy_s": per_cycle("busy", "dp.evaluate"),
        "dp.sweeps_per_row": ratio(sweeps, rows),
        "dp.audit.busy_s": per_cycle("busy", "dp.audit"),
        "dp.table_dump.busy_s": per_cycle("busy", "dp.table_dump"),
        "dp.table_dump.bytes": per_cycle("counts", "dp.table_dump.bytes"),
        "dp.table.bytes": tracer.maxima.get("dp.table.bytes", 0),
        "properties.ir.busy_s": per_cycle("busy", "properties.ir"),
        "properties.ir.pairs_per_s": ratio(final["counts"]["properties.ir.pairs"],
                                           busy.get("properties.ir", 0)),
        "properties.vfm.busy_s": per_cycle("busy", "properties.vfm"),
        "properties.ratio.self_s": per_cycle("self_time", "properties.ratio"),
        "properties.assumption1.busy_s": per_cycle("busy", "properties.assumption1"),
        "properties.submodular.busy_s": per_cycle("busy", "properties.submodular"),
        "policies.select.calls": per_cycle("calls", "policies.select"),
        "policies.select.busy_s": per_cycle("busy", "policies.select"),
        "policies.select.hit_ratio": 1.0 - ratio(len(tracer.distinct["policies.select"]),
                                                 select_calls) if select_calls else 0.0,
        "model.one_step.calls": per_cycle("calls", "model.one_step"),
        "model.sample.calls": per_cycle("calls", "model.sample"),
        "model.reward.calls": per_cycle("calls", "model.reward"),
        "model.validate.busy_s": per_cycle("busy", "model.validate"),
        "serialize.fingerprint.calls_per_row": ratio(in_passes("calls", "serialize.fingerprint"), rows),
        "serialize.fingerprint.busy_s": per_cycle("busy", "serialize.fingerprint"),
        "serialize.load.busy_s": per_cycle("busy", "serialize.load"),
        "rewards.potential.calls": per_cycle("calls", "rewards.potential"),
        "rewards.potential.hit_ratio": ratio(final["counts"]["rewards.potential.hits"], potential_calls),
        "simulate.episode.busy_s": per_cycle("busy", "simulate.episode"),
        "simulate.episode.self_s": per_cycle("self_time", "simulate.episode"),
        "apps.build.busy_s": per_cycle("busy", "apps.build"),
        "cli.self_s": per_cycle("self_time", "cli.main"),
        "trace.overhead_frac": overhead,
    }
    return {k: float(v) for k, v in out.items()}


def git_sha(root: Path) -> str | None:
    """HEAD's commit; None outside a git checkout or without git."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_metadata(root: Path, args, workload, nproc: int, certify: list[float]) -> dict:
    import numpy

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "shapes": workload.shapes,
    }
    if args.workload == "exact-ladder":
        meta["skipped_rungs"] = skipped_rungs(workload, certify)
    return meta


def skipped_rungs(workload, certify: list[float]) -> list[dict]:
    """The 1e4-1e7 rungs, with the pipeline time the largest measured rung predicts."""
    largest = max(workload.shapes, key=lambda s: s["dense_entries"])
    per_entry = stats.median(certify) / largest["dense_entries"]
    return [
        {
            "dense_entries": n,
            "reason": f"solve -> check -> audit costs about {per_entry * 1e3:.2f} ms per dense "
                      f"entry on the largest rung, so this rung would add about "
                      f"{per_entry * n:.0f} s to every pass",
        }
        for n in SKIPPED_RUNG_ENTRIES
    ]


def load_reference(root: Path, args) -> dict | None:
    """Recorded outputs for the default seed (perfbench/reference.json)."""
    if args.seed != DEFAULT_SEED:
        return None
    path = root / "perfbench" / "reference.json"
    return json.loads(path.read_text(encoding="utf-8")).get(args.workload)


def run(args, root: Path, work_root: Path, scale=FULL, reference=None):
    """Run one workload; return (result JSON object, run record, tracer or None)."""
    nproc = len(os.sched_getaffinity(0))
    work_dir = work_root / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir, scale, reference)
    record: dict = {}
    tracer = None
    plain = Tracer()  # never installed: op labels only
    calibration = Calibration()
    try:
        workload.prepare()
        if args.trace == 0:
            with calibration.ticking():
                setups = [timed_setup(workload, root, calibration) for _ in range(SETUP_REPEATS)]
                passes = timed_passes(workload, args.seconds, plain)
            rows = calibration.scale(workload.row_spans)
            certify = calibration.scale(workload.certify_spans)
            imports, builds = zip(*setups)
            setup_s = [i + b for i, b in zip(imports, reference_seconds(calibration, builds))]
            walls = reference_seconds(calibration, passes)
            values = end_to_end_metrics(setup_s, walls, certify, rows)
            units = metric_units(root, "end_to_end")
            record.update(setup_s=setup_s, pass_walls=walls, raw_pass_walls=[p[2] for p in passes])
        else:
            workload.setup()
            with calibration.ticking():
                passes = timed_passes(workload, args.seconds / 2, plain)
                rows_before = len(workload.row_spans)
                tracer = Tracer()
                with Instrumentation(tracer):
                    workload.setup()
                    after_setup = tracer.snapshot()
                    traced_passes = timed_passes(workload, args.seconds / 2, tracer)
            rows = calibration.scale(workload.row_spans)
            certify = calibration.scale(workload.certify_spans)
            walls = reference_seconds(calibration, passes)
            traced = reference_seconds(calibration, traced_passes)
            overhead = stats.median(traced) / stats.median(walls) - 1.0
            values = layer_metrics(tracer, after_setup, len(traced), len(rows) - rows_before, overhead)
            units = metric_units(root, "per_layer")
            record.update(pass_walls=walls, traced_pass_walls=traced, spans=len(tracer.spans))
        record["calibration_ticks"] = calibration.ticks
        workload.finish()
        record["metadata"] = run_metadata(root, args, workload, nproc, certify)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = workload.attempted
    failed = min(len(workload.failures), attempted)
    record.update(
        failures=workload.failures,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted if attempted else 1.0,
        row_tail=stats.tail_percentile(rows),
        row_latencies=rows,
        metrics={k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    )
    result = {
        "correct": not workload.failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    return result, record, tracer


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    work_root = root / "perfbench" / "_work"
    result, record, tracer = run(args, root, work_root, reference=load_reference(root, args))
    records = work_root / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = records / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if tracer is not None:
        write_spans(tracer, f"{stem}.spans.jsonl")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for line in record["failures"][:20]:
        print(f"FAILED {line}")
    print(f"{args.workload} seed={args.seed} attempted={record['attempted']} "
          f"failed={record['failed']} failed_frac={record['failed_frac']:.4g}")
    tail = record["row_tail"]
    if tail is not None:
        print(f"row latency p{tail['percentile']:g} = {1000 * tail['value']:.3f} ms "
              f"over {tail['samples']} rows")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {stem}.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1

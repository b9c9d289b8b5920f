"""cqsdef benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is analyze-large, analyze-small, scan-checkpoint, or all (each in
turn).  The benchmark is a closed loop with one client: it runs a
workload's batches one after another, each in a fresh interpreter
(worker.py), until about S seconds of items have been measured.  Every
item goes through `cqsdef.cli.main` with CQSDEF_JOBS=1, and its output is
checked against the SHA-256 digests in reference.json.

Every time below is scaled by the calibration kernel (calibration.py),
timed in the same worker before, during and after it: a reported time is
the wall time the work would take on the reference machine at its usual
speed.  The machine is shared, and the same work can take twice as long a
few minutes later; the scaled times move with the program, not with that.
The table printed before the JSON line gives the plain wall times as well.

With --trace 0 it reports the end-to-end metrics:
- setup_s: from starting a worker interpreter until cqsdef is imported and
  the batch's inputs are made; the median of at least SETUP_SAMPLES starts;
- items_per_s: reports (analyze) or scan rows per second, all the run's
  units over all its item time;
- item_p50_s, item_p90_s: seconds per `cli.main` call (one report, or one
  scan of a window);
- peak_rss_mb: the peak resident memory of a worker, the mean over the
  run's batches.
A run stops at the end of the round of batches (workloads.round_size)
that brings its scaled item time nearest to S, or once it has taken
WALL_LIMIT times S of wall time.
With --trace 1 it runs each batch untraced and then straight away again
under span tracing, until about 0.4 S seconds of untraced items have been
measured, and reports the per-layer metrics and trace.overhead_frac
instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calibration
import spans
import workloads

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKER_TIMEOUT_S = 170
# setup_s is the median of at least this many interpreter start-ups.
SETUP_SAMPLES = 7
# On a machine this much slower than the reference, a run stops early
# rather than take too long.
WALL_LIMIT = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "cqs.cqs_new.calls_per_model": "calls/model",
        "minkowski.decompositions": "count",
        "geometry3.lattice_points": "count",
        "geometry3.hilbert_basis.elements": "count",
        "geometry3.hb_yield": "ratio",
        "report.json_bytes": "bytes",
        "trace.overhead_frac": "ratio",
    })
    return units


def spawn_worker(workload: str, seed: int, batch: int, workdir: str,
                 spans_path: str | None = None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--batch", str(batch), "--workdir", workdir]
    if spans_path:
        cmd += ["--spans", spans_path]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, CQSDEF_JOBS="1")
    # Workers keep a bytecode cache in the checkout, as an installed package
    # has one, so that setup_s times importing cqsdef, not compiling it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} batch {batch} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_batch(workload: str, seed: int, batch: int, workdir: str) -> dict:
    """Run one batch under span tracing; the result also holds its spans."""
    path = os.path.join(workdir, "spans.json")
    run = spawn_worker(workload, seed, batch, workdir, spans_path=path)
    with open(path) as fh:
        run["spans"] = json.load(fh)["spans"]
    os.remove(path)
    return run


def scaled(run: dict) -> dict:
    """Add the calibrated times to a worker's result (see calibration.py)."""
    run["setup_scaled_s"] = calibration.scale(run["setup_s"], run["setup_kernel_s"])
    for item in run["items"]:
        item["scaled_s"] = calibration.scale(item["seconds"], item["kernel_s"])
    return run


def failed_units(item: dict, kind: str, reference: dict) -> int:
    """Units of an item that count as failed: all of them if it raised,
    exited non-zero or produced output other than the reference, else its
    scan rows that carry an error."""
    expected = reference["digests"][kind].get(item["key"])
    if item["rc"] != 0 or item["digest"] is None or item["digest"] != expected:
        return item["units"]
    return item["error_rows"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    reference = workloads.load_reference()
    batches = workloads.plan(workload, seed, reference)
    # A traced run reports no percentiles, so it needs no minimum of items.
    percentile = None if trace else workloads.REPORTED_PERCENTILE.get(workload)
    min_items = workloads.min_samples(percentile) if percentile else 1
    kind = "scan" if workload == "scan-checkpoint" else "analyze"

    # A traced run measures untraced for 40% of its time and traces each
    # batch as well, which costs more, so that it takes about as long as an
    # untraced run.
    budget = seconds * 0.4 if trace else seconds
    round_size = workloads.round_size(workload)
    runs: list[dict] = []
    traced_runs: list[dict] = []
    measured = 0.0
    round_took = 0.0
    started = time.monotonic()
    # Once every batch of the plan has run, start over: each batch runs in a
    # fresh interpreter, so a repeated batch finds no cache filled by its
    # first run.
    for index in itertools.count():
        batch = index % len(batches)
        runs.append(scaled(spawn_worker(workload, seed, batch, workdir)))
        round_took += sum(item["scaled_s"] for item in runs[-1]["items"])
        if trace:
            # Straight after its untraced run, so that both see the machine
            # in the same state and the overhead is not drift between them.
            traced_runs.append(scaled(traced_batch(workload, seed, batch, workdir)))
        if (index + 1) % round_size:
            continue
        measured += round_took
        # Stop at the round boundary nearest to the requested time.
        enough = sum(len(run["items"]) for run in runs) >= min_items
        if enough and (measured + round_took / 2 >= budget
                       or time.monotonic() - started >= WALL_LIMIT * budget):
            break
        round_took = 0.0
    setups = [run["setup_scaled_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        run = scaled(spawn_worker(workload, seed, 0, workdir, setup_only=True))
        setups.append(run["setup_scaled_s"])

    items = [item for run in runs for item in run["items"]]
    times = [item["scaled_s"] for item in items]
    attempted = sum(item["units"] for item in items)
    failed = sum(failed_units(item, kind, reference) for item in items)
    e2e = {
        "setup_s": statistics.median(setups),
        "items_per_s": attempted / sum(times),
        "item_p50_s": workloads.percentile(times, 50),
        "item_p90_s": workloads.percentile(times, 90),
        "peak_rss_mb": statistics.mean(run["peak_rss_mb"] for run in runs),
    }
    wall = [item["seconds"] for item in items]
    wall_e2e = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "items_per_s": attempted / sum(wall),
        "item_p50_s": workloads.percentile(wall, 50),
        "item_p90_s": workloads.percentile(wall, 90),
    }
    result = {
        "workload": workload,
        "batches": len(runs),
        "items": len(items),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "wall": wall_e2e,
    }
    if trace:
        traced_items = [item for run in traced_runs for item in run["items"]]
        # The traced run must produce exactly the untraced run's outputs.
        result["failed"] += sum(
            b["units"]
            for a, b in zip(items, traced_items, strict=True)
            if a["key"] != b["key"] or a["digest"] != b["digest"]
        )
        layers = spans.layer_metrics([run["spans"] for run in traced_runs], models=attempted)
        # Span times are wall times; scale them as the items are scaled.
        factor = calibration.scale(1.0, statistics.median(i["kernel_s"] for i in traced_items))
        for name in layers:
            if name.endswith(".self_s"):
                layers[name] *= factor
        # Each item is timed traced seconds after it was timed untraced, and
        # the median over items keeps a slow moment of the machine out.
        layers["trace.overhead_frac"] = statistics.median(
            b["scaled_s"] / a["scaled_s"] for a, b in zip(items, traced_items)
        ) - 1
        result["per_layer"] = layers
    return result


def print_table(result: dict) -> None:
    w = result["workload"]
    print(f"# {w}: {result['batches']} batches, {result['items']} items, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    rows = [(name, value, END_TO_END_UNITS[name]) for name, value in result["end_to_end"].items()]
    rows.append(("error_rate", result["failed"] / result["attempted"], "ratio"))
    rows += [(f"{name} (wall, unscaled)", value, END_TO_END_UNITS[name])
             for name, value in result["wall"].items()]
    if "per_layer" in result:
        units = per_layer_units()
        rows += [(name, value, units[name]) for name, value in result["per_layer"].items()]
    for name, value, unit in rows:
        print(f"{w:16s} {name:44s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "cqsdef", "cli.py")):
        print("error: no cqsdef sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), workdir) for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for result in results:
        print_table(result)
        values = result["per_layer"] if args.trace else result["end_to_end"]
        units = per_layer_units() if args.trace else END_TO_END_UNITS
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

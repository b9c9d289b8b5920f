"""Run one batch of a workload in this interpreter; print one JSON line.

    python3 perfbench/worker.py --workload W --seed S --batch I --t0 T
        --workdir DIR [--spans FILE] [--setup-only]

T is the CLOCK_MONOTONIC reading taken just before this interpreter was
started; setup_s runs from T until cqsdef is imported and the batch's
inputs are made.  Each item goes through `cqsdef.cli.main` with its output
written to a file in DIR, which is digested and removed.  The calibration
kernel is timed once after set-up, after each item and every
calibration.SAMPLE_INTERVAL_S during an item; an item's "kernel_s" is the
mean of the readings around and during it, and "setup_kernel_s" is the
first reading.  With --spans the batch runs under a trace Recorder whose
spans are written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import resource
import sys
import time

import calibration
import spans
import workloads
from workloads import coprime_pairs

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_item(cli, workload: str, item: tuple[int, int], workdir: str,
             sampler: calibration.Sampler | None = None) -> dict:
    """Run one item through `cli.main`; the result holds its time, exit
    code, output digest, units of work (reports or scan rows) and the
    number of scan rows that carry an error.  With a sampler, the kernel
    readings taken during the item are in "readings", and their time is
    not in the item's."""
    a, b = item
    out = os.path.join(workdir, "output")
    if workload == "scan-checkpoint":
        checkpoint = os.path.join(workdir, "checkpoint.json")
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
        argv = ["scan", "--n-range", f"{a}:{b}", "--csv", "--checkpoint", checkpoint, "-o", out]
    else:
        argv = ["analyze", str(a), str(b), "--json", "-o", out]
    result = {"key": f"{a}:{b}" if workload == "scan-checkpoint" else f"{a},{b}"}
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result["rc"] = cli.main(argv)
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            result["rc"] = None
            result["exception"] = f"{type(exc).__name__}: {exc}"
    result["seconds"] = time.perf_counter() - start
    if sampler:
        result["seconds"] -= sampler.spent
        result["readings"] = sampler.readings
    result["digest"] = None
    result["error_rows"] = 0
    result["units"] = 1
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        result["digest"] = hashlib.sha256(data).hexdigest()
        if workload == "scan-checkpoint":
            rows = list(csv.DictReader(data.decode().splitlines()))
            result["units"] = len(rows)
            result["error_rows"] = sum(1 for row in rows if row.get("error"))
    if workload == "scan-checkpoint":
        if result["digest"] is None:
            result["units"] = len(coprime_pairs(a, b))
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import cqsdef.cli as cli

    items = workloads.plan(args.workload, args.seed, workloads.load_reference())[args.batch]
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    calibration.kernel()  # warm-up, untimed
    kernel_s = [calibration.measure()]
    results = []
    sampler = calibration.Sampler()
    if not args.setup_only:
        recorder = None
        if args.spans:
            recorder = spans.Recorder()
            recorder.install()
        try:
            for index, item in enumerate(items):
                if recorder:
                    recorder.item = index
                result = run_item(cli, args.workload, tuple(item), args.workdir, sampler)
                kernel_s.append(calibration.measure())
                readings = [kernel_s[-2], *result.pop("readings"), kernel_s[-1]]
                result["kernel_s"] = sum(readings) / len(readings)
                results.append(result)
        finally:
            if recorder:
                recorder.uninstall()
                recorder.dump(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "setup_kernel_s": kernel_s[0],
                      "peak_rss_mb": peak_kb / 1024, "items": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

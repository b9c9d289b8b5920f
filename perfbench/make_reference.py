"""Regenerate reference.json from the code in ../src.

    python3 perfbench/make_reference.py

It records the report time of every pair in the two analyze pools,
scaled by the calibration kernel timed just before and after it as the
benchmark scales its times (calibration.py), the median of REPEATS runs,
each alone in a fresh interpreter with nothing else running (the cost
strata in workloads.py are cut from these times), and the SHA-256 digest
of every output the workloads can produce: each `analyze --json` report of
the two analyze pools and each scan CSV of the scan windows.  Run it only on a commit whose outputs are the reference;
later commits must reproduce them byte for byte.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import calibration
import workloads
from worker import SRC, run_item

ROOT = os.path.dirname(workloads.HERE)
# Worker processes for the digests; the timed runs use one.
JOBS = 2
# Runs per analyze-large pair whose median time is its reference cost.
REPEATS = 3


def _reference_item(job: tuple[str, tuple[int, int], str]) -> dict:
    workload, item, workdir_root = job
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cqsdef.cli as cli

    workdir = tempfile.mkdtemp(dir=workdir_root)
    try:
        calibration.kernel()  # warm-up, untimed
        before = calibration.measure()
        result = run_item(cli, workload, item, workdir)
        kernel_s = (before + calibration.measure()) / 2
        result["scaled_s"] = calibration.scale(result["seconds"], kernel_s)
        return result
    finally:
        shutil.rmtree(workdir)


def main() -> int:
    pools = {
        "analyze-large": workloads.large_pool_sample(),
        "analyze-small": workloads.coprime_pairs(*workloads.SMALL_N),
    }
    timed = [(workload, pq) for workload, pool in pools.items() for pq in pool] * REPEATS
    jobs = [
        ("scan-checkpoint", (a, a + workloads.SCAN_WIDTH - 1)) for a in workloads.SCAN_STARTS
    ]
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir_root = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    ctx = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(1, mp_context=ctx, max_tasks_per_child=1) as pool:
            done = list(pool.map(_reference_item, [(w, i, workdir_root) for w, i in timed]))
        with ProcessPoolExecutor(JOBS, mp_context=ctx) as pool:
            done += pool.map(_reference_item, [(w, i, workdir_root) for w, i in jobs])
    finally:
        shutil.rmtree(workdir_root)

    costs, digests = {workload: {} for workload in pools}, {"analyze": {}, "scan": {}}
    for index, ((workload, item), result) in enumerate(zip(timed + jobs, done)):
        if result["rc"] != 0 or result["error_rows"] or result["digest"] is None:
            raise SystemExit(f"{workload} {item} failed: {result}")
        kind = "scan" if workload == "scan-checkpoint" else "analyze"
        if digests[kind].setdefault(result["key"], result["digest"]) != result["digest"]:
            raise SystemExit(f"{workload} {item} gave two different outputs")
        if index < len(timed):
            costs[workload].setdefault(item, []).append(result["scaled_s"])
    costs = {
        workload: [[n, q, round(statistics.median(c), 4)] for (n, q), c in sorted(times.items())]
        for workload, times in costs.items()
    }
    reference = {
        "measured_on": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "repeats": REPEATS,
        },
        "costs": costs,
        "digests": digests,
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

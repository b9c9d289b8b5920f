"""Seeded inputs for the benchmark workloads.

A workload is a sequence of batches.  Each batch runs in a fresh
interpreter (see worker.py), so the module-level caches that cqsdef keys on
(n, q) start empty, and no (n, q) repeats within a batch.  In the analyze
workloads no pair repeats within a run either, until the plan runs out and
starts over, and every batch has the same make-up, so a run that fits more
batches into its time measures the same mix, only more of it.

- analyze-large: rounds of one pair per cost stratum of a fixed pool with
  n in 90..130, one pair per batch, so that each report runs in an
  interpreter of its own, as from the command line, and the memory of a
  run does not depend on which pairs share an interpreter.
- analyze-small: one pair from each of SMALL_STRATA cost strata of all
  pairs with n in 10..40, so that every batch spreads over the costs as
  the pairs do.
- scan-checkpoint: one window of SCAN_WIDTH values of n per batch, one
  batch for each start in SCAN_STARTS, in an order the seed picks.  Later
  windows hold more and costlier rows, so a round holds all of them rather
  than letting the seed pick the scan's size.

Cost strata come from report times measured on the commit the reference
was made from (reference.json), so every seed draws the same spread of
cheap and costly singularities.  A run stops only at the end of a round
(round_size), so that it measures the same make-up of inputs whatever the
seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("analyze-large", "analyze-small", "scan-checkpoint")

LARGE_N = (90, 130)
LARGE_POOL_SIZE = 160
LARGE_STRATA = 20
# A pair whose report took longer than this multiple of the pool median at
# the reference commit is left out of the pool: one such pair outweighs the
# rest of its round, and whether a seed drew it would decide the throughput.
LARGE_COST_CAP = 2.5
SMALL_N = (10, 40)
SMALL_STRATA = 31
SCAN_WIDTH = 24
SCAN_STARTS = (28, 29, 30, 31)
# analyze-small reports item_p90_s, so its runs hold enough reports to leave
# ten beyond the 90th percentile.
REPORTED_PERCENTILE = {"analyze-small": 90}


def coprime_pairs(n_lo: int, n_hi: int) -> list[tuple[int, int]]:
    """The pairs `cqsdef scan --n-range n_lo:n_hi` visits, in its order."""
    return [
        (n, q)
        for n in range(max(3, n_lo), n_hi + 1)
        for q in range(1, n - 1)
        if gcd(n, q) == 1
    ]


def large_pool_sample() -> list[tuple[int, int]]:
    """The fixed pool analyze-large draws from, before its cost cap."""
    rng = random.Random("perfbench:analyze-large:pool")
    return sorted(rng.sample(coprime_pairs(*LARGE_N), LARGE_POOL_SIZE))


def _chunks(items: list, count: int) -> list[list]:
    """`items` cut into `count` consecutive groups whose sizes differ by at
    most one."""
    return [items[i * len(items) // count:(i + 1) * len(items) // count] for i in range(count)]


def cost_strata(costs: dict[tuple[int, int], float], count: int,
                cap: float | None = None) -> list[list[tuple[int, int]]]:
    """Pairs cut into `count` groups of neighbouring reference cost; with a
    cap, pairs costlier than `cap` times the median are left out."""
    if cap is not None:
        limit = cap * sorted(costs.values())[len(costs) // 2]
        costs = {pq: c for pq, c in costs.items() if c <= limit}
    return _chunks([pq for c, pq in sorted((c, pq) for pq, c in costs.items())], count)


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_costs(reference: dict, workload: str) -> dict[tuple[int, int], float]:
    return {(n, q): c for n, q, c in reference["costs"][workload]}


def plan(workload: str, seed: int, reference: dict) -> list[list[tuple[int, int]]]:
    """Every batch the workload can run for this seed, in order.  An item
    is an (n, q) pair for the analyze workloads and an (A, B) n-range for
    the scan."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "scan-checkpoint":
        return [[(a, a + SCAN_WIDTH - 1)] for a in rng.sample(SCAN_STARTS, len(SCAN_STARTS))]
    if workload == "analyze-large":
        strata = cost_strata(reference_costs(reference, workload), LARGE_STRATA, LARGE_COST_CAP)
    elif workload == "analyze-small":
        strata = cost_strata(reference_costs(reference, workload), SMALL_STRATA)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    strata = [rng.sample(s, len(s)) for s in strata]
    rounds = [[s[i] for s in strata] for i in range(min(map(len, strata)))]
    for pairs in rounds:
        rng.shuffle(pairs)
    if workload == "analyze-large":
        return [[pq] for pairs in rounds for pq in pairs]
    return rounds


def round_size(workload: str) -> int:
    """Batches in a round: together they hold one item of every stratum
    (analyze) or every window (scan)."""
    return {"analyze-large": LARGE_STRATA, "scan-checkpoint": len(SCAN_STARTS)}.get(workload, 1)


def min_samples(percentile: float) -> int:
    """Fewest samples that leave at least ten beyond `percentile`."""
    return math.ceil(10 / (1 - percentile / 100) - 1e-9)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

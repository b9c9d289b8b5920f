"""Opt-in soak run: every report over a range of n, each checked against
its mirror pair's.

    PYTHONPATH=src python tests/soak.py A:B

For every n in A..B and every q with 0 < q < n - 1 and gcd(n, q) = 1, it
runs build_report(cqs_new(n, q)), which makes every run-time check of the
library and validate_report.  Then, as criterion 9 of test_acceptance.py
does for n <= 40, it compares the deformations of Y(n, q) with those of
Y(n, q^-1) seen through _mirrored_signature: each side's signatures are
read off its report.  It prints one line per failure (and the traceback
of each report that raised, on standard error) and a summary, and exits
1 on any failure.  Not collected by pytest.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import Counter
from math import gcd

from cqsdef.cqs import cqs_new
from cqsdef.report import build_report, error_text
from test_acceptance import _mirrored_signature


def report_signature(rec: dict) -> tuple:
    """What a report record says of one deformation, up to its labels: the
    tuple criterion 9's _deformation_signature makes from the deformation."""
    fiber = rec["fiber"]
    return (
        rec["kind"],
        rec["h"],
        rec["p"],
        rec["d"] if rec["kind"] == "D" else None,
        () if fiber["origin"] == "smooth" else tuple(fiber["origin"]),
        tuple((tuple(chain), mult) for chain, mult in fiber["off_origin"]),
        tuple(sorted(tuple(k) for k in rec["components"])),
        tuple(rec["canonical_model"]["k"]),
        rec["is_smoothing"],
    )


def soak(n_min: int, n_max: int, out=print) -> tuple[int, list[str]]:
    """Build, check and mirror every report with n in n_min..n_max: the
    number of pairs, and one line per failure."""
    pairs, failures = 0, []
    for n in range(n_min, n_max + 1):
        signatures = {}
        for q in range(1, n - 1):
            if gcd(n, q) != 1:
                continue
            pairs += 1
            try:
                report = build_report(cqs_new(n, q))
            except Exception as exc:  # noqa: BLE001 - every pair is reported
                traceback.print_exc()
                failures.append(f"Y({n},{q}): {error_text(exc)}")
                out(failures[-1])
                continue
            e = report["model"]["e"]
            signatures[q] = e, [report_signature(rec) for rec in report["deformations"]]
        for q, (e, sigs) in signatures.items():
            q_inv = pow(q, -1, n)
            if q <= q_inv and q_inv in signatures:
                mirrored = Counter(_mirrored_signature(sig, e) for sig in signatures[q_inv][1])
                if Counter(sigs) != mirrored:
                    failures.append(f"Y({n},{q}) and Y({n},{q_inv}) are not mirrored")
                    out(failures[-1])
    return pairs, failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].count(":") != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    n_min, n_max = map(int, argv[0].split(":"))
    start = time.perf_counter()
    pairs, failures = soak(n_min, n_max)
    elapsed = time.perf_counter() - start
    print(f"soak {n_min}:{n_max}: {pairs} pairs, {len(failures)} failed, {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

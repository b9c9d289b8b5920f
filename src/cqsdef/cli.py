"""Command-line interface.

    cqsdef analyze <n> <q> [--json] [--svg DIR] [--verbose] [-o FILE]
    cqsdef scan --n-range A:B [--json|--csv] [--checkpoint FILE] [-o FILE]
    cqsdef figure <n> <q> <target> -o FILE

Exit codes: 0 success, 1 invalid input, 2 internal invariant failure.
The environment variable CQSDEF_JOBS sets the number of scan workers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from math import gcd

from .cqs import HypersurfaceError, InvalidSingularityError, cqs_new
from .report import ReportInvariantError, build_report, render_text, report_to_json, scan_row
from .svgfig import FIGURE_TARGETS, make_figure

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2

SCAN_FIELDS = [
    "n",
    "q",
    "e",
    "num_components",
    "num_deformations",
    "num_smoothings",
    "t_singularity",
    "error",
]


def _write_output(text: str, path: str | None) -> None:
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_analyze(args) -> int:
    report = build_report(args.n, args.q, verbose=args.verbose)
    if args.svg:
        os.makedirs(args.svg, exist_ok=True)
        model = cqs_new(args.n, args.q)
        for target in FIGURE_TARGETS:
            path = os.path.join(args.svg, f"y_{args.n}_{args.q}_{target}.svg")
            with open(path, "w") as fh:
                fh.write(make_figure(model, target))
    text = report_to_json(report) if args.json else render_text(report)
    _write_output(text, args.output)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range {text!r} is not of the form A:B") from None


def _scan_pairs(n_lo: int, n_hi: int) -> list[tuple[int, int]]:
    return [
        (n, q)
        for n in range(max(3, n_lo), n_hi + 1)
        for q in range(1, n - 1)
        if gcd(n, q) == 1
    ]


def _load_checkpoint(path: str | None) -> dict:
    if path and os.path.exists(path):
        with open(path) as fh:
            return {tuple(map(int, key.split(","))): row for key, row in json.load(fh).items()}
    return {}


def _save_checkpoint(path: str | None, done: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump({f"{n},{q}": row for (n, q), row in sorted(done.items())}, fh)


def cmd_scan(args) -> int:
    n_lo, n_hi = args.n_range
    pairs = _scan_pairs(n_lo, n_hi)
    done = _load_checkpoint(args.checkpoint)
    todo = [pq for pq in pairs if pq not in done]

    jobs = int(os.environ.get("CQSDEF_JOBS", "1"))
    if jobs > 1 and todo:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for (n, q), row in zip(todo, pool.map(_scan_row_star, todo)):
                done[(n, q)] = row
                _save_checkpoint(args.checkpoint, done)
    else:
        for n, q in todo:
            done[(n, q)] = scan_row(n, q)
            _save_checkpoint(args.checkpoint, done)

    rows = [done[pq] for pq in pairs]
    if args.json:
        text = json.dumps(rows, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SCAN_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({f: row.get(f, "") for f in SCAN_FIELDS})
        text = buf.getvalue()
    _write_output(text, args.output)
    return EXIT_OK


def _scan_row_star(pq: tuple[int, int]) -> dict:
    return scan_row(*pq)


def cmd_figure(args) -> int:
    if args.target not in FIGURE_TARGETS:
        raise InvalidSingularityError(
            f"unknown figure target {args.target!r}; choose from {sorted(FIGURE_TARGETS)}"
        )
    model = cqs_new(args.n, args.q)
    _write_output(make_figure(model, args.target), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqsdef",
        description="One-parameter toric deformations of cyclic quotient singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for one singularity")
    pa.add_argument("n", type=int)
    pa.add_argument("q", type=int)
    pa.add_argument("--json", action="store_true", help="emit the JSON report")
    pa.add_argument("--svg", metavar="DIR", help="write the three figures into DIR")
    pa.add_argument("--verbose", action="store_true", help="add raw_chains to each fiber entry")
    pa.add_argument("-o", "--output", help="write to FILE instead of stdout")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("scan", help="summary table over a range of n")
    ps.add_argument("--n-range", type=_parse_range, required=True, metavar="A:B")
    fmt = ps.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    ps.add_argument("--checkpoint", metavar="FILE", help="resume from / record progress in FILE")
    ps.add_argument("-o", "--output", help="write to FILE instead of stdout")
    ps.set_defaults(func=cmd_scan)

    pf = sub.add_parser("figure", help="emit one SVG figure")
    pf.add_argument("n", type=int)
    pf.add_argument("q", type=int)
    pf.add_argument("target", choices=sorted(FIGURE_TARGETS))
    pf.add_argument("-o", "--output", required=True)
    pf.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSingularityError, HypersurfaceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except (ReportInvariantError, AssertionError, RuntimeError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

    cqsdef analyze <n> <q> [--json] [--svg DIR] [--verbose] [-o FILE]
    cqsdef scan --n-range A:B [--json|--csv] [--checkpoint FILE] [-o FILE]
    cqsdef figure <n> <q> <target> -o FILE

Exit codes: 0 success, 1 invalid input (a malformed command line, a pair
n, q that InvalidSingularityError rejects, or a path given to -o, --svg or
--checkpoint that cannot be opened), 2 internal invariant failure (for
scan: some row holds an error; every row is still written).
A scan checkpoint is JSON lines, a header naming the code that wrote it
then one row per pair, appended and flushed as each row finishes; see
_load_checkpoint.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from math import gcd
from pathlib import Path

from . import __version__
from .cqs import InvalidSingularityError, cqs_new
from .report import (
    SCAN_ROW_TYPES,
    SCHEMA_VERSION,
    build_report,
    error_text,
    render_text,
    report_to_json,
    scan_row,
)
from .svgfig import FIGURE_TARGETS, make_figure

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2

SCAN_FIELDS = list(SCAN_ROW_TYPES)
# The key sets of a finished scan row and of a row holding an error.
_ROW_KEYS = (frozenset(SCAN_FIELDS) - {"error"}, frozenset(("n", "q", "error")))


def _write_output(text: str, path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    model = cqs_new(args.n, args.q)
    report = build_report(model, verbose=args.verbose)
    if args.svg:
        os.makedirs(args.svg, exist_ok=True)
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


@functools.cache
def checkpoint_header() -> dict:
    """The first line of a scan checkpoint: the report schema, the package
    version, and a SHA-256 over the names and bytes of the package's
    sorted source files, so that a checkpoint written by other code is
    not reused.  Computed once per process, by a scan with a checkpoint."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    source = digest.hexdigest()
    return {"schema_version": SCHEMA_VERSION, "version": __version__, "source": source}


def _load_checkpoint(path: str) -> tuple[dict, int]:
    """The rows a checkpoint holds, keyed by (n, q), and the length in
    bytes of its valid part.

    A checkpoint is JSON lines: checkpoint_header(), then one row per
    finished pair.  A file with another first line (other code, or the
    old single-object format) gives ({}, 0), so it is rewritten.
    Reading stops at the first line that does not parse, has no newline,
    or is not a row of scan_row (the keys of a finished row or of an error
    row, each value of its type in SCAN_ROW_TYPES): that is a write torn by a
    crash, and it and every later row are computed again.  Rows holding
    an error are left out, so they are computed again.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")[:-1]
    except FileNotFoundError:
        return {}, 0
    try:
        header = json.loads(lines[0]) if lines else None
    except ValueError:
        header = None
    if header != checkpoint_header():
        return {}, 0
    done, end = {}, len(lines[0]) + 1
    for line in lines[1:]:
        try:
            row = json.loads(line)
        except ValueError:
            break
        if not (
            isinstance(row, dict)
            and frozenset(row) in _ROW_KEYS
            and all(type(value) is SCAN_ROW_TYPES[key] for key, value in row.items())
        ):
            break
        done[(row["n"], row["q"])] = row
        end += len(line) + 1
    return {key: row for key, row in done.items() if "error" not in row}, end


@contextlib.contextmanager
def _checkpoint_appender(path: str | None, valid_len: int):
    """Yield a function that appends one row to the checkpoint and flushes
    it.  The file is cut back to its valid part, or started afresh with the
    header when that part is empty; without a path rows go nowhere."""
    if not path:
        yield lambda row: None
        return
    if valid_len:
        os.truncate(path, valid_len)
        fh = open(path, "a")
    else:
        fh = open(path, "w")
        fh.write(json.dumps(checkpoint_header()) + "\n")
    with fh:

        def append(row: dict) -> None:
            fh.write(json.dumps(row) + "\n")
            fh.flush()

        yield append


def cmd_scan(args) -> int:
    n_lo, n_hi = args.n_range
    pairs = _scan_pairs(n_lo, n_hi)
    done, valid_len = _load_checkpoint(args.checkpoint) if args.checkpoint else ({}, 0)
    todo = [pq for pq in pairs if pq not in done]

    with _checkpoint_appender(args.checkpoint, valid_len) as append:
        for pq in todo:
            row = done[pq] = scan_row(*pq)
            append(row)

    rows = [done[pq] for pq in pairs]
    if args.json:
        text = report_to_json(rows)
    else:
        import csv  # only scan writes CSV, so the other commands never load it

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(SCAN_FIELDS)
        writer.writerows([row.get(f, "") for f in SCAN_FIELDS] for row in rows)
        text = buf.getvalue()
    _write_output(text, args.output)
    failed = sum(1 for row in rows if "error" in row)
    if failed:
        print(f"{failed} of {len(rows)} rows failed", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_figure(args) -> int:
    model = cqs_new(args.n, args.q)
    _write_output(make_figure(model, args.target), args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_USER; plain
    argparse exits 2, the code of an internal failure here.  Subparsers
    are built with the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USER, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves
    it unchanged, so repeated main calls share it."""
    parser = _Parser(
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
    fmt.add_argument("--csv", action="store_true", help="emit CSV rows (the default)")
    ps.add_argument(
        "--checkpoint", metavar="FILE", help="resume from / append finished rows to FILE (JSON lines)"
    )
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
    except (InvalidSingularityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # noqa: BLE001 - any other fault is the library's
        print(f"internal invariant failure: {error_text(exc)}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands expose the dimension tables, invariant bases, characters, the
skein reduction of a matching literal, the subset-pair bijection, and the
verification suites.  Every output is byte deterministic for a fixed command
line; rationals print exactly, never as floats.

Each subcommand validates its arguments, does up front the work that can
fail, and returns a ``Table``: its JSON envelope, a lazy iterable of rows,
and how one row renders as csv cells and as a text line.  One emitter,
``_emit``, owns the ``--format`` decision and streams the rows as they are
produced, written to stdout in batches of ``BATCH_ROWS`` rows, one write per
batch, so no command holds more than a batch of its output in memory.
Queries whose row count, known in closed form, exceeds ``ROW_BUDGET`` are
refused before any work.

Exit codes: 0 success, 1 invariant violation (a failed round trip or check,
decided after the rows have streamed), 2 usage or parse error, 3 internal
error (a defect of the program, reported on one stderr line).  A command that
fails before its rows start to stream writes nothing to stdout; a defect
raised while they stream leaves what was already written (the text title or
the JSON head, and every row before the failing one) on stdout, since the
rows of an unfinished batch are written before the error is reported.  A
reader that closes stdout early, as ``| head`` does, ends the output quietly:
the exit code is that of the rows written so far, the batch whose write
failed included.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys
from typing import Any, Callable, Iterable, NamedTuple

from . import cohomology as co
from . import exterior as ex
from . import matchings as ma
from . import verify as vf

SUITE_RANK_GUARD = 10
ROW_BUDGET = 250_000
BATCH_ROWS = 256

_JSON_VERSION = 1


class UsageError(Exception):
    pass


class Table(NamedTuple):
    """One command's output, rendered by ``_emit`` in any format."""

    fields: dict  # the JSON envelope besides "version" and the rows
    key: str  # the envelope key that holds the rows
    rows: Iterable
    header: list[str]  # the csv header
    cells: Callable[[Any], list]  # row -> csv cells
    line: Callable[[Any], str]  # row -> text line
    title: str | None = None  # text before the rows
    footer: Callable[[int], Iterable[str]] = lambda count: ()  # row count -> text after them
    csv_footer: Iterable[list] = ()  # csv rows after them
    record: Callable[[Any], dict] = lambda row: row  # row -> JSON object
    ok: Callable[[Any], bool] = lambda row: True  # a failing row exits 1


class _Batch(list):
    """Output text held back until ``flush`` writes it to stdout in one call;
    ``write`` makes it a file for the emitters and ``csv.writer``."""

    write = list.append

    def flush(self) -> None:
        text = "".join(self)
        self.clear()  # first, so that a failed write is not repeated
        if text:
            sys.stdout.write(text)


def _emit(table: Table, fmt: str) -> int:
    """Streams the table in ``fmt``, ``BATCH_ROWS`` rows per write; 1 if a
    row failed its check, else 0."""
    failed = False
    out = _Batch()

    def checked():
        nonlocal failed
        for count, row in enumerate(table.rows, 1):
            failed = failed or not table.ok(row)
            yield row
            if count % BATCH_ROWS == 0:
                out.flush()

    try:
        try:
            {"json": _emit_json, "csv": _emit_csv, "text": _emit_text}[fmt](table, checked(), out)
        except BaseException:
            # a defect: still write the rows made before it, if the reader is there
            try:
                out.flush()
            except BrokenPipeError:
                pass
            raise
        out.flush()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, which ends the output.  Point stdout at
        # devnull so that the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 1 if failed else 0


def _emit_json(table: Table, rows: Iterable, out: _Batch) -> None:
    import json  # here, so that text output never loads it

    # sort_keys places the rows among the other keys; write the envelope
    # around them, one object at a time.
    envelope = {"version": _JSON_VERSION, **table.fields, table.key: []}
    head, slot, tail = json.dumps(envelope, sort_keys=True).partition(f'"{table.key}": []')
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps builds per call
    record = table.record
    out.write(head + slot[:-1])
    for k, row in enumerate(rows):
        out.write((", " if k else "") + encode(record(row)))
    out.write("]" + tail + "\n")


def _emit_csv(table: Table, rows: Iterable, out: _Batch) -> None:
    import csv  # here, so that text output never loads it

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(map(table.cells, rows))
    writer.writerows(table.csv_footer)


def _emit_text(table: Table, rows: Iterable, out: _Batch) -> None:
    if table.title is not None:
        out.write(table.title + "\n")
    count = 0
    line = table.line
    for count, row in enumerate(rows, 1):
        out.write(line(row) + "\n")
    for text in table.footer(count):
        out.write(text + "\n")


def _guard_rank(n: int, guard: int) -> None:
    if n < 0:
        raise UsageError("n must be nonnegative")
    if n > guard:
        raise UsageError(f"n={n} exceeds the guard {guard} for this command")


def _ascii_int(text: str) -> int:
    """A numeric option: an optional '-' and ASCII digits only, where
    ``int()`` would also take other scripts' digits, '_', '+' and spaces."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r} (ASCII digits 0-9 only)")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise argparse.ArgumentTypeError(f"integer too long: {len(text)} characters") from None


def _guard_rows(count: int) -> None:
    if count > ROW_BUDGET:
        raise UsageError(f"the query would print {count} rows, over the budget of {ROW_BUDGET}")


def _guard_bidegree(n: int, i: int, j: int) -> None:
    _guard_rank(n, ex.MAX_RANK)
    if not (0 <= i <= n and 0 <= j <= n):
        raise UsageError(f"bidegree ({i}, {j}) out of range for n={n}")


def cmd_dims(args) -> Table:
    _guard_rank(args.n, ex.MAX_RANK)
    n = args.n
    census = co.diagonal_census(n)
    totals = {
        "diagonal_total": census.diagonal_total,
        "catalan": census.catalan,
        "total_h0": census.total,
        "central_binomial": census.central_binomial,
    }
    return Table(
        {"command": "dims", "n": n, "diagonal": list(census.diagonal), **totals},
        "rows",
        co.dimension_table(n),
        header=["kind", "n", "i", "j", "h0", "h1"],
        cells=lambda r: ["dim", r["n"], *r["bidegree"], r["h0"], r["h1"]],
        csv_footer=[["diagonal", n, "", "", " ".join(map(str, census.diagonal)), ""]]
        + [[kind, n, "", "", value, ""] for kind, value in totals.items()],
        title=f"invariant and coinvariant dimensions, n={n}\n"
        f"{'i':>3} {'j':>3} {'h0':>8} {'h1':>8}",
        line=lambda r: f"{r['bidegree'][0]:>3} {r['bidegree'][1]:>3} {r['h0']:>8} {r['h1']:>8}",
        footer=lambda count: (
            f"diagonal: {list(census.diagonal)}",
            f"diagonal total {census.diagonal_total} = catalan {census.catalan}",
            f"total h0 {census.total} = central binomial {census.central_binomial}",
        ),
    )


def cmd_basis(args) -> Table:
    n, i, j = args.n, args.i, args.j
    _guard_bidegree(n, i, j)
    dim = co.invariants_dimension(n, i, j)
    _guard_rows(dim)
    return Table(
        {"command": "basis", "n": n, "bidegree": [i, j]},
        "rows",
        ma._element_rows(n, ma.noncrossing_matchings(n, bidegree=(i, j))),
        record=lambda r: {
            "matching": r[0].to_json_dict(), "literal": r[0].literal(), "element": r[1]
        },
        header=["literal", "element"],
        cells=lambda r: [r[0].literal(), r[1]],
        title=f"noncrossing basis of the invariants, n={n}, bidegree ({i}, {j})",
        line=lambda r: f"[{r[0].literal()}]  ->  {r[1]}",
        footer=lambda count: [f"count {count} (formula {dim})"],
    )


def cmd_character(args) -> Table:
    n, i, j = args.n, args.i, args.j
    _guard_bidegree(n, i, j)
    if i < j:
        raise UsageError(f"the module in bidegree ({i}, {j}) is zero (i < j)")
    return Table(
        {"command": "character", "n": n, "bidegree": [i, j]},
        "rows",
        co.character_table(n, i, j),
        header=["cycle_type", "character"],
        cells=lambda r: [" ".join(map(str, r["cycle_type"])), r["character"]],
        title=f"character of the invariants, n={n}, bidegree ({i}, {j})",
        line=lambda r: f"({','.join(map(str, r['cycle_type']))}): {r['character']}",
    )


def cmd_bijection(args) -> Table:
    _guard_rank(args.n, ex.MAX_RANK)
    n, k = args.n, args.k
    if not 0 <= k <= 2 * n:
        raise UsageError(f"degree k={k} out of range 0..{2 * n}")
    _guard_rows(math.comb(n, k // 2) * math.comb(n, (k + 1) // 2))
    # Each subset once: (mask, vertices, csv text, text-line text).
    subsets = {
        size: [(ma._mask(S), S, " ".join(map(str, S)), ",".join(map(str, S)))
               for S in itertools.combinations(range(1, n + 1), size)]
        for size in {k // 2, (k + 1) // 2}
    }
    matching = ma._pair_matchings(n)

    def rows():
        for A in subsets[k // 2]:
            for B in subsets[(k + 1) // 2]:
                m, literal = matching(A[0], B[0])
                yield A, B, m, literal, ma._masks_from_matching(m) == (A[0], B[0])

    return Table(
        {"command": "bijection", "n": n, "k": k},
        "rows",
        rows(),
        record=lambda r: {"A": list(r[0][1]), "B": list(r[1][1]), "matching": r[2].to_json_dict(),
                          "literal": r[3], "round_trip": r[4]},
        header=["A", "B", "literal", "round_trip"],
        cells=lambda r: [r[0][2], r[1][2], r[3], r[4]],
        title=f"subset pairs and matchings, n={n}, degree k={k}",
        line=lambda r: f"A={{{r[0][3]}}} B={{{r[1][3]}}}  ->  [{r[3]}]"
        + ("" if r[4] else "  ROUND TRIP FAILED"),
        footer=lambda count: [f"count {count}"],
        ok=lambda r: r[4],
    )


def cmd_reduce(args) -> Table:
    try:
        m = ma.parse_matching(args.literal)
    except ex.LiteralParseError as err:
        raise UsageError(f"matching literal parse error:\n{err.caret_diagnostic()}") from None
    except ValueError as err:
        raise UsageError(f"invalid matching: {err}") from None
    return Table(
        {"command": "reduce", "input": m.to_json_dict()},
        "terms",
        ma.normal_form(m).items(),
        record=lambda t: {"coeff": str(t[1]), "matching": t[0].to_json_dict()},
        header=["coeff", "literal"],
        cells=lambda t: [str(t[1]), t[0].literal()],
        line=lambda t: f"{t[1]} * [{t[0].literal()}]",
        footer=lambda count: () if count else ["0"],
    )


def cmd_verify(args) -> Table:
    try:
        vf.suite_names(args.suite)  # an unknown name is refused before the guard
    except ValueError as err:
        raise UsageError(err) from None
    _guard_rank(args.n_max, SUITE_RANK_GUARD)
    results = vf.run_suite(args.suite, n_max=args.n_max, seed=args.seed)
    passed = sum(r.passed for r in results)
    return Table(
        {"command": "verify", "suite": args.suite, "n_max": args.n_max, "seed": args.seed,
         "passed": passed == len(results)},
        "results",
        results,
        record=lambda r: {
            "suite": r.suite, "check": r.name, "passed": r.passed, "detail": r.detail
        },
        header=["suite", "check", "passed", "detail"],
        cells=lambda r: [r.suite, r.name, r.passed, r.detail],
        line=lambda r: f"{'PASS' if r.passed else 'FAIL'} [{r.suite}] {r.name}"
        + (f"  ({r.detail})" if r.detail else ""),
        footer=lambda count: [f"{passed}/{count} checks passed"],
        ok=lambda r: r.passed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supertorus",
        description="Exact invariants of the fermionic translation on exterior algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("dims", help="dimension table for every bidegree")
    p.add_argument("--n", type=_ascii_int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("basis", help="noncrossing basis of one bidegree")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--i", type=_ascii_int, required=True)
    p.add_argument("--j", type=_ascii_int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("character", help="character row over all cycle types")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--i", type=_ascii_int, required=True)
    p.add_argument("--j", type=_ascii_int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_character)

    p = sub.add_parser("bijection", help="subset pairs against matchings of one degree")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--k", type=_ascii_int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("reduce", help="skein normal form of a matching literal")
    p.add_argument("literal", help='matching literal, e.g. "n=4; arcs=(1,3),(2,4)"')
    add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--n-max", type=_ascii_int, default=4, dest="n_max")
    p.add_argument("--seed", type=_ascii_int, default=0)
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _emit(args.fn(args), args.format)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

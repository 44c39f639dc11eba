"""Command line front end.

Subcommands expose the dimension tables, invariant bases, characters, the
skein reduction of a matching literal, the subset-pair bijection, and the
verification suites.  Every output is byte deterministic for a fixed command
line; rationals print exactly, never as floats.

Exit codes: 0 success, 1 invariant violation, 2 usage or parse error, 3
internal error (a defect of the program, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import cohomology as co
from . import exterior as ex
from . import matchings as ma
from . import verify as vf

QUERY_RANK_GUARD = 14
SUITE_RANK_GUARD = 10

_JSON_VERSION = 1


class UsageError(Exception):
    pass


def _emit_json(payload: dict) -> None:
    print(json.dumps({"version": _JSON_VERSION, **payload}, sort_keys=True))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _guard_rank(n: int, guard: int) -> None:
    if n < 0:
        raise UsageError("n must be nonnegative")
    if n > guard:
        raise UsageError(f"n={n} exceeds the guard {guard} for this command")


def cmd_dims(args) -> int:
    _guard_rank(args.n, QUERY_RANK_GUARD)
    n = args.n
    rows = co.dimension_table(n)
    census = co.diagonal_census(n)
    if args.format == "json":
        _emit_json(
            {
                "command": "dims",
                "n": n,
                "rows": rows,
                "diagonal": list(census.diagonal),
                "diagonal_total": census.diagonal_total,
                "catalan": census.catalan,
                "total_h0": census.total,
                "central_binomial": census.central_binomial,
            }
        )
    elif args.format == "csv":
        out = [["dim", r["n"], r["bidegree"][0], r["bidegree"][1], r["h0"], r["h1"]] for r in rows]
        out.append(["diagonal", n, "", "", " ".join(map(str, census.diagonal)), ""])
        out.append(["diagonal_total", n, "", "", census.diagonal_total, ""])
        out.append(["catalan", n, "", "", census.catalan, ""])
        out.append(["total_h0", n, "", "", census.total, ""])
        out.append(["central_binomial", n, "", "", census.central_binomial, ""])
        _emit_csv(["kind", "n", "i", "j", "h0", "h1"], out)
    else:
        print(f"invariant and coinvariant dimensions, n={n}")
        print(f"{'i':>3} {'j':>3} {'h0':>8} {'h1':>8}")
        for r in rows:
            i, j = r["bidegree"]
            print(f"{i:>3} {j:>3} {r['h0']:>8} {r['h1']:>8}")
        print(f"diagonal: {list(census.diagonal)}")
        print(f"diagonal total {census.diagonal_total} = catalan {census.catalan}")
        print(f"total h0 {census.total} = central binomial {census.central_binomial}")
    return 0


def cmd_basis(args) -> int:
    _guard_rank(args.n, QUERY_RANK_GUARD)
    n, i, j = args.n, args.i, args.j
    if not (0 <= i <= n and 0 <= j <= n):
        raise UsageError(f"bidegree ({i}, {j}) out of range for n={n}")
    ms = ma.noncrossing_matchings(n, bidegree=(i, j))
    rows = [
        {
            "matching": m.to_json_dict(),
            "literal": m.literal(),
            "element": ex.format_element(ma.matching_invariant(m)),
        }
        for m in ms
    ]
    if args.format == "json":
        _emit_json({"command": "basis", "n": n, "bidegree": [i, j], "rows": rows})
    elif args.format == "csv":
        _emit_csv(
            ["literal", "element"],
            [[r["literal"], r["element"]] for r in rows],
        )
    else:
        print(f"noncrossing basis of the invariants, n={n}, bidegree ({i}, {j})")
        for r in rows:
            print(f"[{r['literal']}]  ->  {r['element']}")
        print(f"count {len(rows)} (formula {co.invariants_dimension(n, i, j)})")
    return 0


def cmd_character(args) -> int:
    _guard_rank(args.n, QUERY_RANK_GUARD)
    n, i, j = args.n, args.i, args.j
    if not (0 <= i <= n and 0 <= j <= n):
        raise UsageError(f"bidegree ({i}, {j}) out of range for n={n}")
    if i < j:
        raise UsageError(f"the module in bidegree ({i}, {j}) is zero (i < j)")
    rows = co.character_table(n, i, j)
    if args.format == "json":
        _emit_json({"command": "character", "n": n, "bidegree": [i, j], "rows": rows})
    elif args.format == "csv":
        _emit_csv(
            ["cycle_type", "character"],
            [[" ".join(map(str, r["cycle_type"])), r["character"]] for r in rows],
        )
    else:
        print(f"character of the invariants, n={n}, bidegree ({i}, {j})")
        for r in rows:
            ct = ",".join(map(str, r["cycle_type"]))
            print(f"({ct}): {r['character']}")
    return 0


def cmd_bijection(args) -> int:
    _guard_rank(args.n, QUERY_RANK_GUARD)
    n, k = args.n, args.k
    if not 0 <= k <= 2 * n:
        raise UsageError(f"degree k={k} out of range 0..{2 * n}")
    import itertools

    size_a, size_b = k // 2, (k + 1) // 2
    rows = []
    for A in itertools.combinations(range(1, n + 1), size_a):
        for B in itertools.combinations(range(1, n + 1), size_b):
            m = ma.matching_from_subsets(A, B, n)
            pair = ma.subsets_from_matching(m)
            ok = (sorted(pair.A), sorted(pair.B)) == (sorted(A), sorted(B))
            rows.append(
                {
                    "A": list(A),
                    "B": list(B),
                    "matching": m.to_json_dict(),
                    "literal": m.literal(),
                    "round_trip": ok,
                }
            )
    if args.format == "json":
        _emit_json({"command": "bijection", "n": n, "k": k, "rows": rows})
    elif args.format == "csv":
        _emit_csv(
            ["A", "B", "literal", "round_trip"],
            [
                [
                    " ".join(map(str, r["A"])),
                    " ".join(map(str, r["B"])),
                    r["literal"],
                    r["round_trip"],
                ]
                for r in rows
            ],
        )
    else:
        print(f"subset pairs and matchings, n={n}, degree k={k}")
        for r in rows:
            print(
                f"A={{{','.join(map(str, r['A']))}}} "
                f"B={{{','.join(map(str, r['B']))}}}  ->  [{r['literal']}]"
                + ("" if r["round_trip"] else "  ROUND TRIP FAILED")
            )
        print(f"count {len(rows)}")
    if not all(r["round_trip"] for r in rows):
        return 1
    return 0


def cmd_reduce(args) -> int:
    try:
        m = ma.parse_matching(args.literal)
    except ex.LiteralParseError as err:
        print("matching literal parse error:", file=sys.stderr)
        print(err.caret_diagnostic(), file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"invalid matching: {err}", file=sys.stderr)
        return 2
    _guard_rank(m.n, QUERY_RANK_GUARD)
    combo = ma.normal_form(m)
    if args.format == "json":
        _emit_json(
            {
                "command": "reduce",
                "input": m.to_json_dict(),
                "terms": combo.to_json(),
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["coeff", "literal"],
            [[str(c), t.literal()] for t, c in combo.items()],
        )
    else:
        print(ma.format_combination(combo))
    return 0


def cmd_verify(args) -> int:
    try:
        vf.suite_names(args.suite)  # an unknown name is refused before the guard
    except ValueError as err:
        raise UsageError(err) from None
    _guard_rank(args.n_max, SUITE_RANK_GUARD)
    results = vf.run_suite(args.suite, n_max=args.n_max, seed=args.seed)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        _emit_json(
            {
                "command": "verify",
                "suite": args.suite,
                "n_max": args.n_max,
                "seed": args.seed,
                "results": [
                    {
                        "suite": r.suite,
                        "check": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                    }
                    for r in results
                ],
                "passed": not failed,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["suite", "check", "passed", "detail"],
            [[r.suite, r.name, r.passed, r.detail] for r in results],
        )
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            extra = f"  ({r.detail})" if r.detail else ""
            print(f"{mark} [{r.suite}] {r.name}{extra}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


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
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("basis", help="noncrossing basis of one bidegree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("character", help="character row over all cycle types")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_character)

    p = sub.add_parser("bijection", help="subset pairs against matchings of one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("reduce", help="skein normal form of a matching literal")
    p.add_argument("literal", help='matching literal, e.g. "n=4; arcs=(1,3),(2,4)"')
    add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--n-max", type=int, default=4, dest="n_max")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

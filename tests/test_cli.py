"""End-to-end tests of the command line interface."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supertorus import cli
from supertorus import cohomology as co
from supertorus import exterior as ex
from supertorus import matchings as ma


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == 1
    row = next(r for r in payload["rows"] if r["bidegree"] == [1, 1])
    assert row["h0"] == 6
    assert payload["total_h0"] == 35
    assert payload["catalan"] == 14


def test_dims_n0(capsys):
    code, out, _ = run(capsys, "dims", "--n", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"n": 0, "bidegree": [0, 0], "h0": 1, "h1": 1}]
    assert payload["total_h0"] == 1


def test_dims_csv_totals(capsys):
    code, out, _ = run(capsys, "dims", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,n,i,j,h0,h1"
    assert any(line.startswith("total_h0,2") and line.split(",")[4] == "10" for line in lines)


def test_dims_guard(capsys):
    code, _, err = run(capsys, "dims", "--n", "15")
    assert code == 2
    assert "guard" in err


def test_reduce_crossing(capsys):
    code, out, _ = run(capsys, "reduce", "n=4; arcs=(1,3),(2,4)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [t["coeff"] for t in payload["terms"]] == ["-1", "-1"]


def test_reduce_noncrossing_echo(capsys):
    code, out, _ = run(capsys, "reduce", "n=2; arcs=(1,2)")
    assert code == 0
    assert out.strip() == "1 * [n=2; arcs=(1,2)]"


def test_reduce_parse_error_caret(capsys):
    code, _, err = run(capsys, "reduce", "n=4; arcs=(1,3,(2,4)")
    assert code == 2
    assert "^" in err


@pytest.mark.parametrize("literal, position", [
    ("n=\u00b2", 2),
    ("n=\u0663; a=\u0661", 2),
    ("n=3; a=1,\u00b2", 9),
    ("n=4; arcs=(1,\uff13)", 13),
])
def test_reduce_takes_ascii_digits_only(capsys, literal, position):
    code, out, err = run(capsys, "reduce", literal)
    assert code == 2
    assert out == ""
    *_, text, caret = err.splitlines()
    assert text == literal
    assert caret == " " * position + "^ expected an integer"


def test_reduce_invalid_matching_distinct_error(capsys):
    code, _, err = run(capsys, "reduce", "n=4; arcs=(1,2),(2,3)")
    assert code == 2
    assert "invalid matching" in err
    assert "^" not in err


@pytest.mark.parametrize("literal", ["n=99", "n=15; a=1", "n=16; arcs=(1,16)"])
def test_reduce_refuses_a_rank_over_the_guard(capsys, literal):
    code, out, err = run(capsys, "reduce", literal)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "exceeds the guard 14" in err


def test_basis_n1(capsys):
    code, out, _ = run(capsys, "basis", "--n", "1", "--i", "1", "--j", "1")
    assert code == 0
    assert "1*a1 t1" in out


def test_basis_json_count(capsys):
    code, out, _ = run(capsys, "basis", "--n", "2", "--i", "1", "--j", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["rows"]) == 3


def test_character_identity_column(capsys):
    code, out, _ = run(capsys, "character", "--n", "3", "--i", "1", "--j", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    identity = next(r for r in payload["rows"] if r["cycle_type"] == [1, 1, 1])
    assert identity["character"] == 6


def test_character_zero_module_message(capsys):
    code, _, err = run(capsys, "character", "--n", "3", "--i", "0", "--j", "1")
    assert code == 2
    assert "zero" in err


def test_bijection_contains_worked_example(capsys):
    code, out, _ = run(capsys, "bijection", "--n", "8", "--k", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = next(
        r for r in payload["rows"] if r["A"] == [1, 2, 4, 5] and r["B"] == [3, 4, 6, 7, 8]
    )
    assert row["matching"]["arcs"] == [[1, 7], [2, 3], [5, 6]]
    assert row["matching"]["alphatheta"] == [4]
    assert row["matching"]["alpha"] == [8]
    assert all(r["round_trip"] for r in payload["rows"])


def test_verify_small_all(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "2", "--seed", "1")
    assert code == 0
    assert "FAIL" not in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("argv", [
    ["dims", "--n", "\u0663"],
    ["bijection", "--n", "1_0", "--k", "0"],
    ["dims", "--n", "+3"],
    ["dims", "--n", " 3"],
    ["basis", "--n", "2", "--i", "\uff11", "--j", "1"],
    ["verify", "--suite", "matchings", "--n-max", "-\u0661"],
    ["dims", "--n", "9" * 5000],
], ids=["arabic-indic", "underscore", "plus", "space", "fullwidth", "minus-arabic-indic",
        "too-long"])
def test_numeric_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert "error: argument --" in err


def test_numeric_options_take_a_minus_sign(capsys):
    code, out, err = run(capsys, "dims", "--n", "-3")
    assert (code, out, err) == (2, "", "error: n must be nonnegative\n")
    code, out, _ = run(capsys, "dims", "--n", "007")
    assert code == 0 and out.startswith("invariant and coinvariant dimensions, n=7\n")


def test_verify_guard(capsys):
    code, _, err = run(capsys, "verify", "--n-max", "11")
    assert code == 2
    assert "guard" in err


def test_verify_fault_injection_fails(capsys, negated_raising):
    # a negated raising operator must fail the core suite
    code, out, _ = run(capsys, "verify", "--suite", "core", "--n-max", "2", "--seed", "1")
    assert code == 1
    assert "FAIL" in out


def test_bijection_tie_break_fault_is_caught(capsys, oldest_arc_first):
    code, out, _ = run(capsys, "verify", "--suite", "matchings", "--n-max", "4")
    assert code == 1
    assert "FAIL [matchings] bijection round trip" in out
    assert out.count("FAIL") == 1
    code, _, _ = run(capsys, "bijection", "--n", "6", "--k", "6")
    assert code != 0


def test_closed_stdout_pipe_ends_output_quietly():
    # 4,900 rows, several times a 64 KB pipe buffer: the command is still
    # writing when the reader goes away after two lines
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "supertorus.cli", "bijection", "--n", "8", "--k", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert lines[0] == b"subset pairs and matchings, n=8, degree k=8\n"
    assert lines[1].startswith(b"A={1,2,3,4} B={1,2,3,4}")


# sha256 of `dims --n 2` stdout, captured while the CLI still imported json
# and csv at start-up.
@pytest.mark.parametrize("fmt, loaded, digest", [
    ("json", ["json"], "4173fe8f43c52456722de6cda7cf5941358a6984b1a50490805f7f74ed2cc864"),
    ("csv", ["csv"], "66d1bc20c7b27a501d8503f10757ea6d4d5311c3c77413f00162300beb3de0cf"),
    ("text", [], "a6609101b5004aa1ad4fea93c325a53ace83e25c6a4c7dad1769bf0bfe57bc94"),
])
def test_emitters_load_their_module_on_first_use(fmt, loaded, digest):
    # pytest has loaded json already, so only a fresh interpreter shows this
    code = ("import sys; from supertorus import cli; "
            "emitters = lambda: sorted({'json', 'csv'} & set(sys.modules)); "
            "before = emitters(); "
            f"code = cli.main(['dims', '--n', '2', '--format', {fmt!r}]); "
            "print(before, emitters(), code, file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          check=True, timeout=60)
    assert proc.stderr.decode() == f"[] {loaded} 0\n"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_outputs_are_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "matchings", "--n-max", "2", "--seed", "5",
                     "--format", "json")
    _, out2, _ = run(capsys, "verify", "--suite", "matchings", "--n-max", "2", "--seed", "5",
                     "--format", "json")
    assert out1 == out2
    _, d1, _ = run(capsys, "dims", "--n", "4", "--format", "csv")
    _, d2, _ = run(capsys, "dims", "--n", "4", "--format", "csv")
    assert d1 == d2


def test_no_floats_in_output(capsys):
    _, out, _ = run(capsys, "reduce", "n=3; arcs=(1,3); a=2", "--format", "json")
    assert "e-" not in out and ".0" not in out


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("defect")

    monkeypatch.setattr(co, "character_table", broken)
    code, out, err = run(capsys, "character", "--n", "3", "--i", "1", "--j", "1")
    assert code == 3
    assert out == ""
    assert err == "internal error: ValueError: defect\n"


@pytest.mark.parametrize(
    "fmt, marker", [("text", "ROUND TRIP FAILED"), ("json", '"round_trip": false'), ("csv", "False")]
)
def test_bijection_round_trip_failure_exits_1(capsys, monkeypatch, fmt, marker):
    monkeypatch.setattr(ma, "_masks_from_matching", lambda m: (0, 0))
    code, out, err = run(capsys, "bijection", "--n", "3", "--k", "3", "--format", fmt)
    assert code == 1
    assert marker in out
    assert err == ""


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_basis_internal_error_writes_no_stdout(capsys, monkeypatch, fmt):
    def broken(*args, **kwargs):
        raise RuntimeError("defect")

    monkeypatch.setattr(ma, "noncrossing_matchings", broken)
    code, out, err = run(capsys, "basis", "--n", "4", "--i", "2", "--j", "2", "--format", fmt)
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: defect\n"


def rows_then_defect(good_rows):
    """``ma._element_rows`` that renders ``good_rows`` rows, then fails."""
    element_rows = ma._element_rows

    def fails_later(n, matchings):
        for count, row in enumerate(element_rows(n, matchings)):
            if count == good_rows:
                raise RuntimeError("defect")
            yield row

    return fails_later


@pytest.mark.parametrize("good_rows", [0, 2])
def test_defect_while_streaming_keeps_written_rows(capsys, monkeypatch, good_rows):
    monkeypatch.setattr(ma, "_element_rows", rows_then_defect(good_rows))
    code, out, err = run(capsys, "basis", "--n", "4", "--i", "2", "--j", "2")
    assert code == 3
    assert err == "internal error: RuntimeError: defect\n"
    lines = out.splitlines()
    assert lines[0] == "noncrossing basis of the invariants, n=4, bidegree (2, 2)"
    assert len(lines) == 1 + good_rows
    assert all("  ->  " in line for line in lines[1:])


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_defect_past_a_batch_keeps_every_row_before_it(capsys, monkeypatch, fmt):
    # row 300 fails: the first batch of 256 rows is out, the next 43 are not
    assert 256 == cli.BATCH_ROWS < 299
    monkeypatch.setattr(ma, "_element_rows", rows_then_defect(299))
    code, out, err = run(capsys, "basis", "--n", "8", "--i", "4", "--j", "4", "--format", fmt)
    assert code == 3
    assert err == "internal error: RuntimeError: defect\n"
    if fmt == "json":
        head = '{"bidegree": [4, 4], "command": "basis", "n": 8, "rows": ['
        assert out.startswith(head) and out.count('"element": ') == 299
        assert out.endswith("}")  # the last whole row, and no closing bracket
        return
    first, *rows = out.splitlines()
    assert first == ("literal,element" if fmt == "csv" else
                     "noncrossing basis of the invariants, n=8, bidegree (4, 4)")
    assert len(rows) == 299 and out.endswith("\n")
    assert all("  ->  " in row for row in rows) if fmt == "text" else all(
        row.startswith('"n=8; ') for row in rows)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_round_trip_failure_in_the_last_row_exits_1(capsys, monkeypatch, fmt):
    # 400 rows; only the last, A = B = {4, 5, 6}, fails its round trip
    masks_from_matching = ma._masks_from_matching
    monkeypatch.setattr(ma, "_masks_from_matching", lambda m: (
        (0, 0) if m.alphatheta == (4, 5, 6) else masks_from_matching(m)))
    code, out, err = run(capsys, "bijection", "--n", "6", "--k", "6", "--format", fmt)
    assert (code, err) == (1, "")
    if fmt == "json":
        passed = [row["round_trip"] for row in json.loads(out)["rows"]]
    elif fmt == "csv":
        passed = [line.endswith(",True") for line in out.splitlines()[1:]]
    else:
        passed = ["ROUND TRIP FAILED" not in line for line in out.splitlines()[1:-1]]
    assert passed == [True] * 399 + [False]


def test_parser_is_built_once_and_shared_by_threads():
    # more threads than cores, switching often, each parsing its own command
    # line through the one parser: every parse must get a namespace of its own
    import threading

    assert cli._parser() is cli._parser()
    expected = [
        (["basis", "--n", "6", "--i", "3", "--j", "2"],
         {"command": "basis", "n": 6, "i": 3, "j": 2, "format": "text", "fn": cli.cmd_basis}),
        (["bijection", "--n", "7", "--k", "5", "--format", "csv"],
         {"command": "bijection", "n": 7, "k": 5, "format": "csv", "fn": cli.cmd_bijection}),
        (["dims", "--n", "4", "--format", "json"],
         {"command": "dims", "n": 4, "format": "json", "fn": cli.cmd_dims}),
        (["reduce", "n=2; arcs=(1,2)"],
         {"command": "reduce", "literal": "n=2; arcs=(1,2)", "format": "text",
          "fn": cli.cmd_reduce}),
    ]
    barrier = threading.Barrier(len(expected))
    results = [[] for _ in expected]

    def parse(k):
        barrier.wait()
        for _ in range(200):
            results[k].append(cli._parser().parse_args(expected[k][0]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(k,)) for k in range(len(expected))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len({id(ns) for namespaces in results for ns in namespaces}) == 200 * len(expected)
    for (_, fields), namespaces in zip(expected, results):
        assert len(namespaces) == 200
        assert all(vars(ns) == fields for ns in namespaces)


@functools.lru_cache(maxsize=None)
def per_row_element(m):
    return ex.format_element(ma.matching_invariant(m))


def per_row_element_rows(n, matchings):
    """The basis rows as they were made before the per-arc-set templates;
    each element once, as the three formats share it."""
    for m in matchings:
        yield m, per_row_element(m)


def per_row_pair_matchings(n):
    """The bijection's matchings as they were made before the per-key scans."""
    def matching(a, b):
        m = ma._matching_from_masks(a, b, n)
        return m, m.literal()

    return matching


def outputs(capsys, argvs):
    return [run(capsys, *argv) for argv in argvs]


@pytest.mark.parametrize("n", range(0, 9))
def test_basis_matches_the_per_row_route(capsys, monkeypatch, n):
    argvs = [("basis", "--n", str(n), "--i", str(i), "--j", str(j), "--format", fmt)
             for i in range(n + 1) for j in range(n + 1) for fmt in ("text", "json", "csv")]
    fast = outputs(capsys, argvs)
    monkeypatch.setattr(ma, "_element_rows", per_row_element_rows)
    assert fast == outputs(capsys, argvs)
    assert all(code == 0 for code, _, _ in fast)


@pytest.mark.parametrize("n", range(0, 8))
def test_bijection_matches_the_per_row_route(capsys, monkeypatch, n):
    argvs = [("bijection", "--n", str(n), "--k", str(k), "--format", fmt)
             for k in range(2 * n + 1) for fmt in ("text", "json", "csv")]
    fast = outputs(capsys, argvs)
    monkeypatch.setattr(ma, "_pair_matchings", per_row_pair_matchings)
    assert fast == outputs(capsys, argvs)
    assert all(code == 0 for code, _, _ in fast)


@pytest.mark.parametrize(
    "argv, rows",
    [
        (("basis", "--n", "14", "--i", "7", "--j", "7"), 2760615),
        (("bijection", "--n", "14", "--k", "14"), 11778624),
    ],
)
def test_oversized_query_refused_up_front(capsys, argv, rows):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert str(rows) in err and str(cli.ROW_BUDGET) in err


def test_missing_subcommand_usage_error(capsys):
    assert cli.main([]) == 2


def test_bad_flag_usage_error(capsys):
    assert cli.main(["dims", "--bogus", "3"]) == 2


# sha256 of stdout, captured before the bidegree-keyed basis, the direct
# matching expansion and the lean element formatter replaced the old routes
# (basis, bijection, reduce), and before the acceptance tests were moved onto
# the verify registry (dims, character, verify); the last five were captured
# before the one streaming table emitter replaced the per-command branches.
# The bytes of every format must not move.
GOLDEN_STDOUT = [
    (
        ("basis", "--n", "6", "--i", "3", "--j", "2", "--format", "text"),
        "19bff6433f4eebc1c83cc3f1f42409b6aad75e7f3c28054311d351bfe45f959d",
    ),
    (
        ("basis", "--n", "6", "--i", "3", "--j", "2", "--format", "json"),
        "6333fa2aee88c27e07e88f0c5d164cb86941544612c1695df9b1332d1ca5998a",
    ),
    (
        ("basis", "--n", "6", "--i", "3", "--j", "2", "--format", "csv"),
        "7736db08c837bff540cb22f09633861d0ad5fce1927bacaf2f74f72d29280682",
    ),
    (
        ("basis", "--n", "6", "--i", "3", "--j", "3", "--format", "text"),
        "e376e9182c53349314c29c9e5522d2e80faf0cbf94a4819e59f1860ab6d962ae",
    ),
    (
        ("basis", "--n", "6", "--i", "3", "--j", "3", "--format", "json"),
        "74bac7c5bbf2b08c8e3eb3d262b25443a0ba33fd2ac006aa4187019d864d32e8",
    ),
    (
        ("basis", "--n", "6", "--i", "3", "--j", "3", "--format", "csv"),
        "f8f4734f8cbdde3520793ba739d12ad5e24b320f386a57a301bcfc6ba6eaa7b2",
    ),
    (
        ("basis", "--n", "6", "--i", "0", "--j", "0", "--format", "text"),
        "affd7d9619a6ddf1a28225ad3da204b07dfde1774d91c8afdcddad1468a8c7b3",
    ),
    (
        ("basis", "--n", "6", "--i", "0", "--j", "0", "--format", "json"),
        "6b81c8b0800afd2894dd8f19d6ab787070daacc3750841a1424be1c84fe55295",
    ),
    (
        ("basis", "--n", "6", "--i", "0", "--j", "0", "--format", "csv"),
        "abc3b9f435640db67a414de617cc827b890b51b005a96aebd1c01fd2737a2321",
    ),
    (
        ("basis", "--n", "6", "--i", "2", "--j", "3", "--format", "text"),
        "ba1f75a92ac9a0c91f2716059a65c95cc6f8640de9e958fe263b69b30e0d8735",
    ),
    (
        ("basis", "--n", "6", "--i", "2", "--j", "3", "--format", "json"),
        "6c0055ade7e702169e58d33f61eeb62ac55c279e426490bc933ea11891ff577b",
    ),
    (
        ("basis", "--n", "6", "--i", "2", "--j", "3", "--format", "csv"),
        "13a83d7300731495a74781c571c070a4d0295d68b58ec3d9ae8e5687b35e3550",
    ),
    (
        ("bijection", "--n", "7", "--k", "7", "--format", "text"),
        "d65de6d14479802c1f2507b8ce90483e58c185a18715a26d24af055953281ca0",
    ),
    (
        ("bijection", "--n", "7", "--k", "7", "--format", "json"),
        "81db1b7889717dd8fae6db860435d239a7c9acb1ae7036796173b53cddaefc4b",
    ),
    (
        ("bijection", "--n", "7", "--k", "7", "--format", "csv"),
        "d32971ad79ec9b6ee626b186a6b61bc91262fa4719b1fc24e7162ba8aac31057",
    ),
    (
        ("reduce", "n=6; arcs=(1,4),(2,5),(3,6)", "--format", "text"),
        "af5eaa0751d491715ff318360119ed68d6148472b975a08af5e1662a687aab46",
    ),
    (
        ("reduce", "n=6; arcs=(1,4),(2,5),(3,6)", "--format", "json"),
        "4fdc3636eb9b8df8dc0706d5871bbd72f3b77ecec7547cabb5517aae7d0192d7",
    ),
    (
        ("reduce", "n=6; arcs=(1,4),(2,5),(3,6)", "--format", "csv"),
        "e08cf54cf3ecf0a76d6bc02d7cd02d2798975b71c08f00966b8a391cc010a1f1",
    ),
    (
        ("reduce", "n=7; arcs=(1,5),(3,7); a=2,4; at=6", "--format", "text"),
        "cb20b31b22111584c3ea1e066195fef8be228680b286c89766aa51fe9a0cfb82",
    ),
    (
        ("reduce", "n=7; arcs=(1,5),(3,7); a=2,4; at=6", "--format", "json"),
        "5a4ee717b99e7bd5bfa3e42ee390bd03ad2f94f7e2ece98405a72a8f33c29e36",
    ),
    (
        ("reduce", "n=7; arcs=(1,5),(3,7); a=2,4; at=6", "--format", "csv"),
        "3e95df17eb423121c8ea2e278149aaa56797a0860a803dcfe30f646b789b0be6",
    ),
    (
        ("dims", "--n", "3", "--format", "text"),
        "82a1db5de6766422de6f3cc941c6441ab51aaadc30d3afeab1f6282d1ee4ee30",
    ),
    (
        ("dims", "--n", "3", "--format", "json"),
        "47aa29be97294088fc2f15be09d7e030c11075882ae8e78c25ce147270e473ff",
    ),
    (
        ("dims", "--n", "3", "--format", "csv"),
        "fb6bd24fbfb896436f1765567244f09fcdffa2b7d6e55655a0f432784f7a64c2",
    ),
    (
        ("character", "--n", "4", "--i", "2", "--j", "1", "--format", "text"),
        "c3a25fc4ebe0089658a6b2e4d89c80c92e9666180d01c942f713c2eb67003546",
    ),
    (
        ("character", "--n", "4", "--i", "2", "--j", "1", "--format", "json"),
        "33505e09578072f4bb55c73500c710909c420a288d46f77dc738c9fbb5ac3299",
    ),
    (
        ("character", "--n", "4", "--i", "2", "--j", "1", "--format", "csv"),
        "1696e62e4cabfb41c69b0aa4cb332784f928f9659491db43bc802215374df17d",
    ),
    (
        ("verify", "--suite", "matchings", "--n-max", "2", "--seed", "5", "--format", "text"),
        "2fada796f25b2c6eba56722151aea2a0877f367b5dbd97b5a280368d3822f814",
    ),
    (
        ("verify", "--suite", "matchings", "--n-max", "2", "--seed", "5", "--format", "json"),
        "a4b1985ce8c55f939f734de52b1c8c9f33f15c7244289af595eb2a2260144d45",
    ),
    (
        ("verify", "--suite", "matchings", "--n-max", "2", "--seed", "5", "--format", "csv"),
        "b6db55570e593efc7880b42bf66fee7978040441fbfd2ef27488ceaaf2cda7d2",
    ),
    (
        ("bijection", "--n", "8", "--k", "8", "--format", "json"),
        "62be235bf2b93a1bed08a4cca563a53ec08bd1d91d108f7d6e0176e6e21b3909",
    ),
    (
        ("bijection", "--n", "8", "--k", "8", "--format", "csv"),
        "24962a9098e44a674fc0ca74a2ca58be289d42ce4d13bbc46046120f8fc70ea9",
    ),
    (
        ("basis", "--n", "8", "--i", "4", "--j", "4", "--format", "csv"),
        "c69d0263f17fde1b4e3d283abb96db291453b5916b289386fa94881f83947163",
    ),
    (
        ("basis", "--n", "8", "--i", "4", "--j", "4", "--format", "text"),
        "77ef8d7c1ced9e6358829f012ffd10e47eb71715bfeab8d4146da61fd5a3fd12",
    ),
    (
        ("dims", "--n", "6", "--format", "json"),
        "f71cd162c296beb6f9267b6ac4436a89e564d1be098c768502363f959c785a6d",
    ),
]


def _golden_id(case):
    argv = case[0]
    if argv[0] == "reduce":
        return f"reduce-{argv[1].split(';')[0]}-{argv[-1]}"
    return "-".join(a for a in argv if not a.startswith("--"))


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_STDOUT, ids=[_golden_id(c) for c in GOLDEN_STDOUT]
)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the characters of element and matching literals, non-ASCII digits and
# whitespace
_LITERAL_TEXT = st.text(
    st.sampled_from(list("0123456789at*/+-n=rcs;(), ") + ["\t", "\u00a0", "\u00b2",
                                                          "\u0663", "\uff11"]),
    max_size=24,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_LITERAL_TEXT)
@example("t99")
@example("n=\u00b2")
@example("n=14; at=14")
@example("1" * 5000)
@example("n=" + "1" * 5000)
def test_literals_never_escape_as_internal_errors(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["reduce", text])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    try:
        ex.parse_element(text)
    except ex.LiteralParseError:
        pass


# Values for the numeric options: small, negative, huge, the edges of the
# rank guard (14/15) and of the suite guard (10/11), and non-numbers.
_SMALL_VALUES = ["0", "1", "2", "3", "4", "-1", "-15", str(10**20), "x", "1.5", "", "\u0663"]
_EDGE_VALUES = ["10", "11", "14", "15"]


@st.composite
def _numeric_command_lines(draw):
    """Command lines whose numeric options take any of the values above, with
    every accepted run cheap: a rank above 4 is drawn only for dims and
    character, which are closed forms, and verify runs the matchings suite
    with --n-max at most 2 or a value it refuses."""
    value = st.sampled_from(_SMALL_VALUES + _EDGE_VALUES)
    command = draw(st.sampled_from(["dims", "basis", "character", "bijection", "verify"]))
    if command == "verify":
        n_max = draw(st.sampled_from(["0", "1", "2", "-1", str(10**20), "11", "15", "x", ""]))
        return ["verify", "--suite", "matchings", "--n-max", n_max, "--seed", draw(value)]
    small_rank = st.sampled_from(_SMALL_VALUES + ["15"])
    argv = [command, "--n", draw(value if command in ("dims", "character") else small_rank)]
    for option in {"basis": ["--i", "--j"], "character": ["--i", "--j"],
                   "bijection": ["--k"]}.get(command, []):
        argv += [option, draw(value)]
    return argv + ["--format", draw(st.sampled_from(["text", "json", "csv"]))]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_numeric_command_lines())
def test_numeric_options_never_escape_as_internal_errors(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""

"""How ``verify.run_suite`` runs its checks: in forked workers, one per
usable CPU, or in-process, with the same results either way; and the
noncrossing-independence check against the rank route it replaced."""

import contextlib
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from supertorus import cohomology as co
from supertorus import exterior as ex
from supertorus import linalg as la
from supertorus import matchings as ma
from supertorus import verify as vf

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs fork")


@pytest.fixture
def pooled(monkeypatch):
    """Two workers, whatever the CPU count of the host."""
    monkeypatch.setattr(vf, "_pool_size", lambda tasks: 2)


def outcomes(results):
    return [(r.suite, r.name, r.passed, r.detail) for r in results]


def assert_no_children():
    """Every child this process started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Turn a hang of longer than ``seconds`` into a TimeoutError."""
    def hung(signum, frame):
        raise TimeoutError("run_suite hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_both(monkeypatch, suite, n_max, seed):
    """``run_suite`` through two workers, then in-process."""
    monkeypatch.setattr(vf, "_pool_size", lambda tasks: 2)
    pooled = vf.run_suite(suite, n_max, seed)
    monkeypatch.setattr(vf, "_pool_size", lambda tasks: 0)
    return pooled, vf.run_suite(suite, n_max, seed)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_pool_matches_in_process(monkeypatch, n_max, seed):
    # "all" runs every suite, each check with its own fresh generator
    pooled, local = run_both(monkeypatch, "all", n_max, seed)
    assert outcomes(pooled) == outcomes(local)
    assert len(pooled) == sum(len(checks) for checks in vf.SUITES.values())
    assert all(r.passed for r in pooled)
    assert all(r.seconds > 0 for r in pooled + local)


def test_checks_run_in_workers(monkeypatch, pooled):
    parent = os.getpid()
    monkeypatch.setitem(vf.SUITES, "core", [("in a worker", lambda n, rng: os.getpid() != parent)])
    assert [r.passed for r in vf.run_suite("core")] == [True]


def test_mutants_fail_through_the_pool(pooled, negated_raising):
    failed = [r.name for r in vf.run_suite("core", 2, 1) if not r.passed]
    assert "translate equals exp of raising" in failed
    assert "sl2 relations" in failed


def test_product_mutant_fails_through_the_pool(pooled, flipped_pair_sign):
    failed = [r.name for r in vf.run_suite("core", 3) if not r.passed]
    assert "product laws" in failed


@pytest.mark.parametrize("fault", ["dropped_incidence", "shifted_coefficient"])
def test_boolean_mutants_fail_through_the_pool(request, pooled, fault):
    request.getfixturevalue(fault)
    failed = [r.name for r in vf.run_suite("linalg", 4) if not r.passed]
    assert failed == ["boolean incidence invertible"]


def test_bijection_mutant_fails_through_the_pool(pooled, oldest_arc_first):
    failed = [r.name for r in vf.run_suite("matchings", 4) if not r.passed]
    assert failed == ["bijection round trip"]


def test_a_faulty_shared_scan_fails_the_matching_checks(two_open_arcs_to_close):
    # the scan's third user, the block oracle, sees it in test_linalg.py
    def fails(check, n_max):
        try:
            return not check(n_max, random.Random(0))
        except AssertionError:
            return True

    assert fails(vf.check_normal_form, 3)
    assert fails(vf.check_bijection_round_trip, 4)


def boom(n_max, rng):
    raise ZeroDivisionError(f"at n_max={n_max}, draw {rng.randint(0, 99)}")


def test_a_raising_check_reads_the_same_in_a_worker(monkeypatch):
    monkeypatch.setitem(vf.SUITES, "core", [("fine", lambda n, rng: True), ("boom", boom)])
    pooled, local = run_both(monkeypatch, "core", 3, 7)
    assert outcomes(pooled) == outcomes(local)
    assert pooled[1].detail == "ZeroDivisionError: at n_max=3, draw 41"
    assert_no_children()


def test_no_worker_outlives_the_call(monkeypatch, pooled):
    vf.run_suite("matchings", 1)
    assert_no_children()


def dies_in_a_worker(end):
    """A check that calls ``end`` in a worker and passes in-process."""
    parent = os.getpid()

    def check(n_max, rng):
        if os.getpid() != parent:
            end()
        return True

    return check


def test_a_dead_worker_fails_its_checks_without_hanging(monkeypatch, pooled):
    checks = [("fine", fine), ("die", dies_in_a_worker(lambda: os._exit(1)))]
    checks += vf.SUITES["matchings"]
    monkeypatch.setitem(vf.SUITES, "matchings", checks)
    with deadline(60):
        results = vf.run_suite("matchings", 2)
    assert [r.name for r in results] == [name for name, _ in checks]
    # only the check the dead worker held fails; the survivor runs the rest
    assert [r.passed for r in results] == [True, False] + [True] * (len(checks) - 2)
    assert results[1].detail == "worker exited with status 1"
    assert_no_children()


def fine(n_max, rng):
    return True


def test_when_every_worker_dies_the_queued_checks_fail(monkeypatch, pooled):
    # each worker takes one of the first two checks and dies on it, so the
    # last two never run and fail with how the last worker died
    monkeypatch.setitem(vf.SUITES, "core", [
        ("exit", dies_in_a_worker(lambda: os._exit(3))),
        ("signal", dies_in_a_worker(lambda: os.kill(os.getpid(), signal.SIGKILL))),
        ("fine", fine), ("fine too", fine)])
    with deadline(60):
        results = vf.run_suite("core")
    exited, killed = "worker exited with status 3", f"worker killed by signal {int(signal.SIGKILL)}"
    assert outcomes(results[:2]) == [("core", "exit", False, exited),
                                     ("core", "signal", False, killed)]
    assert not results[2].passed and results[2].detail in (exited, killed)
    assert outcomes(results[3:]) == [("core", "fine too", False, results[2].detail)]
    assert_no_children()


def huge(n_max, rng):
    raise ValueError("x" * (2 << 20))


def test_a_detail_larger_than_a_pipe_comes_back_whole(monkeypatch):
    # two of them, so one worker blocks on a full pipe while the parent reads the other
    monkeypatch.setitem(vf.SUITES, "core", [("huge", huge), ("huge too", huge), ("fine", fine)])
    with deadline(60):
        pooled, local = run_both(monkeypatch, "core", 1, 0)
    assert outcomes(pooled) == outcomes(local)
    assert pooled[0].detail == pooled[1].detail == "ValueError: " + "x" * (2 << 20)
    assert_no_children()


def test_an_error_while_gathering_kills_and_reaps_every_worker(monkeypatch, pooled):
    # whichever worker took a check first took a quick one, so the parent
    # meets the error while the stall still runs
    def stall(n_max, rng):
        time.sleep(120)
        return True

    def unreadable(data):
        raise pickle.UnpicklingError("an unreadable result")

    monkeypatch.setitem(vf.SUITES, "core", [("fine", fine), ("fine too", fine), ("stall", stall)])
    monkeypatch.setattr(pickle, "loads", unreadable)
    with deadline(60), pytest.raises(pickle.UnpicklingError, match="an unreadable result"):
        vf.run_suite("core")
    assert_no_children()


def test_other_threads_keep_the_checks_in_process(monkeypatch):
    parent = os.getpid()
    monkeypatch.setitem(vf.SUITES, "core", [("in-process", lambda n, rng: os.getpid() == parent)])
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert vf._pool_size(27) == 0
        assert [r.passed for r in vf.run_suite("core")] == [True]
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_no_fork_keeps_the_checks_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert vf._pool_size(27) == 0


def test_pool_size_follows_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert vf._pool_size(27) == 1  # in-process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert vf._pool_size(27) == 4
    assert vf._pool_size(3) == 3


def test_import_and_parser_leave_numpy_pool_dataclasses_json_and_csv_unloaded():
    # dataclasses alone pulled in inspect, dis, ast and tokenize at start-up;
    # json and csv load when a command first writes in their format
    unloaded = {"concurrent.futures", "multiprocessing", "numpy", "dataclasses", "inspect",
                "json", "csv"}
    code = ("import sys, supertorus; from supertorus import cli; cli.build_parser(); "
            f"print(sorted({unloaded!r} & set(sys.modules)))")
    src = str(Path(vf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout == "[]\n"


# A line left in stdout's buffer, then a verify through two workers; prints
# the pool modules that loaded.
POOLED_VERIFY = """
import io, sys
from supertorus import cli, verify as vf
vf._pool_size = lambda tasks: 2
assert isinstance(sys.stdout.buffer, io.BufferedWriter) and not sys.stdout.write_through
sys.stdout.write("written before the suite\\n")
code = cli.main(["verify", "--suite", "matchings", "--n-max", "2"])
print(code, sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules)))
"""


def test_a_pooled_verify_loads_no_pool_module_and_flushes_stdout_once():
    # workers end with os._exit, so the buffered line is written by the parent alone
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # block-buffered
    env["PYTHONPATH"] = str(Path(vf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", POOLED_VERIFY], capture_output=True,
                         text=True, env=env, check=True, timeout=60)
    lines = out.stdout.splitlines()
    assert lines[0] == "written before the suite"
    assert out.stdout.count("written before the suite") == 1
    assert lines[-2:] == ["6/6 checks passed", "0 []"]


# Ranks a singular and a nonsingular component, takes a kernel and a solve,
# and runs every suite in-process, the Boolean certificate too; prints
# whether numpy loaded.
RANKS_WITHOUT_NUMPY = """
import sys
from supertorus import linalg as la, verify as vf
vf._pool_size = lambda tasks: 0  # in-process, so this interpreter runs every check
singular = la.Matrix(3, 3, [1, 2, 0, 2, 4, 0, 0, 0, 3])
assert singular.rank() == 2 and la.boolean_incidence(6, 2, 4).is_invertible()
assert len(singular.kernel_basis()) == 1
assert singular.solve_many([[1, 2, 3], [1, 0, 0]]) == [[1, 0, 1], None]
assert all(r.passed for r in vf.run_suite("all", 4, 0))
print("numpy" in sys.modules)
"""


def test_ranks_kernels_solves_and_every_suite_leave_numpy_unloaded():
    src = str(Path(vf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", RANKS_WITHOUT_NUMPY], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout == "False\n"


@dataclass
class _DataclassResult:
    """``CheckResult`` as a @dataclass, the oracle of the hand-written class."""

    suite: str
    name: str
    passed: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)


_DataclassResult.__name__ = _DataclassResult.__qualname__ = "CheckResult"


def test_check_result_behaves_as_its_dataclass(like_dataclass):
    fields = [("core", "product laws", True), ("core", "product laws", True, "", 1.5),
              ("core", "product laws", False, "n=3"), ("all", "census", True, "n<=4", 0.25),
              ("all", "census", True, "n<=4", 0.5)]
    values = [vf.CheckResult(*f) for f in fields]
    oracles = [_DataclassResult(*f) for f in fields]
    values.append(vf.CheckResult(name="census", seconds=2.0, suite="all", passed=True))
    oracles.append(_DataclassResult(name="census", seconds=2.0, suite="all", passed=True))
    like_dataclass(values, oracles)
    # seconds is left out of equality
    assert values[0] == values[1] and values[3] == values[4]


def rank_nc_independence(n_max):
    """The rank route that ``check_nc_independence`` replaced, its oracle at
    n <= 5: in every degree k, one with no matching too, the noncrossing
    invariants' coordinate matrix over the monomials of degree k has full
    rank, and they are as many as the raising kernel's dimension there."""
    for n in range(1, min(5, n_max) + 1):
        for k in range(0, 2 * n + 1):
            ms = ma.noncrossing_matchings(n, k)
            order = [mono for mono in ex.all_monomials(n) if mono.degree == k]
            mat = co.coordinate_matrix([ma.matching_invariant(m) for m in ms], order)
            if mat.rank() != len(ms):
                return False
            kernel_dim = sum(
                co.invariants_dimension(n, i, k - i)
                for i in range(max(0, k - n), min(n, k) + 1)
                if 0 <= k - i <= n and i >= k - i
            )
            if len(ms) != kernel_dim:
                return False
    return True


@pytest.mark.parametrize("n_max", range(6))
def test_leading_terms_agree_with_the_rank_oracle(n_max):
    assert vf.check_nc_independence(n_max, random.Random(0))
    assert rank_nc_independence(n_max)


def test_noncrossing_invariants_are_a_basis_through_n_8():
    assert vf.check_nc_independence(8, random.Random(0))


_EMPTY = ma.LabelledMatching(3, (), (), ())  # the only matching of degree 0 at n = 3
_ARC = ma.parse_matching("n=3; arcs=(1,2); at=3")
_NESTED = ma.parse_matching("n=3; arcs=(1,3); at=2")


@pytest.mark.parametrize("fault", [
    lambda ms: [m for m in ms if m != _ARC],  # one matching dropped
    lambda ms: [m for m in ms if m != _EMPTY],  # degree 0 emptied
    lambda ms: ms + [m for m in ms if m == _ARC],  # one matching listed twice
    lambda ms: [_ARC if m == _NESTED else m for m in ms],  # one replaced by another
], ids=["dropped", "emptied degree", "duplicated", "replaced"])
def test_enumeration_faults_fail_both_routes(monkeypatch, fault):
    enumerate_matchings = ma.noncrossing_matchings
    monkeypatch.setattr(ma, "noncrossing_matchings",
                        lambda *args, **kwargs: fault(enumerate_matchings(*args, **kwargs)))
    assert ma.noncrossing_matchings(3) != enumerate_matchings(3)
    for n_max in (3, 5):
        assert not vf.check_nc_independence(n_max, random.Random(0))
        assert not rank_nc_independence(n_max)
    assert vf.check_nc_independence(2, random.Random(0)) and rank_nc_independence(2)


def test_a_raising_that_moves_the_other_way_fails_the_check(monkeypatch):
    # the rank route never raises, so only the leading-term check sees this
    monkeypatch.setattr(ex, "raising", ex.lowering)
    assert not vf.check_nc_independence(2, random.Random(0))
    assert rank_nc_independence(2)


def test_a_negated_invariant_fails_the_check(monkeypatch):
    # its lead's coefficient loses the sign (-1)**arcs that normal_form rests on;
    # the rank route sees the same span, so only the leading-term check fails
    invariant = ma.matching_invariant
    monkeypatch.setattr(ma, "matching_invariant", lambda m: -invariant(m) if m == _ARC
                        else invariant(m))
    assert not vf.check_nc_independence(3, random.Random(0))
    assert rank_nc_independence(3)


def test_free_columns_off_the_ballot_leads_fail_the_check(first_column_free):
    # the vectors still span the kernel, as many as its dimension, so only
    # the tie between the matchings' leads and the free monomials sees it
    failed = [r.name for r in vf.run_suite("all", 4) if not r.passed]
    assert failed == ["noncrossing independence and basis count"]
    assert rank_nc_independence(4)


def test_the_check_neither_eliminates_nor_builds_coordinates(monkeypatch):
    calls = []
    echelon, coordinate_matrix = la._echelon, co.coordinate_matrix
    monkeypatch.setattr(la, "_echelon",
                        lambda *args: calls.append("_echelon") or echelon(*args))
    monkeypatch.setattr(co, "coordinate_matrix",
                        lambda *args: calls.append("coordinate_matrix") or coordinate_matrix(*args))
    assert vf.check_nc_independence(5, random.Random(0)) and calls == []
    # the stand-ins see the rank oracle's eliminations and coordinates
    assert rank_nc_independence(5)
    assert {"_echelon", "coordinate_matrix"} == set(calls)

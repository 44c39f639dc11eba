"""How ``verify.run_suite`` runs its checks: in forked workers, one per
usable CPU, or in-process, with the same results either way."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from supertorus import verify as vf

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork")


@pytest.fixture
def pooled(monkeypatch):
    """Two workers, whatever the CPU count of the host."""
    monkeypatch.setattr(vf, "_pool_size", lambda tasks: 2)


def outcomes(results):
    return [(r.suite, r.name, r.passed, r.detail) for r in results]


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


def boom(n_max, rng):
    raise ZeroDivisionError(f"at n_max={n_max}, draw {rng.randint(0, 99)}")


def test_a_raising_check_reads_the_same_in_a_worker(monkeypatch):
    monkeypatch.setitem(vf.SUITES, "core", [("fine", lambda n, rng: True), ("boom", boom)])
    pooled, local = run_both(monkeypatch, "core", 3, 7)
    assert outcomes(pooled) == outcomes(local)
    assert pooled[1].detail == "ZeroDivisionError: at n_max=3, draw 41"
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_the_call(monkeypatch, pooled):
    vf.run_suite("matchings", 1)
    assert multiprocessing.active_children() == []


def test_a_dead_worker_fails_its_checks_without_hanging(monkeypatch, pooled):
    parent = os.getpid()

    def die(n_max, rng):
        if os.getpid() != parent:
            os._exit(1)
        return True

    def hung(signum, frame):
        raise TimeoutError("run_suite hung on a dead worker")

    checks = [("fine", lambda n, rng: True), ("die", die)] + vf.SUITES["matchings"]
    monkeypatch.setitem(vf.SUITES, "matchings", checks)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        results = vf.run_suite("matchings", 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [r.name for r in results] == [name for name, _ in checks]
    assert not results[1].passed
    assert results[1].detail.startswith("BrokenProcessPool: ")
    # a check the dead pool did not finish fails with the pool's error
    assert all(r.passed or r.detail == results[1].detail for r in results)
    assert multiprocessing.active_children() == []


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


# Ranks a singular and a nonsingular component, takes a kernel and a solve,
# and runs every suite in-process, the Boolean certificate too; prints
# whether numpy loaded.
RANKS_WITHOUT_NUMPY = """
import sys
from supertorus import linalg as la, verify as vf
vf._pool_size = lambda tasks: 0  # in-process, so this interpreter runs every check
singular = la.Matrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 3]])
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

"""The benchmark tracer (perfbench/tracing.py) binds package attributes by
name and takes ``len()`` of what some of them return; every attribute it
needs must exist, and a traced run must count what it ran, or
``run.py --trace 1`` crashes or reads nothing."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import supertorus

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # no side effects: Tracer.install() is never called
    return module


def test_tracer_targets_exist():
    tracing = load_tracing()
    targets = [(module, owner, attr) for _, module, owner, attr in tracing.SPANS]
    targets += [("linalg", None, "_bareiss_rank"), ("matchings", None, "_normal_form_cache")]
    for module_name, owner, attr in targets:
        holder = importlib.import_module(f"supertorus.{module_name}")
        if owner is not None:
            assert hasattr(holder, owner), f"{module_name}.{owner}"
            holder = getattr(holder, owner)
        assert hasattr(holder, attr), f"{module_name}.{owner or ''}.{attr}"


def test_benchmark_names_one_metric_per_verify_check():
    # the tracer unpacks each SUITES entry as (label, function) and names its
    # span after the function, so a renamed or moved check would otherwise
    # drop out of the benchmark's per-layer metrics without a failure
    from supertorus import verify

    checks = [entry for suite in verify.SUITES.values() for entry in suite]
    for entry in checks:
        assert isinstance(entry, tuple) and len(entry) == 2, entry
        label, fn = entry
        assert isinstance(label, str) and callable(fn), entry
    declared = [metric["name"] for metric in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    per_check = [name for name in declared
                 if name.startswith("verify.check_") and name.endswith(".self_s")]
    expected = [f"verify.{fn.__name__}.self_s" for _, fn in checks]
    assert len(expected) == 27
    assert sorted(per_check) == sorted(expected)


# Installs the tracer in a fresh interpreter, since it rebinds package
# functions for good, and prints what it counted as the last line.  The
# basis is built by library calls: the CLI's basis renders its rows from
# per-arc-set templates and never calls matching_invariant.
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from supertorus import cli, cohomology, matchings  # the tracer wraps cli functions too
tracer = tracing.Tracer()
tracer.install()
tracer.active = True
basis = matchings.noncrossing_matchings(4, bidegree=(2, 2))
elements = [matchings.matching_invariant(m) for m in basis]
invertible = cohomology.duality_gram(3, 1, 1).is_invertible()
tracer.active = False
print(json.dumps({"elements": len(elements), "invertible": invertible,
                  **tracer.metrics(0.0)}))
"""


def test_tracer_counts_a_traced_basis_and_rank():
    src = str(Path(supertorus.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACING)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    metrics = json.loads(out.stdout.splitlines()[-1])
    assert metrics["elements"] == 20 and metrics["invertible"] is True
    assert metrics["matchings.noncrossing_matchings.enumerated"] == 20
    assert metrics["matchings.matching_invariant.calls"] == 20
    assert metrics["linalg.rank.calls"] >= 1

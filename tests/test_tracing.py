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

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


# Installs the tracer in a fresh interpreter, since it rebinds package
# functions for good, and prints what it counted as the last line.
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from supertorus import cli, cohomology
tracer = tracing.Tracer()
tracer.install()
tracer.active = True
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["basis", "--n", "4", "--i", "2", "--j", "2"])
invertible = cohomology.duality_gram(3, 1, 1).is_invertible()
tracer.active = False
print(json.dumps({"code": code, "invertible": invertible, **tracer.metrics(0.0)}))
"""


def test_tracer_counts_a_traced_basis_and_rank():
    src = str(Path(supertorus.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACING)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    metrics = json.loads(out.stdout.splitlines()[-1])
    assert metrics["code"] == 0 and metrics["invertible"] is True
    assert metrics["matchings.noncrossing_matchings.enumerated"] == 20
    assert metrics["matchings.matching_invariant.calls"] == 20
    assert metrics["linalg.rank.calls"] >= 1

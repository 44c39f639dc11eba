"""The benchmark tracer (perfbench/tracing.py) binds package attributes by
name; every one it needs must exist, or ``run.py --trace 1`` crashes."""

import importlib.util
from pathlib import Path

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

"""The package's layer graph: which module imports which.

Each module's own imports are read from its source with ``ast``, nested
imports too, so a new edge, such as cohomology importing matchings, fails
here before it becomes a cycle or a hidden dependency.
"""

import ast
from pathlib import Path

import pytest

import supertorus

PACKAGE = Path(supertorus.__file__).resolve().parent

LAYERS = {
    "linalg": set(),
    "exterior": {"linalg"},
    "cohomology": {"exterior", "linalg"},
    "matchings": {"exterior", "linalg"},
    "verify": {"cohomology", "exterior", "linalg", "matchings"},
    "cli": {"cohomology", "exterior", "matchings", "verify"},
}


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "supertorus":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                out.add(parts[0])
            else:  # ``from . import a, b``
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "supertorus" and len(parts) > 1:
                    out.add(parts[1])
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_exactly_its_layers(module):
    assert package_imports(PACKAGE / f"{module}.py") == LAYERS[module]


def test_import_reader_sees_every_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import os\n"
        "from . import verify as vf\n"
        "from .linalg import Matrix\n"
        "from supertorus import cli\n"
        "import supertorus.exterior\n"
        "from supertorus.cohomology import raising_matrix\n"
        "def late():\n"
        "    from .matchings import parse_matching\n"
    )
    assert package_imports(source) == {
        "verify", "cli", "linalg", "exterior", "cohomology", "matchings"
    }

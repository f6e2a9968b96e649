"""The import order of the package, read from the sources with `ast`.

The layers are kernel <- opetope <- opset <- oalg <- cli, and
kernel <- theory <- cli: a module imports only from layers before it.
`kernel` holds what they share and imports nothing from the package;
opetope takes at most `ParseError` from it.  Only cli imports `theory`
(the package's `__init__` does not), so a fresh interpreter that imports
opetope, opset or oalg leaves it unloaded.  The Baez-Dolan oracle
in `tests/polytree_oracle.py` imports nothing from the package, so that
it checks `opetope` independently.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "opetopes"
LAYERS = ("kernel", "opetope", "opset", "oalg", "cli")
ALLOWED = {name: set(LAYERS[:i]) for i, name in enumerate(LAYERS)}
ALLOWED["theory"] = {"kernel"}
ALLOWED["cli"].add("theory")


def package_imports(module: str, directory: Path = PACKAGE) -> dict[str, set[str]]:
    """The package modules `module` imports, each with the names taken
    from it ("*" for the module itself)."""
    tree = ast.parse((directory / f"{module}.py").read_text(encoding="utf-8"))
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("opetopes."):
                    out.setdefault(alias.name.split(".")[1], set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("opetopes"):
                continue
            source = (node.module or "").removeprefix("opetopes").lstrip(".")
            if source:
                out.setdefault(source, set()).update(a.name for a in node.names)
            else:  # from opetopes import x, or from . import x
                for alias in node.names:
                    out.setdefault(alias.name, set()).add("*")
    return out


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_earlier_layers(module):
    imported = set(package_imports(module))
    assert imported <= ALLOWED[module], imported - ALLOWED[module]


def test_opetope_takes_at_most_parse_error_from_theory():
    assert package_imports("opetope").get("theory", set()) <= {"ParseError"}


def test_opetope_takes_at_most_parse_error_from_kernel():
    assert package_imports("opetope").get("kernel", set()) <= {"ParseError"}


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


def test_oracle_imports_nothing_from_the_package():
    assert package_imports("polytree_oracle", TESTS) == {}


def loaded_modules(module: str) -> set[str]:
    """The package modules a fresh interpreter holds after `import module`."""
    code = f"import sys, {module}; print(*(m for m in sys.modules if m.startswith('opetopes')))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(run.stdout.split())


@pytest.mark.parametrize("module", ["opetopes.opetope", "opetopes.opset", "opetopes.oalg"])
def test_importing_a_layer_leaves_theory_unloaded(module):
    loaded = loaded_modules(module)
    assert module in loaded and "opetopes.theory" not in loaded


def test_importing_theory_loads_it():
    assert "opetopes.theory" in loaded_modules("opetopes.theory")


def test_one_parse_error():
    from opetopes import kernel, opetope, theory

    assert opetope.ParseError is theory.ParseError is kernel.ParseError

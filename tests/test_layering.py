"""The import order of the package, read from the sources with `ast`.

The layers are opetope <- opset <- oalg <- cli: a module imports only
from layers before it.  `theory` holds the shared kernel
and imports nothing from the package; opset, oalg and cli may use it,
and opetope takes at most `ParseError` from it.  The Baez-Dolan oracle
in `tests/polytree_oracle.py` imports nothing from the package, so that
it checks `opetope` independently.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "opetopes"
LAYERS = ("opetope", "opset", "oalg", "cli")
ALLOWED = {name: set(LAYERS[:i]) | {"theory"} for i, name in enumerate(LAYERS)}
ALLOWED["theory"] = set()


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


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


def test_oracle_imports_nothing_from_the_package():
    assert package_imports("polytree_oracle", TESTS) == {}


def test_one_parse_error():
    from opetopes import opetope, theory

    assert opetope.ParseError is theory.ParseError

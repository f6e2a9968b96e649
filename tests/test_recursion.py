"""Every function in `src/` that can call itself, read from the sources
with `ast`, each with what bounds its depth.

A call is followed inside its own module only: a bare name resolves to a
def of an enclosing function or of the module, and `self.NAME` to a method
of the same class.  Builtins, imports, `super()` and other attributes are
not followed, so `Inclusion.__init__` calling `super().__init__` is no
cycle.  A function is listed when it reaches itself, directly or through
other functions of its module.  A new cycle must name its bound here; a
deep input must exit 2 at a cap, or be listed as unbounded.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opetopes"

DIMENSION = "the dimension, which opetope.NEST_CAP caps for a parsed shape"
TERM = "term depth, capped by theory.TERM_CAP in the reader and in Term"
RECURSIVE = {
    "oalg._points": "two levels: a 3-shape recurses once, on its 2-shape target",
    "opetope.validate": DIMENSION,
    "opetope._skey": DIMENSION,
    "opetope.render": DIMENSION,
    # target -> readdressing of each decoration, one dimension down
    "opetope._target_readdress": DIMENSION,
    "opetope._compose": DIMENSION,
    "opetope._replace_node": DIMENSION,
    "opetope._enumerate": "the --dim argument",
    "opetope._enumerate.grow": "the --max-nodes budget, spent one node per frame",
    "opetope._enumerate.grow.fill": "the --max-nodes budget and one frame per input slot",
    "opetope._calibrate": "bracket nesting, capped by opetope.NEST_CAP",
    "opetope._Parser.opetope": "brace nesting, capped by opetope.NEST_CAP",
    "opetope._Parser.raw_addr": "bracket nesting, capped by opetope.NEST_CAP",
    "theory._parse_term": TERM,
    "theory._parse_args": TERM,
    "theory._subst_term": TERM,
    "theory._match_term": TERM,
    "theory._sort_of": TERM,
    "theory._apply": TERM,
    "theory._compile": TERM,
    "theory._key": TERM,
    "kernel.natural_maps.extend": (
        "unbounded: one frame per choice point "
        "(tests/test_cli.py::test_orthogonal_on_a_long_integer, strict xfail)"
    ),
}

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.Module) -> dict[str, tuple[ast.AST, list[str], str | None]]:
    """Every def of a module by qualified name, with the qualified names of
    the functions enclosing it and the class it is a method of."""
    out: dict[str, tuple[ast.AST, list[str], str | None]] = {}
    stack: list[tuple[ast.AST, str, list[str], str | None]] = [(tree, "", [], None)]
    while stack:
        node, prefix, scopes, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTION):
                name = prefix + child.name
                out[name] = (child, scopes, cls)
                stack.append((child, name + ".", scopes + [name], None))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + ".", scopes, prefix + child.name))
            else:
                stack.append((child, prefix, scopes, cls))
    return out


def _calls(fn: ast.AST):
    """The callees of fn's own body, not of the defs and classes in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (*FUNCTION, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node.func
        stack.extend(ast.iter_child_nodes(node))


def call_graph(source: str) -> dict[str, set[str]]:
    defs = _definitions(ast.parse(source))
    graph: dict[str, set[str]] = {}
    for name, (fn, scopes, cls) in defs.items():
        graph[name] = set()
        for callee in _calls(fn):
            if isinstance(callee, ast.Name):
                # innermost first: defs nested in fn, in its enclosing functions, then the module
                visible = [f"{s}.{callee.id}" for s in reversed(scopes + [name])] + [callee.id]
                graph[name].update([q for q in visible if q in defs][:1])
            elif (
                cls is not None
                and isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
                and f"{cls}.{callee.attr}" in defs
            ):
                graph[name].add(f"{cls}.{callee.attr}")
    return graph


def recursive_functions(graph: dict[str, set[str]]) -> set[str]:
    out = set()
    for start in graph:
        seen: set[str] = set()
        todo = list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        if start in seen:
            out.add(start)
    return out


def package_recursion() -> set[str]:
    return {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in recursive_functions(call_graph(path.read_text(encoding="utf-8")))
    }


def test_every_recursive_function_is_pinned_with_its_bound():
    assert package_recursion() == set(RECURSIVE)


def test_cycles_through_other_functions_are_found():
    graph = call_graph(
        "def a(n):\n    return b(n)\n"
        "def b(n):\n    return a(n - 1) if n else 0\n"
        "class C:\n"
        "    def m(self):\n        return self.m()\n"
        "    def __init__(self):\n        super().__init__()\n"
        "def outer():\n"
        "    def inner(i):\n        return inner(i + 1)\n"
        "    return inner(0)\n"
    )
    assert recursive_functions(graph) == {"a", "b", "C.m", "outer.inner"}

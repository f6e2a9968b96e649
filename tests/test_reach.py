"""What in `src/` no command reaches, read from the sources with `ast`.

The walk starts at `cli.main` and the `cmd_*` functions and follows what
each reached top-level def, class or assignment names, the way Python
resolves it: a bare name is the module's own top-level def of that name,
or the def it imports under that name, followed through re-exports; a
name `m.x` is the def `x` of the package module imported as `m`.  So a
local variable or closure that shares a name with a def of another module
reaches nothing, and a reached class reaches every name its methods name.

A name no command reaches stays in `src/` only as the subject of a test
that states its result, and only while a later step builds on it; each is
pinned here with that test and the reason it stays.  A new unreached name
fails the test until it is pinned, or moved to `tests/`.  A name that left
`src/` is recorded with the module of `tests/` that holds it now, or as
deleted, and with the test that states it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "opetopes"

ACCEPTANCE = "test_acceptance.py::test_acceptance_"
TRACED = "traced by perfbench until ROADMAP item 1"
# a name no command reaches -> (the test that states its result, why it stays)
UNREACHED = {
    "theory.cat_isomorphic": ("test_properties.py::test_isomorphism_found_to_a_renamed_copy", TRACED),
    "theory._graph": ("test_theory.py::test_isomorphism_search_can_say_no", TRACED),
    "theory.psh_isomorphism": (
        "test_context.py::test_the_named_isomorphism_is_the_one_the_search_finds", TRACED,
    ),
}
# a name that left src/ -> (the module of tests/ it lives in, or None for a
# deleted name whose test calls the code it wrapped or what replaced it; the
# test that states it)
LEFT = {
    "kernel.NotAMap": ("paper_results", "test_theory.py::test_pullback_rejects_bad_maps"),
    "kernel.psh_compose": ("paper_results", "test_theory.py::test_pullback_is_strictly_functorial"),
    "kernel.psh_identity": ("paper_results", "test_theory.py::test_pullback_along_the_identity_is_strict"),
    "oalg.Diagram": ("paper_results", ACCEPTANCE + "05_diagram_functoriality"),
    "oalg.diagram_compose": ("paper_results", ACCEPTANCE + "05_diagram_functoriality"),
    "oalg.diagram_map": ("paper_results", ACCEPTANCE + "05_diagram_functoriality"),
    "oalg.diagram_for_monotone": ("paper_results", "test_oalg.py::test_every_monotone_map_is_a_diagram"),
    "oalg.monad_mult": ("monad_oracle", ACCEPTANCE + "07_monad_laws"),
    "oalg._shell_cell": ("monad_oracle", ACCEPTANCE + "07_monad_laws"),
    "oalg._slice": ("monad_oracle", "test_algebra_laws.py::test_laws_match_the_oracle"),
    "oalg.split_pasting": ("monad_oracle", "test_properties.py::test_split_then_multiply_is_the_identity"),
    "oalg.pasting_face": (None, "test_oalg.py::test_pasting_face_reads_endpoints"),
    "oalg.build_algebra": (None, "test_oalg.py::test_algebra_applies_its_rule_only_on_compose"),
    "oalg.SortedFamily": (None, "test_oalg.py::test_laws_hold_over_the_window_one_two"),
    "oalg.InfiniteNerve": (None, "test_oalg.py::test_an_empty_categorys_nerve_has_no_cells_at_any_bound"),
    "opetope.edge_addrs": ("scaffold", "test_opetope.py::test_source_and_edge_colours"),
    "opetope.edge_colour": ("scaffold", "test_opetope.py::test_source_and_edge_colours"),
    "opetope.graft": ("scaffold", "test_opetope.py::test_graft_whole_tree"),
    "opetope._root_edge_colour": ("scaffold", "test_opetope.py::test_graft_rejects_bad_input"),
    "opetope._child_index": ("scaffold", "test_opetope.py::test_substitute_rewires_hanging_subtrees"),
    "opetope.compose": ("paper_results", "test_opetope.py::test_compose_functorial"),
    "opetope.identity": (None, "test_opetope.py::test_compose_functorial"),
    "opetope.substitute": ("scaffold", "test_opetope.py::test_substitute_rewires_hanging_subtrees"),
    "opetope.lex_key": ("paper_results", ACCEPTANCE + "09_spine_decomposition"),
    "opetope.parse_addr": ("scaffold", "test_opetope.py::test_addr_render_parse_round_trip"),
    "opset.SpineAttachment": ("paper_results", ACCEPTANCE + "09_spine_decomposition"),
    "opset.spine_cell_decomposition": ("paper_results", ACCEPTANCE + "09_spine_decomposition"),
    "opset.pushout": ("paper_results", ACCEPTANCE + "09_spine_decomposition"),
    "opset.check_natural": (None, "test_properties.py::test_found_opset_maps_are_natural"),
    "opset.orthogonal": (None, "test_opset.py::test_orthogonal_parallel_arrows_fail_boundary"),
    "opset.empty_opset": (None, "test_opset.py::test_maps_from_empty_and_window_guard"),
    "opset.lifting_failures": (None, "test_oalg.py::test_nerve_axioms_name_a_doubled_three_cell"),
    "opset.HLiftReport": (None, "test_opset.py::test_hlift_terminal_all_hold"),
    "oalg.NerveReport": (None, "test_oalg.py::test_nerve_axioms_name_a_doubled_three_cell"),
    "theory.EmptyContext": ("paper_results", "test_theory.py::test_empty_presheaf_gives_the_empty_context"),
    "theory.ctx_ft": ("paper_results", "test_theory.py::test_parent_and_projection"),
    "theory.ctx_pr": ("paper_results", "test_theory.py::test_parent_and_projection"),
    "theory.ctx_pullback": ("paper_results", "test_theory.py::test_pullback_is_strictly_functorial"),
    "theory.parse_signature": (
        "scaffold", "test_theory.py::test_signature_to_category_recovers_the_two_arrows",
    ),
    "theory.boundary_c": ("paper_results", "test_theory.py::test_boundary_of_the_triangle"),
    "theory.psh_maps": ("paper_results", "test_theory.py::test_hom_sets_agree_with_presheaf_maps"),
    "theory.representable_psh": (
        "paper_results", "test_theory.py::test_representable_contains_the_identity",
    ),
    "theory.validate_presheaf": ("paper_results", ACCEPTANCE + "10_contexts"),
}


def top_level(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each name a module defines at top level, with its statement."""
    out: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """The package modules a module imports by name (local name -> module)
    and the names it imports from them (local name -> (module, name))."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("opetopes"):
            continue  # outside the package
        module = (node.module or "").removeprefix("opetopes").lstrip(".")
        for alias in node.names:
            if module:
                names[alias.asname or alias.name] = (module, alias.name)
            else:
                modules[alias.asname or alias.name] = alias.name
    return modules, names


def unreached(directory: Path = PACKAGE) -> set[str]:
    defs: dict[str, dict[str, ast.stmt]] = {}  # module -> its top-level names
    modules: dict[str, dict[str, str]] = {}
    names: dict[str, dict[str, tuple[str, str]]] = {}
    for path in sorted(directory.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs[path.stem] = top_level(tree)
        modules[path.stem], names[path.stem] = imports(tree)

    def resolve(module: str, name: str) -> str | None:
        if name in defs[module]:
            return f"{module}.{name}"
        if name in names[module] and names[module][name][0] in defs:
            return resolve(*names[module][name])
        return None

    def references(q: str) -> set[str]:
        """The defs that the statement of module.name names."""
        module, _, name = q.partition(".")
        out = set()
        for n in ast.walk(defs[module][name]):
            if isinstance(n, ast.Name):
                out.add(resolve(module, n.id))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                imported = modules[module].get(n.value.id)
                if imported in defs:
                    out.add(resolve(imported, n.attr))
        return out - {None}

    every = {f"{m}.{n}" for m, top in defs.items() for n in top}
    todo = ["cli.main"] + [q for q in every if q.startswith("cli.cmd_")]
    seen: set[str] = set()
    while todo:
        q = todo.pop()
        if q not in seen:
            seen.add(q)
            todo.extend(references(q))
    return every - seen


def test_every_unreached_name_is_pinned_with_its_test():
    assert unreached() == set(UNREACHED)


def test_every_unreached_name_says_why_it_stays():
    assert {reason for _, reason in UNREACHED.values()} <= {TRACED}


def test_every_name_that_left_lives_where_it_is_recorded():
    def defined(path: Path) -> dict[str, ast.stmt]:
        return top_level(ast.parse(path.read_text(encoding="utf-8")))

    for name, (home, _) in LEFT.items():
        module, _, def_name = name.partition(".")
        assert def_name not in defined(PACKAGE / f"{module}.py"), name
        if home is not None:
            assert def_name in defined(TESTS / f"{home}.py"), name


PINNED = {test for test, _ in UNREACHED.values()} | {test for _, test in LEFT.values()}


@pytest.mark.parametrize("test", sorted(PINNED))
def test_every_pinned_test_exists(test):
    file, name = test.split("::")
    tree = ast.parse((TESTS / file).read_text(encoding="utf-8"))
    assert name in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_the_walk_follows_names_across_modules(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import low\n"
        "from .low import SIZE\n"
        "def main():\n    return _parser()\n"
        "def _parser():\n    return 0\n"
        "def cmd_a_b():\n    return low.used(SIZE)\n"
        "def dead():\n    return low.only_dead()\n"
    )
    (tmp_path / "low.py").write_text(
        "SIZE = 3\n"
        "class Used:\n    def run(self):\n        return helper()\n"
        "def used(n):\n    return Used().run()\n"
        "def helper():\n    return 1\n"
        "def only_dead():\n    return 2\n"
    )
    assert unreached(tmp_path) == {"cli.dead", "low.only_dead"}


def test_a_local_name_reaches_no_def_of_another_module(tmp_path):
    # cmd_a_b's closure shares its name with mid.compose, which no command
    # reaches; mid re-exports low.helper, which cmd_a_b reaches through mid
    (tmp_path / "cli.py").write_text(
        "from .mid import helper as h\n"
        "def main():\n    return 0\n"
        "def cmd_a_b():\n"
        "    def compose():\n        return h()\n"
        "    return compose()\n"
    )
    (tmp_path / "mid.py").write_text(
        "from opetopes.low import helper\n"
        "def compose():\n    return helper()\n"
    )
    (tmp_path / "low.py").write_text("def helper():\n    return 1\n")
    assert unreached(tmp_path) == {"mid.compose"}

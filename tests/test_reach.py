"""What in `src/` no command reaches, read from the sources with `ast`.

The walk starts at `cli.main` and the `cmd_*` functions and goes by name:
a top-level def, class or assignment of a module is reached when a reached
one mentions its name, as a bare name or as an attribute, in any module of
the package.  So a name shared by two defs reaches both, and a reached
class reaches every name its methods mention.

A name no command reaches stays in `src/` only as the subject of a test
that states its result; each is pinned here with that test.  A new
unreached name fails the test until it is pinned, or moved to `tests/`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "opetopes"

ACCEPTANCE = "test_acceptance.py::test_acceptance_"
UNREACHED = {
    "kernel.NotAMap": "test_theory.py::test_pullback_rejects_bad_maps",
    "kernel.psh_compose": "test_theory.py::test_pullback_is_strictly_functorial",
    "kernel.psh_identity": "test_theory.py::test_pullback_along_the_identity_is_strict",
    "oalg.Diagram": ACCEPTANCE + "05_diagram_functoriality",
    "oalg.diagram_compose": ACCEPTANCE + "05_diagram_functoriality",
    "oalg.diagram_map": ACCEPTANCE + "05_diagram_functoriality",
    "oalg.diagram_for_monotone": "test_oalg.py::test_every_monotone_map_is_a_diagram",
    "oalg.monad_mult": ACCEPTANCE + "07_monad_laws",
    "oalg._shell_cell": ACCEPTANCE + "07_monad_laws",
    "oalg.split_pasting": "test_properties.py::test_split_then_multiply_is_the_identity",
    "oalg.pasting_face": "test_oalg.py::test_pasting_face_reads_endpoints",
    "opetope.edge_addrs": "test_opetope.py::test_source_and_edge_colours",
    "opetope.edge_colour": "test_opetope.py::test_source_and_edge_colours",
    "opetope.graft": "test_opetope.py::test_graft_whole_tree",
    "opetope._root_edge_colour": "test_opetope.py::test_graft_rejects_bad_input",
    "opetope.identity": "test_opetope.py::test_compose_functorial",
    "opetope.substitute": "test_opetope.py::test_substitute_rewires_hanging_subtrees",
    "opetope.lex_key": ACCEPTANCE + "09_spine_decomposition",
    "opetope.parse_addr": "test_opetope.py::test_addr_render_parse_round_trip",
    "opset.SpineAttachment": ACCEPTANCE + "09_spine_decomposition",
    "opset.spine_cell_decomposition": ACCEPTANCE + "09_spine_decomposition",
    "opset.pushout": ACCEPTANCE + "09_spine_decomposition",
    "opset.check_natural": "test_properties.py::test_found_opset_maps_are_natural",
    "opset.orthogonal": "test_opset.py::test_orthogonal_parallel_arrows_fail_boundary",
    "theory.EmptyContext": "test_theory.py::test_empty_presheaf_gives_the_empty_context",
    "theory.boundary_c": "test_theory.py::test_boundary_of_the_triangle",
    "theory.cat_isomorphic": "test_properties.py::test_isomorphism_found_to_a_renamed_copy",
    "theory.ctx_ft": "test_theory.py::test_parent_and_projection",
    "theory.ctx_pr": "test_theory.py::test_parent_and_projection",
    "theory.ctx_pullback": "test_theory.py::test_pullback_is_strictly_functorial",
    "theory._graph": "test_theory.py::test_isomorphism_search_can_say_no",
    "theory.parse_signature": "test_theory.py::test_signature_to_category_recovers_the_two_arrows",
    "theory.psh_isomorphism": "test_context.py::test_the_named_isomorphism_is_the_one_the_search_finds",
    "theory.psh_maps": "test_theory.py::test_hom_sets_agree_with_presheaf_maps",
    "theory.representable_psh": "test_theory.py::test_representable_contains_the_identity",
    "theory.validate_presheaf": ACCEPTANCE + "10_contexts",
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


def mentioned(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached(directory: Path = PACKAGE) -> set[str]:
    defs: dict[str, list[str]] = {}  # name -> the modules defining it
    nodes: dict[str, ast.stmt] = {}  # module.name -> statement
    for path in sorted(directory.glob("*.py")):
        if path.stem == "__init__":
            continue
        for name, node in top_level(ast.parse(path.read_text(encoding="utf-8"))).items():
            defs.setdefault(name, []).append(path.stem)
            nodes[f"{path.stem}.{name}"] = node
    todo = ["cli.main"] + [q for q in nodes if q.startswith("cli.cmd_")]
    seen: set[str] = set()
    while todo:
        q = todo.pop()
        if q not in seen:
            seen.add(q)
            todo.extend(f"{m}.{n}" for n in mentioned(nodes[q]) for m in defs.get(n, ()))
    return set(nodes) - seen


def test_every_unreached_name_is_pinned_with_its_test():
    assert unreached() == set(UNREACHED)


@pytest.mark.parametrize("test", sorted(set(UNREACHED.values())))
def test_every_pinned_test_exists(test):
    file, name = test.split("::")
    tree = ast.parse((TESTS / file).read_text(encoding="utf-8"))
    assert name in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_the_walk_follows_names_across_modules(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import low\n"
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

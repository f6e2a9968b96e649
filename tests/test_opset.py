"""Finite presheaves: representables, boundaries, spines, maps, lifting."""

from __future__ import annotations

import pytest

from opetopes.opetope import (
    ARROW,
    POINT,
    Addr,
    Degenerate,
    STAR,
    T_GEN,
    corolla,
    enumerate_opetopes,
    face,
    faces as face_structure,
    generators,
    opetopic_integer,
    parse,
    render,
    render_word,
    word_key,
)
from opetopes.kernel import (
    check_psh_map,
    sub_presheaf as sub_opset,
)
from opetopes.opset import (
    FinOpSet,
    Inclusion,
    WindowMismatch,
    boundary,
    dump_opset,
    hlift_check,
    load_opset,
    maps,
    orthogonal_witness,
    representable,
    spine,
    validate_opset,
)

from paper_results import (
    psh_compose as compose_maps,
    psh_identity as identity_map,
    replay_by_pushouts,
    spine_cell_decomposition,
)
from scaffold import graft, terminal_opset

I = opetopic_integer
E1 = Addr(1)
E2 = Addr(2)
XI_EX = parse("{ [] <- I3 [[*]] <- I2 [[**]] <- I1 }")


def cell_counts(X: FinOpSet) -> dict[str, int]:
    return {render(s): len(X.of_shape(s)) for s in X.shapes()}


# ------------------------------------------------------------- representables


def test_representable_point():
    X = representable(POINT)
    assert cell_counts(X) == {"point": 1}
    assert validate_opset(X) == []


def test_representable_arrow():
    X = representable(ARROW)
    assert cell_counts(X) == {"point": 2, "arrow": 1}


def test_representable_two_cell():
    X = representable(I(2), (0, 2))
    assert cell_counts(X) == {"point": 3, "arrow": 3, "I2": 1}
    assert validate_opset(X) == []


def test_representable_truncation_drops_top():
    X = representable(I(2), (0, 1))
    assert cell_counts(X) == {"point": 3, "arrow": 3}
    Y = representable(I(2), (1, 2))
    assert cell_counts(Y) == {"arrow": 3, "I2": 1}
    assert validate_opset(Y) == []


def test_representable_of_worked_example_validates():
    X = representable(XI_EX)
    assert validate_opset(X) == []
    assert cell_counts(X) == {"point": 5, "arrow": 7, "I1": 1, "I2": 1, "I3": 1, "I4": 1, render(XI_EX): 1}


# --------------------------------------------------------- boundaries, spines


def test_boundary_of_arrow():
    b = boundary(ARROW)
    assert cell_counts(b.src) == {"point": 2}
    assert isinstance(b, Inclusion)
    assert check_psh_map(b) == []


def test_spine_of_chain():
    sp = spine(I(3))
    assert cell_counts(sp.src) == {"point": 4, "arrow": 3}
    # the three source arrows, not the target
    arrows = sp.src.of_shape(ARROW)
    assert set(arrows) == {"s[]", "s[*]", "s[**]"}


def test_spine_of_degenerate_is_shell_representable():
    sp = spine(Degenerate(ARROW))
    assert cell_counts(sp.src) == {"point": 2, "arrow": 1}
    # one spine cell per cell of the representable on the shell target
    assert cell_counts(sp.src) == cell_counts(representable(ARROW, sp.src.window))


def test_boundary_pushout_identity():
    # inside the representable: spine and target-closure intersect in the
    # target's boundary and unite to the whole boundary
    for w in [I(3), XI_EX, parse("{ [] <- I2 [[*]] <- I0 }"), corolla(I(2))]:
        X = representable(w)
        fs = face_structure(w)
        spine_cells = set(spine(w).src.all_cells())
        t_closure = {
            render_word(fs.word_of(c))
            for c in fs.closure({fs.target_cell()})
        }
        bd = set(boundary(w).src.all_cells())
        t_bd = t_closure - {render_word(fs.word_of(fs.target_cell()))}
        assert spine_cells & t_closure == t_bd
        assert spine_cells | t_closure == bd


def test_spine_pushout_identity():
    # grafting glues the spine of the extended tree from the old spine and
    # the new source's representable along the shared edge closure
    cases = [
        (I(2), Addr(1, (STAR, STAR)), ARROW),
        (corolla(I(2)), E2.extend(E1), I(1)),
        (corolla(I(2)), E2.extend(Addr(1, (STAR,))), I(2)),
    ]
    for nu, leaf, psi in cases:
        whole = graft(nu, leaf, psi)
        fs = face_structure(whole)

        def closure_names(word):
            c = fs.cell_of_word(word)
            return {render_word(fs.word_of(x)) for x in fs.closure({c})}

        from opetopes.opetope import node_addrs

        old = set()
        for p in node_addrs(nu):
            old |= closure_names((("s", p),))
        new = closure_names((("s", leaf),))
        assert old | new == set(spine(whole).src.all_cells())
        assert old & new == closure_names((("s", leaf), T_GEN))


def test_spine_connected():
    for n in (1, 2, 3, 4):
        for w in enumerate_opetopes(n, 4):
            X = spine(w).src
            cells = X.all_cells()
            parent = {x: x for x in cells}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for (x, _), y in X.faces.items():
                parent[find(x)] = find(y)
            assert len({find(x) for x in cells}) == 1, render(w)


# ---------------------------------------------------------------- face names


def cell_name(omega, word):
    """The name of the cell a face word reaches, rendered from its least
    word on every call: the naming that faces(omega).names replaced."""
    fs = face_structure(omega)
    return render_word(fs.word_of(fs.cell_of_word(word)))


def cell_words(omega):
    fs = face_structure(omega)
    return {render_word(fs.word_of(c)): fs.word_of(c) for c in fs.cells()}


def short_words(omega):
    """Every face word of length at most 2 out of omega."""
    yield ()
    for g in generators(omega):
        yield (g,)
        for h in generators(face(omega, g)):
            yield (g, h)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_face_names_are_least_words_and_along_precomposes(dim):
    for omega in enumerate_opetopes(dim, 4 if dim < 4 else 3):
        fs = face_structure(omega)
        assert list(fs.names) == fs.cells()
        words = list(short_words(omega))
        for word in words:
            c = fs.cell_of_word(word)
            least = min((w for w in words if fs.cell_of_word(w) == c), key=word_key)
            assert fs.name(word) == render_word(least) == cell_name(omega, word)
        for g in generators(omega):
            words_of_face = cell_words(face(omega, g)).items()
            old = [(x, cell_name(omega, (g,) + w)) for x, w in words_of_face]
            assert list(fs.along(g).items()) == old


def test_named_shape_renders_no_word_for_spine_or_boundary(monkeypatch):
    from opetopes import opetope, opset

    shapes = [I(3), XI_EX, corolla(I(2)), Degenerate(ARROW)]
    first = [(spine(w), boundary(w), spine(w, (1, w.dim))) for w in shapes]
    calls = []

    def counted(word):
        calls.append(word)
        return render_word(word)

    monkeypatch.setattr(opetope, "render_word", counted)
    monkeypatch.setattr(opset, "render_word", counted, raising=False)
    again = [(spine(w), boundary(w), spine(w, (1, w.dim))) for w in shapes]
    assert calls == []
    assert again == first


# ------------------------------------------------------------------- mapping


def test_yoneda_exact():
    Y = representable(XI_EX)
    for w in [POINT, ARROW, I(1), I(2), I(3), I(4), XI_EX]:
        ms = maps(representable(w, Y.window), Y)
        assert len(ms) == len(Y.of_shape(w))
    Z = representable(I(3))
    for w in [POINT, ARROW, I(2), I(3)]:
        assert len(maps(representable(w, Z.window), Z)) == len(Z.of_shape(w))


def test_maps_from_empty_and_window_guard():
    X = representable(I(2))
    assert len(maps(FinOpSet(X.window, {}, {}), X)) == 1
    with pytest.raises(WindowMismatch):
        maps(FinOpSet((0, 1), {}, {}), X)


def test_maps_compose_and_identity():
    X = representable(ARROW, (0, 2))
    Y = representable(I(2), (0, 2))
    for f in maps(X, Y):
        assert check_psh_map(f) == []
        assert compose_maps(f, identity_map(X)) == f
    assert len(maps(X, Y)) == 3  # one per arrow cell


def test_sub_opset_requires_closure():
    X = representable(I(2))
    with pytest.raises(ValueError):
        sub_opset(X, {"id"})


# -------------------------------------------------------------- orthogonality


def two_parallel_arrows() -> FinOpSet:
    return FinOpSet(
        (0, 1),
        {POINT: ("a", "b"), ARROW: ("f", "g")},
        {
            ("f", ("s", STAR)): "a",
            ("f", T_GEN): "b",
            ("g", ("s", STAR)): "a",
            ("g", T_GEN): "b",
        },
    )


def test_orthogonal_empty_boundary_counts_the_cells():
    # in the window [1, 1] the boundary of an arrow is empty, so a map
    # extends once per arrow cell: two parallel arrows give no unique lift
    one = FinOpSet((1, 1), {ARROW: ("f",)}, {})
    two = FinOpSet((1, 1), {ARROW: ("f", "g")}, {})
    assert boundary(ARROW, (1, 1)).src.cells == {}
    assert orthogonal_witness(ARROW, boundary, two)[1] == 2
    assert orthogonal_witness(ARROW, boundary, one) is None


def test_orthogonal_parallel_arrows_fail_boundary():
    X = two_parallel_arrows()
    w = orthogonal_witness(ARROW, boundary, X)
    assert w is not None
    f, n = w
    assert n in (0, 2)
    assert orthogonal_witness(ARROW, boundary, X) is not None


def counting_witness(incl: Inclusion, X: FinOpSet):
    """orthogonal_witness by counting every map out of incl.dst per restriction."""
    inv = {v: k for k, v in incl.comp.items()}
    counts: dict[tuple, int] = {}
    for g in maps(incl.dst, X):
        key = tuple(sorted((inv[b], g.comp[b]) for b in inv))
        counts[key] = counts.get(key, 0) + 1
    for f in maps(incl.src, X):
        n = counts.get(tuple(sorted(f.comp.items())), 0)
        if n != 1:
            return f, n
    return None


def without_cell(X: FinOpSet, c: str) -> FinOpSet:
    """X less the cell c and every cell that has c as an iterated face."""
    dropped = {c}
    for w in sorted(X.cells, key=lambda w: w.dim):
        for x in X.cells[w]:
            if any(X.face[x, g] in dropped for g in X.gens[w]):
                dropped.add(x)
    return sub_opset(X, set(X.sort) - dropped).src


def test_orthogonal_witness_matches_counting():
    from opetopes.oalg import nerve_category, parse_category
    from test_cli_golden import CHAIN_CAT, Z2_CAT

    z2 = nerve_category(parse_category(Z2_CAT), 3)
    targets = [
        nerve_category(parse_category(CHAIN_CAT), 3),
        z2,
        without_cell(z2, z2.of_shape(I(2))[1]),
        terminal_opset((0, 3), 3),
    ]
    witnesses = []
    for X in targets:
        for n in (1, 2, 3):
            for w in enumerate_opetopes(n, 3):
                for include in (spine, boundary):
                    witness = orthogonal_witness(w, include, X)
                    incl = include(w, X.window)
                    assert witness == counting_witness(incl, X), (render(w), X.cells)
                    witnesses.append(witness)
    assert {w[1] for w in witnesses if w is not None} >= {0, 2, 3}


def test_each_orthogonality_question_builds_one_representable(monkeypatch):
    from opetopes import opset
    from opetopes.oalg import nerve_category, parse_category
    from test_cli_golden import Z2_CAT

    X = nerve_category(parse_category(Z2_CAT), 3)
    calls = {"representable": 0, "orthogonal_witness": 0}

    def counted(name):
        fn = getattr(opset, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(opset, name, counted(name))
    opset._lifting_plan.cache_clear()
    opset.hlift_check(X, 0, 3)
    assert calls["orthogonal_witness"] > 0
    assert calls["representable"] == calls["orthogonal_witness"]
    # the shape's half of each question is planned once per process
    calls["representable"] = 0
    opset.hlift_check(X, 0, 3)
    assert calls["representable"] == 0


def test_spine_boundary_and_faces_commands_plan_no_shape(capsys):
    # a plan cache holds each shape it is asked about, so the large shapes
    # of `opset spine`, `opset boundary` and `opetope faces` stay out of it
    from opetopes import oalg, opset
    from opetopes.cli import main
    from test_opetope import unary_chain

    expr = render(unary_chain(20))
    plans = (opset._lifting_plan, oalg._square_plan)
    sizes = [plan.cache_info().currsize for plan in plans]
    for argv in (["opset", "spine"], ["opset", "boundary"], ["opetope", "faces"]):
        assert main([*argv, "--expr", expr]) == 0
    capsys.readouterr()
    assert [plan.cache_info().currsize for plan in plans] == sizes


# ------------------------------------------------------- cell decompositions


def test_spine_decomposition_degenerate_is_empty():
    assert spine_cell_decomposition(Degenerate(ARROW)) == ()
    assert spine_cell_decomposition(I(0)) == ()


def test_spine_decomposition_corolla_single_step():
    steps = spine_cell_decomposition(corolla(I(2)))
    assert len(steps) == 1
    assert steps[0].shape == I(2)
    assert steps[0].complex_after == spine(corolla(I(2)), (0, 2)).src


def test_spine_decomposition_worked_example():
    steps = spine_cell_decomposition(XI_EX)
    assert [render(s.shape) for s in steps] == ["I1", "I2", "I3"]
    assert [str(s.node) for s in steps] == ["[[**]]", "[[*]]", "[]"]
    for s in steps:
        assert check_psh_map(s.attach) == []
    assert steps[-1].complex_after == spine(XI_EX, (0, 2)).src
    # each pushout contributes the source cell and its fresh target face
    sizes = [s.complex_after.size() for s in steps]
    assert sizes == [sizes[0] + 2 * i for i in range(len(sizes))]


def test_spine_decomposition_replay_via_pushouts():
    for xi in list(enumerate_opetopes(3, 4)) + [XI_EX]:
        steps = spine_cell_decomposition(xi)
        if not steps:
            continue
        # replay: start from the target spine and push out each attachment
        replay, _ = replay_by_pushouts(xi, steps)
        wanted = spine(xi, (0, xi.dim - 1)).src
        assert replay.size() == wanted.size()
        assert cell_counts(replay) == cell_counts(wanted)


def test_spine_decomposition_two_fresh_cells_per_step():
    for xi in enumerate_opetopes(4, 3):
        steps = spine_cell_decomposition(xi)
        prev = None
        for s in steps:
            if prev is not None:
                assert s.complex_after.size() == prev + 2
            prev = s.complex_after.size()
        if steps:
            assert steps[-1].complex_after == spine(xi, (0, xi.dim - 1)).src


# ---------------------------------------------------------------- hlift check


def hlift_implications(flags: dict[str, bool]) -> tuple[bool, bool]:
    """The two unique-lifting implications around a dimension n: spines at
    n and n+1 give boundaries at n+1, and with boundaries at n+2 they give
    spines at n+2."""
    low = flags["spines_low"]
    return (not low or flags["boundaries_mid"],
            not (low and flags["boundaries_high"]) or flags["spines_high"])


def test_hlift_terminal_all_hold():
    X = terminal_opset((0, 3), 5)
    rep = hlift_check(X, 1, max_nodes=3)
    assert rep.flags == {
        "spines_low": True, "boundaries_mid": True, "boundaries_high": True, "spines_high": True,
    }
    assert hlift_implications(rep.flags) == (True, True)
    assert rep.failures == ()


def test_hlift_truncated_representable_vacuous():
    X = representable(I(2), (0, 2))
    rep = hlift_check(X, 0, max_nodes=3)
    assert not rep.flags["spines_low"]
    assert hlift_implications(rep.flags) == (True, True)


def test_hlift_window_guard():
    X = representable(I(2), (0, 2))
    with pytest.raises(WindowMismatch):
        hlift_check(X, 1, 3)


# ------------------------------------------------------------------ text form


def test_dump_load_round_trip():
    for X in [
        representable(I(2)),
        spine(XI_EX).src,
        two_parallel_arrows(),
        FinOpSet((0, 2), {}, {}),
    ]:
        assert load_opset(dump_opset(X)) == X


def test_load_rejects_bad_lines():
    with pytest.raises(ValueError):
        load_opset("shape point cells x\n")  # missing window
    with pytest.raises(ValueError):
        load_opset("window 0 1\nnonsense here\n")


def test_load_names_the_line_of_a_malformed_shape():
    text = "window 3 3\nshape {[] <- I1 [[*]] <- I0} cells x\n"
    err = "line 2: [[*]] is not a leaf of the nodes below it: 'shape {[] <- I1 [[*]] <- I0} cells x'"
    with pytest.raises(ValueError) as info:
        load_opset(text)
    assert str(info.value) == err

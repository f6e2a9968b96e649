"""The category and model readers against the readers they replaced.

Category files are written from generated posets and monoids (the
categories of `test_properties`), renamed with names that hold `:`, `-`,
`>` and `'`, and model files from generated carriers and operation tables
whose names include the words `sort`, `op` and `table`.  Each is written
with the spacing around its separators drawn, and may get a comment line.
A mutated file has one to three single-token edits: a token deleted,
repeated, replaced or joined by one from a pool of separators, keywords,
names, spaces and line breaks.

Checked against `parse_oracle`: where the oracle accepts and every name is
one token (without `.`, in a category file), the reader returns the same
category or model; otherwise it fails, on the first line that holds an
empty name, one with a space or a category name with `.`, or else on the
oracle's line.  A category reader fails with the oracle's own
message when no name is the cause; a model reader keeps the oracle's
semantic messages and reports a malformed line as `expected 'FORM'`, the
form its first name selects.  On every generated category file the reader
accepts, the nerve reads back from its text form.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from opetopes.kernel import FiniteCategory
from opetopes.oalg import nerve_category, parse_category
from opetopes.opset import dump_opset, load_opset
from opetopes.theory import parse_model

from parse_oracle import oracle_parse_category, oracle_parse_model
from test_properties import categories

SETTINGS = settings(max_examples=300, deadline=None)
MODEL_FORMS = ("sort NAME(ARGS) = {ELEMS}", "op NAME(ARGS) table:", "NAME(ARGS) = VALUE")
# the oracle's texts that name what went wrong, not where a line broke
SEMANTIC = ("duplicate carrier", "element ", "duplicate row", "expected a sort, op, or table row")


def outcome(parse, text: str):
    try:
        return parse(text), None
    except ValueError as err:
        return None, err


def line_of(err: ValueError) -> int | None:
    m = re.match(r"line (\d+): ", str(err))
    return int(m[1]) if m else None


spacing = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def renamed(draw, C: FiniteCategory) -> FiniteCategory:
    """C with fresh names: objects may hold `:`, no name holds `.`, `=`,
    `#` or `->`, and morphism names hold no `:` either."""

    def fresh(alphabet: str, taken: set[str]) -> str:
        name = draw(
            st.text(alphabet, min_size=1, max_size=3).filter(
                lambda n: "->" not in n and n not in taken
            )
        )
        taken.add(name)
        return name

    taken: set[str] = set()
    obj = {a: fresh("ab:x>-'", taken) for a in C.objects}
    mor = {f: fresh("fgh_>-'", taken) for f in C.morphisms}
    return FiniteCategory(
        tuple(obj[a] for a in C.objects),
        {mor[f]: (obj[a], obj[b]) for f, (a, b) in C.morphisms.items()},
        {(mor[g], mor[f]): mor[h] for (g, f), h in C.composition.items()},
        {obj[a]: mor[i] for a, i in C.identities.items()},
    )


@st.composite
def category_texts(draw) -> str:
    C = draw(renamed(draw(categories)))
    sp = draw(spacing)
    lines = ["obj " + " ".join(C.objects)]
    lines += [f"mor {f}{sp}:{sp or ' '}{a}{sp}->{sp}{b}" for f, (a, b) in C.morphisms.items()]
    lines += [f"id {a}{sp}={sp}{i}" for a, i in C.identities.items()]
    lines += [f"comp {g}{sp}.{sp}{f}{sp}={sp}{h}" for (g, f), h in C.composition.items()]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    return "\n".join(lines) + "\n"


MODEL_NAMES = ["a", "b", "f", "g'", "_x", "o0", "V", "E", "sort", "op", "table"]
model_names = st.sampled_from(MODEL_NAMES)


@st.composite
def model_texts(draw) -> str:
    sp = draw(spacing)
    comma = f"{sp},{sp or ' '}"

    def args(names: list[str], bare: bool) -> str:
        return "" if bare and not names else f"{sp}({sp}{comma.join(names)}{sp})"

    lines = []
    for _ in range(draw(st.integers(0, 3))):
        head, params = draw(model_names), draw(st.lists(model_names, max_size=2))
        elems = draw(st.lists(model_names, max_size=3, unique=True))
        bare = draw(st.booleans())
        lines.append(f"sort {head}{args(params, bare)}{sp}={sp}{{{sp}{comma.join(elems)}{sp}}}")
    for _ in range(draw(st.integers(0, 2))):
        op, arity = draw(model_names), draw(st.integers(0, 2))
        params = draw(st.lists(model_names, min_size=arity, max_size=arity))
        lines.append(f"op {op}{args(params, draw(st.booleans())) or ' '}{sp}table{sp}:")
        for _ in range(draw(st.integers(0, 3))):
            row = draw(st.lists(model_names, min_size=arity, max_size=arity))
            lines.append(f"{op}{args(row, False)}{sp}={sp}{draw(model_names)}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    return "\n".join(lines) + "\n"


TOKEN = re.compile(r"[^\s:.=>(){},-]+|->|\s+|.")
# what an edit may write: the separators, keywords and names of each kind of file
CATEGORY_POOL = [
    "", " ", "\n", ":", ".", "=", "->", "-", ">", "a", "x y", "obj", "mor", "id", "comp",
]
MODEL_POOL = ["", " ", "\n", ",", "(", ")", "{", "}", "=", ":", "a", "x y", "sort", "op", "table"]


@st.composite
def mutated(draw, texts, pool: list[str]) -> str:
    tokens = TOKEN.findall(draw(texts))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["delete", "repeat", "replace", "insert"]))
        if kind == "delete":
            del tokens[i]
        elif kind == "repeat":
            tokens.insert(i, tokens[i])
        else:
            tokens.insert(i, draw(st.sampled_from(pool)))
            if kind == "replace":
                del tokens[i + 1]
        if not tokens:
            tokens = [""]
    return "".join(tokens)


category_files = st.one_of(category_texts(), mutated(category_texts(), CATEGORY_POOL))
model_files = st.one_of(model_texts(), mutated(model_texts(), MODEL_POOL))


@SETTINGS
@given(category_files)
def test_category_reader_agrees_with_the_oracle(text):
    names: list[tuple[int, str]] = []
    want, want_err = outcome(lambda t: oracle_parse_category(t, names), text)
    got, got_err = outcome(parse_category, text)
    # the nerve's cell ids join names with `.`, so no name may hold one
    spaced = [lineno for lineno, name in names if len(name.split()) != 1 or "." in name]
    if spaced:
        assert got_err is not None and line_of(got_err) == spaced[0], (text, got_err)
    elif want_err is None:
        assert got_err is None and got == want, (text, got_err)
    else:
        assert type(got_err) is type(want_err) and str(got_err) == str(want_err), text


@SETTINGS
@given(model_files)
@example("sort V(a,) = {}\n")
@example("sort V = {a,}\n")
@example("op c(a,) table:\n")
@example("op c table:\nc(a,) = b\n")
def test_model_reader_agrees_with_the_oracle(text):
    want, want_err = outcome(oracle_parse_model, text)
    got, got_err = outcome(parse_model, text)
    if want_err is None:
        assert got_err is None and got == want, (text, got_err)
        return
    assert type(got_err) is type(want_err) and line_of(got_err) == line_of(want_err), text
    message = str(want_err).split(": ", 1)[1]
    if message.startswith(SEMANTIC):
        assert str(got_err) == str(want_err), text
    else:
        assert str(got_err) in [f"line {line_of(want_err)}: expected {f!r}" for f in MODEL_FORMS]


@settings(max_examples=60, deadline=None)
@given(category_files, st.integers(1, 2))
@example("obj x x.f\nmor ix: x -> x\nmor iy: x.f -> x.f\nmor f: x -> x.f\n"
         "id x = ix\nid x.f = iy\n", 1)
@example("obj x xf\nmor ix: x -> x\nmor iy: xf -> xf\nmor f: x -> xf\n"
         "id x = ix\nid xf = iy\n", 1)
def test_the_nerve_of_every_category_read_reads_back(text, bound):
    C, err = outcome(parse_category, text)
    if err is not None:
        return
    N = nerve_category(C, bound)
    assert load_opset(dump_opset(N)) == N

"""Every CLI command on mutated inputs: a crash must not pass for a verdict.

The inputs are the golden ones of `test_cli_golden.py` (the chain and Z/2
categories, the Z/2 nerve, the theory of categories and its three-object
model, the shape XI).  Each example applies a few random edits to one
input: a character deleted, inserted or replaced, a line deleted,
repeated or swapped with another.  Whatever the edits, the command must
return 0, 1 or 2, raise nothing, and never report a bare `KeyError` (a
message that is only a quoted key).

No edit writes a digit: the commands run without a step budget, and
an edit such as `I2` -> `I29` turns a test of input handling into a map
search over 2**29 candidates.  Each command gets 30 examples; 600 per
command also passed when this was written.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opetopes.cli import main
from opetopes.oalg import nerve_category, parse_category
from opetopes.opset import dump_opset
from test_cli import C3_MODEL, TCAT, XI
from test_cli_golden import CHAIN_CAT, Z2_CAT

ALPHABET = " \n{}[]*<-:.,=()|#>abefgiostxyzIEV"
SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def edit(draw, text: str) -> str:
    kind = draw(st.sampled_from(["delete", "insert", "replace", "drop", "repeat", "swap"]))
    if kind in ("delete", "insert", "replace"):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(ALPHABET))
        if kind == "insert":
            return text[:i] + c + text[i:]
        return text[:i] + (c if kind == "replace" else "") + text[i + 1 :]
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


@st.composite
def mutated(draw, text: str) -> str:
    for _ in range(draw(st.integers(1, 3))):
        text = edit(draw, text)
    return text


INPUTS = {
    "chain.cat": CHAIN_CAT,
    "z2.cat": Z2_CAT,
    "z2.nerve": dump_opset(nerve_category(parse_category(Z2_CAT), 2)),
    "tcat.th": TCAT,
    "c3.mod": C3_MODEL,
}
SHAPE = "{ [] <- I2  [[*]] <- I1 }"
CONTEXT = "x y : V, f : E(x, y)"

# a command, and the input that gets edited: --expr, or the file of a flag
CASES = [
    ("opetope validate", "--expr", XI),
    ("opetope target", "--expr", XI),
    ("opetope source", "--expr", XI),
    ("opetope faces", "--expr", XI),
    ("opetope hom", "--expr", SHAPE),
    ("opetope identities", "--expr", XI),
    ("opset spine", "--expr", XI),
    ("opset boundary", "--expr", XI),
    ("opset orthogonal --expr I2", "--file", "z2.nerve"),
    ("opset orthogonal --file z2.nerve", "--expr", "I2"),
    ("opset hlift --n 0 --max-nodes 2", "--file", "z2.nerve"),
    ("oalg free --max-nodes 3", "--file", "chain.cat"),
    ("oalg laws --max-nodes 4", "--file", "chain.cat"),
    ("oalg h", "--expr", SHAPE),
    ("oalg nerve --max-nodes 2", "--file", "z2.cat"),
    ("oalg nerve-check --max-nodes 2", "--file", "z2.cat"),
    ("theory parse", "--file", "tcat.th"),
    ("theory lfd", "--file", "tcat.th"),
    ("theory roundtrip", "--file", "tcat.th"),
    ("theory check-model --theory tcat.th", "--model", "c3.mod"),
    ("theory check-model --model c3.mod", "--theory", "tcat.th"),
    ("theory context --file tcat.th", "--expr", CONTEXT),
    ("theory context --expr", "--file", "tcat.th"),
]
BARE_KEY = re.compile(r"error: '[^']*'\n\Z")


@pytest.mark.parametrize("command, flag, name", CASES, ids=[f"{c} {f}" for c, f, _ in CASES])
def test_mutated_input_gets_a_verdict(command, flag, name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    words = command.split() + ([CONTEXT] if command.endswith("--expr") else [])

    @SETTINGS
    @given(st.data())
    def check(data):
        for file, text in INPUTS.items():
            (tmp_path / file).write_text(text)
        if flag == "--expr":
            argv = words + ["--expr=" + data.draw(mutated(name))]
        else:
            (tmp_path / name).write_text(data.draw(mutated(INPUTS[name])))
            argv = words + [flag, name]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err and not BARE_KEY.match(err), (argv, err)

    check()

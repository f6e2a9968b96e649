"""Known-answer checks for job outputs.

Each job carries an `expect` dict: its exit code and a check name with
the facts the generator derived.  `check_job` returns None when the
job's exit code and stdout agree with those facts, else a one-line
reason.  Shape text is read back with a small parser of its own, so a
check never calls into the program under test.
"""

from __future__ import annotations

import re
from collections import Counter


# --------------------------------------------------------------------------
# reading shapes back


def _tokens(text: str) -> list[str]:
    return re.findall(r"<-|[{}\[\]*]|[A-Za-z0-9_]+", text)


def read_shape(text: str):
    """Parse shape text to a canonical form: ('I', k), 'point', 'arrow',
    ('deg', shape) or ('tree', frozenset of (address text, shape))."""
    toks = _tokens(text)
    pos = 0

    def shape():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok in ("point", "arrow"):
            return tok
        if tok[:1] == "I" and tok[1:].isdigit():
            return ("I", int(tok[1:]))
        if tok != "{":
            raise ValueError(f"unexpected token {tok!r}")
        if toks[pos] == "{":
            pos += 1
            inner = shape()
            pos += 2
            return ("deg", inner)
        nodes = []
        while toks[pos] != "}":
            a = addr()
            if toks[pos] != "<-":
                raise ValueError("expected <-")
            pos += 1
            nodes.append((a, shape()))
        pos += 1
        return ("tree", frozenset(nodes))

    def addr() -> str:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "*":
            return "*"
        if tok != "[":
            raise ValueError(f"expected an address, found {tok!r}")
        parts = []
        while toks[pos] != "]":
            parts.append(addr())
        pos += 1
        return "[" + "".join(parts) + "]"

    out = shape()
    if pos != len(toks):
        raise ValueError("trailing input")
    return out


def canon(t: dict) -> tuple:
    """Canonical form of a generated dim-3 or dim-4 tree."""
    nodes = []
    for a, d in t.items():
        nodes.append((a, ("I", d) if isinstance(d, int) else canon(d)))
    return ("tree", frozenset(nodes))


def _tree_leaves(form) -> tuple[int, Counter]:
    """Leaf count and node-arity multiset of a canonical dim-3 tree, after
    checking that every non-root node sits in a free input of its parent."""
    nodes = dict(form[1])
    arity = {a: d[1] for a, d in nodes.items()}
    if "[]" not in arity:
        raise ValueError("no root node")
    for a in arity:
        if a == "[]":
            continue
        parent, slot = _split_last(a)
        if parent not in arity or not (slot.startswith("[") and len(slot) - 2 < arity[parent]):
            raise ValueError(f"node {a} is not in an input of its parent")
    leaves = sum(arity.values()) - len(arity) + 1
    return leaves, Counter(arity.values())


def _split_last(a: str) -> tuple[str, str]:
    """Split a depth-2 address into its parent and its last depth-1 entry."""
    body = a[1:-1]
    start = body.rindex("[")
    return "[" + body[:start] + "]", body[start:]


# --------------------------------------------------------------------------
# checks


def _lines(out: str) -> list[str]:
    return out.rstrip("\n").split("\n") if out else []


def _count_dump(out: str) -> tuple[str, int, int]:
    window, cells, faces = "", 0, 0
    for line in _lines(out):
        if line.startswith("window "):
            window = line
        elif line.startswith("shape "):
            cells += len(line.split(" cells ", 1)[1].split())
        elif line.startswith("face "):
            faces += 1
    return window, cells, faces


def check_output(e: dict, out: str) -> str | None:
    kind = e["check"]
    lines = _lines(out)
    if kind == "exact":
        return None if out == e["out"] else f"expected {e['out']!r}, got {out[:200]!r}"
    if kind == "target4":
        form = read_shape(out)
        leaves, arities = _tree_leaves(form)
        got = sum(arities.values())
        if got != e["nodes"]:
            return f"target has {got} nodes, expected {e['nodes']}"
        if dict(arities) != e["colours"]:
            return "target node decorations differ from the leaf colours"
        if leaves != e["leaves"]:
            return f"target has {leaves} leaves, expected {e['leaves']}"
        return None
    if kind == "validate":
        want = [f"dim: {e['dim']}", f"size: {e['size']}", "ok"]
        if lines[1:] != want or not lines[0].startswith("shape: "):
            return f"expected shape, {want}, got {lines[:1]} {lines[1:]}"
        if read_shape(lines[0][len("shape: "):]) != e["shape"]:
            return "validate printed a different shape"
        return None
    if kind == "source":
        got = {}
        for line in lines:
            a, _, text = line.partition(" ")
            got[a] = read_shape(text)
        return None if got == dict(e["shape"][1]) else "sources differ from the node decorations"
    if kind == "faces":
        if lines[0] != f"cells: {e['cells']}" or len(lines) != e["cells"] + 1:
            return f"expected {e['cells']} cells, got {lines[0]!r} and {len(lines) - 1} rows"
        if read_shape(lines[1].split(" : ", 1)[1]) != e["shape"] or not lines[1].startswith("id : "):
            return "first face is not the shape itself"
        return None
    if kind == "identities":
        want = [f"cells: {e['cells']}", f"squares: {e['squares']}", "ok"]
        return None if lines == want else f"expected {want}, got {lines[:4]}"
    if kind == "dump":
        got = _count_dump(out)
        want = (e["window"], e["cells"], e["faces"])
        return None if got == want else f"expected (window, cells, faces) {want}, got {got}"
    if kind == "enumerate":
        if len(lines) != e["count"] or len(set(lines)) != len(lines):
            return f"expected {e['count']} distinct shapes, got {len(lines)}"
        return None
    if kind == "laws":
        if lines[-1:] != ["ok"] or any(l.startswith("failure") for l in lines):
            return f"laws did not pass: {lines[-3:]}"
        if not (lines[0].startswith("units checked: ") and lines[1].startswith("squares checked: ")):
            return "missing unit or square counts"
        return None
    if kind == "free":
        if lines[0] != f"cells: {len(e['rows'])}" or sorted(lines[1:]) != sorted(e["rows"]):
            return f"expected {len(e['rows'])} paths, got {lines[0]!r}"
        return None
    if kind == "model":
        if lines[:len(e["head"])] != e["head"] or lines[-1] != e["last"]:
            return f"expected {e['head'] + [e['last']]}, got {lines[:4]}"
        if "fails" in e and not lines[len(e["head"])].startswith(e["fails"]):
            return f"expected {e['fails']!r}, got {lines[len(e['head'])]!r}"
        if len(lines) != len(e["head"]) + 1 + ("fails" in e):
            return f"unexpected lines {lines}"
        return None
    if kind == "theory_parse":
        got = []
        for line in lines:
            m = re.match(r"type .*\|- (\w+)(\(.*\))? type \(grade (\d+)\)$", line)
            if m:
                got.append([m.group(1), int(m.group(3))])
        ops = sum(1 for l in lines if l.startswith("op "))
        eqs = sum(1 for l in lines if l.startswith("equation "))
        if got != e["types"] or (ops, eqs) != (e["ops"], e["equations"]):
            return f"expected types {e['types']}, got {got}"
        return None
    if kind == "lfd":
        want = [f"object {n} (dim {d})" for n, d in e["types"]]
        want += [f"morphisms: {e['morphisms']}", "ok"]
        return None if lines == want else f"expected {want}, got {lines}"
    if kind == "context":
        steps = lines[:-2]
        if lines[-1] != "ok" or not lines[-2].startswith("iso: "):
            return f"context not realized: {lines[-2:]}"
        names = [l.split(": ", 1)[1].split("(")[0] for l in steps]
        if [l.split(":")[0] for l in steps] != [f"x{i}" for i in range(len(e["sorts"]))]:
            return f"expected {len(e['sorts'])} steps, got {len(steps)}"
        if Counter(names) != Counter(e["sorts"]):
            return f"expected step sorts {sorted(e['sorts'])}, got {sorted(names)}"
        return None
    raise ValueError(f"unknown check {kind!r}")


def check_job(expect: dict, result: dict) -> str | None:
    """Compare one worker result with the job's known answer."""
    if result.get("raised"):
        return f"raised {result['raised']}"
    if "Traceback" in result["err"]:
        return "traceback on stderr"
    if result["code"] != expect["code"]:
        return f"exit {result['code']}, expected {expect['code']}"
    if expect["check"] == "error":
        return None if result["err"].startswith("error") else "exit 2 without an error message"
    try:
        return check_output(expect, result["out"])
    except (ValueError, IndexError, KeyError) as err:
        return f"unreadable output: {err}"

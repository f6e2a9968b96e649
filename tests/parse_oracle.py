"""The category and model readers before each line form was one regex: an
independent oracle.

`oracle_parse_category` cuts each line apart at its separators, so a name
may be empty or hold spaces (`mor i d: a -> a` declares a morphism `i d`).
`oracle_parse_model` walks a token stream and reports where a line stops
making sense token by token (`unexpected end of line`, `expected '}',
found ...`, `trailing input ...`).  The tests compare `oalg.parse_category`
and `theory.parse_model` against these: where the oracle accepts and every
name is one token the result must be equal, and otherwise the reader must
fail on the line the oracle fails on, or on an earlier line that holds a
name of more than one token.
"""

from __future__ import annotations

import re

from opetopes.kernel import (
    FiniteCategory,
    NotACategory,
    ParseError,
    ensure_category,
    line_error,
    numbered_lines,
)
from opetopes.theory import Model

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\|-|[(),:={}]|\S")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


class _Tokens:
    def __init__(self, line: str):
        self.items = _TOKEN.findall(line.replace("⊢", "|-"))
        self.pos = 0

    def peek(self) -> str | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of line")
        self.pos += 1
        return t

    def expect(self, token: str) -> None:
        t = self.next()
        if t != token:
            raise ParseError(f"expected {token!r}, found {t!r}")

    def done(self) -> None:
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t!r}")


def _ident(tok: _Tokens) -> str:
    t = tok.next()
    if not _IDENT.match(t):
        raise ParseError(f"expected a name, found {t!r}")
    return t


def _names(tok: _Tokens, close: str) -> list[str]:
    """Names separated by commas, up to the closing token, which is consumed."""
    names: list[str] = []
    if tok.peek() != close:
        names.append(_ident(tok))
        while tok.peek() == ",":
            tok.next()
            names.append(_ident(tok))
    tok.expect(close)
    return names


def _written(head: str, args: tuple[str, ...]) -> str:
    return f"{head}({', '.join(args)})" if args else head


def oracle_parse_model(text: str) -> Model:
    sorts: dict[tuple[str, tuple[str, ...]], tuple[str, ...]] = {}
    ops: dict[str, dict[tuple[str, ...], str]] = {}
    current: str | None = None
    try:
        for lineno, line in numbered_lines(text):
            tok = _Tokens(line)
            head = tok.next()
            if head == "sort":
                name = _ident(tok)
                args: list[str] = []
                if tok.peek() == "(":
                    tok.next()
                    args = _names(tok, ")")
                tok.expect("=")
                tok.expect("{")
                elems = _names(tok, "}")
                tok.done()
                key = (name, tuple(args))
                if key in sorts:
                    raise ParseError(f"duplicate carrier for {_written(*key)}")
                seen: set[str] = set()
                for e in elems:
                    if e in seen:
                        raise ParseError(f"element {e} listed twice in {_written(*key)}")
                    seen.add(e)
                sorts[key] = tuple(elems)
                current = None
            elif head == "op":
                name = _ident(tok)
                if tok.peek() == "(":
                    tok.next()
                    _names(tok, ")")
                tok.expect("table")
                tok.expect(":")
                tok.done()
                ops.setdefault(name, {})
                current = name
            else:
                if current is None or not _IDENT.match(head) or head != current:
                    raise ParseError("expected a sort, op, or table row")
                tok.expect("(")
                args = _names(tok, ")")
                tok.expect("=")
                value = _ident(tok)
                tok.done()
                key2 = tuple(args)
                if key2 in ops[current]:
                    raise ParseError(f"duplicate row for {current}({', '.join(key2)})")
                ops[current][key2] = value
    except ValueError as err:
        raise line_error(lineno, err) from None
    return Model(sorts, ops)


def oracle_parse_category(text: str, names: list | None = None) -> FiniteCategory:
    """names, if given, gets (line number, name) for every name read, in
    order, before the line's declaration is checked."""
    objects: dict[str, None] = {}
    morphisms: dict[str, tuple[str, str]] = {}
    composition: dict[tuple[str, str], str] = {}
    identities: dict[str, str] = {}

    def declare(table: dict, key, value, what: str) -> None:
        if names is not None:
            for part in (key, value):
                parts = (part,) if isinstance(part, str) else part or ()
                names.extend((lineno, name) for name in parts)
        if key in table:
            raise ValueError(f"{what} declared twice")
        table[key] = value

    def cut(text: str, sep: str, form: str, maxsplit: int = -1) -> list[str]:
        """text split at sep into two stripped parts, or an error naming form."""
        parts = [p.strip() for p in text.split(sep, maxsplit)]
        if len(parts) != 2:
            raise ValueError(f"expected {form!r}")
        return parts

    try:
        for lineno, line in numbered_lines(text):
            parts = line.split()
            body = line[len(parts[0]) :]
            if parts[0] == "obj":
                for a in parts[1:]:
                    declare(objects, a, None, f"object {a}")
            elif parts[0] == "mor":
                form = "mor NAME: SRC -> DST"
                name, arrow = cut(body, ":", form, 1)
                declare(morphisms, name, tuple(cut(arrow, "->", form)), f"morphism {name}")
            elif parts[0] == "id":
                a, i = cut(body, "=", "id OBJ = NAME")
                declare(identities, a, i, f"identity of {a}")
            elif parts[0] == "comp":
                pair, h = cut(body, "=", "comp G.F = H")
                g, f = cut(pair, ".", "comp G.F = H")
                declare(composition, (g, f), h, f"composite {g}.{f}")
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
    except ValueError as err:
        raise NotACategory(f"line {lineno}: {err}") from None
    C = FiniteCategory(tuple(objects), morphisms, composition, identities)
    ensure_category(C)
    return C

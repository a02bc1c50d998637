"""Minimal s-expression reader and printer.

Grammar: lists in parentheses, double-quoted strings with ``\\"`` and
``\\\\`` escapes, bare atoms, ``;`` line comments, and the ``'expr``
quote shorthand. Input must be UTF-8 without a byte-order mark. Errors
carry the byte offset they were detected at.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from gitvouch.errors import VouchError


class SexpSyntaxError(VouchError):
    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class Atom(NamedTuple):
    """A leaf: a bare symbol/number, or a quoted string when
    ``quoted`` is true."""

    text: str
    quoted: bool = False


SExp = Atom | list

# Runs the reader consumes in one step: blanks and ``;`` comments, a
# bare atom up to the next delimiter, and string bytes up to ``"`` or a
# backslash.
_BLANKS = re.compile(rb"(?:[ \t\r\n]+|;[^\n]*\n?)*")
_ATOM = re.compile(rb"[^()\"; \t\r\n']*")
_STRING_RUN = re.compile(rb'[^"\\]*')

# Lists and quotes nest no deeper than this. The reader recurses once
# per level, and the policy files it reads come from the repository, so
# without a bound a file of nested parentheses would exhaust the stack.
MAX_NESTING = 100


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.depth = 0

    def error(self, message: str, offset: int | None = None) -> SexpSyntaxError:
        return SexpSyntaxError(message, self.pos if offset is None else offset)

    def skip_blank(self) -> None:
        self.pos = _BLANKS.match(self.data, self.pos).end()

    def read(self):
        self.skip_blank()
        if self.pos >= len(self.data):
            return None
        byte = self.data[self.pos : self.pos + 1]
        if byte == b"(":
            return self._nested(self._read_list)
        if byte == b")":
            raise self.error("unexpected ')'")
        if byte == b'"':
            return self._read_string()
        if byte == b"'":
            return self._nested(self._read_quote)
        return self._read_atom()

    def _nested(self, read_form):
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING}")
        self.depth += 1
        form = read_form()
        self.depth -= 1
        return form

    def _read_quote(self) -> list:
        self.pos += 1
        inner = self.read()
        if inner is None:
            raise self.error("dangling quote at end of input")
        return [Atom("quote"), inner]

    def _read_list(self) -> list:
        start = self.pos
        self.pos += 1
        items = []
        while True:
            self.skip_blank()
            if self.pos >= len(self.data):
                raise self.error("unbalanced '('", start)
            if self.data[self.pos : self.pos + 1] == b")":
                self.pos += 1
                return items
            items.append(self.read())

    def _read_string(self) -> Atom:
        start = self.pos
        data = self.data
        out = bytearray()
        pos = start + 1
        while True:
            end = _STRING_RUN.match(data, pos).end()
            out += data[pos:end]
            if end >= len(data):
                raise self.error("unterminated string", start)
            if data[end] == 0x22:  # '"'
                self.pos = end + 1
                return Atom(self._decode(out, start), quoted=True)
            # A backslash escapes '"' and itself; before any other byte,
            # or at the end, it stands for itself.
            nxt = data[end + 1 : end + 2]
            if nxt == b'"' or nxt == b"\\":
                out += nxt
                pos = end + 2
            else:
                out += b"\\"
                pos = end + 1

    def _read_atom(self) -> Atom:
        start = self.pos
        self.pos = _ATOM.match(self.data, start).end()
        return Atom(self._decode(self.data[start : self.pos], start))

    def _decode(self, raw: bytes | bytearray, offset: int) -> str:
        try:
            return bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SexpSyntaxError(f"invalid UTF-8: {exc}", offset) from exc


def _reader(data: bytes | str) -> _Reader:
    if isinstance(data, str):
        data = data.encode("utf-8")
    if data.startswith(b"\xef\xbb\xbf"):
        raise SexpSyntaxError("byte-order mark not allowed", 0)
    return _Reader(data)


def parse_sexp(data: bytes | str) -> SExp:
    """Parse exactly one top-level expression."""
    reader = _reader(data)
    expr = reader.read()
    if expr is None:
        raise SexpSyntaxError("empty input", 0)
    reader.skip_blank()
    if reader.pos < len(reader.data):
        raise reader.error("trailing data after expression")
    return expr


def parse_all(data: bytes | str, *, allow_trailing_closers: bool = False) -> list[SExp]:
    """Parse every top-level expression (possibly none).

    ``allow_trailing_closers`` treats stray ``)`` after complete
    top-level forms as end of input; published snippets sometimes lose a
    wrapping form and keep its closing paren.
    """
    reader = _reader(data)
    out = []
    while True:
        reader.skip_blank()
        if (
            allow_trailing_closers
            and out
            and reader.pos < len(reader.data)
            and reader.data[reader.pos : reader.pos + 1] == b")"
        ):
            return out
        expr = reader.read()
        if expr is None:
            return out
        out.append(expr)


def print_sexp(expr: SExp) -> str:
    """Canonical printer; ``parse_sexp(print_sexp(e))`` == ``e``."""
    if isinstance(expr, Atom):
        if expr.quoted:
            escaped = expr.text.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return expr.text
    return "(" + " ".join(print_sexp(item) for item in expr) + ")"

"""Byte-at-a-time s-expression reader: the reference for ``gitvouch.sexp``.

``gitvouch.sexp`` scans runs of bytes with precompiled patterns. This
reader steps one byte at a time, as that module once did, and must give
the same results, error classes, messages and byte offsets
(``tests/test_sexp.py`` compares the two).
"""

from __future__ import annotations

from gitvouch.sexp import MAX_NESTING, Atom, SexpSyntaxError

_DELIMS = b"()\"; \t\r\n'"


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.depth = 0

    def error(self, message: str, offset: int | None = None) -> SexpSyntaxError:
        return SexpSyntaxError(message, self.pos if offset is None else offset)

    def skip_blank(self) -> None:
        data = self.data
        while self.pos < len(data):
            byte = data[self.pos : self.pos + 1]
            if byte in b" \t\r\n":
                self.pos += 1
            elif byte == b";":
                end = data.find(b"\n", self.pos)
                self.pos = len(data) if end < 0 else end + 1
            else:
                return

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
        self.pos += 1
        out = bytearray()
        data = self.data
        while self.pos < len(data):
            byte = data[self.pos : self.pos + 1]
            if byte == b'"':
                self.pos += 1
                return Atom(self._decode(out, start), quoted=True)
            if byte == b"\\" and self.pos + 1 < len(data):
                nxt = data[self.pos + 1 : self.pos + 2]
                if nxt in (b'"', b"\\"):
                    out += nxt
                    self.pos += 2
                    continue
            out += byte
            self.pos += 1
        raise self.error("unterminated string", start)

    def _read_atom(self) -> Atom:
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos] not in _DELIMS:
            self.pos += 1
        return Atom(self._decode(data[start : self.pos], start))

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


def parse_sexp(data: bytes | str):
    reader = _reader(data)
    expr = reader.read()
    if expr is None:
        raise SexpSyntaxError("empty input", 0)
    reader.skip_blank()
    if reader.pos < len(reader.data):
        raise reader.error("trailing data after expression")
    return expr


def parse_all(data: bytes | str, *, allow_trailing_closers: bool = False) -> list:
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

"""N-Triples parser and serializer.

Implements the line-based N-Triples grammar (W3C RDF 1.1 N-Triples) for the
subset used by WatDiv and typical RDF dumps: IRIs, blank nodes, and literals
with optional language tags or datatypes. Comments (``# ...``) and blank lines
are skipped.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import RdfSyntaxError
from .terms import IRI, BlankNode, Literal, Term, Triple, unescape_literal

_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:([A-Za-z0-9][A-Za-z0-9_.-]*)")
_LITERAL_RE = re.compile(
    r'"((?:[^"\\]|\\.)*)"'  # lexical form with escapes
    r"(?:\^\^<([^<>\s]*)>|@([A-Za-z]+(?:-[A-Za-z0-9]+)*))?"  # datatype or lang
)

# One whole statement, the three term tokens captured as written. It accepts a
# subset of what the cursor parser accepts and splits it the same way: the
# blank-node label is max-munch (the lookahead stops backtracking from handing
# a trailing '.' back as the statement's dot, so ``_:a <p> _:b.`` stays an
# error), and a literal subject or non-IRI predicate simply does not match.
# Any line this does not fully match goes to the cursor parser, which owns
# every error message.
_IRI_TOKEN = r"<[^<>\"{}|^`\\\x00-\x20]*>"
_BNODE_TOKEN = r"_:[A-Za-z0-9][A-Za-z0-9_.-]*(?![A-Za-z0-9_.-])"
_LITERAL_TOKEN = (
    r'"[^"\\]*(?:\\.[^"\\]*)*"'
    r"(?:\^\^<[^<>\s]*>|@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?"
)
_STATEMENT_RE = re.compile(
    rf"({_IRI_TOKEN}|{_BNODE_TOKEN})[ \t]*({_IRI_TOKEN})[ \t]*"
    rf"({_IRI_TOKEN}|{_BNODE_TOKEN}|{_LITERAL_TOKEN})[ \t]*\.[ \t]*(?s:#.*)?"
)


class _LineParser:
    """Cursor-based parser for one N-Triples line."""

    def __init__(self, line: str, line_number: int | None):
        self.line = line
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str) -> RdfSyntaxError:
        return RdfSyntaxError(f"{message} (at column {self.pos})", self.line_number)

    def skip_whitespace(self) -> None:
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def parse_term(self) -> Term:
        self.skip_whitespace()
        if self.pos >= len(self.line):
            raise self.error("unexpected end of line, expected a term")
        ch = self.line[self.pos]
        if ch == "<":
            match = _IRI_RE.match(self.line, self.pos)
            if not match:
                raise self.error("malformed IRI")
            self.pos = match.end()
            return IRI(match.group(1))
        if ch == "_":
            match = _BNODE_RE.match(self.line, self.pos)
            if not match:
                raise self.error("malformed blank node label")
            self.pos = match.end()
            return BlankNode(match.group(1))
        if ch == '"':
            match = _LITERAL_RE.match(self.line, self.pos)
            if not match:
                raise self.error("malformed literal")
            self.pos = match.end()
            lexical_raw, datatype, language = match.groups()
            try:
                lexical = unescape_literal(lexical_raw)
            except ValueError as exc:
                raise self.error(str(exc)) from exc
            return Literal(lexical, datatype=datatype, language=language)
        raise self.error(f"unexpected character {ch!r}")

    def expect_dot(self) -> None:
        self.skip_whitespace()
        if self.pos >= len(self.line) or self.line[self.pos] != ".":
            raise self.error("expected '.' terminating the triple")
        self.pos += 1
        self.skip_whitespace()
        rest = self.line[self.pos :]
        if rest and not rest.startswith("#"):
            raise self.error(f"trailing content after '.': {rest!r}")


def parse_term(text: str) -> Term:
    """Parse a single N-Triples term (``<iri>``, ``_:b0``, or a literal).

    Raises:
        RdfSyntaxError: when ``text`` is not exactly one term.
    """
    parser = _LineParser(text.strip(), None)
    term = parser.parse_term()
    parser.skip_whitespace()
    if parser.pos != len(parser.line):
        raise parser.error("trailing content after term")
    return term


def parse_line(line: str, line_number: int | None = None) -> Triple | None:
    """Parse one N-Triples line; return ``None`` for blank/comment lines.

    Raises:
        RdfSyntaxError: when the line is not a valid triple.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parser = _LineParser(stripped, line_number)
    subject = parser.parse_term()
    if isinstance(subject, Literal):
        raise parser.error("literal is not allowed in the subject position")
    predicate = parser.parse_term()
    if not isinstance(predicate, IRI):
        raise parser.error("predicate must be an IRI")
    obj = parser.parse_term()
    parser.expect_dot()
    return Triple(subject, predicate, obj)


def parse_ntriples(lines: Iterable[str]) -> Iterator[Triple]:
    """Parse an iterable of N-Triples lines, yielding :class:`Triple` objects.

    Each distinct term token is turned into a :class:`Term` once per call:
    equal tokens share one object for the length of the parse.

    Raises:
        RdfSyntaxError: exactly as :func:`parse_line` would for that line.
    """
    terms: dict[str, Term] = {}

    def new_term(token: str) -> Term:
        term = terms[token] = _LineParser(token, None).parse_term()
        return term

    statement = _STATEMENT_RE.fullmatch
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        match = statement(stripped)
        triple = None
        if match is not None:
            try:
                triple = Triple(
                    *[terms.get(token) or new_term(token) for token in match.groups()]
                )
            except RdfSyntaxError:
                pass  # a bad escape in a literal: the cursor parser reports its column
        if triple is None:
            triple = parse_line(line, line_number=number)
        yield triple


def parse_ntriples_string(text: str) -> list[Triple]:
    """Parse a whole N-Triples document held in a string."""
    return list(parse_ntriples(text.splitlines()))


def parse_ntriples_file(path: str | Path) -> Iterator[Triple]:
    """Stream triples out of an N-Triples file on the local filesystem."""
    with open(path, encoding="utf-8") as handle:
        yield from parse_ntriples(handle)


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document (one statement per line)."""
    return "".join(triple.n3() + "\n" for triple in triples)


def write_ntriples_file(triples: Iterable[Triple], path: str | Path) -> int:
    """Write triples to ``path`` in N-Triples format; return the triple count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for triple in triples:
            handle.write(triple.n3() + "\n")
            count += 1
    return count

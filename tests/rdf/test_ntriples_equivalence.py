"""``parse_ntriples`` (statement regex, per-parse term memo, cursor fallback)
against the cursor parser alone, line by line: the same triples, or the same
error text and line number."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RdfSyntaxError
from repro.rdf.ntriples import parse_line, parse_ntriples

XSD = "http://www.w3.org/2001/XMLSchema#"


def _by_cursor(lines):
    triples = []
    for number, line in enumerate(lines, start=1):
        try:
            triple = parse_line(line, line_number=number)
        except RdfSyntaxError as error:
            return triples, (str(error), error.line_number)
        if triple is not None:
            triples.append(triple)
    return triples, None


def _by_document_parser(lines):
    triples = []
    try:
        for triple in parse_ntriples(lines):
            triples.append(triple)
    except RdfSyntaxError as error:
        return triples, (str(error), error.line_number)
    return triples, None


def _assert_agree(lines):
    expected = _by_cursor(lines)
    assert _by_document_parser(lines) == expected
    return expected


NAMED_LINES = [
    "<http://ex/s> <http://ex/p> <http://ex/o> .",
    "<http://ex/s><http://ex/p><http://ex/o>.",
    "_:a <http://ex/p> _:b .",
    "_:a <http://ex/p> _:b.",  # the label swallows the dot: an error
    "_:a <http://ex/p> _:b. .",
    "_:a.b <http://ex/p> _:c-d_e .",
    "_:a. <http://ex/p> <http://ex/o> .",
    '<http://ex/s> <http://ex/p> "x"@en .',
    '<http://ex/s> <http://ex/p> "x"@en-.',
    '<http://ex/s> <http://ex/p> "x"@en-GB.',
    '<http://ex/s> <http://ex/p> "x"@ .',
    '"s" <http://ex/p> <http://ex/o> .',  # literal subject
    '<http://ex/s> "p" <http://ex/o> .',  # non-IRI predicates
    "<http://ex/s> _:p <http://ex/o> .",
    '<http://ex/s> <http://ex/p> "a\\u0041\\U0001F600b" .',
    '<http://ex/s> <http://ex/p> "say \\"hi\\" \\\\ \\n\\t" .',
    '<http://ex/s> <http://ex/p> "bad \\q escape" .',
    '<http://ex/s> <http://ex/p> "short \\u12" .',
    '<http://ex/s> <http://ex/p> "dangling \\',
    f'<http://ex/s> <http://ex/p> "1"^^<{XSD}string> .',  # token text != n3()
    f'<http://ex/s> <http://ex/p> "1"^^<{XSD}integer> .',
    '<http://ex/s> <http://ex/p> "1"^^<bad iri> .',
    '<http://ex/s> <http://ex/p> "1"^^ .',
    "<http://ex/s> <http://ex/p> <http://ex/o> . # comment",
    "<http://ex/s> <http://ex/p> <http://ex/o> .# comment . <x>",
    "<http://ex/s> <http://ex/p> <http://ex/o> . trailing",
    "<http://ex/s> <http://ex/p> <http://ex/o> . .",
    "<http://ex/s>\t<http://ex/p>\t\t<http://ex/o>\t.\t",
    "<http://ex/s> <http://ex/p> <http://ex/o> .\r\n",
    "  \t <http://ex/s> <http://ex/p> <http://ex/o> .  \n",
    "<http://ex/s> <http://ex/p> <http://ex/o> . # c  more",
    "<http://ex/s> <http://ex/p> <http://ex/o> .",
    "<http://ex/s> <http://ex/p> <http://ex/o>",
    "<http://ex/s> <http://ex/p> .",
    "<http://ex/s> <http://ex/p>",
    "<http://ex/s>",
    "<http://ex/s> <http://ex/p> <http://ex/o o> .",
    "<http://ex/s> <http://ex/p> <http://ex/{o}> .",
    "<http://ex/s> <http://ex/p> bad .",
    "",
    "   ",
    "\n",
    "# only a comment",
    "   # an indented comment\r\n",
]


@pytest.mark.parametrize("line", NAMED_LINES, ids=repr)
def test_named_lines_agree(line):
    _assert_agree([line])


def test_the_dot_swallowing_blank_node_stays_an_error():
    triples, error = _assert_agree(["_:a <http://ex/p> _:b."])
    assert triples == [] and error is not None and "expected '.'" in error[0]


def test_errors_carry_the_line_number_of_the_document():
    lines = ["# header\n", "\n", "<http://ex/s> <http://ex/p> <http://ex/o> .\n",
             '"s" <http://ex/p> <http://ex/o> .\n', "never reached"]
    triples, error = _assert_agree(lines)
    assert len(triples) == 1
    assert error[1] == 4 and error[0].startswith("line 4: literal is not allowed")


def test_equal_tokens_share_one_term_object_within_a_parse():
    document = [
        '<http://ex/s> <http://ex/p> "v" .',
        '<http://ex/s> <http://ex/p> <http://ex/s> .',
        '<http://ex/t> <http://ex/p> "v" .',
    ]
    first, second, third = parse_ntriples(document)
    assert first.subject is second.subject is second.object
    assert first.predicate is third.predicate
    assert first.object is third.object
    # ...and only within it: the memo dies with the parse.
    (again,) = parse_ntriples(document[:1])
    assert again == first and again.subject is not first.subject


# -- generated statements, then damaged ones -------------------------------------

_gap = st.sampled_from(["", " ", "\t", "  ", " \t "])
_iri = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x2FF, blacklist_characters='<>"{}|^`\\'),
    max_size=8,
).map(lambda body: f"<http://ex/{body}>")
_bnode = st.from_regex(r"_:[A-Za-z0-9][A-Za-z0-9_.-]{0,6}", fullmatch=True)
_escape = st.sampled_from(['\\"', "\\\\", "\\n", "\\r", "\\t", "\\'", "\\b", "\\f", "\\u00e9", "\\U0001F600"])
_lexical = st.lists(
    _escape | st.text(alphabet=st.characters(blacklist_characters='"\\\n\r', max_codepoint=0x2FFF), max_size=4),
    max_size=4,
).map("".join)
_suffix = st.sampled_from(
    ["", "@en", "@en-GB", "@de-DE-1996", f"^^<{XSD}string>", f"^^<{XSD}integer>", "^^<>"]
)
_literal = st.tuples(_lexical, _suffix).map(lambda parts: f'"{parts[0]}"{parts[1]}')
_ending = st.sampled_from(["", " ", "\n", "\r\n", " # note", "# . <x> .", "\t#\t"])


@st.composite
def _statements(draw):
    subject = draw(_iri | _bnode)
    obj = draw(_iri | _bnode | _literal)
    return "".join([
        draw(_gap), subject, draw(_gap), draw(_iri), draw(_gap), obj,
        draw(_gap), ".", draw(_gap), draw(_ending),
    ])


@st.composite
def _damaged(draw):
    """A statement with a slice cut out, a character dropped in, or a tail
    cut off — most of these no longer parse."""
    line = draw(_statements())
    start = draw(st.integers(0, len(line)))
    kind = draw(st.sampled_from(["truncate", "delete", "insert"]))
    if kind == "truncate":
        return line[:start]
    if kind == "delete":
        return line[:start] + line[start + draw(st.integers(1, 4)):]
    return line[:start] + draw(st.sampled_from(list('<>"\\._:@^# \t.'))) + line[start:]


@given(st.lists(_statements(), max_size=6))
@settings(max_examples=150, deadline=None)
def test_generated_statements_agree(lines):
    triples, error = _assert_agree(lines)
    # A blank-node object may end in '.', which eats the statement's dot;
    # anything else here is valid.
    if error is None:
        assert len(triples) == len(lines)


@given(st.lists(_statements() | _damaged() | st.sampled_from(NAMED_LINES), max_size=6))
@settings(max_examples=400, deadline=None)
def test_damaged_statements_agree(lines):
    _assert_agree(lines)

"""Property: finalizing encoded result columns equals sorting, slicing and
decoding their decoded rows.

:func:`finalize_solutions` works on encoded columns and decodes only what
it keeps; :func:`apply_solution_modifiers` is the plain definition over
decoded rows. Columns are drawn from a tiny cell pool, so rows repeat
heavily, and the pool holds distinct cells that decode to equal terms (a
COUNT int and the interned ``"5"^^xsd:integer``, a lexical cell and its
interned IRI). Queries with and without ORDER BY, OFFSET and LIMIT, that
project every pattern variable or drop one, or whose WHERE is a UNION,
reach both finalize paths.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import decode_term, encode_term
from repro.core.results import apply_solution_modifiers, finalize_solutions
from repro.engine import ColumnarData
from repro.rdf import IRI, Literal
from repro.rdf.terms import XSD_INTEGER, BlankNode
from repro.sparql.algebra import OrderCondition, SelectQuery, TriplePattern, Variable
from repro.vector import ColumnBatch

EX = "http://ex/"
PREDICATE = IRI(EX + "p")
DROPPED = Variable("dropped")


def cell_pool() -> tuple:
    """Result cells, interned when drawn rather than at import, so that
    collecting this module moves no other test's term IDs."""
    return (
        None,
        encode_term(IRI(EX + "a")),
        encode_term(IRI(EX + "b")),
        encode_term(BlankNode("b0")),
        encode_term(Literal("x")),
        encode_term(Literal("5", datatype=XSD_INTEGER)),
        5,  # a COUNT value: decodes to the same term as the interned "5"
        3,
        f"<{EX}a>",  # a lexical cell: decodes to the same term as the IRI above
    )


@st.composite
def finalize_cases(draw):
    width = draw(st.integers(0, 3))
    variables = tuple(Variable(f"v{i}") for i in range(width))
    length = draw(st.integers(0, 30))
    pool = cell_pool()
    cells = st.sampled_from(pool[: draw(st.integers(1, len(pool)))])
    columns = tuple(
        draw(st.lists(cells, min_size=length, max_size=length)) for _ in variables
    )

    shape = draw(st.sampled_from(("all", "dropped", "union"))) if width else "all"
    slots = list(variables) + ([DROPPED] if shape == "dropped" else [])
    patterns = tuple(TriplePattern(slot, PREDICATE, IRI(EX + "o")) for slot in slots)
    if not patterns:  # SELECT * over a ground pattern: width 0
        patterns = (TriplePattern(IRI(EX + "s"), PREDICATE, IRI(EX + "o")),)
    order_by = ()
    if width and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=2))
        order_by = tuple(OrderCondition(key, draw(st.booleans())) for key in keys)
    query = SelectQuery(
        variables=variables,
        patterns=() if shape == "union" else patterns,
        union_branches=(patterns, patterns[:1]) if shape == "union" else (),
        order_by=order_by,
        offset=draw(st.one_of(st.none(), st.integers(0, length + 2))),
        limit=draw(st.one_of(st.none(), st.integers(0, length + 2))),
    )
    return query, columns, length


@settings(max_examples=300, deadline=None)
@given(finalize_cases())
def test_finalize_equals_modifiers_over_decoded_rows(case):
    query, columns, length = case
    data = ColumnarData(None, ColumnBatch(columns, length), (0, length))
    decoded = [
        tuple(decode_term(column[i]) for column in columns) for i in range(length)
    ]
    assert finalize_solutions(query, data) == apply_solution_modifiers(query, decoded)

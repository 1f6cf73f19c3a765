"""SparqlCondition bridge tests: algebra filters over encoded cells."""

from repro.columnar import ColumnSchema, TableSchema
from repro.core import SparqlCondition, encode_term
from repro.rdf.terms import IRI, Literal
from repro.sparql.algebra import And, Comparison, Or, Regex, Variable

SCHEMA = TableSchema([ColumnSchema("x", "string"), ColumnSchema("y", "string")])


def cell(term) -> str:
    return encode_term(term)


def holds(condition, row) -> bool:
    """Evaluate through the selection-vector kernel over a one-row batch."""
    columns = tuple([value] for value in row)
    return condition.bind_vector(SCHEMA)(columns, range(1)) == [0]


def integer(value: int) -> Literal:
    return Literal(str(value), datatype="http://www.w3.org/2001/XMLSchema#integer")


class TestSparqlCondition:
    def test_numeric_comparison_on_encoded_cells(self):
        condition = SparqlCondition(Comparison(">", Variable("x"), integer(5)))
        assert holds(condition, (cell(integer(7)), None))
        assert not holds(condition, (cell(integer(3)), None))

    def test_variable_to_variable_comparison(self):
        condition = SparqlCondition(Comparison("=", Variable("x"), Variable("y")))
        assert holds(condition, (cell(integer(5)), cell(integer(5))))
        assert not holds(condition, (cell(integer(5)), cell(integer(6))))

    def test_null_cell_fails_comparison(self):
        condition = SparqlCondition(Comparison("=", Variable("x"), integer(5)))
        assert not holds(condition, (None, None))

    def test_regex_on_literal(self):
        condition = SparqlCondition(Regex(Variable("x"), "^al"))
        assert holds(condition, (cell(Literal("alice")), None))
        assert not holds(condition, (cell(Literal("bob")), None))
        assert not holds(condition, (cell(IRI("http://alpha")), None))  # IRIs don't regex-match

    def test_boolean_combinations(self):
        condition = SparqlCondition(
            Or(
                (
                    And((Comparison(">", Variable("x"), integer(1)),
                         Comparison("<", Variable("x"), integer(5)))),
                    Comparison("=", Variable("x"), integer(99)),
                )
            )
        )
        assert holds(condition, (cell(integer(3)), None))
        assert holds(condition, (cell(integer(99)), None))
        assert not holds(condition, (cell(integer(7)), None))

    def test_references_are_variable_names(self):
        condition = SparqlCondition(Comparison("=", Variable("x"), Variable("y")))
        assert condition.references() == {"x", "y"}

    def test_describe_is_readable(self):
        condition = SparqlCondition(Comparison(">", Variable("x"), integer(5)))
        assert "?x" in condition.describe()
        assert ">" in condition.describe()

"""Parser tests: grammar coverage, prefixes, filters, modifiers, errors."""

import pytest

from repro.errors import SparqlSyntaxError, UnsupportedSparqlError
from repro.rdf.terms import IRI, Literal, RDF_TYPE
from repro.sparql import Variable, parse_sparql
from repro.sparql.algebra import And, Comparison, Or, Regex


class TestBasicQueries:
    def test_single_pattern(self):
        query = parse_sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o }")
        assert query.variables == (Variable("s"),)
        assert len(query.patterns) == 1
        assert query.patterns[0].predicate == IRI("http://ex/p")

    def test_select_star(self):
        query = parse_sparql("SELECT * WHERE { ?s <http://ex/p> ?o }")
        assert query.is_select_star
        assert query.projection == (Variable("s"), Variable("o"))

    def test_multiple_patterns_dot_separated(self):
        query = parse_sparql(
            "SELECT ?s WHERE { ?s <http://ex/p> ?o . ?o <http://ex/q> ?z . }"
        )
        assert len(query.patterns) == 2

    def test_semicolon_property_list(self):
        query = parse_sparql(
            "SELECT ?s WHERE { ?s <http://ex/p> ?o ; <http://ex/q> ?z }"
        )
        assert len(query.patterns) == 2
        assert query.patterns[0].subject == query.patterns[1].subject

    def test_comma_object_list(self):
        query = parse_sparql(
            "SELECT ?s WHERE { ?s <http://ex/p> <http://ex/a>, <http://ex/b> }"
        )
        assert len(query.patterns) == 2

    def test_a_expands_to_rdf_type(self):
        query = parse_sparql("SELECT ?s WHERE { ?s a <http://ex/C> }")
        assert query.patterns[0].predicate == IRI(RDF_TYPE)

    def test_literal_objects(self):
        query = parse_sparql(
            'SELECT ?s WHERE { ?s <http://ex/p> "x"@en . ?s <http://ex/q> 5 }'
        )
        assert query.patterns[0].object == Literal("x", language="en")
        assert query.patterns[1].object.to_python() == 5

    def test_typed_literal(self):
        query = parse_sparql(
            'SELECT ?s WHERE { ?s <http://ex/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> }'
        )
        assert query.patterns[0].object.datatype.endswith("integer")


class TestPrefixes:
    def test_declared_prefix(self):
        query = parse_sparql(
            "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:p ?o }"
        )
        assert query.patterns[0].predicate == IRI("http://example.org/p")

    def test_default_wsdbm_prefix(self):
        query = parse_sparql("SELECT ?s WHERE { ?s wsdbm:likes ?o }")
        assert "uwaterloo" in query.patterns[0].predicate.value

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?s WHERE { ?s nosuch:p ?o }")

    def test_prefixed_name_in_datatype(self):
        query = parse_sparql(
            'SELECT ?s WHERE { ?s wsdbm:p "5"^^xsd:integer }'
        )
        assert query.patterns[0].object.datatype.endswith("integer")


class TestFilters:
    def test_comparison_filter(self):
        query = parse_sparql(
            "SELECT ?s WHERE { ?s <http://ex/p> ?o . FILTER(?o > 5) }"
        )
        assert isinstance(query.filters[0], Comparison)
        assert query.filters[0].op == ">"

    def test_regex_filter(self):
        query = parse_sparql(
            'SELECT ?s WHERE { ?s <http://ex/p> ?o . FILTER regex(?o, "abc") }'
        )
        assert isinstance(query.filters[0], Regex)

    def test_regex_with_flags(self):
        query = parse_sparql(
            'SELECT ?s WHERE { ?s <http://ex/p> ?o . FILTER regex(?o, "abc", "i") }'
        )
        assert isinstance(query.filters[0], Regex)

    def test_boolean_combinations(self):
        query = parse_sparql(
            "SELECT ?s WHERE { ?s <http://ex/p> ?o . FILTER(?o > 1 && ?o < 9 || ?o = 0) }"
        )
        assert isinstance(query.filters[0], Or)
        assert isinstance(query.filters[0].operands[0], And)

    def test_parenthesized_filter(self):
        query = parse_sparql(
            "SELECT ?s WHERE { ?s <http://ex/p> ?o . FILTER((?o > 1)) }"
        )
        assert isinstance(query.filters[0], Comparison)

    def test_filter_variable_must_occur(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o . FILTER(?zzz > 5) }")


class TestModifiers:
    def test_distinct(self):
        assert parse_sparql("SELECT DISTINCT ?s WHERE { ?s <http://ex/p> ?o }").distinct

    def test_limit_offset(self):
        query = parse_sparql(
            "SELECT ?s WHERE { ?s <http://ex/p> ?o } LIMIT 10 OFFSET 5"
        )
        assert query.limit == 10
        assert query.offset == 5

    def test_order_by_plain_and_desc(self):
        query = parse_sparql(
            "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } ORDER BY ?s DESC(?o)"
        )
        assert query.order_by[0].variable == Variable("s")
        assert not query.order_by[0].descending
        assert query.order_by[1].descending

    def test_order_by_unknown_variable_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o } ORDER BY ?zzz")

    def test_order_by_non_projected_variable_unsupported(self):
        with pytest.raises(UnsupportedSparqlError, match="non-projected"):
            parse_sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o } ORDER BY ?o")
        # SELECT * projects every pattern variable, aggregates their alias.
        parse_sparql("SELECT * WHERE { ?s <http://ex/p> ?o } ORDER BY ?o")
        parse_sparql(
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <http://ex/p> ?o } "
            "GROUP BY ?s ORDER BY DESC(?n)"
        )


class TestErrors:
    def test_empty_bgp_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?s WHERE { }")

    def test_projection_not_in_pattern_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?zzz WHERE { ?s <http://ex/p> ?o }")

    def test_filter_inside_union_branch_unsupported(self):
        with pytest.raises(UnsupportedSparqlError):
            parse_sparql(
                "SELECT ?s WHERE { { ?s <http://ex/p> ?o . FILTER(?o > 1) } "
                "UNION { ?s <http://ex/q> ?o } }"
            )

    def test_nested_optional_unsupported(self):
        with pytest.raises(UnsupportedSparqlError):
            parse_sparql(
                "SELECT ?s WHERE { ?s <http://ex/p> ?o . "
                "OPTIONAL { ?s <http://ex/q> ?z . OPTIONAL { ?z <http://ex/r> ?w } } }"
            )

    def test_single_braced_group_unsupported(self):
        with pytest.raises(UnsupportedSparqlError):
            parse_sparql("SELECT ?s WHERE { { ?s <http://ex/p> ?o } }")

    def test_literal_predicate_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql('SELECT ?s WHERE { ?s "p" ?o }')

    def test_missing_where_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?s { ?s <http://ex/p> ?o }")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o } garbage more")


class TestAlgebraHelpers:
    def test_pattern_variables(self):
        query = parse_sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o }")
        assert query.pattern_variables == {Variable("s"), Variable("o")}

    def test_has_literal_object(self):
        query = parse_sparql('SELECT ?s WHERE { ?s <http://ex/p> "x" }')
        assert query.patterns[0].has_literal_object
        assert query.patterns[0].has_constant_object

    def test_iri_object_is_constant_not_literal(self):
        query = parse_sparql("SELECT ?s WHERE { ?s <http://ex/p> <http://ex/o> }")
        assert not query.patterns[0].has_literal_object
        assert query.patterns[0].has_constant_object

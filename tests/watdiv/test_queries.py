"""WatDiv basic-query-set tests: structure, instantiation, parseability."""

from collections import Counter

import pytest

from repro.sparql import parse_sparql
from repro.sparql.algebra import Variable
from repro.watdiv import (
    QUERY_GROUPS,
    QUERY_NAMES,
    TEMPLATES,
    basic_query_set,
    generate_watdiv,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_watdiv(scale=40, seed=9)


@pytest.fixture(scope="module")
def queries(dataset):
    return basic_query_set(dataset)


class TestQuerySetStructure:
    def test_twenty_queries(self, queries):
        assert len(queries) == 20
        assert [q.name for q in queries] == list(QUERY_NAMES)

    def test_group_sizes_match_paper(self, queries):
        sizes = Counter(query.group for query in queries)
        assert sizes == {"C": 3, "F": 5, "L": 5, "S": 7}
        assert set(sizes) == set(QUERY_GROUPS)

    def test_all_templates_have_placeholder_or_variables(self):
        for template in TEMPLATES:
            assert "SELECT" in template.template


class TestInstantiation:
    def test_no_placeholders_remain(self, queries):
        for query in queries:
            assert "%" not in query.text, query.name

    def test_all_queries_parse(self, queries):
        for query in queries:
            parsed = parse_sparql(query.text)
            assert parsed.patterns, query.name

    def test_shapes_match_groups(self, queries):
        """Star queries share one subject variable; linear queries don't."""
        parsed = {q.name: parse_sparql(q.text) for q in queries}
        # S2..S7 each have a single subject variable across all patterns.
        for name in ("S2", "S3", "S5", "S6"):
            subjects = {p.subject for p in parsed[name].patterns}
            variables = {s for s in subjects if isinstance(s, Variable)}
            assert len(variables) == 1, name
        # L queries are chains: at least two distinct subject variables or a
        # constant subject.
        for name in ("L1", "L2", "L5"):
            subjects = {str(p.subject) for p in parsed[name].patterns}
            assert len(subjects) >= 2, name
        # C queries touch many variables.
        for name in ("C1", "C2"):
            assert len(parsed[name].pattern_variables) >= 7, name

    def test_pattern_counts_in_paper_range(self, queries):
        counts = {q.name: len(parse_sparql(q.text).patterns) for q in queries}
        assert counts["C2"] == 10
        assert counts["S1"] == 9
        assert counts["L4"] == 2
        assert all(2 <= c <= 10 for c in counts.values())

    def test_salt_changes_placeholders(self, dataset):
        template = [t for t in TEMPLATES if t.name == "L4"][0]
        a = template.instantiate(dataset, salt=0)
        b = template.instantiate(dataset, salt=1)
        assert a != b

    def test_instantiation_deterministic(self, dataset):
        template = TEMPLATES[0]
        assert template.instantiate(dataset, 1) == template.instantiate(dataset, 1)


class TestResultsExist:
    def test_most_queries_nonempty_at_moderate_scale(self):
        """At scale 300 the placeholder choices give most queries results
        (matching WatDiv's instantiation from actual data)."""
        from repro.rdf.reference import ReferenceEvaluator

        dataset = generate_watdiv(scale=300, seed=7)
        evaluator = ReferenceEvaluator(dataset.graph)
        nonempty = 0
        for query in basic_query_set(dataset):
            if evaluator.count(parse_sparql(query.text)) > 0:
                nonempty += 1
        assert nonempty >= 12

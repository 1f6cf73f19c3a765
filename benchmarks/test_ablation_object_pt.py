"""Ablation — the future-work object-keyed Property Table (paper §5).

"A promising step might be to add another Property Table where, instead of
the subjects, the rows would be created around objects. This could be
beneficial for triple patterns that share the same object." We build it and
measure exactly that workload: object-star queries (patterns sharing an
object variable), comparing join counts and simulated time with and without.
"""

from repro.sparql.parser import parse_sparql
from repro.watdiv.schema import MO, REV, SORG, WSDBM

#: Object-star queries over the WatDiv schema: patterns share ?u (a user).
OBJECT_STAR_QUERIES = [
    # Products whose artist is also some review's reviewer.
    f"SELECT ?p ?r WHERE {{ ?p <{MO}artist> ?u . ?r <{REV}reviewer> ?u }}",
    # Users who are simultaneously artist, actor, and reviewer targets.
    f"SELECT ?u WHERE {{ ?a <{MO}artist> ?u . ?b <{SORG}actor> ?u . "
    f"?c <{REV}reviewer> ?u }}",
    # Popular users: followed and friended.
    f"SELECT ?u WHERE {{ ?x <{WSDBM}follows> ?u . ?y <{WSDBM}friendOf> ?u }}",
]


def test_ablation_object_property_table(suite, save_artifact):
    baseline = suite.make_prost()
    baseline.load(suite.dataset.graph)
    with_object_pt = suite.make_prost(use_object_property_table=True)
    with_object_pt.load(suite.dataset.graph)

    def run_both():
        results = []
        for engine in (baseline, with_object_pt):
            simulated = 0.0
            joins = 0
            for text in OBJECT_STAR_QUERIES:
                parsed = parse_sparql(text)
                tree = engine.translate(parsed)
                joins += tree.num_joins
                simulated += engine.sparql(parsed).report.simulated_sec
            results.append((simulated, joins))
        return results

    (base_sec, base_joins), (opt_sec, opt_joins) = run_both()
    save_artifact(
        "ablation_object_pt",
        "Ablation: object-keyed Property Table (object-star query totals)\n"
        f"{'configuration':<22}{'simulated':>12}{'joins':>8}\n"
        f"{'subject PT only':<22}{base_sec * 1000:>10,.0f}ms{base_joins:>8}\n"
        f"{'with object PT':<22}{opt_sec * 1000:>10,.0f}ms{opt_joins:>8}",
    )

    # The object PT merges same-object patterns: strictly fewer joins.
    assert opt_joins < base_joins
    # Both configurations agree on results.
    for text in OBJECT_STAR_QUERIES:
        parsed = parse_sparql(text)
        assert baseline.sparql(parsed).rows == with_object_pt.sparql(parsed).rows

"""Call-count guard on the load path: per-term work once per distinct term,
per-cell work once per distinct cell of a chunk.

Counts, not seconds: they repeat exactly under any ``PYTHONHASHSEED`` and on
any machine, so the halved ``load_s`` cannot rot back one convenience call
at a time without this failing.
"""

import sys
from collections import Counter

from repro.columnar import encoding
from repro.core import ProstEngine
from repro.rdf import Graph
from repro.rdf import terms as terms_module
from repro.rdf.ntriples import write_ntriples_file
from repro.rdf.terms import IRI, BlankNode, Literal
from repro.watdiv.generator import generate_watdiv

from ..columnar.reference_decoders import read_table


def _count_calls(watched: dict, body) -> Counter:
    """Run ``body``; how often each watched code object was entered."""
    counts: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            name = watched.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(profiler)
    try:
        body()
    finally:
        sys.setprofile(None)
    return counts


def test_parse_and_load_do_per_term_work_once(tmp_path):
    source = generate_watdiv(scale=60).graph
    path = tmp_path / "data.nt"
    write_ntriples_file(source, path)
    terms = {term for triple in source for term in triple}
    literals = {term for term in terms if isinstance(term, Literal)}
    # The file holds each term's n3(), so distinct tokens = distinct texts.
    tokens = {term.n3() for term in terms}

    watched = {
        Literal.n3.__code__: "Literal.n3",
        terms_module.term_sort_key.__code__: "term_sort_key",
        encoding.value_bytes.__code__: "value_bytes",
        **{cls.__init__.__code__: "Term()" for cls in (IRI, BlankNode, Literal)},
    }
    engine = ProstEngine()

    def parse_and_load():
        engine.load(Graph.from_file(path))

    counts = _count_calls(watched, parse_and_load)

    distinct_cells = 0
    hdfs = engine.session.hdfs
    for file_path in hdfs.list_files("/prost/"):
        if file_path.endswith(".json"):
            continue
        schema, rows = read_table(hdfs, file_path)
        for index in range(len(schema)):
            distinct_cells += len(
                {tuple(row[index]) if isinstance(row[index], list) else row[index]
                 for row in rows}
            )

    assert len(literals) > 100 and len(terms) > 500  # the guard has something to see
    assert 0 < counts["Literal.n3"] <= len(literals)
    assert 0 < counts["term_sort_key"] <= len(terms)
    assert 0 < counts["Term()"] <= len(tokens)
    assert 0 < counts["value_bytes"] <= distinct_cells

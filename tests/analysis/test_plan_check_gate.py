"""The pre-execution gate: a corrupted plan is rejected before it runs,
whoever else is verifying at the same time."""

from __future__ import annotations

import pytest

from repro.core.prost import ProstEngine
from repro.errors import PlanVerificationError, ReproError

QUERY = (
    "SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n }"
)
OTHER_QUERY = (
    "SELECT ?x ?a WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/age> ?a }"
)


@pytest.fixture()
def tampering_engine(social_graph):
    """An engine whose translator stamps one stale priority per tree."""
    engine = ProstEngine(num_workers=3, strategy="mixed")
    engine.load(social_graph)
    translator = engine._translator
    original = translator.translate_bgp

    def tampered(patterns):
        tree = original(patterns)
        tree.nodes[-1].priority += 7777.0
        return tree

    translator.translate_bgp = tampered
    return engine


def test_gate_rejects_tampered_plan(tampering_engine):
    with pytest.raises(PlanVerificationError) as excinfo:
        tampering_engine.sparql(QUERY)
    error = excinfo.value
    assert any(d.code == "PV105" for d in error.diagnostics)
    assert "PV105" in str(error)
    assert "!!" in str(error)  # EXPLAIN-style rendering, findings marked


def test_gate_error_is_a_repro_error(tampering_engine):
    with pytest.raises(ReproError):
        tampering_engine.sparql(QUERY)


def test_verify_leaves_other_callers_gated(tampering_engine):
    """``verify`` collects diagnostics without switching the gate off: a
    tampered query another caller runs while ``verify`` is planning is
    still rejected, and no unverified plan lands in the plan cache."""
    engine = tampering_engine
    translator = engine._translator
    tampered = translator.translate_bgp
    nested = []

    def planning(patterns):
        if not nested:
            nested.append(OTHER_QUERY)
            try:
                engine.sparql(OTHER_QUERY)
            except PlanVerificationError:
                nested.append("rejected")
            else:
                nested.append("ran unverified")
        return tampered(patterns)

    translator.translate_bgp = planning
    diagnostics = engine.verify(QUERY)
    assert any(d.code == "PV105" for d in diagnostics)
    assert nested == [OTHER_QUERY, "rejected"]
    with pytest.raises(PlanVerificationError):
        engine.sparql(OTHER_QUERY)  # same text: nothing unverified was cached


def test_clean_queries_pass_the_gate(prost_mixed):
    result = prost_mixed.sparql(QUERY)
    assert len(result) > 0

"""The WatDiv basic-testing query set (paper §4.1).

Twenty query templates in four shape classes — Complex (C1-C3), Snowflake
(F1-F5), Linear (L1-L5), and Star (S1-S7) — structurally faithful to the
published WatDiv basic testing templates. ``%kind%`` placeholders are
instantiated deterministically from a generated dataset, as WatDiv's query
generator instantiates its ``%x%`` parameters from the data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .generator import WatDivDataset

_PREAMBLE = """\
PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
PREFIX sorg: <http://schema.org/>
PREFIX rev: <http://purl.org/stuff/rev#>
PREFIX gr: <http://purl.org/goodrelations/>
PREFIX gn: <http://www.geonames.org/ontology#>
PREFIX og: <http://ogp.me/ns#>
PREFIX mo: <http://purl.org/ontology/mo/>
PREFIX foaf: <http://xmlns.com/foaf/>
PREFIX dc: <http://purl.org/dc/terms/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
"""


@dataclass(frozen=True)
class QueryTemplate:
    """One template: name, shape class, and parameterized SPARQL text."""

    name: str
    group: str
    template: str

    def instantiate(self, dataset: WatDivDataset, salt: int = 0) -> str:
        """Fill ``%kind%`` placeholders with IRIs from the dataset."""
        counter = [salt]

        def substitute(match: re.Match) -> str:
            kind = match.group(1)
            value = dataset.placeholder(kind, counter[0])
            counter[0] += 1
            return value.n3()

        body = re.sub(r"%([a-z_]+)%", substitute, self.template)
        return _PREAMBLE + body


TEMPLATES: tuple[QueryTemplate, ...] = (
    # -- Complex -----------------------------------------------------------------
    QueryTemplate(
        "C1",
        "C",
        """SELECT ?v0 ?v4 ?v6 ?v7 WHERE {
  ?v0 sorg:caption ?v1 .
  ?v0 sorg:text ?v2 .
  ?v0 sorg:contentRating ?v3 .
  ?v0 rev:hasReview ?v4 .
  ?v4 rev:title ?v5 .
  ?v4 rev:reviewer ?v6 .
  ?v7 sorg:actor ?v6 .
  ?v7 sorg:language ?v8 .
}""",
    ),
    QueryTemplate(
        "C2",
        "C",
        """SELECT ?v0 ?v3 ?v4 ?v8 WHERE {
  ?v0 sorg:legalName ?v1 .
  ?v0 gr:offers ?v2 .
  ?v2 sorg:eligibleRegion %country% .
  ?v2 gr:includes ?v3 .
  ?v4 sorg:jobTitle ?v5 .
  ?v4 foaf:homepage ?v6 .
  ?v4 wsdbm:makesPurchase ?v7 .
  ?v7 wsdbm:purchaseFor ?v3 .
  ?v3 rev:hasReview ?v8 .
  ?v8 rev:totalVotes ?v9 .
}""",
    ),
    QueryTemplate(
        "C3",
        "C",
        """SELECT ?v0 WHERE {
  ?v0 wsdbm:likes ?v1 .
  ?v0 wsdbm:friendOf ?v2 .
  ?v0 dc:Location ?v3 .
  ?v0 foaf:age ?v4 .
  ?v0 wsdbm:gender ?v5 .
  ?v0 foaf:givenName ?v6 .
}""",
    ),
    # -- Snowflake ------------------------------------------------------------------
    QueryTemplate(
        "F1",
        "F",
        """SELECT ?v0 ?v2 ?v3 ?v4 ?v5 WHERE {
  ?v0 og:tag %topic% .
  ?v0 rdf:type ?v2 .
  ?v3 sorg:trailer ?v4 .
  ?v3 sorg:keywords ?v5 .
  ?v3 wsdbm:hasGenre ?v0 .
  ?v3 rdf:type %product_category% .
}""",
    ),
    QueryTemplate(
        "F2",
        "F",
        """SELECT ?v0 ?v1 ?v2 ?v4 ?v5 ?v6 ?v7 WHERE {
  ?v0 foaf:homepage ?v1 .
  ?v0 og:title ?v2 .
  ?v0 rdf:type ?v3 .
  ?v0 sorg:caption ?v4 .
  ?v0 sorg:description ?v5 .
  ?v1 sorg:url ?v6 .
  ?v1 wsdbm:hits ?v7 .
  ?v0 wsdbm:hasGenre %sub_genre% .
}""",
    ),
    QueryTemplate(
        "F3",
        "F",
        """SELECT ?v0 ?v1 ?v2 ?v4 ?v5 ?v6 WHERE {
  ?v0 sorg:contentRating ?v1 .
  ?v0 sorg:contentSize ?v2 .
  ?v0 wsdbm:hasGenre %sub_genre% .
  ?v4 wsdbm:makesPurchase ?v5 .
  ?v5 wsdbm:purchaseDate ?v6 .
  ?v5 wsdbm:purchaseFor ?v0 .
}""",
    ),
    QueryTemplate(
        "F4",
        "F",
        """SELECT ?v0 ?v1 ?v2 ?v3 ?v4 ?v5 ?v7 ?v8 WHERE {
  ?v0 foaf:homepage ?v1 .
  ?v2 gr:includes ?v0 .
  ?v0 og:tag %topic% .
  ?v0 sorg:description ?v3 .
  ?v0 sorg:contentSize ?v8 .
  ?v1 sorg:url ?v4 .
  ?v1 wsdbm:hits ?v5 .
  ?v1 sorg:language %language% .
  ?v7 wsdbm:likes ?v0 .
}""",
    ),
    QueryTemplate(
        "F5",
        "F",
        """SELECT ?v0 ?v1 ?v3 ?v4 ?v5 ?v6 WHERE {
  ?v0 gr:includes ?v1 .
  %retailer% gr:offers ?v0 .
  ?v0 gr:price ?v3 .
  ?v0 gr:validThrough ?v4 .
  ?v1 og:title ?v5 .
  ?v1 rdf:type ?v6 .
}""",
    ),
    # -- Linear ----------------------------------------------------------------------
    QueryTemplate(
        "L1",
        "L",
        """SELECT ?v0 ?v2 ?v3 WHERE {
  ?v0 wsdbm:subscribes %website% .
  ?v2 sorg:caption ?v3 .
  ?v0 wsdbm:likes ?v2 .
}""",
    ),
    QueryTemplate(
        "L2",
        "L",
        """SELECT ?v1 ?v2 WHERE {
  %city% gn:parentCountry ?v1 .
  ?v2 wsdbm:likes %product% .
  ?v2 sorg:nationality ?v1 .
}""",
    ),
    QueryTemplate(
        "L3",
        "L",
        """SELECT ?v0 ?v1 WHERE {
  ?v0 wsdbm:likes ?v1 .
  ?v0 wsdbm:subscribes %website% .
}""",
    ),
    QueryTemplate(
        "L4",
        "L",
        """SELECT ?v0 ?v2 WHERE {
  ?v0 og:tag %topic% .
  ?v0 sorg:caption ?v2 .
}""",
    ),
    QueryTemplate(
        "L5",
        "L",
        """SELECT ?v0 ?v1 ?v3 WHERE {
  ?v0 sorg:jobTitle ?v1 .
  %city% gn:parentCountry ?v3 .
  ?v0 sorg:nationality ?v3 .
}""",
    ),
    # -- Star ----------------------------------------------------------------------------
    QueryTemplate(
        "S1",
        "S",
        """SELECT ?v0 ?v1 ?v3 ?v4 ?v5 ?v6 ?v7 ?v8 ?v9 WHERE {
  ?v0 gr:includes ?v1 .
  %retailer% gr:offers ?v0 .
  ?v0 gr:price ?v3 .
  ?v0 gr:serialNumber ?v4 .
  ?v0 gr:validFrom ?v5 .
  ?v0 gr:validThrough ?v6 .
  ?v0 sorg:eligibleQuantity ?v7 .
  ?v0 sorg:eligibleRegion ?v8 .
  ?v0 sorg:priceValidUntil ?v9 .
}""",
    ),
    QueryTemplate(
        "S2",
        "S",
        """SELECT ?v0 ?v1 ?v3 WHERE {
  ?v0 dc:Location ?v1 .
  ?v0 sorg:nationality %country% .
  ?v0 wsdbm:gender ?v3 .
  ?v0 rdf:type %role% .
}""",
    ),
    QueryTemplate(
        "S3",
        "S",
        """SELECT ?v0 ?v2 ?v3 ?v4 WHERE {
  ?v0 rdf:type %product_category% .
  ?v0 sorg:caption ?v2 .
  ?v0 wsdbm:hasGenre ?v3 .
  ?v0 sorg:publisher ?v4 .
}""",
    ),
    QueryTemplate(
        "S4",
        "S",
        """SELECT ?v0 ?v2 ?v3 WHERE {
  ?v0 foaf:age %age_group% .
  ?v0 foaf:familyName ?v2 .
  ?v3 mo:artist ?v0 .
  ?v0 sorg:nationality %country% .
}""",
    ),
    QueryTemplate(
        "S5",
        "S",
        """SELECT ?v0 ?v2 ?v3 WHERE {
  ?v0 rdf:type %product_category% .
  ?v0 sorg:description ?v2 .
  ?v0 sorg:keywords ?v3 .
  ?v0 sorg:language %language% .
}""",
    ),
    QueryTemplate(
        "S6",
        "S",
        """SELECT ?v0 ?v1 ?v2 WHERE {
  ?v0 mo:conductor ?v1 .
  ?v0 rdf:type ?v2 .
  ?v0 wsdbm:hasGenre %sub_genre% .
}""",
    ),
    QueryTemplate(
        "S7",
        "S",
        """SELECT ?v0 ?v1 ?v2 WHERE {
  ?v0 rdf:type ?v1 .
  ?v0 sorg:text ?v2 .
  %user% wsdbm:likes ?v0 .
}""",
    ),
)

#: Query names in benchmark display order.
QUERY_NAMES: tuple[str, ...] = tuple(template.name for template in TEMPLATES)

#: Shape classes in paper order.
QUERY_GROUPS: tuple[str, ...] = ("C", "F", "L", "S")


@dataclass(frozen=True)
class BenchmarkQuery:
    """One instantiated benchmark query."""

    name: str
    group: str
    text: str


def basic_query_set(dataset: WatDivDataset) -> list[BenchmarkQuery]:
    """Instantiate all twenty templates against a dataset.

    The salt is derived from the template name so each query picks its own
    (deterministic) placeholder entities.
    """
    queries = []
    for index, template in enumerate(TEMPLATES):
        queries.append(
            BenchmarkQuery(
                name=template.name,
                group=template.group,
                text=template.instantiate(dataset, salt=index),
            )
        )
    return queries

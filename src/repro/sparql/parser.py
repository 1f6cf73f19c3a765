"""Recursive-descent parser for the supported SPARQL fragment.

Grammar (informally)::

    Query      := Prologue SELECT [DISTINCT] (Var+ | '*') WHERE GroupGraph
                  Modifiers
    Prologue   := (PREFIX pname: <iri>)*
    GroupGraph := '{' (TriplesBlock | Filter)* '}'
    TriplesBlock := Term PropertyList ('.' TriplesBlock?)?
    PropertyList := Verb ObjectList (';' Verb ObjectList)*
    ObjectList := Term (',' Term)*
    Filter     := FILTER '(' OrExpr ')' | FILTER regex(...)
    Modifiers  := (GROUP BY Var+)? (ORDER BY (Var | ASC(Var) | DESC(Var))+)?
                  (LIMIT n)? (OFFSET n)?

Beyond the paper's "unique basic graph pattern" fragment (§3.2) the parser
also accepts three extensions PRoST grew later: ``OPTIONAL { BGP }`` blocks,
a WHERE clause that is a UNION of braced BGPs, and ``COUNT`` aggregates with
``GROUP BY``. The remaining constructs of full SPARQL (sub-queries, property
paths, GRAPH, other aggregates) raise :class:`UnsupportedSparqlError`.
"""

from __future__ import annotations

from ..errors import SparqlSyntaxError, UnsupportedSparqlError
from ..rdf.terms import IRI, RDF_TYPE, BlankNode, Literal
from .algebra import (
    And,
    Comparison,
    CountAggregate,
    FilterExpression,
    Or,
    OrderCondition,
    PatternTerm,
    Regex,
    SelectQuery,
    TriplePattern,
    Variable,
)
from .tokenizer import Token, tokenize

#: Prefixes available without declaration (WatDiv and RDF standard namespaces).
DEFAULT_PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "foaf": "http://xmlns.com/foaf/",
    "dc": "http://purl.org/dc/terms/",
    "wsdbm": "http://db.uwaterloo.ca/~galuc/wsdbm/",
    "rev": "http://purl.org/stuff/rev#",
    "gr": "http://purl.org/goodrelations/",
    "gn": "http://www.geonames.org/ontology#",
    "mo": "http://purl.org/ontology/mo/",
    "og": "http://ogp.me/ns#",
    "sorg": "http://schema.org/",
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.prefixes = dict(DEFAULT_PREFIXES)

    # -- token helpers -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def check(self, kind: str, value: str | None = None) -> bool:
        token = self.current
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            wanted = value if value is not None else kind
            raise SparqlSyntaxError(
                f"expected {wanted!r} but found {self.current.value!r} "
                f"at offset {self.current.position}"
            )
        return token

    # -- grammar -----------------------------------------------------------

    def parse_query(self) -> SelectQuery:
        self.parse_prologue()
        if self.check("KEYWORD") and self.current.value in ("CONSTRUCT", "DESCRIBE"):
            raise UnsupportedSparqlError(f"{self.current.value} queries are not supported")
        if self.accept("KEYWORD", "ASK"):
            return self._parse_ask()
        self.expect("KEYWORD", "SELECT")
        distinct = self.accept("KEYWORD", "DISTINCT") is not None
        self.accept("KEYWORD", "REDUCED")
        variables, aggregates = self.parse_projection()
        self.expect("KEYWORD", "WHERE")
        patterns, filters, optional_groups, union_branches = self.parse_group_graph()
        group_by = self.parse_group_by()
        order_by = self.parse_order_by()
        limit, offset = self.parse_limit_offset()
        self.expect("EOF")
        query = SelectQuery(
            variables=variables,
            patterns=patterns,
            filters=filters,
            optional_groups=optional_groups,
            union_branches=union_branches,
            aggregates=aggregates,
            group_by=group_by,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )
        self._validate(query)
        return query

    def _parse_ask(self) -> SelectQuery:
        """``ASK [WHERE] { ... }`` — existence check, no projection."""
        self.accept("KEYWORD", "WHERE")
        patterns, filters, optional_groups, union_branches = self.parse_group_graph()
        self.expect("EOF")
        query = SelectQuery(
            variables=(),
            patterns=patterns,
            filters=filters,
            optional_groups=optional_groups,
            union_branches=union_branches,
            form="ASK",
            limit=1,
        )
        self._validate(query)
        return query

    def parse_prologue(self) -> None:
        while True:
            if self.accept("KEYWORD", "PREFIX"):
                name = self.expect("PNAME").value
                if not name.endswith(":"):
                    raise SparqlSyntaxError(f"malformed prefix declaration {name!r}")
                iri = self.expect("IRIREF").value
                self.prefixes[name[:-1]] = iri
            elif self.accept("KEYWORD", "BASE"):
                self.expect("IRIREF")
            else:
                return

    def parse_projection(
        self,
    ) -> tuple[tuple[Variable, ...], tuple[CountAggregate, ...]]:
        if self.accept("PUNCT", "*"):
            return (), ()
        variables: list[Variable] = []
        aggregates: list[CountAggregate] = []
        while True:
            if self.check("VAR"):
                variables.append(Variable(self.advance().value))
            elif self.check("PUNCT", "("):
                aggregates.append(self.parse_aggregate())
            else:
                break
        if not variables and not aggregates:
            raise SparqlSyntaxError("SELECT requires at least one variable or '*'")
        return tuple(variables), tuple(aggregates)

    def parse_aggregate(self) -> CountAggregate:
        """``( COUNT( [DISTINCT] ?var | * ) AS ?alias )``."""
        self.expect("PUNCT", "(")
        self.expect("KEYWORD", "COUNT")
        self.expect("PUNCT", "(")
        distinct = self.accept("KEYWORD", "DISTINCT") is not None
        if self.accept("PUNCT", "*"):
            variable = None
        else:
            variable = Variable(self.expect("VAR").value)
        self.expect("PUNCT", ")")
        self.expect("KEYWORD", "AS")
        alias = Variable(self.expect("VAR").value)
        self.expect("PUNCT", ")")
        return CountAggregate(alias=alias, variable=variable, distinct=distinct)

    def parse_group_by(self) -> tuple[Variable, ...]:
        if not self.accept("KEYWORD", "GROUP"):
            return ()
        self.expect("KEYWORD", "BY")
        variables: list[Variable] = []
        while self.check("VAR"):
            variables.append(Variable(self.advance().value))
        if not variables:
            raise SparqlSyntaxError("GROUP BY requires at least one variable")
        return tuple(variables)

    def parse_group_graph(
        self,
    ) -> tuple[
        tuple[TriplePattern, ...],
        tuple[FilterExpression, ...],
        tuple[tuple[TriplePattern, ...], ...],
        tuple[tuple[TriplePattern, ...], ...],
    ]:
        """Parse the WHERE group: a BGP with OPTIONAL blocks, or a UNION."""
        self.expect("PUNCT", "{")
        if self.check("PUNCT", "{"):
            branches = self.parse_union_branches()
            self.expect("PUNCT", "}")
            return (), (), (), branches
        patterns: list[TriplePattern] = []
        filters: list[FilterExpression] = []
        optional_groups: list[tuple[TriplePattern, ...]] = []
        while not self.check("PUNCT", "}"):
            if self.check("KEYWORD", "UNION"):
                raise UnsupportedSparqlError(
                    "UNION must combine braced groups: { ... } UNION { ... }"
                )
            if self.accept("KEYWORD", "OPTIONAL"):
                optional_groups.append(self.parse_plain_group("OPTIONAL"))
                self.accept("PUNCT", ".")
                continue
            if self.accept("KEYWORD", "FILTER"):
                filters.append(self.parse_filter())
                self.accept("PUNCT", ".")
                continue
            patterns.extend(self.parse_triples_same_subject())
            if not self.accept("PUNCT", "."):
                break
        self.expect("PUNCT", "}")
        if not patterns:
            raise SparqlSyntaxError("empty basic graph pattern")
        return tuple(patterns), tuple(filters), tuple(optional_groups), ()

    def parse_union_branches(self) -> tuple[tuple[TriplePattern, ...], ...]:
        """Parse ``{ BGP } UNION { BGP } [UNION { BGP } ...]``."""
        branches = [self.parse_plain_group("UNION branch")]
        while self.accept("KEYWORD", "UNION"):
            branches.append(self.parse_plain_group("UNION branch"))
        if len(branches) < 2:
            raise UnsupportedSparqlError(
                "nested groups are only supported as UNION branches"
            )
        return tuple(branches)

    def parse_plain_group(self, context: str) -> tuple[TriplePattern, ...]:
        """Parse a braced plain conjunction of triple patterns."""
        self.expect("PUNCT", "{")
        patterns: list[TriplePattern] = []
        while not self.check("PUNCT", "}"):
            if self.check("KEYWORD") and self.current.value in (
                "OPTIONAL", "UNION", "FILTER",
            ):
                raise UnsupportedSparqlError(
                    f"{self.current.value} inside an {context} group is not supported"
                )
            patterns.extend(self.parse_triples_same_subject())
            if not self.accept("PUNCT", "."):
                break
        self.expect("PUNCT", "}")
        if not patterns:
            raise SparqlSyntaxError(f"empty {context} group")
        return tuple(patterns)

    def parse_triples_same_subject(self) -> list[TriplePattern]:
        subject = self.parse_pattern_term()
        patterns: list[TriplePattern] = []
        while True:
            predicate = self.parse_verb()
            while True:
                obj = self.parse_pattern_term()
                patterns.append(TriplePattern(subject, predicate, obj))
                if not self.accept("PUNCT", ","):
                    break
            if not self.accept("PUNCT", ";"):
                break
            if self.check("PUNCT", ".") or self.check("PUNCT", "}"):
                break  # tolerate a trailing ';'
        return patterns

    def parse_verb(self) -> PatternTerm:
        if self.accept("KEYWORD", "A"):
            return IRI(RDF_TYPE)
        term = self.parse_pattern_term()
        if isinstance(term, (Literal, BlankNode)):
            raise SparqlSyntaxError("predicate must be an IRI or a variable")
        return term

    def parse_pattern_term(self) -> PatternTerm:
        token = self.current
        if token.kind == "VAR":
            self.advance()
            return Variable(token.value)
        if token.kind == "IRIREF":
            self.advance()
            return IRI(token.value)
        if token.kind == "PNAME":
            self.advance()
            return IRI(self.expand_pname(token))
        if token.kind == "BNODE":
            self.advance()
            return BlankNode(token.value)
        if token.kind == "STRING":
            return self.parse_literal()
        if token.kind == "NUMBER":
            self.advance()
            datatype = (
                "http://www.w3.org/2001/XMLSchema#decimal"
                if "." in token.value
                else "http://www.w3.org/2001/XMLSchema#integer"
            )
            return Literal(token.value, datatype=datatype)
        raise SparqlSyntaxError(
            f"expected a term but found {token.value!r} at offset {token.position}"
        )

    def parse_literal(self) -> Literal:
        lexical = self.expect("STRING").value
        if self.check("LANGTAG"):
            return Literal(lexical, language=self.advance().value)
        if self.accept("PUNCT", "^^"):
            token = self.current
            if token.kind == "IRIREF":
                self.advance()
                return Literal(lexical, datatype=token.value)
            if token.kind == "PNAME":
                self.advance()
                return Literal(lexical, datatype=self.expand_pname(token))
            raise SparqlSyntaxError("expected datatype IRI after '^^'")
        return Literal(lexical)

    def expand_pname(self, token: Token) -> str:
        prefix, _, local = token.value.partition(":")
        if prefix not in self.prefixes:
            raise SparqlSyntaxError(
                f"undeclared prefix {prefix!r} at offset {token.position}"
            )
        return self.prefixes[prefix] + local

    # -- filters -----------------------------------------------------------

    def parse_filter(self) -> FilterExpression:
        if self.accept("KEYWORD", "REGEX"):
            return self.parse_regex_call()
        self.expect("PUNCT", "(")
        expression = self.parse_or_expression()
        self.expect("PUNCT", ")")
        return expression

    def parse_or_expression(self) -> FilterExpression:
        operands = [self.parse_and_expression()]
        while self.accept("PUNCT", "||"):
            operands.append(self.parse_and_expression())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def parse_and_expression(self) -> FilterExpression:
        operands = [self.parse_primary_expression()]
        while self.accept("PUNCT", "&&"):
            operands.append(self.parse_primary_expression())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def parse_primary_expression(self) -> FilterExpression:
        if self.accept("PUNCT", "("):
            inner = self.parse_or_expression()
            self.expect("PUNCT", ")")
            return inner
        if self.accept("KEYWORD", "REGEX"):
            return self.parse_regex_call()
        left = self.parse_pattern_term()
        op_token = self.current
        if op_token.kind != "PUNCT" or op_token.value not in ("=", "!=", "<", "<=", ">", ">="):
            raise SparqlSyntaxError(
                f"expected a comparison operator, found {op_token.value!r}"
            )
        self.advance()
        right = self.parse_pattern_term()
        return Comparison(op_token.value, left, right)

    def parse_regex_call(self) -> Regex:
        self.expect("PUNCT", "(")
        variable = self.parse_pattern_term()
        if not isinstance(variable, Variable):
            raise UnsupportedSparqlError("regex() over non-variables is not supported")
        self.expect("PUNCT", ",")
        pattern = self.expect("STRING").value
        if self.accept("PUNCT", ","):
            self.expect("STRING")  # flags accepted and ignored
        self.expect("PUNCT", ")")
        return Regex(variable, pattern)

    # -- solution modifiers --------------------------------------------------

    def parse_order_by(self) -> tuple[OrderCondition, ...]:
        if not self.accept("KEYWORD", "ORDER"):
            return ()
        self.expect("KEYWORD", "BY")
        conditions: list[OrderCondition] = []
        while True:
            if self.accept("KEYWORD", "ASC"):
                self.expect("PUNCT", "(")
                conditions.append(OrderCondition(self._order_var(), descending=False))
                self.expect("PUNCT", ")")
            elif self.accept("KEYWORD", "DESC"):
                self.expect("PUNCT", "(")
                conditions.append(OrderCondition(self._order_var(), descending=True))
                self.expect("PUNCT", ")")
            elif self.check("VAR"):
                conditions.append(OrderCondition(Variable(self.advance().value)))
            else:
                break
        if not conditions:
            raise SparqlSyntaxError("ORDER BY requires at least one condition")
        return tuple(conditions)

    def _order_var(self) -> Variable:
        return Variable(self.expect("VAR").value)

    def parse_limit_offset(self) -> tuple[int | None, int | None]:
        limit: int | None = None
        offset: int | None = None
        for _ in range(2):
            if self.accept("KEYWORD", "LIMIT"):
                limit = int(self.expect("NUMBER").value)
            elif self.accept("KEYWORD", "OFFSET"):
                offset = int(self.expect("NUMBER").value)
        return limit, offset

    # -- validation ----------------------------------------------------------

    def _validate(self, query: SelectQuery) -> None:
        bgp_variables = query.pattern_variables
        for variable in query.variables:
            if variable not in bgp_variables:
                raise SparqlSyntaxError(
                    f"projected variable {variable} does not occur in the pattern"
                )
        for filter_expression in query.filters:
            for variable in filter_expression.variables:
                if variable not in bgp_variables:
                    raise SparqlSyntaxError(
                        f"filter variable {variable} does not occur in the pattern"
                    )
        aliases = {aggregate.alias for aggregate in query.aggregates}
        if len(aliases) != len(query.aggregates):
            raise SparqlSyntaxError("duplicate aggregate aliases")
        for aggregate in query.aggregates:
            if aggregate.alias in bgp_variables:
                raise SparqlSyntaxError(
                    f"aggregate alias {aggregate.alias} clashes with a pattern variable"
                )
            if aggregate.variable is not None and aggregate.variable not in bgp_variables:
                raise SparqlSyntaxError(
                    f"aggregated variable {aggregate.variable} does not occur in the pattern"
                )
        for variable in query.group_by:
            if variable not in bgp_variables:
                raise SparqlSyntaxError(
                    f"GROUP BY variable {variable} does not occur in the pattern"
                )
        if query.aggregates:
            group_set = set(query.group_by)
            for variable in query.variables:
                if variable not in group_set:
                    raise SparqlSyntaxError(
                        f"projected variable {variable} must appear in GROUP BY "
                        "when aggregates are used"
                    )
        elif query.group_by:
            raise SparqlSyntaxError("GROUP BY requires an aggregate in the projection")
        projected = set(query.projection)
        for condition in query.order_by:
            if condition.variable not in bgp_variables and condition.variable not in aliases:
                raise SparqlSyntaxError(
                    f"ORDER BY variable {condition.variable} does not occur in the pattern"
                )
            if condition.variable not in projected:
                # Finalization sorts the projected columns; the sort column
                # would have to ride through the projection first.
                raise UnsupportedSparqlError(
                    f"ORDER BY on a non-projected variable ({condition.variable}) "
                    "is not supported"
                )


def parse_sparql(query: str) -> SelectQuery:
    """Parse a SPARQL SELECT query string into a :class:`SelectQuery`.

    Raises:
        SparqlSyntaxError: when the text is not valid SPARQL.
        UnsupportedSparqlError: for valid SPARQL outside the BGP fragment.
    """
    return _Parser(tokenize(query)).parse_query()

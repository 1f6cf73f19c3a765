"""The guarded-by / lockset checker: CC101–CC105 over annotated classes.

The analysis is deliberately *lexical*: a guarded field access counts as
protected only when it sits syntactically inside a ``with self.<lock>``
block (or in a method annotated ``# requires-lock``, whose call sites are
checked instead). Lexical scope is what makes the verdict decidable
without alias analysis — and it matches how the serving data plane is
actually written: short critical sections around cache and counter state,
never a lock smuggled through a variable.

Diagnostics:

- **CC101** — a guarded field is read or written outside its lock (also:
  a ``# requires-lock`` method called without the lock, and the
  *inference* finding — a field mutated from two or more public entry
  points with no declared guard at all);
- **CC102** — ``# guarded-by`` names a lock attribute the class never
  assigns a ``threading.Lock``/``RLock``/``Condition`` (or
  ``repro.governor.YieldingLock``) to;
- **CC103** — two methods acquire the same pair of locks in opposite
  nesting orders: a static deadlock smell;
- **CC104** — a guarded mutable container is returned or yielded by
  reference, escaping its lock's protection (copy it instead);
- **CC105** — a blocking call (engine execution, dataset load, admission
  waits, sleeps, spills) is made while holding a cache/stats lock.

``__init__`` bodies are exempt (the object is not shared until the
constructor returns), and nested functions are analyzed as if no lock
were held (a closure may run on any thread, long after the lock is
gone).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..lint.base import LintViolation, SourceFile
from .model import CONTAINER_MUTATORS, ClassModel, build_class_model

RULE = "concurrency"

#: Subpackages whose classes form the concurrently-served data plane.
SCAN_SUBPACKAGES = ("serve", "governor")

#: Additional single modules in scope (the engine-facing caches).
SCAN_MODULES = ("core/prost.py",)

#: Callable names (terminal attribute or bare name) that block: executing
#: a query, loading a dataset, waiting on admission or a condition,
#: sleeping, or spilling to disk. None of these may run while a
#: cache/stats lock is held.
BLOCKING_CALLS = frozenset(
    {
        "sparql",
        "dataframe",
        "execute_prepared",
        "collect",
        "collect_data_with_report",
        "load",
        "admit",
        "acquire",
        "wait",
        "wait_for",
        "sleep",
        "spill",
        "flush",
    }
)


@dataclass(frozen=True)
class ConcurrencyViolation:
    """One CC-code finding at one node path.

    Attributes:
        code: ``CC101`` … ``CC105``.
        path: source file relative to the scanned package root.
        line: 1-indexed source line of the offending node.
        symbol: dotted node path inside the module, e.g.
            ``QueryServer._serve_admitted`` (class.method) or
            ``Governor.rejected`` (class.field) for declaration-level
            findings.
        message: what is wrong and what the discipline demands.
    """

    code: str
    path: str
    line: int
    symbol: str
    message: str

    def format(self) -> str:
        """One display line: ``path:line: CODE [symbol] message``."""
        return f"{self.path}:{self.line}: {self.code} [{self.symbol}] {self.message}"

    def to_lint(self) -> LintViolation:
        """The same finding as a runner-compatible lint violation."""
        return LintViolation(
            rule=RULE,
            path=self.path,
            line=self.line,
            message=f"[{self.symbol}] {self.message}",
            code=self.code,
        )


def check_concurrency(sources: list[SourceFile]) -> list[LintViolation]:
    """The lint-runner entry point: scoped scan, lint-shaped findings."""
    return [finding.to_lint() for finding in check_concurrency_sources(sources)]


def check_concurrency_sources(
    sources: list[SourceFile],
) -> list[ConcurrencyViolation]:
    """All CC findings across the in-scope modules of a parsed package."""
    findings: list[ConcurrencyViolation] = []
    for source in sources:
        in_scope = (
            source.subpackage in SCAN_SUBPACKAGES
            or source.relative_name in SCAN_MODULES
        )
        if not in_scope:
            continue
        findings.extend(check_module(source))
    return findings


def check_module(source: SourceFile) -> list[ConcurrencyViolation]:
    """All CC findings in one module (classes only; module-level code has
    no ``self`` to lock)."""
    lines = source.source.splitlines()
    findings: list[ConcurrencyViolation] = []
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef):
            model = build_class_model(node, lines)
            if model.is_concurrent:
                findings.extend(_check_class(model, source.relative_name))
    findings.sort(key=lambda f: (f.line, f.code, f.symbol))
    return findings


# -- per-class analysis ----------------------------------------------------------


def _check_class(model: ClassModel, path: str) -> list[ConcurrencyViolation]:
    findings: list[ConcurrencyViolation] = []
    findings.extend(_check_guard_declarations(model, path))
    order_pairs: dict[tuple[str, str], tuple[str, int]] = {}
    mutations: dict[str, list[tuple[str, int]]] = {}
    for member in model.node.body:
        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if member.name == "__init__":
            continue
        visitor = _MethodVisitor(model, path, member.name, order_pairs)
        held = frozenset(
            {model.requires[member.name]} if member.name in model.requires else set()
        )
        visitor.run(member, held)
        findings.extend(visitor.findings)
        for field_name, line in visitor.mutations:
            mutations.setdefault(field_name, []).append((member.name, line))
    findings.extend(_infer_unguarded(model, path, mutations))
    return findings


def _check_guard_declarations(
    model: ClassModel, path: str
) -> list[ConcurrencyViolation]:
    """CC102: every declared guard must name a real lock attribute."""
    findings = []
    for declaration in model.guards.values():
        if declaration.lock not in model.lock_attrs:
            findings.append(
                ConcurrencyViolation(
                    code="CC102",
                    path=path,
                    line=declaration.line,
                    symbol=f"{model.name}.{declaration.field_name}",
                    message=(
                        f"guarded-by names '{declaration.lock}', but the class "
                        "never assigns it a threading.Lock/RLock/Condition in "
                        "__init__"
                    ),
                )
            )
    return findings


def _infer_unguarded(
    model: ClassModel,
    path: str,
    mutations: dict[str, list[tuple[str, int]]],
) -> list[ConcurrencyViolation]:
    """The inference half of CC101: a field with no declared guard mutated
    from more than one public entry point is shared mutable state."""
    reach = _public_entry_points(model)
    findings = []
    for field_name in sorted(mutations):
        if field_name in model.guards or field_name in model.unguarded_ok:
            continue
        if field_name in model.lock_attrs:
            continue
        entries: set[str] = set()
        for method, _line in mutations[field_name]:
            entries.update(reach.get(method, set()))
        if len(entries) < 2:
            continue
        first_method, first_line = min(mutations[field_name], key=lambda m: m[1])
        listed = ", ".join(sorted(entries))
        findings.append(
            ConcurrencyViolation(
                code="CC101",
                path=path,
                line=first_line,
                symbol=f"{model.name}.{field_name}",
                message=(
                    f"field '{field_name}' is mutated from {len(entries)} public "
                    f"entry points ({listed}) with no declared guard; annotate "
                    "it '# guarded-by: <lock>' (or '# unguarded-ok: <reason>' "
                    "if the race is benign)"
                ),
            )
        )
    return findings


def _public_entry_points(model: ClassModel) -> dict[str, set[str]]:
    """For each method, the public methods that can (transitively) reach it
    through intra-class ``self.x()`` calls — a property access counts too,
    since properties execute their body on attribute read."""
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {
        member.name: member
        for member in model.node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    calls: dict[str, set[str]] = {}
    for name, member in methods.items():
        called: set[str] = set()
        for node in ast.walk(member):
            if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                if node.attr in methods:
                    called.add(node.attr)
        calls[name] = called
    public = [
        name
        for name in methods
        if not name.startswith("_") or name in ("__len__", "__repr__", "__iter__")
    ]
    reach: dict[str, set[str]] = {name: set() for name in methods}
    for entry in public:
        stack = [entry]
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            reach[current].add(entry)
            stack.extend(calls.get(current, set()))
    return reach


class _MethodVisitor(ast.NodeVisitor):
    """Walk one method body tracking the lexically-held lock set."""

    def __init__(
        self,
        model: ClassModel,
        path: str,
        method: str,
        order_pairs: dict[tuple[str, str], tuple[str, int]],
    ) -> None:
        self.model = model
        self.path = path
        self.method = method
        self.findings: list[ConcurrencyViolation] = []
        #: (field, line) write sites feeding the inference pass.
        self.mutations: list[tuple[str, int]] = []
        #: Shared across the class: (outer, inner) → first (method, line).
        self.order_pairs = order_pairs
        self._held: frozenset[str] = frozenset()
        #: Lambdas passed to ``self.<held-cond>.wait_for(...)``: the
        #: predicate is evaluated with the condition re-acquired, so it
        #: keeps the lockset instead of the nested-scope reset.
        self._condition_predicates: set[int] = set()

    def run(
        self, member: ast.FunctionDef | ast.AsyncFunctionDef, held: frozenset[str]
    ) -> None:
        """Analyze one method body starting from ``held`` locks."""
        self._held = held
        for stmt in member.body:
            self.visit(stmt)

    # -- helpers -----------------------------------------------------------------

    def _self_attr(self, node: ast.expr) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _report(self, code: str, line: int, message: str) -> None:
        self.findings.append(
            ConcurrencyViolation(
                code=code,
                path=self.path,
                line=line,
                symbol=f"{self.model.name}.{self.method}",
                message=message,
            )
        )

    def _record_mutation(self, target: ast.expr, line: int) -> None:
        """Attribute the write to the innermost ``self.<field>`` root."""
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            root = self._self_attr(node)
            if root is not None:
                self.mutations.append((root, line))
                return
            node = node.value

    # -- lock acquisition --------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            lock = self._self_attr(item.context_expr)
            if lock is not None and lock in self.model.lock_attrs:
                for outer in sorted(self._held):
                    self._note_order(outer, lock, node.lineno)
                acquired.append(lock)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        previous = self._held
        self._held = self._held | frozenset(acquired)
        for stmt in node.body:
            self.visit(stmt)
        self._held = previous

    def _note_order(self, outer: str, inner: str, line: int) -> None:
        """CC103: record outer→inner; flag when the reverse pair exists."""
        pair = (outer, inner)
        reverse = (inner, outer)
        if reverse in self.order_pairs:
            other_method, other_line = self.order_pairs[reverse]
            self._report(
                "CC103",
                line,
                f"acquires '{inner}' while holding '{outer}', but "
                f"{self.model.name}.{other_method} (line {other_line}) acquires "
                "them in the opposite order — lock-order inversion can "
                "deadlock",
            )
        self.order_pairs.setdefault(pair, (self.method, line))

    # -- nested scopes run without the lock --------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if id(node) in self._condition_predicates:
            self.generic_visit(node)  # runs with the condition re-acquired
            return
        self._visit_nested(node)

    def _visit_nested(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        previous = self._held
        self._held = frozenset()
        self.generic_visit(node)
        self._held = previous

    # -- accesses ----------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        field_name = self._self_attr(node)
        if field_name is not None and field_name in self.model.guards:
            guard = self.model.guards[field_name].lock
            if guard not in self._held:
                self._report(
                    "CC101",
                    node.lineno,
                    f"access to '{field_name}' (guarded by '{guard}') outside "
                    f"a 'with self.{guard}' block",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_mutation(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_mutation(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_mutation(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_mutation(target, node.lineno)
        self.generic_visit(node)

    # -- calls: requires-lock sites, blocking-under-lock, container mutators -----

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("wait_for", "wait")
            and self._self_attr(func.value) in self._held
        ):
            for argument in node.args:
                if isinstance(argument, ast.Lambda):
                    self._condition_predicates.add(id(argument))
        if isinstance(func, ast.Attribute):
            owner = self._self_attr(func)
            if owner is not None and func.attr in self.model.requires:
                needed = self.model.requires[func.attr]
                if needed not in self._held:
                    self._report(
                        "CC101",
                        node.lineno,
                        f"call to '{func.attr}' requires '{needed}' held "
                        "(# requires-lock), but no enclosing "
                        f"'with self.{needed}' block holds it",
                    )
            container = self._self_attr(func.value)
            if (
                container is not None
                and container in self.model.container_fields
                and func.attr in CONTAINER_MUTATORS
            ):
                self.mutations.append((container, node.lineno))
        self._check_blocking(node)
        self.generic_visit(node)

    def _check_blocking(self, node: ast.Call) -> None:
        if not self._held:
            return
        func = node.func
        name: str | None = None
        if isinstance(func, ast.Attribute):
            name = func.attr
            held_lock = self._self_attr(func.value)
            if held_lock is not None and held_lock in self._held:
                return  # waiting/notifying on the lock you hold: Condition
        elif isinstance(func, ast.Name):
            name = func.id
        if name in BLOCKING_CALLS:
            held = ", ".join(sorted(self._held))
            self._report(
                "CC105",
                node.lineno,
                f"blocking call '{name}' while holding lock(s) {held}; "
                "release the lock before executing, loading, waiting, or "
                "spilling",
            )

    # -- escapes -----------------------------------------------------------------

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._check_escape(node.value, node.lineno, "returned")
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        if node.value is not None:
            self._check_escape(node.value, node.lineno, "yielded")
        self.generic_visit(node)

    def _check_escape(self, value: ast.expr, line: int, verb: str) -> None:
        """CC104: a guarded container leaving the class by reference."""
        candidates: list[ast.expr] = [value]
        if isinstance(value, ast.Tuple):
            candidates = list(value.elts)
        for candidate in candidates:
            field_name = self._self_attr(candidate)
            if (
                field_name is not None
                and field_name in self.model.guards
                and field_name in self.model.container_fields
            ):
                self._report(
                    "CC104",
                    line,
                    f"guarded container '{field_name}' {verb} by reference — "
                    "the caller escapes the lock; return a copy "
                    "(dict(...)/list(...)) instead",
                )

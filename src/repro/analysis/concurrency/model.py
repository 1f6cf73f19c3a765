"""The per-class concurrency model the lockset checker runs against.

A class declares its locking discipline with three comment-level
annotations (comments, not decorators, so the data plane pays zero import
or runtime cost for being analyzable):

- ``# guarded-by: <lock-attr>`` on the ``__init__`` line assigning a
  shared mutable field: every later read or write of that field must sit
  lexically inside a ``with self.<lock-attr>`` block;
- ``# requires-lock: <lock-attr>`` on a ``def`` line: the method's body
  is analyzed as if the lock were held, and every *call site* of the
  method must itself hold the lock (the private-helper-under-lock
  pattern, e.g. ``Governor._admissible``);
- ``# unguarded-ok: <reason>`` on a field assignment: the field is
  deliberately unsynchronized (last-writer-wins diagnostics and the
  like); the multi-entry-point mutation inference skips it.

:func:`build_class_model` extracts all three plus the class's lock
attributes (``self.x = threading.Lock() / RLock() / Condition()`` or
``YieldingLock()``, the serving path's lock) into a
:class:`ClassModel`; :mod:`repro.analysis.concurrency.checker` consumes
the model and emits the ``CC101``–``CC105`` diagnostics.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

#: Constructor names recognized as lock-like when assigned in ``__init__``.
LOCK_CONSTRUCTORS = ("Lock", "RLock", "Condition", "YieldingLock")

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_REQUIRES_LOCK = re.compile(r"#\s*requires-lock:\s*([A-Za-z_][A-Za-z0-9_]*)")
_UNGUARDED_OK = re.compile(r"#\s*unguarded-ok:")


@dataclass(frozen=True)
class GuardDeclaration:
    """One ``# guarded-by`` annotation: field name, lock attr, source line."""

    field_name: str
    lock: str
    line: int


@dataclass
class ClassModel:
    """Everything the checker needs to know about one class.

    Attributes:
        name: the class name (diagnostic symbol paths start with it).
        node: the class's AST node.
        lock_attrs: attribute names assigned a ``threading`` lock-like
            object in ``__init__`` (these are what ``with self.<attr>``
            blocks acquire).
        guards: declared guard per field name.
        requires: method name → lock the caller must already hold.
        unguarded_ok: fields explicitly exempted from inference.
        fields: every attribute assigned on ``self`` in ``__init__``,
            mapped to the assignment line (inference scans these).
        container_fields: the subset of :attr:`fields` initialized to a
            builtin mutable container (dict/list/set/OrderedDict/…) —
            the fields whose mutating *method calls* count as writes and
            whose direct ``return`` escapes a lock's protection.
    """

    name: str
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    guards: dict[str, GuardDeclaration] = field(default_factory=dict)
    requires: dict[str, str] = field(default_factory=dict)
    unguarded_ok: set[str] = field(default_factory=set)
    fields: dict[str, int] = field(default_factory=dict)
    container_fields: set[str] = field(default_factory=set)

    @property
    def is_concurrent(self) -> bool:
        """Whether the class participates in the analysis at all: it owns
        a lock attribute or declares at least one guard."""
        return bool(self.lock_attrs or self.guards)


#: Call / constructor names treated as builtin mutable containers.
_CONTAINER_CALLS = (
    "dict",
    "list",
    "set",
    "OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
)

#: Method names that mutate a builtin container in place.
CONTAINER_MUTATORS = (
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "move_to_end",
    "appendleft",
    "popleft",
)


def _self_attribute(node: ast.expr) -> str | None:
    """The attribute name when ``node`` is exactly ``self.<name>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_call(value: ast.expr) -> bool:
    """Whether an ``__init__`` assignment value constructs a lock."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in LOCK_CONSTRUCTORS
    if isinstance(func, ast.Name):
        return func.id in LOCK_CONSTRUCTORS
    return False


def _is_container_value(value: ast.expr) -> bool:
    """Whether an ``__init__`` assignment value is a mutable container."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else None
        )
        return name in _CONTAINER_CALLS
    return False


def _assignment_targets(stmt: ast.stmt) -> tuple[list[ast.expr], ast.expr | None]:
    """Assignment target expressions and the assigned value, if any."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets, stmt.value
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target], stmt.value
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target], stmt.value
    return [], None


def build_class_model(node: ast.ClassDef, source_lines: list[str]) -> ClassModel:
    """Extract the concurrency model of one class from its AST + comments.

    Args:
        node: the class definition.
        source_lines: the *module's* source split into lines (1-indexed
            via ``lineno - 1``) — annotations are comments, invisible to
            the AST.
    """
    model = ClassModel(name=node.name, node=node)
    for member in node.body:
        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        required = _line_match(_REQUIRES_LOCK, source_lines, member.lineno)
        if required is not None:
            model.requires[member.name] = required
        if member.name != "__init__":
            continue
        for stmt in ast.walk(member):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets, value = _assignment_targets(stmt)
            for target in targets:
                field_name = _self_attribute(target)
                if field_name is None:
                    continue
                model.fields.setdefault(field_name, stmt.lineno)
                if value is not None and _is_lock_call(value):
                    model.lock_attrs.add(field_name)
                if value is not None and _is_container_value(value):
                    model.container_fields.add(field_name)
                guard = _line_match(_GUARDED_BY, source_lines, stmt.lineno)
                if guard is not None:
                    model.guards[field_name] = GuardDeclaration(
                        field_name, guard, stmt.lineno
                    )
                if _line_has(_UNGUARDED_OK, source_lines, stmt.lineno):
                    model.unguarded_ok.add(field_name)
    return model


def _candidate_lines(lines: list[str], lineno: int) -> list[str]:
    """The annotation-bearing lines for a statement at ``lineno``: the line
    itself, plus the line above *only when it is a standalone comment* (so
    an annotation can sit on its own line above a long assignment, but a
    trailing comment on the previous statement is never mis-attributed)."""
    out = []
    if 1 <= lineno <= len(lines):
        out.append(lines[lineno - 1])
    if 2 <= lineno <= len(lines) + 1:
        above = lines[lineno - 2]
        if above.lstrip().startswith("#"):
            out.append(above)
    return out


def _line_match(pattern: re.Pattern[str], lines: list[str], lineno: int) -> str | None:
    """The pattern's first group on ``lineno`` or a standalone-comment line
    directly above it."""
    for candidate in _candidate_lines(lines, lineno):
        match = pattern.search(candidate)
        if match:
            return match.group(1)
    return None


def _line_has(pattern: re.Pattern[str], lines: list[str], lineno: int) -> bool:
    """Whether the pattern appears on ``lineno`` or a standalone-comment
    line directly above it."""
    for candidate in _candidate_lines(lines, lineno):
        if pattern.search(candidate):
            return True
    return False

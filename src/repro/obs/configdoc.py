"""The configuration contract: every knob, generated into one document.

The knob surface is :class:`~repro.engine.cluster.ClusterConfig` (each
field with a declarative validation rule) plus the CLI flags that map onto
it; the package reads no environment variables (the determinism lint bans
environment reads). This module ties fields and flags together, the same
way :mod:`repro.obs.metrics` ties counters to ``docs/METRICS.md``:

- the knob table is built **live** from ``ClusterConfig`` — field names,
  defaults, and validation rules come from the dataclass itself, so they
  cannot drift; only the one-line descriptions are curated here, and
  :func:`config_rows` *refuses* a field without one (or a description for
  a field that no longer exists);
- ``docs/CONFIGURATION.md`` is the byte-exact output of
  ``prost-repro config --markdown``, held in sync by a tier-1 test
  mirroring the metrics-docs one.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from ..engine.cluster import ClusterConfig, _CONFIG_FIELD_RULES
from ..errors import ValidationError

#: Validation rule name → reader-facing constraint text.
_RULE_TEXT: dict[str, str] = {
    "positive_int": "integer > 0",
    "positive": "number > 0",
    "non_negative": "number >= 0",
    "optional_positive_int": "integer > 0, or unset",
    "optional_positive": "number > 0, or unset",
    "optional_int": "integer, or unset",
    "optional_str": "non-empty string, or unset",
}

#: Curated one-line description per ``ClusterConfig`` field. Defaults and
#: validation rules are *not* duplicated here — they are read live from the
#: dataclass — so this map only drifts if a field is added or removed, and
#: :func:`config_rows` turns that drift into a hard error.
_FIELD_DOCS: dict[str, str] = {
    "num_workers": "Simulated Spark workers (the paper's cluster has 9).",
    "partitions_per_worker": "Default shuffle partitions per worker.",
    "rows_per_sec": "Per-core row-processing rate for narrow operators.",
    "broadcast_threshold_bytes": "Max estimated build-side size for a broadcast join (divided by `data_scale` before comparing); `0` = never broadcast a hash join of non-empty inputs.",
    "data_scale": "Emulation factor: every byte/row counter is multiplied by this when costing, so a small dataset runs \"as if\" full-size.",
    "fault_seed": "When set, every query runs under a seeded chaos fault plan drawn from this seed.",
    "memory_budget_bytes": "Per-query memory budget; tripping it degrades (broadcast->shuffle) or spills instead of failing.",
    "query_timeout_sec": "Cooperative per-query deadline, polled at stage boundaries.",
    "max_concurrent_queries": "Admission-control slots; queries beyond this queue (bounded) or are shed.",
    "spill_dir": "Directory for grace-hash spill files (system temp dir when unset).",
}

#: ``ClusterConfig`` field → CLI flag, when one exists.
_FIELD_FLAGS: dict[str, str] = {
    "num_workers": "--workers",
    "memory_budget_bytes": "--memory-budget",
    "query_timeout_sec": "--timeout",
}


@dataclass(frozen=True)
class ConfigRow:
    """One documented ``ClusterConfig`` knob."""

    name: str
    default: str
    rule: str
    flag: str
    description: str


def _format_default(value: object) -> str:
    """A field default as reader-facing text (``unset`` for ``None``)."""
    if value is None:
        return "unset"
    if isinstance(value, float) and value == int(value) and abs(value) >= 1e6:
        return f"{value:g}"
    return repr(value)


def config_rows() -> list[ConfigRow]:
    """One row per ``ClusterConfig`` field, built live from the dataclass.

    Raises :class:`~repro.errors.ValidationError` when the curated
    description map and the dataclass disagree — the completeness check
    that keeps this document honest as knobs come and go.
    """
    documented = set(_FIELD_DOCS)
    declared = {spec.name for spec in fields(ClusterConfig)}
    missing = declared - documented
    stale = documented - declared
    if missing:
        raise ValidationError(
            f"ClusterConfig fields lack a configdoc description: {sorted(missing)}"
        )
    if stale:
        raise ValidationError(
            f"configdoc describes unknown ClusterConfig fields: {sorted(stale)}"
        )
    rows: list[ConfigRow] = []
    for spec in fields(ClusterConfig):
        if spec.default is MISSING:  # pragma: no cover - all knobs default
            raise ValidationError(f"ClusterConfig.{spec.name} has no default")
        rule = _CONFIG_FIELD_RULES[spec.name]
        rows.append(
            ConfigRow(
                name=spec.name,
                default=_format_default(spec.default),
                rule=_RULE_TEXT.get(rule, rule),
                flag=_FIELD_FLAGS.get(spec.name, ""),
                description=_FIELD_DOCS[spec.name],
            )
        )
    return rows


def markdown() -> str:
    """The configuration reference (→ ``docs/CONFIGURATION.md``)."""
    lines = [
        "# Configuration reference",
        "",
        "Every knob the system exposes: the `ClusterConfig` fields (defaults",
        "and validation rules read live from the dataclass) and the CLI flags",
        "that set them. The package reads no environment variables. Generated",
        "by `prost-repro config --markdown`; a tier-1 test asserts this file is",
        "byte-identical to the generator, so the document cannot drift from",
        "the code.",
        "",
        "## Cluster knobs (`ClusterConfig`)",
        "",
        "Construct with `ClusterConfig(...)` and pass to",
        "`ProstEngine(cluster_config=...)`; every field is validated at",
        "construction by the declarative rule shown. A blank flag cell means",
        "the knob is configurable only in code.",
        "",
        "| Knob | Default | Validation | CLI flag | Description |",
        "|---|---|---|---|---|",
    ]
    for row in config_rows():
        flag = f"`{row.flag}`" if row.flag else ""
        lines.append(
            f"| `{row.name}` | `{row.default}` | {row.rule} | {flag} | "
            f"{row.description} |"
        )
    lines.append("")
    return "\n".join(lines)


def render_text() -> str:
    """A terminal rendering of the same contract (``prost-repro config``)."""
    lines = ["[ClusterConfig]"]
    for row in config_rows():
        suffix = f" (flag {row.flag})" if row.flag else ""
        lines.append(
            f"  {row.name:28} default={row.default:<12} {row.rule}{suffix}"
        )
    return "\n".join(lines)

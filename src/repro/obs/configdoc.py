"""The configuration contract: every knob, generated into one document.

The knob surface has three fronts: :class:`~repro.engine.cluster.
ClusterConfig` fields (each with a declarative validation rule), the
``REPRO_*`` environment variables, and the CLI flags that map onto them.
This module is the registry tying the three together, the same way
:mod:`repro.obs.metrics` ties counters to ``docs/METRICS.md``:

- the cluster-knob table is built **live** from ``ClusterConfig`` — field
  names, defaults, and validation rules come from the dataclass itself, so
  they cannot drift; only the one-line descriptions are curated here, and
  :func:`config_rows` *refuses* a field without one (or a description for
  a field that no longer exists);
- the environment-variable table is curated in :data:`ENV_VARS`; a test
  greps the source tree for ``REPRO_*`` literals and fails on any variable
  the registry does not know;
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
    "min_attempts": "integer >= 1",
    "speculation": "number > 1.0",
}

#: Curated one-line description per ``ClusterConfig`` field. Defaults and
#: validation rules are *not* duplicated here — they are read live from the
#: dataclass — so this map only drifts if a field is added or removed, and
#: :func:`config_rows` turns that drift into a hard error.
_FIELD_DOCS: dict[str, str] = {
    "num_workers": "Simulated Spark workers (the paper's cluster has 9).",
    "partitions_per_worker": "Default shuffle partitions per worker.",
    "network_bytes_per_sec": "Per-node network bandwidth (Gigabit = 125e6).",
    "scan_bytes_per_sec": "Per-node storage scan bandwidth.",
    "rows_per_sec": "Per-core row-processing rate for narrow operators.",
    "task_overhead_sec": "Scheduling overhead charged per launched task wave.",
    "broadcast_threshold_bytes": "Max estimated build-side size for a broadcast join (divided by `data_scale` before comparing); `0` = never broadcast a hash join of non-empty inputs.",
    "data_scale": "Emulation factor: every byte/row counter is multiplied by this when costing, so a small dataset runs \"as if\" full-size.",
    "max_task_attempts": "A task failing this many times aborts the query (Spark `spark.task.maxFailures`).",
    "speculation_multiplier": "A task this many times slower than its siblings gets a speculative duplicate.",
    "fault_seed": "When set, every query runs under a seeded chaos fault plan drawn from this seed.",
    "memory_budget_bytes": "Per-query memory budget; tripping it degrades (broadcast->shuffle) or spills instead of failing.",
    "query_timeout_sec": "Cooperative per-query deadline, polled at stage boundaries.",
    "max_concurrent_queries": "Admission-control slots; queries beyond this queue (bounded) or are shed.",
    "spill_dir": "Directory for grace-hash spill files (system temp dir when unset).",
}

#: ``ClusterConfig`` field → environment-variable fallback, when one exists.
_FIELD_ENV: dict[str, str] = {
    "memory_budget_bytes": "REPRO_MEM_BUDGET",
    "query_timeout_sec": "REPRO_QUERY_TIMEOUT",
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
    env: str
    flag: str
    description: str


@dataclass(frozen=True)
class EnvVar:
    """One documented ``REPRO_*`` environment variable.

    Attributes:
        name: the variable, e.g. ``REPRO_PLAN_CHECK``.
        scope: ``runtime`` (read by the library/CLI) or ``tests`` (read
            only by the test suite).
        default: behavior when unset, as reader-facing text.
        consumer: the module that reads it.
        description: one line of documentation.
    """

    name: str
    scope: str
    default: str
    consumer: str
    description: str


#: The environment-variable registry. A completeness test greps the source
#: tree for ``REPRO_[A-Z_]*`` literals and fails on any name missing here,
#: so a new variable cannot ship undocumented.
ENV_VARS: tuple[EnvVar, ...] = (
    EnvVar(
        "REPRO_CHAOS_SEED", "runtime", "chaos off",
        "repro.testing.differential",
        "Enables chaos mode in the fuzz harness and picks the fault-plan base seed.",
    ),
    EnvVar(
        "REPRO_FUZZ_ITERATIONS", "runtime", "20",
        "repro.testing.differential",
        "Number of fuzz seeds `prost-repro fuzz` (and pytest) run.",
    ),
    EnvVar(
        "REPRO_FUZZ_SEED", "runtime", "0",
        "repro.testing.differential",
        "Base seed of the differential fuzz harness (one graph per seed).",
    ),
    EnvVar(
        "REPRO_INTERLEAVE_SEEDS", "tests", "5",
        "repro.testing.interleave",
        "Number of seeded thread schedules the interleaving tests sweep (CI uses 10).",
    ),
    EnvVar(
        "REPRO_MEM_BUDGET", "runtime", "memory governance off",
        "repro.governor",
        "Per-query memory budget in bytes, when `ClusterConfig.memory_budget_bytes` is unset.",
    ),
    EnvVar(
        "REPRO_PLAN_CHECK", "runtime", "1 (verify every plan)",
        "repro.analysis",
        "Set to 0 to skip the static plan verifier before query execution.",
    ),
    EnvVar(
        "REPRO_QUERY_TIMEOUT", "runtime", "deadlines off",
        "repro.governor",
        "Per-query deadline in seconds, when `ClusterConfig.query_timeout_sec` is unset.",
    ),
    EnvVar(
        "REPRO_SERVE_MODE", "runtime", "0 (direct engines)",
        "repro.testing.differential",
        "Set to 1 to route PRoST engines through a `QueryServer` in the fuzz harness and regression tests.",
    ),
    EnvVar(
        "REPRO_SERVE_PLAN_CACHE", "runtime", "64 entries",
        "repro.serve.server",
        "Default plan-cache capacity of a `QueryServer` (0 disables the cache).",
    ),
    EnvVar(
        "REPRO_SERVE_RESULT_CACHE", "runtime", "256 entries",
        "repro.serve.server",
        "Default result-cache capacity of a `QueryServer` (0 disables the cache).",
    ),
    EnvVar(
        "REPRO_UPDATE_GOLDENS", "tests", "0 (assert, don't rewrite)",
        "tests/obs",
        "Set to 1 to rewrite golden EXPLAIN fixtures instead of asserting against them.",
    ),
)


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
                env=_FIELD_ENV.get(spec.name, ""),
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
        "Every knob the system exposes: `ClusterConfig` fields (defaults and",
        "validation rules read live from the dataclass) and the `REPRO_*`",
        "environment variables. Generated by `prost-repro config --markdown`;",
        "a tier-1 test asserts this file is byte-identical to the generator,",
        "so the document cannot drift from the code.",
        "",
        "## Cluster knobs (`ClusterConfig`)",
        "",
        "Construct with `ClusterConfig(...)` and pass to",
        "`ProstEngine(cluster_config=...)`; every field is validated at",
        "construction by the declarative rule shown. A blank env/flag cell",
        "means the knob is configurable only in code.",
        "",
        "| Knob | Default | Validation | Env fallback | CLI flag | Description |",
        "|---|---|---|---|---|---|",
    ]
    for row in config_rows():
        env = f"`{row.env}`" if row.env else ""
        flag = f"`{row.flag}`" if row.flag else ""
        lines.append(
            f"| `{row.name}` | `{row.default}` | {row.rule} | {env} | "
            f"{flag} | {row.description} |"
        )
    lines.extend(
        [
            "",
            "## Environment variables (`REPRO_*`)",
            "",
            "Explicit arguments and CLI flags always win over the environment.",
            "Scope `tests` means only the test suite reads the variable.",
            "",
            "| Variable | Scope | When unset | Read by | Description |",
            "|---|---|---|---|---|",
        ]
    )
    for variable in ENV_VARS:
        lines.append(
            f"| `{variable.name}` | {variable.scope} | {variable.default} | "
            f"`{variable.consumer}` | {variable.description} |"
        )
    lines.append("")
    return "\n".join(lines)


def render_text() -> str:
    """A terminal rendering of the same contract (``prost-repro config``)."""
    lines = ["[ClusterConfig]"]
    for row in config_rows():
        extras = []
        if row.env:
            extras.append(f"env {row.env}")
        if row.flag:
            extras.append(f"flag {row.flag}")
        suffix = f" ({', '.join(extras)})" if extras else ""
        lines.append(
            f"  {row.name:28} default={row.default:<12} {row.rule}{suffix}"
        )
    lines.append("[environment]")
    for variable in ENV_VARS:
        lines.append(
            f"  {variable.name:28} [{variable.scope}] unset -> {variable.default}"
        )
    return "\n".join(lines)

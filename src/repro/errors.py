"""Exception hierarchy for the PRoST reproduction.

Every error raised by this package derives from :class:`ReproError`, so a
caller can catch a single base class. Layer-specific subclasses exist for the
storage substrates, the execution engine, and the SPARQL front end.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class RdfSyntaxError(ReproError):
    """Raised when parsing serialized RDF (e.g. N-Triples) fails.

    Attributes:
        line_number: 1-based line number of the offending input line, if known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SparqlSyntaxError(ReproError):
    """Raised when a SPARQL query string cannot be parsed."""


class ValidationError(ReproError, ValueError):
    """Raised for invalid argument or configuration values.

    Also derives :class:`ValueError`, so call sites (and tests) written
    against the stdlib type before the hierarchy was unified keep working;
    the ``repro.analysis`` error-hierarchy lint requires every raise in the
    package to use a :class:`ReproError` subclass.
    """


class UnsupportedSparqlError(ReproError):
    """Raised for syntactically valid SPARQL outside the supported fragment."""


class StorageError(ReproError):
    """Base class for errors in the storage substrates (HDFS, KV, columnar)."""


class FileNotFoundInHdfsError(StorageError):
    """Raised when a simulated-HDFS path does not exist."""


class FileAlreadyExistsError(StorageError):
    """Raised when creating a simulated-HDFS file over an existing path."""


class EncodingError(StorageError):
    """Raised when a columnar encoder/decoder receives invalid input."""


class SchemaError(ReproError):
    """Raised for schema violations: unknown columns, type mismatches, dupes."""


class PlanError(ReproError):
    """Raised when a logical/physical plan is malformed or cannot be built."""


class ExecutionError(ReproError):
    """Base class for runtime failures while executing a physical plan.

    The fault-tolerance machinery raises typed subclasses: a single task
    attempt fails with :class:`TaskFailedError`, a task that exhausts its
    retry budget fails the query with :class:`FaultToleranceExhaustedError`.
    """


class TaskFailedError(ExecutionError):
    """One simulated task attempt failed (injected fault).

    Attributes:
        stage: stage index the task ran in.
        task: task index within the stage's wave.
        attempt: 1-based attempt number that failed.
        kind: ``"task"`` (execution failure) or ``"fetch"`` (shuffle-fetch).
    """

    def __init__(
        self,
        message: str,
        stage: int | None = None,
        task: int | None = None,
        attempt: int | None = None,
        kind: str = "task",
    ):
        super().__init__(message)
        self.stage = stage
        self.task = task
        self.attempt = attempt
        self.kind = kind


class FaultToleranceExhaustedError(ExecutionError):
    """A task failed as many times as ``MAX_TASK_ATTEMPTS`` allows.

    Mirrors Spark aborting a stage (and the job) once a single task has
    failed ``spark.task.maxFailures`` times.
    """


class QueryTimeoutError(ExecutionError):
    """A query exceeded its deadline and was cooperatively cancelled.

    Raised at a stage boundary (or inside the fault injector's retry loop)
    once the governor's :class:`~repro.governor.Deadline` expires. The
    partially filled metrics object is preserved so EXPLAIN ANALYZE can
    still render the work done before the cut-off.

    Attributes:
        metrics: the partial ``ExecutionMetrics`` at the moment of timeout.
    """

    def __init__(self, message: str, metrics: object | None = None):
        super().__init__(message)
        self.metrics = metrics


class QueryCancelledError(ExecutionError):
    """A query was cancelled cooperatively (caller-requested, not a timeout).

    Like :class:`QueryTimeoutError`, carries the partial metrics snapshot.

    Attributes:
        metrics: the partial ``ExecutionMetrics`` at the cancellation point.
    """

    def __init__(self, message: str, metrics: object | None = None):
        super().__init__(message)
        self.metrics = metrics


class AdmissionRejectedError(ExecutionError):
    """The admission controller shed a query instead of running it.

    Raised by :class:`~repro.governor.Governor` when the concurrent-query
    limit is reached and the bounded wait queue is full (or the queue wait
    timed out) — the load-shedding path of graceful degradation.
    """


class CatalogError(ReproError):
    """Raised for catalog misuse: missing or duplicate table registrations."""


class TableNotFoundError(StorageError, KeyError):
    """Raised when a KV-store table lookup names an unregistered table.

    Also derives :class:`KeyError` (the lookup is dictionary-shaped), so
    pre-hierarchy callers catching ``KeyError`` still see it.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; keep the plain message.
        return str(self.args[0]) if self.args else ""


class PlanVerificationError(PlanError):
    """A plan failed static verification (``repro.analysis``).

    Attributes:
        diagnostics: the :class:`~repro.analysis.diagnostics.Diagnostic`
            objects describing each violated invariant.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class LoaderError(ReproError):
    """Raised when loading an RDF graph into a store fails."""


class TranslationError(ReproError):
    """Raised when a SPARQL query cannot be translated to a join tree."""


class InterleaveError(ReproError):
    """Base class for failures the deterministic interleaving harness
    (:mod:`repro.testing.interleave`) detects while replaying a schedule."""


class DeadlockError(InterleaveError):
    """A genuine waits-for cycle between instrumented locks was detected
    under a replayed thread schedule; the message names the cycle."""


class SchedulerStallError(InterleaveError):
    """An interleaved run stopped making progress: the scheduler exceeded
    its step budget, timed out on the wall clock (a real blocking call
    swallowed the only runnable thread), or was aborted."""

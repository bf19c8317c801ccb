"""Job lifecycle for the async endpoints (``/v1/sweep``, ``/v1/experiment``).

A :class:`Job` is one accepted request flowing through the states::

    queued -> running -> done | failed
    queued -> cancelled                 (cancellation is queue-removal only)

Jobs execute on a small ``ThreadPoolExecutor`` that bounds how many
requests run concurrently; a sweep is one engine call inside its job.
Each job runs under its **own** context-local tracer
(:func:`repro.obs.use_tracer`), so ``GET /v1/jobs/<id>/trace`` can export
a per-request Chrome trace that never interleaves with other jobs.

Cancellation semantics: only ``queued`` jobs can be cancelled — a running
sweep is a single engine call with no safe preemption point, and a
finished job is immutable.  The runner re-checks the state under the
store lock before flipping to ``running``, so a cancel that lands first
always wins.

Concurrency discipline (verified by ``repro.lint``'s rules R11-R14): a
job's mutable fields are guarded by the owning store's ``_lock`` —
declared with ``@guarded_by`` below — and every externally visible
document is a *snapshot* built while holding it (:meth:`JobStore.doc`,
:meth:`JobStore.result_doc`).  Handing callers a live :class:`Job` to
read field-by-field would tear: state could flip between reading
``state`` and reading ``result``.

The registry is bounded: beyond ``max_jobs`` entries, the oldest
*terminal* jobs (done/failed/cancelled — never live ones) are pruned at
submission time, so ``/v1/jobs`` memory cannot grow without bound under
sustained traffic.

Durations use ``time.perf_counter_ns()`` (monotonic; wall-clock
``time.time`` is banned for durations by lint rule R4).
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Callable, Dict, Optional

from ..core.concurrency import guarded_by, holds_no_locks
from ..obs import Tracer, use_tracer
from .schemas import JOB_SCHEMA, JOBS_SCHEMA

#: The job states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can no longer leave.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Default bound on the job registry (oldest terminal jobs pruned beyond).
DEFAULT_MAX_JOBS = 1024


@guarded_by("JobStore._lock", "state", "result", "error", "started_ns",
            "finished_ns")
class Job:
    """One accepted async request and everything it accumulates.

    ``id``/``kind``/``request``/``trace_id``/``tracer``/``queued_ns`` are
    immutable after construction; the lifecycle fields declared in
    ``@guarded_by`` above belong to the owning :class:`JobStore`'s lock.
    """

    __slots__ = ("id", "kind", "request", "trace_id", "state", "result",
                 "error", "tracer", "queued_ns", "started_ns",
                 "finished_ns")

    def __init__(self, job_id: str, kind: str, request: Dict[str, object],
                 trace_id: str):
        self.id = job_id
        self.kind = kind
        self.request = request
        self.trace_id = trace_id
        self.state = "queued"
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[Dict[str, object]] = None
        self.tracer = Tracer(enabled=True)
        self.queued_ns = time.perf_counter_ns()
        self.started_ns: Optional[int] = None
        self.finished_ns: Optional[int] = None

    def _doc(self) -> Dict[str, object]:
        """The public job document — callers hold ``JobStore._lock``.

        Private on purpose: every call site sits inside the store's
        lock, which is exactly what lets R11's entry-lockset analysis
        prove the lifecycle-field reads here are guarded.  External
        callers go through :meth:`JobStore.doc`.
        """
        doc: Dict[str, object] = {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "trace_id": self.trace_id,
            "request": self.request,
        }
        if self.started_ns is not None and self.finished_ns is not None:
            doc["elapsed_ms"] = (self.finished_ns - self.started_ns) / 1e6
        if self.error is not None:
            doc["error"] = self.error
        return doc


@guarded_by("_lock", "_jobs", "_seq", "_pruned")
class JobStore:
    """Thread-safe bounded registry + executor for async jobs."""

    def __init__(self, workers: int = 2, max_jobs: int = DEFAULT_MAX_JOBS):
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}        # insertion = submission order
        self._seq = 0
        self._pruned = 0
        self.max_jobs = max(1, max_jobs)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-serve-job")

    # ---------------------------------------------------------------- submit
    @holds_no_locks(reason="hands work to the executor, which may block "
                           "briefly on its internal queue")
    def submit(self, kind: str, request: Dict[str, object], trace_id: str,
               runner: Callable[[Job], Dict[str, object]]) -> Job:
        """Register a job and hand it to the executor; returns it queued.

        ``runner(job)`` computes the result document; it runs on an
        executor thread under the job's context-local tracer.  Exceptions
        become the job's structured ``error`` (state ``failed``) — they
        never propagate into the serving thread.
        """
        with self._lock:
            self._seq += 1
            job = Job(f"job-{self._seq:06d}", kind, request, trace_id)
            self._jobs[job.id] = job
            self._prune_locked()
        self._executor.submit(self._run, job, runner)
        return job

    def _prune_locked(self) -> None:
        """Evict oldest *terminal* jobs beyond ``max_jobs`` (lock held).

        Live jobs (queued/running) are never evicted — under a burst of
        in-flight work the registry may transiently exceed the cap
        rather than drop observable state.
        """
        if len(self._jobs) <= self.max_jobs:
            return
        terminal = [job.id for job in self._jobs.values()
                    if job.state in TERMINAL_STATES]
        for job_id in terminal:
            if len(self._jobs) <= self.max_jobs:
                break
            del self._jobs[job_id]
            self._pruned += 1

    def _run(self, job: Job,
             runner: Callable[[Job], Dict[str, object]]) -> None:
        with self._lock:
            if job.state != "queued":          # cancelled while queued
                return
            job.state = "running"
            job.started_ns = time.perf_counter_ns()
        try:
            with use_tracer(job.tracer):
                with job.tracer.span(f"serve.job.{job.kind}", job=job.id,
                                     trace_id=job.trace_id):
                    result = runner(job)
        except Exception as exc:  # noqa: BLE001 — jobs must fail structured
            with self._lock:
                job.error = {"type": type(exc).__name__, "message": str(exc)}
                job.state = "failed"
                job.finished_ns = time.perf_counter_ns()
            return
        with self._lock:
            job.result = result
            job.state = "done"
            job.finished_ns = time.perf_counter_ns()

    # ---------------------------------------------------------------- access
    def get(self, job_id: str) -> Optional[Job]:
        """The live job object — for identity/tracer access, not state.

        Reading lifecycle fields off the returned object would race;
        use :meth:`doc` / :meth:`result_doc` for consistent snapshots.
        """
        with self._lock:
            return self._jobs.get(job_id)

    def doc(self, job_id: str) -> Optional[Dict[str, object]]:
        """A consistent public job document, built under the lock."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job._doc() if job is not None else None

    def result_doc(self, job_id: str) -> Optional[Dict[str, object]]:
        """An atomic ``{state, result, error}`` snapshot of one job."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            return {"state": job.state, "result": job.result,
                    "error": job.error}

    def cancel(self, job_id: str) -> Optional[str]:
        """``"cancelled"`` on success, the blocking state (``running`` /
        terminal) when too late, None when no such job exists."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state != "queued":
                return job.state
            job.state = "cancelled"
            job.finished_ns = time.perf_counter_ns()
            return "cancelled"

    def list_doc(self) -> Dict[str, object]:
        """``GET /v1/jobs``: every job, in submission order."""
        with self._lock:
            jobs = [job._doc() for job in self._jobs.values()]
        return {"schema": JOBS_SCHEMA, "jobs": jobs}

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            counts["max_jobs"] = self.max_jobs
            counts["pruned"] = self._pruned
        return counts

    # ------------------------------------------------------------- lifecycle
    @holds_no_locks(reason="joins executor worker threads")
    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

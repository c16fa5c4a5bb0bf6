"""The long-lived asyncio floorplanning service (in-process client API).

:class:`FloorplanService` is the hardened surface every later scale item
talks to: requests come in (HTTP via :mod:`repro.service.server`, or this
class directly), pass **admission control**, are journaled durably,
deduplicated against the **persistent artifact cache** and against
identical **in-flight** work, and execute on crash-isolated single-worker
process pools with retry, exponential backoff and quarantine — each
attempt through :func:`~repro.resilience.isolation.run_isolated`, the
same call the Table I sweep makes per entry.

Robustness contract:

* an *accepted* job (journal record ``accepted``) eventually reaches
  exactly one terminal state, across any number of service crashes —
  restart resumption replays pending work from the journal;
* a *served* artifact is bit-identical to the one-shot CLI's answer for
  the same request: results come from the shared ``repro.service.worker``
  pipeline, and cached hits are re-certified by ``repro.verify`` before
  being returned;
* a worker crash, hang or typed flow failure never takes the service
  down: the job retries on a **fresh** single-worker pool with
  exponential backoff, and repeated crashers are quarantined with a
  typed error response instead of wedging a worker slot;
* drain (SIGTERM) stops intake, finishes in-flight jobs inside a grace
  budget, and leaves still-queued jobs ``accepted`` in the journal for
  the next incarnation.
"""

from __future__ import annotations

import asyncio
import pathlib
import time
from dataclasses import dataclass

from repro.errors import ServiceError, WorkerLostError
from repro.obs import counter, event, get_logger, replay_records
from repro.resilience.faults import should_inject
from repro.resilience.isolation import run_isolated
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.cache import ArtifactCache
from repro.service.jobs import (
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    Job,
    JobStore,
    new_job_id,
)
from repro.service.request import FloorplanRequest
from repro.service.worker import execute_request

_log = get_logger("service")

#: Sleep between requeue attempts for tenants at their concurrency quota.
_QUOTA_POLL_S = 0.05


@dataclass
class ServiceConfig:
    """Everything a service instance needs to know."""

    #: Durable state root: job journal, artifact cache, endpoint file.
    state_dir: str | pathlib.Path = "service-state"
    #: Parallel job slots (each job runs on its own single-worker pool).
    concurrency: int = 2
    #: Extra attempts after the first failed/crashed one.
    retries: int = 2
    #: Base of the exponential backoff between attempts (doubles each).
    retry_backoff_s: float = 0.25
    #: Hard wall-clock limit per attempt; a worker still running past it
    #: is killed and the attempt counts as a crash (None = no limit).
    attempt_timeout_s: float | None = 300.0
    #: Grace budget for :meth:`FloorplanService.drain`.
    drain_grace_s: float = 10.0
    #: Admission-control knobs.
    admission: AdmissionConfig | None = None

    def __post_init__(self) -> None:
        if self.admission is None:
            self.admission = AdmissionConfig()

    @property
    def cache_dir(self) -> pathlib.Path:
        return pathlib.Path(self.state_dir) / "cache"

    @property
    def journal_path(self) -> pathlib.Path:
        return pathlib.Path(self.state_dir) / "jobs.jsonl"


class FloorplanService:
    """Async facade over admission + cache + journal + worker pools."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = ArtifactCache(self.config.cache_dir)
        self.store = JobStore(self.config.journal_path)
        self.admission = AdmissionController(self.config.admission)
        self.jobs: dict[str, Job] = {}
        self._queue: asyncio.Queue[str] | None = None
        self._workers: list[asyncio.Task] = []
        self._events: dict[str, asyncio.Event] = {}
        #: cache key -> job id currently computing that key.
        self._leaders: dict[str, str] = {}
        #: cache key -> follower job ids waiting on the leader.
        self._followers: dict[str, list[str]] = {}
        self._started = False
        self.resumed: list[Job] = []

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        """Spin up worker tasks and resume journaled pending jobs."""
        if self._started:
            raise ServiceError("service already started")
        self._started = True
        self._queue = asyncio.Queue()
        pathlib.Path(self.config.state_dir).mkdir(parents=True, exist_ok=True)
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"service-worker-{i}")
            for i in range(max(1, self.config.concurrency))
        ]
        for job in self.store.pending():
            # These were admitted (and acked) by a previous incarnation;
            # they bypass shedding but still occupy queue-depth budget.
            self.admission._admitted[job.request.tenant] = (
                self.admission._admitted.get(job.request.tenant, 0) + 1
            )
            self._register(job)
            self.resumed.append(job)
            counter("service.jobs_resumed").inc()
            event("service.job_resumed", job=job.job_id)
            await self._route(job)
        if self.resumed:
            _log.warning(
                "resumed %d pending job(s) from %s",
                len(self.resumed), self.store.journal.path,
            )

    async def close(self) -> None:
        """Stop worker tasks (in-flight pools are killed, jobs stay
        ``accepted`` in the journal for the next incarnation)."""
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._started = False

    async def drain(self, grace_s: float | None = None) -> bool:
        """Stop intake and wait for in-flight work; True when clean.

        After the grace budget, still-unfinished jobs remain ``accepted``
        in the journal — a restarted service picks them up — so an
        over-budget drain loses no accepted work, only time.
        """
        self.admission.draining = True
        event("service.draining", jobs=len(self.open_jobs()))
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        deadline = time.monotonic() + grace
        for job in list(self.open_jobs()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(
                    self._event_of(job.job_id).wait(), timeout=remaining
                )
            except asyncio.TimeoutError:
                break
        clean = not self.open_jobs()
        counter("service.drains").inc()
        event(
            "service.drained", clean=clean,
            unfinished=len(self.open_jobs()),
        )
        return clean

    # -- submission (the in-process client API) -------------------------------
    async def submit(self, request: FloorplanRequest | dict) -> Job:
        """Admit one request; returns the journaled :class:`Job`.

        Raises :class:`~repro.errors.AdmissionError` (with a retry-after
        hint) when shedding, :class:`~repro.errors.ServiceError` for
        malformed requests.  The returned job may already be terminal
        (cache hit).
        """
        if not self._started:
            raise ServiceError("service is not started")
        if isinstance(request, dict):
            request = FloorplanRequest.from_dict(request)
        else:
            request.validate()
        self.admission.admit(request.tenant)
        job = Job(job_id=new_job_id(), request=request)
        self._register(job)
        self.store.record_accepted(job)
        counter("service.jobs_accepted").inc()
        await self._route(job)
        return job

    async def run(
        self, request: FloorplanRequest | dict, timeout: float | None = None
    ) -> Job:
        """Submit and wait — the one-call in-process client."""
        job = await self.submit(request)
        return await self.wait(job.job_id, timeout=timeout)

    async def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` is terminal (or ``timeout`` elapses)."""
        job = self.job(job_id)
        if not job.terminal:
            await asyncio.wait_for(
                self._event_of(job_id).wait(), timeout=timeout
            )
        return job

    def job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job {job_id!r}") from None

    def open_jobs(self) -> list[Job]:
        return [job for job in self.jobs.values() if not job.terminal]

    # -- routing: cache, coalescing, queue ------------------------------------
    def _register(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        self._events[job.job_id] = asyncio.Event()

    def _event_of(self, job_id: str) -> asyncio.Event:
        return self._events[job_id]

    async def _route(self, job: Job) -> None:
        """Send an admitted job to the cheapest sufficient path.

        Leadership is claimed *before* the (awaiting) cache probe so two
        concurrent identical submissions cannot both become leaders.
        """
        key = job.request.cache_key()
        leader_id = self._leaders.get(key)
        if leader_id is not None and not self.jobs[leader_id].terminal:
            job.coalesced = True
            self._followers.setdefault(key, []).append(job.job_id)
            counter("service.jobs_coalesced").inc()
            event("service.job_coalesced", job=job.job_id, leader=leader_id)
            return
        self._leaders[key] = job.job_id
        cached = await asyncio.to_thread(self.cache.fetch, key)
        if cached is not None:
            self._complete(job, key, cached, cache_hit=True)
            return
        await self._queue.put(job.job_id)

    # -- worker loop -----------------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            job_id = await self._queue.get()
            job = self.jobs.get(job_id)
            if job is None or job.status != QUEUED:
                continue
            tenant = job.request.tenant
            if not self.admission.acquire(tenant):
                # Tenant at its concurrency quota: requeue after a beat
                # so other tenants' jobs flow past it.
                await asyncio.sleep(_QUOTA_POLL_S)
                await self._queue.put(job_id)
                continue
            try:
                await self._run_job(job)
            finally:
                self.admission.release(tenant)

    async def _run_job(self, job: Job) -> None:
        """Attempt ladder of one job: fresh pool, backoff, quarantine."""
        job.status = RUNNING
        key = job.request.cache_key()
        attempts = max(1, self.config.retries + 1)
        last_error = "unknown failure"
        crashed = False
        for attempt in range(attempts):
            job.attempts = attempt + 1
            if attempt:
                backoff = self.config.retry_backoff_s * 2 ** (attempt - 1)
                counter("service.job_retries").inc()
                event(
                    "service.job_retry", job=job.job_id, attempt=attempt + 1,
                    backoff_s=backoff, error=last_error,
                )
                await asyncio.sleep(backoff)
            # Fault verdict taken here, parent-side, so hit counters are
            # deterministic across forked workers.
            inject = "crash" if should_inject("service_worker_crash") else None
            outcome, failure = await self._attempt(job, inject)
            if outcome is not None and outcome["ok"]:
                replay_records(outcome["trace_records"])
                job.wall_s = outcome["wall_s"]
                document = outcome["document"]
                await asyncio.to_thread(self.cache.put, key, document)
                self._complete(job, key, document, cache_hit=False)
                return
            if outcome is not None:
                replay_records(outcome["trace_records"])
                last_error, crashed = outcome["error"], False
            else:
                last_error, crashed = failure, True
                counter("service.worker_crashes").inc()
                event(
                    "service.worker_crash", job=job.job_id,
                    attempt=attempt + 1, error=failure,
                )
        self._fail(job, last_error, quarantined=crashed)

    async def _attempt(
        self, job: Job, inject: str | None
    ) -> tuple[dict | None, str]:
        """One crash-isolated attempt on a fresh single-worker process.

        Returns ``(outcome, "")`` on a worker that returned at all, or
        ``(None, reason)`` for hard deaths (crash, kill, timeout).  On
        service shutdown the worker is killed and the job stays
        ``accepted`` in the journal for the next incarnation.
        """
        try:
            outcome = await run_isolated(
                execute_request, (job.request.to_dict(),),
                self.config.attempt_timeout_s, inject,
            )
        except WorkerLostError as lost:
            if lost.timed_out:
                counter("service.worker_timeouts").inc()
            return None, str(lost)
        return outcome, ""

    # -- terminal transitions --------------------------------------------------
    def _complete(
        self, job: Job, key: str, document: dict, cache_hit: bool
    ) -> None:
        job.status = DONE
        job.result_key = key
        job.document = document
        job.summary = document.get("summary")
        job.cache_hit = cache_hit
        self.store.record_done(job)
        self.admission.finish(job.request.tenant)
        counter("service.jobs_done").inc()
        event(
            "service.job_done", job=job.job_id, key=key,
            cache_hit=cache_hit, attempts=job.attempts,
        )
        self._events[job.job_id].set()
        self._resolve_followers(key)

    def _fail(self, job: Job, error: str, quarantined: bool) -> None:
        job.status = QUARANTINED if quarantined else FAILED
        job.error = error
        self.store.record_failed(job, quarantined=quarantined)
        self.admission.finish(job.request.tenant)
        counter(
            "service.jobs_quarantined" if quarantined
            else "service.jobs_failed"
        ).inc()
        event(
            "service.job_failed", job=job.job_id, error=error,
            quarantined=quarantined, attempts=job.attempts,
        )
        self._events[job.job_id].set()
        self._resolve_followers(job.request.cache_key())

    def _resolve_followers(self, key: str) -> None:
        """Leader finished: settle (or promote) everyone waiting on it."""
        self._leaders.pop(key, None)
        followers = self._followers.pop(key, [])
        if followers:
            asyncio.get_running_loop().create_task(
                self._settle_followers(key, followers)
            )

    async def _settle_followers(self, key: str, follower_ids: list[str]) -> None:
        for job_id in follower_ids:
            job = self.jobs[job_id]
            if job.terminal:
                continue
            cached = await asyncio.to_thread(self.cache.fetch, key)
            if cached is not None:
                self._complete(job, key, cached, cache_hit=True)
                continue
            # Leader failed (or its artifact did not survive): this
            # follower takes over as a fresh leader and computes.
            job.coalesced = False
            await self._route(job)

    # -- reporting -------------------------------------------------------------
    def stats(self) -> dict:
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "jobs": by_status,
            "admission": self.admission.stats(),
            "cache": self.cache.stats(),
            "resumed": len(self.resumed),
        }

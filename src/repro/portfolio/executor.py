"""The hedged racing executor: first certified answer wins.

:class:`PortfolioBackend` implements the backend ``solve`` protocol by
racing several lanes (see :mod:`repro.portfolio.lanes`) over the same
model.  The design goals, in priority order:

1. **Never accept a wrong answer.**  Every positive result passes the
   PR 5 certifier (:func:`repro.verify.certify_solution`) before it can
   win; an uncertifiable lane result is a *lane* failure, never a flow
   failure, and never emits ``certification.failed``.
2. **Survive lane failures.**  A crashed, hung, timed-out or lying lane
   is struck and charged to its circuit breaker; the race continues on
   the remaining lanes.  Only when *every* lane fails does the solve
   raise, and then the caller's degradation ladder takes over.
3. **Stay deterministic when healthy.**  Racing is hedged, not
   simultaneous: the leader lane starts immediately, every other lane
   waits ``hedge_delay_s`` (released early only when all started lanes
   have terminally failed).  On models the leader solves inside the
   hedge window — all smoke benchmarks — backup lanes never start, so a
   no-fault portfolio run is bit-identical to a serial run on the
   leader backend.

Threading model: one daemon thread per lane, each running in its own
``contextvars.copy_context()`` so spans nest under the ``portfolio``
span and the race's :class:`~repro.portfolio.cancel.CancelToken` plus a
per-lane :class:`~repro.resilience.deadline.Deadline` are visible only
inside that lane.  The model is compiled once parent-side before any
thread starts, so lanes share the lowering cache read-only.  A lane that
ignores cancellation past its grace period is abandoned (daemon threads
die with the process) and recorded as hung.
"""

from __future__ import annotations

import contextvars
import dataclasses
import queue
import threading
import time

from repro.errors import (
    DeadlineExceededError,
    SolverError,
    WarmStartError,
)
from repro.milp.expr import VarType
from repro.milp.model import Model
from repro.milp.status import Solution, SolveStatus
from repro.obs import counter, event, get_logger, span
from repro.obs.solverstats import SolveStats
from repro.portfolio.breaker import (
    ADMIT_RUN,
    ADMIT_SKIP,
    BreakerBoard,
)
from repro.portfolio.cancel import CancelToken, cancel_scope
from repro.portfolio.lanes import (
    DEFAULT_LANES,
    lane_applicable,
    make_lane_backend,
)
from repro.resilience.deadline import Deadline, current_deadline, deadline_scope
from repro.resilience.faults import decide_lane_fault

_log = get_logger("portfolio.executor")

#: Races kept in the in-memory log / ``portfolio_snapshot``.
MAX_RACE_LOG = 20
#: Floor/ceiling of the post-decision grace join for losing lanes.
MIN_GRACE_S = 0.25
MAX_GRACE_S = 2.0
#: A running loser is "overtaken" (a breaker failure, unlike merely
#: losing) when it started no later than the winner and is still running
#: after OVERTAKE_FACTOR x the winner's solve time plus the slack.
OVERTAKE_FACTOR = 2.0
OVERTAKE_SLACK_S = 0.1


@dataclasses.dataclass
class _LaneRun:
    """One lane's participation in one race (mutated across threads)."""

    lane: str
    backend: object
    admit: str
    delay_s: float = 0.0
    fault: str | None = None
    release: threading.Event = dataclasses.field(default_factory=threading.Event)
    thread: threading.Thread | None = None
    #: "waiting" -> "running" -> "done" | "skipped" (set by the lane
    #: thread); the executor owns the post-race classification fields.
    state: str = "waiting"
    started_s: float | None = None
    finished_s: float | None = None
    outcome: str = ""  # "answered" | "crash" | "timeout" | "hang" | "skipped"
    solution: Solution | None = None
    error: BaseException | None = None
    #: The executor's final verdict: "won", "infeasible", "lost",
    #: "skipped", or a FAILURE_KINDS entry.
    verdict: str = ""
    cancelled_at_s: float | None = None

    def row(self) -> dict:
        """JSON-safe per-lane race-record row."""
        status = self.solution.status.value if self.solution else ""
        reason = ""
        if self.solution is not None and self.solution.stats is not None:
            reason = self.solution.stats.limit_reason
        return {
            "lane": self.lane,
            "admit": self.admit,
            "verdict": self.verdict,
            "started_s": None if self.started_s is None else round(self.started_s, 6),
            "finished_s": None if self.finished_s is None else round(self.finished_s, 6),
            "cancelled_at_s": (
                None if self.cancelled_at_s is None else round(self.cancelled_at_s, 6)
            ),
            "status": status,
            "limit_reason": reason,
            "fault": self.fault or "",
        }


class PortfolioBackend:
    """Race solver lanes; return the first *certified* answer.

    Implements the backend protocol (``solve(model, **options)``), so it
    drops into :func:`repro.core.algorithm1.run_algorithm1` and the
    Step-1 Δ-scan unchanged.  One instance carries its circuit
    breakers and race log across every solve of a run, which is how
    breaker demotion persists across Algorithm 1 iterations.
    """

    def __init__(
        self,
        lanes: tuple[str, ...] = DEFAULT_LANES,
        time_limit: float | None = None,
        hedge_delay_s: float = 1.5,
        lane_timeout_s: float | None = None,
        certify: bool = True,
    ) -> None:
        if not lanes:
            raise SolverError("portfolio needs at least one lane")
        self.lane_names = tuple(lanes)
        self.backends = {
            name: make_lane_backend(name, time_limit)
            for name in self.lane_names
        }
        self.board = BreakerBoard(self.lane_names)
        self.hedge_delay_s = float(hedge_delay_s)
        self.lane_timeout_s = lane_timeout_s
        self.certify = certify
        self.solves = 0
        self.winners: dict[str, int] = {}
        self.races: list[dict] = []

    # -- public protocol ------------------------------------------------------
    def solve(self, model: Model, **options) -> Solution:
        outer = current_deadline()
        outer.check(f"portfolio:{model.name}")
        self.solves += 1
        fault = decide_lane_fault()
        # Compile parent-side so racing threads share the cache read-only.
        model.to_matrix_form()
        runs = self._admit(model, fault)
        with span(
            "portfolio",
            model=model.name,
            lanes=",".join(run.lane for run in runs),
            fault=fault or "",
        ):
            if len(runs) == 1:
                return self._finish(model, runs, self._run_inline(model, runs[0], options))
            return self._finish(model, runs, self._race(model, runs, options))

    def portfolio_snapshot(self) -> dict:
        """JSON-safe state for ``Algorithm1Stats.portfolio``."""
        return {
            "schema": 1,
            "lanes": list(self.lane_names),
            "hedge_delay_s": self.hedge_delay_s,
            "solves": self.solves,
            "winners": dict(self.winners),
            "breakers": self.board.snapshot(),
            "races": [dict(race) for race in self.races],
        }

    # -- admission ------------------------------------------------------------
    def _admit(self, model: Model, fault: str | None) -> list[_LaneRun]:
        runs: list[_LaneRun] = []
        skipped: list[str] = []
        for name in self.lane_names:
            backend = self.backends[name]
            if not lane_applicable(name, backend, model):
                continue
            admit = self.board[name].admit()
            if admit == ADMIT_SKIP:
                skipped.append(name)
                continue
            runs.append(_LaneRun(lane=name, backend=backend, admit=admit))
        if not runs:
            # Every applicable lane is quarantined; a solve must still be
            # attempted, so force-probe the configured leader.
            for name in self.lane_names:
                backend = self.backends[name]
                if lane_applicable(name, backend, model):
                    _log.warning(
                        "all lanes quarantined; force-probing %r", name
                    )
                    runs.append(
                        _LaneRun(lane=name, backend=backend, admit=ADMIT_RUN)
                    )
                    break
            if not runs:
                raise SolverError(
                    f"no portfolio lane is applicable to model {model.name!r}"
                )
        # The leader is the first breaker-healthy lane; a demoted (hedged)
        # configured leader hands the slot to the next healthy lane.
        leader = next((run for run in runs if run.admit == ADMIT_RUN), runs[0])
        for run in runs:
            run.delay_s = 0.0 if run is leader else self.hedge_delay_s
        # Lane faults stick to the *configured* leading backend (the
        # first lane name), wherever the breaker has moved it: that is
        # what lets "lane_crash" keep hitting HiGHS after demotion while
        # the backup serves every solve.
        if fault is not None:
            for run in runs:
                if run.lane == self.lane_names[0]:
                    run.fault = fault
                    break
        return runs

    # -- single-lane fast path ------------------------------------------------
    def _run_inline(self, model: Model, run: _LaneRun, options) -> _LaneRun | None:
        """Run the only admitted lane in the calling thread (no race)."""
        token = CancelToken()
        t0 = time.perf_counter()
        self._lane_body(run, model, options, token, t0)
        return self._classify_terminal(model, run, leader=run)

    # -- the race -------------------------------------------------------------
    def _race(self, model: Model, runs: list[_LaneRun], options) -> _LaneRun | None:
        outer = current_deadline()
        token = CancelToken()
        results: queue.Queue = queue.Queue()
        t0 = time.perf_counter()
        leader = next(run for run in runs if run.delay_s == 0.0)
        for run in runs:
            ctx = contextvars.copy_context()
            run.thread = threading.Thread(
                target=ctx.run,
                args=(self._lane_thread, run, model, options, token, t0, results),
                name=f"portfolio-{run.lane}",
                daemon=True,
            )
        for run in runs:
            run.thread.start()

        winner: _LaneRun | None = None
        held_infeasible: list[_LaneRun] = []
        pending = {run.lane: run for run in runs}
        try:
            while pending:
                try:
                    outer.check(f"portfolio:{model.name}")
                except DeadlineExceededError:
                    raise
                try:
                    run = results.get(timeout=0.05)
                except queue.Empty:
                    self._strike_overdue(pending, outer, t0)
                    self._maybe_release(runs, pending)
                    continue
                pending.pop(run.lane, None)
                verdict = self._classify_terminal(model, run, leader)
                if verdict is not None:
                    if verdict.solution is not None and (
                        verdict.solution.status is SolveStatus.INFEASIBLE
                        and run is not leader
                    ):
                        held_infeasible.append(verdict)
                    else:
                        winner = verdict
                        break
                self._maybe_release(runs, pending)
        finally:
            token.cancel()
            for run in runs:
                run.release.set()

        if winner is None and held_infeasible:
            # All lanes resolved; a backup's proven INFEASIBLE is the
            # best (and a sound) answer.
            winner = held_infeasible[0]
            winner.verdict = "infeasible"
        self._reap_losers(runs, winner, t0)
        return winner

    # -- lane threads ---------------------------------------------------------
    def _lane_thread(self, run, model, options, token, t0, results) -> None:
        try:
            self._lane_body(run, model, options, token, t0)
        finally:
            results.put(run)

    def _lane_body(self, run: _LaneRun, model, options, token: CancelToken, t0) -> None:
        if run.delay_s > 0.0:
            run.release.wait(run.delay_s)
        if token.cancelled:
            run.state = "skipped"
            run.outcome = "skipped"
            return
        run.started_s = time.perf_counter() - t0
        run.state = "running"
        try:
            with cancel_scope(token):
                with deadline_scope(self._lane_deadline()):
                    if run.fault == "lane_crash":
                        raise SolverError(
                            f"fault injection: lane crash in {run.lane!r}"
                        )
                    if run.fault == "lane_hang":
                        # A real native hang never returns; the injected
                        # one honours only the cancel token, so the
                        # thread is reclaimed once the race is decided
                        # while staying invisible to the decision logic.
                        token.wait()
                        run.outcome = "hang"
                        return
                    solution = run.backend.solve(model, **options)
                    if (
                        run.fault == "lane_wrong_answer"
                        and solution.status.has_solution
                    ):
                        solution = _corrupt_solution(solution)
            run.solution = solution
            run.outcome = "answered"
        except DeadlineExceededError as exc:
            run.outcome = "timeout"
            run.error = exc
        except Exception as exc:  # noqa: BLE001 - a lane must never kill the race
            run.outcome = "crash"
            run.error = exc
        finally:
            run.finished_s = time.perf_counter() - t0
            if run.state == "running":
                run.state = "done"

    def _lane_deadline(self) -> Deadline | None:
        """Per-lane budget: min(lane timeout, remaining outer budget)."""
        outer = current_deadline()
        remaining = outer.remaining_s()
        budget = self.lane_timeout_s
        if remaining != float("inf"):
            budget = remaining if budget is None else min(budget, remaining)
        if budget is None:
            return None
        return Deadline.after(max(budget, 0.0))

    # -- classification -------------------------------------------------------
    def _classify_terminal(
        self, model: Model, run: _LaneRun, leader: _LaneRun
    ) -> _LaneRun | None:
        """Judge one finished lane.

        Returns ``run`` when it carries an answer the race can end on
        (a certified positive, or a proven INFEASIBLE — the caller holds
        backup INFEASIBLEs until the leader resolves); ``None`` when the
        lane is struck or neutral.
        """
        if run.outcome == "skipped":
            run.verdict = "skipped"
            return None
        if run.outcome == "hang":
            self._fail(run, "hang")
            return None
        if run.outcome == "timeout":
            self._fail(run, "timeout")
            return None
        if run.outcome == "crash":
            if isinstance(run.error, WarmStartError):
                # A malformed hint is a caller bug, not lane weather —
                # surface it instead of letting the race paper over it.
                raise run.error
            self._fail(run, "crash")
            return None
        solution = run.solution
        if solution is None:  # pragma: no cover - defensive
            self._fail(run, "crash")
            return None
        if solution.status.has_solution and (
            solution.values or model.num_variables == 0
        ):
            # An empty values mapping is a *valid* answer on a
            # zero-variable model (every op frozen — Algorithm 1's last
            # rotate iteration does this); only a missing assignment on a
            # model that has variables is a lane failure.
            if self.certify and not self._gate(model, run, solution):
                return None
            run.verdict = "won"
            return run
        if solution.status is SolveStatus.INFEASIBLE:
            run.verdict = "infeasible"
            return run
        reason = solution.stats.limit_reason if solution.stats else ""
        if reason in ("cancelled", "incomplete"):
            run.verdict = "lost"
            return None
        self._fail(run, "timeout" if reason in ("deadline", "time_limit") else "crash")
        return None

    def _gate(self, model: Model, run: _LaneRun, solution: Solution) -> bool:
        """Certify a positive lane answer; a failed gate strikes the lane.

        Uses :func:`repro.verify.certify_solution` directly — the winner
        gate emits ``portfolio.lane_rejected``, never
        ``certification.failed``, because a lying *lane* is a portfolio
        event, not a flow-level certification failure.
        """
        from repro.verify import certify_solution

        certificate = certify_solution(model, solution)
        if certificate.ok:
            return True
        counter("portfolio.lane_rejected").inc()
        event(
            "portfolio.lane_rejected",
            lane=run.lane,
            model=model.name,
            violations=len(certificate.violations),
            first=str(certificate.violations[0]) if certificate.violations else "",
        )
        _log.warning(
            "lane %r returned an uncertifiable solution for %s (%d violations)",
            run.lane, model.name, len(certificate.violations),
        )
        self._fail(run, "rejected")
        return False

    def _fail(self, run: _LaneRun, kind: str) -> None:
        run.verdict = kind
        self.board[run.lane].record_failure(kind)

    # -- supervision ----------------------------------------------------------
    def _strike_overdue(self, pending: dict, outer: Deadline, t0) -> None:
        """Abandon lanes that blew far past their budget without posting.

        Covers the *real*-hang case (a native call that ignores both the
        cancel token and its deadline): the thread cannot be killed, but
        the race must not wait for it forever.
        """
        now = time.perf_counter() - t0
        budget = self.lane_timeout_s
        if budget is None:
            remaining = outer.remaining_s()
            if remaining == float("inf"):
                return
            budget = remaining
        for run in list(pending.values()):
            if run.state != "running" or run.started_s is None:
                continue
            if now - run.started_s > budget + 1.0:
                pending.pop(run.lane, None)
                self._fail(run, "hang")
                _log.warning(
                    "lane %r abandoned after %.3fs (budget %.3fs)",
                    run.lane, now - run.started_s, budget,
                )

    @staticmethod
    def _maybe_release(runs: list[_LaneRun], pending: dict) -> None:
        """Start hedged lanes early once every started lane has failed.

        A lane that is still ``waiting`` with a zero delay is the leader
        whose thread has not been scheduled yet — it counts as active, or
        the first post-spawn poll would release every backup instantly.
        """
        for run in runs:
            if run.lane not in pending:
                continue
            if run.state == "running":
                return
            if run.state == "waiting" and run.delay_s == 0.0:
                return
        for run in runs:
            if run.state == "waiting" and run.lane in pending:
                run.release.set()

    def _reap_losers(self, runs: list[_LaneRun], winner, t0) -> None:
        """Cancel, grace-join and judge the lanes still out on track."""
        decided_at = time.perf_counter() - t0
        winner_elapsed = None
        if winner is not None and winner.started_s is not None:
            winner_elapsed = (winner.finished_s or decided_at) - winner.started_s
        grace = MIN_GRACE_S
        if winner_elapsed is not None:
            grace = min(
                max(MIN_GRACE_S, OVERTAKE_FACTOR * winner_elapsed + OVERTAKE_SLACK_S),
                MAX_GRACE_S,
            )
        for run in runs:
            if run is winner or run.verdict not in ("", "lost"):
                continue
            if run.thread is not None and run.thread.is_alive():
                run.cancelled_at_s = decided_at
                run.thread.join(grace)
                if run.thread.is_alive():
                    # Still running after cancellation + grace: hung (or
                    # overtaken so badly it amounts to the same thing).
                    self._fail(run, self._loser_kind(run, winner, winner_elapsed, t0))
                    continue
            if run.verdict:
                continue
            if run.outcome == "hang":
                self._fail(run, "hang")
            elif run.outcome in ("skipped", ""):
                run.verdict = "skipped"
            elif run.outcome == "crash":
                self._fail(run, "crash")
            elif run.outcome == "timeout":
                self._fail(run, "timeout")
            else:
                run.verdict = "lost"

    @staticmethod
    def _loser_kind(run, winner, winner_elapsed, t0) -> str:
        """Hung vs merely slow: the overtaken rule."""
        if winner is None or winner_elapsed is None or run.started_s is None:
            return "hang"
        started_before_winner = run.started_s <= (winner.started_s or 0.0)
        ran_for = (time.perf_counter() - t0) - run.started_s
        if started_before_winner and ran_for > (
            OVERTAKE_FACTOR * winner_elapsed + OVERTAKE_SLACK_S
        ):
            return "overtaken"
        return "hang"

    # -- bookkeeping ----------------------------------------------------------
    def _finish(
        self, model: Model, runs: list[_LaneRun], winner: _LaneRun | None
    ) -> Solution:
        verdict = "failed"
        margin_s = None
        if winner is not None:
            verdict = winner.verdict if winner.verdict else "won"
            self.board[winner.lane].record_success()
            self.winners[winner.lane] = self.winners.get(winner.lane, 0) + 1
            finishers = sorted(
                (
                    run.finished_s
                    for run in runs
                    if run is not winner and run.finished_s is not None
                    and run.outcome == "answered"
                ),
            )
            if finishers and winner.finished_s is not None:
                margin_s = round(finishers[0] - winner.finished_s, 6)
        race = {
            "model": model.name,
            "winner": winner.lane if winner is not None else "",
            "verdict": verdict,
            "margin_s": margin_s,
            "lanes": [run.row() for run in runs],
        }
        self.races.append(race)
        if len(self.races) > MAX_RACE_LOG:
            del self.races[0]
        event("portfolio.race", **race)
        counter("portfolio.races").inc()
        if winner is None:
            details = "; ".join(
                f"{run.lane}: {run.verdict or run.outcome}"
                f"{f' ({run.error})' if run.error else ''}"
                for run in runs
            )
            raise SolverError(
                f"all portfolio lanes failed for model {model.name!r}: {details}"
            )
        solution = winner.solution
        assert solution is not None
        if solution.stats is None:
            solution.stats = SolveStats(backend=winner.lane)
        solution.stats.lane = winner.lane
        return solution


def _corrupt_solution(solution: Solution) -> Solution:
    """The ``lane_wrong_answer`` fault: a plausible but wrong answer.

    Flips the first binary variable (or bumps the first variable when no
    binary exists), exactly the kind of off-by-one a buggy backend would
    produce — close enough to fool a status check, caught only by the
    certification gate.
    """
    values = dict(solution.values)
    target = None
    for var in values:
        if var.vtype is not VarType.CONTINUOUS:
            target = var
            break
    if target is None and values:
        target = next(iter(values))
    if target is not None:
        if target.vtype is VarType.BINARY:
            values[target] = 1.0 - values[target]
        else:
            values[target] = values[target] + 1.0
    return dataclasses.replace(
        solution,
        values=values,
        message=f"fault injection: corrupted answer ({solution.message})",
    )

"""``serve-hit`` and ``serve-miss``: ``repro serve`` over HTTP.

Each workload starts ``repro serve`` at default settings, waits for its
"serving on" banner and ``/readyz``, and drives it with a closed loop of
two connections (one per default job slot) sending blocking
``ServiceClient.submit(wait=True)`` requests.
"""

from __future__ import annotations

import collections
import json
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import gate
import layers
import pools
from stats import done_values, gmean

CONNECTIONS = 2
CLIENT_TIMEOUT_S = 150.0
_BANNER = re.compile(r"serving on http://([^:\s]+):(\d+)")


class Server:
    """One ``repro serve`` process; ready once its banner is read."""

    def __init__(self, ctx, state_dir, trace_path=None) -> None:
        self.ctx = ctx
        self.state_dir = state_dir
        self.trace_path = trace_path
        self.process = None
        self.client = None
        self.log: collections.deque[str] = collections.deque(maxlen=200)
        self._reader = None

    def start(self) -> float:
        """Launch and block until ``/readyz`` answers; returns seconds."""
        from repro.service import ServiceClient

        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", str(self.state_dir), "--port", "0",
        ]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=self.ctx.root, env=self.ctx.env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        match = None
        for line in self.process.stderr:
            self.log.append(line)
            match = _BANNER.search(line)
            if match:
                break
        if match is None:
            self.stop()
            raise RuntimeError("repro serve exited: " + "".join(self.log))
        self.client = ServiceClient(
            match.group(1), int(match.group(2)), timeout_s=CLIENT_TIMEOUT_S
        )
        if not self.client.ready():
            self.stop()
            raise RuntimeError("repro serve is not ready after its banner")
        seconds = time.perf_counter() - start
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        return seconds

    def _drain(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)

    def journal_lines(self) -> int:
        path = self.state_dir / "jobs.jsonl"
        if not path.exists():
            return 0
        with path.open("rb") as handle:
            return sum(1 for _ in handle)

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; kill if it will not end."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.process.stderr.close()


def _cold_starts(ctx, name: str, kept=None) -> tuple[list[float], Server]:
    """``ctx.setup_count`` cold starts; the last server stays up.

    Each starts on a fresh state directory, holding a copy of the cache
    objects in ``kept`` when that exists.
    """
    times, server = [], None
    for index in range(ctx.setup_count):
        if server is not None:
            server.stop()
        server = Server(ctx, ctx.run_dir / f"{name}-state-{index}")
        if kept is not None and kept.exists():
            shutil.copytree(kept, server.state_dir / "cache" / "objects")
        times.append(server.start())
    return times, server


def _keep_cache(server: Server, kept) -> None:
    """Keep the server's cache objects at ``kept`` if none are kept yet."""
    if kept.exists():
        return
    tmp = kept.with_name(kept.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(server.state_dir / "cache" / "objects", tmp)
    tmp.replace(kept)


def _submit(client, request: dict) -> dict:
    """One blocking request: a ledger row holding the returned document."""
    from repro.errors import AdmissionError, ServiceError

    row = {"name": pools.label(request), "request": request}
    row["sent"] = start = time.perf_counter()
    try:
        view = client.submit(request, wait=True)
    except AdmissionError as exc:
        row.update(status="shed", error=str(exc))
    except ServiceError as exc:
        timed_out = isinstance(exc.__cause__, TimeoutError)
        row.update(status="timed_out" if timed_out else "failed",
                   error=str(exc))
    else:
        row["latency_s"] = time.perf_counter() - start
        status = view["status"]
        row.update(
            key=view["key"], cache_hit=view["cache_hit"],
            wall_s=view["wall_s"], attempts=view["attempts"],
            summary=view["summary"], document=view.get("document"),
            status={"done": "done", "failed": "failed",
                    "quarantined": "failed"}.get(status, "timed_out"),
            error=view.get("error"),
        )
    row["end"] = time.perf_counter()
    return row


def _phase(server: Server, draw, count: int):
    """Closed loop of ``CONNECTIONS`` threads sending ``count`` requests
    drawn from the shared stream ``draw``.

    Rows keep their documents: digests are taken after the phase
    (``gate.distinct``), so no client-side work sits between requests.
    Returns the rows and the wall time from the start to the last
    completion.
    """
    rows, lock = [], threading.Lock()
    sent = 0
    start = time.perf_counter()

    def loop() -> None:
        nonlocal sent
        while True:
            with lock:
                if sent == count:
                    return
                sent += 1
                request = draw()
            row = _submit(server.client, request)
            with lock:
                rows.append(row)

    threads = [threading.Thread(target=loop) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for row in rows:
        row["end"] -= start
    return rows, max(row["end"] for row in rows)


def _read_trace(path, window) -> list[dict]:
    """Span and event records of a served trace that start in ``window``.

    Span timestamps are ``perf_counter`` readings, which on Linux come
    from the system-wide monotonic clock, so the server's and its
    workers' records compare directly with this process's clock.
    """
    start, end = window
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("type") in ("span", "event") and (
                start <= record.get("t_s", start - 1) <= end
            ):
                records.append(record)
    return records


def _job_records(records) -> dict[str, list[dict]]:
    """Worker span blocks of a served trace, keyed by ``key[:12]``.

    The service replays each job's worker records in one piece, ending
    with the job's root ``service_job`` span.
    """
    jobs, current = {}, []
    for record in records:
        path = record.get("path") or ""
        if path != "service_job" and not path.startswith("service_job > "):
            continue
        current.append(record)
        if record.get("type") == "span" and record["name"] == "service_job":
            jobs[(record.get("attrs") or {}).get("key")] = current
            current = []
    return jobs


def _measure(ctx, server: Server, hit: bool, pool, seconds: float):
    """One timed phase: a fixed number of requests from the seeded stream."""
    if hit:
        stream = pools.hit_stream(pool, ctx.seed)
        count = pools.phase_count(seconds, pools.HIT_RATE_PER_S, len(pool))
    else:
        stream = pools.miss_stream(ctx.seed)
        count = pools.phase_count(
            seconds, pools.MISS_RATE_PER_S, len(pools.miss_pool())
        )
    return _phase(server, stream.__next__, count)


def run(ctx, workload: str) -> dict:
    hit = workload == "serve-hit"
    # The hit pool is computed by the service on a checkout's first run
    # and its artifacts kept for later runs (per source tree, like the
    # one-shot references), then hit once; a miss run warms the server
    # with one miss whose key is outside the stream.
    warm = pools.hit_pool() if hit else [_miss_warmup()]
    kept = (
        ctx.work_dir / "hit-pool" / gate.source_digest(ctx.root)[:16]
        if hit else None
    )
    setup, server = _cold_starts(ctx, workload, kept)
    servers = [server]
    try:
        _warm(server, warm, rounds=2 if hit else 1)
        if hit:
            _keep_cache(server, kept)
        if not ctx.trace:
            rows, wall = _measure(ctx, server, hit, warm, ctx.seconds)
        else:
            untraced, _ = _measure(ctx, server, hit, warm, ctx.seconds / 2)
            server.stop()
            trace_path = ctx.run_dir / f"{workload}-trace.jsonl"
            state = server.state_dir if hit else ctx.run_dir / "traced-state"
            server = Server(ctx, state, trace_path)
            servers.append(server)
            server.start()
            _warm(server, warm, rounds=1)
            front_end = None if hit else _front_end_s(server, warm[0])
            before = server.client.metrics()["metrics"]
            lines = server.journal_lines()
            window = [time.perf_counter()]
            rows, wall = _measure(ctx, server, hit, warm, ctx.seconds / 2)
            window.append(time.perf_counter())
            counters = layers.counter_deltas(
                before, server.client.metrics()["metrics"]
            )
            appended = server.journal_lines() - lines
    finally:
        for each in servers:
            each.stop()
    out = {
        "setup_s": setup,
        "rows": rows,
        "wall_s": wall,
        "documents": gate.distinct(rows),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "expect_hit": hit,
    }
    if ctx.trace:
        out["layers"] = _layers(
            ctx, rows, untraced, out["documents"], counters, appended,
            _read_trace(trace_path, window), front_end, hit,
        )
    return out


def _miss_warmup() -> dict:
    """A miss outside the stream: a pool kernel under a key no lap uses
    (laps ask for 30 s and less)."""
    request = pools.kernel_request("matvec4", 3, "freeze")
    request["time_limit_s"] = 60.0
    request["labels"]["name"] = "warm-up"
    return request


def _warm(server: Server, requests, rounds: int) -> None:
    """Untimed warm-up: send every request ``rounds`` times."""
    for _ in range(rounds):
        rows, _ = _phase(server, iter(requests).__next__, len(requests))
        bad = [row for row in rows if row["status"] != "done"]
        if bad:
            raise RuntimeError(f"warm-up request failed: {bad[0].get('error')}")


#: Hits timed to estimate the front end a miss passes before its worker.
FRONT_END_SAMPLES = 7


def _front_end_s(server: Server, request: dict) -> float:
    """Median latency of repeated hits on one small, already served
    request: HTTP, admission, the journal and the reply, no worker."""
    times = []
    for _ in range(FRONT_END_SAMPLES):
        row = _submit(server.client, request)
        if row["status"] != "done" or not row["cache_hit"]:
            raise RuntimeError(f"front-end probe was not a hit: {row.get('error')}")
        times.append(row["latency_s"])
    return statistics.median(times)


def _layers(ctx, rows, untraced, documents, counters, appended, records,
            front_end, hit: bool) -> dict:
    done = [row for row in rows if row["status"] == "done"]
    n = len(done)
    jobs = _job_records(records)
    replayed: dict[tuple, dict] = {}
    per_request = []
    for row in done:
        pair = (row["key"], row["digest"])
        document = documents[pair]
        if pair not in replayed:
            replayed[pair] = layers.replay(
                row["request"], document, hit=hit, served=True,
                tmp_root=ctx.work_dir,
            )
        values = dict(replayed[pair])
        values["service.overhead_s"] = row["latency_s"] - row["wall_s"]
        values["worker.attempts"] = row["attempts"]
        if not hit:
            job = jobs[row["key"][:12]]
            values.update(layers.flow_layers(job))
            values.update(layers.artifact_layers(document))
            # Send to the start of the worker's job span, less the front
            # end a hit also passes, leaves pool creation, fork and the
            # request's hand-off to the worker.
            values["worker.startup_s"] = max(
                0.0, job[-1]["t_s"] - row["sent"] - front_end
            )
        per_request.append(values)
    metrics = layers.summarize(per_request, ctx.per_layer)
    hits = counters.get("service.cache_hits", 0)
    misses = counters.get("service.cache_misses", 0)
    certify_s = sum(
        r["duration_s"] for r in records
        if r.get("type") == "span" and r["name"] == "certify_artifact"
    )
    kernel_s = lambda *names: sum(  # noqa: E731
        counters.get(f"kernels.{name}.seconds", 0.0) for name in names
    )
    metrics.update({
        "service.journal_appends": appended / n,
        "service.shed": counters.get("service.shed", 0) / n,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "worker.crashes": counters.get("service.worker_crashes", 0) / n,
        "milp.lowerings": counters.get("milp.lowerings", 0) / n,
        "kernels.lowerings": layers.kernel_lowerings(counters) / n,
        "verify.artifact_s": certify_s / n,
        "obs.trace_overhead": gmean(done_values(rows, "latency_s"))
        / gmean(done_values(untraced, "latency_s")),
    })
    if hit:
        metrics["timing.busy_s"] = kernel_s("sta", "kpaths") / n
        metrics["eval.busy_s"] = kernel_s("stress", "thermal") / n
    return {"metrics": metrics, "front_end_s": front_end}

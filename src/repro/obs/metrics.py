"""Process-local metrics: counters, gauges and histograms.

The registry is the always-on half of the observability layer: instruments
are cheap attribute updates behind a per-instrument lock (no I/O), so
solver internals can count nodes, relaxations and accepted moves
unconditionally — including from sweep worker threads.  Sinks read a
:meth:`MetricsRegistry.snapshot` at the end of a run.

Histograms additionally keep a bounded reservoir of observations
(:data:`RESERVOIR_SIZE`, Vitter's Algorithm R) so snapshots can report
p50/p95/p99 without unbounded memory.  The reservoir RNG is seeded from
the instrument *name*, so quantiles over a deterministic workload are
themselves deterministic run-to-run.

Naming convention (see ``docs/observability.md``): dotted lowercase paths,
``<subsystem>.<thing>[.<aspect>]`` — e.g. ``milp.bb.nodes_explored``,
``algorithm1.st_target_relaxations``, ``rounding.vars_fixed``,
``anneal.moves_accepted``, ``thermal.grid_solves``.
"""

from __future__ import annotations

import math
import random
import threading
import time
import zlib
from typing import Iterator

#: Max observations a Histogram retains for quantile estimation.  1024
#: doubles give exact quantiles for every smoke-scale workload and a
#: uniform sample (Algorithm R) beyond it.
RESERVOIR_SIZE = 1024


def _percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list (q in [0, 1])."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A value that can move both ways (last-write-wins, thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> dict:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Streaming summary of observations (count/sum/min/max/mean + quantiles).

    Beyond the running aggregates, a bounded reservoir (uniform sample,
    Algorithm R) supports p50/p95/p99 in :meth:`snapshot`.  The sampling
    RNG is seeded from the instrument name so deterministic workloads
    yield deterministic quantiles.  All updates are thread-safe.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_reservoir",
                 "_rng", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self._reservoir: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._reservoir) < RESERVOIR_SIZE:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < RESERVOIR_SIZE:
                    self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Reservoir estimate of the ``q``-quantile (exact while count
        stays within :data:`RESERVOIR_SIZE`)."""
        with self._lock:
            ordered = sorted(self._reservoir)
        return _percentile(ordered, q)

    def snapshot(self) -> dict:
        with self._lock:
            ordered = sorted(self._reservoir)
            count, total = self.count, self.total
            lo = self.min if count else 0.0
            hi = self.max if count else 0.0
        return {
            "kind": "histogram",
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": total / count if count else 0.0,
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "p99": _percentile(ordered, 0.99),
        }


class MetricsRegistry:
    """Get-or-create home for named instruments.

    Creation is lock-protected (cheap, happens once per name); updates go
    through each instrument's own lock.  A name is permanently bound to
    its first kind — asking for ``counter("x")`` after ``gauge("x")`` is
    an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(name, cls(name))
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(list(self._instruments.values()))

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """``{name: {kind, value | count/sum/...}}`` sorted by name."""
        return {
            name: inst.snapshot()
            for name, inst in sorted(self._instruments.items())
        }

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived processes)."""
        with self._lock:
            self._instruments.clear()


#: The process-default registry the module-level helpers write to.
_default = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-default :class:`MetricsRegistry`."""
    return _default


def counter(name: str) -> Counter:
    """Default-registry counter, e.g. ``counter("milp.bb.nodes_explored")``."""
    return _default.counter(name)


def gauge(name: str) -> Gauge:
    """Default-registry gauge."""
    return _default.gauge(name)


def histogram(name: str) -> Histogram:
    """Default-registry histogram."""
    return _default.histogram(name)


class timer:
    """Observe a ``with`` block's wall time on default-registry histogram
    ``name``, e.g. ``with timer("kernels.sta.seconds"): ...``.

    A class rather than ``@contextmanager``: it wraps per-context STA and
    stress calls, where generator-frame overhead would show up in the
    very times it records.
    """

    __slots__ = ("_name", "_start")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        _default.histogram(self._name).observe(time.perf_counter() - self._start)

"""Request pools and seeded request streams for the three workloads.

Every request is a plain ``FloorplanRequest`` document, the wire form
both ``run_request`` (after ``FloorplanRequest.from_dict``) and
``repro serve`` accept.  The run seed orders every stream.  Table I
designs are the canonical benchgen syntheses (benchgen seed 0, as
``repro bench`` and EXPERIMENTS.md use): re-synthesising them per seed
changed one design's time by up to 2.7x (B3: 7.4 s at benchgen seed 0,
20 s at seed 1), more than a short run can average out.
"""

from __future__ import annotations

import random

#: Table I rungs of the ladder: five 4x4 designs across the usage
#: classes, the 8x8 B5 and the 16x16 B3.
LADDER = ("B1", "B4", "B10", "B13", "B19", "B5", "B3")

#: Per-solve wall-clock limit of the ladder.  The smoke profile's 15 s
#: makes one pass take about 65 s, longer than a benchmark run may last;
#: at 5 s a pass takes about 40 s and B10, B13 and B19 still stop at
#: the limit, so limit hits stay in the data.
LADDER_TIME_LIMIT_S = 5.0

#: Fabrics of the cache-miss pool.
MISS_FABRICS = (3, 4, 5, 6)

MODES = ("freeze", "rotate")

#: Requests per second of ``--seconds`` in the served workloads: about
#: their rates with 2 connections on a 2-core host, so a phase lasts
#: about that long.  At 25 s: 2000 hits, one lap of 32 misses.
HIT_RATE_PER_S = 80
MISS_RATE_PER_S = 1.6


def table1_request(name: str, **fields) -> dict:
    """A ``design`` request for one canonical Table I entry."""
    from repro.benchgen import entry, load_benchmark
    from repro.io.serialize import design_to_dict

    design, _ = load_benchmark(name)
    dim = entry(name).fabric_dim
    return {
        "design": design_to_dict(design),
        "fabric": f"{dim}x{dim}",
        "labels": {"name": name},
        **fields,
    }


def kernel_request(kernel: str, dim: int, mode: str) -> dict:
    return {
        "kernel": kernel,
        "fabric": f"{dim}x{dim}",
        "mode": mode,
        "labels": {"name": f"{kernel}-{dim}x{dim}-{mode}"},
    }


def label(request: dict) -> str:
    return request["labels"]["name"]


def ladder_requests() -> list[dict]:
    """The ladder's designs, rotate mode, ``LADDER_TIME_LIMIT_S`` each."""
    return [
        table1_request(
            name, mode="rotate", time_limit_s=LADDER_TIME_LIMIT_S
        )
        for name in LADDER
    ]


def ladder_pass(requests: list[dict], seed: int, index: int) -> list[dict]:
    """Pass ``index`` of the ladder: every design once, seeded order."""
    order = list(requests)
    random.Random(f"ladder:{seed}:{index}").shuffle(order)
    return order


def hit_pool() -> list[dict]:
    """Library kernels at 4x4 in both modes plus B1 and 16x16 B3."""
    from repro.benchgen import KERNELS

    pool = [
        kernel_request(kernel, 4, mode)
        for kernel in sorted(KERNELS) for mode in MODES
    ]
    pool += [table1_request("B1"), table1_request("B3")]
    return pool


def hit_stream(pool: list[dict], seed: int):
    """Endless seeded laps over the hit pool, each in a fresh order."""
    rng = random.Random(f"hit:{seed}")
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def phase_count(seconds: float, rate: float, pool_size: int) -> int:
    """Requests in a served phase: ``rate`` per second of ``seconds``,
    rounded to whole laps of the pool (at least one).

    A fixed count, not a clock, ends the phase, so every run serves the
    same mix and the same number of jobs: the service keeps every job in
    memory, so a clock-bound phase would tie peak memory to speed.
    """
    return pool_size * max(1, round(rate * seconds / pool_size))


def miss_pool() -> list[dict]:
    """Library kernels x fabrics 3x3..6x6 x both modes: 32 keys."""
    from repro.benchgen import KERNELS

    return [
        kernel_request(kernel, dim, mode)
        for kernel in sorted(KERNELS) for dim in MISS_FABRICS
        for mode in MODES
    ]


def miss_stream(seed: int):
    """Requests whose keys never repeat: laps over the miss pool.

    Each lap sends the largest fabrics first, each fabric's entries in a
    fresh seeded order; a phase sends whole laps (``phase_count``), so
    every entry weighs the same in every run.  Largest first, because a
    6x6 request (up to about 5 s) sent last runs alone while the other
    connection has nothing left to send: in ten runs of fully shuffled
    laps that tail moved the phase's wall time by up to 38%.

    Lap ``n`` asks for a per-solve limit of ``30 - 0.5 n`` s, which
    changes every cache key but not the work: no pool request comes
    near its limit.  Seeded synthetic designs would also give new keys,
    but in one trial one of ten B1-shaped designs ran into the 30 s
    limit; a limit-cut answer depends on machine load, so its served and
    one-shot answers differed, and the run stretched by 30 s.
    """
    rng = random.Random(f"miss:{seed}")
    lap = 0
    while True:
        order = miss_pool()
        rng.shuffle(order)
        order.sort(key=lambda request: -int(request["fabric"].split("x")[0]))
        for request in order:
            request["time_limit_s"] = 30.0 - 0.5 * lap
            yield request
        lap += 1

"""Enumeration of the longest timing paths (the paper's path filter).

The number of register-to-register paths grows exponentially with fabric
size, and the per-path delay constraints dominate the MILP's runtime
(Section V-B.2).  The paper therefore monitors only the longest paths:
"By default, we retain all paths whose initial delay is within 20% of the
CPD", capped at the M longest.  (The paper invokes Dijkstra for this; on a
DAG the equivalent exact method is longest-path dynamic programming, which
is what we use for bounds, plus a branch-and-bound DFS for enumeration.)

Paths that fall outside the filter are *unmonitored*: they may in
principle grow beyond the CPD after re-mapping, which is why Algorithm 1
re-checks the CPD of every solution and adds the paths that grew past it
to the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.context import Floorplan
from repro.hls.allocate import MappedDesign
from repro.obs import timer
from repro.timing.graph import ContextTimingGraph, build_timing_graphs
from repro.timing.sta import DELAY_EPS, TimingPath, TimingReport, analyze, _wire_delays

#: Default retention window: paths within 20% of the CPD (paper default).
DEFAULT_RETENTION = 0.20

#: Default cap on the number of monitored paths per design.
DEFAULT_MAX_PATHS = 2000

#: Hard cap on DFS expansions per context, to bound worst-case enumeration.
_MAX_EXPANSIONS = 500_000


@dataclass
class MonitoredPath:
    """A timing path retained by the filter, with its original delay."""

    path: TimingPath
    delay_ns: float
    #: True when the path achieves its context's CPD (candidate for freezing).
    is_critical: bool = False


@dataclass
class PathFilterResult:
    """Output of the path filter over a whole design."""

    paths: list[MonitoredPath] = field(default_factory=list)
    threshold_ns: float = 0.0
    cpd_ns: float = 0.0
    truncated: bool = False  # the M-cap or expansion cap was hit

    @property
    def critical(self) -> list[MonitoredPath]:
        return [p for p in self.paths if p.is_critical]

    @property
    def non_critical(self) -> list[MonitoredPath]:
        return [p for p in self.paths if not p.is_critical]


def _continuations(
    graph: ContextTimingGraph, floorplan: Floorplan
) -> dict[int, float]:
    """Longest completion achievable downstream from each op.

    ``cont[op]`` = best additional delay after op completes: 0 (stop at
    its output register) or the best (wire + delay + cont) over intra
    successors, computed in reverse topological order.  Pad wires carry
    no path delay (see repro.timing.sta).
    """
    # perfbench's timing.busy_s reads this histogram name; keep it.
    with timer("kernels.kpaths.seconds"):
        succs = graph.intra_succs()
        wire_ns = _wire_delays(graph, floorplan)
        cont: dict[int, float] = {}
        for op in reversed(graph.topological_ops()):
            best = 0.0
            for succ in succs[op]:
                step = wire_ns[op, succ] + graph.delay_of[succ] + cont[succ]
                best = max(best, step)
            cont[op] = best
    return cont


def enumerate_context_paths(
    graph: ContextTimingGraph,
    floorplan: Floorplan,
    threshold_ns: float,
    context_cpd_ns: float,
    max_paths: int,
) -> tuple[list[MonitoredPath], bool]:
    """All paths of one context with delay >= ``threshold_ns``.

    Returns ``(paths, truncated)``.  DFS from every op with upper-bound
    pruning via the continuation DP, so only prefixes that can still reach
    the threshold are expanded.  Every op starts a path (its inputs latch
    from registers/pads at the cycle boundary with no path delay).
    """
    if not graph.ops:
        return [], False
    cont = _continuations(graph, floorplan)
    succs = graph.intra_succs()
    found: list[MonitoredPath] = []
    expansions = 0
    truncated = False

    # Per-edge wire delays depend only on the floorplan, so they are
    # computed once here rather than on every DFS expansion.
    edge_ns = _wire_delays(graph, floorplan)

    def dfs(chain: list[int], delay_so_far: float) -> None:
        nonlocal expansions, truncated
        expansions += 1
        if expansions > _MAX_EXPANSIONS or len(found) >= max_paths:
            truncated = True
            return
        op = chain[-1]
        # Terminate at this op's output register.
        if delay_so_far >= threshold_ns - DELAY_EPS:
            path = TimingPath(context=graph.context, chain=tuple(chain))
            found.append(
                MonitoredPath(
                    path=path,
                    delay_ns=delay_so_far,
                    is_critical=delay_so_far >= context_cpd_ns - DELAY_EPS,
                )
            )
        # Extend along successors that can still reach the threshold.
        for succ in succs[op]:
            step = edge_ns[(op, succ)] + graph.delay_of[succ]
            new_delay = delay_so_far + step
            if new_delay + cont[succ] >= threshold_ns - DELAY_EPS:
                chain.append(succ)
                dfs(chain, new_delay)
                chain.pop()

    for op in graph.topological_ops():
        start_delay = graph.delay_of[op]
        if start_delay + cont[op] >= threshold_ns - DELAY_EPS:
            dfs([op], start_delay)
    return found, truncated


def filter_paths(
    design: MappedDesign,
    floorplan: Floorplan,
    retention: float = DEFAULT_RETENTION,
    max_paths: int = DEFAULT_MAX_PATHS,
    graphs: list[ContextTimingGraph] | None = None,
    report: TimingReport | None = None,
) -> PathFilterResult:
    """The paper's path filter over a whole design.

    Retains all paths with original delay >= ``(1 - retention) * CPD``
    (global CPD over contexts), keeping at most ``max_paths`` — the longest
    ones when the cap binds.
    """
    graphs = graphs or build_timing_graphs(design)
    report = report or analyze(design, floorplan, graphs)
    cpd = report.cpd_ns
    threshold = (1.0 - retention) * cpd
    all_paths: list[MonitoredPath] = []
    truncated = False
    # Enumerate with headroom: the DFS collects in traversal order, so a
    # tight per-context cap could drop long paths before the global sort.
    context_budget = max(4 * max_paths, 1000)
    for graph, timing in zip(graphs, report.per_context):
        paths, ctx_truncated = enumerate_context_paths(
            graph,
            floorplan,
            threshold_ns=threshold,
            context_cpd_ns=timing.cpd_ns,
            max_paths=context_budget,
        )
        all_paths.extend(paths)
        truncated = truncated or ctx_truncated
    all_paths.sort(key=lambda mp: -mp.delay_ns)
    if len(all_paths) > max_paths:
        all_paths = all_paths[:max_paths]
        truncated = True
    return PathFilterResult(
        paths=all_paths, threshold_ns=threshold, cpd_ns=cpd, truncated=truncated
    )

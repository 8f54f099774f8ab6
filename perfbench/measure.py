"""Per-pass bookkeeping: the delivery ledger and the model-side counters.

A *pass* is one complete execution of a workload: set-up (world, buffers,
seeded fill, datatype commit, warm-up) followed by the measured phase.
Everything here reads the program's public state after a pass; nothing
changes what the program does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.gpu import Stream
from repro.obs.stats import classify_resource
from repro.sim.resources import FifoLink

__all__ = [
    "Ledger",
    "PassResult",
    "tail_percentile",
    "percentile",
    "hw_op_counts",
    "resource_busy",
    "open_window",
    "world_counters",
    "merge_counters",
]

#: modules whose objects the hardware walk descends into
_HW_MODULES = ("repro.hw.node", "repro.hw.gpu", "repro.hw.pcie", "repro.hw.nic")


class Ledger:
    """Deliveries expected, checked and failed, plus per-message latencies.

    ``expect`` is called when a delivery is set up; ``check``/``fail``
    when the oracle has looked at it.  Deliveries that never completed (a
    deadlock or an exception ends the run) are counted as failed by
    :meth:`close`.
    """

    def __init__(self) -> None:
        self.expected = 0
        #: deliveries expected while :attr:`measuring` (the measured phase)
        self.messages = 0
        self.measuring = False
        self.passed = 0
        self.failures: list[str] = []
        #: virtual seconds, one per point-to-point message
        self.latencies: list[float] = []

    def expect(self, n: int = 1) -> None:
        self.expected += n
        if self.measuring:
            self.messages += n

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def check(self, good: bool, what: str) -> None:
        """Record one delivery the oracle looked at."""
        if good:
            self.passed += 1
        else:
            self.fail(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def close(self, error: Optional[str] = None) -> None:
        """Count every delivery that was expected but never checked."""
        missing = self.expected - self.passed - self.failed
        for _ in range(missing):
            self.failures.append(f"never completed: {error or 'run ended'}")


@dataclass
class PassResult:
    """What one pass measured."""

    setup_s: float
    wall_s: float
    sim_elapsed_s: float
    attempted: int
    failed: int
    #: deliveries (point-to-point and collective) in the measured phase
    messages: int
    latencies: list
    #: deterministic model-side metrics (identical untraced and traced)
    counters: dict = field(default_factory=dict)
    #: cross-check figures and other per-workload detail
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    error: str = ""
    #: peak resident memory of the process that ran the pass
    peak_rss_mb: float = 0.0


def _rank(n: int, per_mille: int) -> int:
    """1-based nearest rank of the ``per_mille``/1000 quantile of ``n`` values."""
    return max(1, -(-per_mille * n // 1000))


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of an ascending list."""
    n = len(sorted_values)
    return sorted_values[min(_rank(n, round(q * 10)), n) - 1]


def tail_percentile(values: list) -> tuple[float, float, int]:
    """The highest of p99.9 / p99 / p90 with at least 10 samples beyond it.

    Returns ``(value, percentile used, sample count)``.  With fewer than
    100 samples no listed percentile qualifies and the median is used
    (20 samples leave 10 beyond it); below that, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in (999, 990, 900, 500):
        if n - _rank(n, per_mille) >= 10:
            return ordered[_rank(n, per_mille) - 1], per_mille / 10, n
    return (ordered[-1] if ordered else 0.0), 100.0, n


def hw_op_counts(cluster) -> tuple[int, int]:
    """``(link and stream operations, operations on 'mvapich' streams)``.

    Walks the cluster's hardware objects and sums ``FifoLink.transfers``
    and ``Stream.ops``.
    """
    ops = mvapich = 0
    seen: set[int] = set()
    stack: list = list(cluster.nodes)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, FifoLink):
            ops += obj.transfers
        elif isinstance(obj, Stream):
            ops += obj.ops
            if obj.name == "mvapich":
                mvapich += obj.ops
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__ in _HW_MODULES:
            stack.extend(vars(obj).values())
    return ops, mvapich


def resource_busy(tracer) -> dict[str, float]:
    """Virtual busy time per pipeline stage from the cluster's resource tracer."""
    groups: dict[str, list[str]] = {}
    for name in tracer.resources():
        groups.setdefault(classify_resource(name), []).append(name)
    busy = {
        stage: tracer.busy_time_group(groups.get(stage, []))
        for stage in ("pack", "wire", "pcie", "prep")
    }
    busy["pack_wire_overlap"] = tracer.overlap_time_group(
        groups.get("pack", []), groups.get("wire", [])
    )
    return busy


def _cumulative(world) -> dict:
    """Counters the program never resets: AMs received, link/stream ops."""
    ops, mvapich = hw_op_counts(world.cluster)
    return {
        "hw.link_ops": ops,
        "baselines.memcpy2d_calls": mvapich,
        "mpi.btl.am_sends": sum(p.am_received for p in world.procs.materialized()),
    }


def open_window(world) -> dict:
    """Start the measured window: reset the world's stats, note the rest.

    Returns the baseline of the cumulative counters for
    :func:`world_counters`.
    """
    world.reset_stats()
    return _cumulative(world)


def world_counters(world, base: dict, resource_trace: bool) -> dict[str, float]:
    """Model-side counters of one world's measured window.

    Read after the measured phase of a window opened with
    :func:`open_window` (which returned ``base``).  With
    ``resource_trace`` the cluster was built with its resource tracer and
    the busy times are included.
    """
    ws = world.stats()
    c: dict[str, float] = {
        "sim.events": ws.events_processed,
        "sim.peak_queue_depth": ws.peak_queue_depth,
    }
    for k, v in _cumulative(world).items():
        c[k] = v - base[k]
    eng = ws.engine
    c["gpu_engine.jobs"] = eng.jobs
    c["gpu_engine.fragments"] = eng.fragments
    c["gpu_engine.bytes_packed"] = eng.bytes_packed
    c["gpu_engine.prep_sim_s"] = eng.prep_s
    c["gpu_engine.kernel_sim_s"] = eng.kernel_s
    for plan in ("memcpy", "strided2d", "vector_kernel", "gather", "stack"):
        c[f"gpu_engine.plan.{plan}"] = eng.plans.get(plan, 0)
    c["gpu_engine.cache_hits"] = eng.cache.hits
    c["gpu_engine.cache_lookups"] = eng.cache.lookups
    c["gpu_engine.cache_evictions"] = eng.cache.evictions
    sends = [t for t in ws.transfers if t.role == "send"]
    for proto in ("eager", "host", "ipc_rdma", "copyinout"):
        c[f"mpi.pml.transfers.{proto}"] = sum(1 for t in sends if t.protocol == proto)
    c["mpi.protocols.fragments"] = sum(
        t.fragments for t in sends if t.protocol != "eager"
    )
    c["mpi.protocols.credit_wait_sim_s"] = ws.credit_wait_s
    c["mpi.protocols.retries"] = ws.retransmits + sum(ws.fallbacks.values())
    c["mpi.collectives.calls"] = sum(
        n for k, n in ws.coll_ops.items() if not k.endswith(".bytes")
    )
    if resource_trace:
        busy = resource_busy(world.cluster.tracer)
        c["hw.pack_busy_sim_s"] = busy["pack"]
        c["hw.wire_busy_sim_s"] = busy["wire"]
        c["hw.pcie_busy_sim_s"] = busy["pcie"]
        c["hw.prep_busy_sim_s"] = busy["prep"]
        c["hw.pack_wire_overlap_sim_s"] = busy["pack_wire_overlap"]
    return c


def merge_counters(total: dict, part: dict) -> dict:
    """Sum ``part`` into ``total`` (peak queue depth takes the maximum)."""
    for k, v in part.items():
        if k == "sim.peak_queue_depth":
            total[k] = max(total.get(k, 0), v)
        else:
            total[k] = total.get(k, 0) + v
    return total

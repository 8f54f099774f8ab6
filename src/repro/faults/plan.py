"""The fault model: a seeded plan of injected failures.

A :class:`FaultSpec` is pure configuration (probabilities, seed, which
Active-Message kinds are targeted); a :class:`FaultPlan` is the live
object consulted by the BTL, the CUDA IPC layer and the staging pool.
All randomness flows from one ``random.Random(seed)`` consumed in
simulation-event order, so a given (seed, workload) pair injects the
exact same faults on every run — chaos tests are reproducible.

Injection is restricted to the *data plane* by default: the per-fragment
``frag`` notifications and their ``ack`` replies, which is what the
retransmit/dedupe machinery in :mod:`repro.mpi.protocols.common`
recovers from.  The rendezvous control handshake (RTS/CTS/done) rides a
reliable control channel, as in real transports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "AmFault",
    "FaultPlan",
    "FaultSpec",
    "IpcOpenError",
    "StagingError",
    "TransferTimeout",
]


class IpcOpenError(RuntimeError):
    """An injected (or modeled) cudaIpcOpenMemHandle failure."""


class StagingError(RuntimeError):
    """A rendezvous staging ring could not be allocated (memory exhausted)."""


class TransferTimeout(RuntimeError):
    """A fragment was retransmitted ``max_retries`` times without an ACK."""


@dataclass(frozen=True)
class FaultSpec:
    """Seeded fault-injection configuration (all probabilities in [0, 1])."""

    #: RNG seed — the whole plan is a pure function of this and call order
    seed: int = 0
    #: probability a targeted Active Message is silently dropped
    am_drop: float = 0.0
    #: probability a targeted Active Message is delivered twice
    am_dup: float = 0.0
    #: probability a targeted Active Message is delayed (reordering)
    am_delay: float = 0.0
    #: extra delivery delay applied to delayed messages, seconds
    am_delay_s: float = 500e-6
    #: probability a (non-cached) CUDA IPC open fails
    ipc_open_fail: float = 0.0
    #: probability an *optional* staging allocation is refused
    staging_fail: float = 0.0
    #: stop injecting after this many faults (None = unbounded)
    max_faults: Optional[int] = None
    #: AM handler suffixes eligible for injection (the data plane)
    targets: tuple = ("frag", "ack")

    def __post_init__(self) -> None:
        for name in ("am_drop", "am_dup", "am_delay", "ipc_open_fail",
                     "staging_fail"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"FaultSpec.{name} must be in [0, 1], got {p}")
        if self.am_delay_s < 0:
            raise ValueError(f"FaultSpec.am_delay_s must be >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("FaultSpec.max_faults must be >= 0 or None")

    @property
    def active(self) -> bool:
        """True when any injection can actually happen."""
        return any(
            getattr(self, n) > 0.0
            for n in ("am_drop", "am_dup", "am_delay", "ipc_open_fail",
                      "staging_fail")
        )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Build a spec from ``"seed=3,am_drop=0.1,..."`` CLI syntax."""
        spec = cls()
        if not text:
            return spec
        kinds = {f.name: f.type for f in fields(cls)}
        kw: dict = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"--faults entry {item!r} is not key=value")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key not in kinds:
                raise ValueError(
                    f"unknown fault knob {key!r}; valid: {sorted(kinds)}"
                )
            if key == "targets":
                kw[key] = tuple(t for t in raw.split("+") if t)
            elif key in ("seed", "max_faults"):
                kw[key] = int(raw)
            else:
                kw[key] = float(raw)
        return replace(spec, **kw)


@dataclass(frozen=True)
class AmFault:
    """What to do to one Active Message in flight."""

    drop: bool = False
    dup: bool = False
    delay_s: float = 0.0


class FaultPlan:
    """Live injector: one shared RNG, consumed in simulation-event order.

    Every injected fault bumps a counter under the registry scope handed
    in (``faults.`` from :class:`repro.mpi.world.MpiWorld`), so chaos
    runs can assert both that faults actually fired and that the stack
    absorbed them.
    """

    def __init__(
        self,
        spec: FaultSpec,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry().scoped("faults.")
        )
        self.injected = 0

    @property
    def active(self) -> bool:
        return self.spec.active

    # -- the single biased coin every injection point flips ----------------
    def _fire(self, p: float, counter: str) -> bool:
        if p <= 0.0:
            return False
        if (
            self.spec.max_faults is not None
            and self.injected >= self.spec.max_faults
        ):
            return False
        if self.rng.random() >= p:
            return False
        self.injected += 1
        self.metrics.counter(counter).inc()
        return True

    # -- injection points --------------------------------------------------
    def am_decision(self, handler: str) -> Optional[AmFault]:
        """Fault (if any) for an Active Message bound for ``handler``.

        Only data-plane handlers (``targets`` suffixes) are eligible;
        everything else is delivered untouched without consuming RNG
        state, so adding control messages never perturbs a seeded plan.
        """
        suffix = handler.rsplit(".", 1)[-1]
        if suffix not in self.spec.targets:
            return None
        if self._fire(self.spec.am_drop, "am_drop"):
            return AmFault(drop=True)
        dup = self._fire(self.spec.am_dup, "am_dup")
        delay = (
            self.spec.am_delay_s
            if self._fire(self.spec.am_delay, "am_delay")
            else 0.0
        )
        if dup or delay > 0.0:
            return AmFault(dup=dup, delay_s=delay)
        return None

    def fail_ipc_open(self) -> bool:
        """Should this (first, uncached) CUDA IPC open fail?"""
        return self._fire(self.spec.ipc_open_fail, "ipc_open_fail")

    def fail_staging(self, kind: str) -> bool:
        """Should this optional staging allocation be refused?"""
        return self._fire(self.spec.staging_fail, f"staging_fail.{kind}")

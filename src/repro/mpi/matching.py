"""MPI message matching: posted receives vs unexpected messages.

Implements the MPI ordering guarantee: messages from the same (source,
communicator) match posted receives in send order (the envelope sequence
number provides the total order per source), and a receive posted with
wildcards matches the earliest eligible unexpected message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.mpi.message import Envelope
from repro.obs.metrics import MetricsRegistry
from repro.sanitize import runtime as _san
from repro.sim.core import Future

__all__ = ["PostedRecv", "MatchingEngine"]


@dataclass
class PostedRecv:
    """A receive waiting for a sender."""

    source: int
    tag: int
    comm_id: int
    on_match: Future  # resolved with the matched arrival object
    posted_order: int = 0


class MatchingEngine:
    """Per-rank matcher."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        #: where dropped duplicate arrivals are counted (None: not counted)
        self._metrics = metrics
        self._posted: list[PostedRecv] = []
        self._unexpected: list[tuple[Envelope, Any]] = []
        self._order = 0
        #: next expected pair_seq per (source, comm_id)
        self._next_pair: dict[tuple[int, int], int] = {}
        #: out-of-order arrivals held until the gap closes, keyed
        #: (source, comm_id) -> {pair_seq: (env, arrival)}
        self._held: dict[tuple[int, int], dict[int, tuple[Envelope, Any]]] = {}

    # -- sender side -----------------------------------------------------
    def arrive(self, env: Envelope, arrival: Any) -> Optional[PostedRecv]:
        """A first-fragment/RTS arrived; match or queue as unexpected.

        Returns the matched posted receive (already removed), or None.
        ``arrival`` is whatever the protocol needs to continue (an RTS
        descriptor, eager data, ...) and is handed to the receive.

        Arrivals stamped with a ``pair_seq`` are re-sequenced per
        (source, comm) before matching: a message that overtook an
        earlier-posted one on the wire (smaller eager pack, injected
        delay) is held back until the gap closes, so matching always
        sees send order — MPI's non-overtaking guarantee.  A duplicated
        control message (a ``pair_seq`` already delivered or already
        held) is dropped and counted as ``matching.dup_arrivals_dropped``.
        """
        if env.pair_seq < 0:
            return self._deliver(env, arrival)
        key = (env.source, env.comm_id)
        expected = self._next_pair.get(key, 0)
        if env.pair_seq != expected:
            held = self._held.setdefault(key, {})
            if env.pair_seq < expected or env.pair_seq in held:
                if self._metrics is not None:
                    self._metrics.counter("matching.dup_arrivals_dropped").inc()
                return None
            held[env.pair_seq] = (env, arrival)
            return None
        matched = self._deliver(env, arrival)
        expected += 1
        held = self._held.get(key)
        while held and expected in held:
            e2, a2 = held.pop(expected)
            self._deliver(e2, a2)
            expected += 1
        self._next_pair[key] = expected
        return matched

    def _deliver(self, env: Envelope, arrival: Any) -> Optional[PostedRecv]:
        """Match an in-order arrival against posted receives, or queue it."""
        if _san.VERIFY is not None:
            _san.VERIFY.on_deliver(self, env)
        for i, post in enumerate(self._posted):
            if env.matches(post.source, post.tag) and env.comm_id == post.comm_id:
                del self._posted[i]
                post.on_match.resolve(arrival)
                return post
        self._unexpected.append((env, arrival))
        return None

    # -- receiver side --------------------------------------------------------
    def post(self, post: PostedRecv) -> Optional[Any]:
        """Post a receive; if an unexpected message matches, consume it.

        The unexpected queue is scanned in delivery order — :meth:`arrive`
        re-sequences stamped arrivals before queueing, so list order *is*
        send order per source, preserving MPI's non-overtaking rule.

        A wildcard receive facing unexpected messages from *several*
        sources is a genuine MPI nondeterminism: per-source order is
        fixed, the inter-source choice is not.  The verifier's explorer
        perturbs exactly that choice (``match_choice``); default is the
        deterministic earliest delivery.
        """
        verify = _san.VERIFY
        if (
            verify is not None
            and verify.match_choice is not None
            and post.source < 0
        ):
            seen: set = set()
            candidates: list[int] = []
            for i, (env, arrival) in enumerate(self._unexpected):
                if (
                    env.matches(post.source, post.tag)
                    and env.comm_id == post.comm_id
                    and env.source not in seen
                ):
                    seen.add(env.source)
                    candidates.append(i)
            if candidates:
                i = verify.on_match_choice(self, post, candidates)
                env, arrival = self._unexpected[i]
                del self._unexpected[i]
                post.on_match.resolve(arrival)
                return arrival
            # fall through: nothing eligible, post normally
        for i, (env, arrival) in enumerate(self._unexpected):
            if env.matches(post.source, post.tag) and env.comm_id == post.comm_id:
                del self._unexpected[i]
                post.on_match.resolve(arrival)
                return arrival
        post.posted_order = self._order
        self._order += 1
        self._posted.append(post)
        return None

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    @property
    def posted_count(self) -> int:
        return len(self._posted)

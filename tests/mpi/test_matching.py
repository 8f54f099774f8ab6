"""Tests for MPI message matching semantics."""

from __future__ import annotations

import pytest

from repro.mpi.matching import MatchingEngine, PostedRecv
from repro.mpi.message import ANY_SOURCE, ANY_TAG, Envelope
from repro.obs.metrics import MetricsRegistry
from repro.sim.core import Future, Simulator


def post(engine, sim, source=ANY_SOURCE, tag=ANY_TAG, comm=0):
    fut = Future(sim)
    engine.post(PostedRecv(source=source, tag=tag, comm_id=comm, on_match=fut))
    return fut


def arrive(engine, source=0, tag=0, comm=0, what="msg"):
    env = Envelope(source=source, dest=1, tag=tag, comm_id=comm)
    return engine.arrive(env, what)


class TestMatching:
    def test_posted_then_arrival(self, sim):
        eng = MatchingEngine()
        fut = post(eng, sim, source=0, tag=7)
        arrive(eng, source=0, tag=7, what="hello")
        assert fut.value == "hello"

    def test_arrival_then_posted(self, sim):
        eng = MatchingEngine()
        arrive(eng, source=0, tag=7, what="early")
        assert eng.unexpected_count == 1
        fut = post(eng, sim, source=0, tag=7)
        assert fut.value == "early"
        assert eng.unexpected_count == 0

    def test_tag_mismatch_queues(self, sim):
        eng = MatchingEngine()
        fut = post(eng, sim, source=0, tag=7)
        arrive(eng, source=0, tag=8)
        assert not fut.done and eng.unexpected_count == 1

    def test_source_wildcard(self, sim):
        eng = MatchingEngine()
        fut = post(eng, sim, source=ANY_SOURCE, tag=5)
        arrive(eng, source=3, tag=5, what="from3")
        assert fut.value == "from3"

    def test_tag_wildcard(self, sim):
        eng = MatchingEngine()
        fut = post(eng, sim, source=2, tag=ANY_TAG)
        arrive(eng, source=2, tag=99, what="x")
        assert fut.value == "x"

    def test_comm_isolation(self, sim):
        eng = MatchingEngine()
        fut = post(eng, sim, source=0, tag=1, comm=1)
        arrive(eng, source=0, tag=1, comm=0)
        assert not fut.done

    def test_non_overtaking_same_source(self, sim):
        eng = MatchingEngine()
        arrive(eng, source=0, tag=4, what="first")
        arrive(eng, source=0, tag=4, what="second")
        a = post(eng, sim, source=0, tag=4)
        b = post(eng, sim, source=0, tag=4)
        assert a.value == "first" and b.value == "second"

    def test_posted_receives_match_in_post_order(self, sim):
        eng = MatchingEngine()
        a = post(eng, sim, source=0, tag=4)
        b = post(eng, sim, source=0, tag=4)
        arrive(eng, source=0, tag=4, what="x")
        assert a.done and not b.done

    def test_wildcard_takes_earliest_unexpected(self, sim):
        eng = MatchingEngine()
        arrive(eng, source=5, tag=1, what="older")
        arrive(eng, source=2, tag=1, what="newer")
        fut = post(eng, sim, source=ANY_SOURCE, tag=1)
        assert fut.value == "older"


def arrive_seq(engine, pair_seq, source=0, tag=0, comm=0, what="msg"):
    """An arrival stamped with a sender post-order pair_seq."""
    env = Envelope(
        source=source, dest=1, tag=tag, comm_id=comm, pair_seq=pair_seq
    )
    return engine.arrive(env, what)


class TestNonOvertakingResequencing:
    """Out-of-order wire arrivals must still match in send order.

    A small eager message posted second can finish packing — and hit the
    wire — before a big one posted first; fault-injected delays reorder
    too.  The pair_seq stamp lets the matcher hold the overtaker back."""

    def test_overtaking_arrival_held_until_gap_closes(self, sim):
        eng = MatchingEngine()
        a = post(eng, sim, source=0, tag=4)
        b = post(eng, sim, source=0, tag=4)
        arrive_seq(eng, 1, source=0, tag=4, what="second-posted")
        assert not a.done and not b.done  # held: seq 0 still in flight
        arrive_seq(eng, 0, source=0, tag=4, what="first-posted")
        assert a.value == "first-posted" and b.value == "second-posted"

    def test_resequenced_into_unexpected_queue(self, sim):
        eng = MatchingEngine()
        arrive_seq(eng, 1, source=0, tag=4, what="second")
        assert eng.unexpected_count == 0  # held, not yet visible
        arrive_seq(eng, 0, source=0, tag=4, what="first")
        assert eng.unexpected_count == 2
        a = post(eng, sim, source=0, tag=4)
        b = post(eng, sim, source=0, tag=4)
        assert a.value == "first" and b.value == "second"

    def test_different_sizes_different_tags_still_ordered(self, sim):
        eng = MatchingEngine()
        a = post(eng, sim, source=0, tag=1)
        b = post(eng, sim, source=0, tag=2)
        arrive_seq(eng, 1, source=0, tag=2, what="t2")
        arrive_seq(eng, 0, source=0, tag=1, what="t1")
        assert a.value == "t1" and b.value == "t2"

    def test_sources_resequence_independently(self, sim):
        eng = MatchingEngine()
        a = post(eng, sim, source=ANY_SOURCE, tag=4)
        arrive_seq(eng, 1, source=7, tag=4, what="late-from-7")
        arrive_seq(eng, 0, source=3, tag=4, what="from-3")
        assert a.value == "from-3"

    def test_unstamped_envelopes_bypass_resequencing(self, sim):
        eng = MatchingEngine()
        fut = post(eng, sim, source=0, tag=4)
        arrive(eng, source=0, tag=4, what="legacy")  # pair_seq=-1
        assert fut.value == "legacy"


class TestDuplicateArrivals:
    """A control message delivered twice (fault-injected ``am_dup`` on the
    RTS) carries a ``pair_seq`` already seen: it is dropped and counted."""

    def test_stale_and_held_duplicates_dropped(self, sim):
        metrics = MetricsRegistry()
        eng = MatchingEngine(metrics)
        stamp = lambda seq: Envelope(0, 1, tag=1, comm_id=0, pair_seq=seq)
        eng.arrive(stamp(0), "a")
        eng.arrive(stamp(0), "a-dup")  # below the next expected seq
        eng.arrive(stamp(2), "c")
        eng.arrive(stamp(2), "c-dup")  # already held
        assert metrics.get("matching.dup_arrivals_dropped").value == 2
        eng.arrive(stamp(1), "b")
        got = [post(eng, sim, source=0, tag=1).value for _ in range(3)]
        assert got == ["a", "b", "c"]
        assert eng.unexpected_count == 0
        assert not eng._held[(0, 0)]

    def test_unstamped_arrivals_never_dropped(self):
        eng = MatchingEngine(MetricsRegistry())
        arrive(eng, source=0, tag=1, what="x")
        arrive(eng, source=0, tag=1, what="x")
        assert eng.unexpected_count == 2

    def test_no_registry_still_drops(self):
        eng = MatchingEngine()
        eng.arrive(Envelope(0, 1, tag=1, comm_id=0, pair_seq=0), "a")
        eng.arrive(Envelope(0, 1, tag=1, comm_id=0, pair_seq=0), "a")
        assert eng.unexpected_count == 1

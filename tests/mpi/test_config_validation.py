"""MpiConfig / RetryPolicy constructor validation (fail fast, not deep
inside a protocol coroutine with a cryptic ZeroDivisionError)."""

from __future__ import annotations

import pytest

from repro.mpi.config import MpiConfig, RetryPolicy


def test_defaults_are_valid():
    cfg = MpiConfig()
    assert cfg.frag_bytes > 0 and cfg.pipeline_depth > 0


def test_but_keeps_validation():
    cfg = MpiConfig().but(frag_bytes=4096)
    assert cfg.frag_bytes == 4096
    with pytest.raises(ValueError):
        MpiConfig().but(frag_bytes=0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(frag_bytes=0),
        dict(frag_bytes=-1),
        dict(pipeline_depth=0),
        dict(eager_limit=-1),
        dict(coll_algorithm="bruck"),
        dict(coll_algorithm=""),
        dict(coll_algorithm="hierarchical"),  # rung removed
        dict(coll_staged_threshold=-1),
    ],
    ids=lambda kw: next(iter(kw.items()))[0] + "=" + str(next(iter(kw.values()))),
)
def test_bad_config_rejected(kw):
    with pytest.raises(ValueError):
        MpiConfig(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        dict(rto=0.0),
        dict(rto=-1.0),
        dict(backoff=0.5),
        dict(max_retries=-1),
        dict(ipc_open_retries=-1),
    ],
)
def test_bad_retry_policy_rejected(kw):
    with pytest.raises(ValueError):
        RetryPolicy(**kw)


def test_retry_policy_defaults_valid():
    rp = RetryPolicy()
    assert rp.rto > 0 and rp.backoff >= 1.0 and rp.max_retries >= 0


@pytest.mark.parametrize(
    "name",
    ["auto", "pairwise", "nonblocking", "staged", "direct"],
)
def test_every_ladder_rung_accepted(name):
    assert MpiConfig(coll_algorithm=name).coll_algorithm == name


class TestTunerKnobs:
    @pytest.mark.parametrize("mode", ["off", "observe", "on"])
    def test_autotune_modes_accepted(self, mode):
        assert MpiConfig(autotune=mode).autotune == mode

    @pytest.mark.parametrize(
        "kw",
        [
            dict(autotune="On"),  # case matters: "On" would run untuned
            dict(autotune="auto"),
            dict(autotune=""),
            dict(tuner_table=123),
            dict(tuner_seed=-1),
            dict(tuner_seed=True),  # bool is not a seed
            dict(tuner_seed=1.5),
            dict(tuner_bands=()),
            dict(tuner_bands=(0,)),
            dict(tuner_bands=(4096, 1024)),
            dict(tuner_bands="4096"),
        ],
        ids=lambda kw: next(iter(kw.items()))[0] + "=" + str(next(iter(kw.values()))),
    )
    def test_bad_tuner_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            MpiConfig(**kw)

    def test_bands_normalize_to_tuple(self):
        cfg = MpiConfig(tuner_bands=[1024, 8192])
        assert cfg.tuner_bands == (1024, 8192)

    def test_malformed_tuner_table_fails_world_construction(self, tmp_path):
        # a configured table that cannot be parsed must fail loudly at
        # world construction, not silently run untuned
        from repro.hw.node import Cluster
        from repro.mpi.world import MpiWorld

        path = tmp_path / "table.json"
        path.write_text('{"schema": "bogus/7", "entries": {}}')
        cfg = MpiConfig(autotune="on", tuner_table=str(path))
        cluster = Cluster(1, 2)
        with pytest.raises(ValueError, match="schema"):
            MpiWorld(cluster, [(0, 0), (0, 1)], config=cfg)

    def test_missing_tuner_table_fails_world_construction(self, tmp_path):
        from repro.hw.node import Cluster
        from repro.mpi.world import MpiWorld

        cfg = MpiConfig(autotune="on", tuner_table=str(tmp_path / "nope.json"))
        cluster = Cluster(1, 2)
        with pytest.raises(OSError):
            MpiWorld(cluster, [(0, 0), (0, 1)], config=cfg)

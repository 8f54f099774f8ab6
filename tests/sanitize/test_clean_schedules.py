"""Satellite guarantee: every protocol runs sanitizer-clean (no false
positives) with all checkers fully on, across smoke message sizes.

``sm-2gpu`` exercises ipc_rdma (the GET ring pipeline), ``ib``
the host-staged pipeline with zero-copy, ``cpu`` the pure host path
(host).  A single false positive here means an HB edge of the
model is missing from the detector — treat as a detector bug, not as
something to silence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitize
from repro.datatype.ddt import vector
from repro.datatype.primitives import DOUBLE
from repro.mpi.config import MpiConfig
from repro.sanitize import SanitizeOptions
from tests.mpi.test_chaos import faulted_roundtrip

SMOKE_SIZES = {
    "tiny": (vector(8, 4, 6, DOUBLE).commit(), 1),
    "medium": (vector(64, 32, 48, DOUBLE).commit(), 1),
    "multi-count": (vector(32, 16, 24, DOUBLE).commit(), 3),
}


def clean_roundtrip(kind: str, config: MpiConfig, dt, count):
    with sanitize.enabled(SanitizeOptions.all(mode="raise")) as rep:
        want, got, world = faulted_roundtrip(kind, config, dt=dt, count=count)
        assert np.array_equal(want, got)
    assert not rep.violations, rep.summary()


@pytest.mark.parametrize("kind", ["sm-2gpu", "ib", "cpu"])
@pytest.mark.parametrize("size", sorted(SMOKE_SIZES))
def test_protocols_sanitizer_clean(kind, size):
    dt, count = SMOKE_SIZES[size]
    clean_roundtrip(
        kind, MpiConfig(frag_bytes=2048, eager_limit=0), dt, count
    )


def test_eager_path_sanitizer_clean():
    dt, count = SMOKE_SIZES["tiny"]
    clean_roundtrip("sm-2gpu", MpiConfig(), dt, count)

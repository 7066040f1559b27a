"""End-to-end differential gate: whole experiment reports are
byte-identical when both phase loops resolve on the dense O(L) oracle.

The ``dense_oracle`` fixture (``tests/conftest.py``) patches the oracle
into the engine in place of the sparse kernels.  E1 covers the scalar
loop (batch 1), the lockstep loop (batch 8) and forked executor
workers, which inherit the patch (``jobs=2``); E18 and E15 cover the
lockstep loop on the ``C``-channel medium.  There the engine skips the
sparse kernel's half-duplex pass while the oracle always applies
half-duplex, so these cases also prove the skip exact.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import RunConfig, run_experiment
from repro.store import report_to_bytes

pytestmark = pytest.mark.engine

SEED = 11
_reference: dict[str, bytes] = {}


def report_bytes(eid: str, **config) -> bytes:
    return report_to_bytes(run_experiment(eid, RunConfig(seed=SEED, **config)))


@pytest.mark.parametrize(
    "eid,batch,jobs",
    [
        ("E1", 1, 1), ("E1", 8, 1), ("E1", 8, 2), ("E18", 8, 1),
        ("E15", 8, 1),
    ],
    ids=[
        "E1-batch1", "E1-batch8", "E1-batch8-jobs2", "E18-batch8",
        "E15-batch8",
    ],
)
def test_report_identical_under_dense_oracle(dense_oracle, eid, batch, jobs):
    if eid not in _reference:
        _reference[eid] = report_bytes(eid)
    with dense_oracle() as calls:
        got = report_bytes(eid, batch=batch, jobs=jobs)
    assert got == _reference[eid]
    if jobs == 1:
        assert calls["run" if batch == 1 else "run_batch"] > 0

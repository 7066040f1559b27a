"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import sys

import numpy as np
import pytest

from repro.channel.model import BatchPhaseOutcome
from repro.channel.model_dense import resolve_phase_dense


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


def stack_outcomes(outcomes) -> BatchPhaseOutcome:
    """Stack per-trial :class:`PhaseOutcome`\\ s into the
    :class:`BatchPhaseOutcome` the lockstep loop consumes."""
    return BatchPhaseOutcome(
        heard=np.stack([o.heard for o in outcomes]),
        send_cost=np.stack([o.send_cost for o in outcomes]),
        listen_cost=np.stack([o.listen_cost for o in outcomes]),
        adversary_costs=np.array(
            [o.adversary_cost for o in outcomes], dtype=np.int64
        ),
        n_clear=np.array([o.n_clear for o in outcomes], dtype=np.int64),
        n_noise=np.array([o.n_noise for o in outcomes], dtype=np.int64),
        data_slots=np.array([o.data_slots for o in outcomes], dtype=np.int64),
    )


def calling_loop(depth: int = 1) -> str:
    """``"run"`` when the scalar phase loop ``Simulator._run`` made the
    call that entered the function ``depth`` frames up from the caller,
    ``"run_batch"`` when the lockstep loop ``_run_batch`` made it.  Both
    loops pass ``validate=False``, so the caller's frame is what tells
    them apart."""
    name = sys._getframe(depth + 1).f_code.co_name
    assert name in ("_run", "_run_batch"), name
    return name[1:]


@pytest.fixture
def dense_oracle():
    """A context manager that runs both phase loops on the dense oracle.

    Both loops resolve through the one sparse kernel,
    ``resolve_phase_batch_core``; inside ``with dense_oracle() as calls:``
    it is replaced by per-trial :func:`resolve_phase_dense` calls
    stacked by :func:`stack_outcomes`.  The oracle always applies
    half-duplex, so a run on the hopping medium, where the engine skips
    the sparse kernel's half-duplex pass, proves that skip exact.
    ``calls["run"]`` counts the scalar loop's calls (one trial) and
    ``calls["run_batch"]`` the lockstep loop's, told apart by
    :func:`calling_loop`, in this process; forked executor workers
    inherit the patch but count in their own copy.
    """
    from repro.engine import simulator

    @contextlib.contextmanager
    def patched():
        calls = {"run": 0, "run_batch": 0}

        def resolve_batch(
            lengths, n_nodes, sends_list, listens_list, plans, groups_list,
            validate=True, half_duplex=True,
        ):
            calls[calling_loop()] += 1
            return stack_outcomes([
                resolve_phase_dense(
                    int(length), n_nodes, sends, listens, plan, groups=groups
                )
                for length, sends, listens, plan, groups in zip(
                    lengths, sends_list, listens_list, plans, groups_list
                )
            ])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "resolve_phase_batch_core", resolve_batch)
            yield calls

    return patched


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running statistical test (still run by default)"
    )

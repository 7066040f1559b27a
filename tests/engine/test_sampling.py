"""Unit tests for the Bernoulli-process slot sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.events import TxKind
from repro.engine.sampling import (
    DENSE_P_THRESHOLD,
    bernoulli_positions,
    sample_action_events,
)
from repro.errors import SimulationError


class TestBernoulliPositions:
    def test_zero_probability(self, rng):
        assert len(bernoulli_positions(rng, 1000, 0.0)) == 0

    def test_probability_one(self, rng):
        pos = bernoulli_positions(rng, 17, 1.0)
        assert list(pos) == list(range(17))

    def test_zero_length(self, rng):
        assert len(bernoulli_positions(rng, 0, 0.5)) == 0

    def test_invalid_probability(self, rng):
        with pytest.raises(SimulationError):
            bernoulli_positions(rng, 10, 1.5)
        with pytest.raises(SimulationError):
            bernoulli_positions(rng, 10, -0.1)

    def test_negative_length(self, rng):
        with pytest.raises(SimulationError):
            bernoulli_positions(rng, -1, 0.5)

    def test_positions_sorted_distinct_in_range(self, rng):
        for p in (0.001, 0.05, 0.3, 0.9):
            pos = bernoulli_positions(rng, 5000, p)
            assert (np.diff(pos) > 0).all()
            if len(pos):
                assert pos[0] >= 0 and pos[-1] < 5000

    def test_mean_count_matches_binomial(self, rng):
        # Skip-sampling path (p below the dense threshold).
        L, p, reps = 2000, 0.01, 400
        counts = [len(bernoulli_positions(rng, L, p)) for _ in range(reps)]
        mean = np.mean(counts)
        se = np.sqrt(L * p * (1 - p) / reps)
        assert abs(mean - L * p) < 5 * se

    def test_mean_count_dense_path(self, rng):
        L, p, reps = 500, 0.4, 400
        assert p >= DENSE_P_THRESHOLD
        counts = [len(bernoulli_positions(rng, L, p)) for _ in range(reps)]
        mean = np.mean(counts)
        se = np.sqrt(L * p * (1 - p) / reps)
        assert abs(mean - L * p) < 5 * se

    def test_positions_uniform(self, rng):
        # Pool positions over many draws; each slot should be hit
        # approximately equally often (chi-square-ish tolerance).
        L, p, reps = 50, 0.1, 2000
        hits = np.zeros(L)
        for _ in range(reps):
            hits[bernoulli_positions(rng, L, p)] += 1
        expected = reps * p
        # ~normal with sd sqrt(expected); allow 5 sigma per bin.
        assert (np.abs(hits - expected) < 5 * np.sqrt(expected)).all()

    def test_deterministic_given_seed(self):
        a = bernoulli_positions(np.random.default_rng(7), 1000, 0.02)
        b = bernoulli_positions(np.random.default_rng(7), 1000, 0.02)
        assert np.array_equal(a, b)

    def test_tail_beyond_length_truncated(self, rng):
        # Large p via the skip path: force by monkeypatching threshold?
        # Simpler: low p but tiny length — positions must stay in range.
        for _ in range(50):
            pos = bernoulli_positions(rng, 3, 0.15)
            assert (pos < 3).all()


class TestSampleActionEvents:
    def test_shapes_and_kinds(self, rng):
        sends, listens = sample_action_events(
            rng, 100,
            send_probs=np.array([0.2, 0.0]),
            send_kinds=np.array([TxKind.DATA, TxKind.NOISE], dtype=np.int8),
            listen_probs=np.array([0.0, 0.3]),
        )
        assert (sends.nodes == 0).all()
        assert (sends.kinds == TxKind.DATA).all()
        assert (listens.nodes == 1).all()

    def test_empty(self, rng):
        sends, listens = sample_action_events(
            rng, 10, np.zeros(3), np.ones(3, dtype=np.int8), np.zeros(3)
        )
        assert len(sends) == 0 and len(listens) == 0

    def test_length_mismatch(self, rng):
        with pytest.raises(SimulationError):
            sample_action_events(
                rng, 10, np.zeros(3), np.ones(2, dtype=np.int8), np.zeros(3)
            )

    def test_probability_out_of_range(self, rng):
        with pytest.raises(SimulationError):
            sample_action_events(
                rng, 10, np.array([1.2]), np.ones(1, dtype=np.int8), np.zeros(1)
            )

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_listen_probability_out_of_range(self, rng, bad):
        with pytest.raises(SimulationError, match=r"lie in \[0, 1\]"):
            sample_action_events(
                rng, 10, np.array([0.2, 0.0]), np.ones(2, dtype=np.int8),
                np.array([0.3, bad]),
            )

    def test_per_node_rates(self, rng):
        n, L, reps = 3, 400, 60
        probs = np.array([0.01, 0.1, 0.5])
        totals = np.zeros(n)
        for _ in range(reps):
            sends, _ = sample_action_events(
                rng, L, probs, np.full(n, TxKind.DATA, dtype=np.int8), np.zeros(n)
            )
            totals += np.bincount(sends.nodes, minlength=n)
        means = totals / reps
        for u in range(n):
            se = np.sqrt(L * probs[u] * (1 - probs[u]) / reps)
            assert abs(means[u] - L * probs[u]) < 5 * se

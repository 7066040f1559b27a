"""Attack corpus: persistence, dedupe, exact replay, shrinking."""

from __future__ import annotations

import json

import pytest

from repro.arena.corpus import ATTACK_SCHEMA, AttackCorpus, AttackRecord, shrink
from repro.arena.search import random_search
from repro.arena.space import Genome, StrategySpace, protocol_factory
from repro.errors import AnalysisError, ConfigurationError

pytestmark = pytest.mark.arena

SPACE = StrategySpace(families=["suffix", "qblock"], budget_log2=(8, 10))


@pytest.fixture(scope="module")
def found():
    """One real search hit, shared by the module's tests."""
    result = random_search(
        SPACE, protocol_factory("fig1"), iterations=4, n_reps=2, seed=17
    )
    return AttackRecord.from_evaluation(
        result.best, protocol="fig1", seed=17, baseline=result.baseline,
        found_by="random_search",
    )


def test_record_json_round_trip(found):
    again = AttackRecord.from_json(found.to_json())
    assert again == found
    assert again.genome.fingerprint() == found.fingerprint


def test_record_rejects_unknown_schema(found):
    bad = dict(found.to_json(), schema="repro.arena_attack/999")
    with pytest.raises(AnalysisError):
        AttackRecord.from_json(bad)


def test_add_reload_and_dedupe(tmp_path, found):
    corpus = AttackCorpus(tmp_path / "corpus.jsonl")
    assert corpus.add(found)
    assert not corpus.add(found)  # same strength: no duplicate line
    reloaded = AttackCorpus(tmp_path / "corpus.jsonl")
    assert len(reloaded) == 1
    assert reloaded.records()[0] == found
    # A strictly stronger re-measurement of the same genome replaces it.
    import dataclasses

    stronger = dataclasses.replace(found, index=found.index + 1.0)
    assert reloaded.add(stronger)
    assert AttackCorpus(tmp_path / "corpus.jsonl").records()[0].index == stronger.index


def test_reload_tolerates_torn_tail_line(tmp_path, found):
    path = tmp_path / "corpus.jsonl"
    AttackCorpus(path).add(found)
    with path.open("a") as fh:
        fh.write('{"schema": "' + ATTACK_SCHEMA + '", "trunc')
    assert len(AttackCorpus(path)) == 1


def test_add_after_torn_tail_line_survives_reload(tmp_path, found):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"schema": "' + ATTACK_SCHEMA + '", "trunc')
    assert AttackCorpus(path).add(found)
    assert AttackCorpus(path).records() == [found]


def test_get_by_prefix(tmp_path, found):
    corpus = AttackCorpus(tmp_path / "corpus.jsonl")
    corpus.add(found)
    assert corpus.get(found.fingerprint[:10]) == found
    with pytest.raises(ConfigurationError):
        corpus.get("ffffffffffff")


def test_replay_is_exact(tmp_path, found):
    corpus = AttackCorpus(tmp_path / "corpus.jsonl")
    corpus.add(found)
    ev = corpus.replay(corpus.records()[0], SPACE)
    assert ev.mean_cost == found.mean_cost
    assert ev.index == found.index


def test_replay_detects_drift(tmp_path, found):
    """A tampered measurement (standing in for changed engine
    behaviour) must fail the replay loudly."""
    path = tmp_path / "corpus.jsonl"
    data = found.to_json()
    data["mean_cost"] += 1.0
    path.write_text(json.dumps(data) + "\n")
    corpus = AttackCorpus(path)
    with pytest.raises(AnalysisError, match="replay mismatch"):
        corpus.replay(corpus.records()[0], SPACE)


def test_shrink_simplifies_without_losing_strength(found):
    small = shrink(found, SPACE, tolerance=0.5, max_passes=2)
    assert small.index >= 0.5 * found.index
    # Shrinking replays every accepted candidate, so the stored
    # numbers are real measurements, not estimates.
    assert small.fingerprint == small.genome.fingerprint()


def test_shrink_reduces_spliced_interval_count():
    genome = Genome("spliced", {
        "intervals": [[0.1, 0.2], [0.5, 0.9]],
        "target_listener": True,
        "budget_log2": 9,
    })
    space = StrategySpace(families=["spliced"], budget_log2=(8, 10))
    result = random_search(space, protocol_factory("fig1"),
                           iterations=1, n_reps=2, seed=4)
    from repro.arena.search import evaluate_genomes

    [ev] = evaluate_genomes(
        space, [genome], protocol_factory("fig1"),
        baseline=result.baseline, n_reps=2, seed=4,
    )
    record = AttackRecord.from_evaluation(
        ev, protocol="fig1", seed=4, baseline=result.baseline
    )
    small = shrink(record, space, tolerance=0.1, max_passes=3)
    assert len(small.genome.params["intervals"]) <= 2


def test_shrink_validates_tolerance(found):
    with pytest.raises(ConfigurationError):
        shrink(found, SPACE, tolerance=0.0)

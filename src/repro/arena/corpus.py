"""Append-only JSONL regression corpus of found attacks.

A search discovery is worthless if it cannot be replayed: the corpus
stores each attack as pure data — the genome, the defender preset name,
the evaluation seed and sizes, and the measured numbers — keyed by the
genome fingerprint.  ``replay`` rebuilds the exact simulation from the
record and requires the measurements to come back *identical* (the
whole stack is bit-deterministic, so any drift is a real behaviour
change in the engine, a protocol, or an adversary — exactly what a
regression corpus is for).

Records are one JSON object per line, append-only; re-adding a known
fingerprint is a no-op unless it now measures a higher index (the
corpus keeps the strongest observed form).  ``shrink`` greedily
simplifies a record's genome — rounding parameters, dropping splice
intervals, shrinking budgets — while its index stays within tolerance,
so regressions are pinned by the smallest schedule that exhibits them,
hypothesis-style.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.arena.search import Evaluation, evaluate_genomes
from repro.arena.space import (
    Genome,
    StrategySpace,
    protocol_channels,
    protocol_factory,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.locking import locked_append

__all__ = ["ATTACK_SCHEMA", "AttackCorpus", "AttackRecord", "shrink"]

#: Schema tag on every corpus line; bump on shape changes.
ATTACK_SCHEMA = "repro.arena_attack/1"


@dataclass(frozen=True)
class AttackRecord:
    """One replayable attack.

    ``seed``/``n_reps`` are the exact evaluation arguments (the
    per-replication streams derive from them and the fingerprint), so
    replaying the record re-runs the same simulations bit-for-bit.
    """

    fingerprint: str
    genome: Genome
    protocol: str
    seed: int
    n_reps: int
    baseline: float
    mean_T: float
    mean_cost: float
    success_rate: float
    index: float
    ratio: float
    found_by: str = ""

    def to_json(self) -> dict:
        return {
            "schema": ATTACK_SCHEMA,
            "fingerprint": self.fingerprint,
            "genome": self.genome.to_json(),
            "protocol": self.protocol,
            "seed": int(self.seed),
            "n_reps": int(self.n_reps),
            "baseline": float(self.baseline),
            "mean_T": float(self.mean_T),
            "mean_cost": float(self.mean_cost),
            "success_rate": float(self.success_rate),
            "index": float(self.index),
            "ratio": float(self.ratio),
            "found_by": self.found_by,
        }

    @classmethod
    def from_json(cls, data: dict) -> "AttackRecord":
        if data.get("schema") != ATTACK_SCHEMA:
            raise AnalysisError(
                f"unknown attack schema: {data.get('schema')!r}"
            )
        return cls(
            fingerprint=str(data["fingerprint"]),
            genome=Genome.from_json(data["genome"]),
            protocol=str(data["protocol"]),
            seed=int(data["seed"]),
            n_reps=int(data["n_reps"]),
            baseline=float(data["baseline"]),
            mean_T=float(data["mean_T"]),
            mean_cost=float(data["mean_cost"]),
            success_rate=float(data["success_rate"]),
            index=float(data["index"]),
            ratio=float(data["ratio"]),
            found_by=str(data.get("found_by", "")),
        )

    @classmethod
    def from_evaluation(
        cls,
        ev: Evaluation,
        *,
        protocol: str,
        seed: int,
        baseline: float,
        found_by: str = "",
    ) -> "AttackRecord":
        """Freeze a search evaluation into a replayable record."""
        return cls(
            fingerprint=ev.fingerprint,
            genome=ev.genome,
            protocol=protocol,
            seed=seed,
            n_reps=ev.n_reps,
            baseline=baseline,
            mean_T=ev.mean_T,
            mean_cost=ev.mean_cost,
            success_rate=ev.success_rate,
            index=ev.index,
            ratio=ev.ratio,
            found_by=found_by,
        )


def _reevaluate(record: AttackRecord, space: StrategySpace, config=None) -> Evaluation:
    """Run the record's exact evaluation afresh.

    The engine is recovered from the stored preset name
    (:func:`protocol_channels`), so multichannel attacks replay on the
    multichannel engine without the record needing an engine field.
    """
    [ev] = evaluate_genomes(
        space,
        [record.genome],
        protocol_factory(record.protocol),
        baseline=record.baseline,
        n_reps=record.n_reps,
        seed=record.seed,
        config=config,
        memo={},
        n_channels=protocol_channels(record.protocol),
    )
    return ev


class AttackCorpus:
    """Fingerprint-keyed, append-only attack store (one JSON per line).

    The file is the source of truth; the in-memory index is rebuilt on
    construction, skipping torn lines.  Appends are locked and start on
    a fresh line (:func:`repro.locking.locked_append`), so a crashed
    writer loses at most its own last record.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: dict[str, AttackRecord] = {}
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = AttackRecord.from_json(json.loads(line))
                except (json.JSONDecodeError, KeyError, ValueError):
                    continue  # torn tail line from a crashed writer
                self._keep_strongest(record)

    def _keep_strongest(self, record: AttackRecord) -> bool:
        known = self._records.get(record.fingerprint)
        if known is not None and known.index >= record.index:
            return False
        self._records[record.fingerprint] = record
        return True

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[AttackRecord]:
        """All records, strongest first (index desc, fingerprint tiebreak)."""
        return sorted(
            self._records.values(), key=lambda r: (-r.index, r.fingerprint)
        )

    def get(self, fingerprint: str) -> AttackRecord:
        # Accept unambiguous prefixes so CLI users can paste the short
        # key a leaderboard table shows.
        matches = [
            r for fp, r in self._records.items() if fp.startswith(fingerprint)
        ]
        if len(matches) != 1:
            raise ConfigurationError(
                f"fingerprint {fingerprint!r} matches {len(matches)} corpus "
                f"entries (need exactly 1)"
            )
        return matches[0]

    def add(self, record: AttackRecord) -> bool:
        """Append ``record`` unless a stronger form is already stored.

        Returns True when the record was written.
        """
        if not self._keep_strongest(record):
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_json(), sort_keys=True) + "\n"
        locked_append(self.path, line.encode("utf-8"))
        return True

    def replay(
        self, record: AttackRecord, space: StrategySpace, config=None
    ) -> Evaluation:
        """Re-run the record's evaluation and demand exact agreement.

        Raises :class:`~repro.errors.AnalysisError` if any measured
        number differs from the recorded one — the engine, a protocol,
        or an adversary changed behaviour under this schedule.
        """
        ev = _reevaluate(record, space, config)
        mismatches = [
            f"{name}: recorded {recorded!r}, replayed {measured!r}"
            for name, recorded, measured in (
                ("mean_T", record.mean_T, ev.mean_T),
                ("mean_cost", record.mean_cost, ev.mean_cost),
                ("success_rate", record.success_rate, ev.success_rate),
                ("index", record.index, ev.index),
                ("ratio", record.ratio, ev.ratio),
            )
            if recorded != measured
        ]
        if mismatches:
            raise AnalysisError(
                f"corpus replay mismatch for {record.fingerprint[:12]} "
                f"({record.genome.describe_short()} vs {record.protocol}): "
                + "; ".join(mismatches)
            )
        return ev


def _shrink_candidates(genome: Genome) -> list[Genome]:
    """Deterministic, strictly-simplifying neighbours of ``genome``.

    Ordered roughly by how much they simplify: drop splice intervals
    first, then zero booleans, then coarsen floats, then shrink
    integer knobs toward their family's floor.
    """
    out: list[Genome] = []
    params = genome.params
    intervals = params.get("intervals")
    if intervals is not None and len(intervals) > 1:
        for i in range(len(intervals)):
            rest = [list(p) for j, p in enumerate(intervals) if j != i]
            out.append(Genome(genome.family, {**params, "intervals": rest}))
    for name, value in sorted(params.items()):
        if isinstance(value, bool):
            if value:
                out.append(Genome(genome.family, {**params, name: False}))
        elif isinstance(value, float):
            for coarse in (round(value, 1), round(value * 2) / 2, 1.0):
                if coarse != value and 0.0 < coarse <= 1.0:
                    out.append(
                        Genome(genome.family, {**params, name: float(coarse)})
                    )
        elif isinstance(value, int) and name == "budget_log2":
            out.append(Genome(genome.family, {**params, name: value - 1}))
        elif isinstance(value, int) and value > 1:
            out.append(Genome(genome.family, {**params, name: value // 2}))
    return out


def shrink(
    record: AttackRecord,
    space: StrategySpace,
    *,
    tolerance: float = 0.85,
    max_passes: int = 4,
    config=None,
) -> AttackRecord:
    """Greedily minimize a record's genome while it keeps its bite.

    A candidate simplification is accepted when its re-measured index
    stays at least ``tolerance`` times the *original* record's index.
    First-accept greedy descent, bounded by ``max_passes`` sweeps;
    evaluation seeds derive from each candidate's own fingerprint, so
    shrinking is deterministic and cache-friendly.  Returns a new
    record (measured numbers included) — the caller decides whether to
    :meth:`AttackCorpus.add` it.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ConfigurationError(
            f"tolerance must be in (0, 1], got {tolerance!r}"
        )
    floor = tolerance * record.index
    best = record
    for _ in range(max_passes):
        improved = False
        for candidate in _shrink_candidates(best.genome):
            try:
                ev = _reevaluate(
                    replace(best, genome=candidate), space, config
                )
            except ConfigurationError:
                continue  # candidate left the family's legal range
            if ev.index >= floor:
                best = AttackRecord.from_evaluation(
                    ev,
                    protocol=best.protocol,
                    seed=best.seed,
                    baseline=best.baseline,
                    found_by=record.found_by or "shrink",
                )
                improved = True
                break
        if not improved:
            break
    return best

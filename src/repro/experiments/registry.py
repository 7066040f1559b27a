"""Experiment registry, run configuration, and report type."""

from __future__ import annotations

import hashlib
import importlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.executor import ExecutorStats
from repro.errors import ConfigurationError
from repro.experiments.runner import Table
from repro.telemetry.sink import get_sink, session

__all__ = [
    "DEFAULT_BATCH",
    "Experiment",
    "ExperimentReport",
    "RUNTIME_NOTE_PREFIX",
    "RunConfig",
    "SCHEMA_VERSION",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]

#: Version stamp for persisted experiment reports; bumped whenever the
#: report's serialized shape changes.  ``repro.store`` writes it and
#: ``compare_reports`` refuses to diff reports from different versions.
SCHEMA_VERSION = 2

#: Notes carrying this prefix describe *this run's* execution (executor
#: stats, machine-local timings).  They render in the CLI but are
#: excluded from persisted reports so that serial and parallel runs of
#: the same seed stay byte-identical on disk.
RUNTIME_NOTE_PREFIX = "[runtime]"

#: Default cap on trials per executor task (:attr:`RunConfig.batch`),
#: shared by the CLI's ``--batch`` and the sweep service.
DEFAULT_BATCH = 64


@dataclass
class RunConfig:
    """Everything an experiment run needs besides the experiment id.

    This is the single way execution options travel from the CLI (or a
    caller) through :func:`run_experiment` into the experiment modules
    and down to the executor.

    Attributes
    ----------
    seed:
        Root seed; every task derives its own stream from it.
    quick:
        ``True`` runs the reduced CI-sized sweep, ``False`` the full
        sweep recorded in EXPERIMENTS.md.
    jobs:
        Worker processes for replication fan-out (``1`` = serial,
        ``0``/negative = one per core).
    batch:
        Most trials per executor task (default :data:`DEFAULT_BATCH`).
        Every sweep runs its cache misses as
        :meth:`~repro.engine.simulator.Simulator.run_batch` groups of
        up to this many trials, which span the sweep's cells; with
        ``jobs > 1`` a group holds at most ``ceil(misses / jobs)``
        trials, so every worker gets one.  ``1`` gives one-trial
        groups, which the engine plays through its scalar loop, and
        larger values amortise per-phase Python overhead across a
        lockstep batch.  Like ``jobs``, this is an execution knob: any
        value produces byte-identical reports.  Values below 1 raise
        :class:`~repro.errors.ConfigurationError` at construction.
    timeout:
        Per-trial wall-clock limit in seconds, a finite number > 0
        (``None`` = no limit).  A task of ``k`` trials gets ``k`` times
        this budget; one that times out, or whose worker crashes, is
        retried once before the run fails.
    cache:
        Enable the content-addressed result cache
        (:mod:`repro.cache`): completed ``(point, replication)`` cells
        are served from disk when their fingerprint matches, and misses
        are written back as they complete — which is also what makes an
        interrupted sweep resumable.
    cache_dir:
        Cache location; ``None`` means ``$REPRO_CACHE_DIR`` or
        ``.repro-cache`` in the working directory.
    resume:
        Consult existing cache entries (the default).  ``False``
        recomputes every cell but still writes the fresh results back,
        refreshing the cache in place.
    telemetry:
        Telemetry root directory (:mod:`repro.telemetry`); ``None``
        (default) disables telemetry.  When set and no sink is already
        active, :func:`run_experiment` opens a run-scoped sink around
        the call.  Telemetry never changes results — it is excluded
        from equality like the cache fields.
    pool:
        Optional :class:`~repro.engine.executor.WorkerPool` of
        long-lived workers shared across task batches (and across
        whole experiment runs — the sweep service and ``run --pool``
        keep one for their lifetime).  Purely an execution knob:
        results are bit-identical with or without it.
    cache_store:
        Optional pre-built cache store (``CacheStore`` or the
        read-through :class:`~repro.cache.memory.ReadThroughStore`).
        When set (and :attr:`cache` is true) it is used as-is instead
        of opening :attr:`cache_dir` — how the service shares one
        in-memory read-through layer across every job.
    experiment:
        Experiment id stamped into cache fingerprints;
        :func:`run_experiment` fills it in automatically.
    stats:
        Accumulated :class:`~repro.engine.executor.ExecutorStats` for
        every task batch the run issued.  Excluded from equality (as
        are the cache fields, which cannot change the science): two
        configs that run the same science compare equal even if one has
        already executed.
    """

    seed: int = 0
    quick: bool = True
    jobs: int = 1
    batch: int = DEFAULT_BATCH
    timeout: float | None = None
    cache: bool = field(default=False, compare=False)
    cache_dir: "str | Path | None" = field(default=None, compare=False)
    resume: bool = field(default=True, compare=False)
    telemetry: "str | Path | None" = field(default=None, compare=False)
    pool: "object | None" = field(default=None, repr=False, compare=False)
    cache_store: "object | None" = field(default=None, repr=False, compare=False)
    experiment: str | None = field(default=None, repr=False, compare=False)
    stats: ExecutorStats = field(
        default_factory=ExecutorStats, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")

    @property
    def full(self) -> bool:
        """The inverse of :attr:`quick` (what the CLI's ``--full`` sets)."""
        return not self.quick

    def fingerprint(self) -> str:
        """Short digest of the science-determining fields.

        Two configs with equal fingerprints produce byte-identical
        reports; execution knobs (jobs, timeout, cache, telemetry) are
        deliberately excluded.  Stamped into telemetry manifests so an
        event log can be matched to the run it measured.
        """
        payload = repr((self.seed, self.quick, self.experiment))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def resolve_cache_store(self):
        """The :class:`~repro.cache.store.CacheStore` this run should
        use, or ``None`` when caching is disabled."""
        if not self.cache:
            return None
        if self.cache_store is not None:
            return self.cache_store
        from repro.cache import CacheStore, default_cache_dir

        return CacheStore(
            self.cache_dir if self.cache_dir is not None else default_cache_dir()
        )


@dataclass
class ExperimentReport:
    """Everything one experiment produced.

    ``checks`` maps named claims ("exponent within band", "success rate
    above 1-eps") to booleans; the benchmark suite asserts them and
    EXPERIMENTS.md records them.
    """

    eid: str
    title: str
    anchor: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def render(self) -> str:
        lines = [f"=== {self.eid}: {self.title}", f"paper anchor: {self.anchor}", ""]
        for t in self.tables:
            lines.append(t.render())
            lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        for name, ok in self.checks.items():
            lines.append(f"check [{'PASS' if ok else 'FAIL'}] {name}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """Registry entry: metadata plus a lazily imported runner."""

    eid: str
    title: str
    anchor: str
    module: str  # dotted module exposing run(config: RunConfig)


_REGISTRY: dict[str, Experiment] = {
    e.eid: e
    for e in [
        Experiment("E1", "1-to-1 cost scales like sqrt(T)", "Theorem 1 (cost)",
                   "repro.experiments.e01_one_to_one_scaling"),
        Experiment("E2", "1-to-1 success probability >= 1 - eps", "Theorem 1 (correctness)",
                   "repro.experiments.e02_one_to_one_success"),
        Experiment("E3", "Figure 1 vs KSY vs deterministic baselines", "Theorem 1 vs [23]",
                   "repro.experiments.e03_ksy_comparison"),
        Experiment("E4", "1-to-1 latency is O(T)", "Theorem 1 (latency)",
                   "repro.experiments.e04_latency"),
        Experiment("E5", "product game forces E(A)E(B) ~ T", "Theorem 2",
                   "repro.experiments.e05_product_lower_bound"),
        Experiment("E6", "per-node broadcast cost falls with n", "Theorem 3 (cost vs n)",
                   "repro.experiments.e06_broadcast_cost_vs_n"),
        Experiment("E7", "per-node broadcast cost ~ sqrt(T/n)", "Theorem 3 (cost vs T)",
                   "repro.experiments.e07_broadcast_cost_vs_T"),
        Experiment("E8", "unjammed broadcast is polylog(n)", "Theorem 3 (efficiency, latency)",
                   "repro.experiments.e08_broadcast_unjammed"),
        Experiment("E9", "helpers beat naive halting under the halving attack", "Section 3.1 / Theorem 3 fairness",
                   "repro.experiments.e09_fairness_halving"),
        Experiment("E10", "Theorem 4 reduction arithmetic on measured runs", "Theorem 4",
                   "repro.experiments.e10_fair_lower_bound"),
        Experiment("E11", "golden-ratio exponent under spoofing", "Theorem 5",
                   "repro.experiments.e11_golden_ratio"),
        Experiment("E12", "resource advantage grows with n", "Section 1.3 headline",
                   "repro.experiments.e12_resource_advantage"),
        Experiment("E13", "what the prior 1-to-n designs give up", "Section 1.4 related work",
                   "repro.experiments.e13_related_work"),
        Experiment("E14", "adversary strategy efficiency frontier", "Theorems 1/3 analyses (q-blocking optimality)",
                   "repro.experiments.e14_adversary_zoo"),
        Experiment("E15", "extension: what channel-hopping spectrum is worth", "related-work multichannel models [14-16, 18]",
                   "repro.experiments.e15_multichannel"),
        Experiment("E16", "the min-combination of Figure 1 and KSY", "remark after Theorem 1",
                   "repro.experiments.e16_combined"),
        Experiment("E17", "searched adversaries stay inside the sqrt envelope", "Theorems 1+2 (worst case over adversaries)",
                   "repro.experiments.e17_arena_search"),
        Experiment("E18", "Chen-Zheng spectrum speedup vs the fraction jammer", "multichannel extension (arXiv 1904.06328 / 2001.03936)",
                   "repro.experiments.e18_chenzheng"),
        Experiment("A1", "slow vs aggressive rate growth", "Lemma 5 / Section 3.1 ablation",
                   "repro.experiments.a01_growth_ablation"),
        Experiment("A3", "uninformed noise on/off", "Section 3.1 ablation (n gauging)",
                   "repro.experiments.a03_noise_ablation"),
        Experiment("A4", "nack phase on/off", "Section 2 ablation (feedback)",
                   "repro.experiments.a04_nack_ablation"),
        Experiment("A5", "robustness to the unit-cost radio abstraction", "Section 1.2 model assumption",
                   "repro.experiments.a05_cost_model"),
        Experiment("A6", "sensitivity of conclusions to the sim preset", "DESIGN.md section 3 substitution claim",
                   "repro.experiments.a06_sensitivity"),
    ]
}


def list_experiments() -> list[Experiment]:
    """All registered experiments, in registry order."""
    return list(_REGISTRY.values())


def get_experiment(eid: str) -> Experiment:
    try:
        return _REGISTRY[eid.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown experiment {eid!r}; known: {known}") from None


def run_experiment(
    eid: str,
    config: RunConfig | None = None,
) -> ExperimentReport:
    """Run one experiment by id.

    Pass a :class:`RunConfig` to control seed, sweep size, parallelism,
    and timeouts::

        run_experiment("E1", RunConfig(seed=7, quick=False, jobs=4))

    :class:`RunConfig` is the only call convention — the legacy
    ``seed=``/``quick=`` keywords (and the bare integer seed) finished
    their one-release :class:`DeprecationWarning` period and were
    removed; passing them now raises like any other unknown argument.
    """
    if config is None:
        cfg = RunConfig()
    elif isinstance(config, RunConfig):
        cfg = config
    else:
        raise ConfigurationError(
            f"expected a RunConfig or None, got {config!r}; the legacy "
            "integer-seed form was removed — use RunConfig(seed=...)"
        )
    exp = get_experiment(eid)
    cfg.experiment = exp.eid  # stamp cache fingerprints with the id
    if cfg.telemetry is not None and get_sink() is None:
        # API parity with the CLI's --telemetry: one run directory
        # scoped to this call.  An already-active sink (e.g. the CLI's
        # session around a `run all`) is reused, not nested.
        with session(
            cfg.telemetry,
            manifest={
                "command": "run_experiment",
                "experiments": [exp.eid],
                "seed": cfg.seed,
                "quick": cfg.quick,
                "config_fingerprint": cfg.fingerprint(),
            },
        ):
            return _execute(exp, cfg)
    return _execute(exp, cfg)


def _execute(exp: Experiment, cfg: RunConfig) -> ExperimentReport:
    mod = importlib.import_module(exp.module)
    runner: Callable[..., ExperimentReport] = mod.run
    t0 = time.perf_counter()
    report = runner(cfg)
    sink = get_sink()
    if sink is not None:
        sink.span_event(
            "experiment.run", time.perf_counter() - t0,
            eid=exp.eid, seed=cfg.seed, quick=cfg.quick,
            config_fingerprint=cfg.fingerprint(),
        )
    report.eid = exp.eid
    report.title = exp.title
    report.anchor = exp.anchor
    if cfg.stats.tasks or cfg.stats.cache_requests:
        report.notes.append(f"{RUNTIME_NOTE_PREFIX} {cfg.stats.summary()}")
    return report

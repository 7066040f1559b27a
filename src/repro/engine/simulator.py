"""The phase loops: protocol × adversary × medium → costs, latency, outcome.

:meth:`Simulator.run` plays one complete execution of a protocol against
an adversary with full energy accounting; :meth:`Simulator.run_batch`
plays B of them in lockstep, bit-identical per trial (one trial takes
the scalar loop).  They are the engine's only two phase loops: the
multichannel engine (:class:`repro.multichannel.engine.MCSimulator`)
drives the same two and differs only in its *medium*
(:class:`SingleChannel` here).  The loops are phase-granular; all
slot-level work happens vectorised inside :mod:`repro.channel.model`.
"""

from __future__ import annotations

import copy
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.adversaries.base import Adversary, AdversaryContext
from repro.channel.accounting import BatchEnergyLedger, EnergyLedger
from repro.channel.events import N_STATUS
from repro.channel.model import release_scratch, resolve_phase_batch_core
from repro.engine.phase import BatchPhaseObservation, PhaseObservation
from repro.engine.sampling import sample_action_events, sample_action_events_batch
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    ProtocolError,
    SimulationError,
)
from repro.protocols.base import Protocol
from repro.rng import RngFactory
from repro.telemetry.sink import get_sink

__all__ = [
    "Simulator",
    "SingleChannel",
    "RunResult",
    "BatchResult",
    "run",
    "run_batch",
]

_STAGES = ("protocol", "sampling", "adversary", "resolve", "accounting")


def _clock(stages: dict, stage: str, since: float) -> float:
    """Charge ``now - since`` to ``stages[stage]``; returns ``now``."""
    now = time.perf_counter()
    stages[stage] += now - since
    return now


@dataclass(frozen=True)
class RunResult:
    """Outcome of one complete execution.

    Attributes
    ----------
    node_costs:
        ``(n_nodes,)`` total energy per good node.
    adversary_cost:
        The adversary's total spend — the paper's ``T``.
    slots:
        Total latency in slots (sum of phase lengths until the last node
        halted).
    phases:
        Number of phases executed.
    truncated:
        True when the run hit the safety cap instead of halting; such
        runs should be treated as censored observations.
    stats:
        The protocol's :meth:`~repro.protocols.base.Protocol.summary`.
    phase_history:
        Per-phase cost records (empty when history is disabled).
    """

    node_costs: np.ndarray
    adversary_cost: int
    slots: int
    phases: int
    truncated: bool
    stats: dict
    phase_history: list = field(default_factory=list)
    node_send_costs: np.ndarray | None = None
    node_listen_costs: np.ndarray | None = None

    @property
    def max_node_cost(self) -> int:
        """``max_u C(u)`` — the resource-competitive cost measure."""
        return int(self.node_costs.max())

    def weighted_node_costs(self, model) -> np.ndarray:
        """Per-node energy under a weighted radio
        :class:`~repro.channel.accounting.CostModel`."""
        if self.node_send_costs is None or self.node_listen_costs is None:
            raise ValueError("run was recorded without a send/listen split")
        return model.weight(self.node_send_costs, self.node_listen_costs)

    @property
    def success(self) -> bool:
        return bool(self.stats.get("success", False))

    @property
    def T(self) -> int:
        """Alias for :attr:`adversary_cost`, matching the paper's ``T``."""
        return self.adversary_cost


@dataclass(frozen=True)
class BatchResult:
    """Outcome of :meth:`Simulator.run_batch` — B trials, one object.

    ``results`` holds one full :class:`RunResult` per trial (the
    per-trial *views*: element ``t`` is bit-identical to what
    ``run(seeds[t])`` returns), and the stacked properties expose the
    cross-trial arrays analysis code wants without a Python loop.
    """

    results: tuple[RunResult, ...]
    seeds: tuple

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def node_costs(self) -> np.ndarray:
        """``(B, n_nodes)`` stacked per-node costs."""
        return np.stack([r.node_costs for r in self.results])

    @property
    def max_node_costs(self) -> np.ndarray:
        """``(B,)`` per-trial ``max_u C(u)``."""
        return np.array([r.max_node_cost for r in self.results], dtype=np.int64)

    @property
    def adversary_costs(self) -> np.ndarray:
        """``(B,)`` per-trial adversary spend ``T``."""
        return np.array([r.adversary_cost for r in self.results], dtype=np.int64)

    @property
    def slots(self) -> np.ndarray:
        return np.array([r.slots for r in self.results], dtype=np.int64)

    @property
    def phases(self) -> np.ndarray:
        return np.array([r.phases for r in self.results], dtype=np.int64)

    @property
    def successes(self) -> np.ndarray:
        return np.array([r.success for r in self.results], dtype=bool)

    @property
    def truncated(self) -> np.ndarray:
        return np.array([r.truncated for r in self.results], dtype=bool)


def _releases_scratch(loop):
    """Wrap a phase loop so that the resolver's scratch buffers, which
    its phases grow, are dropped when the run returns or raises."""

    @functools.wraps(loop)
    def wrapped(*args, **kwargs):
        try:
            return loop(*args, **kwargs)
        finally:
            release_scratch()

    return wrapped


def _plans_per_trial(cls) -> bool:
    """Whether ``cls`` overrides ``plan_phase`` below its nearest
    ``plan_phase_batch`` in the MRO.

    That batch form was written for a parent's ``plan_phase`` and would
    skip the override, so the lockstep loop plans such a class through
    the medium's ``adversary_base.plan_phase_batch``, which loops
    ``plan_phase`` per trial.
    """
    for klass in cls.__mro__:
        if "plan_phase_batch" in vars(klass):
            return False
        if "plan_phase" in vars(klass):
            return True
    return True


class SingleChannel:
    """The paper's medium: one shared channel, resolved on real slots.

    A *medium* is the stage the phase loops call between event sampling
    and collision resolution.  It owns everything that differs between
    one channel and ``C``:

    * ``stream`` — the name of an extra per-trial rng stream, or
      ``None``.  A medium that names one also provides
      ``hop(sends, listens, length, rng)``, which places one trial's
      real-slot events on the resolver's slot axis; the loops charge it
      to the ``sampling`` stage.  ``hop`` applies half-duplex on real
      slots first, so no node keeps a send and a listen in one resolver
      slot, and both loops skip the resolver's own half-duplex pass.
      One channel needs neither.
    * The adversary side: ``adversary_base`` (the strategy interface;
      the per-trial planning fallback and the ``observe_outcome``
      override check key off it), :meth:`begin_run` and
      :meth:`context`.
    * The resolver side: the resolver and ledger see
      ``n_channels * L`` slots per phase, and the protocol's jam groups
      reach the resolver only when ``jam_groups`` is set.

    Caps and the ``slots`` latency counter count real slots on every
    medium.  :class:`repro.multichannel.engine.HoppingChannels` is the
    ``C``-channel medium.
    """

    n_channels = 1
    stream: str | None = None
    adversary_base = Adversary
    jam_groups = True

    def begin_run(self, adversary, n_nodes: int, n_groups: int, rng) -> None:
        adversary.begin_run(n_nodes, n_groups, rng)

    def context(
        self, phase_index, length, n_nodes, n_groups, tags,
        sends, listens, send_probs, listen_probs, spent,
    ) -> AdversaryContext:
        """The adversary's view of one phase."""
        return AdversaryContext(
            phase_index, length, n_nodes, n_groups, tags,
            sends, listens, send_probs, listen_probs, spent,
        )


class Simulator:
    """Reusable runner binding a protocol, an adversary, and limits.

    Parameters
    ----------
    protocol / adversary:
        The parties.  Both are reset at the start of every :meth:`run`.
    max_slots / max_phases:
        Safety caps.  By default a run that exceeds them is truncated
        and flagged; with ``strict=True`` it raises
        :class:`~repro.errors.BudgetExceededError` instead.
    keep_history:
        Keep per-phase cost records on the result (off for big sweeps).
    trace:
        Optional :class:`repro.trace.TraceRecorder` capturing raw
        slot-level material of every phase (small runs only).

    While a :mod:`repro.telemetry` sink is active, each run's ``sim.run``
    (``sim.run_batch``) span times its phase loop and splits that time
    over the loop's stage clocks, as its ``stages`` attr.
    """

    #: The medium the phase loops resolve on.
    medium = SingleChannel()

    def __init__(
        self,
        protocol: Protocol,
        adversary: Adversary,
        *,
        max_slots: int = 50_000_000,
        max_phases: int = 200_000,
        strict: bool = False,
        keep_history: bool = False,
        trace=None,
    ) -> None:
        self.protocol = protocol
        self.adversary = adversary
        self.max_slots = max_slots
        self.max_phases = max_phases
        self.strict = strict
        self.keep_history = keep_history
        self.trace = trace

    def run(self, seed: int | np.random.Generator | None = None) -> RunResult:
        """Play one execution and return its :class:`RunResult`."""
        return self._run(seed, self.adversary)

    def run_batch(self, seeds, *, adversaries=None) -> BatchResult:
        """Play B independent trials as one stacked computation.

        Trial ``t`` is bit-identical to :meth:`run` ``(seeds[t])`` on
        fresh instances: every trial keeps its own adversary instance,
        rng streams and ledger row, and sees exactly the rng call
        sequence of a scalar run — only the deterministic per-phase
        kernels (event sampling, collision resolution, plan emission)
        and the protocol state are stacked across trials, which is
        where the per-trial Python overhead lived.  Trials advance in
        lockstep; a trial whose protocol halts (or trips the safety
        caps) simply drops out of subsequent steps.  A one-trial batch
        plays through the scalar loop of :meth:`run` instead, so it
        emits a ``sim.run`` telemetry span and honours ``trace=``.

        Parameters
        ----------
        seeds:
            One rng seed per trial.
        adversaries:
            Optional sequence of fresh adversary instances, one per
            seed: trial ``t`` plays against ``adversaries[t]``, so the
            trials of one batch may face different strategies (a sweep
            whose cells differ only in their adversary runs as one
            batch).  By default every trial gets a ``copy.deepcopy``
            of the simulator's adversary.  The batch always drives the
            simulator's own protocol.  Both are equivalent to fresh
            instances for every protocol/adversary in the repo, whose
            ``reset_batch`` / ``begin_run`` hooks (re-)initialise all
            run state, so back-to-back calls on one simulator are
            bit-identical too.

        Returns
        -------
        BatchResult
            Per-trial :class:`RunResult` views plus stacked arrays.
        """
        return self._run_batch(seeds, adversaries)

    @_releases_scratch
    def _run(self, seed, adversary) -> RunResult:
        """The scalar phase loop behind every engine's ``run`` and
        one-trial ``run_batch``."""
        protocol = self.protocol
        factory = RngFactory(seed)
        protocol_rng = factory.get("protocol")
        adversary_rng = factory.get("adversary")
        medium = self.medium
        hop_rng = factory.get(medium.stream) if medium.stream else None
        C = medium.n_channels
        jam_groups = medium.jam_groups

        n_nodes = protocol.n_nodes
        ledger = EnergyLedger(n_nodes, keep_history=self.keep_history)
        slots = 0
        phases = 0
        truncated = False
        n_groups_seen = 1
        # Telemetry: aggregate the per-phase stage clocks into one span
        # per run — a phase-granular log would dwarf the science output
        # at 200k-phase scale.  ``stages is None`` is the entire
        # disabled overhead of each clock site.
        sink = get_sink()
        stages = dict.fromkeys(_STAGES, 0.0) if sink is not None else None
        n_events = 0

        t_start = t_stage = time.perf_counter() if stages is not None else 0.0
        protocol.reset(protocol_rng)
        spec = protocol.next_phase()
        if stages is not None:
            t_stage = _clock(stages, "protocol", t_stage)
        if spec is not None and spec.groups is not None:
            n_groups_seen = int(spec.groups.max()) + 1
        medium.begin_run(adversary, n_nodes, n_groups_seen, adversary_rng)

        while spec is not None:
            if spec.n_nodes != n_nodes:
                raise ProtocolError(
                    f"phase for {spec.n_nodes} nodes from a protocol with "
                    f"{n_nodes}"
                )
            if slots + spec.length > self.max_slots or phases >= self.max_phases:
                if self.strict:
                    raise BudgetExceededError(
                        f"run exceeded caps (slots={slots}, phases={phases})"
                    )
                truncated = True
                break

            if stages is not None:
                t_stage = time.perf_counter()
            sends, listens = sample_action_events(
                protocol_rng,
                spec.length,
                spec.send_probs,
                spec.send_kinds,
                spec.listen_probs,
            )
            if hop_rng is not None:
                sends, listens = medium.hop(sends, listens, spec.length, hop_rng)
            if stages is not None:
                t_stage = _clock(stages, "sampling", t_stage)
            ctx = medium.context(
                phases, spec.length, n_nodes, n_groups_seen, dict(spec.tags),
                sends, listens, spec.send_probs, spec.listen_probs,
                ledger.adversary_cost,
            )
            plan = adversary.plan_phase(ctx)
            extent = C * spec.length
            if plan.length != extent:
                raise SimulationError(
                    f"JamPlan length {plan.length} does not match phase "
                    f"length {extent}"
                )
            if stages is not None:
                t_stage = _clock(stages, "adversary", t_stage)
            groups = spec.groups if jam_groups else None
            # The sampler and the hop emit in-range events and JamPlan
            # checks its spoofs, so the resolver need not re-check them.
            outcome = resolve_phase_batch_core(
                (extent,), n_nodes, (sends,), (listens,), (plan,), (groups,),
                validate=False, half_duplex=hop_rng is None,
            ).outcome_for(0)
            if stages is not None:
                t_stage = _clock(stages, "resolve", t_stage)
                n_events += len(sends) + len(listens)
            ledger.charge_phase(
                extent,
                outcome.send_cost + outcome.listen_cost,
                outcome.adversary_cost,
                tags=spec.tags,
                send_costs=outcome.send_cost,
                listen_costs=outcome.listen_cost,
            )
            if self.trace is not None:
                self.trace.record(
                    phases, extent, n_nodes, spec.tags,
                    sends, listens, plan, groups, outcome,
                )
            slots += spec.length
            phases += 1

            if stages is not None:
                t_stage = _clock(stages, "accounting", t_stage)
            protocol.observe(
                PhaseObservation(
                    length=spec.length,
                    heard=outcome.heard,
                    send_cost=outcome.send_cost,
                    listen_cost=outcome.listen_cost,
                    tags=dict(spec.tags),
                )
            )
            adversary.observe_outcome(ctx, outcome)
            spec = protocol.next_phase()
            if stages is not None:
                t_stage = _clock(stages, "protocol", t_stage)

        if spec is None and not protocol.done:
            raise ProtocolError("protocol returned no phase but reports not done")

        ledger.check_conservation()
        if sink is not None:
            sink.span_event(
                "sim.run", time.perf_counter() - t_start,
                phases=phases, slots=slots, events=n_events,
                events_per_slot=round(n_events / slots, 6) if slots else 0.0,
                stages=stages,
            )
        return RunResult(
            node_costs=ledger.node_costs,
            adversary_cost=ledger.adversary_cost,
            slots=slots,
            phases=phases,
            truncated=truncated,
            stats=protocol.summary(),
            phase_history=ledger.history,
            node_send_costs=ledger.send_costs,
            node_listen_costs=ledger.listen_costs,
        )

    @_releases_scratch
    def _run_batch(self, seeds, adversaries) -> BatchResult:
        """The lockstep phase loop behind every engine's ``run_batch``.

        The protocol holds every trial's state as arrays with a leading
        trial axis and advances all of them per step
        (:meth:`~repro.protocols.base.Protocol.next_phase_batch` /
        :meth:`~repro.protocols.base.Protocol.observe_batch`); phase
        costs accumulate in one :class:`BatchEnergyLedger`; observations
        scatter straight from the stacked resolver output.  Rng streams
        stay per-trial, so every trial's results are bit-identical to
        :meth:`run` on fresh instances — the differential suites assert
        exactly that.

        Trials that halt early (or trip the caps) are masked out of the
        runnable set, never compacted: their rows ride along frozen,
        which keeps every surviving trial's rng consumption on the
        scalar schedule.

        This is the one place that picks a loop: a one-trial batch plays
        through the scalar :meth:`_run` (same bits, none of the stacked
        protocol's and ledger's fixed per-call cost; both loops share
        the resolver), so a trace recorder works there and is rejected
        only for more than one trial.
        """
        seeds = list(seeds)
        if adversaries is None:
            adversaries = [copy.deepcopy(self.adversary) for _ in seeds]
        else:
            adversaries = list(adversaries)
            if len(adversaries) != len(seeds):
                raise ConfigurationError(
                    f"{len(adversaries)} adversaries for {len(seeds)} seeds"
                )
        if not seeds:
            return BatchResult(results=(), seeds=())
        if len(seeds) == 1:
            result = self._run(seeds[0], adversaries[0])
            return BatchResult(results=(result,), seeds=tuple(seeds))
        if self.trace is not None:
            raise ConfigurationError(
                "trace recording is per-run; use run() for traced executions"
            )
        protocol = self.protocol
        B = len(seeds)
        medium = self.medium
        C = medium.n_channels
        n_nodes = protocol.n_nodes
        base = medium.adversary_base
        adv_type = type(adversaries[0])
        if any(
            type(a) is not adv_type for a in adversaries
        ) or _plans_per_trial(adv_type):
            adv_type = base  # per-trial loop over plan_phase
        # Outcome feedback is an opt-in hook; when nobody overrides it,
        # skip materialising per-trial PhaseOutcome views entirely.
        observe_hooked = any(
            type(a).observe_outcome is not base.observe_outcome
            for a in adversaries
        )

        factories = [RngFactory(seed) for seed in seeds]
        protocol_rngs = [f.get("protocol") for f in factories]
        adversary_rngs = [f.get("adversary") for f in factories]
        hop_rngs = (
            [f.get(medium.stream) for f in factories] if medium.stream
            else None
        )

        ledger = BatchEnergyLedger(B, n_nodes, keep_history=self.keep_history)
        slots = np.zeros(B, dtype=np.int64)
        phases = np.zeros(B, dtype=np.int64)
        truncated = np.zeros(B, dtype=bool)
        sink = get_sink()
        stages = dict.fromkeys(_STAGES, 0.0) if sink is not None else None
        n_events = 0

        t_start = t_stage = time.perf_counter() if stages is not None else 0.0
        protocol.reset_batch(protocol_rngs)
        spec = protocol.next_phase_batch(np.ones(B, dtype=bool))
        if stages is not None:
            t_stage = _clock(stages, "protocol", t_stage)

        shared_groups = (
            int(spec.groups.max()) + 1
            if spec is not None and spec.groups is not None
            else 1
        )
        first_active = (
            spec.active if spec is not None else np.zeros(B, dtype=bool)
        )
        n_groups_seen = np.where(first_active, shared_groups, 1)
        for t in range(B):
            medium.begin_run(
                adversaries[t], n_nodes, int(n_groups_seen[t]),
                adversary_rngs[t],
            )

        while spec is not None:
            if spec.n_nodes != n_nodes:
                raise ProtocolError(
                    f"phase for {spec.n_nodes} nodes from a protocol "
                    f"with {n_nodes}"
                )
            runnable = spec.active & ~truncated
            over = runnable & (
                (slots + spec.lengths > self.max_slots)
                | (phases >= self.max_phases)
            )
            if over.any():
                if self.strict:
                    t = int(np.flatnonzero(over)[0])
                    raise BudgetExceededError(
                        f"run exceeded caps (slots={int(slots[t])}, "
                        f"phases={int(phases[t])})"
                    )
                truncated |= over
                runnable &= ~over
            if not runnable.any():
                break
            idx = np.flatnonzero(runnable)

            if stages is not None:
                t_stage = time.perf_counter()
            full = len(idx) == B
            lengths = spec.lengths if full else spec.lengths[idx]
            events = sample_action_events_batch(
                protocol_rngs if full else [protocol_rngs[t] for t in idx],
                lengths,
                spec.send_probs if full else spec.send_probs[idx],
                spec.send_kinds if full else spec.send_kinds[idx],
                spec.listen_probs if full else spec.listen_probs[idx],
                validate=False,
            )
            if hop_rngs is None:
                sends, listens = events.sends, events.listens
            else:
                events = [
                    medium.hop(s, l, int(spec.lengths[t]), hop_rngs[t])
                    for (s, l), t in zip(events, idx)
                ]
                sends = [ev[0] for ev in events]
                listens = [ev[1] for ev in events]
            if stages is not None:
                t_stage = _clock(stages, "sampling", t_stage)

            adv_spent = ledger.adversary_costs
            ctxs = [
                medium.context(
                    int(phases[t]), int(spec.lengths[t]), n_nodes,
                    int(n_groups_seen[t]), dict(spec.tags[t]),
                    s, l, spec.send_probs[t], spec.listen_probs[t],
                    int(adv_spent[t]),
                )
                for t, (s, l) in zip(idx.tolist(), events)
            ]
            plans = adv_type.plan_phase_batch(
                [adversaries[t] for t in idx], ctxs
            )
            extents = C * lengths
            for plan, extent in zip(plans, extents.tolist()):
                if plan.length != extent:
                    raise SimulationError(
                        f"JamPlan length {plan.length} does not match "
                        f"phase length {extent}"
                    )
            if stages is not None:
                t_stage = _clock(stages, "adversary", t_stage)
            groups = spec.groups if medium.jam_groups else None
            core = resolve_phase_batch_core(
                extents,
                n_nodes,
                sends,
                listens,
                plans,
                [groups] * len(idx),
                validate=False,
                half_duplex=hop_rngs is None,
            )
            if stages is not None:
                t_stage = _clock(stages, "resolve", t_stage)
                n_events += sum(len(s) + len(l) for s, l in events)

            # Scatter the step rows back onto the full batch axis: one
            # stacked observation replaces B PhaseObservation objects.
            if full:
                heard_full = core.heard
                send_full = core.send_cost
                listen_full = core.listen_cost
                advc_full = core.adversary_costs
            else:
                heard_full = np.zeros((B, n_nodes, N_STATUS), dtype=np.int64)
                send_full = np.zeros((B, n_nodes), dtype=np.int64)
                listen_full = np.zeros((B, n_nodes), dtype=np.int64)
                advc_full = np.zeros(B, dtype=np.int64)
                heard_full[idx] = core.heard
                send_full[idx] = core.send_cost
                listen_full[idx] = core.listen_cost
                advc_full[idx] = core.adversary_costs

            ledger.charge_phase_batch(
                runnable, C * spec.lengths, send_full, listen_full, advc_full,
                spec.tags,
            )
            slots[runnable] += spec.lengths[runnable]
            phases[runnable] += 1
            if stages is not None:
                t_stage = _clock(stages, "accounting", t_stage)

            protocol.observe_batch(
                BatchPhaseObservation(
                    lengths=spec.lengths,
                    heard=heard_full,
                    send_cost=send_full,
                    listen_cost=listen_full,
                    active=runnable,
                    tags=spec.tags,
                )
            )
            if observe_hooked:
                for i, t in enumerate(idx):
                    adversaries[t].observe_outcome(ctxs[i], core.outcome_for(i))
            spec = protocol.next_phase_batch(runnable)
            if stages is not None:
                t_stage = _clock(stages, "protocol", t_stage)

        bad = ~protocol.done_batch() & ~truncated
        if bad.any():
            raise ProtocolError(
                "protocol returned no phase but reports not done"
            )
        ledger.check_conservation()
        stats = protocol.summary_batch()
        results = [
            RunResult(
                node_costs=ledger.node_costs_for(t),
                adversary_cost=ledger.adversary_cost(t),
                slots=int(slots[t]),
                phases=int(phases[t]),
                truncated=bool(truncated[t]),
                stats=stats[t],
                phase_history=ledger.history_for(t),
                node_send_costs=ledger.send_costs_for(t),
                node_listen_costs=ledger.listen_costs_for(t),
            )
            for t in range(B)
        ]
        if sink is not None:
            total_slots = int(slots.sum())
            sink.span_event(
                "sim.run_batch", time.perf_counter() - t_start,
                trials=B, phases=int(phases.sum()), slots=total_slots,
                events=n_events,
                events_per_slot=(
                    round(n_events / total_slots, 6) if total_slots else 0.0
                ),
                stages=stages,
            )
        return BatchResult(results=tuple(results), seeds=tuple(seeds))


def run(
    protocol: Protocol,
    adversary: Adversary,
    seed: int | np.random.Generator | None = None,
    **kwargs,
) -> RunResult:
    """One-shot convenience wrapper around :class:`Simulator`.

    Examples
    --------
    >>> from repro.protocols import OneToOneBroadcast, OneToOneParams
    >>> from repro.adversaries import SilentAdversary
    >>> result = run(OneToOneBroadcast(OneToOneParams.sim()), SilentAdversary(), seed=7)
    >>> result.success
    True
    """
    return Simulator(protocol, adversary, **kwargs).run(seed)


def run_batch(
    protocol: Protocol,
    adversary: Adversary,
    seeds,
    **kwargs,
) -> BatchResult:
    """One-shot convenience wrapper around :meth:`Simulator.run_batch`.

    Examples
    --------
    >>> from repro.protocols import OneToOneBroadcast, OneToOneParams
    >>> from repro.adversaries import SilentAdversary
    >>> batch = run_batch(
    ...     OneToOneBroadcast(OneToOneParams.sim()), SilentAdversary(), range(4)
    ... )
    >>> len(batch) == 4 and bool(batch.successes.all())
    True
    """
    return Simulator(protocol, adversary, **kwargs).run_batch(seeds)

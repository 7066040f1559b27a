"""Multichannel jamming strategies.

Energy accounting follows the multichannel literature: jamming one
(channel, slot) cell costs 1, so blanket-jamming a slot across all
``C`` channels costs ``C`` — the whole point of spectrum as defence.
Strategies express intent on the real (channel, slot) grid via
:class:`~repro.multichannel.schedules.ChannelJamPlan` and hand the
engine its :meth:`~repro.multichannel.schedules.ChannelJamPlan.compile`
— an ordinary :class:`~repro.channel.events.JamPlan` over the ``C * L``
virtual slots (channel ``c``, slot ``t`` → virtual slot ``c * L + t``).

The zoo:

* :class:`ChannelBandJammer` — fixed band of ``k`` channels, suffix jam;
* :class:`MCEpochTargetJammer` — blanket-block up to a target epoch;
* :class:`FractionJammer` — the Chen–Zheng adversary: all but an
  ``eps`` fraction of the band jammed in every slot;
* :class:`ChannelSweepJammer` — a band that shifts across the spectrum
  each phase;
* :class:`ChannelFollowerJammer` — reactive: jams exactly the cells
  where someone listens, in a suffix window;
* :class:`MCBudgetCap` — wraps any strategy with a total-energy budget
  and time-major battery-death trimming.

All are registered in :mod:`repro.adversaries.canonical`, so the arena
can describe, fingerprint, and rebuild them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.channel.events import (
    JamPlan,
    ListenEvents,
    PhaseOutcome,
    SendEvents,
    SlotSet,
)
from repro.errors import ConfigurationError
from repro.multichannel.schedules import ChannelJamPlan

__all__ = [
    "MCAdversary",
    "MCContext",
    "ChannelBandJammer",
    "MCEpochTargetJammer",
    "FractionJammer",
    "ChannelSweepJammer",
    "ChannelFollowerJammer",
    "MCBudgetCap",
]


@dataclass(frozen=True)
class MCContext:
    """What a multichannel strategy may condition on (cf. Lemma 1)."""

    phase_index: int
    length: int  # real slots
    n_channels: int
    n_nodes: int
    tags: dict
    sends: SendEvents  # virtual-slot events
    listens: ListenEvents
    spent: int


class MCAdversary(ABC):
    """Base class for multichannel strategies.

    Subclasses implement :meth:`plan_phase`; :meth:`begin_run` and
    :meth:`observe_outcome` are optional hooks for stateful strategies,
    as on :class:`~repro.adversaries.base.Adversary`.
    """

    def begin_run(
        self, n_nodes: int, n_channels: int, rng: np.random.Generator
    ) -> None:
        self._rng = rng
        self._n_nodes = n_nodes
        self._n_channels = n_channels

    @abstractmethod
    def plan_phase(self, ctx: MCContext) -> JamPlan:
        """Produce a jam plan over the ``C * length`` virtual slots."""

    @classmethod
    def plan_phase_batch(
        cls, advs: "list[MCAdversary]", ctxs: "list[MCContext]"
    ) -> list[JamPlan]:
        """Plan one lockstep phase for a batch of trials at once.

        ``advs[i]`` is trial ``i``'s adversary instance and ``ctxs[i]``
        its context; all contexts in one call share ``n_channels`` and
        ``n_nodes`` while per-trial fields (length, phase_index, spent,
        events) vary freely.  The default simply loops
        :meth:`plan_phase`; subclasses override it to share canonical
        :class:`~repro.multichannel.schedules.ChannelJamPlan` schedules
        across trials.  Overriding is purely a performance optimisation
        and must stay bit-identical to the loop — the batched engine's
        differential suites enforce exactly that.
        """
        return [a.plan_phase(c) for a, c in zip(advs, ctxs)]

    def observe_outcome(self, ctx: MCContext, outcome: PhaseOutcome) -> None:
        """Optional hook: see the resolved phase on the virtual slots
        (the adversary is omniscient about the past)."""


def _band_suffix_plan(
    ctx: MCContext, n_channels_jammed: int, q: float
) -> JamPlan:
    """Jam the last ``q`` fraction of the phase on ``k`` channels.

    The channels are the low-indexed ones; since hops are uniform and
    unpredictable, which specific channels are jammed is irrelevant —
    only how many.
    """
    n_jam = int(round(q * ctx.length))
    return ChannelJamPlan.band_suffix(
        ctx.length, ctx.n_channels, n_channels_jammed, n_jam
    ).compile()


class ChannelBandJammer(MCAdversary):
    """Always jams a fixed band of ``k`` channels at fraction ``q``.

    The classic "the adversary cannot jam everything" setting: with
    ``k < C`` a hop lands on a clean channel w.p. ``1 - k/C`` even in
    jammed slots.

    Parameters
    ----------
    n_channels_jammed:
        Band width ``k``.
    q:
        Fraction of each phase jammed (suffix).
    max_total:
        Optional energy budget.  Trimming is channel-major (the band's
        low channels outlive the high ones), matching the compiled
        virtual-slot order — the historical E15 semantics.
    """

    def __init__(
        self,
        n_channels_jammed: int,
        q: float = 1.0,
        max_total: int | None = None,
    ) -> None:
        if n_channels_jammed < 0:
            raise ConfigurationError("n_channels_jammed must be >= 0")
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q!r}")
        if max_total is not None and max_total < 0:
            raise ConfigurationError("max_total must be >= 0")
        self.n_channels_jammed = n_channels_jammed
        self.q = q
        self.max_total = max_total

    def plan_phase(self, ctx: MCContext) -> JamPlan:
        plan = _band_suffix_plan(ctx, self.n_channels_jammed, self.q)
        if self.max_total is not None and plan.cost > self.max_total - ctx.spent:
            keep = max(0, self.max_total - ctx.spent)
            plan = JamPlan(
                length=plan.length, global_slots=plan.global_slots.take_first(keep)
            )
        return plan

    @classmethod
    def plan_phase_batch(cls, advs, ctxs):
        a0 = advs[0]
        if any(
            (a.n_channels_jammed, a.q, a.max_total)
            != (a0.n_channels_jammed, a0.q, a0.max_total)
            for a in advs[1:]
        ):
            return [a.plan_phase(c) for a, c in zip(advs, ctxs)]
        cplans = ChannelJamPlan.band_suffix_batch(
            [c.length for c in ctxs],
            ctxs[0].n_channels,
            a0.n_channels_jammed,
            [int(round(a0.q * c.length)) for c in ctxs],
        )
        plans = []
        for c, cplan in zip(ctxs, cplans):
            plan = cplan.compile()
            if a0.max_total is not None and plan.cost > a0.max_total - c.spent:
                keep = max(0, a0.max_total - c.spent)
                plan = JamPlan(
                    length=plan.length,
                    global_slots=plan.global_slots.take_first(keep),
                )
            plans.append(plan)
        return plans


class MCEpochTargetJammer(MCAdversary):
    """Blanket-blocks all channels up to a target epoch, then stops.

    The multichannel analogue of
    :class:`~repro.adversaries.blocking.EpochTargetJammer`: to block a
    slot against an unpredictable hop the adversary must jam the whole
    band, paying ``C`` per slot — which is the E15 experiment's lever:
    the same blocking horizon costs ``C`` times more energy.

    Parameters
    ----------
    target_epoch:
        Last epoch (phase tag ``"epoch"``) to attack.
    q:
        Fraction of each attacked phase blocked (suffix).
    """

    def __init__(self, target_epoch: int, q: float = 1.0) -> None:
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q!r}")
        self.target_epoch = target_epoch
        self.q = q

    def plan_phase(self, ctx: MCContext) -> JamPlan:
        epoch = ctx.tags.get("epoch")
        if epoch is None or epoch > self.target_epoch:
            return JamPlan.silent(ctx.n_channels * ctx.length)
        return _band_suffix_plan(ctx, ctx.n_channels, self.q)


class FractionJammer(MCAdversary):
    """The Chen–Zheng adversary: jams a ``1 - eps`` fraction of the band.

    In every slot all but ``eps * C`` channels are unusable (arXiv
    1904.06328 / 2001.03936) — the strongest oblivious model under
    which multichannel broadcast is still possible.  Per-cell
    accounting makes its bill explicit: ``(1 - eps) * C`` energy per
    *real* slot, so at a fixed budget ``T`` the battery dies after
    ``T / ((1 - eps) C)`` slots — ``C``-fold sooner than at C=1, which
    is exactly the spectrum speedup experiment E18 measures.

    The integer part of ``(1 - eps) * C`` is jammed as full channels;
    the fractional remainder is time-shared as a prefix of the next
    channel, preserving the per-slot average.

    Parameters
    ----------
    eps:
        Clean fraction of the band, in ``(0, 1)``.
    max_total:
        Optional energy budget; trimming is time-major (the jammer
        stays a fraction jammer until the battery dies).
    """

    def __init__(self, eps: float, max_total: int | None = None) -> None:
        if not 0.0 < eps < 1.0:
            raise ConfigurationError(f"eps must be in (0, 1), got {eps!r}")
        if max_total is not None and max_total < 0:
            raise ConfigurationError("max_total must be >= 0")
        self.eps = eps
        self.max_total = max_total

    def plan_phase(self, ctx: MCContext) -> JamPlan:
        cplan = ChannelJamPlan.fraction(ctx.length, ctx.n_channels, self.eps)
        if self.max_total is not None:
            cplan = cplan.take_first_cells(self.max_total - ctx.spent)
        return cplan.compile()

    @classmethod
    def plan_phase_batch(cls, advs, ctxs):
        a0 = advs[0]
        if any(
            (a.eps, a.max_total) != (a0.eps, a0.max_total) for a in advs[1:]
        ):
            return [a.plan_phase(c) for a, c in zip(advs, ctxs)]
        cplans = ChannelJamPlan.fraction_batch(
            [c.length for c in ctxs], ctxs[0].n_channels, a0.eps
        )
        # take_first_cells returns the plan itself when the budget
        # covers it, so trimming is only materialised on the phases
        # where the battery actually dies — and lockstep trials mostly
        # die in sync, so identical (plan, remaining) trims are cached
        # too (any remaining <= 0 yields the same empty plan).
        trims: dict[tuple[int, int], JamPlan] = {}
        plans = []
        for c, cplan in zip(ctxs, cplans):
            if a0.max_total is not None and a0.max_total - c.spent < cplan.cost:
                key = (id(cplan), max(0, a0.max_total - c.spent))
                plan = trims.get(key)
                if plan is None:
                    plan = trims[key] = cplan.take_first_cells(
                        a0.max_total - c.spent
                    ).compile()
                plans.append(plan)
            else:
                plans.append(cplan.compile())
        return plans


class ChannelSweepJammer(MCAdversary):
    """A band of ``width`` channels sweeping across the spectrum.

    Each phase the band's low edge advances by ``step`` channels
    (mod C), wrapping around the band edge — the classic scanning
    jammer.  Against memoryless uniform hopping a sweep is exactly as
    strong as a fixed band of the same width; it exists in the zoo so
    the arena can *verify* that equivalence rather than assume it.

    Parameters
    ----------
    width:
        Number of channels jammed simultaneously.
    step:
        Channels the band advances per phase.
    q:
        Fraction of each phase jammed (suffix).
    max_total:
        Optional energy budget (time-major trimming).
    """

    def __init__(
        self,
        width: int,
        step: int = 1,
        q: float = 1.0,
        max_total: int | None = None,
    ) -> None:
        if width < 0:
            raise ConfigurationError("width must be >= 0")
        if step < 0:
            raise ConfigurationError("step must be >= 0")
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q!r}")
        if max_total is not None and max_total < 0:
            raise ConfigurationError("max_total must be >= 0")
        self.width = width
        self.step = step
        self.q = q
        self.max_total = max_total

    def plan_phase(self, ctx: MCContext) -> JamPlan:
        n_jam = int(round(self.q * ctx.length))
        k = min(self.width, ctx.n_channels)
        if k == 0 or n_jam == 0:
            return JamPlan.silent(ctx.n_channels * ctx.length)
        offset = (ctx.phase_index * self.step) % ctx.n_channels
        cplan = ChannelJamPlan.sweep_band(
            ctx.length, ctx.n_channels, k, offset, n_jam
        )
        if self.max_total is not None:
            cplan = cplan.take_first_cells(self.max_total - ctx.spent)
        return cplan.compile()

    @classmethod
    def plan_phase_batch(cls, advs, ctxs):
        a0 = advs[0]
        if any(
            (a.width, a.step, a.q, a.max_total)
            != (a0.width, a0.step, a0.q, a0.max_total)
            for a in advs[1:]
        ):
            return [a.plan_phase(c) for a, c in zip(advs, ctxs)]
        C = ctxs[0].n_channels
        k = min(a0.width, C)
        n_jams = [int(round(a0.q * c.length)) for c in ctxs]
        offsets = [(c.phase_index * a0.step) % C for c in ctxs]
        cplans = ChannelJamPlan.sweep_batch(
            [c.length for c in ctxs], C, k, offsets, n_jams
        )
        trims: dict[tuple[int, int], JamPlan] = {}
        plans = []
        for c, n_jam, cplan in zip(ctxs, n_jams, cplans):
            if k == 0 or n_jam == 0:
                plans.append(JamPlan.silent(C * c.length))
                continue
            if a0.max_total is not None and a0.max_total - c.spent < cplan.cost:
                key = (id(cplan), max(0, a0.max_total - c.spent))
                plan = trims.get(key)
                if plan is None:
                    plan = trims[key] = cplan.take_first_cells(
                        a0.max_total - c.spent
                    ).compile()
                plans.append(plan)
            else:
                plans.append(cplan.compile())
        return plans


class ChannelFollowerJammer(MCAdversary):
    """Reactive: jams exactly the cells where some node listens.

    The strongest per-cell spend pattern the context allows — no energy
    is wasted on cells nobody occupies.  Restricted to the last ``q``
    fraction of each phase (``q = 1`` follows everywhere); the window
    models reaction latency, mirroring the single-channel reactive
    suffix jammers.

    Parameters
    ----------
    q:
        Fraction of each phase (suffix) in which the follower reacts.
    max_total:
        Optional energy budget (time-major trimming).
    """

    def __init__(self, q: float = 1.0, max_total: int | None = None) -> None:
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q!r}")
        if max_total is not None and max_total < 0:
            raise ConfigurationError("max_total must be >= 0")
        self.q = q
        self.max_total = max_total

    def plan_phase(self, ctx: MCContext) -> JamPlan:
        n_react = int(round(self.q * ctx.length))
        cells = np.unique(ctx.listens.slots)
        if n_react and len(cells):
            cells = cells[cells % ctx.length >= ctx.length - n_react]
        if not n_react or not len(cells):
            return JamPlan.silent(ctx.n_channels * ctx.length)
        cplan = ChannelJamPlan.from_virtual(
            ctx.length, ctx.n_channels, cells
        )
        if self.max_total is not None:
            cplan = cplan.take_first_cells(self.max_total - ctx.spent)
        return cplan.compile()

    @classmethod
    def plan_phase_batch(cls, advs, ctxs):
        # Reactive plans depend on each trial's own listen events, so
        # there is nothing to share across trials; the win here is the
        # unbudgeted fast path, which skips the per-channel split and
        # restack of from_virtual + compile.  Run-length-encoding the
        # sorted virtual cells directly yields the same membership and
        # cost (interval boundaries may differ at band edges, which
        # neither the resolver nor the ledger can observe).
        plans = []
        for a, c in zip(advs, ctxs):
            if a.max_total is not None:
                plans.append(a.plan_phase(c))
                continue
            n_react = int(round(a.q * c.length))
            cells = np.unique(c.listens.slots)
            if n_react and len(cells):
                cells = cells[cells % c.length >= c.length - n_react]
            if not n_react or not len(cells):
                plans.append(JamPlan.silent(c.n_channels * c.length))
                continue
            slots = SlotSet.from_slots(cells)
            plan = JamPlan._from_normalized(
                c.n_channels * c.length, slots, {}
            )
            plan.__dict__["_cost"] = len(slots)
            plans.append(plan)
        return plans


class MCBudgetCap(MCAdversary):
    """Wraps ``inner`` and enforces a total energy budget.

    The multichannel analogue of
    :class:`~repro.adversaries.budget.BudgetCap`, with cell semantics:
    trimming keeps the *time-major* earliest cells (all channels held in
    a slot are paid for before the next slot begins), so a capped
    fraction jammer stays a fraction jammer until the battery dies
    rather than collapsing onto one channel.

    Parameters
    ----------
    inner:
        The wrapped multichannel strategy.
    budget:
        Maximum total energy across the whole run.
    """

    def __init__(self, inner: MCAdversary, budget: int) -> None:
        if budget < 0:
            raise ConfigurationError(f"budget must be >= 0, got {budget}")
        self.inner = inner
        self.budget = budget

    def begin_run(self, n_nodes, n_channels, rng) -> None:
        super().begin_run(n_nodes, n_channels, rng)
        self.inner.begin_run(n_nodes, n_channels, rng)

    def plan_phase(self, ctx: MCContext) -> JamPlan:
        plan = self.inner.plan_phase(ctx)
        remaining = self.budget - ctx.spent
        if plan.cost <= remaining:
            return plan
        if remaining <= 0:
            return JamPlan.silent(ctx.n_channels * ctx.length)
        cplan = ChannelJamPlan.from_compiled(ctx.length, ctx.n_channels, plan)
        return cplan.take_first_cells(remaining).compile()

    @classmethod
    def plan_phase_batch(cls, advs, ctxs):
        inner_type = type(advs[0].inner)
        if any(type(a.inner) is not inner_type for a in advs[1:]):
            return [a.plan_phase(c) for a, c in zip(advs, ctxs)]
        # Delegate to the wrapped strategy's batch planner (inner plans
        # may be shared objects; from_compiled never mutates its input),
        # then apply the budget per trial exactly as plan_phase does.
        inner_plans = inner_type.plan_phase_batch(
            [a.inner for a in advs], ctxs
        )
        plans = []
        for a, c, plan in zip(advs, ctxs, inner_plans):
            remaining = a.budget - c.spent
            if plan.cost <= remaining:
                plans.append(plan)
            elif remaining <= 0:
                plans.append(JamPlan.silent(c.n_channels * c.length))
            else:
                cplan = ChannelJamPlan.from_compiled(
                    c.length, c.n_channels, plan
                )
                plans.append(cplan.take_first_cells(remaining).compile())
        return plans

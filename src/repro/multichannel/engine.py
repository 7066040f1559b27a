"""Multichannel engine via the virtual-slot reduction.

A phase of ``L`` slots over ``C`` channels is resolved as a
single-channel phase of ``C * L`` virtual slots, where real slot ``t``
on channel ``c`` is virtual slot ``c * L + t``:

* a transmission/listen in real slot ``t`` is placed on one uniformly
  random channel, i.e. mapped to virtual slot ``rng.integers(C) * L + t``;
* collisions happen exactly within (channel, slot) cells;
* the adversary's plan is a set of (channel, slot) cells (1 energy
  each), i.e. an ordinary :class:`~repro.channel.events.JamPlan` over
  the virtual slots.

Because a node takes at most one action per *real* slot and each action
occupies exactly one virtual slot, per-slot energy accounting, the
half-duplex rule, and the own-transmission exclusion all carry over
from the single-channel resolver untouched — the reduction is exact,
not an approximation.  :class:`HoppingChannels` is the reduction as a
medium of the shared phase loops in :mod:`repro.engine.simulator`, and
:class:`MCSimulator` is the engine that resolves on it.
"""

from __future__ import annotations

import numpy as np

from repro.channel.events import ListenEvents, SendEvents
from repro.engine.simulator import BatchResult, RunResult, Simulator
from repro.errors import ConfigurationError
from repro.multichannel.adversaries import MCAdversary, MCContext
from repro.protocols.base import Protocol

__all__ = ["HoppingChannels", "MCSimulator", "mc_run"]


def _hop(events_slots: np.ndarray, length: int, n_channels: int,
         rng: np.random.Generator) -> np.ndarray:
    """Map real-slot events to virtual slots via uniform channel hops.

    With one channel there is nothing to hop: real and virtual slots
    coincide and *no* rng is consumed, so an ``MCSimulator`` at C=1
    consumes exactly the same random streams as
    :class:`~repro.engine.simulator.Simulator` and the two engines are
    bit-identical on identical seeds (the C=1 differential test pins
    this).
    """
    if len(events_slots) == 0 or n_channels == 1:
        return events_slots
    channels = rng.integers(0, n_channels, len(events_slots))
    return channels * length + events_slots


def _half_duplex(sends: SendEvents, listens: ListenEvents,
                 length: int) -> ListenEvents:
    """Drop listens that collide with the same node's sends in the same
    *real* slot.

    Half-duplex must be enforced before the hop: a node cannot send on
    one channel while listening on another.  (The virtual-slot resolver
    would only catch same-channel conflicts.)
    """
    if not len(sends) or not len(listens):
        return listens
    send_keys = np.sort(sends.nodes * length + sends.slots)
    listen_keys = listens.nodes * length + listens.slots
    pos = np.searchsorted(send_keys, listen_keys)
    safe = np.minimum(pos, len(send_keys) - 1)
    keep = send_keys[safe] != listen_keys
    return ListenEvents._from_arrays(listens.nodes[keep], listens.slots[keep])


class HoppingChannels:
    """``C`` channels with uniform hopping: the medium of :class:`MCSimulator`.

    See :class:`~repro.engine.simulator.SingleChannel` for what a
    medium owns.  Here every trial draws its hops from a private
    ``"hopping"`` rng stream, the adversary is an
    :class:`~repro.multichannel.adversaries.MCAdversary` that plans
    (channel, slot) cells over the ``C * L`` virtual slots, and jam
    groups never reach the resolver: they are a single-channel notion
    (jamming "near" a node), while here the adversary buys cells that
    disrupt every listener hopping onto them.
    """

    stream = "hopping"
    adversary_base = MCAdversary
    jam_groups = False

    def __init__(self, n_channels: int) -> None:
        self.n_channels = n_channels

    def begin_run(self, adversary, n_nodes: int, n_groups: int, rng) -> None:
        adversary.begin_run(n_nodes, self.n_channels, rng)

    def hop(self, sends: SendEvents, listens: ListenEvents, length: int,
            rng: np.random.Generator) -> tuple[SendEvents, ListenEvents]:
        """Place one trial's real-slot events on virtual slots.

        The half-duplex filter runs on real slots first (it changes how
        many listen events remain, hence how many channel draws the hop
        makes), then sends hop, then listens — both from the trial's
        ``hopping`` stream.  After the filter no node keeps a send and
        a listen in one virtual slot, which is why both phase loops
        skip the resolver's half-duplex pass on this medium.  Both
        phase loops call this per trial, and
        that per-trial draw order is the bit-identity contract the C>1
        rng regression pin enforces: merging the two hops into one
        draw, or hopping listens before the filter, would silently
        permute every stream.
        """
        listens = _half_duplex(sends, listens, length)
        C = self.n_channels
        # The sampler's arrays stay canonical through the filter and hop.
        return (
            SendEvents._from_arrays(
                sends.nodes, _hop(sends.slots, length, C, rng), sends.kinds
            ),
            ListenEvents._from_arrays(
                listens.nodes, _hop(listens.slots, length, C, rng)
            ),
        )

    def context(
        self, phase_index, length, n_nodes, n_groups, tags,
        sends, listens, send_probs, listen_probs, spent,
    ) -> MCContext:
        """The adversary's view of one phase, on virtual slots."""
        return MCContext(
            phase_index, length, self.n_channels, n_nodes, tags,
            sends, listens, spent,
        )


class MCSimulator(Simulator):
    """Run any protocol on a ``C``-channel medium.

    The :class:`~repro.engine.simulator.Simulator` engine — its two
    phase loops, caps, ``strict``, telemetry spans with their stage
    clocks, ``trace=`` recording and ``observe_outcome`` feedback —
    resolving on :class:`HoppingChannels`.

    Parameters
    ----------
    protocol:
        Any phase-driven protocol; it needs no channel awareness.
    adversary:
        An :class:`~repro.multichannel.adversaries.MCAdversary`.
    n_channels:
        Number of frequency channels ``C >= 1``.
    **kwargs:
        Any :class:`~repro.engine.simulator.Simulator` keyword.
        ``max_slots`` caps *real* slots — the sum of phase lengths, i.e.
        wall-clock latency — so it is ``C``-invariant even though the
        ledger's per-phase records charge the ``C * length`` virtual
        extent (an accounting convention, not elapsed time).
    """

    def __init__(
        self,
        protocol: Protocol,
        adversary: MCAdversary,
        n_channels: int,
        **kwargs,
    ) -> None:
        if n_channels < 1:
            raise ConfigurationError(f"n_channels must be >= 1, got {n_channels}")
        declared = getattr(getattr(protocol, "params", None), "n_channels", None)
        if declared is not None and declared != n_channels:
            raise ConfigurationError(
                f"protocol is tuned for {declared} channels but the engine "
                f"was given n_channels={n_channels}"
            )
        super().__init__(protocol, adversary, **kwargs)
        self.n_channels = n_channels
        self.medium = HoppingChannels(n_channels)

    # run and run_batch are spelled out in this class body rather than
    # inherited, so the benchmark's tracer (bench/tracer.py) books the
    # multichannel engine as its own layer.
    def run(self, seed: int | np.random.Generator | None = None) -> RunResult:
        """Play one multichannel execution (see :meth:`Simulator.run`)."""
        return self._run(seed, self.adversary)

    def run_batch(self, seeds, *, adversaries=None) -> BatchResult:
        """Play B multichannel trials in lockstep, each bit-identical to
        :meth:`run` on fresh instances (see :meth:`Simulator.run_batch`).
        """
        return self._run_batch(seeds, adversaries)


def mc_run(
    protocol: Protocol,
    adversary: MCAdversary,
    n_channels: int,
    seed: int | np.random.Generator | None = None,
    **kwargs,
) -> RunResult:
    """One-shot convenience wrapper around :class:`MCSimulator`."""
    return MCSimulator(protocol, adversary, n_channels, **kwargs).run(seed)


def hopping_rate_params(params, n_channels: int):
    """Figure 1 parameters corrected for channel-hop dilution.

    Without shared hopping sequences (the paper's model has no shared
    secrets), Alice and Bob meet in a slot only when their independent
    hops coincide — probability ``1/C`` — so running Figure 1 unchanged
    on ``C`` channels silently degrades its ``1 - eps`` guarantee.
    Restoring the per-phase meeting rate requires boosting the action
    probability by ``sqrt(C)``, i.e. replacing ``ln(8/eps)`` with
    ``C * ln(8/eps)``; we do that by substituting the effective epsilon
    ``eps' = denom * (eps/denom)**C`` and raising the first epoch so the
    boosted probability stays below 1.

    The corrected protocol's costs grow by ``sqrt(C)`` — which is
    exactly what cancels the adversary's C-fold per-slot jamming bill
    (experiment E15's net-neutrality finding).
    """
    import dataclasses
    import math

    from repro.protocols.one_to_one import OneToOneParams

    if n_channels < 1:
        raise ConfigurationError(f"n_channels must be >= 1, got {n_channels}")
    if not isinstance(params, OneToOneParams):
        raise ConfigurationError(
            "hopping_rate_params currently supports OneToOneParams"
        )
    if n_channels == 1:
        return params
    denom = params.eps_denom
    eff_eps = denom * (params.epsilon / denom) ** n_channels
    # Keep p_i <= ~0.5 at the first epoch: 2^(i-1) >= 4 C ln(denom/eps).
    min_first = 1 + math.ceil(
        math.log2(4.0 * n_channels * math.log(denom / params.epsilon))
    )
    return dataclasses.replace(
        params,
        epsilon=eff_eps,
        first_epoch=max(params.first_epoch, min_first),
        max_epoch=max(params.max_epoch, max(params.first_epoch, min_first) + 20),
    )

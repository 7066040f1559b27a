"""Slotted single-hop wireless channel substrate.

Implements the network model of Section 1.2 of the paper:

* time is divided into discrete slots;
* a node pays 1 unit of energy per slot it sends or listens, 0 when
  asleep;
* when two or more transmissions (including adversarial spoofs) land in
  one slot they collide and listeners hear only noise;
* a jammed slot is heard as noise; via clear-channel assessment a
  listener can distinguish *clear* / *noise* / a successfully decoded
  message, but cannot tell jamming noise from collision noise;
* an ``l``-uniform adversary may give each of up to ``l`` node groups a
  different jamming schedule, paying 1 unit per (group, slot) jammed —
  or 1 unit per slot for a channel-wide ("global") jam.
"""

from repro.channel.events import (
    JamPlan,
    ListenEvents,
    PhaseOutcome,
    SendEvents,
    SlotSet,
    SlotStatus,
    TxKind,
)
from repro.channel.model import resolve_phase
from repro.channel.model_dense import resolve_phase_dense
from repro.channel.accounting import EnergyLedger, PhaseCost

__all__ = [
    "EnergyLedger",
    "JamPlan",
    "ListenEvents",
    "PhaseCost",
    "PhaseOutcome",
    "SendEvents",
    "SlotSet",
    "SlotStatus",
    "TxKind",
    "resolve_phase",
    "resolve_phase_dense",
]

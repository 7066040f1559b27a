"""Per-layer tracing for the benchmark's traced runs.

The program is measured from outside: :meth:`Tracer.install` replaces
the public functions and methods at each layer boundary with timing
wrappers (at every module that imported them by name), and
:meth:`Tracer.uninstall` puts the originals back, so traced and
untraced passes can alternate in one process.

Accounting rules:

* a call made while a span of the *same* layer is open is merged into
  that span (``BudgetCap.plan_phase`` calling its inner jammer is one
  adversary span, not two);
* a layer's self time is its spans' duration minus the time covered by
  the child spans of other layers opened inside them;
* per-call spans are aggregated in memory per thread; operation-level
  spans (one benchmark operation, experiment or service job) are kept
  one by one with their parent's id and written out by :meth:`dump`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

#: Layers in report order.  Each one is the set of functions
#: :meth:`Tracer.install` wraps for it.
LAYERS = (
    "experiments",
    "arena",
    "runner",
    "executor",
    "cache",
    "service",
    "simulator",
    "mc_simulator",
    "protocols",
    "adversaries",
    "sampling",
    "channel",
    "accounting",
)

#: Counters kept at the layer boundaries (some only feed ratios).
COUNTS = (
    "sampling.events",
    "sampling.batch_calls",
    "channel.events",
    "simulator.trials",
    "simulator.phases",
    "simulator.slots",
    "mc_simulator.trials",
    "arena.evaluations",
    "arena.lookups",
    "executor.tasks",
    "executor.retries",
    "executor.timeouts",
    "executor.crashes",
    "executor.batch_trials",
    "executor.batch_capacity",
    "cache.hits",
    "cache.misses",
    "cache.bytes_read",
    "cache.bytes_written",
)

PROTOCOL_METHODS = (
    "reset", "next_phase", "observe", "summary",
    "reset_batch", "next_phase_batch", "observe_batch", "done_batch",
    "summary_batch",
)
ADVERSARY_METHODS = (
    "begin_run", "plan_phase", "plan_phase_batch", "observe_outcome",
)


class _ThreadState:
    __slots__ = ("stack", "layers", "counts", "ops")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, child seconds] per open span
        self.layers: dict = defaultdict(lambda: [0, 0.0])  # calls, self_s
        self.counts: dict = defaultdict(float)
        self.ops: list[int] = []  # open operation-span ids


def _runs(out):
    """The RunResults inside a run()/run_batch() return value."""
    return out.results if hasattr(out, "results") else (out,)


def _count_sim(counts, args, kwargs, out):
    runs = _runs(out)
    counts["simulator.trials"] += len(runs)
    counts["simulator.phases"] += sum(r.phases for r in runs)
    counts["simulator.slots"] += sum(r.slots for r in runs)


def _count_mc(counts, args, kwargs, out):
    counts["mc_simulator.trials"] += len(_runs(out))


def _count_sample(counts, args, kwargs, out):
    counts["sampling.events"] += len(out[0]) + len(out[1])


def _count_sample_batch(counts, args, kwargs, out):
    counts["sampling.batch_calls"] += 1
    counts["sampling.events"] += sum(len(s) + len(l) for s, l in out)


def _count_resolve(counts, args, kwargs, out):
    sends = args[2] if len(args) > 2 else kwargs["sends"]
    listens = args[3] if len(args) > 3 else kwargs["listens"]
    counts["channel.events"] += len(sends) + len(listens)


def _count_resolve_batch(counts, args, kwargs, out):
    sends = args[2] if len(args) > 2 else kwargs["sends_list"]
    listens = args[3] if len(args) > 3 else kwargs["listens_list"]
    counts["channel.events"] += sum(map(len, sends)) + sum(map(len, listens))


def _count_get_many(counts, args, kwargs, out):
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    hits, n_bytes = out
    counts["cache.hits"] += len(hits)
    counts["cache.misses"] += len(set(keys)) - len(hits)
    counts["cache.bytes_read"] += n_bytes


def _count_put(counts, args, kwargs, out):
    counts["cache.bytes_written"] += out


class Tracer:
    """Layer spans, counters and operation spans for one process."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._originals: dict = {}  # wrapper -> original, for uninstall
        self._class_patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, layer: str, fn, hook=None):
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = st.layers[layer]
                rec[0] += 1
                rec[1] += dt - frame[1]
            if hook is not None:
                hook(st.counts, args, kwargs, out)
            return out

        self._originals[wrapper] = fn
        return wrapper

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a counter from outside a wrapper."""
        self._state().counts[name] += value

    def add_executor_stats(self, stats) -> None:
        """Fold one run's :class:`~repro.engine.executor.ExecutorStats`
        (or its ``asdict`` form) into the executor counters."""
        get = stats.get if isinstance(stats, dict) else (
            lambda k: getattr(stats, k)
        )
        counts = self._state().counts
        for field in ("tasks", "retries", "timeouts", "crashes",
                      "batch_trials", "batch_capacity"):
            counts[f"executor.{field}"] += get(field)

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one operation-level span; yields its mutable attrs."""
        st = self._state()
        sid = next(self._ids)
        parent = st.ops[-1] if st.ops else None
        st.ops.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            st.ops.pop()
            self.spans.append({
                "id": sid, "parent": parent, "name": name,
                "start": start - self.t0,
                "end": time.perf_counter() - self.t0,
                **attrs,
            })

    def _op_span(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **attrs(args, kwargs)):
                return fn(*args, **kwargs)

        self._originals[wrapper] = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch_function(self, module, name: str, wrapper) -> None:
        """Rebind ``module.name`` everywhere it was imported by name."""
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _patch_methods(self, layer, classes, names, hooks=None) -> None:
        for cls in classes:
            for name in names:
                raw = cls.__dict__.get(name)
                hook = (hooks or {}).get(name)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__, hook))
                elif inspect.isfunction(raw):
                    new = self._wrap(layer, raw, hook)
                else:
                    continue
                setattr(cls, name, new)
                self._class_patches.append((cls, name, raw))

    def install(self) -> None:
        """Wrap every layer boundary.  Import the workload's modules
        first: a module imported later keeps whatever it bound."""
        from repro.adversaries.base import Adversary
        from repro.arena import search
        from repro.cache.memory import ReadThroughStore
        from repro.cache.store import CacheStore
        from repro.channel import model, model_dense
        from repro.channel.accounting import BatchEnergyLedger, EnergyLedger
        from repro.engine import executor, sampling
        from repro.engine.simulator import Simulator
        from repro.experiments import registry, runner
        from repro.multichannel.adversaries import MCAdversary
        from repro.multichannel.engine import MCSimulator
        from repro.protocols.base import Protocol
        from repro.service.jobs import JobManager

        functions = [
            ("sampling", sampling, "sample_action_events", _count_sample),
            ("sampling", sampling, "sample_action_events_batch",
             _count_sample_batch),
            ("channel", model, "resolve_phase", _count_resolve),
            ("channel", model, "resolve_phase_batch", _count_resolve_batch),
            ("channel", model, "resolve_phase_batch_core",
             _count_resolve_batch),
            ("channel", model_dense, "resolve_phase_dense", _count_resolve),
            ("runner", runner, "replicate", None),
            ("runner", runner, "mc_replicate", None),
            ("runner", runner, "sweep_epoch_targets", None),
            ("executor", executor, "run_tasks", None),
        ]
        for layer, module, name, hook in functions:
            self._patch_function(
                module, name, self._wrap(layer, getattr(module, name), hook)
            )
        self._patch_function(
            search, "evaluate_genomes",
            self._wrap("arena", self._count_arena(search.evaluate_genomes)),
        )
        self._patch_function(
            registry, "run_experiment",
            self._op_span(
                "experiment",
                self._wrap("experiments", registry.run_experiment),
                lambda args, kwargs: {"eid": args[0]},
            ),
        )

        self._patch_methods(
            "simulator", [Simulator], ("run", "run_batch"),
            {"run": _count_sim, "run_batch": _count_sim},
        )
        self._patch_methods(
            "mc_simulator", [MCSimulator], ("run", "run_batch"),
            {"run": _count_mc, "run_batch": _count_mc},
        )
        self._patch_methods(
            "accounting", [EnergyLedger, BatchEnergyLedger],
            ("charge_phase", "charge_phase_batch", "check_conservation"),
        )
        self._patch_methods("protocols", _family(Protocol), PROTOCOL_METHODS)
        self._patch_methods(
            "adversaries", _family(Adversary) + _family(MCAdversary),
            ADVERSARY_METHODS,
        )
        self._patch_methods(
            "cache", [CacheStore, ReadThroughStore], ("get_many", "put"),
            {"get_many": _count_get_many, "put": _count_put},
        )
        self._patch_methods("service", [JobManager], ("submit",))
        execute = JobManager.__dict__["_execute"]
        JobManager._execute = self._op_span(
            "job", self._wrap("service", self._count_job(execute)),
            lambda args, kwargs: {
                "job_id": args[1].job_id,
                "experiment": args[1].spec.experiment,
                "seed": args[1].spec.seed,
            },
        )
        self._class_patches.append((JobManager, "_execute", execute))

    def _count_arena(self, fn):
        @functools.wraps(fn)
        def evaluate_genomes(space, genomes, make_protocol, **kwargs):
            memo = kwargs.get("memo")
            before = len(memo) if memo is not None else 0
            out = fn(space, genomes, make_protocol, **kwargs)
            after = (
                len(memo) if memo is not None
                else len({ev.fingerprint for ev in out})
            )
            self.count("arena.evaluations", after - before)
            self.count("arena.lookups", len(genomes))
            return out

        return evaluate_genomes

    def _count_job(self, fn):
        @functools.wraps(fn)
        def _execute(manager, record):
            fn(manager, record)
            self.add_executor_stats(record.stats)

        return _execute

    def uninstall(self) -> None:
        """Put every original back, wherever a wrapper was bound."""
        for cls, name, raw in reversed(self._class_patches):
            setattr(cls, name, raw)
        self._class_patches.clear()
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                original = value
                while original in self._originals:
                    original = self._originals[original]
                if original is not value:
                    setattr(mod, attr, original)

    # -- results ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """``({layer: [calls, self_s]}, {counter: value})`` over all
        threads."""
        layers = {name: [0, 0.0] for name in LAYERS}
        counts = {name: 0.0 for name in COUNTS}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, self_s) in list(st.layers.items()):
                layers[name][0] += calls
                layers[name][1] += self_s
            for name, value in list(st.counts.items()):
                counts[name] = counts.get(name, 0.0) + value
        return layers, counts

    def merge(self, dump: dict, process: str) -> None:
        """Fold another process's :meth:`dump` into this tracer."""
        st = self._state()
        for name, (calls, self_s) in dump["layers"].items():
            st.layers[name][0] += calls
            st.layers[name][1] += self_s
        for name, value in dump["counts"].items():
            st.counts[name] += value
        for span in dump["spans"]:
            self.spans.append(dict(span, process=process))

    def dump(self) -> dict:
        layers, counts = self.totals()
        return {"layers": layers, "counts": counts, "spans": list(self.spans)}


def _family(base) -> list:
    """``base`` and every subclass defined so far."""
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen

"""Span tracer that instruments kschannel from outside the package.

kschannel's modules call one another through names bound at import time
(``from .rngstream import mix_vec``), so a wrapper installed under every
module attribute that holds the original function, and in module-level
dicts such as the CLI's command table, sees every cross-module call and
every call through a module global.  Methods are wrapped on their class.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts every
original back.

Each wrapped call is a span (id, parent id, name, start, end).  Every
thread keeps its own span stack, so spans on the worker threads of
``run_trials(workers=2)`` nest correctly, and its own aggregates, so no
update is lost between threads.  Self time is a span's duration minus the
durations of its direct children on the same thread.  Aggregates are kept
for every call; the raw span log is capped at ``SPAN_LOG_CAP`` per thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

SPAN_LOG_CAP = 20_000


def _size(_args, _kwargs, result) -> int:
    return int(result.size)


def _points(_args, _kwargs, result) -> int:
    return int(result.size // 3)


def _mi_samples(args, kwargs, _result) -> int:
    return int(kwargs["n"] if "n" in kwargs else args[1])


def _observe_batch(counters, _args, _kwargs, batch) -> None:
    idx = batch.accepted_index
    counters["protocol.trials"] += int(idx.size)
    counters["protocol.points_drawn"] += int(idx.sum())
    counters["coding.bits_sent"] += int(batch.code_bits.sum())
    if idx.size:
        counters["protocol.max_index"] = max(counters["protocol.max_index"], int(idx.max()))


def _observe_chunk(counters, _args, _kwargs, part) -> None:
    # the chunk's round loop runs until its last trial accepts
    if part.accepted_index.size:
        counters["protocol.rounds"] += int(part.accepted_index.max())


def _observe_send(counters, _args, _kwargs, sent) -> None:
    bits, report = sent
    index = int(report.accepted_index)
    counters["protocol.trials"] += 1
    counters["protocol.points_drawn"] += index
    counters["protocol.rounds"] += index
    counters["coding.bits_sent"] += len(bits)
    counters["protocol.max_index"] = max(counters["protocol.max_index"], index)


@dataclass(frozen=True)
class Target:
    """One name to wrap: where it is defined and the span name it reports under."""

    module: str
    attr: str
    label: str
    count: Callable | None = None    # elements of work in one call
    observe: Callable | None = None  # adds output-derived counts
    cpu: bool = False                # also record thread CPU time


TARGETS = (
    Target("kschannel.rngstream", "mix_vec", "rngstream.mix_vec", count=_size),
    Target("kschannel.rngstream", "mix", "rngstream.mix"),
    Target("kschannel.rngstream", "to_unit", "rngstream.to_unit"),
    Target("kschannel.geometry", "sphere_from_zphi", "geometry.sphere_from_zphi", count=_points),
    Target("kschannel.geometry", "dot3", "geometry.dot3"),
    Target("kschannel.geometry", "rotate_to_frame", "geometry.rotate_to_frame"),
    Target("kschannel.greedy", "_advance", "greedy.advance"),
    Target("kschannel.greedy", "greedy_one_shot", "greedy.greedy_one_shot"),
    Target("kschannel.protocol", "bin_index", "protocol.bin_index"),
    Target("kschannel.protocol", "run_trials", "protocol.run_trials", observe=_observe_batch),
    Target("kschannel.protocol", "_run_chunk", "protocol.chunk", observe=_observe_chunk, cpu=True),
    Target("kschannel.protocol", "Codebook.entries", "protocol.Codebook.entries"),
    Target("kschannel.protocol", "trial_codebook", "protocol.trial_codebook"),
    Target("kschannel.protocol", "alice_send", "protocol.alice_send", observe=_observe_send),
    Target("kschannel.protocol", "bob_receive", "protocol.bob_receive"),
    Target("kschannel.coding", "code_lengths", "coding.code_lengths"),
    Target("kschannel.coding", "elias_delta_encode", "coding.elias_delta_encode"),
    Target("kschannel.coding", "elias_delta_decode", "coding.elias_delta_decode"),
    Target("kschannel.model", "ks_sample", "model.ks_sample"),
    Target("kschannel.model", "ks_response", "model.ks_response"),
    Target("kschannel.model", "ks_density", "model.ks_density"),
    Target("kschannel.quadrature", "born_plus_integral", "quadrature.born_plus_integral"),
    Target("kschannel.info", "mc_mutual_information", "info.mc_mutual_information",
           count=_mi_samples),
    Target("kschannel.cli", "main", "cli.main"),
    Target("kschannel.cli", "cmd_verify", "cli.cmd"),
    Target("kschannel.cli", "cmd_simulate", "cli.cmd"),
    Target("kschannel.cli", "cmd_mi", "cli.cmd"),
    Target("kschannel.cli", "cmd_cost", "cli.cmd"),
    Target("kschannel.cli", "render_report", "cli.render_report"),
)

COUNTERS = ("protocol.trials", "protocol.points_drawn", "protocol.rounds",
            "protocol.max_index", "coding.bits_sent")


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    elements: int = 0
    cpu_s: float = 0.0

    def add(self, other: "Aggregate") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.elements += other.elements
        self.cpu_s += other.cpu_s


@dataclass
class _ThreadState:
    thread: int
    stack: list = field(default_factory=list)   # [span id, child seconds] per open span
    agg: dict = field(default_factory=dict)     # label -> Aggregate
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    spans: list = field(default_factory=list)   # (id, parent id, label, start, end)


class Tracer:
    """Install with ``with Tracer():``; read :meth:`aggregates` and :meth:`counters` after."""

    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "kschannel" or name.startswith("kschannel.")]
        for target in self._targets:
            owner = importlib.import_module(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._set(owner, name, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append(("item", value, k, v))
                                value[k] = wrapper

    def _set(self, owner, name, wrapper) -> None:
        self._patches.append(("attr", owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            kind, owner, key, original = self._patches.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, target: Target, fn):
        tracer = self
        label, count, observe, cpu = target.label, target.count, target.observe, target.cpu
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu_clock() if cpu else 0.0
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                agg = state.agg.get(label)
                if agg is None:
                    agg = state.agg[label] = Aggregate()
                agg.calls += 1
                agg.total_s += duration
                agg.self_s += duration - frame[1]
                agg.cpu_s += c1 - c0
                if len(state.spans) < SPAN_LOG_CAP:
                    state.spans.append((span_id, parent, label, t0, t1))
            if count is not None:
                agg.elements += count(args, kwargs, result)
            if observe is not None:
                observe(state.counters, args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def aggregates(self) -> dict[str, Aggregate]:
        merged: dict[str, Aggregate] = {}
        for state in self._states:
            for label, agg in state.agg.items():
                merged.setdefault(label, Aggregate()).add(agg)
        return merged

    def counters(self) -> dict[str, int]:
        merged = dict.fromkeys(COUNTERS, 0)
        for state in self._states:
            for key, value in state.counters.items():
                if key == "protocol.max_index":
                    merged[key] = max(merged[key], value)
                else:
                    merged[key] += value
        return merged

    def span_log(self) -> list[dict]:
        return [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
                 "thread": state.thread}
                for state in self._states for s in state.spans]


def layer_metrics(aggs: dict[str, Aggregate], counters: dict[str, int],
                  workers: int) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed by the names in ``metrics.PER_LAYER``."""

    def agg(label: str) -> Aggregate:
        return aggs.get(label, Aggregate())

    out: dict[str, float] = {}
    for label, stats in aggs.items():
        out[f"{label}.calls"] = stats.calls
        out[f"{label}.self_s"] = stats.self_s
    out["rngstream.mix_vec.words"] = agg("rngstream.mix_vec").elements
    out["geometry.sphere_from_zphi.points"] = agg("geometry.sphere_from_zphi").elements
    out["info.mc_mutual_information.samples"] = agg("info.mc_mutual_information").elements
    out.update(counters)
    trials, points = counters["protocol.trials"], counters["protocol.points_drawn"]
    out["protocol.accept_ratio"] = trials / points if points else 0.0
    out["coding.code_bits_mean"] = counters["coding.bits_sent"] / trials if trials else 0.0
    chunk, run = agg("protocol.chunk"), agg("protocol.run_trials")
    # the per-round loop of run_trials lives in its chunk function, on the worker threads
    out["protocol.run_trials.self_s"] = chunk.self_s
    out["protocol.chunk.busy_s"] = chunk.cpu_s
    # CPU seconds spent in chunks per second of run_trials wall time per worker
    out["protocol.parallel_efficiency"] = (
        chunk.cpu_s / (min(workers, chunk.calls) * run.total_s) if chunk.calls and run.total_s else 0.0)
    return out

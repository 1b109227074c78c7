"""Span recorder for the traced run.

Wrappers go onto the *built* objects (service, overlay, metrics registry)
and onto the ``join_on_provider`` name that ``repro.baselines.base``
resolves, so each layer is timed from outside and no program file
changes.  A span is ``[name, start, end, parent, request]``; spans stay
in memory and are written once, at the end of the run.

A span's self time is its duration minus the part of it that its
children cover, so the self times of one request's spans add up to the
duration of its root span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import repro.baselines.base as service_base
from repro.sim.invariants import overlay_of

__all__ = ["SpanRecorder", "install_tracing", "self_times"]

NAME, START, END, PARENT, REQUEST = range(5)


class SpanRecorder:
    """Nested spans of one single-threaded run, plus counters kept per
    ``(name, request)``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Request id stamped on every span opened from now on.
        self.request = -1
        self._stack: list[int] = []

    def tally(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` of the current request."""
        self.counts[name, self.request] += amount

    def wrap(self, name: str, fn: Callable, tally: Callable | None = None) -> Callable:
        """``fn`` inside a span called ``name``; ``tally(result)`` runs
        inside the span to update :attr:`counts`."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    tally(result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def root(self, name: str, fn: Callable) -> Callable:
        """``fn`` as a root span that opens a new request id per call."""
        traced = self.wrap(name, fn)

        def request(*args: Any) -> Any:
            self.request += 1
            return traced(*args)

        return request

    def count(self, name: str, fn: Callable, amount: Callable | None = None) -> Callable:
        """``fn`` with a counter and no span (for very cheap calls); the
        counter grows by ``amount(*args, **kwargs)``, or by one per call."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            self.tally(name, 1 if amount is None else amount(*args, **kwargs))
            return fn(*args, **kwargs)

        return counted

    def write(self, path: Path, **header: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


class _HashProxy:
    """A locality-preserving hash whose evaluations are ``hashing`` spans."""

    def __init__(self, recorder: SpanRecorder, inner: Any) -> None:
        self._call = recorder.wrap("hashing", inner.__call__)
        self.hash_range = recorder.wrap("hashing", inner.hash_range)
        self._inner = inner

    def __call__(self, value: float) -> int:
        return self._call(value)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _trace_value_hash(recorder: SpanRecorder, value_hash: Callable) -> Callable:
    proxies: dict[int, _HashProxy] = {}

    def traced(attribute: str) -> _HashProxy:
        inner = value_hash(attribute)
        proxy = proxies.get(id(inner))
        if proxy is None:
            proxy = proxies[id(inner)] = _HashProxy(recorder, inner)
        return proxy

    return traced


def install_tracing(recorder: SpanRecorder, services: tuple) -> Callable[[], None]:
    """Wrap every layer boundary of ``services``; returns the undo for
    the module-level ``join_on_provider`` patch (the instance wrappers
    die with the services)."""
    for service in services:
        overlay = overlay_of(service)
        kind = "cycloid" if hasattr(overlay, "walk_cluster") else "chord"
        walk = "walk_cluster" if kind == "cycloid" else "walk_arc"
        overlay.lookup = recorder.wrap(f"overlay.{kind}.lookup", overlay.lookup)
        setattr(overlay, walk, recorder.wrap(
            f"overlay.{kind}.walk", getattr(overlay, walk),
            tally=lambda nodes, key=f"overlay.{kind}.walk_nodes": recorder.tally(key, len(nodes)),
        ))
        overlay.routed_store = recorder.wrap("overlay.routed_store", overlay.routed_store)
        overlay.join = recorder.wrap("overlay.churn", overlay.join)
        overlay.leave = recorder.wrap("overlay.churn", overlay.leave)
        overlay.stabilize_step = recorder.wrap("sim.maintenance.stabilize",
                                               overlay.stabilize_step)
        overlay.refresh_routing_step = recorder.wrap("sim.maintenance.stabilize",
                                                     overlay.refresh_routing_step)
        overlay.repair_replication_step = recorder.wrap("sim.maintenance.repair",
                                                        overlay.repair_replication_step)
        service.random_node = recorder.wrap("service.entry", service.random_node)
        service.attr_key = recorder.wrap("hashing", service.attr_key)
        service.value_hash = _trace_value_hash(recorder, service.value_hash)
        metrics = service.metrics
        for method in ("record", "record_pair", "incr"):
            setattr(metrics, method, recorder.count("sim.metrics", getattr(metrics, method)))
        network = overlay.network
        for method, name in (("count_hop", "net.hops"),
                             ("count_directory_check", "net.directory_checks"),
                             ("count_maintenance", "net.maintenance")):
            setattr(network, method, recorder.count(name, getattr(network, method),
                                                    amount=lambda n=1: n))

    original_join = service_base.join_on_provider

    def join(per_attribute_matches):
        recorder.tally("join.inputs", sum(len(m) for m in per_attribute_matches))
        result = original_join(per_attribute_matches)
        recorder.tally("join.outputs", len(result))
        return result

    service_base.join_on_provider = recorder.wrap("join", join)

    def undo() -> None:
        service_base.join_on_provider = original_join

    return undo

"""Run one benchmark workload against the four discovery services.

One process, one thread, one closed-loop client: each operation is issued
when the previous one returns, with no think time, and is applied to
LORM, Mercury, SWORD and MAAN in turn.  Requests enter at the service's
own ``random_node()``, as in Figures 4-6.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same operations twice on identically built services — untraced, then
traced with the span recorder — checks that both give the same answers,
and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench.harness import max_rss_kb
from repro.core.resource import ResourceInfo
from repro.experiments.common import ServiceBundle, build_services
from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.overlay.arraystore import CompactChordRing
from repro.sim.maintenance import DEFAULT_BUDGET
from repro.utils.seeding import SeedFactory

from perfbench.inputs import (WORKLOADS, Churn, Inputs, Maintain, Read, Update, make_inputs,
                              update_checks)
from perfbench.oracle import AnswerOracle, Verdict, result_digests, verify
from perfbench.spans import END, NAME, PARENT, REQUEST, START, SpanRecorder, install_tracing, \
    self_times

__all__ = ["SYSTEMS", "main", "run_phase", "set_up"]

#: Metric prefixes, in ``ServiceBundle.all()`` order.
SYSTEMS = ("lorm", "mercury", "sword", "maan")
#: Builds per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The ``repro scale`` point the traced run times on the array core.
ARRAY_NODES = 1_000_000
ARRAY_CHUNKS = 16
ARRAY_CHUNK = 256
#: The paper configuration's seed; the recorded layer split uses it.
DEFAULT_SEED = 2009

OUT_DIR = Path(__file__).resolve().parent / "out"

#: The CPUs this process may use, and the measured seconds between checks
#: of which of them is least disturbed (see :func:`settle`).
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
SETTLE_EVERY_S = 0.5


def _reference_loop() -> None:
    table: dict[int, int] = {}
    for i in range(3000):
        table[i & 255] = table.get((i * 7) & 255, 0) + i


def settle() -> float:
    """Pin the process to the CPU on which a short reference loop runs
    fastest right now; returns the seconds spent choosing.

    On a shared VM each CPU is slowed by neighbours at different times,
    and following the least disturbed one halves the run-to-run spread
    of the short requests' medians.  The timings themselves stay plain
    wall-clock times of the program; the choosing is kept out of them.
    """
    if len(_CPUS) < 2:
        return 0.0
    started = time.perf_counter()
    speeds = []
    for cpu in _CPUS:
        os.sched_setaffinity(0, {cpu})
        samples = []
        for _ in range(3):
            t = time.perf_counter()
            _reference_loop()
            samples.append(time.perf_counter() - t)
        speeds.append((sorted(samples)[1], cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})
    return time.perf_counter() - started


@dataclass
class Setup:
    """Loaded services, generated inputs and how long each step took."""

    bundle: ServiceBundle
    inputs: Inputs
    build_s: float
    load_s: float
    total_s: float


def set_up(config: ExperimentConfig, workload: str) -> Setup:
    """Build the four services, load the m x k pieces, generate inputs."""
    started = time.perf_counter()
    bundle = build_services(config, register=False)
    built = time.perf_counter()
    services = bundle.all()
    for info in bundle.workload.resource_infos():
        for service in services:
            service.register(info, routed=False)
    loaded = time.perf_counter()
    inputs = make_inputs(workload, bundle.workload, config.seed)
    done = time.perf_counter()
    return Setup(bundle, inputs, built - started, loaded - built, done - started)


@dataclass
class Phase:
    """What one measured phase did: executed operations and results."""

    ops: list = field(default_factory=list)
    #: Per operation: whether it was a probe operation (kept out of the
    #: main phase's requests, latencies and wall time).
    probe: list = field(default_factory=list)
    #: Per operation, one result tuple per system.
    records: list = field(default_factory=list)
    #: Per service call, in call order, its wall time as the loop saw it
    #: (in a traced run, call ``r`` is request id ``r``).
    call_s: list = field(default_factory=list)
    #: Wall time of the main operations (probe operations excluded).
    wall_s: float = 0.0
    probe_s: float = 0.0
    #: ``multi_query`` calls of the main operations.
    requests: int = 0
    read_s: dict = field(default_factory=lambda: {name: [] for name in SYSTEMS})
    #: Per update, its mean wall time over the systems (a pooled median
    #: would fall between the systems' very different update costs).
    update_s: list = field(default_factory=list)
    maintain_s: dict = field(default_factory=lambda: {name: [] for name in SYSTEMS})
    reports: list = field(default_factory=list)
    churn_events: int = 0
    #: Per system: hops, visited nodes and matched pieces of main reads.
    totals: dict = field(default_factory=lambda: {name: Counter() for name in SYSTEMS})


def _operations(bundle: ServiceBundle, recorder: SpanRecorder | None) -> list[dict]:
    """Per service, the callables one benchmark operation invokes; with a
    recorder each is a root span.  Every operation calls every service
    exactly once, so request id ``r`` belongs to operation ``r // 4``."""
    provider = bundle.workload.provider_name
    table = []
    for key, service in zip(SYSTEMS, bundle.all()):
        def update(op: Update, service=service) -> tuple[int, int]:
            name = provider(op.provider)
            removed = service.deregister(ResourceInfo(op.attribute, op.old, name))
            hops = service.register(ResourceInfo(op.attribute, op.value, name))
            return removed, hops

        def churn(kind: str, service=service) -> bool:
            return service.churn_leave() if kind == "leave" else service.churn_join()

        def maintain(service=service):
            return service.stabilize(DEFAULT_BUDGET)

        calls = {"read": service.multi_query, "update": update, "churn": churn,
                 "maintain": maintain}
        if recorder is not None:
            calls = {
                "read": recorder.root(f"service.{key}.request", calls["read"]),
                "update": recorder.root(f"service.{key}.update", update),
                "churn": recorder.root(f"service.{key}.churn", churn),
                "maintain": recorder.root("sim.maintenance.round", maintain),
            }
        table.append(calls)
    return table


def _apply(calls: list[dict], op, phase: Phase, probe: bool) -> None:
    """Send ``op`` to every system in turn and record the results."""
    clock = time.perf_counter
    call_s = phase.call_s
    per_system = []
    if isinstance(op, Read):
        for key, call in zip(SYSTEMS, calls):
            t = clock()
            result = call["read"](op.query)
            elapsed = clock() - t
            call_s.append(elapsed)
            per_system.append((result.providers, tuple(r.matches for r in result.sub_results),
                               result.total_hops, result.total_visited, result.complete))
            if not probe:
                phase.read_s[key].append(elapsed)
                totals = phase.totals[key]
                totals["hops"] += result.total_hops
                totals["visited"] += result.total_visited
                totals["matches"] += sum(len(r.matches) for r in result.sub_results)
        if not probe:
            phase.requests += len(calls)
    elif isinstance(op, Update):
        for call in calls:
            t = clock()
            per_system.append(call["update"](op))
            call_s.append(clock() - t)
        phase.update_s.append(statistics.fmean(call_s[-len(calls):]))
    elif isinstance(op, Churn):
        for call in calls:
            t = clock()
            per_system.append(call["churn"](op.kind))
            call_s.append(clock() - t)
        phase.churn_events += len(calls)
    else:
        for key, call in zip(SYSTEMS, calls):
            t = clock()
            report = call["maintain"]()
            call_s.append(clock() - t)
            phase.maintain_s[key].append(call_s[-1])
            phase.reports.append(report)
            per_system.append((report.stabilized, report.refreshed,
                               report.keys_repaired, report.copies_moved))
    phase.ops.append(op)
    phase.probe.append(probe)
    phase.records.append(tuple(per_system))


def run_phase(calls: list[dict], inputs: Inputs, seconds: float) -> Phase:
    """The measured phase: main operations until they have used
    ``seconds`` of wall time (stopping only where :class:`~perfbench.
    inputs.Inputs` allows), each probe operation when its fraction of
    that time is reached, and the probe's remainder at the end.  Last
    come the reads of :func:`~perfbench.inputs.update_checks` over the
    updates that ran, counted as probe operations."""
    phase = Phase()
    clock = time.perf_counter
    ops = inputs.main
    pending = list(inputs.probe)
    settle()
    started = clock()
    paused = 0.0  # probe operations and CPU checks, kept out of wall_s
    next_settle = SETTLE_EVERY_S
    index = 0
    while inputs.cycle or index < len(ops):
        if clock() - started - paused >= next_settle:
            paused += settle()
            next_settle += SETTLE_EVERY_S
        while pending and clock() - started - paused >= pending[0][0] * seconds:
            t = clock()
            _apply(calls, pending.pop(0)[1], phase, probe=True)
            phase.probe_s += clock() - t
            paused += clock() - t
        op = ops[index % len(ops)]
        index += 1
        _apply(calls, op, phase, probe=False)
        if ((inputs.cycle or isinstance(op, Maintain))
                and clock() - started - paused >= seconds):
            break
    phase.wall_s = clock() - started - paused
    for op in [op for _, op in pending] + update_checks(phase.ops):
        t = clock()
        _apply(calls, op, phase, probe=True)
        phase.probe_s += clock() - t
    return phase


def replay(calls: list[dict], done: Phase) -> Phase:
    """Apply exactly the operations ``done`` executed, in order."""
    phase = Phase()
    clock = time.perf_counter
    settle()
    next_settle = SETTLE_EVERY_S
    for op, probe in zip(done.ops, done.probe):
        if phase.wall_s >= next_settle:
            settle()
            next_settle += SETTLE_EVERY_S
        t = clock()
        _apply(calls, op, phase, probe)
        if probe:
            phase.probe_s += clock() - t
        else:
            phase.wall_s += clock() - t
    return phase


def check(setup: Setup, phase: Phase) -> tuple[Verdict, dict]:
    """Oracle verdict and per-system digests of ``phase``."""
    verdict = Verdict()
    verify(AnswerOracle(setup.bundle.workload), phase.ops, phase.records, SYSTEMS, verdict)
    return verdict, result_digests(phase.ops, phase.records, SYSTEMS)


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def measure_arraystore(seed: int, nodes: int) -> dict[str, float]:
    """Build the ``repro scale`` ring and time ``measure_lookups`` in
    fixed-size chunks (chunk generators are made before timing)."""
    seeds = SeedFactory(seed).fork("perfbench:arraystore")
    chunk_rngs = [seeds.numpy(f"chunk:{i}") for i in range(ARRAY_CHUNKS)]
    directory_keys_rng = seeds.numpy("directory")
    started = time.perf_counter()
    ring = CompactChordRing.sampled(nodes, seed=seeds.child_seed("construct"))
    ring.build_fingers()
    ring.directory.place("resource", directory_keys_rng.integers(ring.size, size=nodes,
                                                                 dtype=np.int64))
    build_s = time.perf_counter() - started
    per_lookup_us = []
    hops = []
    for rng in chunk_rngs:
        started = time.perf_counter()
        hops.append(ring.measure_lookups(ARRAY_CHUNK, rng))
        per_lookup_us.append((time.perf_counter() - started) / ARRAY_CHUNK * 1e6)
    return {
        "overlay.arraystore.build_s": build_s,
        "overlay.arraystore.lookup_us": statistics.median(per_lookup_us),
        "overlay.arraystore.hops_mean": float(np.mean(np.concatenate(hops))),
    }


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(config: ExperimentConfig, workload: str, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup = None  # free the previous build before the next one
        gc.collect()
        settle()
        setup = set_up(config, workload)
        setup_times.append(setup.total_s)
    phase = run_phase(_operations(setup.bundle, None), setup.inputs, seconds)
    verdict, digests = check(setup, phase)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (max_rss_kb() / 1024, "MB"),
        "requests_per_s": (phase.requests / phase.wall_s, "1/s"),
    }
    for key in SYSTEMS:
        metrics[f"{key}.p50_ms"] = (_pct(phase.read_s[key], 50) * 1e3, "ms")
        metrics[f"{key}.p95_ms"] = (_pct(phase.read_s[key], 95) * 1e3, "ms")
    metrics["update.p50_ms"] = (_pct(phase.update_s, 50) * 1e3, "ms")
    metrics["update.p95_ms"] = (_pct(phase.update_s, 95) * 1e3, "ms")
    # Mean over systems of each system's median round: robust to one slow
    # round, and a pooled median would flip between systems.
    metrics["maintenance.mean_ms"] = (
        statistics.fmean(statistics.median(r) for r in phase.maintain_s.values()) * 1e3, "ms")
    samples = {
        "reads per system": len(phase.read_s[SYSTEMS[0]]),
        "updates": len(phase.update_s),
        "maintenance rounds per system": len(phase.maintain_s[SYSTEMS[0]]),
        "probe reads": sum(isinstance(op, Read)
                           for op, probe in zip(phase.ops, phase.probe) if probe),
        "main phase s": phase.wall_s,
        "probe s": phase.probe_s,
        "setup runs s": setup_times,
    }
    return {"metrics": metrics, "verdict": verdict, "digests": digests, "samples": samples,
            "consistent": True}


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(recorder: SpanRecorder, selfs: list[float], phase: Phase, setup: Setup,
                  untraced_rps: float) -> dict:
    """Per-layer metrics from the traced replay's spans and counters.

    Per-call ``_us``/``_ms`` values are medians over every span of the
    run.  ``_frac`` (self time over wall time), per-request ratios and
    yields cover the main operations only, probe operations excluded.
    """
    spans = recorder.spans
    roots = {span[REQUEST]: span[NAME] for span in spans if span[PARENT] < 0}
    main = {r for r in roots if not phase.probe[r // len(SYSTEMS)]}
    durations: dict[str, list[float]] = defaultdict(list)
    self_by_name: dict[str, list[float]] = defaultdict(list)
    main_self: dict[str, float] = defaultdict(float)
    under_reads: Counter = Counter()
    entry_by_system: dict[str, list[float]] = defaultdict(list)
    for index, span in enumerate(spans):
        name = span[NAME]
        durations[name].append(span[END] - span[START])
        self_by_name[name].append(selfs[index])
        root = roots[span[REQUEST]]
        if name == "service.entry":
            entry_by_system[root.split(".")[1]].append(span[END] - span[START])
        if span[REQUEST] in main:
            main_self[name] += selfs[index]
            if root.endswith(".request"):
                under_reads[name] += 1
    # Counters summed over main read requests (per system), and over the
    # churn and maintenance roots of the whole run.
    read_counts: dict[str, Counter] = defaultdict(Counter)
    event_maintenance = 0
    for (name, request), amount in recorder.counts.items():
        root = roots[request]
        if request in main and root.endswith(".request"):
            read_counts[root.split(".")[1]][name] += amount
            read_counts["all"][name] += amount
        if name == "net.maintenance" and (root.endswith(".churn") or root.startswith("sim.")):
            event_maintenance += amount
    reads = read_counts["all"]
    wall = phase.wall_s
    requests = phase.requests or 1
    per_system = requests // len(SYSTEMS) or 1

    def p50(name: str, scale: float, source=durations) -> float:
        return _pct(source.get(name, []), 50) * scale

    m: dict[str, float] = {}
    for kind, kind_requests in (("chord", requests - per_system), ("cycloid", per_system)):
        m[f"overlay.{kind}.lookup_us"] = p50(f"overlay.{kind}.lookup", 1e6)
        m[f"overlay.{kind}.lookup_per_req"] = (
            under_reads[f"overlay.{kind}.lookup"] / (kind_requests or 1))
        m[f"overlay.{kind}.lookup_frac"] = main_self[f"overlay.{kind}.lookup"] / wall
    for kind in ("chord", "cycloid"):
        walks = len(durations.get(f"overlay.{kind}.walk", []))
        walked = sum(n for (name, _), n in recorder.counts.items()
                     if name == f"overlay.{kind}.walk_nodes")
        m[f"overlay.{kind}.walk_us"] = p50(f"overlay.{kind}.walk", 1e6)
        m[f"overlay.{kind}.walk_nodes"] = walked / walks if walks else 0.0
        m[f"overlay.{kind}.walk_frac"] = main_self[f"overlay.{kind}.walk"] / wall
    m["overlay.routed_store_us"] = p50("overlay.routed_store", 1e6, self_by_name)
    m["overlay.routed_store_frac"] = main_self["overlay.routed_store"] / wall
    m["overlay.churn_us"] = p50("overlay.churn", 1e6)
    m["overlay.churn_frac"] = main_self["overlay.churn"] / wall
    for key in SYSTEMS:
        totals = phase.totals[key]
        checks = read_counts[key]["net.directory_checks"]
        m[f"service.{key}.self_us"] = p50(f"service.{key}.request", 1e6, self_by_name)
        m[f"service.{key}.entry_us"] = _pct(entry_by_system.get(key, []), 50) * 1e6
        m[f"service.{key}.update_us"] = p50(f"service.{key}.update", 1e6, self_by_name)
        m[f"service.{key}.match_yield"] = totals["matches"] / checks if checks else 0.0
        m[f"service.{key}.hops_per_req"] = totals["hops"] / per_system
        m[f"service.{key}.visited_per_req"] = totals["visited"] / per_system
    m["join.us"] = p50("join", 1e6)
    m["join.frac"] = main_self["join"] / wall
    m["join.inputs_per_req"] = reads["join.inputs"] / requests
    m["join.yield"] = reads["join.outputs"] / reads["join.inputs"] if reads["join.inputs"] else 0.0
    reports = phase.reports
    keys_repaired = sum(r.keys_repaired for r in reports)
    copies_moved = sum(r.copies_moved for r in reports)
    m["sim.maintenance.round_ms"] = p50("sim.maintenance.round", 1e3)
    m["sim.maintenance.frac"] = main_self["sim.maintenance.round"] / wall
    m["sim.maintenance.repair_frac"] = main_self["sim.maintenance.repair"] / wall
    m["sim.maintenance.stabilize_frac"] = main_self["sim.maintenance.stabilize"] / wall
    m["sim.maintenance.keys_repaired"] = keys_repaired / len(reports) if reports else 0.0
    m["sim.maintenance.copies_moved"] = copies_moved / len(reports) if reports else 0.0
    m["sim.maintenance.repair_yield"] = copies_moved / keys_repaired if keys_repaired else 0.0
    events = phase.churn_events + len(reports)
    m["sim.network.messages_per_req"] = (reads["net.hops"] + reads["net.maintenance"]) / requests
    m["sim.network.directory_checks_per_req"] = reads["net.directory_checks"] / requests
    m["sim.network.maintenance_msgs_per_event"] = event_maintenance / events if events else 0.0
    m["sim.metrics.calls_per_req"] = reads["sim.metrics"] / requests
    m["hashing.calls_per_req"] = under_reads["hashing"] / requests
    m["hashing.frac"] = main_self["hashing"] / wall
    m["workloads.query_gen_us"] = _pct(setup.inputs.query_gen_us, 50)
    m["setup.build_s"] = setup.build_s
    m["setup.load_s"] = setup.load_s
    m["trace.overhead_frac"] = untraced_rps / (phase.requests / wall) - 1.0
    return m


#: Least share of the loop's own call timings the root spans must cover.
ROOT_COVERAGE = 0.95


def request_sums_consistent(spans: list[list], selfs: list[float]) -> bool:
    """Per request, the layers' self times add up to the root span.

    This is an invariant of :func:`~perfbench.spans.self_times` (children
    are clipped to the parent and their overlaps merged), kept as a guard
    on that arithmetic; :func:`root_coverage` is the check that time
    can escape."""
    total: dict[int, float] = defaultdict(float)
    root: dict[int, float] = {}
    for index, span in enumerate(spans):
        total[span[REQUEST]] += selfs[index]
        if span[PARENT] < 0:
            root[span[REQUEST]] = span[END] - span[START]
    return all(abs(total[r] - d) <= 1e-9 + 1e-9 * d for r, d in root.items())


def root_coverage(spans: list[list], phase: Phase) -> float:
    """Share of the loop's own timings of the service calls that the root
    spans cover; 0 unless there is exactly one root per call, each inside
    the loop's timing of that call.  Below :data:`ROOT_COVERAGE`, time
    spent in the calls is missing from the layer split."""
    roots = {span[REQUEST]: span[END] - span[START] for span in spans if span[PARENT] < 0}
    if sorted(roots) != list(range(len(phase.call_s))):
        return 0.0
    if any(duration > phase.call_s[r] for r, duration in roots.items()):
        return 0.0
    return sum(roots.values()) / sum(phase.call_s)


def layer_split(spans: list[list], selfs: list[float], phase: Phase) -> dict[str, float]:
    """Share of the main operations' wall time, as self time, per layer
    (``bench`` is the benchmark loop outside every root span)."""
    groups = (("entry", "service.entry"), ("service", "service."),
              ("routing", "overlay.chord.lookup"),
              ("routing", "overlay.cycloid.lookup"), ("walks", "overlay.chord.walk"),
              ("walks", "overlay.cycloid.walk"), ("writes+churn", "overlay.routed_store"),
              ("writes+churn", "overlay.churn"), ("maintenance", "sim.maintenance."),
              ("join", "join"), ("hashing", "hashing"))
    split: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if phase.probe[span[REQUEST] // len(SYSTEMS)]:
            continue
        layer = next(group for group, prefix in groups if span[NAME].startswith(prefix))
        split[layer] += selfs[index] / phase.wall_s
    split["bench"] = 1.0 - sum(split.values())
    return dict(split)


def traced(config: ExperimentConfig, workload: str, seconds: float) -> dict:
    settle()
    setup = set_up(config, workload)
    plain = run_phase(_operations(setup.bundle, None), setup.inputs, seconds)
    verdict, digests = check(setup, plain)
    untraced_rps = plain.requests / plain.wall_s
    setup = None
    gc.collect()

    settle()
    setup = set_up(config, workload)
    recorder = SpanRecorder()
    undo = install_tracing(recorder, setup.bundle.all())
    try:
        phase = replay(_operations(setup.bundle, recorder), plain)
    finally:
        undo()
    traced_verdict, traced_digests = check(setup, phase)
    selfs = self_times(recorder.spans)
    metrics = layer_metrics(recorder, selfs, phase, setup, untraced_rps)
    coverage = root_coverage(recorder.spans, phase)
    consistent = (traced_digests == digests and traced_verdict.failed == verdict.failed
                  and request_sums_consistent(recorder.spans, selfs)
                  and coverage >= ROOT_COVERAGE)
    split = layer_split(recorder.spans, selfs, phase)
    setup = None
    gc.collect()
    settle()
    metrics.update(measure_arraystore(config.seed, ARRAY_NODES))
    recorder.write(OUT_DIR / f"{workload}.trace.json", workload=workload, seed=config.seed,
                   main_wall_s=phase.wall_s,
                   probe_ops=[i for i, probe in enumerate(phase.probe) if probe])
    return {
        "metrics": {name: (value, _unit(name)) for name, value in metrics.items()},
        "verdict": verdict,
        "digests": digests,
        "samples": {
            "operations replayed": len(phase.ops),
            "spans": len(recorder.spans),
            "traced digests equal": traced_digests == digests,
            "root span share of call time": round(coverage, 4),
            "layer split of main wall time": {k: round(v, 4) for k, v in split.items()},
        },
        "consistent": consistent,
    }


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), (".us", "us"),
                         ("frac", "ratio"), ("yield", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Discovery-service benchmark: one workload, one seed.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    config = PAPER_CONFIG.scaled(seed=args.seed)
    run = (traced if args.trace else end_to_end)(config, args.workload, args.seconds)
    verdict = run["verdict"]
    correct = verdict.failed == 0 and run["consistent"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for name, value in run["samples"].items():
        print(f"  [{name}] {value}")
    print(f"  digests {json.dumps(run['digests'])}")
    print(f"  oracle: {verdict.attempted} checked, {verdict.failed} failed, "
          f"failed_frac {verdict.failed / max(verdict.attempted, 1):.6f}")
    for line in verdict.failures:
        print(f"    {line}")
    print(f"  verdict: {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0 if correct else 1

"""Seeded benchmark inputs: the operations a workload feeds the services.

Everything a run sends to the four discovery services is generated here,
before any timing starts, from the run's seed through the program's own
:class:`~repro.workloads.generator.GridWorkload` and
:class:`~repro.utils.seeding.SeedFactory`.  An operation is applied to
every service in turn (LORM, Mercury, SWORD, MAAN), so all four see the
same traffic in the same order.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.core.resource import AttributeConstraint, MultiAttributeQuery
from repro.sim.churn import ChurnEventKind, ChurnProcess
from repro.utils.seeding import SeedFactory
from repro.workloads.generator import GridWorkload, QueryKind

__all__ = [
    "ATTRIBUTES_PER_QUERY",
    "WORKLOADS",
    "Churn",
    "Inputs",
    "Maintain",
    "Read",
    "Update",
    "input_digest",
    "make_inputs",
    "update_checks",
]

#: Attributes per discovery request (Figures 4 and 5 sweep 1..10; 3 is
#: the middle of the range and keeps the join non-trivial).
ATTRIBUTES_PER_QUERY = 3
#: Distinct requests in the point / range pools; a read phase cycles
#: through its pool until the run's time is up.
POINT_POOL = 1024
RANGE_POOL = 256
#: Fig. 6 traffic: reads per simulated second.  Fig. 6 alternates point
#: and range reads; here two point reads go with each range read, because
#: with an even split the median falls on the gap between the cheap point
#: mode and the expensive range mode and jumps between them run to run.
READ_RATE = 10.0
POINTS_PER_RANGE = 2
#: Provider value updates per simulated second (comparable to reads).
UPDATE_RATE = 5.0
#: Poisson leave and join rate per stream (Fig. 6's heaviest R).
CHURN_RATE = 0.5
#: Simulated seconds between budgeted maintenance rounds — the longest of
#: ``ExperimentConfig.maintenance_intervals``, so a 12 s run still issues
#: enough reads for a p95 with ten samples beyond it.
MAINTENANCE_INTERVAL = 10.0
#: Simulated horizon of the churn-update schedule; a run stops at the end
#: of a maintenance interval long before it is used up.
CHURN_HORIZON = 400.0
#: The write/repair probe spread through the read phase of point-lookup
#: and range-scan (every workload reports update and maintenance cost).
PROBE_UPDATES = 256
PROBE_READS = 4
#: Three rounds, so each system's median round rests on more than one
#: sample.
PROBE_ROUNDS = (1 / 4, 1 / 2, 3 / 4)


@dataclass(frozen=True)
class Read:
    """One multi-attribute discovery request (``multi_query``)."""

    query: MultiAttributeQuery


@dataclass(frozen=True)
class Update:
    """Provider ``provider`` now reports ``value`` instead of ``old`` for
    ``attribute``: ``deregister`` the old piece, routed ``register`` of
    the new one."""

    attribute: str
    provider: int
    old: float
    value: float


@dataclass(frozen=True)
class Churn:
    """One graceful departure (``leave``) or rejoin (``join``)."""

    kind: str


@dataclass(frozen=True)
class Maintain:
    """One ``stabilize(DEFAULT_BUDGET)`` round."""


@dataclass
class Inputs:
    """A workload's pre-generated operations.

    ``main`` is the measured phase.  With ``cycle`` set it is a pool the
    phase cycles through until time is up, stopping after any operation;
    otherwise it is a schedule consumed in order that may only stop right
    after a :class:`Maintain` (whole maintenance intervals, so every run
    pays the same share of repair).  ``probe`` holds ``(fraction, op)``
    pairs: each op runs once, when the main operations have used that
    fraction of the run's time, and its time is kept out of the main
    phase's.  Spreading the probe over the run makes it sample the same
    machine conditions as the reads instead of one short burst.
    ``query_gen_us`` holds the generation time of each request.
    """

    workload: str
    main: list
    cycle: bool
    probe: list
    query_gen_us: list


def _timed_queries(workload: GridWorkload, count: int, kind: QueryKind, label: str,
                   gen_us: list) -> list[Read]:
    stream = workload.query_stream(count, ATTRIBUTES_PER_QUERY, kind, label=label)
    reads = []
    for _ in range(count):
        started = time.perf_counter()
        query = next(stream)
        gen_us.append((time.perf_counter() - started) * 1e6)
        reads.append(Read(query))
    return reads


def _updates(workload: GridWorkload, seeds: SeedFactory, label: str, count: int) -> list[Update]:
    """``count`` updates in order, each replacing the value the previous
    ones left (the run starts from the workload's loaded values)."""
    rng = seeds.numpy(label)
    specs = workload.schema.specs
    current: dict[tuple[str, int], float] = {}
    updates = []
    for _ in range(count):
        spec = specs[int(rng.integers(len(specs)))]
        provider = int(rng.integers(workload.num_providers))
        key = (spec.name, provider)
        old = current.get(key)
        if old is None:
            old = workload.provider_value(spec.name, provider)
        new = float(spec.distribution.sample(rng))
        current[key] = new
        updates.append(Update(spec.name, provider, old, new))
    return updates


def _probe(workload: GridWorkload, seeds: SeedFactory, gen_us: list) -> list:
    """Evenly spread writes, one leave/join pair between three repair
    rounds, then reads of both kinds that check the state left behind."""
    updates = _updates(workload, seeds, "perfbench:probe-updates", PROBE_UPDATES)
    checks = [
        *_timed_queries(workload, PROBE_READS, QueryKind.POINT, "perfbench:probe-point", gen_us),
        *_timed_queries(workload, PROBE_READS, QueryKind.RANGE, "perfbench:probe-range", gen_us),
    ]
    timed = sorted(
        [((j + 0.5) / len(updates), 0, op) for j, op in enumerate(updates)]
        + [(3 / 8, 1, Churn("leave")), (5 / 8, 1, Churn("join"))]
        + [(fraction, 1, Maintain()) for fraction in PROBE_ROUNDS]
        + [(1.0, 2, op) for op in checks],
        key=lambda entry: entry[:2],
    )
    return [(fraction, op) for fraction, _, op in timed]


def _churn_schedule(workload: GridWorkload, seeds: SeedFactory, gen_us: list) -> list:
    """Fig. 6 traffic plus writes, merged in simulated-time order."""
    num_reads = int(CHURN_HORIZON * READ_RATE)
    period = POINTS_PER_RANGE + 1
    num_ranges = num_reads // period
    points = iter(_timed_queries(workload, num_reads - num_ranges, QueryKind.POINT,
                                 "perfbench:churn-point", gen_us))
    ranges = iter(_timed_queries(workload, num_ranges, QueryKind.RANGE,
                                 "perfbench:churn-range", gen_us))
    timed: list[tuple[float, int, object]] = []
    for i in range(num_reads):
        read = next(ranges) if i % period == POINTS_PER_RANGE else next(points)
        timed.append(((i + 1) / READ_RATE, 0, read))
    updates = _updates(workload, seeds, "perfbench:churn-updates",
                       int(CHURN_HORIZON * UPDATE_RATE))
    for j, update in enumerate(updates):
        timed.append(((j + 0.5) / UPDATE_RATE, 1, update))
    churn = ChurnProcess(rate=CHURN_RATE, rng=seeds.numpy("perfbench:churn"))
    for event in churn.events_until(CHURN_HORIZON):
        kind = "join" if event.kind is ChurnEventKind.JOIN else "leave"
        timed.append((event.time, 2, Churn(kind)))
    t = MAINTENANCE_INTERVAL
    while t <= CHURN_HORIZON:
        timed.append((t, 3, Maintain()))
        t += MAINTENANCE_INTERVAL
    timed.sort(key=lambda entry: (entry[0], entry[1]))
    return [op for _, _, op in timed]


def make_inputs(name: str, workload: GridWorkload, seed: int) -> Inputs:
    """All operations of workload ``name`` for ``seed``."""
    seeds = SeedFactory(seed).fork(f"perfbench:{name}")
    gen_us: list[float] = []
    if name == "point-lookup":
        main = _timed_queries(workload, POINT_POOL, QueryKind.POINT, "perfbench:point", gen_us)
        return Inputs(name, main, True, _probe(workload, seeds, gen_us), gen_us)
    if name == "range-scan":
        main = _timed_queries(workload, RANGE_POOL, QueryKind.RANGE, "perfbench:range", gen_us)
        return Inputs(name, main, True, _probe(workload, seeds, gen_us), gen_us)
    if name == "churn-update":
        return Inputs(name, _churn_schedule(workload, seeds, gen_us), False, [], gen_us)
    raise ValueError(f"unknown workload {name!r}; valid choices: {', '.join(WORKLOADS)}")


WORKLOADS = ("point-lookup", "range-scan", "churn-update")


def update_checks(ops: list) -> list[Read]:
    """POINT reads that look up, for every (attribute, provider) the
    ``Update`` operations in ``ops`` touched, its latest value and its
    value before the first update, up to :data:`ATTRIBUTES_PER_QUERY`
    distinct attributes per read.

    Each sub-query of such a read is checked on its own against the
    oracle, so a ``register`` that lost the new piece or a ``deregister``
    that left the old one fails.  The reads are derived from the
    operations a run executed, after its measured phase.
    """
    first: dict[tuple[str, int], float] = {}
    latest: dict[tuple[str, int], float] = {}
    for op in ops:
        if isinstance(op, Update):
            first.setdefault((op.attribute, op.provider), op.old)
            latest[op.attribute, op.provider] = op.value
    pending: list[dict[str, AttributeConstraint]] = []
    for key, value in latest.items():
        for probe in (value, first[key]):
            constraint = AttributeConstraint.point(key[0], probe)
            slot = next((q for q in pending if key[0] not in q
                         and len(q) < ATTRIBUTES_PER_QUERY), None)
            if slot is None:
                slot = {}
                pending.append(slot)
            slot[key[0]] = constraint
    return [Read(MultiAttributeQuery(tuple(q.values()))) for q in pending]


def _op_text(op) -> str:
    if isinstance(op, Read):
        return "R" + ";".join(
            f"{c.attribute}:{c.low!r}:{c.high!r}" for c in op.query.constraints
        )
    if isinstance(op, Update):
        return f"U{op.attribute}:{op.provider}:{op.old!r}:{op.value!r}"
    if isinstance(op, Churn):
        return f"C{op.kind}"
    return "M"


def input_digest(inputs: Inputs) -> str:
    """SHA-256 over every generated operation, in order."""
    h = hashlib.sha256(inputs.workload.encode())
    for op in inputs.main:
        h.update(_op_text(op).encode() + b"\n")
    for fraction, op in inputs.probe:
        h.update(f"{fraction!r}:{_op_text(op)}\n".encode())
    return h.hexdigest()

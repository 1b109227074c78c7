"""Durability experiment: redundancy policies × chaos scenarios.

The recovery experiment fixes the redundancy scheme and sweeps the
maintenance budget; this one fixes the budget and sweeps the
:class:`~repro.sim.durability.DurabilityPolicy` — successor-list
replication (the seed scheme), symmetric spread replication and a
``(k, m)`` erasure code — through chaos timelines, asking the questions
Leslie's storage analysis poses:

* **durability** — how many decodable pieces did the timeline destroy
  outright (before/after policy census)?
* **time-to-recover** — how long until the survivors are fully redundant
  again (data TTR: structural invariants + zero replica deficit, with
  the availability floor at 0.0 so genuinely lost pieces do not mask the
  healing of the rest)?
* **repair bandwidth** — how many piece-equivalents did budgeted
  anti-entropy move to get there (copies moved × fragment weight — an
  erasure fragment costs ``1/k`` of a piece)?

Every (system, policy, scenario) cell is seeded and independent: one
service bundle per (policy, scenario), the same probe workload, the same
default maintenance budget and cadence as the chaos demo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from repro.experiments.common import build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.gates import CellSweep, Gate
from repro.experiments.recovery import _probe_cases, chaos_trial
from repro.sim.chaos import CRASH_STORM_SCENARIO, DEMO_SCENARIO, ChaosScenario
from repro.sim.durability import DEFAULT_POLICY_SPECS, DurabilityPolicy, parse_policy
from repro.sim.invariants import directory_census, overlay_of
from repro.sim.maintenance import DEFAULT_BUDGET, MaintenanceScheduler
from repro.utils.formatting import render_table

__all__ = [
    "DurabilityCell",
    "DurabilityResult",
    "run_durability",
    "DEFAULT_SCENARIOS",
    "DEFAULT_SYSTEMS",
]

#: The chaos timelines every policy is subjected to.
DEFAULT_SCENARIOS: tuple[ChaosScenario, ...] = (DEMO_SCENARIO, CRASH_STORM_SCENARIO)

#: One Cycloid-backed and one Chord-backed system keep the sweep honest
#: about both overlay substrates without quadrupling its cost.
DEFAULT_SYSTEMS: tuple[str, ...] = ("LORM", "Mercury")


@dataclass(frozen=True)
class DurabilityCell:
    """One (system, policy, scenario) outcome."""

    system: str
    policy: str
    scenario: str
    #: Decodable pieces in the policy census before any fault.
    pieces_before: int
    #: Pieces the timeline destroyed outright (census shrinkage).
    pieces_lost: int
    #: Worst per-fault data time-to-recover (inf = never healed).
    ttr: float
    #: Replica deficit integrated over the timeline.
    deficit_area: float
    min_availability: float
    final_availability: float
    #: Raw copies moved by every maintenance round's repair leg.
    repair_copies: int
    #: ``repair_copies`` weighted by fragment cost (piece-equivalents).
    repair_bandwidth: float
    #: Bytes stored per byte of data when fully placed.
    storage_overhead: float
    #: Data recovery: every fault healed (finite TTR) and the final
    #: sample is structurally clean with zero replica deficit.
    recovered: bool


@dataclass
class DurabilityResult(CellSweep):
    """The full policy × scenario sweep."""

    stem: ClassVar[str] = "durability"
    cell_type: ClassVar[type] = DurabilityCell

    def gates(self) -> list[Gate]:
        """Every cell recovered its surviving data within the horizon."""
        n = len(self.cells)
        return [
            Gate("cells that recovered their surviving data",
                 sum(c.recovered for c in self.cells), n, ">=", n),
            Gate("worst data time-to-recover (s)",
                 max((c.ttr for c in self.cells), default=math.inf),
                 math.inf, "<", n),
        ]

    def table(self) -> str:
        rows = []
        for c in self.cells:
            rows.append([
                c.system,
                c.policy,
                c.scenario,
                str(c.pieces_before),
                str(c.pieces_lost),
                "never" if math.isinf(c.ttr) else f"{c.ttr:.1f}s",
                f"{c.deficit_area:.0f}",
                f"{c.min_availability:.2f}",
                f"{c.final_availability:.2f}",
                str(c.repair_copies),
                f"{c.repair_bandwidth:.1f}",
                f"{c.storage_overhead:.2f}",
                "yes" if c.recovered else "NO",
            ])
        return render_table(
            ["system", "policy", "scenario", "pieces", "lost", "TTR",
             "deficit area", "min avail", "final avail", "repair copies",
             "repair BW", "overhead", "recovered"],
            rows,
            title="durability: redundancy policies under chaos "
            "(TTR/recovered = data recovery, availability floor 0)",
        )


def _census_size(service, policy: DurabilityPolicy) -> int:
    overlay = overlay_of(service)
    return sum(directory_census(overlay, policy).values())


def run_durability(
    config: ExperimentConfig,
    *,
    policies: tuple[DurabilityPolicy, ...] | None = None,
    scenarios: tuple[ChaosScenario, ...] = DEFAULT_SCENARIOS,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
) -> DurabilityResult:
    """Sweep durability policies × chaos scenarios over ``systems``.

    One freshly built bundle per (policy, scenario) — chaos mutates the
    overlays, so cells never share state — with the default maintenance
    budget on the tightest configured cadence, exactly like the chaos
    demo.  ``policies=None`` runs :data:`~repro.sim.durability.
    DEFAULT_POLICY_SPECS` (successor replication, symmetric replication
    and a (2, 1) erasure code).
    """
    if policies is None:
        policies = tuple(parse_policy(spec) for spec in DEFAULT_POLICY_SPECS)
    interval = min(config.maintenance_intervals)
    result = DurabilityResult(config=config)
    for scenario in scenarios:
        horizon = max(config.recovery_horizon, scenario.horizon() + 4 * interval)
        for policy in policies:
            bundle = build_services(config, register=True, durability=policy)
            cases = _probe_cases(bundle, config.num_recovery_queries)
            for name in systems:
                service = bundle.by_name(name)
                before = _census_size(service, policy)
                scheduler = MaintenanceScheduler(service, DEFAULT_BUDGET, interval)
                tracker = chaos_trial(
                    service, cases, scenario,
                    interval=interval,
                    horizon=horizon,
                    sample_interval=config.recovery_sample_interval,
                    injector_seed=config.seed,
                    availability_floor=0.0,
                    scheduler=scheduler,
                )
                after = _census_size(service, policy)
                copies = sum(r.copies_moved for _, r in scheduler.reports)
                timeline = tracker.availability_timeline()
                result.cells.append(DurabilityCell(
                    system=name,
                    policy=policy.name,
                    scenario=scenario.name,
                    pieces_before=before,
                    pieces_lost=max(0, before - after),
                    ttr=tracker.time_to_reconverge(),
                    deficit_area=tracker.deficit_area(),
                    min_availability=min(a for _, a in timeline),
                    final_availability=timeline[-1][1],
                    repair_copies=copies,
                    repair_bandwidth=copies * policy.fragment_weight,
                    storage_overhead=policy.storage_overhead,
                    recovered=tracker.reconverged,
                ))
    result.notes.append(
        f"default maintenance budget every {interval:g}s; availability floor "
        "0.0 — TTR clocks data recovery (structure + zero replica deficit), "
        "availability is reported alongside; repair BW = copies moved × "
        "fragment weight (an erasure fragment costs 1/k of a piece)."
    )
    result.notes.append(
        "policies: " + ", ".join(
            f"{p.name} (overhead {p.storage_overhead:g}x)" for p in policies
        )
        + "; scenarios: " + ", ".join(s.name for s in scenarios)
        + "; systems: " + ", ".join(systems) + "."
    )
    return result

"""The gated-experiment contract: every gate can fail, the printed verdict
and the exit code come from the same gates, and bad input exits 2 with a
message before any work starts."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.analysis.models import AnalysisCurve
from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.durability import DurabilityCell, DurabilityResult
from repro.experiments.gates import Gate, render_gates, verdict
from repro.experiments.hotspot import HotspotCell, HotspotResult
from repro.experiments.recovery import ChaosDemoResult
from repro.experiments.report import FigureResult
from repro.experiments.scale import ScalePoint, ScaleResult
from repro.experiments.tail import TailCell, TailResult
from repro.experiments.tradeoff import TradeoffCell, TradeoffResult


class TestGate:
    def test_comparisons(self):
        assert Gate("g", 1.0, 1.0, "<=", 1).ok
        assert not Gate("g", 1.0, 1.0, "<", 1).ok
        assert Gate("g", 2.0, 1.0, ">", 1).ok
        assert not Gate("g", 0.5, 1.0, ">=", 1).ok

    def test_zero_samples_never_pass(self):
        assert not Gate("g", 0.0, 1.0, "<=", 0).ok

    @pytest.mark.parametrize("better", ["<", "<=", ">", ">="])
    def test_nan_never_passes(self, better):
        assert not Gate("g", float("nan"), 1.0, better, 5).ok

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ValueError):
            Gate("g", 1.0, 1.0, "==", 1)

    def test_render_has_one_line_per_gate_then_the_verdict(self):
        gates = [Gate("fast", 1.0, 2.0, "<=", 3), Gate("slow", 3.0, 2.0, "<=", 3)]
        assert render_gates(gates).splitlines() == [
            "fast: 1 (gate <= 2, n=3): ok",
            "slow: 3 (gate <= 2, n=3): MISS",
            "verdict: GATE MISS",
        ]
        assert verdict(gates[:1]) == "ok"

    def test_no_gates_is_said_out_loud(self):
        assert render_gates([]) == "verdict: ok (no gates)"


# ---------------------------------------------------------------------------
# One degraded result per gated experiment
# ---------------------------------------------------------------------------
def _tracker(reconverged: bool):
    return SimpleNamespace(
        reconverged=reconverged,
        availability_timeline=lambda: [(0.0, 1.0), (2.0, 0.5), (4.0, 1.0)],
        time_to_reconverge=lambda: 4.0 if reconverged else math.inf,
        deficit_area=lambda: 3.0,
    )


def _figure(figure_id: str) -> FigureResult:
    figure = FigureResult(figure_id=figure_id, title="t", x_label="x", y_label="y")
    figure.add(AnalysisCurve("series", (0.0, 2.0), (1.0, 0.5)))
    return figure


def _chaos_never_reconverges() -> ChaosDemoResult:
    result = ChaosDemoResult(figure=_figure("chaos"))
    for name in ("LORM", "Mercury"):
        result.budgeted[name] = _tracker(reconverged=name != "Mercury")
        result.unbudgeted[name] = _tracker(reconverged=False)
    return result


def _durability_ttr_inf() -> DurabilityResult:
    result = DurabilityResult(config=ExperimentConfig())
    for ttr in (6.0, math.inf):
        result.cells.append(DurabilityCell(
            system="LORM", policy="replication:2", scenario="demo",
            pieces_before=10, pieces_lost=0, ttr=ttr, deficit_area=4.0,
            min_availability=0.5, final_availability=1.0, repair_copies=3,
            repair_bandwidth=3.0, storage_overhead=2.0, recovered=True,
        ))
    return result


def _hotspot_without_mitigation() -> HotspotResult:
    result = HotspotResult(config=ExperimentConfig(hotspot_zipf_s=(0.0, 1.1)))
    result.cells.append(HotspotCell(
        system="SWORD", zipf_s=1.1, mitigation="none", imbalance=40.0,
        gini=0.5, top5_share=0.5, route_imbalance=2.0,
        mean_subquery_hops=3.0, max_subquery_hops=5, hop_bound=60,
        queries=100, transparent=True, replica_copies=0, replicas_created=0,
    ))
    return result


def _tail_without_speedup() -> TailResult:
    result = TailResult(config=ExperimentConfig(tail_slo_p99=1.5))
    for system in ("LORM", "SWORD"):
        for policy in ("fixed", "adaptive", "hedged"):
            result.cells.append(TailCell(
                system=system, slow_fraction=0.1, policy=policy, p50=0.2,
                p99=1.0, p999=1.2, mean=0.3, queries=100, messages=1000,
                timeouts=5, retries=5, hedges=10 if policy == "hedged" else 0,
                hedges_won=5,
            ))
    return result


def _tradeoff(record_means=(4.0, 3.0), lookups=12) -> TradeoffResult:
    result = TradeoffResult(
        config=ExperimentConfig(tradeoff_fanouts=(1, 2)), systems=("MAAN",)
    )
    labels = ("record:f1", "record:f2", "singlehop")
    for label, hops in zip(labels, (*record_means, 1.0)):
        result.cells.append(TradeoffCell(
            overlay=label, budget="unlimited", system="MAAN", mean_hops=hops,
            max_hops=int(hops) + 1, mean_latency=hops * 0.05,
            maintenance_per_event=5.0, retries=0, queries=12,
            lookups=lookups, verified=lookups > 0,
        ))
    return result


def _scale(points=1, wall_seconds=1.0, peak_mb=24.0) -> ScaleResult:
    point = ScalePoint(
        num_nodes=100_000, bits=24, mean_hops=8.3, p99_hops=13.0,
        half_log2_n=8.3, maintenance_per_event=40.0, build_seconds=0.5,
        query_seconds=0.5, state_mb=9.2, peak_tracemalloc_mb=peak_mb,
        rss_max_mb=69.0,
    )
    result = ScaleResult(
        [point] * points, wall_seconds=wall_seconds, budget_seconds=120.0,
        budget_mb=600.0, figure_id="scale", title="t", x_label="n",
        y_label="hops",
    )
    result.add(AnalysisCurve("series", (0.0, 2.0), (1.0, 0.5)))
    return result


#: id -> (argv, run function the CLI resolves, degraded result, gate that
#: must read MISS).
DEGRADED = {
    "chaos-tracker-never-reconverges": (
        ["chaos", "--smoke"], "repro.experiments.recovery.run_chaos_demo",
        _chaos_never_reconverges, "systems reconverged under the default budget",
    ),
    "durability-ttr-inf": (
        ["durability", "--smoke"], "repro.experiments.durability.run_durability",
        _durability_ttr_inf, "worst data time-to-recover",
    ),
    "hotspot-sword-unmitigated": (
        ["hotspot", "--smoke"], "repro.experiments.hotspot.run_hotspot",
        _hotspot_without_mitigation, "SWORD max/mean cut",
    ),
    "tail-hedged-p99-equals-fixed": (
        ["tail", "--smoke"], "repro.experiments.tail.run_tail",
        _tail_without_speedup, "LORM @ 10% slow: p99 fixed/hedged",
    ),
    "tradeoff-flat-record-curve": (
        ["tradeoff", "--smoke"], "repro.experiments.tradeoff.run_tradeoff",
        lambda: _tradeoff(record_means=(3.0, 3.0)), "ReCord mean hops",
    ),
    "tradeoff-zero-lookups": (
        ["tradeoff", "--smoke"], "repro.experiments.tradeoff.run_tradeoff",
        lambda: _tradeoff(lookups=0), "single-hop worst mean hops",
    ),
    "scale-zero-samples": (
        ["scale", "--smoke", "--budget-seconds", "120"],
        "repro.experiments.scale.run_scale",
        lambda: _scale(points=0), "sweep wall-clock",
    ),
    "scale-over-time-budget": (
        ["scale", "--smoke", "--budget-seconds", "120"],
        "repro.experiments.scale.run_scale",
        lambda: _scale(wall_seconds=130.0), "sweep wall-clock",
    ),
    "scale-over-memory-budget": (
        ["scale", "--smoke", "--budget-mb", "600"],
        "repro.experiments.scale.run_scale",
        lambda: _scale(peak_mb=650.0), "worst point's peak traced memory",
    ),
}


@pytest.mark.parametrize(
    "argv, run_target, make, gate", DEGRADED.values(), ids=DEGRADED.keys()
)
def test_degraded_result_fails_verdict_and_exit_code(
    argv, run_target, make, gate, monkeypatch, capsys
):
    result = make()
    assert not result.ok
    text = result.render()
    lines = [line for line in text.splitlines() if line.startswith(gate)]
    assert lines and all(line.endswith(": MISS") for line in lines)
    assert text.splitlines().count("verdict: GATE MISS") == 1

    monkeypatch.setattr(run_target, lambda config, **kwargs: result)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "verdict: GATE MISS" in captured.out
    assert f"{argv[0]}: GATE MISS in" in captured.err


def test_fixtures_pass_when_healthy():
    assert _tradeoff().ok
    assert _scale().ok


# ---------------------------------------------------------------------------
# Bad input: exit 2 with a message, before any work
# ---------------------------------------------------------------------------
BAD_INPUT = [
    ["scale", "--sizes", "0"],
    ["scale", "--smoke", "--queries", "0"],
    ["tail", "--smoke", "--fractions", "1.5"],
    ["tail", "--smoke", "--queries", "0"],
    ["hotspot", "--smoke", "--queries", "0"],
    ["chaos", "--smoke", "--seed", "-1"],
    ["tradeoff", "--smoke", "--queries", "0"],
    ["tradeoff", "--smoke", "--fanouts", "0"],
    ["trace", "--system", "lorm", "--loss", "1.0"],
    ["check", "--seed", "-1"],
    ["check", "--churn-events", "-1"],
    ["check", "--queries", "0"],
    ["trace", "--system", "lorm", "--seed", "-1"],
    ["trace", "--system", "lorm", "--attributes", "0"],
    ["trace", "--system", "lorm", "--attributes", "99"],
    ["trace", "--system", "lorm", "--overlay", "record", "--fanout", "0"],
    ["trace", "--system", "lorm", "--queries", "0"],
    ["availability", "--scale", "smoke", "--loss", "1.5"],
    ["availability", "--scale", "smoke", "--replication", "0"],
    ["availability", "--scale", "smoke", "--queries", "0"],
    ["bench", "--smoke", "--repeats", "0"],
]

RUN_TARGETS = {target for _, target, _, _ in DEGRADED.values()} | {
    "repro.obs.replay.replay_queries",
    "repro.testing.differential.run_check",
    "repro.bench.run_bench",
    "repro.cli.run_figure",
}


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_before_any_work(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        pytest.fail("work started before the input was validated")

    for target in RUN_TARGETS:
        monkeypatch.setattr(target, refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].startswith("repro: error: ")
    assert "Traceback" not in err

"""Tests of the benchmark itself, on the smoke-scale configuration.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
from pathlib import Path

import pytest

from repro.core.resource import ResourceInfo
from repro.experiments.common import build_workload
from repro.experiments.config import SMOKE_CONFIG
from repro.workloads.generator import QueryKind

from perfbench import measure
from perfbench.inputs import WORKLOADS, Update, input_digest, make_inputs, update_checks
from perfbench.oracle import AnswerOracle, Verdict, verify
from perfbench.spans import self_times

CONFIG = SMOKE_CONFIG.scaled(seed=3)
SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_oracle_equals_bruteforce_on_loaded_state():
    workload = build_workload(CONFIG)
    oracle = AnswerOracle(workload)
    for kind in (QueryKind.POINT, QueryKind.RANGE):
        for query in workload.query_stream(40, 3, kind, label="oracle-test"):
            assert oracle.providers(query) == workload.matching_providers_bruteforce(query)


def test_planted_wrong_answer_counts_as_failure():
    setup = measure.set_up(CONFIG, "range-scan")
    calls = measure._operations(setup.bundle, None)
    phase = measure.Phase()
    for op in setup.inputs.main[:6]:
        measure._apply(calls, op, phase, probe=False)
    oracle = AnswerOracle(setup.bundle.workload)
    clean = Verdict()
    verify(oracle, phase.ops, phase.records, measure.SYSTEMS, clean)
    assert (clean.attempted, clean.failed) == (24, 0)

    records = [list(per_system) for per_system in phase.records]
    providers, subs, hops, visited, complete = records[2][1]
    records[2][1] = (providers | {"grid-node-99999"}, subs, hops, visited, complete)
    providers, subs, hops, visited, _ = records[4][3]
    records[4][3] = (providers, subs, hops, visited, False)
    planted = Verdict()
    verify(AnswerOracle(setup.bundle.workload), phase.ops, records, measure.SYSTEMS, planted)
    assert (planted.attempted, planted.failed) == (24, 2)


def test_planted_empty_point_sub_query_counts_as_failure():
    """An empty sub-query answer fails even when the joined set (almost
    always empty for a 3-attribute point request) is unchanged."""
    setup = measure.set_up(CONFIG, "point-lookup")
    calls = measure._operations(setup.bundle, None)
    phase = measure.Phase()
    for op in setup.inputs.main[:6]:
        measure._apply(calls, op, phase, probe=False)
    clean = Verdict()
    verify(AnswerOracle(setup.bundle.workload), phase.ops, phase.records, measure.SYSTEMS,
           clean)
    assert (clean.attempted, clean.failed) == (24, 0)

    records = [list(per_system) for per_system in phase.records]
    providers, subs, hops, visited, complete = records[3][2]
    assert subs[1], "a point constraint is drawn from an existing provider value"
    records[3][2] = (providers, (subs[0], (), *subs[2:]), hops, visited, complete)
    planted = Verdict()
    verify(AnswerOracle(setup.bundle.workload), phase.ops, records, measure.SYSTEMS, planted)
    assert (planted.attempted, planted.failed) == (24, 1)
    assert "sword" in planted.failures[0]


def test_update_checks_catch_a_lost_register():
    setup = measure.set_up(CONFIG, "point-lookup")
    calls = measure._operations(setup.bundle, None)
    phase = measure.Phase()
    updates = [op for _, op in setup.inputs.probe if isinstance(op, Update)][:10]
    for op in updates:
        measure._apply(calls, op, phase, probe=True)
    # MAAN loses the piece the last update registered.
    lost = updates[-1]
    setup.bundle.maan.deregister(ResourceInfo(
        lost.attribute, lost.value, setup.bundle.workload.provider_name(lost.provider)))
    checks = update_checks(phase.ops)
    constraints = sum(len(read.query.constraints) for read in checks)
    assert constraints == 2 * len({(op.attribute, op.provider) for op in updates})
    for read in checks:
        measure._apply(calls, read, phase, probe=True)
    verdict = Verdict()
    verify(AnswerOracle(setup.bundle.workload), phase.ops, phase.records, measure.SYSTEMS,
           verdict)
    assert verdict.failed == 1
    assert "maan" in verdict.failures[0] and lost.attribute in verdict.failures[0]


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["other-root", 20.0, 30.0, -1, 1],
        ["overlap-1", 21.0, 25.0, 4, 1],
        ["overlap-2", 23.0, 27.0, 4, 1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 4.0, 4.0, 4.0]
    assert sum(self_times(spans)[:4]) == 10.0


def test_root_coverage_fails_when_call_time_escapes_the_spans():
    phase = measure.Phase(call_s=[1.0, 2.0])
    covered = [["r0", 0.0, 0.99, -1, 0], ["r1", 2.0, 3.98, -1, 1]]
    assert measure.root_coverage(covered, phase) >= measure.ROOT_COVERAGE
    short = [["r0", 0.0, 0.99, -1, 0], ["r1", 2.0, 3.0, -1, 1]]
    assert measure.root_coverage(short, phase) < measure.ROOT_COVERAGE
    assert measure.root_coverage(covered[:1], phase) == 0.0
    longer = [["r0", 0.0, 1.5, -1, 0], ["r1", 2.0, 3.98, -1, 1]]
    assert measure.root_coverage(longer, phase) == 0.0


def test_same_seed_same_inputs_and_different_seed_different_inputs():
    workload = build_workload(CONFIG)
    for name in WORKLOADS:
        first = input_digest(make_inputs(name, workload, 11))
        assert first == input_digest(make_inputs(name, workload, 11))
        assert first != input_digest(make_inputs(name, build_workload(CONFIG.scaled(seed=12)), 12))


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_run_reports_every_metric(name):
    run = measure.end_to_end(CONFIG, name, 0.3)
    assert run["verdict"].failed == 0 and run["verdict"].attempted > 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {n: unit for n, (_, unit) in run["metrics"].items()} == expected
    assert all(value > 0 for value, _ in run["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_matches_untraced_and_reports_every_layer(name, tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "ARRAY_NODES", 2048)
    monkeypatch.setattr(measure, "OUT_DIR", tmp_path)
    run = measure.traced(CONFIG, name, 0.3)
    assert run["samples"]["traced digests equal"]
    assert run["consistent"]
    assert run["verdict"].failed == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {n: unit for n, (_, unit) in run["metrics"].items()} == expected
    trace = json.loads((tmp_path / f"{name}.trace.json").read_text())
    assert len(trace["spans"]) == run["samples"]["spans"]


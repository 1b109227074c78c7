"""Tests for the declarative chaos-scenario timeline."""

from __future__ import annotations

import pytest

from repro.baselines.mercury import MercuryService
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidOverlay
from repro.sim.chaos import (
    DEMO_SCENARIO,
    GRAY_FAILURE_SCENARIO,
    ChaosScenario,
    CrashBurst,
    GrayFailureWindow,
    LossRamp,
    NodeFlap,
    PartitionWindow,
    SlowBurst,
    network_ids_of,
    slow_victims,
)
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan


class TestIdSpaceOf:
    def test_chord_space(self):
        assert ChordRing(6).key_space_size == 64

    def test_cycloid_linearized_capacity(self):
        assert CycloidOverlay(3).key_space_size == 3 * 2**3


class TestPartitionWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionWindow(lo_frac=-0.1, hi_frac=0.5, starts_at=0, heals_at=1)
        with pytest.raises(ValueError):
            PartitionWindow(lo_frac=0.0, hi_frac=1.5, starts_at=0, heals_at=1)
        with pytest.raises(ValueError):
            PartitionWindow(lo_frac=0.0, hi_frac=0.5, starts_at=2.0, heals_at=2.0)

    def test_arc_scales_to_the_identifier_space(self):
        window = PartitionWindow(lo_frac=0.0, hi_frac=0.25, starts_at=0, heals_at=1)
        small = window.arc_for(64)
        big = window.arc_for(256)
        assert (small.lo, small.hi, small.space) == (0, 15, 64)
        assert (big.lo, big.hi, big.space) == (0, 63, 256)


class TestNodeFlap:
    def test_down_and_up_cadence(self):
        flap = NodeFlap(first_down=10.0, period=4.0, cycles=2)
        assert flap.down_times() == [10.0, 14.0]
        assert flap.up_times() == [12.0, 16.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFlap(first_down=1.0, period=0.0)
        with pytest.raises(ValueError):
            NodeFlap(first_down=1.0, period=2.0, cycles=0)


class TestLossRamp:
    def test_set_points_climb_to_peak(self):
        ramp = LossRamp(starts_at=4.0, ends_at=8.0, peak=0.4, steps=4)
        assert ramp.set_points() == [
            (4.0, 0.1),
            (5.0, 0.2),
            (6.0, pytest.approx(0.3)),
            (7.0, 0.4),
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            LossRamp(starts_at=4.0, ends_at=4.0, peak=0.5)
        with pytest.raises(ValueError):
            LossRamp(starts_at=0.0, ends_at=1.0, peak=1.0)


class TestChaosScenario:
    def test_fault_and_heal_times(self):
        scenario = ChaosScenario(
            partitions=(PartitionWindow(0.0, 0.25, starts_at=2.0, heals_at=6.0),),
            bursts=(CrashBurst(at=8.0, count=3),),
            flaps=(NodeFlap(first_down=10.0, period=4.0, cycles=1),),
            ramps=(LossRamp(starts_at=1.0, ends_at=5.0, peak=0.3),),
        )
        assert scenario.fault_times() == [1.0, 2.0, 8.0, 10.0]
        assert scenario.heal_times() == [5.0, 6.0, 12.0]
        assert scenario.horizon() == 12.0

    def test_empty_scenario_is_inert(self):
        scenario = ChaosScenario()
        assert scenario.fault_times() == []
        assert scenario.heal_times() == []
        assert scenario.horizon() == 0.0

    def _service(self, schema) -> MercuryService:
        return MercuryService.build(6, 24, schema, seed=11, replication=2)

    def test_install_schedules_every_declared_event(self, schema):
        service = self._service(schema)
        injector = FaultInjector(FaultPlan())
        sim = Simulator()
        scenario = ChaosScenario(
            partitions=(PartitionWindow(0.0, 0.25, starts_at=2.0, heals_at=6.0),),
            bursts=(CrashBurst(at=8.0, count=3),),
            flaps=(NodeFlap(first_down=10.0, period=4.0, cycles=2),),
            ramps=(LossRamp(starts_at=1.0, ends_at=5.0, peak=0.3, steps=4),),
        )
        # 2 partition switches + 3 crashes + 2*(down+up) + 4 set-points + reset.
        assert scenario.install(sim, injector, service) == 2 + 3 + 4 + 5
        assert sim.pending == 14

    def test_partition_arms_then_heals_at_declared_times(self, schema):
        service = self._service(schema)
        injector = FaultInjector(FaultPlan())
        sim = Simulator()
        scenario = ChaosScenario(
            partitions=(PartitionWindow(0.0, 0.25, starts_at=2.0, heals_at=6.0),)
        )
        scenario.install(sim, injector, service)
        sim.run_until(2.0)
        assert injector.active
        assert len(injector.partitions) == 1
        assert injector.partitions[0].space == 64
        sim.run_until(6.0)
        assert not injector.active
        assert injector.partitions == ()

    def test_loss_ramp_drives_and_resets_the_injector(self, schema):
        service = self._service(schema)
        injector = FaultInjector(FaultPlan(loss_rate=0.05))
        sim = Simulator()
        scenario = ChaosScenario(
            ramps=(LossRamp(starts_at=1.0, ends_at=5.0, peak=0.4, steps=4),)
        )
        scenario.install(sim, injector, service)
        sim.run_until(4.5)
        assert injector.loss_rate == 0.4
        sim.run_until(5.0)
        assert injector.loss_rate == 0.05  # plan rate restored

    def test_burst_and_flap_drive_seeded_churn(self, schema):
        service = self._service(schema)
        injector = FaultInjector(FaultPlan())
        sim = Simulator()
        population = service.overlay.num_nodes
        scenario = ChaosScenario(
            bursts=(CrashBurst(at=1.0, count=3),),
            flaps=(NodeFlap(first_down=2.0, period=2.0, cycles=1),),
        )
        scenario.install(sim, injector, service)
        sim.run_until(2.0)  # burst + flap-down fired
        assert service.overlay.num_nodes == population - 4
        sim.run_until(3.0)  # flap-up rejoined one node
        assert service.overlay.num_nodes == population - 3

    def test_demo_scenario_shape(self):
        assert DEMO_SCENARIO.fault_times() == [2.0, 8.0, 10.0]
        assert DEMO_SCENARIO.horizon() == 12.0


class TestSlowEvents:
    def test_slow_burst_validation_and_heal_time(self):
        burst = SlowBurst(at=2.0, duration=4.0, fraction=0.2)
        assert burst.heals_at == 6.0
        with pytest.raises(ValueError):
            SlowBurst(at=2.0, duration=0.0, fraction=0.2)
        with pytest.raises(ValueError):
            SlowBurst(at=2.0, duration=4.0, fraction=0.0)
        with pytest.raises(ValueError):
            SlowBurst(at=2.0, duration=4.0, fraction=0.2, multiplier=0.5)

    def test_gray_window_validation(self):
        with pytest.raises(ValueError):
            GrayFailureWindow(starts_at=5.0, heals_at=5.0, fraction=0.1)
        with pytest.raises(ValueError):
            GrayFailureWindow(
                starts_at=0.0, heals_at=1.0, fraction=0.1, intermittency=0.0
            )

    def test_network_ids_linearize_cycloid(self):
        overlay = CycloidOverlay(3)
        overlay.build_full()
        ids = network_ids_of(overlay)
        assert len(ids) == overlay.num_nodes
        assert ids == sorted(ids)
        assert all(0 <= i < 3 * 2**3 for i in ids)

    def test_slow_victims_are_a_deterministic_stride(self, full_ring):
        victims = slow_victims(full_ring, 0.1)
        assert victims == slow_victims(full_ring, 0.1)
        assert len(victims) == round(0.1 * full_ring.num_nodes)
        assert set(victims) <= set(network_ids_of(full_ring))
        assert len(set(victims)) == len(victims)

    def test_zero_fraction_marks_nobody(self, full_ring):
        assert slow_victims(full_ring, 0.0) == []

    def test_slow_timeline_marks_and_heals(self, schema):
        service = MercuryService.build(6, 24, schema, seed=11, replication=2)
        injector = FaultInjector(FaultPlan())
        sim = Simulator()
        scenario = ChaosScenario(
            slow_bursts=(SlowBurst(at=1.0, duration=2.0, fraction=0.25, multiplier=8.0),),
            gray_windows=(
                GrayFailureWindow(
                    starts_at=4.0, heals_at=6.0, fraction=0.125,
                    multiplier=20.0, intermittency=0.6,
                ),
            ),
        )
        assert scenario.fault_times() == [1.0, 4.0]
        assert scenario.heal_times() == [3.0, 6.0]
        assert scenario.install(sim, injector, service) == 4
        sim.run_until(1.0)
        assert injector.active
        marked = injector.slow_nodes
        assert len(marked) == round(0.25 * service.overlay.num_nodes)
        assert all(spec == (8.0, 1.0) for spec in marked.values())
        sim.run_until(3.0)
        assert not injector.slow_nodes  # burst healed
        sim.run_until(4.0)
        gray = injector.slow_nodes
        assert len(gray) == round(0.125 * service.overlay.num_nodes)
        assert all(spec == (20.0, 0.6) for spec in gray.values())
        sim.run_until(6.0)
        assert not injector.active

    def test_gray_failure_scenario_shape(self):
        assert GRAY_FAILURE_SCENARIO.fault_times() == [2.0, 8.0]
        assert GRAY_FAILURE_SCENARIO.horizon() == 20.0

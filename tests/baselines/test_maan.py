"""Tests for the MAAN comparator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.maan import MaanService
from repro.core.resource import AttributeConstraint, Query, ResourceInfo
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind


@pytest.fixture(scope="module")
def schema() -> AttributeSchema:
    return AttributeSchema.synthetic(6)


@pytest.fixture()
def service(schema) -> MaanService:
    return MaanService.build_full(6, schema, seed=2)


class TestSplitRegistration:
    def test_each_info_stored_twice(self, service):
        """Theorem 4.2: MAAN doubles the total resource information."""
        service.register(ResourceInfo("cpu-mhz", 1000.0, "p"))
        assert service.total_info_pieces() == 2

    def test_attribute_copy_at_attribute_root(self, service):
        info = ResourceInfo("cpu-mhz", 1000.0, "p")
        service.register(info)
        root = service.overlay.successor_of(service.attr_key("cpu-mhz"))
        assert info in root.items_in("maan:attr")

    def test_value_copy_at_value_root(self, service):
        info = ResourceInfo("cpu-mhz", 1000.0, "p")
        service.register(info)
        key = service.value_hash("cpu-mhz")(1000.0)
        root = service.overlay.successor_of(key)
        assert info in root.items_in("maan:value")

    def test_register_hops_cover_two_lookups(self, service):
        hops = service.register(ResourceInfo("cpu-mhz", 1000.0, "p"))
        # Two routed insertions from the same origin.
        assert hops >= 0
        assert len(service.metrics.samples("register.hops")) == 1


class TestPointQueries:
    def test_two_visited_nodes(self, service):
        """Theorems 4.7/4.8 rest on MAAN's two lookups per attribute."""
        service.register(ResourceInfo("cpu-mhz", 1500.0, "p"))
        result = service.query(Query(AttributeConstraint.point("cpu-mhz", 1500.0)))
        assert result.visited_nodes == 2
        assert result.providers == {"p"}

    def test_point_hops_are_sum_of_two_lookups(self, schema):
        """MAAN's hop count per point query statistically doubles a
        single-lookup approach's."""
        service = MaanService.build_full(7, schema, seed=9)
        rng = np.random.default_rng(0)
        wl = GridWorkload(schema, infos_per_attribute=20, seed=10)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        hops = [
            service.query(
                Query(wl.sample_constraint("cpu-mhz", QueryKind.POINT, rng))
            ).hops
            for _ in range(150)
        ]
        # Each Chord lookup on a full 7-bit ring averages ~4.5 hops.
        assert 7.0 < float(np.mean(hops)) < 11.5


class TestRangeQueries:
    def test_range_query_correct(self, service):
        spec = service.schema.spec("cpu-mhz")
        values = np.linspace(spec.lo, spec.hi, 25)
        for i, v in enumerate(values):
            service.register(ResourceInfo("cpu-mhz", float(v), f"p{i}"))
        result = service.query(
            Query(AttributeConstraint.between("cpu-mhz", float(values[3]), float(values[12])))
        )
        assert result.providers == {f"p{i}" for i in range(3, 13)}

    def test_range_visits_attr_root_plus_walk(self, service):
        spec = service.schema.spec("cpu-mhz")
        result = service.query(
            Query(AttributeConstraint.between("cpu-mhz", spec.lo, spec.hi))
        )
        # Full-domain walk touches every ring node plus the attribute root.
        assert result.visited_nodes == service.num_nodes() + 1

    def test_attribute_isolation_on_shared_value_ring(self, service):
        """Value registrations of all attributes share one ring; filtering
        by attribute must keep them apart."""
        service.register(ResourceInfo("cpu-mhz", 500.0, "cpu-p"))
        service.register(ResourceInfo("disk-gb", 500.0, "disk-p"))
        spec = service.schema.spec("cpu-mhz")
        result = service.query(
            Query(AttributeConstraint.between("cpu-mhz", spec.lo, spec.hi))
        )
        assert result.providers == {"cpu-p"}

    def test_equivalence_with_bruteforce(self, schema):
        service = MaanService.build_full(6, schema, seed=51)
        wl = GridWorkload(schema, infos_per_attribute=25, seed=52)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        rng = np.random.default_rng(53)
        for _ in range(20):
            mq = wl.sample_multi_query(3, QueryKind.RANGE, rng)
            assert service.multi_query(mq).providers == (
                wl.matching_providers_bruteforce(mq)
            )


class TestDirectoryDoubling:
    def test_total_pieces_double_of_workload(self, schema):
        service = MaanService.build_full(6, schema, seed=61)
        wl = GridWorkload(schema, infos_per_attribute=15, seed=62)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        assert service.total_info_pieces() == 2 * wl.total_info_pieces()

"""Tests for the SWORD comparator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.sword import SwordService
from repro.core.resource import AttributeConstraint, Query, ResourceInfo
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind


@pytest.fixture(scope="module")
def schema() -> AttributeSchema:
    return AttributeSchema.synthetic(6)


@pytest.fixture()
def service(schema) -> SwordService:
    return SwordService.build_full(6, schema, seed=2)


class TestPlacement:
    def test_all_infos_of_attribute_on_one_node(self, service):
        spec = service.schema.spec("cpu-mhz")
        for i, v in enumerate(np.linspace(spec.lo, spec.hi, 30)):
            service.register(ResourceInfo("cpu-mhz", float(v), f"p{i}"))
        holders = [n for n in service.overlay.nodes() if n.directory_size("sword")]
        # cpu-mhz pools entirely at one directory node.
        cpu_holders = [
            n for n in holders
            if any(i.attribute == "cpu-mhz" for i in n.items_in("sword"))
        ]
        assert len(cpu_holders) == 1
        assert cpu_holders[0].directory_size("sword") == 30

    def test_attribute_root_is_consistent_hash(self, service):
        info = ResourceInfo("os", 3.0, "p")
        service.register(info)
        root = service.overlay.successor_of(service.attr_key("os"))
        assert info in root.items_in("sword")


class TestQueries:
    def test_point_query_single_visit(self, service):
        service.register(ResourceInfo("cpu-mhz", 999.0, "p"))
        result = service.query(Query(AttributeConstraint.point("cpu-mhz", 999.0)))
        assert result.providers == {"p"}
        assert result.visited_nodes == 1

    def test_range_query_also_single_visit(self, service):
        """SWORD never forwards: the root answers range queries alone
        (Theorem 4.9's m visited nodes)."""
        spec = service.schema.spec("cpu-mhz")
        for i, v in enumerate(np.linspace(spec.lo, spec.hi, 20)):
            service.register(ResourceInfo("cpu-mhz", float(v), f"p{i}"))
        result = service.query(
            Query(AttributeConstraint.at_least("cpu-mhz", spec.lo))
        )
        assert result.visited_nodes == 1
        assert len(result.providers) == 20

    def test_attribute_hash_collision_filtered(self, service):
        """Two attributes can share a root node; answers must still be
        attribute-correct."""
        service.register(ResourceInfo("cpu-mhz", 500.0, "cpu-p"))
        service.register(ResourceInfo("num-cores", 500.0, "core-p"))
        result = service.query(Query(AttributeConstraint.point("cpu-mhz", 500.0)))
        assert result.providers == {"cpu-p"}

    def test_equivalence_with_bruteforce(self, schema):
        service = SwordService.build_full(6, schema, seed=31)
        wl = GridWorkload(schema, infos_per_attribute=25, seed=32)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        rng = np.random.default_rng(33)
        for _ in range(20):
            mq = wl.sample_multi_query(3, QueryKind.RANGE, rng)
            assert service.multi_query(mq).providers == (
                wl.matching_providers_bruteforce(mq)
            )


class TestImbalance:
    def test_directory_variance_exceeds_mercury_like_spread(self, schema):
        """SWORD's pooling produces far larger directory spread than value
        spreading would — the Figure 3(c) story at miniature scale."""
        service = SwordService.build_full(6, schema, seed=41)
        wl = GridWorkload(schema, infos_per_attribute=30, seed=42)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        sizes = service.directory_sizes()
        nonzero = [s for s in sizes if s]
        # At most as many loaded nodes as attributes.
        assert len(nonzero) <= len(schema)
        assert max(sizes) >= 30  # at least one full attribute pool

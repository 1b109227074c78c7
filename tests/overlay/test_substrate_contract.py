"""The substrate contract every service × overlay pairing honours.

Each registered system runs on each overlay tier it supports (LORM on
Cycloid and, flattened, on every ring tier; Mercury/SWORD/MAAN on every
ring tier).  Whatever the pairing, the service exposes its substrate as
``service.overlay``, stored keys are addressed by integer storage key ids,
node key ids tile the network's id space, and a crash followed by replica
repair leaves every key on exactly its replica set.
"""

from __future__ import annotations

import pytest

from repro.core.lorm import LormService
from repro.experiments.common import (
    OVERLAY_NAMES,
    SYSTEM_NAMES,
    _SYSTEM_CLASSES,
    build_workload,
    ring_factory_for,
)
from repro.experiments.config import SMOKE_CONFIG
from repro.overlay.base import Overlay
from repro.overlay.cycloid import CycloidOverlay
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing
from repro.sim.chaos import network_ids_of
from repro.sim.invariants import check_replica_placement, overlay_of

CONFIG = SMOKE_CONFIG.scaled(
    dimension=4, chord_bits=7, num_attributes=8, infos_per_attribute=12,
    max_query_attributes=3,
)

PAIRINGS = [
    (system, overlay)
    for system in SYSTEM_NAMES
    for overlay in OVERLAY_NAMES
    if overlay != "cycloid" or system == "LORM"
]

EXPECTED_TYPE = {
    "cycloid": CycloidOverlay,
    "singlehop": SingleHopRing,
    "record": ReCordOverlay,
}


def _build(system: str, overlay: str):
    workload = build_workload(CONFIG)
    factory = None if overlay == "cycloid" else ring_factory_for(overlay, seed=CONFIG.seed)
    cls = _SYSTEM_CLASSES[system]
    if overlay == "cycloid":
        service = LormService.build_full(
            CONFIG.dimension, workload.schema, seed=CONFIG.seed, replication=2
        )
    elif cls is LormService:
        service = LormService.build_flat(
            CONFIG.dimension, workload.schema, seed=CONFIG.seed, replication=2,
            ring_factory=factory,
        )
    else:
        service = cls.build(
            CONFIG.chord_bits, CONFIG.population, workload.schema,
            seed=CONFIG.seed, replication=2, ring_factory=factory,
        )
    service.register_all(workload.resource_infos(), routed=False)
    return service


@pytest.mark.parametrize("system, overlay", PAIRINGS, ids="-".join)
def test_service_honours_the_substrate_contract(system, overlay):
    service = _build(system, overlay)

    # service.overlay is the substrate the service routes and stores on.
    substrate = service.overlay
    assert isinstance(substrate, Overlay)
    assert isinstance(substrate, EXPECTED_TYPE.get(overlay, Overlay))
    assert overlay_of(service) is substrate
    entry = service.random_node()
    assert substrate.node(entry.uid) is entry

    # Stored keys are integer storage ids the contract resolves directly.
    stored = {
        key_id
        for node in substrate.nodes()
        for _namespace, key_id, _item in node.stored_entries()
    }
    assert stored
    for key_id in stored:
        assert isinstance(key_id, int)
        assert 0 <= key_id < substrate.key_space_size
        replicas = substrate.replica_set(key_id)
        assert replicas[0] is substrate.owner_of(key_id)
        assert len({n.uid for n in replicas}) == len(replicas) == 2

    # Node key ids tile the network id space the fault layer addresses.
    key_ids = sorted(substrate.key_id_of(node) for node in substrate.nodes())
    assert network_ids_of(substrate) == key_ids
    assert len(set(key_ids)) == substrate.num_nodes
    assert all(0 <= k < substrate.key_space_size for k in key_ids)
    for node in substrate.nodes():
        assert substrate.owner_of(substrate.key_id_of(node)) is node

    # A crash then a repair pass restores strict replica placement.
    before = service.num_nodes()
    assert service.churn_fail()
    assert service.num_nodes() == before - 1
    service.stabilize()
    substrate.repair_replication()
    check_replica_placement(substrate)

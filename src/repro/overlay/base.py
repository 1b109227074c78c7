"""The substrate contract shared by every overlay (Chord family, Cycloid).

The paper's comparison is fair only because all four systems run on one
harness, so everything that is not routing lives here once:

* **durability** — the policy, its replica sets and both repair passes;
* **storage** — ``store`` / ``routed_store`` / ``discard``, addressed by
  an integer *storage key id* in ``[0, key_space_size)``;
* **tracing** — the LOOKUP and WALK span wrappers around the routing
  loops, plus walk-truncation accounting;
* **introspection** — the global stabilization sweep, per-node outlink
  counts and directory sizes.

A concrete overlay supplies only its geometry and routing:
:attr:`key_space_size`, :meth:`owner_of` (storage key id → owning node),
:meth:`key_id_of` (node → its storage key id), :meth:`routing_key`
(storage key id → the key its ``lookup`` routes on), ``native_holders``,
``lookup`` with its ``_lookup_plain`` / ``_lookup_faulty`` loops, walks,
``_refresh_routing_state`` and membership churn (``join`` / ``leave`` /
``fail``).  Chord ring ids *are* storage key ids; Cycloid linearizes its
``(k, a)`` ids to ``a * d + k``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from typing import Any, ClassVar

from repro.overlay.node import LookupResult, OverlayNode, WalkResult
from repro.sim.durability import (
    DurabilityPolicy,
    SuccessorPlacement,
    decodable_level,
    successor_replication,
)
from repro.sim.faults import DEFAULT_POLICY, LookupPolicy
from repro.sim.maintenance import RepairProgress, repair_buckets
from repro.sim.network import SimulatedNetwork

__all__ = ["Overlay"]


class Overlay:
    """Storage, durability and tracing over one overlay's routing.

    Subclasses set their geometry first (the durability policy validates
    against it) and then call ``super().__init__``.
    """

    #: Span-name prefix of this overlay's LOOKUP / WALK spans.
    kind: ClassVar[str] = "overlay"

    #: Routing-table entry a range-walk step follows (hop-span label).
    walk_edge: ClassVar[str] = "successor"

    _nodes: dict[Any, OverlayNode]

    def __init__(
        self,
        network: SimulatedNetwork | None = None,
        replication: int = 1,
        durability: DurabilityPolicy | None = None,
    ) -> None:
        self.network = network if network is not None else SimulatedNetwork()
        #: The durability policy governing where a key's copies/fragments
        #: live and when a piece still decodes.  The default —
        #: successor replication at ``replication`` copies — is the owner
        #: plus ``replication - 1`` native successors, any surviving copy
        #: readable.  Default 1 matches the paper; >= 2 survives crashes.
        self.durability = (
            durability if durability is not None else successor_replication(replication)
        )
        #: Copies (fragments) kept per key under the policy.
        self.replication = self.durability.fragments
        self.durability.validate(self)
        #: Hot-path flag: the seed's successor placement short-circuits
        #: the policy dispatch in :meth:`replica_set` (store and repair
        #: call it per key, so the indirection is measurable).
        self._native_placement = type(self.durability.placement) is SuccessorPlacement
        #: Requester behaviour under injected faults (retries, timeouts,
        #: failover).  Never consulted while the network has no active
        #: fault injector.
        self.lookup_policy: LookupPolicy = DEFAULT_POLICY
        #: Optional hop-level span tracer (:class:`repro.obs.spans.
        #: QueryTracer`).  ``None`` (the default) keeps the routing hot
        #: paths untouched beyond one ``is None`` dispatch per lookup/walk.
        self.tracer: Any | None = None

    # ------------------------------------------------------------------
    # Supplied by each overlay
    # ------------------------------------------------------------------
    @property
    def key_space_size(self) -> int:
        """Number of storage key ids (``2**bits``, or ``d * 2**d``)."""
        raise NotImplementedError

    def owner_of(self, key_id: int) -> OverlayNode:
        """The live node owning storage key id ``key_id`` (oracle)."""
        raise NotImplementedError

    def key_id_of(self, node: OverlayNode) -> int:
        """``node``'s position in the storage key space — also the id its
        messages carry on the simulated network."""
        raise NotImplementedError

    def routing_key(self, key_id: int) -> Any:
        """The key :meth:`lookup` routes on to reach ``key_id``'s owner."""
        raise NotImplementedError

    def native_holders(self, key_id: int, count: int) -> list:
        """``count`` distinct live holders of ``key_id`` under successor
        placement, owner first."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    @property
    def faults_active(self) -> bool:
        """Whether the shared network currently injects faults."""
        return self.network.faults_active

    # ------------------------------------------------------------------
    # Key storage
    # ------------------------------------------------------------------
    def replica_set(self, key_id: int) -> list:
        """The nodes that should hold ``key_id`` under the durability
        policy (default: its owner plus the next ``replication - 1``
        native successors)."""
        if self._native_placement:
            return self.native_holders(key_id, self.replication)
        return self.durability.holders(self, key_id)

    def store(self, namespace: str, key_id: int, item: Any) -> OverlayNode:
        """Place ``item`` at the owner of ``key_id`` (oracle placement).

        With ``replication > 1`` the owner pushes copies to the rest of
        the replica set (counted as maintenance messages).
        """
        key_id %= self.key_space_size
        replicas = self.replica_set(key_id)
        for holder in replicas:
            holder.store(namespace, key_id, item)
        if len(replicas) > 1:
            self.network.count_maintenance(len(replicas) - 1)
        return replicas[0]

    def routed_store(
        self, start: OverlayNode, namespace: str, key_id: int, item: Any
    ) -> LookupResult:
        """Insert via a routed lookup from ``start`` (counts hops)."""
        key_id %= self.key_space_size
        result = self.lookup(start, self.routing_key(key_id))
        result.owner.store(namespace, key_id, item)
        for holder in self.replica_set(key_id)[1:]:
            if holder is not result.owner:
                holder.store(namespace, key_id, item)
                self.network.count_maintenance(1)
        return result

    def discard(self, namespace: str, key_id: int, item: Any) -> int:
        """Remove ``item``'s copies from the key's replica set.

        Returns the number of copies removed.  Used by lease expiry
        (``repro.core.refresh``): a provider's stale report is withdrawn
        from the owner and every replica.
        """
        key_id %= self.key_space_size
        removed = 0
        for holder in self.replica_set(key_id):
            if holder.remove_item(namespace, key_id, item):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Replica repair
    # ------------------------------------------------------------------
    def repair_replication(self) -> int:
        """Restore every key to exactly its replica set; returns copies moved.

        Models the periodic replica-maintenance pass: after
        joins/leaves/failures, each surviving piece is re-homed so every
        member of the policy's holder set carries it (and nobody else
        does).  Surviving per-holder counts reduce through
        :func:`~repro.sim.durability.decodable_level` — at the default
        decode threshold of 1 that is the seed's ``max`` merge (a node's
        own copy count is a piece's true multiplicity; replicas mirror
        it, so identical items stay distinct pieces without replica
        copies multiplying back in), while an erasure policy re-homes
        only pieces with at least ``k`` surviving fragments and *purges*
        undecodable fragments rather than resurrecting lost data.
        """
        threshold = self.durability.threshold
        surviving: dict[tuple[str, int], dict[Any, list[int]]] = {}
        for node in list(self.nodes()):
            held: dict[tuple[str, int], Counter] = {}
            for namespace, key_id, item in node.stored_entries():
                held.setdefault((namespace, key_id), Counter())[item] += 1
            node.clear_storage()
            for bucket_key, pieces in held.items():
                bucket = surviving.setdefault(bucket_key, {})
                for item, count in pieces.items():
                    bucket.setdefault(item, []).append(count)
        moved = 0
        for (namespace, key_id), pieces in surviving.items():
            replicas = self.replica_set(key_id)
            for item, counts in pieces.items():
                level = decodable_level(counts, threshold)
                if level == 0:
                    continue
                for holder in replicas:
                    for _ in range(level):
                        holder.store(namespace, key_id, item)
                    moved += level
        if moved:
            self.network.count_maintenance(moved)
        return moved

    def repair_replication_step(
        self,
        budget: int | None = None,
        after: tuple[str, int] | None = None,
    ) -> RepairProgress:
        """Anti-entropy replica repair of up to ``budget`` key buckets.

        Buckets are visited in sorted ``(namespace, key_id)`` order
        starting strictly after ``after`` (``None`` starts from the
        beginning); each repaired bucket ends up exactly on its replica
        set, like one key's worth of :meth:`repair_replication`.
        ``budget=None`` repairs every bucket in one call.  Returns a
        :class:`~repro.sim.maintenance.RepairProgress` whose
        ``next_after`` is the resume cursor (``None`` once the sweep
        wrapped).
        """
        return repair_buckets(self, budget, after)

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------
    def stabilize_all(self) -> None:
        """Periodic stabilization: every node re-derives its routing state."""
        for node in list(self.nodes()):
            self._refresh_routing_state(node)
            self.network.count_maintenance(1)

    def outlink_counts(self) -> list[int]:
        """Per-node count of distinct live neighbours (Figure 3a)."""
        return [len(node.outlinks()) for node in self.nodes()]

    def directory_sizes(self, namespace: str | None = None) -> list[int]:
        """Per-node directory sizes (Figure 3b–d)."""
        return [node.directory_size(namespace) for node in self.nodes()]

    # ------------------------------------------------------------------
    # Tracing and walk accounting
    # ------------------------------------------------------------------
    def _lookup_traced(
        self, start: OverlayNode, key: Any, policy: LookupPolicy | None
    ) -> LookupResult:
        """Route with span tracing: identical result, plus one LOOKUP span
        with per-hop child spans.

        Fault-free routes are traced *post hoc* from the result path (the
        hot loop stays branch-free); the fault path emits hops and
        drop/retry/failover/timeout annotations live as they happen.
        """
        tracer = self.tracer
        with tracer.span("lookup", f"{self.kind}.lookup", origin=start.uid, key=key) as span:
            if self.faults_active:
                result = self._lookup_faulty(
                    start, key, policy or self.lookup_policy, tracer=tracer
                )
            else:
                result = self._lookup_plain(start, key)
                prev = start
                for uid in result.path[1:]:
                    node = self._nodes[uid]
                    tracer.hop(prev.uid, uid, self.edge_kind(prev, node))
                    prev = node
            span.attrs.update(
                owner=result.owner.uid, hops=result.hops,
                complete=result.complete, retries=result.retries,
                timed_out=result.timed_out,
            )
        return result

    def _walk_traced(
        self,
        walk: Callable[..., WalkResult],
        start: OverlayNode,
        lo: int,
        hi: int,
        policy: LookupPolicy | None,
        **bounds: int,
    ) -> WalkResult:
        """Run ``walk(start, lo, hi, policy)`` inside a WALK span whose hop
        children are the walk's steps; ``bounds`` are the span's
        normalised range attributes."""
        tracer = self.tracer
        with tracer.span(
            "walk", f"{self.kind}.walk", origin=start.uid, **bounds
        ) as span:
            result = walk(start, lo, hi, policy)
            prev = result[0]
            for node in result[1:]:
                tracer.hop(prev.uid, node.uid, self.walk_edge)
                prev = node
            for _ in range(result.retries):
                tracer.event("retry")
            if result.truncated:
                tracer.event("truncated", reason=result.reason)
            if result.timed_out:
                tracer.event("timeout")
            span.attrs.update(
                visited=len(result), truncated=result.truncated,
                retries=result.retries,
            )
        return result

    def _truncate_walk(self, result: WalkResult, reason: str) -> None:
        """Flag ``result`` truncated (first reason wins) and count it."""
        if not result.truncated:
            result.truncated = True
            result.reason = reason
        self.network.count_walk_truncation()

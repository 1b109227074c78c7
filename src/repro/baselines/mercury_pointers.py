"""Mercury's record/pointer optimisation (Section IV, disabled there).

The paper notes: "In Mercury, for higher efficiency of resource query, a
node within one of the hubs can hold the data record while the other hubs
can hold a pointer to the node.  This strategy can also be applied to other
methods.  To make the different methods be comparable, we don't consider
this strategy in the comparative study."

This module implements the strategy so its trade-off can be measured (see
``benchmarks/test_ablation_pointers.py``): a provider's full record — its
values for *all* attributes — is stored once, in the **home hub** (the
record's first attribute); every other hub stores only a lightweight
pointer.  Queries landing on a pointer chase one extra overlay lookup to
the home record, exchanging lookup hops for an m-fold reduction in stored
record copies.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.baselines.mercury import MercuryService
from repro.core.resource import Query, QueryResult, ResourceInfo
from repro.utils.validation import require

__all__ = ["PointerMercuryService", "RecordEnvelope", "RecordPointer"]


@dataclass(frozen=True)
class RecordEnvelope:
    """A provider's full record, stored once in its home hub."""

    provider: str
    infos: tuple[ResourceInfo, ...]

    def value_of(self, attribute: str) -> float | None:
        for info in self.infos:
            if info.attribute == attribute:
                return info.value
        return None


@dataclass(frozen=True)
class RecordPointer:
    """A pointer stored in non-home hubs: where the full record lives."""

    provider: str
    #: The indexing value in *this* hub (so range filtering works locally).
    local_value: float
    home_attribute: str
    home_key: int


class PointerMercuryService(MercuryService):
    """Mercury with the record/pointer strategy enabled.

    Providers register whole records via :meth:`register_record`; the
    single-info :meth:`register` degenerates to a one-attribute record so
    the uniform interface keeps working.
    """

    name: ClassVar[str] = "Mercury+ptr"

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_record(
        self, infos: Sequence[ResourceInfo], *, routed: bool = True
    ) -> int:
        """Store the full record in the home hub, pointers elsewhere."""
        require(len(infos) >= 1, "a record needs at least one attribute")
        provider = infos[0].provider
        require(
            all(i.provider == provider for i in infos),
            "all infos of a record must share one provider",
        )
        home = infos[0]
        home_key = self.value_hash(home.attribute)(home.value)
        envelope = RecordEnvelope(provider=provider, infos=tuple(infos))

        hops = 0
        if routed:
            result = self.overlay.routed_store(
                self.random_node(), self._hub(home.attribute), home_key, envelope
            )
            hops += result.hops
        else:
            self.overlay.store(self._hub(home.attribute), home_key, envelope)

        for info in infos[1:]:
            key = self.value_hash(info.attribute)(info.value)
            pointer = RecordPointer(
                provider=provider,
                local_value=info.value,
                home_attribute=home.attribute,
                home_key=home_key,
            )
            if routed:
                result = self.overlay.routed_store(
                    self.random_node(), self._hub(info.attribute), key, pointer
                )
                hops += result.hops
            else:
                self.overlay.store(self._hub(info.attribute), key, pointer)
        if routed:
            self.metrics.record("register.hops", hops)
        return hops

    def _register_impl(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """Single-attribute registration = a one-attribute record."""
        return self.register_record([info], routed=routed)

    def deregister_record(self, infos: Sequence[ResourceInfo]) -> int:
        """Withdraw a record: the home envelope plus every pointer."""
        require(len(infos) >= 1, "a record needs at least one attribute")
        home = infos[0]
        home_key = self.value_hash(home.attribute)(home.value)
        envelope = RecordEnvelope(provider=home.provider, infos=tuple(infos))
        removed = self.overlay.discard(self._hub(home.attribute), home_key, envelope)
        for info in infos[1:]:
            key = self.value_hash(info.attribute)(info.value)
            pointer = RecordPointer(
                provider=info.provider,
                local_value=info.value,
                home_attribute=home.attribute,
                home_key=home_key,
            )
            removed += self.overlay.discard(self._hub(info.attribute), key, pointer)
        return removed

    def deregister(self, info: ResourceInfo) -> int:
        """Withdraw a one-attribute record."""
        return self.deregister_record([info])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query_impl(self, q: Query, start: Any | None = None) -> QueryResult:
        """Mercury query with pointer chasing.

        Hub items may be full records (match locally) or pointers (filter
        on the pointer's local value, then chase one lookup to the home
        record).  Chased lookups add to the hop count — the cost side of
        the optimisation.
        """
        start = self._resolve_start(start)
        constraint = q.constraint
        spec = self.schema.spec(q.attribute)
        vh = self.value_hash(q.attribute)
        namespace = self._hub(q.attribute)

        low, high = constraint.bounds_within(spec.lo, spec.hi)
        k1, k2 = vh.hash_range(low, high)
        lookup = self.overlay.lookup(start, k1)
        if not lookup.complete:
            return self._failed_result(lookup)
        walk = (
            [lookup.owner]
            if not q.is_range
            else self.overlay.walk_arc(lookup.owner, k1, k2)
        )

        matches: list[ResourceInfo] = []
        chase_hops = 0
        chase_retries = 0
        chase_incomplete = False
        for node in walk:
            items = (
                node.items_at(namespace, k1) if not q.is_range
                else node.items_in(namespace)
            )
            for item in items:
                if isinstance(item, RecordEnvelope):
                    value = item.value_of(q.attribute)
                    if value is not None and constraint.matches(value):
                        matches.append(ResourceInfo(q.attribute, value, item.provider))
                elif isinstance(item, RecordPointer):
                    if not constraint.matches(item.local_value):
                        continue
                    chased = self.overlay.lookup(start, item.home_key)
                    chase_hops += chased.hops
                    chase_retries += chased.retries
                    if not chased.complete:
                        # The pointed-at record is unreachable: this match
                        # is silently missing unless flagged.
                        chase_incomplete = True
                        continue
                    for envelope in chased.owner.items_at(
                        self._hub(item.home_attribute), item.home_key
                    ):
                        if (
                            isinstance(envelope, RecordEnvelope)
                            and envelope.provider == item.provider
                        ):
                            matches.append(
                                ResourceInfo(q.attribute, item.local_value, item.provider)
                            )
                            break

        hops = lookup.hops + (len(walk) - 1) + chase_hops
        walk_truncated = getattr(walk, "truncated", False)
        walk_retries = getattr(walk, "retries", 0)
        self.overlay.network.count_hop(len(walk) - 1)
        self.overlay.network.count_directory_check(len(walk))
        self._record(hops, len(walk))
        return QueryResult(
            matches=tuple(matches), hops=hops, visited_nodes=len(walk),
            complete=not (walk_truncated or chase_incomplete),
            retries=lookup.retries + walk_retries + chase_retries,
            timed_out=getattr(walk, "timed_out", False),
        )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def stored_record_copies(self) -> int:
        """Full record envelopes stored system-wide (1 per provider here,
        versus m value-indexed copies in plain Mercury)."""
        return sum(
            1
            for node in self.overlay.nodes()
            for _, _, item in node.stored_entries()
            if isinstance(item, RecordEnvelope)
        )

    def stored_pointers(self) -> int:
        """Lightweight pointers stored system-wide."""
        return sum(
            1
            for node in self.overlay.nodes()
            for _, _, item in node.stored_entries()
            if isinstance(item, RecordPointer)
        )

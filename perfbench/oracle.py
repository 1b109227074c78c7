"""The benchmark's answer oracle and result digest.

The oracle keeps its own table of the current value of every (attribute,
provider) pair, applies each update in operation order, and answers a
request with :meth:`~repro.core.resource.AttributeConstraint.matches` by
exhaustive scan.  Verification runs after the measured phase, replaying
the executed operations against the table, so it never sits inside a
timed region.
"""

from __future__ import annotations

import hashlib

from repro.core.resource import AttributeConstraint, MultiAttributeQuery
from repro.workloads.generator import GridWorkload

from perfbench.inputs import Read, Update

__all__ = ["AnswerOracle", "Verdict", "result_digests", "verify"]


class AnswerOracle:
    """Current provider values and the exhaustive answer to a request."""

    def __init__(self, workload: GridWorkload) -> None:
        k = workload.num_providers
        self.names = [workload.provider_name(p) for p in range(k)]
        self.values = {
            spec.name: [workload.provider_value(spec.name, p) for p in range(k)]
            for spec in workload.schema
        }

        #: Per attribute, answers already computed since its last update.
        self._answers: dict[str, dict[AttributeConstraint, frozenset[str]]] = {
            name: {} for name in self.values
        }

    def apply(self, update: Update) -> None:
        self.values[update.attribute][update.provider] = update.value
        self._answers[update.attribute].clear()

    def matching(self, constraint: AttributeConstraint) -> frozenset[str]:
        """Providers whose current value satisfies ``constraint``."""
        answers = self._answers[constraint.attribute]
        found = answers.get(constraint)
        if found is None:
            values = self.values[constraint.attribute]
            found = answers[constraint] = frozenset(
                name for name, value in zip(self.names, values) if constraint.matches(value)
            )
        return found

    def providers(self, query: MultiAttributeQuery) -> frozenset[str]:
        """The joined answer: providers matching every constraint."""
        return frozenset.intersection(*(self.matching(c) for c in query.constraints))


class Verdict:
    """Outcome of checking one phase's results against the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: One line per failure: phase position, system, what went wrong.
        self.failures: list[str] = []

    def fail(self, where: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(where)


def verify(oracle: AnswerOracle, ops: list, records: list, systems: tuple[str, ...],
           verdict: Verdict) -> None:
    """Check ``records`` (one tuple per system for each of ``ops``).

    A read fails when it came back ``complete=False``, when the provider
    set one of its sub-queries matched differs from the oracle's answer
    to that constraint alone, or when its joined provider set differs
    from the oracle's; an update fails when ``deregister`` found no
    stored copy of the old value.  Updates advance the oracle after
    every system has seen them, so the next read is judged against the
    new value.
    """
    for index, (op, per_system) in enumerate(zip(ops, records)):
        if isinstance(op, Read):
            constraints = op.query.constraints
            per_constraint = [oracle.matching(c) for c in constraints]
            expected = frozenset.intersection(*per_constraint)
            for name, (providers, subs, _hops, _visited, complete) in zip(systems, per_system):
                verdict.attempted += 1
                wrong = [c.attribute for c, matches, want
                         in zip(constraints, subs, per_constraint)
                         if frozenset(info.provider for info in matches) != want]
                if not complete:
                    verdict.fail(f"op {index} {name}: incomplete result")
                elif len(subs) != len(constraints) or wrong:
                    verdict.fail(f"op {index} {name}: wrong sub-query matches on {wrong}")
                elif providers != expected:
                    verdict.fail(
                        f"op {index} {name}: {len(providers)} providers, "
                        f"oracle has {len(expected)}"
                    )
        elif isinstance(op, Update):
            for name, (removed, _hops) in zip(systems, per_system):
                verdict.attempted += 1
                if removed == 0:
                    verdict.fail(f"op {index} {name}: update found no stored old value")
            oracle.apply(op)


def result_digests(ops: list, records: list, systems: tuple[str, ...]) -> dict[str, str]:
    """Per-system SHA-256 over every result: joined and per-sub-query
    provider sets, hop and visited counts of reads, copies removed and
    hops of updates, churn outcomes and maintenance reports."""
    hashes = {name: hashlib.sha256() for name in systems}
    for op, per_system in zip(ops, records):
        for name, record in zip(systems, per_system):
            if isinstance(op, Read):
                providers, subs, hops, visited, complete = record
                matched = ";".join(",".join(sorted({info.provider for info in matches}))
                                   for matches in subs)
                text = (f"R{','.join(sorted(providers))}|{matched}|{hops}|{visited}"
                        f"|{complete}")
            else:
                text = repr(record)
            hashes[name].update(text.encode())
            hashes[name].update(b"\n")
    return {name: h.hexdigest()[:16] for name, h in hashes.items()}

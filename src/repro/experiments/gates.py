"""The pass/fail contract shared by every CI-gated experiment.

A gated result (chaos, durability, hotspot, tail, tradeoff, scale) states
its checks once, as the list of :class:`Gate` records its ``gates()``
returns.  Everything that reports a verdict derives from that list: the
result's ``ok``, the per-gate lines and the final ``verdict:`` line of its
``render()``, and the CLI's stderr summary and exit code — so the printed
verdict cannot disagree with the exit code.

:class:`CellSweep` is the shared shape of the four sweeps whose results
are a list of frozen-dataclass cells: one cell lookup, one report layout
and one CSV + text ``save``.
"""

from __future__ import annotations

import csv
import dataclasses
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from repro.experiments.config import ExperimentConfig
from repro.utils.validation import require

__all__ = ["Gate", "Gated", "CellSweep", "render_gates", "verdict"]

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Gate:
    """One checked claim: ``value <better> threshold`` over ``samples``.

    ``better`` is the comparison the measured value must satisfy against
    the threshold: ``"<"``, ``"<="``, ``">"`` or ``">="``.  ``samples``
    counts the observations behind ``value``; a gate with no samples never
    passes, so no verdict rests on nothing measured.
    """

    name: str
    value: float
    threshold: float
    better: str
    samples: int

    def __post_init__(self) -> None:
        require(self.better in _COMPARE, f"unknown gate comparison {self.better!r}")

    @property
    def ok(self) -> bool:
        return self.samples > 0 and _COMPARE[self.better](self.value, self.threshold)

    def line(self) -> str:
        """``name: value (gate <better> threshold, n=samples): ok|MISS``."""
        return (
            f"{self.name}: {self.value:.4g} (gate {self.better} "
            f"{self.threshold:.4g}, n={self.samples}): "
            f"{'ok' if self.ok else 'MISS'}"
        )


def verdict(gates: Sequence[Gate]) -> str:
    """``"ok"`` when every gate passes, else ``"GATE MISS"``."""
    return "ok" if all(g.ok for g in gates) else "GATE MISS"


def render_gates(gates: Sequence[Gate]) -> str:
    """One line per gate, then the ``verdict:`` line."""
    if not gates:
        return "verdict: ok (no gates)"
    return "\n".join([g.line() for g in gates] + [f"verdict: {verdict(gates)}"])


class Gated:
    """Mixin: ``ok`` is derived from :meth:`gates`, never computed apart."""

    def gates(self) -> list[Gate]:
        raise NotImplementedError

    @property
    def ok(self) -> bool:
        return verdict(self.gates()) == "ok"


@dataclass
class CellSweep(Gated):
    """A gated sweep over frozen-dataclass cells.

    Subclasses set ``stem`` (artifact file name), ``cell_type`` (the cell
    dataclass, whose fields are the CSV columns in order) and, for
    :meth:`cell`, ``cell_key`` (the fields naming one cell); they
    implement ``table()`` and ``gates()``.
    """

    config: ExperimentConfig
    cells: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    stem: ClassVar[str]
    cell_type: ClassVar[type]
    cell_key: ClassVar[tuple[str, ...]] = ()

    def table(self) -> str:
        raise NotImplementedError

    def cell(self, *key):
        """The cell whose ``cell_key`` fields equal ``key``."""
        for c in self.cells:
            if tuple(getattr(c, name) for name in self.cell_key) == key:
                return c
        raise KeyError(f"no cell {key}")

    def render(self) -> str:
        """Table, gate lines and verdict, then notes."""
        out = self.table() + "\n\n" + render_gates(self.gates())
        if self.notes:
            out += "\n\n" + "\n".join(f"note: {n}" for n in self.notes)
        return out

    def save(self, directory) -> Path:
        """Write ``<stem>.csv`` (one row per cell) and ``<stem>.txt``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        csv_path = directory / f"{self.stem}.csv"
        names = [f.name for f in dataclasses.fields(self.cell_type)]
        with csv_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for c in self.cells:
                writer.writerow([getattr(c, name) for name in names])
        (directory / f"{self.stem}.txt").write_text(self.render() + "\n")
        return csv_path

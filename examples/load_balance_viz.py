#!/usr/bin/env python3
"""Visualising directory load: why SWORD hotspots and LORM doesn't.

Loads the identical Bounded-Pareto workload into all four approaches and
renders each overlay's directory load as ASCII topology maps — the
intuition behind the paper's Figure 3(b)/(c)/(d) in one screen:

* SWORD piles every attribute's ~k pieces on single ring nodes (spikes);
* MAAN adds a second value-spread copy on top of the same spikes;
* Mercury spreads by value: a flat ring;
* LORM stripes one attribute per Cycloid cluster, balanced inside it.

Run:  python examples/load_balance_viz.py
"""

from __future__ import annotations

from repro.experiments.common import build_services
from repro.experiments.config import PAPER_CONFIG
from repro.plotting.topology import render_cluster_grid, render_ring_load
from repro.sim.metrics import summarize


def main() -> None:
    config = PAPER_CONFIG.scaled(
        dimension=5, chord_bits=8, num_attributes=24, infos_per_attribute=64,
    )
    print(f"loading m={config.num_attributes} attributes x "
          f"k={config.infos_per_attribute} providers into all approaches ...\n")
    bundle = build_services(config)

    for service in (bundle.sword, bundle.maan, bundle.mercury):
        stats = summarize(service.directory_sizes())
        print(f"== {service.name}:  mean {stats.mean:.1f}  p99 {stats.p99:.0f} "
              f" max {stats.maximum:.0f}")
        print(render_ring_load(service.overlay, width=64))
        print()

    stats = summarize(bundle.lorm.directory_sizes())
    print(f"== LORM:  mean {stats.mean:.1f}  p99 {stats.p99:.0f} "
          f" max {stats.maximum:.0f}")
    print(render_cluster_grid(bundle.lorm.overlay))


if __name__ == "__main__":
    main()

"""Tests for the ASCII topology/load renderers."""

from __future__ import annotations

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.plotting.topology import render_cluster_grid, render_ring_load


@pytest.fixture()
def loaded_ring() -> ChordRing:
    ring = ChordRing(6)
    ring.build_full()
    for _ in range(20):
        ring.store("hot", 10, "x")  # hotspot at node 10
    ring.store("hot", 40, "y")
    return ring


@pytest.fixture()
def loaded_overlay() -> CycloidOverlay:
    overlay = CycloidOverlay(3)
    overlay.build_full()
    for k in range(3):
        overlay.store("lorm", overlay.linearize(CycloidId(k, 5)), "v")
    return overlay


class TestRingLoad:
    def test_mentions_population_and_max(self, loaded_ring):
        out = render_ring_load(loaded_ring, "hot", ascii_only=True)
        assert "64 nodes" in out
        assert "heaviest node: 10 (20 pieces)" in out

    def test_hotspot_glyph_strongest(self, loaded_ring):
        out = render_ring_load(loaded_ring, "hot", width=64, ascii_only=True)
        row = out.splitlines()[2]
        assert row[10] == "8"  # hotspot bin at full scale
        assert row.count("8") == 1

    def test_empty_ring_all_dots(self):
        ring = ChordRing(5)
        ring.build_full()
        row = render_ring_load(ring, ascii_only=True).splitlines()[2]
        assert set(row) == {"."}

    def test_namespace_filtering(self, loaded_ring):
        out = render_ring_load(loaded_ring, "other", ascii_only=True)
        assert "heaviest node" in out
        assert set(out.splitlines()[2]) == {"."}

    def test_width_validation(self, loaded_ring):
        with pytest.raises(ValueError):
            render_ring_load(loaded_ring, width=4)

    def test_unicode_glyphs_default(self, loaded_ring):
        out = render_ring_load(loaded_ring, "hot")
        assert "█" in out


class TestClusterGrid:
    def test_grid_dimensions(self, loaded_overlay):
        out = render_cluster_grid(loaded_overlay, ascii_only=True)
        k_rows = [l for l in out.splitlines() if l.strip().startswith("k=")]
        assert len(k_rows) == 3  # one band of 8 clusters, d=3 rows

    def test_loaded_cluster_visible(self, loaded_overlay):
        out = render_cluster_grid(loaded_overlay, "lorm", ascii_only=True)
        k_rows = [l for l in out.splitlines() if l.strip().startswith("k=")]
        # Column 5 carries the load in every row.
        for row in k_rows:
            cells = row.split("|")[1]
            assert cells[5] != "."

    def test_vacant_positions_blank(self):
        overlay = CycloidOverlay(3)
        overlay.build([CycloidId(0, 0)])
        out = render_cluster_grid(overlay, ascii_only=True)
        row_k2 = next(l for l in out.splitlines() if l.strip().startswith("k=2"))
        assert row_k2.split("|")[1].strip() == ""

    def test_banding_for_many_clusters(self):
        overlay = CycloidOverlay(5)
        overlay.build_full()
        out = render_cluster_grid(overlay, clusters_per_row=8)
        assert out.count("clusters ") == 4  # 32 clusters / 8 per band

    def test_validation(self, loaded_overlay):
        with pytest.raises(ValueError):
            render_cluster_grid(loaded_overlay, clusters_per_row=2)

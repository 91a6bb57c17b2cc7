"""Unit tests for the benchmark harness (runner + reporting)."""

from __future__ import annotations

import pytest

from repro.bench import (
    check_claims,
    run_sweep,
    series_table,
    to_csv,
)
from repro.routing import LocalGridRouter, NaiveGridRouter
from repro.token_swap import TokenSwapRouter


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(
        grid_sizes=[3, 4],
        workloads=["random", "block_local"],
        routers={
            "local": LocalGridRouter(),
            "naive": NaiveGridRouter(),
            "ats": TokenSwapRouter(),
        },
        seeds=(0, 1),
        verify=True,
    )


@pytest.fixture(scope="module")
def fig4_sweep():
    """The paper's Fig. 4 setting at 8x8 to 16x16 grids."""
    return run_sweep(
        grid_sizes=[8, 12, 16],
        workloads=["random", "block_local"],
        routers={"local": LocalGridRouter(), "ats": TokenSwapRouter()},
        seeds=(0, 1, 2),
    )


class TestRunner:
    def test_record_count(self, small_sweep):
        # 2 sizes x 2 workloads x 3 routers x 2 seeds
        assert len(small_sweep.records) == 24

    def test_grid_sizes(self, small_sweep):
        assert small_sweep.grid_sizes() == [3, 4]

    def test_filtering(self, small_sweep):
        recs = small_sweep.filter(workload="random", router="local", rows=3)
        assert len(recs) == 2
        assert all(r.workload == "random" for r in recs)

    def test_mean_depth_positive(self, small_sweep):
        assert small_sweep.mean_depth("random", "local", 4) > 0

    def test_mean_of_missing_is_nan(self, small_sweep):
        import math

        assert math.isnan(small_sweep.mean_depth("nope", "local", 4))

    def test_records_have_lower_bounds(self, small_sweep):
        for r in small_sweep.records:
            assert r.depth >= r.lower_bound >= 0

    def test_grid_label(self, small_sweep):
        assert small_sweep.records[0].grid_label in ("3x3", "4x4")


class TestReporting:
    def test_series_table_structure(self, small_sweep):
        table = series_table(small_sweep, "depth", title="Fig 4")
        assert "Fig 4" in table
        assert "3x3" in table and "4x4" in table
        assert "random/local" in table

    def test_series_table_seconds_formatting(self, small_sweep):
        table = series_table(small_sweep, "seconds")
        assert "ms" in table

    def test_series_table_filters(self, small_sweep):
        table = series_table(small_sweep, "depth", workloads=["random"])
        assert "block_local" not in table

    def test_csv(self, small_sweep):
        csv = to_csv(small_sweep)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("rows,cols,workload")
        assert len(lines) == 25

    def test_claims_structure(self, small_sweep):
        checks = check_claims(small_sweep, min_size_for_time=3)
        assert len(checks) >= 2
        for c in checks:
            assert str(c).startswith("[")
            assert c.claim

    def test_depth_claim_passes_on_small_sweep(self, small_sweep):
        checks = check_claims(small_sweep, min_size_for_time=3)
        depth_claim = [c for c in checks if "beats ATS depth" in c.claim]
        assert depth_claim and depth_claim[0].passed


class TestPaperFig4:
    def test_depth_claims_hold(self, fig4_sweep):
        # Depths are deterministic, so both Fig. 4 claims are pinned
        # here; Fig. 5 compares timings and is left to the benchmarks
        # (no size reaches min_size_for_time, so it is not evaluated).
        checks = check_claims(fig4_sweep, min_size_for_time=17)
        assert [c.claim.split(":")[0] for c in checks] == ["Fig4", "Fig4"]
        assert all(c.passed for c in checks), [str(c) for c in checks]

"""Tests for schedule serialization and ASCII rendering."""

from __future__ import annotations

import json

import pytest

from repro.errors import ScheduleError
from repro.graphs import GridGraph
from repro.perm import random_permutation
from repro.routing import LocalGridRouter, Schedule
from repro.routing.serialize import (
    render_grid_layer,
    render_grid_schedule,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)


class TestJsonRoundTrip:
    def test_simple(self):
        s = Schedule(4, [[(0, 1)], [(2, 3), (0, 1)]])
        assert schedule_from_json(schedule_to_json(s)) == s

    def test_empty(self):
        s = Schedule.empty(3)
        assert schedule_from_json(schedule_to_json(s)) == s

    def test_router_output(self):
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=1)
        s = LocalGridRouter().route(grid, perm)
        rt = schedule_from_json(schedule_to_json(s, indent=2))
        assert rt == s
        rt.verify(grid, perm)

    def test_rejects_garbage(self):
        with pytest.raises(ScheduleError):
            schedule_from_json("not json at all {")
        with pytest.raises(ScheduleError):
            schedule_from_json('{"format": "something-else"}')
        with pytest.raises(ScheduleError):
            schedule_from_json(
                '{"format": "repro.schedule", "version": 99, '
                '"n_vertices": 2, "layers": []}'
            )

    def test_rejects_corrupt_layers(self):
        # overlapping swaps must be rejected by the Schedule constructor
        doc = (
            '{"format": "repro.schedule", "version": 1, "n_vertices": 3, '
            '"layers": [[[0, 1], [1, 2]]]}'
        )
        with pytest.raises(ScheduleError):
            schedule_from_json(doc)

    def test_rejects_missing_fields(self):
        with pytest.raises(ScheduleError):
            schedule_from_json('{"format": "repro.schedule", "version": 1}')

    @pytest.mark.parametrize(
        "n, layers",
        [
            ('"3"', "[[[0, 1]]]"),
            ("2.5", "[[[0, 1]]]"),
            ("true", "[]"),
            ("3", "[[[0, 1.7]]]"),
            ("3", "[[[0.0, 1.0]]]"),
            ("3", '[[["0", "1"]]]'),
            ("3", "[[[0, 1, 2]]]"),
            ("3", "[[5]]"),
            ("3", "7"),
        ],
    )
    def test_rejects_non_integral_sizes_and_ids(self, n, layers):
        doc = (
            '{"format": "repro.schedule", "version": 1, '
            f'"n_vertices": {n}, "layers": {layers}}}'
        )
        with pytest.raises(ScheduleError):
            schedule_from_json(doc)

    def test_dict_is_the_parsed_json(self):
        s = Schedule(5, [[], [(3, 1), (0, 2)], []], metadata={"router": "x"})
        doc = schedule_to_dict(s)
        assert doc == json.loads(schedule_to_json(s))
        assert list(doc) == ["format", "version", "n_vertices", "layers", "metadata"]
        assert "metadata" not in schedule_to_dict(Schedule.empty(2))


class TestAsciiRendering:
    def test_layer_markers(self):
        grid = GridGraph(2, 3)
        # horizontal swap (0,0)-(0,1); vertical swap (0,2)-(1,2)
        art = render_grid_layer(grid, [(0, 1), (2, 5)])
        lines = art.splitlines()
        assert lines[0].startswith("o===o")
        assert "#" in lines[1]
        assert lines[1].index("#") == lines[0].index("o", 5)

    def test_idle_grid(self):
        grid = GridGraph(2, 2)
        art = render_grid_layer(grid, [])
        assert "===" not in art and "#" not in art
        assert art.count("o") == 4

    def test_full_schedule_rendering(self):
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=3)
        sched = LocalGridRouter().route(grid, perm)
        art = render_grid_schedule(grid, sched)
        assert art.count("layer") == sched.depth

    def test_empty_schedule_text(self):
        grid = GridGraph(2, 2)
        assert "empty" in render_grid_schedule(grid, Schedule.empty(4))

    def test_size_mismatch(self):
        grid = GridGraph(2, 2)
        with pytest.raises(ScheduleError):
            render_grid_schedule(grid, Schedule.empty(9))

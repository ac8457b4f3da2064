"""Tests for the span-tree -> per-name wall-clock attribution table."""

from __future__ import annotations

from repro.obs.attribution import attribute_spans, iter_spans, profile_total

SPANS = [
    {
        "name": "core.simulate_frame",
        "duration": 10.0,
        "children": [
            {"name": "core.expand", "duration": 6.0, "children": []},
            {
                "name": "gpu.replay",
                "duration": 3.0,
                "children": [
                    {"name": "core.expand", "duration": 1.0},
                ],
            },
        ],
    },
    {"name": "energy.frame_energy", "duration": 0.5},
]


class TestAttribution:
    def test_walk_is_depth_first_parents_before_children(self):
        assert [span["name"] for span in iter_spans(SPANS)] == [
            "core.simulate_frame",
            "core.expand",
            "gpu.replay",
            "core.expand",
            "energy.frame_energy",
        ]

    def test_inclusive_and_self_costs_accumulate_by_name(self):
        costs = attribute_spans(SPANS)
        frame = costs["core.simulate_frame"]
        assert (frame.total, frame.self_seconds, frame.count) == (10.0, 1.0, 1)
        expand = costs["core.expand"]
        assert (expand.total, expand.self_seconds, expand.count) == (7.0, 7.0, 2)
        replay = costs["gpu.replay"]
        assert (replay.total, replay.self_seconds) == (3.0, 2.0)

    def test_self_time_is_clamped_at_zero(self):
        skewed = [{"name": "parent", "duration": 1.0,
                   "children": [{"name": "child", "duration": 1.5}]}]
        assert attribute_spans(skewed)["parent"].self_seconds == 0.0

    def test_profile_total_sums_roots_only(self):
        assert profile_total(SPANS) == 10.5

"""Tests for the frame frontend's ownership of the shared expansion."""

import pickle

from repro.core import Design, simulate_frame
from repro.core.expansion import expand_trace


PICKLED_RUN_BOUNDS = {
    Design.BASELINE: 22 * 1024,
    Design.B_PIM: 44 * 1024,
    Design.S_TFIM: 56 * 1024,
    Design.A_TFIM: 56 * 1024,
}
"""Pickled-size bounds for the fast workload's drained runs, ~1.2x what
the caches, memory models and counters a run keeps pickle to (18, 36,
47 and 46 KB).  The frame's expansion is megabytes, and any per-request
column a replay derives from it (an outcome, angle or occupancy list) is
tens of kilobytes or more, so a path that keeps one fails its bound."""


class TestDrainedRuns:
    def test_gpu_filtering_run_does_not_pickle_its_expansion(self, design_runs):
        """No path of any design may keep the frame's expansion, or
        anything a replay derives from it, once ``simulate_frame``
        returns."""
        sizes = {
            design: len(pickle.dumps(run)) for design, run in design_runs.items()
        }
        assert all(
            sizes[design] <= bound
            for design, bound in PICKLED_RUN_BOUNDS.items()
        ), sizes

    def test_shared_expansion_gives_identical_runs(
        self, fast_workload, fast_workload_trace, design_runs
    ):
        scene, trace = fast_workload_trace
        expansion = expand_trace(scene, trace.requests, aniso_enabled=True)
        for design in (Design.BASELINE, Design.A_TFIM):
            shared = simulate_frame(
                scene, trace, fast_workload.design_config(design),
                expansion=expansion,
            )
            alone = design_runs[design]
            assert shared.frame_cycles == alone.frame_cycles
            assert shared.frame.texels_requested == alone.frame.texels_requested
            assert (shared.frame.traffic.external_total
                    == alone.frame.traffic.external_total)

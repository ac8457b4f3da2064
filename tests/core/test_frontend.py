"""Tests for the frame frontend's ownership of the shared expansion."""

import pickle

from repro.core import Design, simulate_frame
from repro.core.expansion import expand_trace


class TestDrainedRuns:
    def test_gpu_filtering_run_does_not_pickle_its_expansion(self, design_runs):
        """A drained BASELINE run pickles about as small as an S-TFIM
        one: no path may keep the frame's expansion (or anything derived
        from it) once ``simulate_frame`` returns."""
        baseline = len(pickle.dumps(design_runs[Design.BASELINE]))
        stfim = len(pickle.dumps(design_runs[Design.S_TFIM]))
        assert baseline <= 2 * stfim

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

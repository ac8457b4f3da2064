"""Simulator correctness toolkit: custom lint rules + runtime invariants.

Two halves, one goal — keeping the reproduction's conservation laws
checkable by machines instead of reviewers:

* :mod:`repro.analysis.linter` / :mod:`repro.analysis.rules` — an
  AST-based lint pass with repo-specific rules (stat-counter discipline,
  simulation determinism, exception hygiene, float-equality on cycle and
  energy quantities, annotation coverage, unit dataflow, worker safety).
  Run it with ``python -m repro.analysis lint`` (or the ``repro-lint``
  script); it exits nonzero on violations so CI can gate on it.

* :mod:`repro.analysis.invariants` — runtime conservation assertions the
  simulator validates at frame drain time (texel request/response
  balance, link byte symmetry, clock monotonicity, energy conservation).
  Enable with ``--check-invariants`` on the CLI, the
  ``REPRO_CHECK_INVARIANTS`` environment variable, or per call via
  ``simulate_frame(..., check_invariants=True)``; the test suite turns
  them on by default.

The package re-exports nothing: import from the submodule you need, so
that a simulator process importing :mod:`repro.analysis.invariants`
never loads the lint engine.
"""

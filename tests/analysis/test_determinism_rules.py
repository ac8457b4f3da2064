"""Positive/negative/noqa fixtures for the REP300-series determinism rules.

Each rule gets at least one planted violation that must fire, one
correct variant that must stay silent, and a ``# repro: noqa(...)``
suppression check.  The cross-file fixtures exercise the call-graph
model: worker reachability planted through ``FanoutTask`` references
and nondeterminism taint propagated through a helper defined in a
*different* module.
"""

from __future__ import annotations

import textwrap

from repro.analysis.determinism import (
    DETERMINISM_RULE_TABLE,
    determinism_rule_ids,
    static_determinism_attestation,
)
from repro.analysis.linter import lint_source, lint_sources
from repro.analysis.rules import rule_catalog, rule_ids
from repro.analysis.sarif import findings_to_sarif

SIM_PATH = "src/repro/sim/example.py"


def findings_for(source: str, path: str = SIM_PATH):
    return lint_source(textwrap.dedent(source), path)


def ids_for(source: str, path: str = SIM_PATH):
    return [finding.rule_id for finding in findings_for(source, path)]


class TestRegistry:
    def test_determinism_rule_ids_are_registered(self):
        ids = set(rule_ids())
        for rule_id in determinism_rule_ids():
            assert rule_id in ids

    def test_five_determinism_rules(self):
        assert determinism_rule_ids() == [
            "REP300", "REP301", "REP302", "REP303", "REP304",
        ]

    def test_catalog_has_descriptions(self):
        catalog = {rule_id: desc for rule_id, _name, desc in rule_catalog()}
        for rule_id, _name, description in DETERMINISM_RULE_TABLE:
            assert catalog[rule_id] == description


class TestRep300NondeterminismTaint:
    def test_wall_clock_into_cache_key_flagged(self):
        assert "REP300" in ids_for(
            """
            import time
            from repro.obs.manifest import config_digest

            def keyed(config):
                stamp = time.time()
                return config_digest({"seed": 7, "stamp": stamp})
            """
        )

    def test_pure_config_key_allowed(self):
        assert "REP300" not in ids_for(
            """
            from repro.obs.manifest import config_digest

            def keyed(config):
                return config_digest({"seed": 7})
            """
        )

    def test_unsorted_iterdir_iteration_flagged(self):
        assert "REP300" in ids_for(
            """
            def artifacts(root, sink):
                for path in root.iterdir():
                    sink.store(path.name)
            """
        )

    def test_sorted_iterdir_iteration_allowed(self):
        assert "REP300" not in ids_for(
            """
            def artifacts(root, sink):
                for path in sorted(root.iterdir()):
                    sink.store(path.name)
            """
        )

    def test_set_iteration_order_into_task_payload_flagged(self):
        assert "REP300" in ids_for(
            """
            from repro.faults import FanoutTask

            def build_tasks(names):
                pending = set(names)
                return [FanoutTask(key=name, fn=print, args=(name,))
                        for name in pending]
            """
        )

    def test_noqa_suppresses_rep300(self):
        assert "REP300" not in ids_for(
            """
            import time
            from repro.obs.manifest import config_digest

            def keyed(config):
                stamp = time.time()  # repro: noqa(REP102) -- fixture
                return config_digest({"stamp": stamp})  # repro: noqa(REP300) -- fixture
            """
        )


class TestRep301WorkerGlobalMutation:
    def test_append_to_module_list_in_worker_flagged(self):
        assert "REP301" in ids_for(
            """
            _RESULTS = []

            def run_fanout(tasks):
                _RESULTS.append(tasks)
            """
        )

    def test_global_rebind_in_worker_flagged(self):
        assert "REP301" in ids_for(
            """
            _COUNT = 0

            def run_fanout(tasks):
                global _COUNT
                _COUNT += 1
            """
        )

    def test_mutation_outside_worker_paths_allowed(self):
        assert "REP301" not in ids_for(
            """
            _RESULTS = []

            def parent_only(tasks):
                _RESULTS.append(tasks)
            """
        )

    def test_local_shadow_allowed(self):
        assert "REP301" not in ids_for(
            """
            _RESULTS = []

            def run_fanout(tasks):
                _RESULTS = list(tasks)
                _RESULTS.append(None)
                return _RESULTS
            """
        )

    def test_noqa_suppresses_rep301(self):
        assert "REP301" not in ids_for(
            """
            _RESULTS = []

            def run_fanout(tasks):
                _RESULTS.append(tasks)  # repro: noqa(REP301) -- fixture
            """
        )


class TestRep302UnpicklableTask:
    def test_lambda_task_flagged(self):
        assert "REP302" in ids_for(
            """
            from repro.faults import FanoutTask, run_fanout

            def launch():
                return run_fanout([FanoutTask(key=0, fn=lambda: 1)])
            """
        )

    def test_nested_function_submit_flagged(self):
        assert "REP302" in ids_for(
            """
            def launch(executor, tasks):
                def work(task):
                    return task
                return [executor.submit(work, task) for task in tasks]
            """
        )

    def test_module_level_function_allowed(self):
        assert "REP302" not in ids_for(
            """
            from repro.faults import FanoutTask, run_fanout

            def work(task):
                return task

            def launch(tasks):
                return run_fanout(
                    [FanoutTask(key=0, fn=work, args=(tasks,))]
                )
            """
        )

    def test_noqa_suppresses_rep302(self):
        assert "REP302" not in ids_for(
            """
            from repro.faults import FanoutTask, run_fanout

            def launch():
                return run_fanout([FanoutTask(key=0, fn=lambda: 1)])  # repro: noqa(REP302) -- fixture
            """
        )


class TestRep303OrderSensitiveReduction:
    def test_sum_over_parallel_values_flagged(self):
        assert "REP303" in ids_for(
            """
            from repro.faults import run_fanout

            def total(tasks):
                results, report = run_fanout(tasks)
                return sum(results.values())
            """
        )

    def test_loop_over_parallel_items_flagged(self):
        assert "REP303" in ids_for(
            """
            from repro.faults import run_fanout

            def total(tasks):
                results, report = run_fanout(tasks)
                acc = 0.0
                for key, value in results.items():
                    acc += value
                return acc
            """
        )

    def test_key_ordered_reduction_allowed(self):
        assert "REP303" not in ids_for(
            """
            from repro.faults import run_fanout

            def total(tasks, keys):
                results, report = run_fanout(tasks)
                return sum(results[key] for key in keys)
            """
        )

    def test_sorted_values_allowed(self):
        assert "REP303" not in ids_for(
            """
            from repro.faults import run_fanout

            def total(tasks):
                results, report = run_fanout(tasks)
                return sum(sorted(results.values()))
            """
        )

    def test_noqa_suppresses_rep303(self):
        assert "REP303" not in ids_for(
            """
            from repro.faults import run_fanout

            def total(tasks):
                results, report = run_fanout(tasks)
                return sum(results.values())  # repro: noqa(REP303) -- fixture
            """
        )


class TestRep304WorkerEnvRead:
    def test_environ_get_in_worker_flagged(self):
        assert "REP304" in ids_for(
            """
            import os

            def run_fanout(tasks):
                return os.environ.get("REPRO_MODE")
            """
        )

    def test_environ_subscript_in_worker_flagged(self):
        assert "REP304" in ids_for(
            """
            import os

            def run_many(tasks):
                return os.environ["REPRO_MODE"]
            """
        )

    def test_env_read_outside_worker_paths_allowed(self):
        assert "REP304" not in ids_for(
            """
            import os

            def parent_only():
                return os.environ.get("REPRO_MODE")
            """
        )

    def test_noqa_suppresses_rep304(self):
        assert "REP304" not in ids_for(
            """
            import os

            def run_fanout(tasks):
                return os.environ.get("REPRO_MODE")  # repro: noqa(REP304) -- fixture
            """
        )


class TestCallGraphModel:
    """Reachability and taint must flow through the call graph, not just
    fire on syntactically local patterns."""

    def test_reachability_planted_through_fanout_task(self):
        # ``helper`` is never named run_fanout/run_many; it is reachable
        # only because ``worker`` is submitted via FanoutTask and calls it.
        findings = findings_for(
            """
            import os
            from repro.faults import FanoutTask, run_fanout

            def helper():
                return os.environ.get("REPRO_MODE")

            def worker(task):
                return helper()

            def launch(tasks):
                return run_fanout(
                    [FanoutTask(key=0, fn=worker, args=(tasks,))]
                )
            """
        )
        assert any(
            f.rule_id == "REP304" and "'helper'" in f.message
            for f in findings
        )

    def test_taint_propagates_across_modules(self):
        jitter_src = textwrap.dedent(
            """
            import time

            def jitter():
                return time.time()  # repro: noqa(REP102) -- fixture
            """
        )
        build_src = textwrap.dedent(
            """
            from repro.obs.manifest import config_digest
            from repro.sim.jitter_mod import jitter

            def build(config):
                return config_digest({"seed": 7, "stamp": jitter()})
            """
        )
        findings = lint_sources([
            ("src/repro/sim/jitter_mod.py", jitter_src),
            ("src/repro/sim/build_mod.py", build_src),
        ])
        rep300 = [f for f in findings if f.rule_id == "REP300"]
        assert rep300
        assert all(f.path == "src/repro/sim/build_mod.py" for f in rep300)

    def test_deterministic_helper_not_tainted(self):
        helper_src = textwrap.dedent(
            """
            def stamp():
                return 7
            """
        )
        build_src = textwrap.dedent(
            """
            from repro.obs.manifest import config_digest
            from repro.sim.helper_mod import stamp

            def build(config):
                return config_digest({"seed": stamp()})
            """
        )
        findings = lint_sources([
            ("src/repro/sim/helper_mod.py", helper_src),
            ("src/repro/sim/build_mod.py", build_src),
        ])
        assert not [f for f in findings if f.rule_id == "REP300"]


class TestSarifRoundTrip:
    def test_rep3_findings_serialize_and_catalog(self):
        findings = findings_for(
            """
            import os

            def run_fanout(tasks):
                return os.environ.get("REPRO_MODE")
            """
        )
        rep3 = [f for f in findings if f.rule_id.startswith("REP3")]
        assert rep3
        sarif = findings_to_sarif(rep3, rule_catalog())
        run = sarif["runs"][0]
        rule_entries = {r["id"] for r in run["tool"]["driver"]["rules"]}
        for rule_id in determinism_rule_ids():
            assert rule_id in rule_entries
        result_ids = {r["ruleId"] for r in run["results"]}
        assert result_ids == {"REP304"}
        for result in run["results"]:
            index = result["ruleIndex"]
            assert run["tool"]["driver"]["rules"][index]["id"] \
                == result["ruleId"]


class TestAttestation:
    def test_installed_tree_attests_clean(self):
        attestation = static_determinism_attestation()
        assert attestation["schema"] == "repro-static-determinism/1"
        assert attestation["rules"] == determinism_rule_ids()
        assert attestation["clean"] is True
        assert attestation["findings"] == []

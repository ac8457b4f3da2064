"""Admission-time validation of job submissions."""

import pytest

from repro.core import Design
from repro.serve.schemas import (
    DEFAULT_TENANT,
    JOB_SCHEMA,
    JobRequest,
    SchemaError,
    parse_point,
    point_as_dict,
)

WORKLOAD = "doom3-320x240"


def _payload(**overrides):
    payload = {
        "points": [{"workload": WORKLOAD, "design": "S_TFIM"}],
    }
    payload.update(overrides)
    return payload


class TestParsePoint:
    def test_minimal_point_gets_sweep_defaults(self):
        point = parse_point({"workload": WORKLOAD, "design": "S_TFIM"})
        assert point.workload == WORKLOAD
        assert point.design is Design.S_TFIM
        assert point.memory_backend == "hmc"
        assert point.link_bandwidth_scale == 1.0
        assert point.angle_threshold == pytest.approx(0.0314159)

    def test_design_accepted_by_name_or_value(self):
        by_name = parse_point({"workload": WORKLOAD, "design": "A_TFIM"})
        by_value = parse_point({"workload": WORKLOAD, "design": "a-tfim"})
        assert by_name.design is by_value.design is Design.A_TFIM

    def test_point_as_dict_round_trips(self):
        point = parse_point(
            {
                "workload": WORKLOAD,
                "design": "A_TFIM",
                "angle_threshold": 0.05,
                "memory_backend": "hmc",
                "link_bandwidth_scale": 0.5,
            }
        )
        assert parse_point(point_as_dict(point)) == point

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"workload": "quake-9999"}, "unknown workload"),
            ({"design": "T_FIM"}, "unknown design"),
            ({"memory_backend": "optane"}, "unknown backend"),
            ({"angle_threshold": float("nan")}, "finite"),
            ({"angle_threshold": -0.1}, "finite"),
            ({"angle_threshold": "wide"}, "number"),
            ({"link_bandwidth_scale": 0.0}, "positive"),
            ({"angle_treshold": 0.05}, "unknown field"),  # the typo case
        ],
    )
    def test_invalid_fields_are_rejected(self, mutation, match):
        payload = {"workload": WORKLOAD, "design": "S_TFIM"}
        payload.update(mutation)
        with pytest.raises(SchemaError, match=match):
            parse_point(payload)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match="object"):
            parse_point([WORKLOAD, "S_TFIM"], path="points[3]")


class TestJobRequest:
    def test_defaults(self):
        request = JobRequest.from_payload(_payload())
        assert request.tenant == DEFAULT_TENANT
        assert len(request.points) == 1
        assert request.jobs is None
        assert request.backend is None
        assert request.task_timeout is None

    def test_explicit_fields(self):
        request = JobRequest.from_payload(
            _payload(
                schema=JOB_SCHEMA,
                tenant="team-a",
                jobs=2,
                backend="serial",
                task_timeout=30.0,
            )
        )
        assert request.tenant == "team-a"
        assert request.jobs == 2
        assert request.backend == "serial"
        assert request.task_timeout == 30.0

    @pytest.mark.parametrize(
        "payload, match",
        [
            (None, "JSON object"),
            ([], "JSON object"),
            ({"points": []}, "non-empty array"),
            ({"points": "all"}, "non-empty array"),
            (_payload(schema="repro-serve-job/99"), "unsupported schema"),
            (_payload(tenant=""), "tenant"),
            (_payload(tenant=7), "tenant"),
            (_payload(jobs=0), "positive integer"),
            (_payload(jobs=True), "positive integer"),
            (_payload(backend="gpu-farm"), "executor backend"),
            (_payload(task_timeout=0), "positive"),
            (_payload(task_timeout="fast"), "number"),
            (_payload(priority="high"), "unknown request field"),
            (_payload(backend="work-stealing"), "executor backend"),
        ],
    )
    def test_invalid_requests_rejected(self, payload, match):
        with pytest.raises(SchemaError, match=match):
            JobRequest.from_payload(payload)

    def test_max_points_is_enforced(self):
        point = {"workload": WORKLOAD, "design": "S_TFIM"}
        with pytest.raises(SchemaError, match="too many points"):
            JobRequest.from_payload({"points": [point] * 3}, max_points=2)

    def test_point_errors_name_their_index(self):
        payload = _payload()
        payload["points"].append({"workload": "nope", "design": "S_TFIM"})
        with pytest.raises(SchemaError, match=r"points\[1\]"):
            JobRequest.from_payload(payload)

    def test_run_keys_dedupe_shared_baselines(self):
        payload = {
            "points": [
                {"workload": WORKLOAD, "design": "S_TFIM"},
                {"workload": WORKLOAD, "design": "A_TFIM",
                 "angle_threshold": 0.05},
            ]
        }
        request = JobRequest.from_payload(payload)
        keys = request.run_keys()
        assert len(keys) == len(set(keys))
        # Both points share one baseline run: 2 points -> 3 simulations.
        assert len(keys) == 3
        assert keys[0] == request.points[0].baseline_key()

    def test_describe_round_trips_points(self):
        request = JobRequest.from_payload(_payload(tenant="team-b"))
        config = request.describe()
        assert config["schema"] == JOB_SCHEMA
        assert config["tenant"] == "team-b"
        reparsed = JobRequest.from_payload(
            {"points": config["points"], "tenant": config["tenant"]}
        )
        assert reparsed.points == request.points

"""SARIF 2.1.0 serialization of lint findings.

SARIF (Static Analysis Results Interchange Format) is the exchange
format GitHub code scanning ingests; emitting it lets CI upload the
lint run as an artifact and surface findings as inline annotations.
Only the small subset of the schema the findings need is produced:
one run, one driver, one result per finding, one physical location
per result.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "repro-lint"


def findings_to_sarif(
    findings: Sequence[object],
    catalog: Sequence[Tuple[str, str, str]],
) -> Dict[str, object]:
    """Build a SARIF log dict from findings and the rule catalog.

    ``findings`` are :class:`repro.analysis.findings.Finding` objects (any
    object with ``rule_id``/``path``/``line``/``column``/``message``
    works); ``catalog`` is ``(rule_id, name, description)`` triples as
    returned by :func:`repro.analysis.rules.rule_catalog`.
    """
    rules: List[Dict[str, object]] = [
        {
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": description},
        }
        for rule_id, name, description in catalog
    ]
    rule_index = {entry["id"]: position for position, entry in enumerate(rules)}

    results: List[Dict[str, object]] = []
    for finding in findings:
        result: Dict[str, object] = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            # SARIF columns are 1-based; Finding columns
                            # follow the AST's 0-based convention.
                            "startColumn": finding.column + 1,
                        },
                    }
                }
            ],
        }
        if finding.rule_id in rule_index:
            result["ruleIndex"] = rule_index[finding.rule_id]
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }

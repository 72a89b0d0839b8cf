"""Minimal SARIF 2.1.0 emitter for lint findings.

SARIF (Static Analysis Results Interchange Format) is what code-review
UIs and CI annotation surfaces ingest.  This writes the minimal valid
subset: one run, the tool driver with its rule catalogue, and one
result per finding with a physical location.  Columns are converted
from the linter's 0-based ``col`` to SARIF's 1-based ``startColumn``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple

from .framework import Finding

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "to_sarif", "render_sarif"]

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

_LEVEL_FOR_SEVERITY = {"error": "error", "warning": "warning"}


def to_sarif(
    findings: Iterable[Finding],
    rule_rows: Sequence[Tuple[str, str, str]],
    tool_name: str = "repro-lint",
) -> Dict[str, object]:
    """Build the SARIF document as a plain dict.

    ``rule_rows`` is ``(rule_id, severity, description)`` — the output
    of :func:`repro.lint.framework.rule_descriptions` — so the rule
    catalogue always matches the registry that produced the findings.
    """
    rules: List[Dict[str, object]] = [
        {
            "id": rule_id,
            "shortDescription": {"text": description},
            "defaultConfiguration": {
                "level": _LEVEL_FOR_SEVERITY.get(severity, "warning")
            },
        }
        for rule_id, severity, description in rule_rows
    ]
    results: List[Dict[str, object]] = [
        {
            "ruleId": finding.rule_id,
            "level": _LEVEL_FOR_SEVERITY.get(finding.severity, "warning"),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/")
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": {"name": tool_name, "rules": rules}},
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: Iterable[Finding],
    rule_rows: Sequence[Tuple[str, str, str]],
    tool_name: str = "repro-lint",
) -> str:
    return json.dumps(
        to_sarif(findings, rule_rows, tool_name), indent=2, sort_keys=True
    )

"""Correctness gate applied to every report the benchmark produces.

A report passes when it validates against docs/report.schema.json, names
the (k, p) it was asked for, has status pass with no failed check and no
``execution`` check, has no notices (a notice means a check was skipped
under the matrix cap, so less work was measured), and its
mismatch-reported checks are exactly the documented gaps below.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

# (check name, construction, matrix) of every documented gap.  A full run
# (3 kinds x 2 constructions) reports the three true-graph characteristic
# polynomials (clique assumption), the energy constant and the
# model-vs-true edge diff; a structure-only run (kinds=()) only the diff.
FULL_GAPS = (
    ("charpoly", "true", "adjacency"),
    ("charpoly", "true", "laplacian"),
    ("charpoly", "true", "signless"),
    ("laplacian-energy", None, "laplacian"),
    ("model-vs-true-diff", None, None),
)
STRUCTURE_GAPS = (("model-vs-true-diff", None, None),)


class Gate:
    def __init__(self, schema_path: Path):
        from jsonschema import Draft7Validator

        self._validator = Draft7Validator(json.loads(schema_path.read_text()))

    def violations(self, report: dict, k: int, p: int, gaps) -> list[str]:
        """Every way the report breaks the gate; empty when it passes."""
        problems = [f"schema: {e.message}" for e in self._validator.iter_errors(report)]
        if problems:
            return problems
        if (report["params"]["k"], report["params"]["p"]) != (k, p):
            problems.append(f"report is for {report['params']}, expected k={k} p={p}")
        if report["status"] != "pass":
            problems.append(f"report status is {report['status']}")
        checks = report["checks"]
        problems += [
            f"check {c['name']} ({c['construction']}/{c['matrix']}) failed"
            for c in checks
            if c["status"] == "fail"
        ]
        if any(c["name"] == "execution" for c in checks):
            problems.append("report carries an execution check")
        if report["notices"]:
            problems.append(f"notices: {report['notices']}")
        got = Counter(
            (c["name"], c["construction"], c["matrix"])
            for c in checks
            if c["status"] == "mismatch-reported"
        )
        if got != Counter(gaps):
            problems.append(f"mismatch-reported checks are {sorted(got.items(), key=str)}")
        if report["counts"]["mismatch-reported"] != len(gaps):
            problems.append(
                f"mismatch-reported count is {report['counts']['mismatch-reported']}, "
                f"documented {len(gaps)}"
            )
        return problems

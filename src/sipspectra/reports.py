"""Experiment reports: typed records, deterministic serialization.

Reports serialize to JSON or TSV with a fixed field order and floats printed
at 17 significant digits, so identical inputs produce byte-identical output
and parsing is lossless.  Non-finite floats, which JSON cannot carry, are
written as null.  Wall-clock timings are kept on the records but left
out of the canonical emission; pass ``include_timing`` to serialize them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["CheckRecord", "ExperimentReport", "emit_report", "parse_report"]


@dataclass
class CheckRecord:
    name: str
    reference: str               # which identity or bound is being checked
    computed: dict
    target: str
    tolerance: float
    passed: bool
    wall_clock: float = 0.0


@dataclass
class ExperimentReport:
    experiment: str
    inputs: dict
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    try:  # numpy scalars
        import numpy as np
        if isinstance(value, np.floating):
            return _fmt(float(value))
        if isinstance(value, (np.integer, np.bool_)):
            return _fmt(value.item())
    except ImportError:  # pragma: no cover
        pass
    raise TypeError(f"cannot serialize {type(value)!r}")


def _record_fields(r: CheckRecord, include_timing: bool) -> list[tuple[str, object]]:
    fields = [
        ("name", r.name),
        ("reference", r.reference),
        ("computed", r.computed),
        ("target", r.target),
        ("tolerance", r.tolerance),
        ("passed", r.passed),
    ]
    if include_timing:
        fields.append(("wall_clock", r.wall_clock))
    return fields


def emit_report(report: ExperimentReport, fmt: str = "json",
                include_timing: bool = False) -> str:
    if fmt == "json":
        recs = []
        for r in report.records:
            body = ",".join(f"{json.dumps(k)}:{_fmt(v)}"
                            for k, v in _record_fields(r, include_timing))
            recs.append("{" + body + "}")
        parts = [
            f'"experiment":{json.dumps(report.experiment)}',
            f'"inputs":{_fmt(report.inputs)}',
            f'"records":[{",".join(recs)}]',
        ]
        return "{" + ",".join(parts) + "}\n"
    if fmt == "tsv":
        cols = ["experiment", "name", "reference", "target", "tolerance",
                "passed", "computed"]
        if include_timing:
            cols.append("wall_clock")
        lines = ["\t".join(cols)]
        for r in report.records:
            row = [report.experiment, r.name, r.reference, r.target,
                   format(r.tolerance, ".17g"),
                   "true" if r.passed else "false", _fmt(r.computed)]
            if include_timing:
                row.append(format(r.wall_clock, ".17g"))
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(text: str) -> ExperimentReport:
    doc = json.loads(text)
    report = ExperimentReport(experiment=doc["experiment"], inputs=doc["inputs"])
    for rec in doc["records"]:
        report.add(CheckRecord(
            name=rec["name"],
            reference=rec["reference"],
            computed=rec["computed"],
            target=rec["target"],
            tolerance=rec["tolerance"],
            passed=rec["passed"],
            wall_clock=rec.get("wall_clock", 0.0),
        ))
    return report

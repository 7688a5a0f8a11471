"""Correctness gate: report checks plus stored reference values.

A request fails when it raises, when its report cannot be read back, when
any record of its reports fails its own check, or when a computed value
differs from the stored reference for the same request.  References are keyed by a fingerprint of the request's inputs,
so they apply to any seed that generates the same request; the stored files
cover every request of two seeds plus the seed-independent ones.

Values are read back from the emitted report text, which prints floats at 17
significant digits, so an integral float reads as an integer.  Two integers
(counts, case tallies, overlaps, component sizes) must match exactly.  Any
other pair of numbers matches when it is within the record's pinned
tolerance, relative to max(1, |reference|).  Records with tolerance 0 are
informational; their numbers are compared at ``FLOAT_FLOOR``, so values
computed in another summation order still match.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

from sipspectra.reports import parse_report

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
FLOAT_FLOOR = 1e-9


def plain(value):
    """JSON-ready copy of a computed value, keeping ints and floats apart."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [plain(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot compare {type(value)!r}")


def outcome(texts: list[str]) -> list[dict]:
    """What a request emitted: per record its name, verdict and values."""
    reports = [parse_report(text) for text in texts]
    return [{"experiment": r.experiment,
             "records": [{"name": rec.name, "passed": bool(rec.passed),
                          "tolerance": float(rec.tolerance),
                          "computed": plain(rec.computed)} for rec in r.records]}
            for r in reports]


def _diff(got, want, tol: float, path: str) -> str | None:
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, int) and isinstance(got, int):
        return None if got == want else f"{path}: {got} != {want}"
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        got, want = float(got), float(want)
        if math.isnan(want) or math.isnan(got):
            return None if math.isnan(want) and math.isnan(got) else f"{path}: nan"
        if math.isinf(want) or math.isinf(got):
            return None if got == want else f"{path}: {got} != {want}"
        tol = tol if tol > 0 else FLOAT_FLOOR
        if abs(got - want) <= tol * max(1.0, abs(want)):
            return None
        return f"{path}: {got!r} differs from {want!r} beyond {tol:g}"
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            d = _diff(got[k], want[k], tol, f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            d = _diff(a, b, tol, f"{path}[{i}]")
            if d:
                return d
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def verdict(result: list[dict], reference: list[dict] | None) -> str | None:
    """None when the request is correct, else the first reason it is not."""
    for rep in result:
        for rec in rep["records"]:
            if not rec["passed"]:
                return f"{rep['experiment']}/{rec['name']}: check failed"
    if reference is None:
        return None
    if [r["experiment"] for r in result] != [r["experiment"] for r in reference]:
        return "report list differs from the reference"
    for got, want in zip(result, reference):
        names = [r["name"] for r in got["records"]]
        if names != [r["name"] for r in want["records"]]:
            return f"{got['experiment']}: records {names} differ from the reference"
        for g, w in zip(got["records"], want["records"]):
            d = _diff(g["computed"], w["computed"], w["tolerance"],
                      f"{got['experiment']}/{g['name']}")
            if d:
                return d
    return None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_references(workload: str) -> dict[str, list[dict]]:
    path = reference_path(workload)
    if not path.exists():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_references(workload: str, refs: dict[str, list[dict]]) -> None:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(refs, sort_keys=True, indent=0)
    # fixed mtime keeps the compressed bytes reproducible
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode())

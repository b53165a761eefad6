"""Deterministic JSON run reports.

A report byte-reproduces across runs of the same command except for the
``wall_clock_seconds`` field; every other value is a pure function of the
inputs. ``cli._report`` writes each one. The schema ships with the package
(``bbcq/schema/report.schema.json``).
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

from .calibration import CalibResult
from .records import read_json

SCHEMA_VERSION = 1


def report_schema() -> dict:
    """The published report schema as a dict."""
    ref = resources.files("bbcq").joinpath("schema/report.schema.json")
    return read_json(ref.read_bytes(), ref)


def site_summaries(result: CalibResult) -> list[dict]:
    """Per-site rows for a calibration report: the result's site rows with
    the trace replaced by its digest and the chosen candidate's metric."""
    rows = result.site_rows()
    for row in rows:
        trace = row.pop("trace")
        row["trace_digest"] = row["chosen_metric"] = None
        if trace:
            digest = hashlib.sha256(
                json.dumps(trace, sort_keys=True).encode("utf-8")).hexdigest()
            row["trace_digest"] = {"rounds": len(trace),
                                   "candidates": len(trace[-1]),
                                   "sha256": digest}
            row["chosen_metric"] = trace[-1][row["chosen_index"]]
    return rows

"""Checks on one catqm report, and the body digest.

A report passes when its body has the report schema, its status agrees
with the process exit code, and its violations agree with its status.
Witness replay and the byte-identity of bodies across repetitions are
checked by the worker and by ``run.py``.
"""

from __future__ import annotations

import hashlib
import json

REPORT_SCHEMA = "catqm-report/1"
BODY_KEYS = ("schema", "subcommand", "config", "results", "violations",
             "witnesses", "status")
STATUS_EXIT = {"ok": 0, "violation": 1}


def digest(body) -> str:
    """sha256 of the canonical body JSON (sorted keys), as ``catqm`` writes
    it for its own determinism check."""
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_problems(report, subcommand: str, seed: int | None,
                    code: int) -> list[str]:
    """What is wrong with a report; empty when it passes."""
    if not isinstance(report, dict) or not isinstance(report.get("body"), dict):
        return ["report has no body object"]
    meta, body = report.get("meta"), report["body"]
    problems = [f"body lacks {k!r}" for k in BODY_KEYS if k not in body]
    if problems:
        return problems
    if not isinstance(meta, dict) or not isinstance(meta.get("wall_clock_s"), (int, float)):
        problems.append("meta lacks a numeric wall_clock_s")
    if body["schema"] != REPORT_SCHEMA:
        problems.append(f"schema is {body['schema']!r}")
    if body["subcommand"] != subcommand:
        problems.append(f"subcommand is {body['subcommand']!r}")
    if seed is not None and body["config"].get("seed") != seed:
        problems.append(f"config seed is {body['config'].get('seed')!r}, not {seed}")
    if not all(isinstance(body[k], list) for k in ("violations", "witnesses")):
        problems.append("violations and witnesses must be lists")
    status = body["status"]
    if status not in ("ok", "violation", "error"):
        problems.append(f"unknown status {status!r}")
    elif status == "error":
        if code in STATUS_EXIT.values():
            problems.append(f"status error with exit code {code}")
    else:
        if code != STATUS_EXIT[status]:
            problems.append(f"status {status} with exit code {code}")
        if subcommand not in body["results"]:
            problems.append(f"results lack {subcommand!r}")
        if (status == "violation") != bool(body["violations"]):
            problems.append(f"status {status} with {len(body['violations'])} violations")
    return problems

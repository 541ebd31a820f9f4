"""Trajectory and summary files.

Trajectories are JSON Lines: a self-describing header line followed by one
record per environment step. Keys are sorted and floats keep their shortest
round-trip repr, and both writers emit UTF-8 with ``\n`` line ends on every
platform, so identical episodes produce byte-identical files and
determinism checks can diff them directly.

Consecutive records repeat most fields (a sub-task's action, the parts of
the observation that did not move), so each record is built from field texts
memoised per episode. A record line is byte-equal to
``json.dumps(record, sort_keys=True, separators=(",", ":"))``;
``tests/test_trajlog.py`` pins this.
"""

from __future__ import annotations

import json
import marshal

from .core import loads_json, read_json
from .mockenv import MAX_STEPS, EnvConfig
from .orchestrator import BatchResult, EpisodeResult

SCHEMA_VERSION = 1
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def trajectory_lines(result: EpisodeResult, config: EnvConfig, plan_source: str) -> list[str]:
    """The header line and one line per step, each without its ``\\n``.

    A record is assembled in sorted-key order from its field texts. The memo
    of those texts is keyed on ``marshal.dumps(value, 2)``, not on the value:
    ``0.0 == -0.0`` and ``1 == 1.0 == True``, but their JSON texts differ.
    """
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trajectory",
        "task": result.task_kind,
        "seed": result.seed,
        "plan": plan_source,
        "config": config._asdict(),
        "success": result.success,
        "steps": result.steps,
        "error": result.error,
    }
    texts: dict[bytes, str] = {}

    def text(value) -> str:
        try:
            key = marshal.dumps(value, 2)
        except ValueError:  # not a marshal type, e.g. a tuple subclass
            return _encode(value)
        out = texts.get(key)
        if out is None:
            out = texts[key] = _encode(value)
        return out

    lines = [_encode(header)]
    for rec in result.trajectory:
        robot, obj = rec.obs.robot, rec.obs.object
        platform = (robot.platform_x, robot.platform_y, robot.platform_height, robot.platform_yaw)
        lines.append(
            f'{{"action":{text(rec.action)},"articulation":{text(obj.articulation_value)},'
            f'"handle":{text(obj.handle_position)},"joints":{text(robot.arm_joints)},'
            f'"label":{text(rec.label)},"main":{text(rec.main_action)},"object":{text(obj.object_pose)},'
            f'"platform":{text(platform)},"stabilizer":{text(rec.stabilizer_action)},'
            f'"step":{text(rec.obs.step_index)},"subtask":{text(rec.subtask_index)}}}'
        )
    return lines


def write_trajectory(path, result: EpisodeResult, config: EnvConfig, plan_source: str) -> None:
    text = "\n".join(trajectory_lines(result, config, plan_source)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _is_schema(doc: object, kind: str) -> bool:
    """True for a ``kind`` document of this schema; ``true`` and ``1.0`` are not version 1."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    return type(version) is int and version == SCHEMA_VERSION and doc.get("kind") == kind


def read_trajectory(path) -> tuple[dict, list[dict]]:
    """Returns (header, records); records are framed on ``\\n`` alone, blank lines skipped.

    Raises ValueError on schema mismatch, a record that is not UTF-8 JSON (a
    syntax error names its line and column in the file), a header ``task``
    that is not a string or a ``seed``/``steps`` that is not an integer, a
    record that is not an object, or a record count other than ``steps``.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    docs = [loads_json(text, path, number) for number, line in enumerate(lines, 1) if (text := line.rstrip(b"\r"))]
    if not docs:
        raise ValueError(f"{path}: empty trajectory file")
    header, *records = docs
    if not _is_schema(header, "trajectory"):
        raise ValueError(f"{path}: not a schema v{SCHEMA_VERSION} trajectory file")
    if not isinstance(header.get("task"), str):
        raise ValueError(f"{path}: trajectory 'task' must be a string")
    for key in ("seed", "steps"):
        if type(header.get(key)) is not int:
            raise ValueError(f"{path}: trajectory {key!r} must be an integer")
    if not all(isinstance(rec, dict) for rec in records):
        raise ValueError(f"{path}: trajectory records must be objects")
    if len(records) != header["steps"]:
        raise ValueError(f"{path}: header says {header['steps']} steps, file has {len(records)} records")
    return header, records


def write_summary(path, batch: BatchResult, config: EnvConfig, plan_source: str) -> dict:
    """Write the batch's per-seed outcomes to ``path``; returns the document written."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "summary",
        "task": batch.task_kind,
        "plan": plan_source,
        "config": config._asdict(),
        "episodes": [
            {"seed": r.seed, "success": r.success, "steps": r.steps, "error": r.error}
            for r in batch.results
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload


_SUMMARY_KEYS = {"schema_version", "kind", "task", "plan", "config", "episodes"}


def _check_summary(doc: object) -> dict:
    """``doc`` if it is a summary document; raises ValueError on schema or type mismatch,
    a key other than those ``write_summary`` writes (or one of them missing), an empty
    ``episodes`` list, or an episode ``steps`` that is not an int in [0, ``MAX_STEPS``]."""
    if not _is_schema(doc, "summary"):
        raise ValueError(f"not a schema v{SCHEMA_VERSION} summary file")
    unknown, missing = sorted(set(doc) - _SUMMARY_KEYS), sorted(_SUMMARY_KEYS - set(doc))
    if unknown:
        raise ValueError(f"unknown summary keys {unknown}")
    if missing:
        raise ValueError(f"summary missing keys {missing}")
    if not isinstance(doc["task"], str):
        raise ValueError("summary 'task' must be a string")
    if not isinstance(doc["episodes"], list) or not all(isinstance(e, dict) for e in doc["episodes"]):
        raise ValueError("summary 'episodes' must be a list of objects")
    if not doc["episodes"]:
        raise ValueError("summary 'episodes' is empty")
    if not all(type(e.get("success")) is bool for e in doc["episodes"]):
        raise ValueError("summary episode 'success' must be true or false")
    if not all(type(e.get("steps")) is int and 0 <= e["steps"] <= MAX_STEPS for e in doc["episodes"]):
        raise ValueError(f"summary episode 'steps' must be an integer in [0, {MAX_STEPS}]")
    return doc


def read_summary(path) -> dict:
    """The summary document in the file at ``path``; every ValueError starts with ``path``."""
    return read_json(path, _check_summary)


def report_rows(summaries: list[dict]) -> list[dict]:
    """One row per summary: ``task``, ``episodes``, ``successes``, ``success_rate``, ``mean_steps``.

    A summary stores per-seed outcomes only; this is the one place a batch's
    success rate and mean steps are computed from them."""
    rows = []
    for doc in summaries:
        episodes = doc["episodes"]
        successes = sum(1 for e in episodes if e["success"])
        rows.append(
            {
                "task": doc["task"],
                "episodes": len(episodes),
                "successes": successes,
                "success_rate": successes / len(episodes),
                "mean_steps": sum(e["steps"] for e in episodes) / len(episodes),
            }
        )
    return rows


def format_report_table(rows: list[dict]) -> str:
    lines = [
        f"{'task':<22}{'episodes':>10}{'successes':>11}{'success_rate':>14}{'mean_steps':>12}",
        "-" * 69,
    ]
    for row in rows:
        lines.append(
            f"{row['task']:<22}{row['episodes']:>10}{row['successes']:>11}"
            f"{row['success_rate']:>14.3f}{row['mean_steps']:>12.1f}"
        )
    return "\n".join(lines)

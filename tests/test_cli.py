import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heurobot

from heurobot.cli import MAX_SEEDS, main, parse_seeds
from heurobot.core import TASK_ACTIONS, TASK_KINDS
from heurobot.mockenv import FIELD_MAX, EnvConfig
from heurobot.orchestrator import run_episode
from heurobot.plans import PLAN_DATA_DIR, builtin_plan
from heurobot.trajlog import format_report_table, read_summary, read_trajectory, report_rows, trajectory_lines

from helpers import mutate_bytes, mutate_json


def run_dir_files(path):
    return sorted(p.name for p in path.iterdir())


def test_importing_the_cli_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=str(Path(heurobot.__file__).parents[1]))
    code = "import sys, heurobot.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=env, check=True)
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses brings in inspect, ast and dis; the records are named tuples and slot classes.
    # -S skips site, whose .pth hooks may import importlib.resources before the package does.
    env = dict(os.environ, PYTHONPATH=str(Path(heurobot.__file__).parents[1]))
    code = (
        "import sys; before = set(sys.modules); import heurobot.cli; "
        "banned = {'dataclasses', 'inspect', 'ast', 'dis', 'importlib.resources'}; "
        "print(sorted(banned & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, encoding="utf-8", env=env, check=True)
    assert proc.stdout == "[]\n"


def test_parse_seeds():
    assert parse_seeds("5") == [5]
    assert parse_seeds("5..5") == [5]
    assert parse_seeds("2..4") == [2, 3, 4]
    assert parse_seeds("1,9,5") == [1, 9, 5]
    with pytest.raises(ValueError):
        parse_seeds("")
    with pytest.raises(ValueError):
        parse_seeds("9..2")
    for text in ("abc", "1..x", "1,,2", "1.5"):
        with pytest.raises(ValueError, match=rf"^seed list {re.escape(repr(text))} is not N, A\.\.B or a comma list"):
            parse_seeds(text)
    with pytest.raises(ValueError, match="repeats"):
        parse_seeds("1,2,1")
    assert len(parse_seeds(f"1..{MAX_SEEDS}")) == MAX_SEEDS
    for text in (f"0..{MAX_SEEDS}", "0..100000000000000000000"):
        with pytest.raises(ValueError, match=f"more than {MAX_SEEDS} seeds"):
            parse_seeds(text)


def test_run_writes_logs_and_summary(tmp_path, capsys):
    out = tmp_path / "runs"
    rc = main(["run", "--task", "open_cabinet_drawer", "--seeds", "1..10", "--out", str(out), "--quiet"])
    assert rc == 0
    logs = [p for p in out.iterdir() if p.suffix == ".jsonl"]
    assert len(logs) == 10
    summary = read_summary(out / "open_cabinet_drawer_summary.json")
    assert summary["task"] == "open_cabinet_drawer"
    assert set(summary) == {"schema_version", "kind", "task", "plan", "config", "episodes"}
    assert [e["seed"] for e in summary["episodes"]] == list(range(1, 11))
    assert 0.0 <= report_rows([summary])[0]["success_rate"] <= 1.0
    header, records = read_trajectory(sorted(logs)[0])
    assert header["task"] == "open_cabinet_drawer"
    assert len(records) == header["steps"]
    line = records[0]
    assert {"step", "label", "action", "platform", "object", "handle"} <= set(line)
    assert "success rate" in capsys.readouterr().out


def test_run_accepts_plan_file(tmp_path):
    plan_path = Path(PLAN_DATA_DIR) / "push_chair.json"
    out = tmp_path / "o"
    rc = main(["run", "--task", "push_chair", "--plan", str(plan_path), "--seeds", "3", "--out", str(out), "--quiet"])
    assert rc == 0
    header, _ = read_trajectory(out / "push_chair_seed00003.jsonl")
    assert header["plan"] == str(plan_path)


def test_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["run", "--task", "move_bucket", "--seeds", "1..5", "--out", str(out), "--quiet"])
        assert rc == 0
    for name in run_dir_files(out_a):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("task", TASK_KINDS)
def test_jobs_do_not_change_any_output_byte(tmp_path, capsys, task):
    stdout = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--task", task, "--seeds", "3,1,6,2,5", "--out", str(out), "--jobs", jobs]) == 0
        stdout[jobs] = capsys.readouterr().out.replace(str(out), "OUT")
    assert stdout["1"] == stdout["2"]
    assert [line.split(":")[0] for line in stdout["1"].splitlines()[:5]] == [f"seed {s}" for s in (1, 2, 3, 5, 6)]
    names = run_dir_files(tmp_path / "jobs1")
    assert len(names) == 6 and names == run_dir_files(tmp_path / "jobs2")
    for name in names:
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes()


def test_run_writes_the_in_process_bytes_with_newline_line_ends(tmp_path):
    # text mode translates "\n" to os.linesep unless the writer pins newline="\n"
    out = tmp_path / "runs"
    assert main(["run", "--task", "move_bucket", "--seeds", "3", "--out", str(out), "--quiet"]) == 0
    result = run_episode("move_bucket", builtin_plan("move_bucket"), EnvConfig(), seed=3)
    lines = trajectory_lines(result, EnvConfig(), "builtin")
    assert (out / "move_bucket_seed00003.jsonl").read_bytes() == "".join(line + "\n" for line in lines).encode()
    summary = (out / "move_bucket_summary.json").read_bytes()
    assert b"\r" not in summary and summary.endswith(b"}\n")


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_spawned_workers_write_the_bytes_of_a_serial_run(tmp_path, method):
    # under spawn and forkserver (the Linux default from CPython 3.14) each worker
    # re-imports the package and unpickles the plan and the writer
    env = dict(os.environ, PYTHONPATH=str(Path(heurobot.__file__).parents[1]))
    code = (
        "import multiprocessing as mp, sys; from heurobot.cli import main; "
        f"mp.set_start_method({method!r}); sys.exit(main(sys.argv[1:]))"
    )
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        args = ["run", "--task", "move_bucket", "--seeds", "0..7", "--jobs", jobs, "--out", str(out), "--quiet"]
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, encoding="utf-8", env=env)
        assert proc.returncode == 0, proc.stderr
    names = run_dir_files(tmp_path / "jobs1")
    assert len(names) == 9 and names == run_dir_files(tmp_path / "jobs2")
    for name in names:
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes()


def test_out_dir_env_var_is_the_default(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("HEUROBOT_OUT", str(target))
    rc = main(["run", "--task", "open_cabinet_door", "--seeds", "1", "--quiet"])
    assert rc == 0
    assert (target / "open_cabinet_door_summary.json").exists()


def test_env_config_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"max_steps": 40}), encoding="utf-8")
    out = tmp_path / "o"
    rc = main([
        "run", "--task", "open_cabinet_door", "--seeds", "1", "--config", str(config_path),
        "--out", str(out), "--quiet",
    ])
    assert rc == 0
    header, _ = read_trajectory(out / "open_cabinet_door_seed00001.jsonl")
    assert header["config"]["max_steps"] == 40
    assert header["steps"] <= 40


# the envelope's worst corner: every float field at its bound, success tolerances too tight to end an episode
WORST_CORNER = {
    **{name: FIELD_MAX for name, value in EnvConfig._field_defaults.items() if type(value) is float},
    "bucket_xy_tolerance": 1e-9, "bucket_height_tolerance": 1e-9, "chair_xy_tolerance": 1e-9, "max_steps": 500,
}


@pytest.mark.parametrize("task", TASK_KINDS)
@pytest.mark.parametrize("plan", ["builtin", "full_throttle"])
def test_worst_corner_config_logs_only_finite_numbers(tmp_path, task, plan):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(WORST_CORNER), encoding="utf-8")
    argv = ["run", "--task", task, "--seeds", "0..1", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--quiet"]
    if plan == "full_throttle":  # grasp at step 0, then every slot at +1 with the stabilizer on: carry and noise
        index_map = TASK_ACTIONS[task]
        close = {index_map.slots[i]: 1.0 for i in index_map.finger_slots}
        doc = {"task_kind": task, "entries": [
            {"kind": "stabilizer_on", "label": "hold"},
            {"kind": "move_steps", "label": "grasp", "action": close, "steps": 1},
            {"kind": "move_steps", "label": "all_slots", "action": dict.fromkeys(index_map.slots, 1.0), "steps": 499},
        ]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--plan", str(plan_path)]
    assert main(argv) == 0
    summary = read_summary(tmp_path / "o" / f"{task}_summary.json")
    assert [(e["steps"], e["error"]) for e in summary["episodes"]] == [(500, None)] * 2
    for log in (tmp_path / "o").iterdir():
        assert not re.search(rb"NaN|Infinity", log.read_bytes()), log.name


def test_report_table_and_machine_formats(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--task", "push_chair", "--seeds", "1..4", "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    summary = str(out / "push_chair_summary.json")

    assert main(["report", summary]) == 0
    table = capsys.readouterr().out
    assert "push_chair" in table and "success_rate" in table

    assert main(["report", summary, "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    doc = read_summary(summary)
    successes = sum(1 for e in doc["episodes"] if e["success"])
    assert payload["tasks"][0] == {
        "task": "push_chair",
        "episodes": 4,
        "successes": successes,
        "success_rate": successes / 4,
        "mean_steps": sum(e["steps"] for e in doc["episodes"]) / 4,
    }


def test_run_line_and_report_derive_one_rate_and_mean_from_mixed_outcomes(tmp_path, capsys):
    # At max_steps 85 some door seeds succeed and the rest hit the step cap.
    config = tmp_path / "short.json"
    config.write_text('{"max_steps": 85}', encoding="utf-8")
    out = tmp_path / "runs"
    argv = ["run", "--task", "open_cabinet_door", "--seeds", "0..6", "--config", str(config), "--out", str(out)]
    assert main(argv) == 0
    *episode_lines, run_line = capsys.readouterr().out.splitlines()
    outcomes = [re.fullmatch(r"seed \d+: (ok|fail) in (\d+) steps", line).groups() for line in episode_lines]
    n = len(outcomes)
    successes = sum(1 for status, _ in outcomes if status == "ok")
    steps = sum(int(count) for _, count in outcomes)
    assert n == 7 and 0 < successes < n

    summary = out / "open_cabinet_door_summary.json"
    assert main(["report", str(summary), "--format", "machine"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["tasks"]
    assert (row["episodes"], row["successes"]) == (n, successes)
    assert (row["success_rate"], row["mean_steps"]) == (successes / n, steps / n)
    assert run_line == (
        f"open_cabinet_door: {successes / n:.3f} success rate over {n} episodes "
        f"(mean {steps / n:.1f} steps) -> {summary}"
    )


def test_report_over_all_four_tasks_is_a_four_row_table(tmp_path, capsys):
    out = tmp_path / "runs"
    tasks = ("open_cabinet_door", "open_cabinet_drawer", "move_bucket", "push_chair")
    for task in tasks:
        assert main(["run", "--task", task, "--seeds", "1", "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    summaries = [str(out / f"{task}_summary.json") for task in tasks]
    assert main(["report", *summaries]) == 0
    table = capsys.readouterr().out
    rows = [line for line in table.splitlines() if any(t in line for t in tasks)]
    assert len(rows) == 4


def test_report_skips_malformed_files_with_warnings(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--task", "open_cabinet_door", "--seeds", "1..2", "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    summary = out / "open_cabinet_door_summary.json"
    doc = json.loads(summary.read_text(encoding="utf-8"))
    junk_texts = {
        "not_json": "{not json",
        "nested_too_deep": "[" * 100000,
        "episode_not_object": json.dumps({**doc, "episodes": [1]}),
        "episodes_not_list": json.dumps({**doc, "episodes": 5}),
        "legacy_aggregates": json.dumps({**doc, "success_rate": 1.0, "mean_steps": 85.5, "seeds": [1, 2]}),
        "missing_plan": json.dumps({k: v for k, v in doc.items() if k != "plan"}),
        "task_not_string": json.dumps({**doc, "task": 7}),
        "schema_version_true": json.dumps({**doc, "schema_version": True}),
        "success_string": json.dumps({**doc, "episodes": [{**e, "success": "false"} for e in doc["episodes"]]}),
        "success_int": json.dumps({**doc, "episodes": [{**e, "success": 1} for e in doc["episodes"]]}),
        "episodes_empty": json.dumps({**doc, "episodes": []}),
        "steps_not_int": json.dumps({**doc, "episodes": [{**e, "steps": "many"} for e in doc["episodes"]]}),
        "steps_past_max_steps": json.dumps({**doc, "episodes": [{**e, "steps": 10**400} for e in doc["episodes"]]}),
    }
    junk = []
    for name, text in junk_texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        junk.append(str(path))

    rc = main(["report", str(summary), *junk])
    captured = capsys.readouterr()
    assert rc == 0
    assert "open_cabinet_door" in captured.out
    assert captured.err.count("warning: skipping") == len(junk)
    for path in junk:  # each skipped file is named once
        assert captured.err.count(path) == 1
    (legacy,) = [line for line in captured.err.splitlines() if "legacy_aggregates" in line]
    assert "'mean_steps'" in legacy and "'success_rate'" in legacy

    for path in junk:
        rc = main(["report", path])
        assert rc == 1
        assert "warning: skipping" in capsys.readouterr().err


GOOD_HEADER = {"kind": "trajectory", "schema_version": 1, "task": "open_cabinet_door", "seed": 1, "steps": 1}


def trajectory_text(header_edit=None, drop=None, records=("{}",)):
    header = {**GOOD_HEADER, **(header_edit or {})}
    header.pop(drop, None)
    return "\n".join([json.dumps(header), *records]) + "\n"


def test_read_trajectory_accepts_the_well_formed_file_the_cases_below_break(tmp_path):
    path = tmp_path / "good.jsonl"
    path.write_text(trajectory_text(), encoding="utf-8")
    assert read_trajectory(path) == (GOOD_HEADER, [{}])


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "trajectory", "schema_version": true}\n',
        '{"kind": "trajectory", "schema_version": 1.0}\n',
        "[1]\n",
        "[" * 100000 + "\n",
        trajectory_text(records=["[1]"]),
        trajectory_text(records=['"x"']),
        trajectory_text(drop="task"),
        trajectory_text(drop="seed"),
        trajectory_text(drop="steps"),
        trajectory_text({"task": 7}),
        trajectory_text({"seed": True}),
        trajectory_text({"seed": "1"}),
        trajectory_text({"steps": 1.0}),
        trajectory_text({"steps": 2}),
        trajectory_text(records=[]),
        b"\xff{}\n",
        trajectory_text({"steps": 2}, records=["{}\r{}"]),
    ],
    ids=[
        "schema_version_true", "schema_version_float", "header_not_object", "nested_too_deep",
        "record_is_a_list", "record_is_a_string", "no_task", "no_seed", "no_steps", "task_not_string",
        "seed_is_a_bool", "seed_is_a_string", "steps_is_a_float", "truncated", "no_records",
        "not_utf8", "lone_cr_is_not_a_line_break",
    ],
)
def test_read_trajectory_rejects_malformed_files_with_value_error(tmp_path, text):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "):
        read_trajectory(path)


@pytest.mark.parametrize("blank_lines", [0, 2])
@pytest.mark.parametrize(
    "last_record, error",
    [(b'{"step": 2, "label": "ap', ", column 22: "), (b'{"step": 2, "label": "\xff"}', ": 'utf-8' codec can't decode")],
    ids=["cut_short", "not_utf8"],
)
def test_read_trajectory_names_the_file_line_of_a_bad_record(tmp_path, blank_lines, last_record, error):
    records = ['{"step": 0}', *[""] * blank_lines, '{"step": 1}']
    path = tmp_path / "bad.jsonl"
    path.write_bytes(trajectory_text({"steps": 3}, records=records).encode() + last_record + b"\n")
    line = 4 + blank_lines  # the header is line 1
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: invalid JSON at line {line}{re.escape(error)}"):
        read_trajectory(path)


def test_read_summary_names_the_file_of_a_syntax_error(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text('{"kind": "summary",\n "task": }\n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: invalid JSON at line 2, column 10: "):
        read_summary(path)


def test_read_summary_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "summary.json"
    path.write_bytes(b'{"kind": "summary",\n "task": "\xff"}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: invalid JSON at line 2: 'utf-8' codec can't decode"):
        read_summary(path)


def short_door_run(tmp_path):
    """The output directory of a two-episode, six-step door run."""
    config, out = tmp_path / "config.json", tmp_path / "runs"
    config.write_text('{"max_steps": 6}', encoding="utf-8")
    assert main(["run", "--task", "open_cabinet_door", "--seeds", "1..2", "--config", str(config), "--out", str(out),
                 "--quiet"]) == 0
    return out


def test_read_trajectory_frames_records_on_newline_alone(tmp_path):
    # U+2028, U+2029 and U+0085 may stand raw inside a JSON string; only "\n" ends a record
    log = short_door_run(tmp_path) / "open_cabinet_door_seed00001.jsonl"
    header, records = read_trajectory(log)
    header["plan"] = "a\u2028b\u2029c\x85d"
    text = "".join(json.dumps(doc, ensure_ascii=False) + "\n" for doc in [header, *records])
    log.write_text(text, encoding="utf-8")
    assert read_trajectory(log) == (header, records)


def test_read_trajectory_reads_a_crlf_copy_with_blank_lines(tmp_path):
    log = short_door_run(tmp_path) / "open_cabinet_door_seed00001.jsonl"
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(log.read_bytes().replace(b"\n", b"\r\n\r\n"))
    assert read_trajectory(crlf) == read_trajectory(log)


def test_fuzzed_trajectory_logs_read_or_raise_value_error(tmp_path):
    log = short_door_run(tmp_path) / "open_cabinet_door_seed00001.jsonl"
    data, lines = log.read_bytes(), [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    rng = random.Random("trajectory-fuzz")
    rejected = 0
    for i in range(200):
        if i % 2:
            log.write_bytes(mutate_bytes(rng, data))
        else:
            doc = mutate_json(rng, lines)
            log.write_text("".join(json.dumps(line) + "\n" for line in (doc if isinstance(doc, list) else [doc])), encoding="utf-8")
        try:
            read_trajectory(log)
        except ValueError:
            rejected += 1
    assert 0 < rejected < 200


def test_fuzzed_summaries_report_or_raise_value_error(tmp_path):
    summary = short_door_run(tmp_path) / "open_cabinet_door_summary.json"
    data, doc = summary.read_bytes(), json.loads(summary.read_text(encoding="utf-8"))
    rng = random.Random("summary-fuzz")
    rejected = 0
    for i in range(200):
        summary.write_bytes(mutate_bytes(rng, data) if i % 2 else json.dumps(mutate_json(rng, doc)).encode())
        try:
            rows = report_rows([read_summary(summary)])
        except ValueError:
            rejected += 1
            continue
        assert format_report_table(rows).count("\n") == 2
    assert 0 < rejected < 200


def test_report_rejects_trajectory_files(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--task", "open_cabinet_door", "--seeds", "1", "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    rc = main(["report", str(out / "open_cabinet_door_seed00001.jsonl")])
    assert rc == 1


@pytest.mark.parametrize(
    "entry_edit, config, extra",
    [
        ((0, "steps", "5"), None, []),
        ((1, "target", "target_x"), None, []),
        (None, {"dt": "0.05"}, []),
        (None, None, ["--jobs", "0"]),
        (None, "[" * 100000, []),
        (None, '{"dt": 0.1, nope}', []),
        (None, '{"max_steps": 1' + "0" * 5000 + "}", []),
        (None, None, ["--out", "{taken}"]),
        (None, None, ["--seeds", "1,2,1"]),
        (None, None, ["--seeds", "0..100000000000000000000"]),
        (None, None, ["--out", "{log_is_a_dir}"]),
        (None, None, ["--out", "{log_is_a_dir}", "--seeds", "0..3", "--jobs", "2"]),
        (None, None, ["--out", "{summary_is_a_dir}"]),
        (b"\xff{}", None, []),
        (None, b"\xff{}", []),
        (None, {"linear_velocity_scale": 1e308, "dt": 10}, []),
        (None, {"angular_velocity_scale": 1e308, "dt": 10}, []),
        (None, {"disturbance_std": 1e308}, []),
        (None, None, ["--seeds", "1..x"]),
        (None, {"linear_velocity_scale": 1e307, "dt": 10}, []),
        (None, {"disturbance_std": 1e307}, []),
        (None, {"dt": 100.0000001}, []),
        (None, {"max_steps": 10**6 + 1}, []),
        (None, None, ["--task", "nope"]),
        (None, None, ["--jobs", "two"]),
        (None, None, ["--bogus"]),
        (None, None, ["--task", "push_chair", "--plan", "{no_plan}", "--seeds", "1..3"]),
        (None, None, ["--task", "push_chair", "--plan", str(Path(PLAN_DATA_DIR) / "move_bucket.json")]),
        (None, {"friction": 0.5}, []),
    ],
    ids=[
        "string_steps", "door_goal_point_target", "string_dt", "zero_jobs", "config_nested_too_deep",
        "config_syntax_error", "config_overlong_integer",
        "out_is_a_file", "repeated_seed", "unbounded_seed_range", "log_path_is_a_directory",
        "log_path_is_a_directory_jobs2", "summary_path_is_a_directory",
        "plan_not_utf8", "config_not_utf8", "linear_step_overflows", "angular_step_overflows",
        "noise_bound_overflows", "seed_not_an_integer", "platform_overflows_over_an_episode",
        "joints_overflow_over_an_episode", "dt_past_envelope", "max_steps_past_envelope",
        "unknown_task", "jobs_not_an_integer", "unknown_option", "missing_plan_file", "plan_for_another_task",
        "unknown_config_key",
    ],
)
def test_run_rejects_bad_input_with_one_error_line(tmp_path, entry_edit, config, extra):
    out = tmp_path / "o"
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    no_plan = tmp_path / "no_such_plan.json"
    # output directories in which a path the run writes already exists as a directory
    log_is_a_dir, summary_is_a_dir = tmp_path / "log_is_a_dir", tmp_path / "summary_is_a_dir"
    (log_is_a_dir / "open_cabinet_door_seed00001.jsonl").mkdir(parents=True)
    (summary_is_a_dir / "open_cabinet_door_summary.json").mkdir(parents=True)
    extra = [
        arg.format(taken=taken, no_plan=no_plan, log_is_a_dir=log_is_a_dir, summary_is_a_dir=summary_is_a_dir)
        for arg in extra
    ]
    argv = ["run", "--task", "open_cabinet_door", "--seeds", "1", "--out", str(out), "--quiet", *extra]
    plan_path, config_path = tmp_path / "plan.json", tmp_path / "config.json"
    if isinstance(entry_edit, bytes):  # the plan file's raw bytes
        plan_path.write_bytes(entry_edit)
        argv += ["--plan", str(plan_path)]
    elif entry_edit is not None:
        doc = json.loads((Path(PLAN_DATA_DIR) / "open_cabinet_door.json").read_text(encoding="utf-8"))
        index, key, value = entry_edit
        doc["entries"][index][key] = value
        plan_path.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--plan", str(plan_path)]
    if config is not None:
        text = json.dumps(config) if isinstance(config, dict) else config
        config_path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv += ["--config", str(config_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(heurobot.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "heurobot.cli", *argv], capture_output=True, encoding="utf-8", env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    if entry_edit is not None:  # a plan file that does not decode or parse names its file first
        assert proc.stderr.startswith(f"error: {plan_path}: ")
    if config is not None:  # a config file that does not decode or check names its file first
        assert proc.stderr.startswith(f"error: {config_path}: ")
    if str(no_plan) in extra:  # a plan file that does not open is named too
        assert no_plan.name in proc.stderr
    assert not out.exists()
    assert taken.read_text(encoding="utf-8") == "not a directory\n"

import copy
import json
import math
import pickle
import random
import re
from importlib import resources
from pathlib import Path

import pytest

from heurobot.core import DUAL_ARM, SINGLE_ARM, TASK_ACTIONS, TASK_KINDS, read_json
from heurobot.mockenv import EnvConfig, MockEnv
from heurobot.orchestrator import run_episode
from heurobot.plans import (
    PLAN_DATA_DIR,
    Plan,
    PlanError,
    builtin_plan,
    eval_target,
    parse_plan,
    resolve,
)
from heurobot.subtasks import ArmStabilizer, MoveSteps, MoveTo
from heurobot.trajlog import trajectory_lines

from helpers import PLAN_SHAPE, bucket_attributes, chair_attributes, door_attributes, make_obs, robot_state


# ------------------------------------------------------------ builtin shape

@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_builtin_plan_entry_counts_and_kinds(task_kind):
    plan = builtin_plan(task_kind)
    expected_kinds, marker_pos = PLAN_SHAPE[task_kind]
    executable = [e.kind for e in plan.entries if e.kind != "stabilizer_on"]
    assert executable == expected_kinds
    markers = [i for i, e in enumerate(plan.entries) if e.kind == "stabilizer_on"]
    if marker_pos is None:
        assert markers == []
        assert len(plan.entries) == len(expected_kinds)
    else:
        assert markers == [marker_pos]
        assert len(plan.entries) == len(expected_kinds) + 1


def test_bucket_marker_sits_between_hold_and_lift():
    plan = builtin_plan("move_bucket")
    idx = next(i for i, e in enumerate(plan.entries) if e.kind == "stabilizer_on")
    assert plan.entries[idx - 1].kind == "move_steps" and "hold" in plan.entries[idx - 1].label
    assert plan.entries[idx + 1].kind == "move_steps" and "lift" in plan.entries[idx + 1].label


def test_builtin_plan_unknown_kind():
    with pytest.raises(PlanError):
        builtin_plan("juggle_plates")


# ------------------------------------------------------------- documents


def bundled_doc(task_kind):
    """The decoded JSON of a bundled plan file."""
    return json.loads((Path(PLAN_DATA_DIR) / f"{task_kind}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_packaged_plan_text_loads_to_the_builtin_plan(task_kind):
    bundled = resources.files("heurobot.plans").joinpath("data", f"{task_kind}.json").read_text("utf-8")
    assert parse_plan(json.loads(bundled)) == builtin_plan(task_kind)


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_builtin_plan_is_a_hashable_value(task_kind):
    plan = builtin_plan(task_kind)
    assert hash(plan) == hash(builtin_plan(task_kind))
    move_steps = [e for e in plan.entries if isinstance(e, MoveSteps) and any(e.vector)]
    assert move_steps
    for entry in move_steps:
        with pytest.raises(TypeError):
            entry.vector[0] = 0.9
    assert builtin_plan(task_kind) == plan


# ---------------------------------------------------------------- loading


@pytest.mark.parametrize(
    "data, error",
    [
        (b"", "invalid JSON at line 1, column 1: "),
        (b"   \n  ", "invalid JSON at line 2, column 3: "),
        (b"{nope", "invalid JSON at line 1, column 2: "),
        (b"[" * 100_000, "invalid JSON: nested too deeply to parse"),
        (b'{"task_kind": "push_chair", "entries": [{"kind": "move_steps", "steps": 1' + b"0" * 5000 + b"}]}",
         "invalid JSON: "),
    ],
    ids=["empty", "blank", "syntax_error", "nested_too_deep", "overlong_integer"],
)
def test_read_json_names_the_plan_file_that_is_not_json(tmp_path, data, error):
    path = tmp_path / "plan.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}") as excinfo:
        read_json(path, parse_plan)
    assert type(excinfo.value) is ValueError


@pytest.mark.parametrize(
    "text, error",
    [
        ("[]", "plan document must be a JSON object"),
        ('{"task_kind": "push_chair", "entries": {}}', "requires an 'entries' list"),
        ('{"task_kind": "push_chair", "entries": [1]}', "entry 0: expected an object, got int"),
    ],
    ids=["not_object", "entries_not_list", "entry_not_object"],
)
def test_load_rejects_documents_and_entries_of_the_wrong_shape(text, error):
    with pytest.raises(PlanError, match=re.escape(error)):
        parse_plan(json.loads(text))


def test_read_json_names_the_plan_file_of_a_bad_entry(tmp_path):
    doc = bundled_doc("open_cabinet_door")
    doc["entries"][1]["velocity"] = 2.0
    path = tmp_path / "door.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(PlanError, match=rf"^{re.escape(str(path))}: entry 1 \("):
        read_json(path, parse_plan)


def test_load_duplicate_stabilizer_marker():
    text = """
    {"task_kind": "move_bucket", "entries": [
      {"kind": "stabilizer_on", "label": "a"},
      {"kind": "stabilizer_on", "label": "b"}
    ]}
    """
    with pytest.raises(PlanError, match="duplicate"):
        parse_plan(json.loads(text))


@pytest.mark.parametrize("task_kind, index_map", [("open_cabinet_door", SINGLE_ARM), ("move_bucket", DUAL_ARM)])
def test_marker_entry_holds_its_tasks_action_layout(task_kind, index_map):
    doc = {"task_kind": task_kind, "entries": [{"kind": "stabilizer_on", "label": "hold"}]}
    (marker,) = parse_plan(doc).entries
    assert type(marker) is ArmStabilizer and marker.label == "hold"
    assert marker.index_map is index_map


def test_load_unknown_selector_names_entry():
    text = """
    {"task_kind": "push_chair", "entries": [
      {"kind": "move_to", "label": "x", "slot": "platform_x", "selector": "chakra", "target": 1.0,
       "velocity": 0.5, "threshold": 0.01}
    ]}
    """
    with pytest.raises(PlanError, match=r"^entry 0 \('x'\): unknown selector 'chakra'$"):
        parse_plan(json.loads(text))


def test_load_unknown_slot_and_missing_steps():
    with pytest.raises(PlanError, match="unknown action slot"):
        parse_plan(json.loads('{"task_kind": "push_chair", "entries": [{"kind": "move_steps", "label": "a", "action": {"px": 1}, "steps": 2}]}'))
    with pytest.raises(PlanError, match="steps"):
        parse_plan(json.loads('{"task_kind": "push_chair", "entries": [{"kind": "move_steps", "label": "a"}]}'))


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_bundled_entry_without_any_one_key_fails_naming_it(task_kind):
    # nothing is filled in: every key of every entry is required
    for i, entry in enumerate(bundled_doc(task_kind)["entries"]):
        for key in sorted(entry):
            doc = bundled_doc(task_kind)
            del doc["entries"][i][key]
            where = f"entry {i} ({None if key == 'label' else entry['label']!r})"
            problem = "unknown kind None" if key == "kind" else f"missing keys [{key!r}] for kind {entry['kind']!r}"
            message = f"{where}: {problem}"
            with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
                parse_plan(doc)


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_bundled_move_to_steps_stay_inside_their_threshold_band(task_kind):
    # MoveTo terminates only if one step cannot jump across the band: velocity * scale * dt < 2 * threshold
    config = EnvConfig()
    move_tos = [e for e in builtin_plan(task_kind).entries if isinstance(e, MoveTo)]
    assert move_tos
    for entry in move_tos:
        rotation = entry.slot == "platform_rotation"
        scale = config.angular_velocity_scale if rotation else config.linear_velocity_scale
        assert entry.velocity * scale * config.dt < 2 * entry.threshold, entry.label


ONE_ARM_MOVE_TOS = {
    "task_kind": "open_cabinet_door",
    "entries": [
        {"kind": "move_to", "label": "grip", "slot": "left_fingers", "selector": "finger_height",
         "target": 0.5, "velocity": 1, "threshold": 0.02},
        {"kind": "move_to", "label": "bend", "slot": "left_arm_joint_7", "selector": "left_arm_joint_7",
         "target": -0.25, "velocity": 0.125, "threshold": 0.01},
    ],
}


@pytest.mark.parametrize("task_kind", [*TASK_KINDS, "hand_written_one_arm"])
def test_parsed_move_to_holds_its_two_one_hot_actions(task_kind):
    # every action a MoveTo can emit is built at parse time, one-hot at its slot
    plan = parse_plan(ONE_ARM_MOVE_TOS) if task_kind == "hand_written_one_arm" else builtin_plan(task_kind)
    index_map = TASK_ACTIONS[plan.task_kind]
    move_tos = [e for e in plan.entries if isinstance(e, MoveTo)]
    assert move_tos
    for entry in move_tos:
        index = index_map.index_of(entry.slot)
        for action, value in ((entry.plus, entry.velocity), (entry.minus, -entry.velocity)):
            assert action == index_map.build({entry.slot: value})
            assert [i for i, v in enumerate(action) if v != 0.0] == [index]
            assert action[index] == value


def test_load_rejects_unknown_entry_keys_and_kinds():
    with pytest.raises(PlanError, match="unknown keys"):
        parse_plan(json.loads('{"task_kind": "push_chair", "entries": [{"kind": "move_steps", "label": "a", "steps": 2, "zoom": 1}]}'))
    with pytest.raises(PlanError, match="unknown kind"):
        parse_plan(json.loads('{"task_kind": "push_chair", "entries": [{"kind": "teleport", "label": "a"}]}'))


@pytest.mark.parametrize(
    "version, error",
    [
        ("99", "schema_version"),
        ("true", "schema_version"),
        ("1.0", "schema_version"),
        ('1, "schema_verison": 2', r"unknown plan keys \['schema_verison'\]"),  # the document's own keys are checked too
        ('1, "comment": "x"', r"unknown plan keys \['comment'\]"),
    ],
    ids=["99", "true", "1.0", "misspelled_key", "comment_key"],
)
def test_load_rejects_bad_schema_version(version, error):
    with pytest.raises(PlanError, match=error):
        parse_plan(json.loads('{"schema_version": %s, "task_kind": "push_chair", "entries": []}' % version))


def test_integer_and_float_plan_numbers_log_the_same_bytes():
    # velocity 1 and 1.0 are equal plans, so the actions they log must be equal bytes too
    logs = []
    for velocity in (1, 1.0):
        doc = bundled_doc("open_cabinet_door")
        for entry in doc["entries"]:
            if entry["kind"] == "move_to":
                entry["velocity"] = velocity
        result = run_episode("open_cabinet_door", parse_plan(doc), None, seed=0)
        logs.append(trajectory_lines(result, EnvConfig(), "plan.json"))
    assert logs[0] == logs[1]


def test_validate_rejects_bad_velocity_threshold_and_task():
    entry = {"kind": "move_to", "label": "x", "slot": "platform_x", "selector": "platform_x", "target": 1.0,
             "velocity": 2.0, "threshold": 0.01}
    with pytest.raises(PlanError, match="velocity"):
        parse_plan({"task_kind": "push_chair", "entries": [entry]})
    # velocity lies in (0, 1] and threshold in (0, inf): 0 is out, the smallest float is in
    for key in ("velocity", "threshold"):
        edge = dict(entry, velocity=0.5)
        edge[key] = 0
        with pytest.raises(PlanError, match=key):
            parse_plan({"task_kind": "push_chair", "entries": [edge]})
        edge[key] = 5e-324
        assert getattr(parse_plan({"task_kind": "push_chair", "entries": [edge]}).entries[0], key) == 5e-324
    entry = {"kind": "move_to", "label": "x", "slot": "platform_x", "selector": "platform_x", "target": 1.0,
             "velocity": 0.5, "threshold": -1.0}
    with pytest.raises(PlanError, match="threshold"):
        parse_plan({"task_kind": "push_chair", "entries": [entry]})
    with pytest.raises(PlanError, match="task kind"):
        parse_plan({"task_kind": "fold_laundry", "entries": [entry]})
    with pytest.raises(PlanError, match="no entries"):
        parse_plan({"task_kind": "push_chair", "entries": []})


def test_validate_rejects_single_arm_plan_using_right_arm():
    entry = {"kind": "move_steps", "label": "a", "action": {"right_fingers": 0.5}, "steps": 3}
    with pytest.raises(PlanError, match="right_fingers"):
        parse_plan({"task_kind": "open_cabinet_door", "entries": [entry]})


@pytest.mark.parametrize(
    "task_kind, index, key, value",
    [
        ("push_chair", 0, "steps", "5"),
        ("push_chair", 0, "steps", 2.5),
        ("push_chair", 0, "steps", True),
        ("push_chair", 0, "action", {"platform_x": None}),
        ("push_chair", 0, "action", {"platform_x": "0.2"}),
        ("push_chair", 0, "action", {"platform_x": math.inf}),
        ("push_chair", 0, "label", ["approach"]),
        ("push_chair", 0, "slot", "platform_x"),  # move_steps takes no slot
        ("push_chair", 1, "velocity", "0.5"),
        ("push_chair", 1, "velocity", True),
        ("push_chair", 1, "threshold", "x"),
        ("push_chair", 1, "threshold", math.nan),
        ("push_chair", 1, "selector", ["finger_height"]),
        ("push_chair", 1, "target", True),
        ("push_chair", 1, "target", math.inf),
        ("push_chair", 1, "target", "target_edge_x:nan"),
        ("push_chair", 1, "target", "target_edge_x:far"),
        ("push_chair", 1, "target", "target_edge_x"),  # the :D offset is required
        ("open_cabinet_door", 1, "target", "target_x"),
        ("open_cabinet_door", 1, "target", "facing_yaw:target"),
        ("open_cabinet_door", 1, "target", "target_edge_y:0.35"),
        ("open_cabinet_door", 1, "selector", "right_arm_joint_0"),  # single-arm robot
        ("open_cabinet_door", 1, "selector", "left_arm_joint_8"),  # joints run 0-7
    ],
)
def test_load_rejects_mistyped_fields_and_goal_point_targets_without_goal(task_kind, index, key, value):
    doc = bundled_doc(task_kind)
    doc["entries"][index][key] = value
    with pytest.raises(PlanError, match=f"entry {index}"):
        parse_plan(doc)


FUZZ_VALUES = ("5", "x", "", "target_x", "facing_yaw:target", "target_edge_x:nan", True, False, None,
               [1], {"platform_x": 0.2}, math.nan, math.inf, -1, 0, 2.5)


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_fuzzed_builtin_plans_fail_typed_or_run(task_kind):
    rng = random.Random(f"plan-fuzz:{task_kind}")
    accepted = 0
    for _ in range(60):
        doc = bundled_doc(task_kind)
        entry = rng.choice(doc["entries"])
        key = rng.choice(sorted(entry))
        value = rng.choice(FUZZ_VALUES)
        roll = rng.random()
        if roll < 0.2:
            del entry[key]
        elif key == "action" and roll < 0.6:
            entry["action"][rng.choice(sorted(entry["action"]))] = value
        else:
            entry[key] = value
        try:
            plan = parse_plan(doc)
        except PlanError:
            continue
        accepted += 1
        run_episode(task_kind, plan, None, seed=rng.randrange(1000))
    assert accepted > 0


# -------------------------------------------------------------- resolution


def door_obs(handle=(0.7, 0.0, 0.62)):
    return make_obs(obj=door_attributes(handle=handle))


def test_resolve_copies_handle_height_into_target():
    plan = builtin_plan("open_cabinet_door")
    entries = resolve(plan, door_obs(handle=(0.7, 0.0, 0.62)))
    assert isinstance(plan.entries[2], MoveTo)
    assert entries[2].target == 0.62


def test_resolve_facing_yaw_is_bearing_to_handle():
    # handle at 30 degrees from a robot at the origin facing +x
    handle = (math.cos(math.radians(30)), math.sin(math.radians(30)), 0.5)
    plan = builtin_plan("open_cabinet_door")
    assert resolve(plan, door_obs(handle=handle))[1].target == pytest.approx(0.5236, abs=1e-4)


def test_resolve_object_kind_mismatch():
    plan = builtin_plan("move_bucket")
    with pytest.raises(PlanError, match="chair"):
        resolve(plan, make_obs(obj=chair_attributes()))


def test_resolve_is_deterministic():
    plan = builtin_plan("move_bucket")
    obs = make_obs(obj=bucket_attributes())
    assert resolve(plan, obs) == resolve(plan, obs)


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_resolve_gives_each_move_to_its_evaluated_target(task_kind):
    plan = builtin_plan(task_kind)
    for seed in range(5):
        obs, _ = MockEnv(task_kind).reset(seed)
        entries = resolve(plan, obs)
        assert len(entries) == len(plan.entries)
        for parsed, entry in zip(plan.entries, entries):
            if isinstance(parsed, MoveTo):
                assert type(entry) is MoveTo and entry._replace(target=parsed.target) == parsed
                assert type(entry.target) is float and math.isfinite(entry.target)
            else:
                assert entry is parsed
        # an evaluated target is a literal one: resolving again changes nothing
        assert resolve(Plan(task_kind, entries), obs) == entries


def test_resolve_keeps_literal_targets_and_the_marker():
    text = """
    {"task_kind": "push_chair", "entries": [
      {"kind": "move_to", "label": "spin", "slot": "platform_rotation", "selector": "platform_yaw", "target": 0.5,
       "velocity": 0.3, "threshold": 0.02},
      {"kind": "move_to", "label": "slide", "slot": "platform_y", "selector": "platform_y", "target": -0.25,
       "velocity": 0.3, "threshold": 0.01},
      {"kind": "stabilizer_on", "label": "hold_still"}
    ]}
    """
    plan = parse_plan(json.loads(text))
    entries = resolve(plan, make_obs(obj=chair_attributes()))
    assert [entry.target for entry in entries[:2]] == [0.5, -0.25]
    assert entries == plan.entries and entries[2] is plan.entries[2]
    assert entries[2] == ArmStabilizer("hold_still", DUAL_ARM)


def test_eval_target_vocabulary():
    obs = make_obs(obj=bucket_attributes(target=(1.0, 0.0)))
    assert eval_target(0.62, obs) == 0.62
    assert eval_target("target_x", obs) == 1.0
    assert eval_target("target_y", obs) == 0.0
    # robot at origin, target at (1, 0): edge point backs off along +x
    assert eval_target("target_edge_x:0.35", obs) == pytest.approx(0.65)
    assert eval_target("target_edge_y:0.35", obs) == pytest.approx(0.0)
    with pytest.raises(PlanError, match="coincides"):
        eval_target("target_edge_x:0.35", make_obs(obj=bucket_attributes(target=(0.0, 0.0))))
    with pytest.raises(PlanError):
        eval_target("target_x", door_obs())  # no target point on a door
    with pytest.raises(PlanError):
        eval_target("perihelion", obs)


def test_eval_target_facing_yaw_avoids_wrap_crossing():
    # target behind the robot: expression must stay continuous with the yaw
    robot = robot_state(platform_yaw=3.0)
    obs = make_obs(robot=robot, obj=bucket_attributes(target=(-2.0, -0.1)))
    target = eval_target("facing_yaw:target", obs)
    assert abs(target - 3.0) < math.pi


def test_move_steps_parse_builds_named_action():
    plan = builtin_plan("open_cabinet_door")
    grasp = plan.entries[5]
    assert isinstance(grasp, MoveSteps)
    assert grasp.steps == 15
    assert grasp.vector[12] == 0.6  # left_fingers slot
    assert sum(1 for v in grasp.vector if v != 0.0) == 1


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_builtin_plan_survives_pickling(task_kind):
    # pool workers receive the plan pickled: named tuples and numbers all the way down, never callables
    plan = builtin_plan(task_kind)
    for value in (plan, TASK_ACTIONS[task_kind]):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)

import concurrent.futures
import functools
import hashlib
import os
import pickle
from typing import NamedTuple

import pytest

from heurobot import orchestrator
from heurobot.core import TASK_KINDS
from heurobot.mockenv import EnvConfig, MockEnv
from heurobot.orchestrator import replay_actions, run_batch, run_episode
from heurobot.plans import Plan, PlanError, StabilizerOn, builtin_plan, parse_plan
from heurobot.subtasks import MoveSteps, MoveTo
from heurobot.trajlog import trajectory_lines


def subtask_trace(result):
    """Index of the plan entry that produced each step's action."""
    return tuple(rec.subtask_index for rec in result.trajectory)


def idle_plan(task_kind="open_cabinet_door", steps=5):
    return parse_plan({"task_kind": task_kind, "entries": [{"kind": "move_steps", "label": "idle", "steps": steps}]})


def hopeless_plan(task_kind="open_cabinet_door"):
    # target far beyond anything reachable: never converges
    return parse_plan({
        "task_kind": task_kind,
        "entries": [
            {
                "kind": "move_to", "label": "chase_horizon", "slot": "platform_x",
                "selector": "platform_x", "target": 1.0e6, "velocity": 1.0, "threshold": 0.01,
            },
        ],
    })


def record_pid(directory, result):
    """Test writer: appends the calling process id to one file per seed."""
    with open(directory / f"seed{result.seed}", "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")


def record_digest(directory, result):
    """Test writer: appends the sha256 of the episode's log lines to one file per seed."""
    digest = hashlib.sha256("\n".join(trajectory_lines(result, EnvConfig(), "builtin")).encode()).hexdigest()
    with open(directory / f"seed{result.seed}", "a", encoding="utf-8") as fh:
        fh.write(f"{digest}\n")


def test_episode_stops_when_all_subtasks_finish():
    result = run_episode("open_cabinet_door", idle_plan(steps=5), None, seed=1)
    assert result.steps == 5
    assert not result.success
    assert subtask_trace(result) == (0, 0, 0, 0, 0)
    assert len(result.trajectory) == 5


def test_episode_caps_at_200_steps():
    result = run_episode("open_cabinet_door", hopeless_plan(), None, seed=1)
    assert result.steps == 200
    assert not result.success


def test_trace_is_monotone_and_covers_the_door_plan():
    plan = builtin_plan("open_cabinet_door")
    result = run_episode("open_cabinet_door", plan, None, seed=3)
    assert result.success
    trace = subtask_trace(result)
    assert all(a <= b for a, b in zip(trace, trace[1:]))
    assert set(trace) == set(range(7))


def test_marker_consumes_no_environment_step():
    plan = builtin_plan("move_bucket")
    result = run_episode("move_bucket", plan, None, seed=2)
    assert result.success
    marker_index = next(i for i, e in enumerate(plan.entries) if e.kind == "stabilizer_on")
    assert marker_index not in subtask_trace(result)
    assert len(subtask_trace(result)) == result.steps == len(result.trajectory)


def test_exactly_one_subtask_stepped_per_env_step():
    for task_kind in TASK_KINDS:
        plan = builtin_plan(task_kind)
        result = run_episode(task_kind, plan, None, seed=5)
        assert len(subtask_trace(result)) == result.steps
        assert all(plan.entries[i].kind != "stabilizer_on" for i in subtask_trace(result))


def test_stabilizer_silent_before_marker_active_after():
    plan = builtin_plan("move_bucket")
    marker_index = next(i for i, e in enumerate(plan.entries) if e.kind == "stabilizer_on")
    result = run_episode("move_bucket", plan, None, seed=4)
    before = [r for r in result.trajectory if r.subtask_index < marker_index]
    after = [r for r in result.trajectory if r.subtask_index > marker_index]
    assert before and after
    assert all(all(v == 0.0 for v in r.stabilizer_action) for r in before)
    assert any(any(v != 0.0 for v in r.stabilizer_action) for r in after)


def test_final_action_is_clamped_sum_of_main_and_stabilizer():
    from heurobot.core import add, clamp

    result = run_episode("push_chair", builtin_plan("push_chair"), None, seed=6)
    for rec in result.trajectory:
        assert rec.action == clamp(add(rec.main_action, rec.stabilizer_action))


def test_same_seed_reproduces_the_episode_exactly():
    plan = builtin_plan("open_cabinet_drawer")
    a = run_episode("open_cabinet_drawer", plan, None, seed=17)
    b = run_episode("open_cabinet_drawer", plan, None, seed=17)
    assert a == b


def test_step_records_carry_the_pre_action_observation():
    result = run_episode("open_cabinet_door", builtin_plan("open_cabinet_door"), None, seed=8)
    assert [r.obs.step_index for r in result.trajectory] == list(range(result.steps))


def test_plan_task_mismatch_is_rejected():
    with pytest.raises(ValueError):
        run_episode("push_chair", builtin_plan("move_bucket"), None, seed=0)


@pytest.mark.parametrize("fail_at", [0, 2])
def test_subtask_errors_become_failed_results(monkeypatch, fail_at):
    real_step = MockEnv.step

    def failing_step(self, action):
        if self.state.step == fail_at:
            raise RuntimeError("actuator fault")
        return real_step(self, action)

    monkeypatch.setattr(MockEnv, "step", failing_step)
    result = run_episode("open_cabinet_door", idle_plan(), None, seed=1)
    assert not result.success
    assert result.error is not None and f"step {fail_at}" in result.error
    assert result.steps == fail_at
    # only the steps the env completed are recorded
    assert subtask_trace(result) == (0,) * fail_at


# Hand-built door plans (13 action dimensions): a ``Plan`` built without the
# parser, to pin how the runner moves from one entry to the next.
DOOR_DIM = 13


def idle(steps, label="idle"):
    return MoveSteps(label, steps, (0.0,) * DOOR_DIM)


class RecordingEntry(NamedTuple):
    """An entry that records every step it is asked for and finishes at once."""

    label: str
    calls: list

    def step(self, obs, target, taken):
        self.calls.append(taken)
        return (0.0,) * DOOR_DIM, True


def test_marker_as_first_entry_stabilizes_from_step_zero():
    result = run_episode("open_cabinet_door", Plan("open_cabinet_door", (StabilizerOn("hold"), idle(3))), seed=1)
    assert result.error is None
    assert subtask_trace(result) == (1, 1, 1)
    assert any(v != 0.0 for v in result.trajectory[0].stabilizer_action)


@pytest.mark.parametrize("before, trace", [((), ()), ((idle(3),), (0, 0, 0))], ids=["marker_only", "after_idle"])
def test_marker_as_last_entry_takes_no_step_and_raises_nothing(before, trace):
    result = run_episode("open_cabinet_door", Plan("open_cabinet_door", (*before, StabilizerOn("hold"))), seed=1)
    assert result.error is None and not result.success
    assert subtask_trace(result) == trace
    assert all(v == 0.0 for rec in result.trajectory for v in rec.stabilizer_action)


def test_entry_finishing_on_the_last_allowed_step_ends_the_episode():
    later = RecordingEntry("later", [])
    plan = Plan("open_cabinet_door", (idle(3), later))
    result = run_episode("open_cabinet_door", plan, EnvConfig(max_steps=3), seed=1)
    assert result.error is None
    assert subtask_trace(result) == (0, 0, 0)
    assert later.calls == []


def test_error_in_an_entry_stops_every_later_entry():
    broken = MoveTo("broken", "platform_x", "no_such_selector", 0.0, 0.5, 0.01, 0, DOOR_DIM)
    later = RecordingEntry("later", [])
    result = run_episode("open_cabinet_door", Plan("open_cabinet_door", (idle(2), broken, later)), seed=1)
    assert result.error == "step 2: 'no_such_selector'"
    assert subtask_trace(result) == (0, 0)
    assert later.calls == []


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_replay_reproduces_logged_observations(task_kind):
    result = run_episode(task_kind, builtin_plan(task_kind), None, seed=23)
    actions = [rec.action for rec in result.trajectory]
    assert [r.obs for r in result.trajectory] == replay_actions(task_kind, None, 23, actions)


# ------------------------------------------------------------------ batch


def test_batch_of_unsolvable_episodes_has_zero_success_rate():
    batch = run_batch("open_cabinet_door", idle_plan(), None, list(range(1, 21)))
    assert batch.success_rate == 0.0
    assert batch.mean_steps == 5.0


def test_batch_with_repeated_seed_is_ten_identical_results(tmp_path):
    write = functools.partial(record_digest, tmp_path)
    batch = run_batch("push_chair", builtin_plan("push_chair"), None, [9] * 10, write=write)
    assert len(batch.results) == 10
    assert all(r == batch.results[0] for r in batch.results)
    digests = (tmp_path / "seed9").read_text(encoding="utf-8").split()
    assert len(digests) == 10 and len(set(digests)) == 1


def test_batch_reports_sorted_by_seed():
    batch = run_batch("open_cabinet_door", idle_plan(), None, [5, 1, 3])
    assert [r.seed for r in batch.results] == [1, 3, 5]


def test_batch_requires_seeds():
    with pytest.raises(ValueError):
        run_batch("open_cabinet_door", idle_plan(), None, [])


@pytest.mark.parametrize("seed", [True, 1.5, "1", 10**5000], ids=["bool", "float", "str", "int_too_long_to_print"])
def test_batch_checks_every_seed_before_running_any(seed):
    written = []
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_batch("open_cabinet_door", idle_plan(), None, [2, seed], write=written.append)
    assert written == []


@pytest.mark.parametrize("jobs", [0, -1])
def test_batch_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_batch("open_cabinet_door", idle_plan(), None, [1], jobs=jobs)


@pytest.mark.parametrize("jobs", [True, 2.5, "2"], ids=["bool", "float", "str"])
def test_batch_rejects_jobs_that_is_not_an_int(monkeypatch, jobs):
    started, written = [], []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: started.append(max_workers))
    with pytest.raises(ValueError, match="integer jobs"):
        run_batch("open_cabinet_door", idle_plan(), None, [1, 2, 3], jobs=jobs, write=written.append)
    assert written == [] and started == []


def test_resolve_error_fails_its_episode_not_the_batch(monkeypatch):
    real_resolve = orchestrator.resolve
    calls = []

    def resolve_failing_second_episode(plan, obs):
        calls.append(obs)
        if len(calls) == 2:
            raise PlanError("target point coincides with the robot start position")
        return real_resolve(plan, obs)

    monkeypatch.setattr(orchestrator, "resolve", resolve_failing_second_episode)
    plan = builtin_plan("open_cabinet_door")
    batch = run_batch("open_cabinet_door", plan, None, [1, 2, 3])
    failed = batch.results[1]
    assert (failed.seed, failed.success, failed.steps) == (2, False, 0)
    assert failed.trajectory == ()
    assert failed.error is not None and "coincides" in failed.error
    assert all(r.success and r.error is None for r in (batch.results[0], batch.results[2]))
    assert batch.success_rate == pytest.approx(2 / 3)


def test_batch_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers even on a one-CPU host
    plan = builtin_plan("open_cabinet_door")
    batches, digests = [], []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        write = functools.partial(record_digest, out)
        batches.append(run_batch("open_cabinet_door", plan, None, [1, 2, 3, 4], jobs=jobs, write=write))
        digests.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert batches[0] == batches[1]
    assert len(digests[0]) == 4 and digests[0] == digests[1]


@pytest.fixture(scope="module")
def records():
    plan = builtin_plan("move_bucket")
    result = run_episode("move_bucket", plan, seed=3)
    env = MockEnv("move_bucket")
    env.reset(3)
    return {
        "Observation": (result.trajectory[0].obs, "step_index"),
        "StepRecord": (result.trajectory[0], "action"),
        "EpisodeResult": (result, "success"),
        "MoveTo": (next(e for e in plan.entries if e.kind == "move_to"), "target"),
        "EnvConfig": (env.config, "dt"),
        "Layout": (env.state.layout, "robot_xy"),
    }


@pytest.mark.parametrize("name", ["Observation", "StepRecord", "EpisodeResult", "MoveTo", "EnvConfig", "Layout"])
def test_records_refuse_assignment(records, name):
    record, field = records[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_custom_env_config_flows_through():
    cfg = EnvConfig(max_steps=30)
    result = run_episode("open_cabinet_door", hopeless_plan(), cfg, seed=1)
    assert result.steps == 30


@pytest.mark.parametrize("writer", [False, True], ids=["no_writer", "writer"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_results_never_carry_trajectories(tmp_path, monkeypatch, jobs, writer):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers even on a one-CPU host
    plan = builtin_plan("move_bucket")
    write = functools.partial(record_pid, tmp_path) if writer else None
    batch = run_batch("move_bucket", plan, None, [4, 1, 3], jobs=jobs, write=write)
    assert batch.results == tuple(run_episode("move_bucket", plan, None, s)._replace(trajectory=()) for s in (1, 3, 4))
    assert all(len(pickle.dumps(r)) < 512 for r in batch.results)


def test_writer_receives_each_full_episode():
    plan = builtin_plan("open_cabinet_door")
    written = []
    run_batch("open_cabinet_door", plan, None, [2, 1], write=written.append)
    assert written == [run_episode("open_cabinet_door", plan, None, s) for s in (2, 1)]


def test_parallel_writer_runs_once_per_seed_and_never_in_the_parent(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers even on a one-CPU host
    seeds = [2, 7, 5, 1]
    run_batch("open_cabinet_door", idle_plan(), None, seeds, jobs=2, write=functools.partial(record_pid, tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"seed{s}" for s in seeds)
    for seed in seeds:
        pids = (tmp_path / f"seed{seed}").read_text(encoding="utf-8").split()
        assert len(pids) == 1 and int(pids[0]) != os.getpid()


@pytest.fixture
def recording_pool(monkeypatch):
    """Puts a stand-in for ProcessPoolExecutor in place; returns the worker count of each pool it built."""
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the worker count, runs jobs in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


def test_batch_never_starts_more_workers_than_seeds(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run_batch("open_cabinet_door", idle_plan(), None, [1], jobs=64)
    assert recording_pool == []
    batch = run_batch("open_cabinet_door", idle_plan(), None, [1, 2, 3], jobs=64)
    assert recording_pool == [3]
    assert [r.seed for r in batch.results] == [1, 2, 3]


@pytest.mark.parametrize("cpus, started", [(2, [2]), (1, []), (None, [])], ids=["two", "one", "unknown"])
def test_batch_never_starts_more_workers_than_cpus(recording_pool, monkeypatch, cpus, started):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    batch = run_batch("open_cabinet_door", idle_plan(), None, [1, 2, 3, 4, 5], jobs=100_000)
    assert recording_pool == started
    assert [r.seed for r in batch.results] == [1, 2, 3, 4, 5]

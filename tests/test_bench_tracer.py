"""The benchmark's span tracer still fits the package it patches.

``bench/tracer.py`` patches heurobot's functions by name, so a renamed traced
name breaks ``bench/run.py --trace 1``, and a step inlined past a patched
method silently zeroes that method's per-layer rows. Its per-layer figures
also show how often an action is clamped: once per environment step, in the
runner.
"""

import sys
from pathlib import Path

from heurobot.core import TASK_KINDS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_episodes_clamp_once_per_env_step(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import setup_probe
    from tracer import Tracer

    hb = setup_probe.import_heurobot()
    tracer = Tracer()
    try:
        tracer.install(hb, sys.modules["heurobot"])
        results = [hb.orchestrator.run_episode(task, hb.plans.builtin_plan(task), None, 0) for task in TASK_KINDS]
    finally:
        tracer.uninstall()
    values = tracer.per_layer(len(TASK_KINDS), 0.0, 0.0)
    assert values["mockenv.step.calls"] > 0
    assert values["core.clamp.calls"] == values["mockenv.step.calls"]
    assert values["subtasks.move_to.calls"] > 0
    assert values["subtasks.stabilizer.calls"] > 0
    assert 0 < values["subtasks.stabilizer.active_ratio"] <= 1
    # the ratio counts the nonzero slots of the action vector ``step`` returns, so it equals a recount of the logs
    active = stabilized_slots = 0
    for task, result in zip(TASK_KINDS, results):
        kinds = [e.kind for e in hb.plans.builtin_plan(task).entries]
        marker = kinds.index("stabilizer_on") if "stabilizer_on" in kinds else len(kinds)
        for rec in result.trajectory:
            if rec.subtask_index > marker:
                active += sum(1 for v in rec.stabilizer_action if v != 0.0)
                stabilized_slots += sum(map(len, hb.core.TASK_ACTIONS[task].joint_slots))
    assert values["subtasks.stabilizer.active_ratio"] == active / stabilized_slots
    assert values["mockenv.noise_draws"] > 0
    assert tracer.stats["subtasks.move_steps"][0] > 0
    assert tracer.stats["plans.resolve"][0] == len(TASK_KINDS)

"""Closed-loop episode runner.

An outer loop runs the plan entries in order, each in an inner loop of its
own. The ``stabilizer_on`` marker (an ``ArmStabilizer``) switches the
stabilizer on at the current pose and consumes no environment step. Any
other entry steps until it reports done: each step it produces one action,
the stabilizer contribution (once its marker has been passed) is added, the
sum is clamped and handed to the environment; this is the only place an
action is saturated. Episodes stop on task success, on the step cap, or when
every entry has finished. No entry keeps state: the outer loop holds the
targets ``resolve`` evaluated and the observation at the marker, the inner
loop the steps its entry has taken, and the records the previous observation
the stabilizer reads.
A plan that cannot be resolved against the first observation, or an error
inside a step, fails that episode with its ``error`` set; it never ends the
batch. Each ``StepRecord`` keeps the observation its sub-task saw, so the
step loop, the logs and replay share one immutable snapshot per step.

``run_batch`` keeps outcomes only: every result it returns has an empty
``trajectory``, so no step record crosses the process boundary. A ``write``
callable receives each full episode in the process that ran it (a pool
worker at ``jobs > 1``); ``run_episode`` is the call that returns one.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

from .core import Action, Observation, add, clamp
from .mockenv import EnvConfig, MockEnv, check_seed
from .plans import Plan, resolve
from .subtasks import ArmStabilizer


class StepRecord(NamedTuple):
    """One trajectory line: the observation a sub-task saw and what it did."""

    label: str
    subtask_index: int
    action: Action  # consumed by the environment (clamped)
    main_action: Action  # sub-task output
    stabilizer_action: Action  # all zeros before the marker
    obs: Observation  # the snapshot the sub-task stepped on, before the action


class EpisodeResult(NamedTuple):
    task_kind: str
    seed: int
    success: bool
    steps: int
    trajectory: tuple[StepRecord, ...]
    error: str | None = None


class BatchResult(NamedTuple):
    task_kind: str
    results: tuple[EpisodeResult, ...]
    success_rate: float
    mean_steps: float


def run_episode(task_kind: str, plan: Plan, env_config: EnvConfig | None = None, seed: int = 0) -> EpisodeResult:
    if plan.task_kind != task_kind:
        raise ValueError(f"plan is for {plan.task_kind!r}, episode requested {task_kind!r}")
    env = MockEnv(task_kind, env_config)
    obs, done = env.reset(seed)
    zeros = (0.0,) * env.index_map.dim
    stabilizer: ArmStabilizer | None = None
    start = obs  # the observation at the marker, once it is passed
    records: list[StepRecord] = []
    error: str | None = None
    try:
        targets = resolve(plan, obs)
    except Exception as e:  # noqa: BLE001 - episode failures must not kill a batch
        targets, error = [], f"resolve: {e}"

    for idx, (entry, target) in enumerate(zip(plan.entries, targets)):
        if done or error is not None:
            break
        if isinstance(entry, ArmStabilizer):  # a plan has at most one
            stabilizer, start = entry, obs
            continue
        taken, finished = 0, False
        while not (finished or done):
            try:
                main, finished = entry.step(obs, target, taken)
                stab = stabilizer.step(obs, start, records[-1].obs if records else obs) if stabilizer is not None else zeros
                final = clamp(add(main, stab))
                record = StepRecord(entry.label, idx, final, main, stab, obs)
                obs, done = env.step(final)
            except Exception as e:  # noqa: BLE001 - episode failures must not kill a batch
                error = f"step {len(records)}: {e}"
                break
            taken += 1
            records.append(record)

    return EpisodeResult(
        task_kind=task_kind,
        seed=seed,
        success=env.success() and error is None,
        steps=len(records),
        trajectory=tuple(records),
        error=error,
    )


def _episode_job(
    task_kind: str, plan: Plan, env_config: EnvConfig | None, write: Callable[[EpisodeResult], None] | None, seed: int
) -> EpisodeResult:
    result = run_episode(task_kind, plan, env_config, seed)
    if write is not None:
        write(result)
    return result._replace(trajectory=())


def run_batch(
    task_kind: str,
    plan: Plan,
    env_config: EnvConfig | None = None,
    seeds: list[int] | tuple[int, ...] = (),
    jobs: int = 1,
    write: Callable[[EpisodeResult], None] | None = None,
) -> BatchResult:
    """Run one episode per seed; results are reported sorted by seed.

    Every seed, and ``jobs``, is checked before the first episode runs: one
    that is not an int (a bool is not), or a ``jobs`` below 1, raises
    ``ValueError``.

    Each result keeps the outcome (seed, success, steps, error) with an empty
    ``trajectory``; call ``run_episode`` for a seed's steps. ``write``, if
    given, receives each full episode as soon as it ends, in the process that
    ran it; it must be picklable when ``jobs > 1``, and an error it raises
    ends the batch. At most ``len(seeds)`` workers are started, and no more
    than the CPUs this process may run on (``os.sched_getaffinity`` where the
    platform has it, else ``os.cpu_count()``), since the pool forks all of
    them at the first submit; a single worker runs in this process.
    """
    seeds = [check_seed(s) for s in seeds]
    if not seeds:
        raise ValueError("run_batch requires at least one seed")
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"run_batch requires an integer jobs >= 1, got {jobs!r}")
    job = partial(_episode_job, task_kind, plan, env_config, write)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(jobs, len(seeds), cpus)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here so serial runs never load it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(job, seeds))
    else:
        results = [job(s) for s in seeds]
    results.sort(key=lambda r: r.seed)
    successes = sum(1 for r in results if r.success)
    mean_steps = sum(r.steps for r in results) / len(results)
    return BatchResult(
        task_kind=task_kind,
        results=tuple(results),
        success_rate=successes / len(results),
        mean_steps=mean_steps,
    )


def replay_actions(
    task_kind: str,
    env_config: EnvConfig | None,
    seed: int,
    actions: list[Action] | tuple[Action, ...],
) -> list[Observation]:
    """Re-run a logged action sequence; returns the observation each action saw.

    With the same task, seed and config this reproduces the logged episode
    exactly, including the disturbance noise stream.
    """
    env = MockEnv(task_kind, env_config)
    obs, _ = env.reset(seed)
    seen = []
    for act in actions:
        seen.append(obs)
        obs, _ = env.step(act)
    return seen

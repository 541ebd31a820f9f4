"""Span tracer for the benchmark's traced run.

The tracer replaces the public functions of each heurobot module with
wrappers, from outside the package: every module attribute and class
attribute that is the original function is patched, so a name a module
imported (``from .core import clamp``) is traced as well. Each call records a
span (id, name, start, end, parent id, episode id). A layer's self time is
its spans' duration minus the time covered by traced child spans. Spans are
kept in memory (the first ``SPAN_CAP``; aggregates cover every span) and
written out by ``write_spans`` at the end of the run.

Only the process that created the tracer records: pool workers forked from
it call straight through, so worker-side spans are not collected.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import statistics
from array import array
from time import perf_counter

SPAN_CAP = 100_000

# Per-layer metrics, in print order: (name, unit). The window is time-boxed,
# so calls, self times and bytes are divided by the episodes of the traced
# window; plans.load is the set-up load alone, in s (the plan lookups inside
# the window, ``heurobot run`` calling ``builtin_plan`` once per call, are
# kept as spans but not in this figure).
PER_LAYER = (
    ("mockenv.step.calls", "count/episode"),
    ("mockenv.step.self_s", "s/episode"),
    ("mockenv.step.us_p50", "us"),
    ("mockenv.reset.self_s", "s/episode"),
    ("mockenv.noise_draws", "count/episode"),
    ("subtasks.stabilizer.calls", "count/episode"),
    ("subtasks.stabilizer.self_s", "s/episode"),
    ("subtasks.stabilizer.active_ratio", "ratio"),
    ("subtasks.move_to.calls", "count/episode"),
    ("subtasks.move_to.self_s", "s/episode"),
    ("subtasks.move_steps.self_s", "s/episode"),
    ("core.clamp.calls", "count/episode"),
    ("core.clamp.self_s", "s/episode"),
    ("core.add.self_s", "s/episode"),
    ("plans.resolve.self_s", "s/episode"),
    ("plans.load.self_s", "s"),
    ("orchestrator.run_episode.self_s", "s/episode"),
    ("orchestrator.run_batch.self_s", "s/episode"),
    ("orchestrator.result_pickle_bytes", "bytes/episode"),
    ("orchestrator.replay.self_s", "s/episode"),
    ("trajlog.trajectory_lines.self_s", "s/episode"),
    ("trajlog.write_trajectory.self_s", "s/episode"),
    ("trajlog.bytes_written", "bytes/episode"),
    ("trajlog.write_summary.self_s", "s/episode"),
    ("trajlog.read_trajectory.self_s", "s/episode"),
    ("trajlog.bytes_read", "bytes/episode"),
    ("cli.cmd_run.self_s", "s/episode"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.t0 = perf_counter()
        self.stack: list[list] = []  # open spans: [id, name, episode, child seconds]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, episode)
        self.dropped = 0
        self.next_id = 0
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.step_seconds = array("d")  # duration of every mockenv.step span
        self.joint_slots = 0  # stabilizer calls x arm joints
        self._grasping: dict[int, int] = {}  # id(env) -> arms grasping at its last observation
        self.active = True
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run untraced."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, *, episode=None, before=None, after=None, absorb_under=None, durations=None):
        """Traced stand-in for ``fn``.

        ``episode(args)`` names the episode a span belongs to (default: the
        parent's). ``before(args)`` runs ahead of the span; ``after(args,
        kwargs, result)`` runs after it, and its time is charged to no layer.
        A call made directly under an ``absorb_under`` span gets no span of
        its own: its time stays in that parent's self time.
        """
        stats = self.stats.setdefault(name, [0, 0.0])
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or os.getpid() != tracer.pid or (absorb_under and stack and stack[-1][1] == absorb_under):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if before is not None:
                before(args)
            span_id = tracer.next_id
            tracer.next_id += 1
            frame = [span_id, name, episode(args) if episode else (parent[2] if parent else None), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                stats[0] += 1
                stats[1] += took - frame[3]
                if durations is not None:
                    durations.append(took)
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (span_id, name, start - tracer.t0, end - tracer.t0, parent[0] if parent else None, frame[2])
                    )
                else:
                    tracer.dropped += 1
                if parent is not None:
                    parent[3] += took
            if after is not None:
                hook_start = perf_counter()
                after(args, kwargs, result)
                if parent is not None:
                    parent[3] += perf_counter() - hook_start
            return result

        return traced

    def _patch_everywhere(self, modules, owner, attr, wrapper) -> None:
        """Replace ``owner.attr`` and every module attribute bound to the same function."""
        original = getattr(owner, attr)
        targets = {(owner, attr)} | {(m, key) for m in modules for key, value in vars(m).items() if value is original}
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    def install(self, hb, package) -> None:
        """Patch heurobot's public functions; ``package`` is the heurobot module."""
        modules = [package, hb.cli, hb.core, hb.mockenv, hb.orchestrator, hb.plans, hb.subtasks, hb.trajlog]
        env_cls = hb.mockenv.MockEnv
        grasping = self._grasping

        def seen(args, kwargs, result):
            obs = result[0] if isinstance(result, tuple) else result
            grasping[id(args[0])] = sum(obs.robot.grasping)

        def noise(args):
            env = args[0]
            self.count("mockenv.noise_draws", grasping.get(id(env), 0) * env.robot_config.joints_per_arm)

        def stabilizer_slots(args):
            robot = args[0].index_map.robot
            self.joint_slots += len(robot.arms) * robot.joints_per_arm

        def active(args, kwargs, result):
            self.count("subtasks.stabilizer.active", sum(1 for v in result if v != 0.0))

        def pickled(args, kwargs, result):
            jobs = kwargs.get("jobs", args[4] if len(args) > 4 else 1)
            if jobs > 1:
                self.count("orchestrator.result_pickle_bytes", sum(len(pickle.dumps(r)) for r in result.results))

        def written(args, kwargs, result):
            self.count("trajlog.bytes_written", os.path.getsize(args[0]))

        def read(args, kwargs, result):
            self.count("trajlog.bytes_read", os.path.getsize(args[0]))

        def episode_of(seed_at):
            return lambda args: f"{args[0]}:{args[seed_at]}" if len(args) > seed_at else None

        def of_result(args):
            return f"{args[0].task_kind}:{args[0].seed}"

        def of_written(args):
            return f"{args[1].task_kind}:{args[1].seed}"

        def of_path(args):
            return os.path.basename(str(args[0]))

        targets = [
            (env_cls, "step", "mockenv.step", dict(before=noise, after=seen, durations=self.step_seconds)),
            (env_cls, "reset", "mockenv.reset", dict(after=seen)),
            (hb.subtasks.ArmStabilizer, "step", "subtasks.stabilizer", dict(before=stabilizer_slots, after=active)),
            (hb.subtasks.MoveTo, "step", "subtasks.move_to", dict(absorb_under="subtasks.stabilizer")),
            (hb.subtasks.MoveSteps, "step", "subtasks.move_steps", {}),
            (hb.core, "clamp", "core.clamp", {}),
            (hb.core, "add", "core.add", {}),
            (hb.plans, "resolve", "plans.resolve", {}),
            (hb.plans, "builtin_plan", "plans.load", {}),
            (hb.orchestrator, "run_episode", "orchestrator.run_episode", dict(episode=episode_of(3))),
            (hb.orchestrator, "run_batch", "orchestrator.run_batch", dict(after=pickled)),
            (hb.orchestrator, "replay_actions", "orchestrator.replay", dict(episode=episode_of(2))),
            (hb.trajlog, "trajectory_lines", "trajlog.trajectory_lines", dict(episode=of_result)),
            (hb.trajlog, "write_trajectory", "trajlog.write_trajectory", dict(episode=of_written, after=written)),
            (hb.trajlog, "write_summary", "trajlog.write_summary", dict(after=written)),
            (hb.trajlog, "read_trajectory", "trajlog.read_trajectory", dict(episode=of_path, after=read)),
            (hb.cli, "cmd_run", "cli.cmd_run", {}),
        ]
        for owner, attr, name, options in targets:
            self._patch_everywhere(modules, owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def per_layer(self, episodes: int, overhead_s: float, setup_load_s: float) -> dict[str, float]:
        """Per-layer metrics; ``episodes`` is the number the traced window ran,
        ``setup_load_s`` the self time of the set-up plan load."""

        def stat(name, field):
            return self.stats.get(name, [0, 0.0])[field] / episodes

        values = {
            "mockenv.step.us_p50": statistics.median(self.step_seconds) * 1e6 if self.step_seconds else 0.0,
            "mockenv.noise_draws": self.counts.get("mockenv.noise_draws", 0) / episodes,
            "subtasks.stabilizer.active_ratio": (
                self.counts.get("subtasks.stabilizer.active", 0) / self.joint_slots if self.joint_slots else 0.0
            ),
            "plans.load.self_s": setup_load_s,
            "orchestrator.result_pickle_bytes": self.counts.get("orchestrator.result_pickle_bytes", 0) / episodes,
            "trajlog.bytes_written": self.counts.get("trajlog.bytes_written", 0) / episodes,
            "trajlog.bytes_read": self.counts.get("trajlog.bytes_read", 0) / episodes,
            "trace.overhead_s": overhead_s,
        }
        for name, _ in PER_LAYER:
            if name not in values:
                span, _, field = name.rpartition(".")
                values[name] = stat(span, 0 if field == "calls" else 1)
        return {name: values[name] for name, _ in PER_LAYER}

    def write_spans(self, path) -> None:
        """One JSON header line, then one ``[id, name, start_s, end_s, parent, episode]`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"kept": len(self.spans), "dropped": self.dropped, "cap": SPAN_CAP, "clock": "s since tracer start"}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

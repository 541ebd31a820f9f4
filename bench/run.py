"""heurobot benchmark: host time of seeded episode batches, end to end and per module.

    python3 bench/run.py --workload sim_dual_arm --seed 1 --seconds 20 --trace 0

Runs one workload (see ``bench/README.md``) from the checkout that holds this
file, importing heurobot from its ``src``. Inputs are made from ``--seed``:
the program sees only the generated seed lists, the task, the builtin plan and
the default environment config. The timed window repeats fixed-size batches
until ``--seconds`` of batch time is measured. Outputs are checked outside the
window: trajectory bytes against ``golden.json`` on fixed canary seeds, and on
the seeded batches against an in-process reference (CLI workloads), against
the logs (replay) or for clean termination (simulation).

Times are reported in reference-speed seconds (README.md): measured time
scaled by a calibration task timed between batches, with hypervisor steal
taken out of wall time and per-episode samples taken in CPU time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
window untraced and half traced and prints the per-layer metrics. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The exit status is 0 when the outputs are correct, 1 when a check
failed, 2 when the checkout holds no heurobot sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

import setup_probe
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
OUT = setup_probe.ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
PLAN_SOURCE = "builtin"
SETUP_PROBES = 11
GOLDEN_SEEDS = 8
SEED_SPACE = 1_000_000
P99_MIN_SAMPLES = 1000
TAIL_MIN_BEYOND = 10
CORES = os.cpu_count()
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
# Calibration seconds on the host where the benchmark was defined, at its usual
# speed. Times are reported as measured seconds x CALIBRATION_REF_S / the mean
# of the run's calibration readings ("reference-speed seconds"). One reading is
# taken per CALIBRATION_EVERY_S of measured time, between timed intervals, so
# the readings sample the host's speed as evenly in time as the work does.
CALIBRATION_REF_S = 0.025
CALIBRATION_EVERY_S = 0.2

DUAL = ("move_bucket", "push_chair")
SINGLE = ("open_cabinet_door", "open_cabinet_drawer")

END_TO_END = (
    ("wall_s", "s"),
    ("env_steps_per_s", "1/s"),
    ("episode_ms_p50", "ms"),
    ("episode_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    kind: str  # "sim" | "cli" | "replay"
    tasks: tuple[str, ...]
    seeds_per_task: int  # per batch
    jobs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_dual_arm", "sim", DUAL, 75),
        Workload("cli_single_arm", "cli", SINGLE, 100),
        Workload("cli_dual_arm_jobs2", "cli", DUAL, 100, jobs=2),
        Workload("replay_logged", "replay", SINGLE + DUAL, 25),
    )
}


class Run:
    """What one benchmark run measured and checked."""

    def __init__(self, workload: Workload, hb, plans: dict, config) -> None:
        self.workload = workload
        self.hb = hb
        self.plans = plans
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.episodes = 0  # in the timed window
        self.successes = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.reset_timing()
        # Checks run outside the window; in the traced run they also run untraced.
        self.untimed = contextlib.nullcontext

    def fail(self, episodes: int, why: str) -> None:
        self.failed += episodes
        if len(self.problems) < 20:
            self.problems.append(why)

    def reset_timing(self) -> None:
        self.batch_seconds: list[float] = []
        self.batch_steps: list[int] = []
        self.batch_episode_s: list[list[float]] = []
        self.calibration_s: list[float] = []
        self.uncalibrated_s = 0.0  # measured since the last reading

    def calibrate_after(self, seconds: float) -> None:
        """Count ``seconds`` of measured time; take a reading for each
        CALIBRATION_EVERY_S of it."""
        self.uncalibrated_s += seconds
        while self.uncalibrated_s >= CALIBRATION_EVERY_S:
            self.calibration_s.append(calibrate(self.workload.jobs > 1))
            self.uncalibrated_s -= CALIBRATION_EVERY_S

    def add_batch(self, seconds: float, steps: int, episodes: int, successes: int, episode_s: list[float]) -> None:
        """Record a batch; a run's first batch is calibrated even when short."""
        if not self.calibration_s:
            self.calibration_s.append(calibrate(self.workload.jobs > 1))
        self.batch_seconds.append(seconds)
        self.batch_episode_s.append(episode_s)
        self.batch_steps.append(steps)
        self.attempted += episodes
        self.episodes += episodes
        self.successes += successes

    def scale(self) -> float:
        """Measured seconds -> reference-speed seconds.

        The host switches between speeds within a fraction of a second, so a
        reading is seldom taken at the speed of the interval next to it.
        Means of the measured times and of the readings, spread evenly over
        the run, both weigh each speed by the time spent at it; a ratio of
        medians would jump when the run's share of slow time crosses one half.
        """
        return CALIBRATION_REF_S / statistics.mean(self.calibration_s)

    def wall_s(self) -> float:
        """Mean batch time in reference-speed seconds."""
        return statistics.mean(self.batch_seconds) * self.scale()

    def lines(self, result) -> bytes:
        """The JSONL bytes ``heurobot run`` writes for an episode."""
        lines = self.hb.trajlog.trajectory_lines(result, self.config, PLAN_SOURCE)
        return "".join(line + "\n" for line in lines).encode("utf-8")

    def episode(self, task: str, seed: int):
        try:
            return self.hb.orchestrator.run_episode(task, self.plans[task], self.config, seed)
        except Exception as e:  # noqa: BLE001 - a raising episode is a counted failure
            self.fail(1, f"{task} seed {seed} raised {e!r}")
            return None

    def clean(self, result) -> bool:
        """An episode ran to completion: no error, within the step cap."""
        if result.error is not None or not 1 <= result.steps <= self.config.max_steps:
            self.fail(1, f"{result.task_kind} seed {result.seed}: error={result.error!r} steps={result.steps}")
            return False
        return True

    def cli(self, task: str, seeds: list[int], out: Path, jobs: int) -> int:
        argv = ["run", "--task", task, "--seeds", ",".join(map(str, seeds)), "--out", str(out), "--jobs", str(jobs), "--quiet"]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.hb.cli.main(argv)


def seed_lists(rng: random.Random, tasks, n: int) -> dict[str, list[int]]:
    return {task: sorted(rng.sample(range(SEED_SPACE), n)) for task in tasks}


def header(data: bytes) -> dict:
    """The header line of a trajectory log; {} when it does not parse."""
    try:
        doc = json.loads(data.split(b"\n", 1)[0])
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def read_logs(out: Path) -> dict[tuple, bytes]:
    """Trajectory files in ``out`` keyed by the (task, seed) of their header."""
    logs = {}
    for path in sorted(out.glob("*.jsonl")):
        data = path.read_bytes()
        head = header(data)
        logs[(head.get("task"), head.get("seed")) if head else (path.name, None)] = data
    return logs


def log_summary(logs: dict[tuple, bytes], task: str, seeds: list[int]) -> dict:
    """sha256 of the task's logs concatenated in seed order, success rate, mean steps."""
    digest, steps, successes = hashlib.sha256(), 0, 0
    for seed in seeds:
        data = logs.get((task, seed), b"")
        digest.update(data)
        steps += header(data).get("steps", 0)
        successes += header(data).get("success") is True
    return {"sha256": digest.hexdigest(), "success_rate": successes / len(seeds), "mean_steps": steps / len(seeds)}


def replay_checked(run: "Run", path: Path) -> tuple[float, float, int, str | None]:
    """Time reading and replaying one log, then check every replayed observation against it.

    Returns (wall seconds, CPU seconds, steps replayed, problem or None).
    """
    hb = run.hb
    wall, cpu = stopwatch(), thread_time()
    try:
        header, records = hb.trajlog.read_trajectory(path)
        config = hb.mockenv.EnvConfig.from_mapping(header["config"])
        actions = [tuple(rec["action"]) for rec in records]
        seen = hb.orchestrator.replay_actions(header["task"], config, header["seed"], actions)
    except (ValueError, KeyError, TypeError) as e:
        return wall(), thread_time() - cpu, 0, f"{path.name}: {e!r}"
    took = (wall(), thread_time() - cpu, len(actions))
    if len(seen) != len(records):
        return *took, f"{path.name}: replayed {len(seen)} of {len(records)} steps"
    for rec, obs in zip(records, seen):
        robot, obj = obs.robot, obs.object
        if (
            rec["step"] != obs.step_index
            or rec["platform"] != [robot.platform_x, robot.platform_y, robot.platform_height, robot.platform_yaw]
            or rec["joints"] != [list(q) for q in robot.arm_joints]
            or rec["object"] != list(obj.object_pose)
            or rec["handle"] != list(obj.handle_position)
            or rec["articulation"] != obj.articulation_value
        ):
            return *took, f"{path.name}: step {rec['step']} does not replay"
    return *took, None


# ------------------------------------------------------------------ golden


def check_golden(run: Run, logs: dict[tuple, bytes], golden: dict) -> None:
    """Compare the canary logs of each task with golden.json."""
    seeds = golden["seeds"]
    for task in run.workload.tasks:
        run.attempted += len(seeds)
        got, want = log_summary(logs, task, seeds), golden["tasks"][task]
        if got != want:
            run.fail(len(seeds), f"golden mismatch for {task}: {got} != {want}")


def canary_logs(run: Run, tmp: Path, seeds: list[int]) -> dict[tuple[str, int], bytes]:
    """Canary episodes through the workload's own path, as log bytes."""
    w = run.workload
    if w.kind == "sim":
        return {
            (task, seed): run.lines(r)
            for task in w.tasks
            for seed in seeds
            if (r := run.episode(task, seed)) is not None
        }
    out = tmp / "canary"
    for task in w.tasks:
        if run.cli(task, seeds, out, w.jobs) != 0:
            run.fail(0, f"canary heurobot run for {task} exited non-zero")
    if w.kind == "replay":
        for path in sorted(out.glob("*.jsonl")):
            problem = replay_checked(run, path)[-1]
            if problem:
                run.fail(1, f"canary replay: {problem}")
    logs = read_logs(out)
    shutil.rmtree(out)
    return logs


# ------------------------------------------------------------------ workloads


class SimWindow:
    """``run_episode`` on one seed list per task, repeated. Each episode is
    timed in wall and in CPU time (garbage collection included), then checked
    and hashed untimed; every batch must give the first batch's bytes."""

    def __init__(self, run: Run, rng: random.Random, tmp: Path) -> None:
        w = run.workload
        self.run = run
        self.episodes = [(task, seed) for task, seeds in seed_lists(rng, w.tasks, w.seeds_per_task).items() for seed in seeds]
        self.digests: list[bytes] | None = None  # per episode, from the first batch

    def measure(self, seconds: float) -> None:
        run = self.run
        while sum(run.batch_seconds) < seconds:
            took, episode_s, digests = 0.0, [], []
            steps = successes = 0
            for task, seed in self.episodes:
                wall, cpu = stopwatch(), thread_time()
                result = run.episode(task, seed)
                cpu = thread_time() - cpu
                interval = wall()
                took += interval
                episode_s.append(cpu)
                run.calibrate_after(interval)
                with run.untimed():
                    data = b""
                    if result is not None:
                        steps += result.steps
                        if run.clean(result):
                            successes += result.success
                            data = run.lines(result)
                    if self.digests is None:
                        run.digest.update(data)
                    digests.append(hashlib.sha256(data).digest())
            if self.digests is None:
                self.digests = digests
            for (task, seed), got, want in zip(self.episodes, digests, self.digests):
                if got != want:
                    run.fail(1, f"{task} seed {seed}: bytes differ from the first batch")
            run.add_batch(took, steps, len(self.episodes), successes, episode_s)


class CliWindow:
    """``heurobot run`` on one seed list per task, repeated; every batch's files
    must equal the in-process library's bytes for the same episodes."""

    def __init__(self, run: Run, rng: random.Random, tmp: Path) -> None:
        w = run.workload
        self.run, self.out = run, tmp / "batch"
        self.batch = seed_lists(rng, w.tasks, w.seeds_per_task)
        self.reference: dict[tuple[str, int], bytes] = {}
        self.steps = self.successes = 0
        for task, seeds in self.batch.items():
            for seed in seeds:
                result = run.episode(task, seed)
                if result is not None and run.clean(result):
                    self.reference[(task, seed)] = run.lines(result)
                    self.steps += result.steps
                    self.successes += result.success
        for data in self.reference.values():
            run.digest.update(data)

    def measure(self, seconds: float) -> None:
        run, w = self.run, self.run.workload
        episodes = sum(len(s) for s in self.batch.values())
        while sum(run.batch_seconds) < seconds:
            took = cpu = 0.0
            codes = []
            for task, seeds in self.batch.items():  # one call per task, calibrated after each
                call_wall, call_cpu = stopwatch(), cpu_seconds()
                codes.append(run.cli(task, seeds, self.out, w.jobs))
                call_s = call_wall()
                took, cpu = took + call_s, cpu + cpu_seconds() - call_cpu
                run.calibrate_after(call_s)
            run.add_batch(took, self.steps, episodes, self.successes, [cpu / episodes])
            if any(codes):
                run.fail(0, f"heurobot run exited {codes}")
            logs = read_logs(self.out)
            for task, seeds in self.batch.items():
                for seed in seeds:
                    if logs.get((task, seed)) != self.reference.get((task, seed)):
                        run.fail(1, f"{task} seed {seed}: log bytes differ from the in-process reference")
            shutil.rmtree(self.out)


class ReplayWindow:
    """Logs written by ``heurobot run`` before the window are read back and replayed, repeatedly."""

    def __init__(self, run: Run, rng: random.Random, tmp: Path) -> None:
        w = run.workload
        self.run, self.logs = run, tmp / "logs"
        for task, seeds in seed_lists(rng, w.tasks, w.seeds_per_task).items():
            if run.cli(task, seeds, self.logs, 1) != 0:
                run.fail(0, f"log generation for {task} exited non-zero")
        self.paths = sorted(self.logs.glob("*.jsonl"))
        self.successes = 0
        for path in self.paths:
            data = path.read_bytes()
            run.digest.update(data)
            self.successes += header(data).get("success") is True

    def measure(self, seconds: float) -> None:
        run = self.run
        while sum(run.batch_seconds) < seconds:
            took, episode_s, steps = 0.0, [], 0
            for path in self.paths:
                wall, cpu, replayed, problem = replay_checked(run, path)
                run.calibrate_after(wall)
                took += wall
                episode_s.append(cpu)
                steps += replayed
                if problem:
                    run.fail(1, problem)
            run.add_batch(took, steps, len(self.paths), self.successes, episode_s)


# ------------------------------------------------------------------ metrics


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> int:
    """p99 from 1000 samples; below that the highest percentile with 10 samples
    beyond it, but never below the median (tiny smoke-test runs)."""
    if n >= P99_MIN_SAMPLES:
        return 99
    return max(50, math.floor(100 * (n - TAIL_MIN_BEYOND) / n))


def stolen_seconds(cpus) -> float:
    """Seconds the hypervisor has kept ``cpus`` from running ("steal" of their
    per-CPU lines in /proc/stat), summed."""
    wanted = {f"cpu{cpu}" for cpu in cpus}
    ticks = 0
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if not fields or not fields[0].startswith("cpu"):
                    break
                if fields[0] in wanted:
                    ticks += int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / CLOCK_TICKS


def stopwatch():
    """Start a clock; calling the result gives the wall seconds since, less
    the time stolen from the CPUs the work runs on.

    A single-process workload is pinned to one CPU (``main``), so that CPU's
    steal is the work's. The pool workload keeps every allowed CPU busy side
    by side, so its wall time loses their mean steal. Steal is counted in
    clock ticks (10 ms), so it only corrects a sum over many intervals, such
    as a batch. /proc/stat is read outside the interval.
    """
    cpus = os.sched_getaffinity(0)
    stolen = stolen_seconds(cpus)
    start = perf_counter()

    def elapsed() -> float:
        end = perf_counter()
        return end - start - (stolen_seconds(cpus) - stolen) / len(cpus)

    return elapsed


def cpu_seconds() -> float:
    """CPU seconds of this thread plus those of every child process that has ended.

    Pool workers end when ``heurobot run`` shuts its pool down, so around a
    CLI call this counts the episodes the workers ran as well.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return thread_time() + children.ru_utime + children.ru_stime


def calibrate(every_cpu: bool) -> float:
    """CPU seconds taken by a fixed pure-Python task that shares no code with heurobot.

    The host's speed drifts by tens of percent within seconds, and not equally
    on every CPU (other tenants, clock changes); a calibration next to each
    measurement tracks that drift, so measured / calibration is steady where
    the raw seconds are not. A single-process workload is calibrated where it
    runs (the CPU it is pinned to); a pool workload uses every CPU, so
    ``every_cpu`` averages the task run once on each allowed CPU (pinning
    this process in turn).
    """
    if not every_cpu:
        return calibration_task()
    try:
        times = []
        for cpu in ALLOWED_CPUS:
            os.sched_setaffinity(0, {cpu})
            times.append(calibration_task())
    finally:
        os.sched_setaffinity(0, ALLOWED_CPUS)
    return statistics.mean(times)


def calibration_task() -> float:
    """CPU seconds of this thread, so time the host takes the CPU away is not counted."""
    start = thread_time()
    acc, table = 0.0, {}
    for i in range(12000):
        x = (i * 0.001, math.sin(i * 0.01), math.cos(i * 0.02))
        y = tuple(v * 1.5 + 0.1 for v in x)
        table[i & 255] = y
        acc += max(min(y[1], 1.0), -1.0) + len(table)
    json.loads(json.dumps([list(v) for v in list(table.values())[:50]]))
    return thread_time() - start


def measure_setup(tasks) -> tuple[list[float], list[float]]:
    """CPU seconds from starting a fresh interpreter to set-up done, once per
    probe, and calibration readings before the first probe and after each.

    Set-up is single-process, so the probes (which inherit this process's
    affinity) and the readings run on one CPU, on every workload.
    """
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {ALLOWED_CPUS[-1]})
    try:
        times, calibration_s = [], [calibration_task()]
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), *tasks],
                check=True, capture_output=True, text=True, timeout=60,
            )
            times.append(float(done.stdout.strip()))
            calibration_s.append(calibration_task())
    finally:
        os.sched_setaffinity(0, affinity)
    return times, calibration_s


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size in MB (Linux reports ru_maxrss in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = setup_probe.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "cores": CORES,
        "python": platform.python_version(),
        "commit": git_commit(),
        "pool_start_method": multiprocessing.get_start_method(),
        "note": f"only {CORES} cores: --jobs scaling beyond {CORES} is unmeasured",
    }


def window(run: Run, rng: random.Random, tmp: Path):
    windows = {"sim": SimWindow, "cli": CliWindow, "replay": ReplayWindow}
    return windows[run.workload.kind](run, rng, tmp).measure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-golden", action="store_true", help="print golden.json for the current code and exit")
    args = parser.parse_args(argv)
    # A terminated run unwinds normally, so pool workers and temp files are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    hb = setup_probe.import_heurobot()
    if args.print_golden:
        seeds = list(range(GOLDEN_SEEDS))
        run = Run(Workload("golden", "sim", hb.core.TASK_KINDS, 0), hb, *setup_probe.load_inputs(hb, hb.core.TASK_KINDS))
        logs = canary_logs(run, OUT, seeds)
        print(json.dumps({"seeds": seeds, "tasks": {t: log_summary(logs, t, seeds) for t in run.workload.tasks}}, indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    if w.jobs == 1:
        # One CPU for the work, its calibration and its steal (any allowed CPU will do).
        os.sched_setaffinity(0, {ALLOWED_CPUS[-1]})

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(hb, sys.modules["heurobot"])
    plans, config = setup_probe.load_inputs(hb, w.tasks)
    if tracer:
        tracer.uninstall()
        setup_load_s = tracer.stats["plans.load"][1]
    run = Run(w, hb, plans, config)
    setup, setup_calibration_s = measure_setup(w.tasks) if tracer is None else ([], [])
    rng = random.Random(f"heurobot-bench:{args.seed}")

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    try:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        check_golden(run, canary_logs(run, tmp, golden["seeds"]), golden)
        measure = window(run, rng, tmp)
        if tracer is None:
            measure(args.seconds)
        else:
            measure(args.seconds / 2)
            untraced_wall = run.wall_s()
            untraced_episodes = run.episodes
            run.reset_timing()
            tracer.install(hb, sys.modules["heurobot"])
            run.untimed = tracer.paused
            try:
                measure(args.seconds / 2)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    scale = run.scale()
    if w.kind == "cli":  # an episode is not visible from outside: the window's CPU time per episode
        samples = [statistics.mean(t for times in run.batch_episode_s for t in times) * scale]
        sampled = f"mean CPU per episode over {len(run.batch_seconds)} batches; episodes are not visible from outside"
    else:  # the same episodes every batch: one sample per episode, its mean over batches
        samples = sorted(statistics.mean(per_episode) * scale for per_episode in zip(*run.batch_episode_s))
        sampled = f"of {len(samples)} episodes, each the mean of {len(run.batch_seconds)} runs"
    tail = tail_percentile(len(samples))
    wall = run.wall_s()
    episodes = run.attempted
    correct = run.failed == 0
    env = environment()
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    print(f"output sha256 {run.digest.hexdigest()} ({'correct' if correct else 'INCORRECT'})")
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"failed_share {run.failed / episodes:.6f} ({run.failed} of {episodes} episodes)")
    print(
        f"times in reference-speed seconds: measured x {CALIBRATION_REF_S} / mean of "
        f"{len(run.calibration_s)} calibration readings = measured x {scale:.6f} "
        f"(readings {min(run.calibration_s):.6f}..{max(run.calibration_s):.6f} s)"
    )

    if tracer is None:
        values = {
            "wall_s": wall,
            "env_steps_per_s": sum(run.batch_steps) / (sum(run.batch_seconds) * scale),
            "episode_ms_p50": nearest_rank(samples, 50) * 1e3,
            "episode_ms_p99": nearest_rank(samples, tail) * 1e3,
            "setup_s": statistics.mean(setup) * CALIBRATION_REF_S / statistics.mean(setup_calibration_s),
            "peak_rss_mb": peak_rss_mb(include_children=w.jobs > 1),
            "success_rate": run.successes / run.episodes,
        }
        notes = {
            "wall_s": f"mean of {len(run.batch_seconds)} batches of {w.seeds_per_task} seeds x {len(w.tasks)} tasks"
            f" ({statistics.mean(run.batch_seconds):.6f} s as measured)",
            "env_steps_per_s": f"{sum(run.batch_steps)} steps in {sum(run.batch_seconds):.3f} s as measured",
            "episode_ms_p50": sampled if w.kind == "cli" else f"p50 {sampled}",
            "episode_ms_p99": sampled if w.kind == "cli" else f"p{tail} {sampled}",
            "setup_s": f"mean of {len(setup)} fresh interpreters ({statistics.mean(setup):.6f} s as measured)",
            "peak_rss_mb": "parent and largest child" if w.jobs > 1 else "this process",
            "success_rate": "over window episodes",
        }
        units = dict(END_TO_END)
    else:
        spans_path = OUT / f"spans_{w.name}.jsonl"
        tracer.write_spans(spans_path)
        traced_wall = wall
        values = tracer.per_layer(run.episodes - untraced_episodes, traced_wall - untraced_wall, setup_load_s)
        notes = {
            "plans.load.self_s": "set-up load only",
            "trace.overhead_s": f"traced {traced_wall:.6f} s - untraced {untraced_wall:.6f} s, mean batch",
        }
        units = dict(PER_LAYER)
        print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} beyond the cap, in {spans_path}")
        if w.jobs > 1:
            print("pool worker spans are not collected: per-layer numbers are parent-side only")
    for name, value in values.items():
        print(f"{name:34} {value:>16.6f} {units[name]:6} {notes.get(name, '')}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": episodes, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Batch runner and reporting front end.

    heurobot run --task open_cabinet_drawer --seeds 1..100 --out runs/
    heurobot report runs/*_summary.json

``run`` executes seeded episodes and writes one trajectory log per episode
plus a summary document; its exit status says whether the tool ran, not
whether the manipulation succeeded. ``report`` turns summary files into a
per-task table (or a machine-readable aggregate with ``--format machine``).
The output directory defaults to $HEUROBOT_OUT, then ``runs``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .core import TASK_KINDS, read_json
from .mockenv import EnvConfig
from .orchestrator import EpisodeResult, run_batch
from .plans import builtin_plan, parse_plan
from .trajlog import format_report_table, read_summary, report_rows, write_summary, write_trajectory


MAX_SEEDS = 100_000  # seeds one range may name; checked before the list is built


def parse_seeds(text: str) -> list[int]:
    """Seed list syntax: a single integer, an inclusive range A..B of at most
    ``MAX_SEEDS`` seeds, or a comma list of distinct seeds."""
    text = text.strip()
    is_range = "," not in text and ".." in text
    parts = text.split("..", 1) if is_range else text.split(",")
    try:
        seeds = [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"seed list {text!r} is not N, A..B or a comma list of integers") from None
    if is_range:
        lo, hi = seeds
        if hi < lo:
            raise ValueError(f"seed range {text!r} is empty")
        if hi - lo >= MAX_SEEDS:
            raise ValueError(f"seed range {text!r} has more than {MAX_SEEDS} seeds")
        return list(range(lo, hi + 1))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seed list {text!r} repeats a seed")
    return seeds


def _write_log(out_dir: Path, config: EnvConfig, plan_source: str, result: EpisodeResult) -> None:
    """Write one episode's log; runs in the process that ran the episode."""
    write_trajectory(out_dir / f"{result.task_kind}_seed{result.seed:05d}.jsonl", result, config, plan_source)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        seeds = parse_seeds(args.seeds)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        if args.plan == "builtin":
            plan, plan_source = builtin_plan(args.task), "builtin"
        else:
            plan_source = str(args.plan)
            plan = read_json(plan_source, parse_plan)
        if plan.task_kind != args.task:
            raise ValueError(f"plan is for {plan.task_kind!r}, not {args.task!r}")
        config = EnvConfig() if args.config is None else read_json(args.config, EnvConfig.from_mapping)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write = functools.partial(_write_log, out_dir, config, plan_source)
        summary_path = out_dir / f"{args.task}_summary.json"
        batch = run_batch(args.task, plan, config, seeds, jobs=args.jobs, write=write)
        write_summary(summary_path, batch, config, plan_source, seeds)
    except (OSError, ValueError) as e:  # PlanError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not args.quiet:
        for result in batch.results:
            status = "ok" if result.success else ("error" if result.error else "fail")
            print(f"seed {result.seed}: {status} in {result.steps} steps")
    print(
        f"{args.task}: {batch.success_rate:.3f} success rate over {len(seeds)} episodes "
        f"(mean {batch.mean_steps:.1f} steps) -> {summary_path}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    summaries = []
    skipped = 0
    for path in args.summaries:
        try:
            summaries.append(read_summary(path))
        except (OSError, ValueError) as e:
            skipped += 1
            print(f"warning: skipping {e}", file=sys.stderr)
    if not summaries:
        print("error: no readable summary files", file=sys.stderr)
        return 1
    rows = report_rows(summaries)
    if args.format == "machine":
        payload = {"tasks": rows, "skipped": skipped}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(format_report_table(rows))
        if skipped:
            print(f"({skipped} file(s) skipped)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heurobot", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run seeded episodes and write logs")
    run_p.add_argument("--task", required=True, choices=TASK_KINDS)
    run_p.add_argument("--plan", default="builtin", help="'builtin' or a plan document path")
    run_p.add_argument("--seeds", default="0", help="N, A..B (inclusive) or comma list")
    run_p.add_argument("--config", default=None, help="environment config JSON")
    run_p.add_argument("--out", default=os.environ.get("HEUROBOT_OUT", "runs"), help="output directory")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel episode workers")
    run_p.add_argument("--quiet", action="store_true", help="suppress per-episode lines")
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser("report", help="tabulate summary files")
    report_p.add_argument("summaries", nargs="+", help="summary JSON files")
    report_p.add_argument("--format", choices=("table", "machine"), default="table")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

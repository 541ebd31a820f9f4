"""The README's examples, quoted messages and tables, checked against the code.

Every fenced block runs in a temporary directory, in document order:
``python`` blocks are executed; every ``heurobot`` line of a ``sh`` or
``console`` block goes through ``heurobot.cli.main``, with its globs
expanded here; a ``json <file>`` block is an input file; the ``text`` block
is the Layout tree. In a ``console`` block the lines after a ``$`` command
are exactly what it prints on stderr. A block with any other tag, or a line
no rule runs, fails; ``pip install`` and ``pytest`` lines are the only ones
skipped.
"""

import glob
import json
import re
import shlex
from pathlib import Path

from heurobot.cli import MAX_SEEDS, main
from heurobot.core import DUAL_ARM, PLATFORM_SLOTS, ActionIndexMap
from heurobot.mockenv import FIELD_MAX, MAX_STEPS, EnvConfig
from heurobot.plans import TARGETS, parse_plan
from heurobot.subtasks import SELECTORS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SKIPPED = ("pip install ", "pytest")


def blocks() -> list[tuple[int, str, str, str]]:
    """(line number, tag, argument, text) of every fenced block."""
    out = []
    for m in re.finditer(r"^```([^\n]*)\n(.*?)^```$", README, re.M | re.S):
        tag, _, arg = m.group(1).partition(" ")
        out.append((README.count("\n", 0, m.start()) + 1, tag, arg, m.group(2)))
    return out


def inputs() -> dict[str, str]:
    """Every input file the README names: its ``json <file>`` blocks, each
    "`<file>` holds `<json>`" of its prose, and ``no_threshold.json``, which
    it describes as ``my_plan.json`` without the ``threshold`` of ``align``."""
    files = {arg: text for _, tag, arg, text in blocks() if tag == "json"}
    files.update(re.findall(r"`([\w.]+\.json)`\s+holds\s+`([^`]+)`", README))
    doc = json.loads(files["my_plan.json"])
    del doc["entries"][1]["threshold"]
    files["no_threshold.json"] = json.dumps(doc)
    return files


def table(title: str) -> dict[str, list[str]]:
    """The first-column name -> the other cells, of each row of a section's table."""
    text = README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in text.splitlines() if line.startswith("| ")]
    return {row[0].strip("`"): row[1:] for row in rows[1:]}


def expand(patterns: list[str]) -> set[str]:
    """The names a pattern list stands for: ``<arm>`` is left or right, ``<j>`` a joint index."""
    return {
        p.replace("<arm>", arm).replace("<j>", str(j))
        for p in patterns
        for arm in ("left", "right")
        for j in range(ActionIndexMap.joints_per_arm)
    }


class Runner:
    """Runs the README's blocks in one directory and records the file names its commands use."""

    def __init__(self, capsys):
        self.capsys = capsys
        self.named: set[str] = set()

    def command(self, line: str) -> tuple[int, list[str]]:
        """Exit status and stderr lines of one ``heurobot ...`` line."""
        words = shlex.split(line)
        assert words[:1] == ["heurobot"], f"not a heurobot command: {line!r}"
        argv = []
        for word in words[1:]:
            matches = sorted(glob.glob(word)) if any(c in word for c in "*?[") else [word]
            assert matches, f"{line!r}: {word!r} matches no file"
            argv += matches
        self.named.update(words)
        self.capsys.readouterr()
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejected the line
            rc = e.code
        return rc, self.capsys.readouterr().err.splitlines()

    def python(self, line: int, arg: str, text: str) -> None:
        exec(compile(text, f"README.md:{line}", "exec"), {"__name__": "__readme__"})

    def sh(self, line: int, arg: str, text: str) -> None:
        for command in text.splitlines():
            if not command.startswith(SKIPPED):
                assert self.command(command) == (0, []), f"README.md:{line}: {command!r}"

    def console(self, line: int, arg: str, text: str) -> None:
        runs: list[tuple[str, list[str]]] = []
        for out in text.splitlines():
            if out.startswith("$ "):
                runs.append((out[2:], []))
            else:
                assert runs, f"README.md:{line}: output before the first $ line"
                runs[-1][1].append(out)
        for command, expected in runs:
            rc, err = self.command(command)
            assert err == expected, f"README.md:{line}: {command!r}"
            assert rc == (2 if any(e.startswith("error:") for e in expected) else 0), command

    def json(self, line: int, arg: str, text: str) -> None:
        assert arg, f"README.md:{line}: a json block names the file it is"

    def text(self, line: int, arg: str, text: str) -> None:
        top, *entries = text.splitlines()
        assert top == "src/heurobot/"
        listed = [e.split()[0] for e in entries if e.startswith("  ")]
        package = ROOT / "src" / "heurobot"
        files = [p.name + "/" * p.is_dir() for p in package.iterdir() if p.name != "__pycache__"]
        assert sorted(listed) == sorted(files)
        assert all((ROOT / e.split()[0]).is_dir() for e in entries if not e.startswith(" "))


def test_every_fenced_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HEUROBOT_OUT", raising=False)
    files = inputs()
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    runner = Runner(capsys)
    for line, tag, arg, text in blocks():
        assert tag in ("python", "sh", "console", "json", "text"), f"README.md:{line}: no runner for ```{tag}"
        getattr(runner, tag)(line, arg, text)
    assert set(files) <= runner.named, "an input file no README command uses"


def test_every_quoted_message_is_in_a_console_block():
    shown = {out for _, tag, _, text in blocks() if tag == "console" for out in text.splitlines()}
    assert set(re.findall(r"`((?:error|warning): [^`]+)`", README)) <= shown


def test_plan_example_parses_to_its_three_entry_kinds():
    plan = parse_plan(json.loads(inputs()["my_plan.json"]))
    assert [e.kind for e in plan.entries] == ["move_steps", "move_to", "stabilizer_on"]


def test_config_table_is_the_env_config():
    def envelope(name):
        return {
            "max_steps": f"[1, {MAX_STEPS}]",
            "rng_seed": "any integer",
            "disturbance_std": f"[0, {FIELD_MAX:g}]",
        }.get(name, f"(0, {FIELD_MAX:g}]")

    rows = table("Environment config")
    assert list(rows) == list(EnvConfig._fields)
    for name, (default, envelope_text, _) in rows.items():
        assert (default, envelope_text) == (repr(EnvConfig._field_defaults[name]), envelope(name)), name


def test_plan_vocabulary_table_is_the_parser_vocabulary():
    rows = {field: re.findall(r"`([^`]+)`", cells[0]) for field, cells in table("Plan documents").items()}
    assert [n for n in rows["slot"] if n.startswith("platform_")] == list(PLATFORM_SLOTS)
    assert expand(rows["slot"]) == set(DUAL_ARM.slots)
    assert expand(rows["selector"]) == set(SELECTORS)
    assert {n.removesuffix(":D"): n.endswith(":D") for n in rows["target"]} == {
        name: rule.offset for name, rule in TARGETS.items()
    }
    assert re.findall(r"`<j>` is 0 to (\d+)", README) == [str(ActionIndexMap.joints_per_arm - 1)]


def test_seed_range_limit_is_max_seeds():
    assert re.findall(r"at most ([\d,]+) seeds", README) == [f"{MAX_SEEDS:,}"]

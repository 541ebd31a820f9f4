"""The CI workflow names only test files and tests that exist.

The macOS and Windows legs run a list of test files and test ids; a test that
is renamed, merged or deleted must leave that list here, not when CI next runs.
Read as text, because CI installs pytest and nothing else.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_test_path_and_name_in_the_workflow_exists():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    named = re.findall(r"\b((?:tests|bench)/\w+\.py)(?:::(\w+))?", workflow)
    assert any(name for _, name in named)
    for path, name in named:
        assert (ROOT / path).is_file(), path
        if name:
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", source, re.M), f"{path}::{name}"

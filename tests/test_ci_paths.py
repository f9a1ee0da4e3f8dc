"""Every repository path the CI workflow names must exist in the tree.

A workflow step that copies, runs or tests a file that was renamed or
never committed fails only on the CI runner, long after the change that
broke it.  This reads ``.github/workflows/ci.yml`` as plain text — CI does
not install PyYAML — and checks each ``benchmarks/``, ``tools/``, ``tests/``
and ``src/`` path it mentions against the checkout.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

#: A repo-relative path under one of the checked roots, not preceded by a
#: path character (so ``/tmp/tests/x`` or ``$DIR/src`` never match).
PATH_PATTERN = re.compile(
    r"(?<![\w./$-])((?:benchmarks|tools|tests|src)/[\w./-]*)")


def workflow_paths() -> list[str]:
    """The checked-root paths the workflow names, in order of appearance."""
    text = WORKFLOW.read_text(encoding="utf-8")
    return [match.rstrip(".") for match in PATH_PATTERN.findall(text)]


def test_workflow_names_checked_paths():
    paths = workflow_paths()
    # The regex must keep finding the workflow's real commands.
    assert "benchmarks/bench_apss_backends.py" in paths
    assert "tests/similarity/test_stealing.py" in paths


def test_every_path_the_workflow_names_exists():
    missing = sorted({path for path in workflow_paths()
                      if not (REPO_ROOT / path).exists()})
    assert missing == [], f"ci.yml names paths missing from the tree: {missing}"

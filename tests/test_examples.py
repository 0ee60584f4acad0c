"""Every script in ``examples/`` runs to completion and leaves the tree clean.

Each example runs in a subprocess with a temporary working directory,
because some of them write artifacts (trace files) into their cwd.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = Path(repro.__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def _tracked_changes():
    """``git status --porcelain`` of the checkout, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_cleanly(script, tmp_path):
    before = _tracked_changes()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert _tracked_changes() == before

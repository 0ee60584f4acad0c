"""Running the benchmark leaves every tracked file as it was.

A smoke-sized run (one repetition) of the service-mix workload — daemon,
socket, per-program cache stores, client — between two ``git status
--porcelain`` snapshots.  The result goes to pytest's ``tmp_path``; the
benchmark's own scratch directory must be gone afterwards.  Skipped
outside a git work tree, since the benchmark also runs from plain
checkouts.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
        check=True,
    ).stdout


def test_smoke_run_leaves_tracked_files_unchanged(tmp_path):
    probe = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip("not a git work tree")
    before = _git_status()
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "service-mix",
         "--seed", "1", "--seconds", "0", "--trace", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    document = json.loads(out.read_text())
    assert document["meta"]["cpu_count"] and document["nproc"] and document["seed"] == 1
    assert _git_status() == before
    assert not os.path.exists(os.path.join(ROOT, ".bench_scratch"))

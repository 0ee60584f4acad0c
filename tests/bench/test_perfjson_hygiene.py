"""The bench report never lands in the checkout.

``update_bench_json`` without ``REPRO_BENCH_JSON`` must write under the
system temp directory, so running the test suite (which collects the
benchmarks) leaves ``git status --porcelain`` unchanged.  Skipped
outside a git work tree.
"""

import os
import subprocess
import tempfile

import pytest

from repro.bench.perfjson import update_bench_json

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
        check=True,
    ).stdout


def test_default_bench_json_leaves_tracked_files_unchanged(monkeypatch):
    probe = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip("not a git work tree")
    monkeypatch.delenv("REPRO_BENCH_JSON", raising=False)
    before = _git_status()
    path = update_bench_json("hygiene_probe", {"ok": True})
    assert os.path.dirname(path) == tempfile.gettempdir()
    assert _git_status() == before

"""PyLite through the service daemon: the third-language round trip.

One ``register_language`` call is supposed to light up the whole stack;
this suite holds the daemon to that — an in-daemon session, the
``python -m repro.service run --language pylite`` CLI path, and
registry-derived CLI help.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.api.language import languages
from repro.service.client import ServiceError

SOURCE = (
    "n = sym_int(5, 0, 9)\n"
    "total = 0\n"
    "for i in range(3):\n"
    "    total = total + n\n"
    "if total > 20:\n"
    '    raise ValueError("too big")\n'
    "print(total)\n"
)


class TestDaemonSessions:
    def test_pylite_session_round_trip(self, daemon_factory):
        _service, client = daemon_factory()
        events, result = client.run(
            language="pylite", source=SOURCE, config={"time_budget": 60.0}
        )
        kinds = [e.get("event") for e in events]
        assert "TestCaseFound" in kinds
        assert result["hl_paths"] == 2  # total <= 20 vs ValueError

    def test_unknown_language_is_rejected_with_known_names(self, daemon_factory):
        _service, client = daemon_factory()
        with pytest.raises(ServiceError, match="pylite"):
            client.run(language="ruby", source="x = 1\n")

    def test_compile_error_is_rejected_not_crashed(self, daemon_factory):
        service, client = daemon_factory()
        with pytest.raises(ServiceError):
            client.run(language="pylite", source="x = 1 / 2\n")
        # ...and the daemon keeps serving.
        assert client.ping()["ok"] is True


class TestCli:
    def _cli(self, *argv, timeout=120.0):
        env = dict(os.environ)
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_root)
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
        )

    def test_run_subcommand_against_live_daemon(self, daemon_factory, tmp_path):
        service, _client = daemon_factory()
        target = tmp_path / "target.py"
        target.write_text(SOURCE)
        proc = self._cli(
            "run",
            "--socket", service.config.socket_path,
            "--language", "pylite",
            "--file", str(target),
            "--time-budget", "60",
            "--quiet",
        )
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
        finished = [e for e in lines if e.get("event") == "RunFinished"]
        assert len(finished) == 1
        assert finished[0]["result"]["hl_paths"] == 2

    def test_run_help_lists_registered_languages(self):
        proc = self._cli("run", "--help", timeout=60.0)
        assert proc.returncode == 0
        help_text = proc.stdout
        assert languages() == ["pylite"]
        for name in languages():
            assert name in help_text

"""Bench settings and reporting unit tests."""

from repro.bench.harness import BenchSettings
from repro.bench.reporting import render_table


class TestHarness:
    def test_settings_env_defaults(self):
        settings = BenchSettings()
        assert settings.budget > 0


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # fixed width

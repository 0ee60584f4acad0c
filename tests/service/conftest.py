"""Service-suite fixtures: a daemon-in-a-thread and a clean pool registry.

The daemon runs every session serially; the pool registry is reset because
the in-process baselines several tests compare against run at workers=2.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.parallel.pool import close_shared_pools
from repro.service import ChefService, ServiceClient, ServiceConfig


@pytest.fixture(autouse=True)
def _fresh_shared_pools():
    """Isolate the process-wide pool registry per test."""
    close_shared_pools()
    yield
    close_shared_pools()


@pytest.fixture
def daemon_factory(tmp_path):
    """Start a :class:`ChefService` in a thread; yield a factory.

    The factory returns ``(service, client)`` once the daemon answers
    ``ping``.  Teardown always requests shutdown and joins the thread.
    """
    running = []

    def start(**overrides) -> tuple:
        socket_path = str(tmp_path / f"svc{len(running)}.sock")
        config = ServiceConfig(
            socket_path=socket_path,
            max_time_budget=120.0,
            **overrides,
        )
        service = ChefService(config)
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(socket_path, timeout=120.0)
        deadline = time.monotonic() + 30.0
        last_error = None
        while time.monotonic() < deadline:
            try:
                client.ping()
                break
            except OSError as exc:
                last_error = exc
                time.sleep(0.05)
        else:
            raise RuntimeError(f"daemon never came up: {last_error}")
        running.append((client, thread))
        return service, client

    yield start

    for client, thread in running:
        try:
            client.shutdown()
        except Exception:
            pass
        thread.join(timeout=30.0)

"""The service daemon with the layer tracer installed.

Usage::

    python3 perfbench/tracedaemon.py DUMP_DIR serve --socket PATH ...

Everything after ``DUMP_DIR`` goes to ``python -m repro.service``
unchanged.  When the daemon stops, its shared pool is closed (each
worker writes ``DUMP_DIR/worker-<pid>.json``) and the daemon's own span
totals go to ``DUMP_DIR/daemon.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    import layers

    dump_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.install(dump_dir)
    from repro.parallel.pool import close_shared_pools
    from repro.service.__main__ import main as service_main

    try:
        return service_main(argv)
    finally:
        close_shared_pools()
        with open(os.path.join(dump_dir, "daemon.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())

"""Settings shared by the pytest benchmark suite (``benchmarks/``).

Budgets are wall-clock seconds per run; set ``REPRO_BENCH_BUDGET`` to
trade time for fidelity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass
class BenchSettings:
    """Environment-tunable benchmark knobs."""

    budget: float = float(os.environ.get("REPRO_BENCH_BUDGET", "1.5"))

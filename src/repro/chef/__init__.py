"""Chef core: high-level-aware symbolic execution over the LVM.

This package implements the paper's primary contribution:

- :mod:`repro.chef.hltree` — the high-level execution tree and the
  dynamically discovered high-level CFG (§2.3, Fig. 3),
- :mod:`repro.chef.cupa` — Class-Uniform Path Analysis (§3.2, Fig. 5),
- :mod:`repro.chef.strategies` — the baseline and the path-/coverage-
  optimized CUPA instantiations (§3.3, §3.4),
- :mod:`repro.chef.options` — the run configuration,
- :mod:`repro.chef.engine` — the engine loop gluing it all together,
- :mod:`repro.chef.testcase` — generated test cases and suites.
"""

from repro.chef.options import ChefConfig
from repro.chef.hltree import HighLevelCfg, HighLevelTree
from repro.chef.cupa import CupaTree
from repro.chef.strategies import (
    CoverageCupaStrategy,
    PathCupaStrategy,
    RandomStrategy,
    make_strategy,
)
from repro.chef.testcase import TestCase, TestSuite
from repro.chef.engine import Chef, RunResult

__all__ = [
    "Chef",
    "ChefConfig",
    "CoverageCupaStrategy",
    "CupaTree",
    "HighLevelCfg",
    "HighLevelTree",
    "PathCupaStrategy",
    "RandomStrategy",
    "RunResult",
    "TestCase",
    "TestSuite",
    "make_strategy",
]

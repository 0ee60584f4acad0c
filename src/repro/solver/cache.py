"""Leftover of the removed component verdict cache.

Each :class:`~repro.solver.csp.CspSolver` keeps its own last few models
for counterexample reuse; nothing is cached across solvers, processes
or runs.
"""


def reset_global_model_cache() -> None:
    """No-op: there is no model cache to reset.

    Kept only because the committed benchmark harness still calls it;
    the next benchmark change removes that call and this module.
    """


__all__ = ["reset_global_model_cache"]

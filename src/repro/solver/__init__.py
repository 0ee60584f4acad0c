"""Constraint solving for path conditions (the STP stand-in).

The layer is split along the seam a real SMT solver would drop into:

- :mod:`repro.solver.constraints` — :class:`ConstraintSet`, the
  immutable share-structure path-condition representation every engine
  layer passes around,
- :mod:`repro.solver.backend` — the :class:`SolverBackend` protocol
  (``check``/``max_value`` over constraint sets) all consumers target,
- :mod:`repro.solver.csp` — the built-in finite-domain backend
  (interval propagation + backtracking search, with counterexample
  reuse of its own recent models),
- :mod:`repro.solver.interval` — interval arithmetic used for domain
  propagation and the ``upper_bound`` guest API.
"""

from repro.solver.backend import CheckResult, SAT, SolverBackend, UNKNOWN, UNSAT
from repro.solver.constraints import ConstraintSet
from repro.solver.csp import CspSolver, SolverStats, make_default_solver
from repro.solver.interval import Interval, interval_eval

__all__ = [
    "CheckResult",
    "ConstraintSet",
    "CspSolver",
    "Interval",
    "SAT",
    "SolverBackend",
    "SolverStats",
    "UNKNOWN",
    "UNSAT",
    "interval_eval",
    "make_default_solver",
]

"""The pluggable solver-backend seam.

Every consumer of constraint solving in the engine — fork feasibility in
the low-level executor, test-case generation in Chef, the symbolic
test runner — talks to a
:class:`SolverBackend` and hands it a
:class:`~repro.solver.constraints.ConstraintSet`.  The reproduction ships
one backend (the CSP solver in :mod:`repro.solver.csp`, the STP stand-in);
a real SMT solver drops in by implementing this interface, exactly the
library-style layering argued for by Soteria.

``check`` is total: it returns :data:`UNKNOWN` instead of raising when
the backend's resource budget runs out, so engine code can treat "too
hard" uniformly (the paper's completeness caveat, §3.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional

from repro.solver.constraints import ConstraintSet

#: Verdicts of a satisfiability check.
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one satisfiability check."""

    status: str  #: one of SAT / UNSAT / UNKNOWN
    model: Optional[Dict[str, int]] = None  #: satisfying assignment when SAT

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN


class SolverBackend(ABC):
    """Interface every constraint-solver backend implements.

    Implementations expose a ``stats`` attribute with an ``as_dict()``
    method (counters reported by benchmarks).

    Observability contract (optional but recommended): keep the stats
    counters in a :class:`~repro.obs.metrics.MetricsRegistry` exposed
    as ``stats.registry`` under ``solver.*`` names, and accept a
    ``telemetry`` context (:class:`~repro.obs.telemetry.Telemetry`) to
    record ``solver.check`` / ``solver.max_value`` spans.  The
    low-level engine adopts ``stats.registry`` (and the cache's) into
    its telemetry context when present, which is what makes the
    backend's numbers show up in ``Session.metrics()`` and the trace
    exports; a backend without a registry still works — its counters
    are just invisible to the metrics surface.  See the default
    :class:`~repro.solver.csp.CspSolver` and the "Observability"
    section of ``docs/architecture.md``.
    """

    @abstractmethod
    def check(
        self,
        constraints: ConstraintSet,
        hint: Optional[Dict[str, int]] = None,
        budget: Optional[int] = None,
    ) -> CheckResult:
        """Decide satisfiability of ``constraints``.

        ``hint`` is a partial assignment worth trying first (the parent
        state's concrete inputs); ``budget`` overrides the backend-wide
        effort bound for this query.  Never raises on exhausted budgets —
        returns :data:`UNKNOWN`.
        """

    @abstractmethod
    def max_value(
        self,
        expr,
        constraints: ConstraintSet,
        cap: int = 1 << 20,
        hint: Optional[Dict[str, int]] = None,
    ) -> Optional[int]:
        """Maximum of ``expr`` over satisfying assignments, clamped to
        ``cap``; None when ``constraints`` is unsatisfiable."""

    def satisfiable(
        self,
        constraints: ConstraintSet,
        hint: Optional[Dict[str, int]] = None,
    ) -> bool:
        """True iff ``check`` returns SAT (UNKNOWN counts as not shown)."""
        return self.check(constraints, hint=hint).is_sat


__all__ = ["CheckResult", "SAT", "SolverBackend", "UNKNOWN", "UNSAT"]

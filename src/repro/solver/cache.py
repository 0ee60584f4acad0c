"""Per-solver counterexample/model cache with component-sliced keys.

The KLEE lineage caches solver results two ways; both are reproduced
here, but keyed on *independence components* rather than whole queries.
The solver splits each normalised query into connected components of the
atom/variable graph and consults the cache per component, so one cached
answer serves every future query that contains the same component —
which, with interned atoms and share-structure constraint sets, is most
of them.

Reuse rules (all sound):

- **exact**: the same atom set was answered before → same answer.
- **subset-UNSAT**: a cached UNSAT key that is a *subset* of the query
  is still contradictory inside the bigger query → UNSAT.
- **superset-SAT**: a cached model for a *superset* of the query
  satisfies every query atom (they are all in the superset) → SAT,
  reuse the model.

Keys are frozensets of the interned atoms themselves (``Expr`` hashes
and compares by identity, so structural identity is ``is``).  An entry
keeps its atoms alive, so clearing the expression intern table can
never recycle a key into a stale hit: a re-created atom is a new object
and simply misses.  Each :class:`~repro.solver.csp.CspSolver` owns one
cache; nothing is shared between solvers, processes or runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lowlevel.expr import Expr
from repro.obs.metrics import MetricsRegistry, counter_property

#: Sentinel stored (and returned) for unsatisfiable entries.
UNSAT = "unsat"

#: Reuse kinds reported by :meth:`ModelCache.lookup`.
HIT_EXACT = "exact"
HIT_SUBSET_UNSAT = "subset-unsat"
HIT_SUPERSET_SAT = "superset-sat"

#: Counter fields, registered as ``cache.<field>`` in the obs registry.
_COUNTER_FIELDS = ("hits", "subset_hits", "superset_hits", "misses", "stores")


class ModelCache:
    """Memoises per-component verdicts and recent satisfying models.

    Counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
    under ``cache.*`` names (pass ``registry`` to share an engine
    context's registry; the historical ``cache.hits``-style attributes
    remain as live views).
    """

    def __init__(
        self,
        max_entries: int = 8192,
        max_models: int = 64,
        scan_limit: int = 128,
        registry: Optional[MetricsRegistry] = None,
    ):
        #: key → model dict or UNSAT, most recently used last.
        self._entries: "OrderedDict[FrozenSet[Expr], object]" = OrderedDict()
        self._recent_models: List[Dict[str, int]] = []
        self._max_entries = max_entries
        self._max_models = max_models
        self._scan_limit = scan_limit
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            field: self.registry.counter(f"cache.{field}") for field in _COUNTER_FIELDS
        }
        self._g_entries = self.registry.gauge("cache.entries")

    @staticmethod
    def key_for(atoms) -> FrozenSet[Expr]:
        """Cache key of an atom collection (the interned atoms themselves)."""
        return frozenset(a for a in atoms if isinstance(a, Expr))

    # -- lookup ---------------------------------------------------------------

    def lookup(self, key: FrozenSet[Expr]) -> Optional[Tuple[str, object]]:
        """Return ``(kind, result)`` or None on a miss.

        ``result`` is a model dict or :data:`UNSAT`; ``kind`` is one of
        the ``HIT_*`` constants.  Subset/superset scans are bounded to
        the most recently used entries.
        """
        if not key:
            return None
        entries = self._entries
        exact = entries.get(key)
        if exact is not None:
            entries.move_to_end(key)
            self.hits += 1
            return (HIT_EXACT, exact)
        scanned = 0
        for cached_key in reversed(entries):
            if scanned >= self._scan_limit:
                break
            scanned += 1
            result = entries[cached_key]
            if result == UNSAT:
                if cached_key <= key:
                    entries.move_to_end(cached_key)
                    self.subset_hits += 1
                    return (HIT_SUBSET_UNSAT, UNSAT)
            elif key <= cached_key:
                entries.move_to_end(cached_key)
                self.superset_hits += 1
                return (HIT_SUPERSET_SAT, result)
        self.misses += 1
        return None

    # -- store ----------------------------------------------------------------

    def store(self, key: FrozenSet[Expr], result) -> None:
        """Record a verdict: a model dict or :data:`UNSAT`."""
        if not key:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        self.stores += 1
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
        self._g_entries.value = len(self._entries)
        if isinstance(result, dict):
            self.remember_solution(result)

    def remember_solution(self, solution: Dict[str, int]) -> None:
        """Keep a model for cross-query counterexample reuse."""
        self._recent_models.append(dict(solution))
        if len(self._recent_models) > self._max_models:
            self._recent_models.pop(0)

    def candidate_solutions(self) -> List[Dict[str, int]]:
        """Most-recent-first models for counterexample reuse."""
        return list(reversed(self._recent_models))

    # -- maintenance -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._recent_models.clear()
        for counter in self._counters.values():
            counter.value = 0
        self._g_entries.value = 0

    def stats_dict(self) -> Dict[str, int]:
        """Legacy counter-dict view of the ``cache.*`` registry metrics."""
        stats = {field: counter.value for field, counter in self._counters.items()}
        stats["entries"] = len(self._entries)
        return stats


for _field in _COUNTER_FIELDS:
    setattr(ModelCache, _field, counter_property(_field))
del _field


def reset_global_model_cache() -> None:
    """No-op: there is no process-global cache any more.

    Kept only because the committed benchmark harness still calls it;
    the next benchmark change removes that call and this function.
    """


__all__ = [
    "HIT_EXACT",
    "HIT_SUBSET_UNSAT",
    "HIT_SUPERSET_SAT",
    "ModelCache",
    "UNSAT",
    "reset_global_model_cache",
]

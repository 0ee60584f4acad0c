"""Backtracking CSP solver with interval propagation.

This is the reproduction's constraint solver (the paper uses STP through
S2E), implementing the :class:`~repro.solver.backend.SolverBackend`
protocol over :class:`~repro.solver.constraints.ConstraintSet` inputs.
Path-condition atoms are integer expressions over finite-domain input
variables; the solver decides satisfiability by:

1. normalising each atom to literal form (conditions compared with 0
   unwrapped, truthy conjunctions split) and partitioning the atoms into
   independent connected components — once per constraint-set node,
   derived from its parent's (:class:`~repro.solver.constraints.Partition`),
   so a query pays only for the nodes no earlier query reached,
2. reusing the constraint set's known-model chain — a query whose atoms
   extend an already-satisfied ancestor set first re-checks only the new
   atoms against the ancestor's model (the incremental fast path),
3. solving only the components a new atom lies in, and adopting the
   ancestor model for every other variable (independence slicing),
4. counterexample reuse: trying the hint and the solver's last eight
   models on each remaining component before searching it,
5. alternating single-variable domain tightening with boolean unit
   propagation, which refutes contradictory components with no search
   (clauses are never resolved against each other, so
   ``(x==180 or y!=180) and (x==180 or y==180)`` is left to search),
6. depth-first search with concrete checks, interval pruning and
   forward checking.

Search effort is budgeted in deterministic *steps*; exceeding the budget
raises :class:`~repro.errors.SolverTimeout` from :meth:`CspSolver.solve`
(and surfaces as :data:`~repro.solver.backend.UNKNOWN` from
:meth:`CspSolver.check`), which the engine treats as a discarded state
(the paper's completeness caveat, §3.1).  Hash-function constraints
remain genuinely hard here, exactly as they are for STP — this preserves
the motivation for the paper's hash-neutralisation optimisation (§4.2).
"""

from __future__ import annotations

import logging
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SolverDeadline, SolverTimeout
from repro.obs.metrics import MetricsRegistry, counter_property
from repro.obs.telemetry import Telemetry
from repro.lowlevel.expr import (
    _CMP_SWAP,
    BINOP_FUNCS,
    BinExpr,
    COMPARISONS,
    Expr,
    Sym,
    evaluate,
    mk_binop,
    negate_condition,
)
from repro.solver.backend import CheckResult, SAT, SolverBackend, UNKNOWN, UNSAT
from repro.solver.constraints import Component, ConstraintSet
from repro.solver.interval import Interval, interval_eval

_log = logging.getLogger("repro.solver")

#: Default search budget (value-assignment attempts per query).
DEFAULT_BUDGET = 12_000

#: Cap used by max_value when nothing bounds the expression.
DEFAULT_MAX_CAP = 1 << 20

Constraints = Union[ConstraintSet, Sequence]


#: Counter fields, registered as ``solver.<field>`` in the obs registry.
#: ``incremental_hits`` counts queries answered (fully or partly) from a
#: known ancestor model; ``cex_reuses`` counts components answered by
#: the hint or a recent model; ``atoms_sliced`` counts atoms never (re)solved
#: because independence slicing adopted the ancestor model for their
#: whole component.
_STAT_FIELDS = (
    "queries",
    "sat",
    "unsat",
    "timeouts",
    "deadline_unknowns",
    "search_steps",
    "cex_reuses",
    "max_value_queries",
    "incremental_hits",
    "atoms_sliced",
)

#: How many recent models counterexample reuse tries per component.
_RECENT_MODELS = 8

#: How many search steps run between wall-clock deadline checks — the
#: deadline is a degradation bound, not a precise timer, and checking
#: ``time.monotonic()`` per step would dominate small searches.
_DEADLINE_STRIDE = 128


class SolverStats:
    """Counters accumulated across queries (reported by benchmarks).

    A live attribute view over ``solver.*`` counters in an obs
    :class:`~repro.obs.metrics.MetricsRegistry` — the same store that
    backs ``Session.metrics()`` and the bench JSON, so there is exactly
    one set of numbers.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            field: self.registry.counter(f"solver.{field}") for field in _STAT_FIELDS
        }

    def as_dict(self) -> Dict[str, int]:
        return {field: counter.value for field, counter in self._counters.items()}


for _field in _STAT_FIELDS:
    setattr(SolverStats, _field, counter_property(_field))
del _field


def _affine_of_single_var(expr) -> Optional[Tuple[str, int, int]]:
    """Decompose ``expr`` as ``mul*var + add`` (mul > 0), if possible."""
    if isinstance(expr, Sym):
        return (expr.name, 1, 0)
    if isinstance(expr, BinExpr):
        if expr.op == "add" and not isinstance(expr.b, Expr):
            inner = _affine_of_single_var(expr.a)
            if inner:
                name, mul, add = inner
                return (name, mul, add + expr.b)
        if expr.op == "sub" and not isinstance(expr.b, Expr):
            inner = _affine_of_single_var(expr.a)
            if inner:
                name, mul, add = inner
                return (name, mul, add - expr.b)
        if expr.op == "mul" and not isinstance(expr.b, Expr) and expr.b > 0:
            inner = _affine_of_single_var(expr.a)
            if inner:
                name, mul, add = inner
                return (name, mul * expr.b, add * expr.b)
    return None


def _affine_bound(op: str, mul: int, add: int, c: int) -> Optional[Tuple[Interval, bool]]:
    """Values of ``v`` satisfying ``mul*v + add op c`` (``mul >= 0``).

    Returns (interval, is_disequality); for ``ne`` the interval is the
    *excluded* single point.  None means no restriction.
    """
    c -= add
    if mul == 0:
        return None if BINOP_FUNCS[op](0, c) else (Interval(1, 0), False)
    if op == "eq":
        if c % mul != 0:
            return (Interval(1, 0), False)  # empty: impossible
        return (Interval.exact(c // mul), False)
    if op == "ne":
        if c % mul != 0:
            return None  # always satisfied; no restriction
        return (Interval.exact(c // mul), True)
    if op == "le":
        return (Interval(None, c // mul), False)
    if op == "lt":
        return (Interval(None, (c - 1) // mul), False)
    if op == "ge":
        return (Interval(-(-c // mul), None), False)
    if op == "gt":
        return (Interval(-(-(c + 1) // mul), None), False)
    return None


def _solve_for(atom: Expr, name: str) -> Optional[Tuple[str, int, int, object]]:
    """Read a comparison as ``mul*name + add op other`` (``mul >= 0``).

    ``other`` does not mention ``name``: it is a constant for a
    single-variable atom (a domain bound) and, in search, evaluates to
    one once every other variable is assigned (forward checking).
    """
    if not (isinstance(atom, BinExpr) and atom.op in COMPARISONS):
        return None
    for side, other, op in (
        (atom.a, atom.b, atom.op),
        (atom.b, atom.a, _CMP_SWAP[atom.op]),
    ):
        affine = _affine_of_single_var(side)
        if affine is None or affine[0] != name:
            continue
        _, mul, add = affine
        if isinstance(other, Expr) and name in {v.name for v in other.free_vars()}:
            rest = _affine_of_single_var(other)
            if rest is None:
                return None
            # mul*v + add op m*v + k  <=>  (mul-m)*v + (add-k) op 0
            mul, add, other = mul - rest[1], add - rest[2], 0
            if mul < 0:
                op, mul, add = _CMP_SWAP[op], -mul, -add
        return (op, mul, add, other)
    return None


def _tighten(atoms: Sequence[Expr], work: Dict[str, Tuple[int, int]]) -> bool:
    """Propagate single-variable bounds into ``work`` (bounded passes).

    Returns False when some domain becomes empty.
    """
    for _ in range(4):
        changed = False
        for atom in atoms:
            var, *others = atom.free_vars()
            name = var.name
            read = None if others else _solve_for(atom, name)
            if read is None or isinstance(read[3], Expr):
                continue
            restriction = _affine_bound(*read)
            if restriction is None:
                continue
            interval, is_ne = restriction
            lo, hi = work[name]
            if is_ne:
                # Exclude a single point only when it is an endpoint.
                if interval.lo == lo == hi:
                    return False
                if interval.lo == lo:
                    lo += 1
                    changed = True
                elif interval.lo == hi:
                    hi -= 1
                    changed = True
            else:
                cur = Interval(lo, hi).intersect(interval)
                if cur.is_empty():
                    return False
                new_lo = lo if cur.lo is None else cur.lo
                new_hi = hi if cur.hi is None else cur.hi
                if (new_lo, new_hi) != (lo, hi):
                    lo, hi = new_lo, new_hi
                    changed = True
            work[name] = (lo, hi)
        if not changed:
            break
    return True


def _propagate(
    atoms: Sequence[Expr], domains: Dict[str, Tuple[int, int]]
) -> Optional[List[Expr]]:
    """Boolean unit propagation over the atoms' condition skeletons.

    Asserting an atom fixes its sub-conditions: a true ``land`` (false
    ``lor``) fixes both operands, a comparison its negation, and
    ``X != 0``, ``X == 0`` and ``lnot X`` fix ``X``.  A false ``land``
    (true ``lor``) is a two-literal clause.  A term is also known when
    its interval over ``domains`` excludes 0 or is exactly 0.  Returns
    the comparisons found true, or None when a term is fixed both ways.
    """
    truth: Dict[int, bool] = {}
    terms: List[Expr] = []
    clauses: list = []
    memo: dict = {}

    def known(term) -> Optional[bool]:
        if not isinstance(term, Expr):
            return term != 0
        value = truth.get(id(term))
        if value is None:
            iv = interval_eval(term, domains, None, memo)
            if not iv.contains(0):
                value = True
            elif iv.is_exact():
                value = False
        return value

    def fix(term, value: bool) -> bool:
        stack = [(term, value)]
        while stack:
            term, value = stack.pop()
            have = known(term)
            if have is not None and have != value:
                return False
            if not isinstance(term, Expr) or id(term) in truth:
                continue
            truth[id(term)] = value
            terms.append(term)
            op = getattr(term, "op", None)  # None for a variable
            if op == "lnot":
                stack.append((term.a, not value))
            elif op in ("land", "lor"):
                if value == (op == "land"):
                    stack.append((term.a, value))
                    stack.append((term.b, value))
                else:
                    clauses.append((term.a, value, term.b, value))
            elif op in COMPARISONS:
                stack.append((negate_condition(term), not value))
                if op in ("eq", "ne") and term.b == 0:
                    stack.append((term.a, value == (op == "ne")))
        return True

    for atom in atoms:
        if not fix(atom, True):
            return None
    changed = True
    while changed:
        changed = False
        for a, want_a, b, want_b in clauses:
            have_a, have_b = known(a), known(b)
            if have_a == want_a or have_b == want_b or have_a is have_b is None:
                continue
            if have_a is not None and have_b is not None:
                return None  # both literals false
            if not fix(*((a, want_a) if have_a is None else (b, want_b))):
                return None
            changed = True
    return [
        t for t in terms
        if truth[id(t)] and isinstance(t, BinExpr) and t.op in COMPARISONS
    ]


def _holds(atom, env: Dict[str, int], memo: dict) -> bool:
    """True when ``atom`` is satisfied (nonzero) under ``env``."""
    if not isinstance(atom, Expr):
        return atom != 0
    return evaluate(atom, env, memo) != 0


class CspSolver(SolverBackend):
    """Finite-domain solver over symbolic input variables.

    Every instance keeps its own last few models for counterexample
    reuse, so two solvers never share an answer.  ``incremental=False``
    reproduces the seed's solve-from-scratch behaviour: no known-model
    reads, no chain annotation, no ancestor fast path, no independence
    slicing (used for A/B measurement and regression tests).
    """

    def __init__(
        self,
        budget: int = DEFAULT_BUDGET,
        incremental: bool = True,
        telemetry: Optional[Telemetry] = None,
        deadline_s: Optional[float] = None,
        faults=None,
    ):
        self.budget = budget
        self.incremental = incremental
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.stats = SolverStats(self.telemetry.registry)
        #: most recent models last; counterexample reuse reads them all.
        self._recent: "deque[Dict[str, int]]" = deque(maxlen=_RECENT_MODELS)
        #: per-query wall-clock deadline (seconds; None = unbounded).
        #: Expiry surfaces as UNKNOWN from :meth:`check` and a
        #: :class:`~repro.errors.SolverDeadline` from :meth:`solve`,
        #: counted under ``solver.deadline_unknowns`` — the graceful-
        #: degradation bound that keeps a wedged query from stalling a
        #: whole session.
        self.deadline_s = deadline_s
        #: optional :class:`~repro.faults.FaultInjector` — chaos-test
        #: hook that can stall or fail queries; None costs one check.
        self._faults = faults
        self._deadline_at: Optional[float] = None
        #: a query has given up: later ones are only counted, and the
        #: run's end logs their total (a deadline storm is one line).
        self._gave_up = False

    # -- SolverBackend protocol ---------------------------------------------

    def check(
        self,
        constraints: Constraints,
        hint: Optional[Dict[str, int]] = None,
        budget: Optional[int] = None,
    ) -> CheckResult:
        """Decide satisfiability; UNKNOWN when the budget runs out."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._check_impl(constraints, hint, budget)
        cs = self._as_set(constraints)
        with telemetry.span("solver.check", atoms=len(cs)) as span:
            result = self._check_impl(cs, hint, budget)
            span.set(status=result.status)
        return result

    def _check_impl(
        self,
        constraints: Constraints,
        hint: Optional[Dict[str, int]],
        budget: Optional[int],
    ) -> CheckResult:
        try:
            model = self.solve(constraints, hint, budget)
        except SolverTimeout:
            return CheckResult(UNKNOWN)
        if model is None:
            return CheckResult(UNSAT)
        return CheckResult(SAT, model)

    def solve(
        self,
        constraints: Constraints,
        hint: Optional[Dict[str, int]] = None,
        budget: Optional[int] = None,
    ) -> Optional[Dict[str, int]]:
        """Return a satisfying assignment, or None if UNSAT.

        Raises :class:`SolverTimeout` when the search budget is exhausted.
        The assignment covers every variable occurring in the constraints.
        ``budget`` overrides the solver-wide step budget for this query.
        """
        cs = self._as_set(constraints)
        try:
            return self._solve_set(cs, hint, budget)
        except SolverTimeout as exc:
            if isinstance(exc, SolverDeadline):
                self.stats.deadline_unknowns += 1
            else:
                self.stats.timeouts += 1
            # The engine drops the state: this is the only trace of why.
            if not self._gave_up:
                self._gave_up = True
                _log.warning(
                    "solver query over %d atoms gave up (budget %d steps, deadline "
                    "%ss): %s; later give-ups are only counted",
                    len(cs), self.budget if budget is None else budget,
                    self.deadline_s, exc,
                )
            raise

    def satisfiable(
        self, constraints: Constraints, hint: Optional[Dict[str, int]] = None
    ) -> bool:
        return self.solve(constraints, hint=hint) is not None

    def max_value(
        self,
        expr,
        constraints: Constraints,
        cap: int = DEFAULT_MAX_CAP,
        hint: Optional[Dict[str, int]] = None,
    ) -> Optional[int]:
        """Maximum of ``expr`` over satisfying assignments (upper_bound API).

        Returns None when the constraints are unsatisfiable.  The result is
        clamped to ``cap`` so unconstrained expressions stay finite.
        """
        telemetry = self.telemetry
        if telemetry.enabled:
            with telemetry.span("solver.max_value", cap=cap) as span:
                result = self._max_value_impl(expr, constraints, cap, hint)
                span.set(result=result)
            return result
        return self._max_value_impl(expr, constraints, cap, hint)

    def _max_value_impl(
        self,
        expr,
        constraints: Constraints,
        cap: int,
        hint: Optional[Dict[str, int]],
    ) -> Optional[int]:
        self.stats.max_value_queries += 1
        cs = self._as_set(constraints)
        if not isinstance(expr, Expr):
            return expr if self.satisfiable(cs, hint=hint) else None
        base = self.solve(cs, hint=hint)
        if base is None:
            return None
        domains = dict(cs.partition().domains)
        for var in expr.free_vars():
            domains.setdefault(var.name, (var.lo, var.hi))
        bound = interval_eval(expr, {n: d for n, d in domains.items()})
        hi = cap if bound.hi is None else min(bound.hi, cap)
        lo = evaluate(expr, self._complete(base, expr))
        lo = min(lo, hi)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            probe = cs.append(mk_binop("ge", expr, mid))
            try:
                sol = self.solve(probe, hint=base)
            except SolverTimeout:
                # Be conservative: fall back to the best known value.
                return lo
            if sol is None:
                hi = mid - 1
            else:
                lo = max(mid, min(hi, evaluate(expr, self._complete(sol, expr))))
        return lo

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _as_set(constraints: Constraints) -> ConstraintSet:
        if isinstance(constraints, ConstraintSet):
            return constraints
        return ConstraintSet.from_atoms(constraints)

    def _solve_set(
        self,
        cs: ConstraintSet,
        hint: Optional[Dict[str, int]],
        budget: Optional[int],
    ) -> Optional[Dict[str, int]]:
        stats = self.stats
        stats.queries += 1
        # Arm the per-query wall-clock deadline before any injected
        # stall, so a wedged query degrades to UNKNOWN instead of
        # costing its full stall repeatedly deeper in the search.
        self._deadline_at = (
            time.monotonic() + self.deadline_s
            if self.deadline_s is not None
            else None
        )
        if self._faults is not None:
            self._faults.on_solver_query()  # may stall or raise SolverTimeout
            self._check_deadline()
        ancestor: Optional[ConstraintSet] = None
        if self.incremental:
            if cs.known_unsat:
                stats.unsat += 1
                stats.incremental_hits += 1
                return None
            known = cs.model
            if known is not None:
                stats.sat += 1
                stats.incremental_hits += 1
                return self._complete_over_domains(known, cs.partition().domains)
            ancestor = cs.model_ancestor()
        part = cs.partition()
        if part.unsat:
            stats.unsat += 1
            if self.incremental:
                cs.note_unsat()
            return None
        if not part.n_atoms:
            stats.sat += 1
            return dict(hint) if hint else {}
        domains = part.domains

        ancestor_model: Optional[Dict[str, int]] = None
        if ancestor is None:
            pending = part.components()
        else:
            ancestor_model = ancestor.model
            new_atoms = cs.new_atoms_since(ancestor)
            # Incremental fast path: the ancestor model satisfies every
            # one of its atoms by contract; re-check just the appended
            # ones against it before any component work or search.
            if new_atoms:
                env = self._complete_over_domains(ancestor_model, domains)
                memo: dict = {}
                if all(_holds(a, env, memo) for a in new_atoms):
                    stats.sat += 1
                    stats.incremental_hits += 1
                    cs.note_model(env)
                    self._recent.append(dict(env))
                    return dict(env)
            pending = part.touched(new_atoms)

        merged_hint: Dict[str, int] = dict(ancestor_model) if ancestor_model else {}
        if hint:
            merged_hint.update(hint)
        step_budget = budget if budget is not None else self.budget

        # Independence slicing: a component no new atom touches is made
        # only of the ancestor's atoms, all satisfied by its model; adopt
        # its values for every such variable without solving anything.
        # Counted before any search, so the slicing benefit is realised
        # even when a touched component later proves the query UNSAT.
        solution: Dict[str, int] = {}
        sliced = ancestor_model is not None and len(pending) < part.n_components
        if sliced:
            solution = self._complete_over_domains(ancestor_model, domains)
            stats.atoms_sliced += part.n_atoms - sum(len(atoms) for _, atoms in pending)
        steps_used = 0
        unsat = False
        for comp in pending:
            names, atoms = comp
            comp_domains = {n: domains[n] for n in names}
            # Counterexample reuse: try recent solutions before searching.
            result = self._try_recent_solutions(atoms, comp_domains, merged_hint)
            if result is not None:
                stats.cex_reuses += 1
            else:
                result, used = self._search_component(
                    comp, comp_domains, merged_hint, step_budget - steps_used
                )
                steps_used += used
                stats.search_steps += used
                if result is None:
                    unsat = True
                    break
            self._recent.append(dict(result))
            solution.update(result)

        if sliced:
            stats.incremental_hits += 1
        if unsat:
            stats.unsat += 1
            if self.incremental:
                cs.note_unsat()
            return None
        stats.sat += 1
        if self.incremental:
            cs.note_model(dict(solution))
        self._recent.append(dict(solution))
        return dict(solution)

    def _check_deadline(self) -> None:
        if (
            self._deadline_at is not None
            and time.monotonic() > self._deadline_at
        ):
            raise SolverDeadline(
                f"solver deadline ({self.deadline_s}s) exceeded"
            )

    @staticmethod
    def _complete_over_domains(
        model: Dict[str, int], domains: Dict[str, Tuple[int, int]]
    ) -> Dict[str, int]:
        """Model completed with ``lo`` defaults, restricted to ``domains``.

        Matches the note_model contract: missing variables take their
        domain minimum, out-of-domain values (impossible for contract-
        respecting callers) fall back to it too, keeping results sound.
        """
        env: Dict[str, int] = {}
        for name, (lo, hi) in domains.items():
            v = model.get(name, lo)
            env[name] = v if lo <= v <= hi else lo
        return env

    @staticmethod
    def _complete(solution: Dict[str, int], expr: Expr) -> Dict[str, int]:
        env = dict(solution)
        for var in expr.free_vars():
            env.setdefault(var.name, var.lo)
        return env

    def _try_recent_solutions(
        self,
        atoms: Sequence[Expr],
        domains: Dict[str, Tuple[int, int]],
        hint: Optional[Dict[str, int]],
    ) -> Optional[Dict[str, int]]:
        candidates = []
        if hint:
            candidates.append(hint)
        candidates.extend(reversed(self._recent))
        for candidate in candidates:
            env = {}
            ok = True
            for name, (lo, hi) in domains.items():
                v = candidate.get(name, lo)
                if not (lo <= v <= hi):
                    ok = False
                    break
                env[name] = v
            if not ok:
                continue
            if all(evaluate(a, env) for a in atoms):
                return env
        return None

    def _search_component(
        self,
        comp: Component,
        domains: Dict[str, Tuple[int, int]],
        hint: Dict[str, int],
        budget: int,
    ) -> Tuple[Optional[Dict[str, int]], int]:
        if budget <= 0:
            raise SolverTimeout("solver budget exhausted before search")

        # Before search: bounds and boolean unit propagation feed each
        # other; implied literals join the component (bounded rounds).
        names, atoms = comp
        work = dict(domains)
        atoms = list(atoms)
        seen = {id(a) for a in atoms}
        for _ in range(3):
            if not _tighten(atoms, work):
                return None, 0
            implied = _propagate(atoms, work)
            if implied is None:
                return None, 0
            fresh = [a for a in implied if id(a) not in seen]
            if not fresh:
                break
            seen.update(id(a) for a in fresh)
            atoms.extend(fresh)

        order = sorted(names, key=lambda n: (work[n][1] - work[n][0], n))
        var_atoms: Dict[str, List[Expr]] = {n: [] for n in order}
        completes_at: Dict[str, List[Expr]] = {n: [] for n in order}
        checks: Dict[str, list] = {n: [] for n in order}
        position = {n: i for i, n in enumerate(order)}
        for atom in atoms:
            names = [v.name for v in atom.free_vars()]
            last = max(names, key=lambda n: position[n])
            completes_at[last].append(atom)
            read = _solve_for(atom, last)
            if read is not None:
                checks[last].append(read)
            for n in names:
                if n != last:
                    var_atoms[n].append(atom)

        env: Dict[str, int] = {}
        steps = 0
        deadline_at = self._deadline_at

        def candidates(name: str, lo: int, hi: int):
            tried = set()
            for v in (hint.get(name), lo, hi):
                if v is not None and lo <= v <= hi and v not in tried:
                    tried.add(v)
                    yield v
            for v in range(lo, hi + 1):
                if v not in tried:
                    yield v

        def search(idx: int) -> bool:
            nonlocal steps
            if idx == len(order):
                return True
            name = order[idx]
            # Forward checking: an atom this variable completes, with
            # every other variable assigned, bounds its candidates.
            span = Interval(*work[name])
            for op, mul, add, other in checks[name]:
                restriction = _affine_bound(op, mul, add, evaluate(other, env))
                if restriction is not None and not restriction[1]:
                    span = span.intersect(restriction[0])
            for value in candidates(name, span.lo, span.hi):
                steps += 1
                if steps > budget:
                    raise SolverTimeout(
                        f"solver budget exhausted ({budget} steps)"
                    )
                if (
                    deadline_at is not None
                    and steps % _DEADLINE_STRIDE == 0
                    and time.monotonic() > deadline_at
                ):
                    raise SolverDeadline(
                        f"solver deadline ({self.deadline_s}s) exceeded "
                        f"after {steps} steps"
                    )
                env[name] = value
                ok = True
                for atom in completes_at[name]:
                    if not evaluate(atom, env):
                        ok = False
                        break
                if ok:
                    for atom in var_atoms[name]:
                        iv = interval_eval(atom, work, env, {})
                        if iv.is_exact() and iv.lo == 0:
                            ok = False
                            break
                if ok and search(idx + 1):
                    return True
                del env[name]
            return False

        try:
            if search(0):
                return dict(env), steps
        except SolverTimeout:
            self.stats.search_steps += steps
            raise
        return None, steps


def make_default_solver(
    budget: int = DEFAULT_BUDGET,
    telemetry: Optional[Telemetry] = None,
    deadline_s: Optional[float] = None,
    faults=None,
) -> CspSolver:
    """Factory used by the engine; the solver starts with no recent models.

    ``telemetry`` shares the caller's observability context (registry +
    tracer) so solver counters land in the engine's one registry.
    ``deadline_s`` bounds each query's wall clock (graceful degradation
    to UNKNOWN); ``faults`` is the chaos-test injector, None in
    production.
    """
    return CspSolver(
        budget=budget, telemetry=telemetry, deadline_s=deadline_s, faults=faults
    )


__all__ = [
    "CspSolver",
    "SolverStats",
    "make_default_solver",
    "DEFAULT_BUDGET",
    "DEFAULT_MAX_CAP",
]

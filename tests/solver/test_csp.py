"""CSP solver tests: correctness, decomposition, budgets, max_value."""

import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverTimeout
from repro.faults import FaultInjector, FaultPlan
from repro.lowlevel.expr import Sym, evaluate, mk_binop, mk_unop
from repro.solver.backend import UNKNOWN
from repro.solver.constraints import _normalise
from repro.solver.csp import CspSolver


def _vars(prefix, n, lo=0, hi=255):
    return [Sym(f"{prefix}_{i}", lo, hi) for i in range(n)]


class TestSat:
    def test_simple_equality(self):
        (x,) = _vars("cs_a", 1)
        solver = CspSolver()
        assert solver.solve([mk_binop("eq", x, 65)]) == {"cs_a_0": 65}

    def test_conjunction_of_bounds(self):
        (x,) = _vars("cs_b", 1)
        solver = CspSolver()
        sol = solver.solve([mk_binop("gt", x, 10), mk_binop("lt", x, 13)])
        assert sol["cs_b_0"] in (11, 12)

    def test_multi_variable(self):
        x, y = _vars("cs_c", 2)
        solver = CspSolver()
        sol = solver.solve([mk_binop("gt", mk_binop("add", x, y), 500)])
        assert sol["cs_c_0"] + sol["cs_c_1"] > 500

    def test_affine_propagation(self):
        (x,) = _vars("cs_d", 1)
        solver = CspSolver()
        # 3x + 5 == 26  =>  x == 7
        expr = mk_binop("add", mk_binop("mul", x, 3), 5)
        sol = solver.solve([mk_binop("eq", expr, 26)])
        assert sol == {"cs_d_0": 7}
        assert solver.stats.search_steps <= 3

    def test_hint_respected_for_free_variables(self):
        x, y = _vars("cs_e", 2)
        solver = CspSolver()
        sol = solver.solve([mk_binop("eq", x, 1)], hint={"cs_e_1": 42, "cs_e_0": 0})
        assert sol["cs_e_0"] == 1

    def test_independent_components_solved_separately(self):
        x, y = _vars("cs_f", 2)
        solver = CspSolver()
        sol = solver.solve([mk_binop("eq", x, 3), mk_binop("eq", y, 4)])
        assert sol == {"cs_f_0": 3, "cs_f_1": 4}

    def test_empty_constraints_sat(self):
        solver = CspSolver()
        assert solver.solve([]) == {}

    def test_concrete_constraints(self):
        solver = CspSolver()
        assert solver.solve([1, 2]) == {}
        assert solver.solve([1, 0]) is None


class TestUnsat:
    def test_domain_violation(self):
        (x,) = _vars("cs_g", 1)
        solver = CspSolver()
        assert solver.solve([mk_binop("gt", x, 255)]) is None

    def test_contradiction(self):
        (x,) = _vars("cs_h", 1)
        solver = CspSolver()
        assert solver.solve([mk_binop("eq", x, 1), mk_binop("eq", x, 2)]) is None

    def test_modular_impossibility(self):
        (x,) = _vars("cs_i", 1)
        solver = CspSolver()
        # 2x == 7 has no integer solution.
        assert solver.solve([mk_binop("eq", mk_binop("mul", x, 2), 7)]) is None


class TestDecomposition:
    def test_branchfree_equality_chain_propagates(self):
        # (c0==104)&(c1==105) != 0 — the shape produced by fast-path-
        # eliminated string comparison; must solve without search blowup.
        c0, c1 = _vars("cs_j", 2)
        conj = mk_binop("and", mk_binop("eq", c0, 104), mk_binop("eq", c1, 105))
        solver = CspSolver()
        sol = solver.solve([mk_binop("ne", conj, 0)])
        assert sol == {"cs_j_0": 104, "cs_j_1": 105}
        assert solver.stats.search_steps <= 4

    def test_negated_disjunction_decomposes(self):
        c0, c1 = _vars("cs_k", 2)
        disj = mk_binop("or", mk_binop("ne", c0, 0), mk_binop("ne", c1, 0))
        solver = CspSolver()
        sol = solver.solve([mk_binop("eq", disj, 0)])
        assert sol == {"cs_k_0": 0, "cs_k_1": 0}

    def test_land_decomposes(self):
        c0, c1 = _vars("cs_l", 2)
        conj = mk_binop("land", mk_binop("gt", c0, 250), mk_binop("lt", c1, 2))
        solver = CspSolver()
        sol = solver.solve([conj])
        assert sol["cs_l_0"] > 250 and sol["cs_l_1"] < 2

    def test_negated_comparison_narrows_domain(self):
        # lnot(y >= 142) reaches the solver as (y >= 142) == 0; it must
        # become the bound y < 142, not an atom left to search.
        (y,) = _vars("cs_u", 1)
        negated = mk_binop("eq", mk_binop("ge", y, 142), 0)
        assert _normalise([negated]) == [mk_binop("lt", y, 142)]
        solver = CspSolver()
        assert solver.solve([negated, mk_binop("gt", y, 141)]) is None
        assert solver.stats.search_steps == 0

    def test_truthy_land_under_ne_zero_decomposes(self):
        c0, c1 = _vars("cs_v", 2)
        a, b = mk_binop("gt", c0, 250), mk_binop("lt", c1, 2)
        wrapped = mk_binop("ne", mk_binop("land", a, b), 0)
        assert set(_normalise([wrapped])) == {a, b}
        solver = CspSolver()
        sol = solver.solve([wrapped])
        assert sol["cs_v_0"] > 250 and sol["cs_v_1"] < 2
        assert solver.stats.search_steps <= 2

    def test_equality_between_variables_is_canonical(self):
        x, y = _vars("cs_w", 2)
        assert mk_binop("eq", y, x) is mk_binop("eq", x, y)
        assert mk_binop("ne", y, x) is mk_binop("ne", x, y)


class TestBudget:
    def test_timeout_raised_and_counted(self):
        xs = _vars("cs_m", 6)
        # A hash-like constraint: hard for search.
        h = 0
        for x in xs:
            h = mk_binop("mod", mk_binop("add", mk_binop("mul", h, 33), x), 65536)
        solver = CspSolver(budget=50)
        with pytest.raises(SolverTimeout):
            solver.solve([mk_binop("eq", h, 12345)])
        assert solver.stats.timeouts == 1
        assert solver.stats.search_steps >= 50

    def test_per_call_budget_override(self):
        xs = _vars("cs_n", 6)
        h = 0
        for x in xs:
            h = mk_binop("mod", mk_binop("add", mk_binop("mul", h, 131), x), 4096)
        solver = CspSolver(budget=10_000_000)
        with pytest.raises(SolverTimeout):
            solver.solve([mk_binop("eq", h, 4095)], budget=25)


    def test_budget_out_logs_one_warning(self, caplog):
        # A dropped state is otherwise silent: each budget-out is one
        # warning naming the budget and the query size.
        (x,) = _vars("cs_x", 1)
        solver = CspSolver(faults=FaultInjector(FaultPlan(fail_query_every=3)))
        with caplog.at_level(logging.WARNING, logger="repro.solver"):
            statuses = [solver.check([mk_binop("eq", x, v)]).status for v in range(6)]
        assert statuses.count(UNKNOWN) == 2 == solver.stats.timeouts
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.solver"]
        assert len(messages) == 2
        assert all("over 1 atoms" in m and "budget 12000 steps" in m for m in messages)

    def test_deadline_logs_one_warning(self, caplog):
        (x,) = _vars("cs_y", 1)
        plan = FaultPlan(wedge_from_query=0, wedge_seconds=0.02)
        solver = CspSolver(deadline_s=0.001, faults=FaultInjector(plan))
        with caplog.at_level(logging.WARNING, logger="repro.solver"):
            assert solver.check([mk_binop("eq", x, 1)]).status == UNKNOWN
        assert solver.stats.deadline_unknowns == 1
        (message,) = [r.getMessage() for r in caplog.records if r.name == "repro.solver"]
        assert "deadline 0.001s" in message


class TestCaching:
    def test_repeat_query_reuses_model_without_search(self):
        (x,) = _vars("cs_o", 1)
        solver = CspSolver()
        atom = mk_binop("eq", x, 9)
        assert solver.solve([atom]) == {"cs_o_0": 9}
        searched, reused = solver.stats.search_steps, solver.stats.cex_reuses
        assert solver.solve([atom]) == {"cs_o_0": 9}
        assert solver.stats.search_steps == searched
        assert solver.stats.cex_reuses == reused + 1

    def test_recent_models_bounded(self):
        (x,) = _vars("cs_t", 1)
        solver = CspSolver()
        for v in range(12):
            solver.solve([mk_binop("eq", x, v)])
        # Each query leaves its model twice (the component's and the whole
        # solution), so the eight kept models are the last four queries'.
        reused = solver.stats.cex_reuses
        solver.solve([mk_binop("eq", x, 8)])
        assert solver.stats.cex_reuses == reused + 1
        searched = solver.stats.search_steps
        solver.solve([mk_binop("eq", x, 7)])
        assert solver.stats.cex_reuses == reused + 1
        assert solver.stats.search_steps > searched

    def test_two_solvers_never_share_a_model(self):
        x = Sym("cs_solo", 0, 255)
        atoms = [mk_binop("eq", mk_binop("mul", x, 3), 42)]
        first, second = CspSolver(), CspSolver()
        assert first.solve(atoms) == {"cs_solo": 14}
        assert first.stats.search_steps > 0
        assert second.solve(atoms) == {"cs_solo": 14}
        assert second.stats.search_steps > 0  # solved itself, no shared model
        assert second.stats.cex_reuses == 0

    def test_counterexample_reuse(self):
        x, y = _vars("cs_p", 2)
        solver = CspSolver()
        solver.solve([mk_binop("gt", x, 100)])
        solver.solve([mk_binop("gt", x, 100), mk_binop("ge", y, 0)])
        assert solver.stats.cex_reuses >= 1


class TestMaxValue:
    def test_bounded_maximum(self):
        (x,) = _vars("cs_q", 1, 0, 100)
        solver = CspSolver()
        assert solver.max_value(x, [mk_binop("lt", x, 50)]) == 49

    def test_concrete_expression(self):
        solver = CspSolver()
        assert solver.max_value(7, []) == 7

    def test_unsat_returns_none(self):
        (x,) = _vars("cs_r", 1)
        solver = CspSolver()
        assert solver.max_value(x, [mk_binop("gt", x, 999)]) is None

    def test_cap_applies(self):
        (x,) = _vars("cs_s", 1, 0, 255)
        solver = CspSolver()
        big = mk_binop("mul", x, 1 << 30)
        assert solver.max_value(big, [], cap=1000) <= 1000


@settings(max_examples=40)
@given(
    consts=st.lists(st.integers(0, 255), min_size=1, max_size=4),
    bound=st.integers(0, 300),
)
def test_solutions_always_satisfy(consts, bound):
    """Soundness: whatever the solver returns must satisfy the query."""
    solver = CspSolver()
    xs = _vars(f"cs_t{len(consts)}_{bound}", len(consts))
    atoms = [mk_binop("ne", x, c) for x, c in zip(xs, consts)]
    total = 0
    for x in xs:
        total = mk_binop("add", total, x)
    atoms.append(mk_binop("le", total, bound))
    try:
        sol = solver.solve(atoms)
    except SolverTimeout:
        return
    if sol is None:
        # UNSAT is only legitimate when the excluded zeros force the sum
        # above the bound (each x with ne(x, 0) must be at least 1).
        assert bound < sum(1 for c in consts if c == 0)
        return
    for atom in atoms:
        assert evaluate(atom, sol) == 1

"""SolverBackend protocol conformance and seed-behaviour regression.

The refactor moved every consumer onto ``SolverBackend.check`` with
``ConstraintSet`` inputs; these tests pin the protocol surface and prove
the incremental pipeline returns the same verdicts as the seed's
solve-from-scratch behaviour on a fixed query corpus.
"""

import pytest

from repro.errors import SolverTimeout
from repro.lowlevel.expr import Sym, evaluate, mk_binop
from repro.solver.backend import SAT, SolverBackend, UNKNOWN, UNSAT
from repro.solver.constraints import ConstraintSet
from repro.solver.csp import CspSolver


def _fresh_solver(**kwargs) -> CspSolver:
    return CspSolver(**kwargs)


class TestProtocol:
    def test_cspsolver_is_a_backend(self):
        assert isinstance(CspSolver(), SolverBackend)

    def test_check_sat_carries_model(self):
        (x,) = (Sym("bk_a_0", 0, 255),)
        result = _fresh_solver().check(
            ConstraintSet.from_atoms([mk_binop("eq", x, 65)])
        )
        assert result.status == SAT and result.is_sat
        assert result.model == {"bk_a_0": 65}

    def test_check_unsat_has_no_model(self):
        (x,) = (Sym("bk_b_0", 0, 255),)
        result = _fresh_solver().check(
            ConstraintSet.from_atoms([mk_binop("gt", x, 255)])
        )
        assert result.status == UNSAT and result.is_unsat
        assert result.model is None

    def test_check_returns_unknown_instead_of_raising(self):
        xs = [Sym(f"bk_c_{i}", 0, 255) for i in range(6)]
        h = 0
        for x in xs:
            h = mk_binop("mod", mk_binop("add", mk_binop("mul", h, 33), x), 65536)
        solver = _fresh_solver(budget=50)
        query = ConstraintSet.from_atoms([mk_binop("eq", h, 12345)])
        result = solver.check(query)
        assert result.status == UNKNOWN and result.is_unknown
        assert solver.stats.timeouts == 1
        # The legacy surface still raises for callers that want it.
        with pytest.raises(SolverTimeout):
            solver.solve(query)

    def test_satisfiable_via_protocol(self):
        (x,) = (Sym("bk_d_0", 0, 255),)
        solver = _fresh_solver()
        assert solver.satisfiable(ConstraintSet.from_atoms([mk_binop("lt", x, 5)]))

    def test_max_value_accepts_constraint_sets(self):
        (x,) = (Sym("bk_e_0", 0, 100),)
        solver = _fresh_solver()
        assert solver.max_value(x, ConstraintSet.from_atoms([mk_binop("lt", x, 50)])) == 49


def _corpus(prefix):
    """Fixed queries spanning the seed solver's behaviours.

    Returns (name, atoms, expected_verdict) triples; expected verdicts
    are the seed CspSolver's answers (pinned by tests/solver/test_csp.py).
    """
    a = Sym(f"{prefix}_a", 0, 255)
    b = Sym(f"{prefix}_b", 0, 255)
    c = Sym(f"{prefix}_c", 0, 9)
    conj = mk_binop("and", mk_binop("eq", a, 104), mk_binop("eq", b, 105))
    return [
        ("simple-eq", [mk_binop("eq", a, 65)], SAT),
        ("bounds", [mk_binop("gt", a, 10), mk_binop("lt", a, 13)], SAT),
        ("multi-var", [mk_binop("gt", mk_binop("add", a, b), 500)], SAT),
        ("independent", [mk_binop("eq", a, 3), mk_binop("eq", b, 4)], SAT),
        ("domain-violation", [mk_binop("gt", a, 255)], UNSAT),
        ("contradiction", [mk_binop("eq", a, 1), mk_binop("eq", a, 2)], UNSAT),
        ("modular", [mk_binop("eq", mk_binop("mul", a, 2), 7)], UNSAT),
        ("conj-chain", [mk_binop("ne", conj, 0)], SAT),
        ("small-domain", [mk_binop("ge", c, 9)], SAT),
        ("empty", [], SAT),
        ("concrete-true", [1, 2], SAT),
        ("concrete-false", [1, 0], UNSAT),
    ]


class TestSeedRegression:
    def test_verdicts_match_seed_behaviour(self):
        """Protocol path == seed verdicts, with models that satisfy."""
        solver = _fresh_solver()
        for name, atoms, expected in _corpus("bkr"):
            result = solver.check(ConstraintSet.from_atoms(atoms))
            assert result.status == expected, name
            if result.is_sat:
                for atom in atoms:
                    if hasattr(atom, "free_vars"):
                        assert evaluate(atom, result.model) != 0, name

    def test_incremental_agrees_with_non_incremental(self):
        """Slicing/model reuse must never change a verdict."""
        plain = _fresh_solver(incremental=False)
        fancy = _fresh_solver()
        for name, atoms, _ in _corpus("bki"):
            # Fresh chains per solver so noted models don't cross over.
            expected = plain.check(ConstraintSet.from_atoms(atoms)).status
            got = fancy.check(ConstraintSet.from_atoms(atoms)).status
            assert got == expected, name

    def test_incremental_agrees_on_extended_chains(self):
        """Append-after-solve (the fork pattern) keeps verdicts identical."""
        a = Sym("bkx_a", 0, 255)
        b = Sym("bkx_b", 0, 255)
        base_atoms = [mk_binop("gt", a, 10), mk_binop("lt", b, 200)]
        extensions = [
            mk_binop("lt", a, 100),   # sat with base
            mk_binop("eq", a, 5),     # contradicts gt(a, 10)
            mk_binop("eq", b, 7),     # sat with base
        ]
        plain = _fresh_solver(incremental=False)
        fancy = _fresh_solver()
        fancy_base = ConstraintSet.from_atoms(base_atoms)
        fancy.solve(fancy_base)  # records a model on the chain
        for ext in extensions:
            expected = plain.check(ConstraintSet.from_atoms(base_atoms + [ext])).status
            got = fancy.check(fancy_base.append(ext)).status
            assert got == expected, ext

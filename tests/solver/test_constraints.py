"""ConstraintSet: structural sharing, slicing indexes, model fast path."""

from repro.lowlevel.expr import Sym, evaluate, mk_binop
from repro.solver import constraints
from repro.solver.constraints import ConstraintSet
from repro.solver.csp import CspSolver


def _vars(prefix, n, lo=0, hi=255):
    return [Sym(f"{prefix}_{i}", lo, hi) for i in range(n)]


class TestStructure:
    def test_empty_singleton(self):
        assert ConstraintSet.empty() is ConstraintSet.empty()
        assert len(ConstraintSet.empty()) == 0
        assert not ConstraintSet.empty()
        assert ConstraintSet.empty().atoms() == []

    def test_append_shares_structure(self):
        (x,) = _vars("ccs_a", 1)
        a1 = mk_binop("gt", x, 1)
        a2 = mk_binop("lt", x, 9)
        base = ConstraintSet.empty().append(a1)
        child = base.append(a2)
        assert child.parent is base
        assert base.atoms() == [a1]          # parent unchanged
        assert child.atoms() == [a1, a2]     # oldest first
        assert len(child) == 2
        # Two children share the same parent chain object.
        sibling = base.append(mk_binop("eq", x, 5))
        assert sibling.parent is child.parent is base

    def test_from_atoms_and_extend(self):
        x, y = _vars("ccs_b", 2)
        atoms = [mk_binop("gt", x, 1), mk_binop("lt", y, 9)]
        cs = ConstraintSet.from_atoms(atoms)
        assert cs.atoms() == atoms
        assert ConstraintSet.from_atoms(cs) is cs
        assert cs.extend([]).atoms() == atoms
        assert list(cs) == atoms

    def test_key_is_stable(self):
        (x,) = _vars("ccs_c", 1)
        atom = mk_binop("gt", x, 1)
        assert (
            ConstraintSet.from_atoms([atom]).key()
            == ConstraintSet.from_atoms([atom]).key()
        )

    def test_non_expr_atoms_allowed(self):
        cs = ConstraintSet.from_atoms([1, 0])
        assert cs.atoms() == [1, 0]
        assert cs.free_names == frozenset()


class TestIndexes:
    def test_free_names_accumulate(self):
        x, y = _vars("ccs_d", 2)
        base = ConstraintSet.empty().append(mk_binop("gt", x, 1))
        child = base.append(mk_binop("lt", y, 9))
        assert base.free_names == {x.name}
        assert child.free_names == {x.name, y.name}

    def test_domains(self):
        (x,) = _vars("ccs_e", 1, 3, 7)
        cs = ConstraintSet.from_atoms([mk_binop("gt", x, 4)])
        assert cs.partition().domains == {x.name: (3, 7)}

    def test_components_split_independent_vars(self):
        x, y, z = _vars("ccs_f", 3)
        cs = ConstraintSet.from_atoms(
            [mk_binop("gt", x, 1), mk_binop("lt", y, 9), mk_binop("eq", z, 4)]
        )
        comps = cs.partition().components()
        assert len(comps) == 3
        assert sorted(len(atoms) for _, atoms in comps) == [1, 1, 1]

    def test_components_merge_linked_vars(self):
        x, y, z = _vars("ccs_g", 3)
        link = mk_binop("lt", mk_binop("add", x, y), 100)
        cs = ConstraintSet.from_atoms([link, mk_binop("eq", z, 4)])
        comps = cs.partition().components()
        assert len(comps) == 2
        names = sorted(sorted(n) for n, _ in comps)
        assert names == [[x.name, y.name], [z.name]]

    def test_components_memoized(self):
        x, y = _vars("ccs_h", 2)
        cs = ConstraintSet.from_atoms([mk_binop("gt", x, 1), mk_binop("lt", y, 9)])
        assert cs.partition() is cs.partition()
        # A child derives its partition from its parent's, sharing the
        # components its atom does not touch.
        child = cs.append(mk_binop("lt", x, 50))
        assert child.partition().comp_of[y.name] is cs.partition().comp_of[y.name]
        assert child.partition().new == (mk_binop("lt", x, 50),)


class TestModels:
    def test_split_at_model_finds_nearest_ancestor(self):
        (x,) = _vars("ccs_i", 1)
        a1 = mk_binop("gt", x, 10)
        a2 = mk_binop("lt", x, 20)
        a3 = mk_binop("ne", x, 15)
        base = ConstraintSet.empty().append(a1)
        base.note_model({x.name: 11})
        leaf = base.append(a2).append(a3)
        model, prefix, suffix = leaf.split_at_model()
        assert model == {x.name: 11}
        assert prefix == [a1]
        assert suffix == [a2, a3]

    def test_split_without_model(self):
        (x,) = _vars("ccs_j", 1)
        atoms = [mk_binop("gt", x, 10)]
        model, prefix, suffix = ConstraintSet.from_atoms(atoms).split_at_model()
        assert model is None
        assert prefix == []
        assert suffix == atoms

    def test_solver_records_model_on_set(self):
        (x,) = _vars("ccs_k", 1)
        solver = CspSolver()
        cs = ConstraintSet.from_atoms([mk_binop("eq", x, 7)])
        assert solver.solve(cs) == {x.name: 7}
        assert cs.model == {x.name: 7}

    def test_model_recheck_fast_path(self):
        """Appending a satisfied atom must not trigger any search."""
        x, y = _vars("ccs_l", 2)
        solver = CspSolver()
        base = ConstraintSet.from_atoms(
            [mk_binop("gt", x, 100), mk_binop("lt", y, 50)]
        )
        model = solver.solve(base)
        steps_before = solver.stats.search_steps
        hits_before = solver.stats.incremental_hits
        # The new atom is satisfied by the recorded model: fast path.
        probe = base.append(mk_binop("ge", x, model[x.name]))
        assert solver.solve(probe) is not None
        assert solver.stats.search_steps == steps_before
        assert solver.stats.incremental_hits == hits_before + 1

    def test_slicing_solves_only_touched_component(self):
        """Negating one byte's branch must not re-search other bytes."""
        xs = _vars("ccs_m", 4)
        atoms = [mk_binop("eq", v, 10 + i) for i, v in enumerate(xs)]
        base = ConstraintSet.from_atoms(atoms)
        base.note_model({v.name: 10 + i for i, v in enumerate(xs)})
        solver = CspSolver()
        probe = base.append(mk_binop("ne", xs[0], 10))  # contradicts x0 atom
        assert solver.solve(probe) is None
        # Components of x1..x3 were adopted from the model, never searched.
        assert solver.stats.atoms_sliced == 3
        assert solver.stats.incremental_hits == 1

    def test_known_unsat_memoized(self):
        (x,) = _vars("ccs_n", 1)
        solver = CspSolver()
        cs = ConstraintSet.from_atoms([mk_binop("eq", x, 1), mk_binop("eq", x, 2)])
        assert solver.solve(cs) is None
        assert cs.known_unsat
        hits_before = solver.stats.incremental_hits
        assert solver.solve(cs) is None
        assert solver.stats.incremental_hits == hits_before + 1


class TestIncrementalQueries:
    def test_each_query_normalises_only_its_new_atom(self, monkeypatch):
        """A 200-atom chain queried at every length normalises each atom once."""
        xs = _vars("ccs_o", 8)
        calls = []
        normalise = constraints._normalise

        def counting(atoms):
            calls.append(len(atoms))
            return normalise(atoms)

        monkeypatch.setattr(constraints, "_normalise", counting)
        solver = CspSolver()
        node = ConstraintSet.empty()
        atoms = []
        for i in range(200):
            # Single-byte atoms x_k != 0, 1, 2, ...: each excludes the
            # value x_k last took, so most queries slice the seven other
            # bytes and re-solve only x_k.
            atoms.append(mk_binop("ne", xs[i % len(xs)], i // len(xs)))
            node = node.append(atoms[-1])
            before = len(calls)
            model = solver.solve(node)
            assert calls[before:] == [1], i
            assert all(evaluate(atom, model) for atom in atoms)
        stats = solver.stats
        assert stats.queries == 200 and stats.sat == 200
        assert stats.atoms_sliced > 0 and stats.incremental_hits > 0
        # A node already queried is answered from its memo and its model.
        before = len(calls)
        assert solver.solve(node) is not None
        assert len(calls) == before

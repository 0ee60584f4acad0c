"""ModelCache: component-keyed exact / subset / superset reuse."""

import gc
import weakref

from repro.lowlevel.expr import Sym, clear_intern_cache, mk_binop
from repro.solver.cache import (
    HIT_EXACT,
    HIT_SUBSET_UNSAT,
    HIT_SUPERSET_SAT,
    ModelCache,
    UNSAT,
)
from repro.solver.csp import CspSolver


def _atoms(prefix, n):
    xs = [Sym(f"{prefix}_{i}", 0, 255) for i in range(n)]
    return [mk_binop("eq", x, 40 + i) for i, x in enumerate(xs)], xs


class TestExact:
    def test_roundtrip_model(self):
        cache = ModelCache()
        atoms, xs = _atoms("mc_a", 2)
        key = ModelCache.key_for(atoms)
        model = {x.name: 40 + i for i, x in enumerate(xs)}
        cache.store(key, model)
        kind, result = cache.lookup(key)
        assert kind == HIT_EXACT
        assert result == model
        assert cache.hits == 1

    def test_roundtrip_unsat(self):
        cache = ModelCache()
        atoms, _ = _atoms("mc_b", 1)
        key = ModelCache.key_for(atoms)
        cache.store(key, UNSAT)
        assert cache.lookup(key) == (HIT_EXACT, UNSAT)

    def test_miss_counts(self):
        cache = ModelCache()
        atoms, _ = _atoms("mc_c", 1)
        assert cache.lookup(ModelCache.key_for(atoms)) is None
        assert cache.misses == 1

    def test_empty_key_never_cached(self):
        cache = ModelCache()
        cache.store(frozenset(), {"x": 1})
        assert cache.lookup(frozenset()) is None
        assert len(cache) == 0


class TestSubsetSuperset:
    def test_unsat_subset_poisons_supersets(self):
        """A contradiction stays contradictory with more atoms added."""
        cache = ModelCache()
        atoms, _ = _atoms("mc_d", 3)
        cache.store(ModelCache.key_for(atoms[:1]), UNSAT)
        kind, result = cache.lookup(ModelCache.key_for(atoms))
        assert (kind, result) == (HIT_SUBSET_UNSAT, UNSAT)
        assert cache.subset_hits == 1

    def test_sat_superset_model_serves_subsets(self):
        """A model for a superset satisfies every subset of its atoms."""
        cache = ModelCache()
        atoms, xs = _atoms("mc_e", 3)
        model = {x.name: 40 + i for i, x in enumerate(xs)}
        cache.store(ModelCache.key_for(atoms), model)
        kind, result = cache.lookup(ModelCache.key_for(atoms[:2]))
        assert kind == HIT_SUPERSET_SAT
        assert result == model
        assert cache.superset_hits == 1

    def test_sat_subset_is_not_reused(self):
        """A model for fewer atoms proves nothing about more atoms."""
        cache = ModelCache()
        atoms, xs = _atoms("mc_f", 2)
        cache.store(ModelCache.key_for(atoms[:1]), {xs[0].name: 40})
        assert cache.lookup(ModelCache.key_for(atoms)) is None

    def test_unsat_superset_is_not_reused(self):
        """UNSAT of a superset proves nothing about its subsets."""
        cache = ModelCache()
        atoms, _ = _atoms("mc_g", 2)
        cache.store(ModelCache.key_for(atoms), UNSAT)
        assert cache.lookup(ModelCache.key_for(atoms[:1])) is None


class TestBounds:
    def test_entries_evicted_oldest_first(self):
        cache = ModelCache(max_entries=2)
        atoms, xs = _atoms("mc_h", 3)
        for i, atom in enumerate(atoms):
            cache.store(ModelCache.key_for([atom]), {xs[i].name: 40 + i})
        assert len(cache) == 2
        assert cache.lookup(ModelCache.key_for(atoms[:1])) is None  # evicted

    def test_recent_models_bounded(self):
        cache = ModelCache(max_models=2)
        for i in range(5):
            cache.remember_solution({"v": i})
        assert cache.candidate_solutions() == [{"v": 4}, {"v": 3}]

    def test_clear_resets_counters(self):
        cache = ModelCache()
        atoms, _ = _atoms("mc_i", 1)
        cache.store(ModelCache.key_for(atoms), UNSAT)
        cache.lookup(ModelCache.key_for(atoms))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats_dict()["hits"] == 0


class TestAtomKeys:
    def test_entry_keeps_its_atoms_alive_across_intern_clear(self):
        """Keys hold the atoms, not their ids: clearing the intern table
        cannot free an atom and recycle its id into a stale hit."""
        cache = ModelCache()
        x = Sym("mc_live", 0, 255)
        atom = mk_binop("eq", mk_binop("add", x, 7), 50)
        alive = weakref.ref(atom)
        cache.store(ModelCache.key_for([atom]), UNSAT)
        del atom
        clear_intern_cache()
        gc.collect()
        assert alive() is not None
        assert cache.lookup(ModelCache.key_for([alive()])) == (HIT_EXACT, UNSAT)

    def test_reinterned_atom_misses_instead_of_hitting_stale(self):
        cache = ModelCache()
        x = Sym("mc_fresh", 0, 255)
        cache.store(ModelCache.key_for([mk_binop("eq", x, 3)]), UNSAT)
        clear_intern_cache()
        # Structurally equal but a new object: a sound miss.
        assert cache.lookup(ModelCache.key_for([mk_binop("eq", x, 3)])) is None


class TestPerSolver:
    def test_two_solvers_never_share_a_verdict(self):
        x = Sym("mc_solo", 0, 255)
        atoms = [mk_binop("eq", mk_binop("mul", x, 3), 42)]
        first, second = CspSolver(), CspSolver()
        assert first.cache is not second.cache
        assert first.solve(atoms) == {"mc_solo": 14}
        assert len(first.cache) == 1
        assert len(second.cache) == 0
        assert second.solve(atoms) == {"mc_solo": 14}
        assert second.cache.hits == 0  # solved itself, no shared entry

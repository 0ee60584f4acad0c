"""Snapshot round-tripping: pickled expressions re-intern, restored
states replay to the same verdicts as the originals."""

from __future__ import annotations

import pickle

import pytest

from repro.clay import compile_program
from repro.bench.workloads import branchy_source
from repro.lowlevel.executor import ExecutorConfig, LowLevelEngine
from repro.lowlevel.expr import (
    Expr,
    Sym,
    clear_intern_cache,
    fingerprint,
    mk_binop,
    mk_unop,
)
from repro.lowlevel.machine import Status
from repro.lowlevel.program import Function, Instr, Opcode, Program
from repro.parallel.snapshot import path_record_of, restore_state, snapshot_state
from repro.solver.constraints import ConstraintSet
from repro.solver.csp import CspSolver



def _fresh_engine(n_bytes: int = 3) -> LowLevelEngine:
    compiled = compile_program(branchy_source(n_bytes))
    return LowLevelEngine(
        compiled.program, solver=CspSolver(), config=ExecutorConfig()
    )


class TestExprPickling:
    def test_same_process_roundtrip_is_identity(self):
        x = Sym("x", 0, 255)
        expr = mk_binop("add", mk_binop("mul", x, 3), mk_unop("neg", Sym("y", 0, 9)))
        assert pickle.loads(pickle.dumps(expr)) is expr

    def test_shared_subgraphs_stay_shared(self):
        x = Sym("x", 0, 255)
        shared = mk_binop("mul", x, 7)
        expr = mk_binop("add", shared, mk_binop("xor", shared, 1))
        restored = pickle.loads(pickle.dumps(expr))
        assert restored.a is restored.b.a

    def test_fresh_process_simulation_reinterns(self):
        # Simulate a fresh worker: pickle, clear every process-global
        # table (ids get recycled), then load twice — both loads must
        # intern to the same node with the original structure.
        x = Sym("x", 0, 255)
        expr = mk_binop("lt", mk_binop("add", x, 4), 100)
        original_repr = repr(expr)
        original_fp = fingerprint(expr)
        blob = pickle.dumps(expr)
        clear_intern_cache()
        Sym.reset_registry()
        first = pickle.loads(blob)
        second = pickle.loads(blob)
        assert first is second
        assert repr(first) == original_repr
        assert fingerprint(first) == original_fp

    def test_fingerprint_stable_and_structural(self):
        x = Sym("x", 0, 255)
        y = Sym("y", 0, 255)
        a = mk_binop("add", x, 1)
        b = mk_binop("add", y, 1)
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) == fingerprint(mk_binop("add", x, 1))
        # Ints fingerprint too (atoms can be concrete residues).
        assert fingerprint(3) == fingerprint(3)
        assert fingerprint(3) != fingerprint(4)


class TestConstraintSetPickling:
    def test_roundtrip_atoms_and_model(self):
        x = Sym("x", 0, 255)
        cs = ConstraintSet.empty().append(mk_binop("gt", x, 4))
        cs.note_model({"x": 10})
        cs = cs.append(mk_binop("lt", x, 100))
        restored = pickle.loads(pickle.dumps(cs))
        assert [repr(a) for a in restored.atoms()] == [repr(a) for a in cs.atoms()]
        # Atoms re-intern to the very same nodes in-process.
        assert all(ra is a for ra, a in zip(restored.atoms(), cs.atoms()))
        # The nearest known model survives the trip.
        model, prefix, suffix = restored.split_at_model()
        assert model == {"x": 10}
        assert len(prefix) == 1 and len(suffix) == 1

    def test_empty_set_roundtrip(self):
        restored = pickle.loads(pickle.dumps(ConstraintSet.empty()))
        assert len(restored) == 0


class TestStateSnapshots:
    def test_pending_state_roundtrips_and_replays_identically(self):
        engine = _fresh_engine(3)
        root = engine.new_state()
        queue = engine.run_path(root)
        assert queue, "branchy guest must fork"
        original = queue.pop()

        blob = pickle.dumps(snapshot_state(original))
        restored = restore_state(pickle.loads(blob), engine.program, sid=999)

        # Re-interning: the restored path condition is made of the very
        # same interned atom objects, so id()-keyed caches stay sound.
        assert all(
            ra is a
            for ra, a in zip(restored.path_condition.atoms(), original.path_condition.atoms())
            if isinstance(a, Expr)
        )
        assert restored.pending and original.pending
        assert restored.seed_assignment == original.seed_assignment

        # Activate and run both: same verdict, same assignment, same record.
        v_original = engine.activate(original)
        v_restored = engine.activate(restored)
        assert v_original == v_restored == "sat"
        assert restored.assignment == original.assignment
        engine.run_path(original)
        engine.run_path(restored)
        assert path_record_of(restored).identity() == path_record_of(original).identity()

    def test_terminated_state_snapshot_preserves_outcome(self):
        engine = _fresh_engine(2)
        root = engine.new_state()
        engine.run_path(root)
        assert root.terminated()
        snap = pickle.loads(pickle.dumps(snapshot_state(root)))
        restored = restore_state(snap, engine.program, sid=1000)
        assert restored.machine.status == root.machine.status
        assert restored.machine.output == root.machine.output
        assert path_record_of(restored).identity() == path_record_of(root).identity()

    def test_memory_delta_excludes_untouched_static_data(self):
        engine = _fresh_engine(2)
        root = engine.new_state()
        engine.run_path(root)
        snap = snapshot_state(root)
        # The delta must not re-ship untouched static data.
        static = engine.program.static_data
        assert all(
            key not in static or static[key] != value
            for key, value in snap.mem_changed.items()
        )
        restored = restore_state(snap, engine.program, sid=1)
        assert dict(restored.machine.memory) == dict(root.machine.memory)


class TestMemoryDelta:
    """Memory ships as its delta against the program's static data."""

    @staticmethod
    def _engine() -> LowLevelEngine:
        # Stores 42 to the fresh word 900, then over the static word 500.
        program = Program()
        program.add_function(Function("main", 0, 2, [
            Instr(Opcode.CONST, dst=0, a=900),
            Instr(Opcode.CONST, dst=1, a=42),
            Instr(Opcode.STORE, a=0, b=1),
            Instr(Opcode.CONST, dst=0, a=500),
            Instr(Opcode.STORE, a=0, b=1),
            Instr(Opcode.RET, a=None),
        ]))
        program.set_static(500, [7, 8])
        return LowLevelEngine(program.finalize())

    def test_booted_state_ships_an_empty_delta(self):
        snap = snapshot_state(self._engine().new_state())
        assert snap.mem_changed == {}
        assert snap.mem_deleted == ()

    def test_one_store_ships_one_word(self):
        engine = self._engine()
        state = engine.new_state()
        engine.run_path(state, max_instrs=3)
        assert state.status == Status.BUDGET_EXCEEDED
        snap = snapshot_state(state)
        assert snap.mem_changed == {900: 42}
        assert snap.mem_deleted == ()

    def test_overwritten_static_word_roundtrips(self):
        engine = self._engine()
        state = engine.new_state()
        engine.run_path(state)
        assert state.status == Status.HALTED
        snap = pickle.loads(pickle.dumps(snapshot_state(state)))
        assert snap.mem_changed == {900: 42, 500: 42}
        restored = restore_state(snap, engine.program, sid=1)
        assert dict(restored.machine.memory) == {900: 42, 500: 42, 501: 8}
        assert engine.program.static_data == {500: 7, 501: 8}
        del restored.machine.memory[501]
        snap = snapshot_state(restored)
        assert snap.mem_deleted == (501,)
        again = restore_state(snap, engine.program, sid=2)
        assert dict(again.machine.memory) == {900: 42, 500: 42}


class TestCrossProcessRoundtrip:
    def test_snapshot_survives_a_real_process_boundary(self):
        import multiprocessing

        engine = _fresh_engine(3)
        root = engine.new_state()
        queue = engine.run_path(root)
        pending = queue.pop()
        snap = snapshot_state(pending)

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        with ctx.Pool(1) as pool:
            child_fps = pool.apply(_fingerprints_in_child, (engine.program, snap))
        parent_fps = [
            fingerprint(a) for a in pending.path_condition.atoms() if isinstance(a, Expr)
        ]
        assert child_fps == parent_fps


def _fingerprints_in_child(program, snap):
    restored = restore_state(snap, program, sid=0)
    return [
        fingerprint(a) for a in restored.path_condition.atoms() if isinstance(a, Expr)
    ]


class TestSharedValueEncoding:
    def test_memory_values_sharing_a_spine_flatten_once(self):
        # Ten cells each holding (a prefix of) one deep accumulator chain
        # must encode the spine once, not once per cell.
        eng = _fresh_engine(2)
        state = eng.new_state()
        var = Sym("snap_spine", 0, 255)
        depth = 200
        node = var
        chain = []
        for i in range(depth):
            node = mk_binop("add", mk_binop("mul", node, 3), i % 251)
            chain.append(node)
        for cell in range(10):
            state.machine.memory[900 + cell] = chain[depth - 1 - cell]
        snap = snapshot_state(state)
        # Spine nodes + constants, NOT ~10x the spine.
        assert len(snap.expr_instrs) < 3 * (2 * depth + 2)
        restored = restore_state(snap, eng.program, eng._fresh_sid())
        for cell in range(10):
            assert restored.machine.memory[900 + cell] is chain[depth - 1 - cell]

"""Low-level concolic engine tests (forking, activation, hypercalls)."""

import pytest

from repro.clay import compile_program
from repro.lowlevel.executor import ExecutorConfig, LowLevelEngine
from repro.lowlevel.machine import Status


def _engine(source, **config):
    compiled = compile_program(source)
    return LowLevelEngine(compiled.program, config=ExecutorConfig(**config))


def _explore_all(engine, max_states=200):
    """Exhaustively explore; returns completed states."""
    done = []
    state = engine.new_state()
    queue = engine.run_path(state)
    done.append(state)
    while queue and len(done) < max_states:
        candidate = queue.pop()
        if engine.activate(candidate) != "sat":
            continue
        queue.extend(engine.run_path(candidate))
        done.append(candidate)
    return done


class TestConcreteExecution:
    def test_arithmetic_and_output(self):
        engine = _engine("fn main() { out(2 + 3 * 4); end_symbolic(); }")
        state = engine.new_state()
        engine.run_path(state)
        assert state.machine.output == [14]
        assert state.status == Status.HALTED

    def test_recursion(self):
        engine = _engine("""
            fn fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); }
            fn main() { out(fact(6)); end_symbolic(); }
        """)
        state = engine.new_state()
        engine.run_path(state)
        assert state.machine.output == [720]

    def test_memory_defaults_to_zero(self):
        engine = _engine("fn main() { out(load(12345)); end_symbolic(); }")
        state = engine.new_state()
        engine.run_path(state)
        assert state.machine.output == [0]

    def test_division_by_zero_faults(self):
        # The zero is computed at runtime so constant folding cannot
        # reject the program at compile time.
        engine = _engine("""
            fn main() { var z = load(50); out(1 / z); end_symbolic(); }
        """)
        state = engine.new_state()
        engine.run_path(state)
        assert state.status == Status.FAULT

    def test_abort_faults_with_code(self):
        engine = _engine("fn main() { abort(42); }")
        state = engine.new_state()
        engine.run_path(state)
        assert state.status == Status.FAULT
        assert state.machine.halt_code == 42

    def test_instruction_budget_stops_infinite_loop(self):
        engine = _engine("fn main() { while (1) { } }")
        state = engine.new_state()
        engine.run_path(state, max_instrs=1000)
        assert state.status == Status.BUDGET_EXCEEDED
        assert state.instr_count == 1000

    def test_main_return_halts(self):
        engine = _engine("fn main() { out(1); }")
        state = engine.new_state()
        engine.run_path(state)
        assert state.status == Status.HALTED


_BRANCHY = """
const BUF = 700;
fn main() {
    make_symbolic(BUF, 1, 0, 255);
    var c = load(BUF);
    if (c == 'a') { out(1); }
    else if (c == 'b') { out(2); }
    else { out(3); }
    end_symbolic();
}
"""


class TestSymbolicExecution:
    def test_fork_produces_pending_states(self):
        engine = _engine(_BRANCHY)
        state = engine.new_state()
        pending = engine.run_path(state)
        assert state.machine.output == [3]  # seed 0 is neither 'a' nor 'b'
        assert len(pending) == 2
        assert all(p.pending for p in pending)

    def test_exploration_covers_all_outcomes(self):
        engine = _engine(_BRANCHY)
        done = _explore_all(engine)
        outputs = sorted(s.machine.output[0] for s in done)
        assert outputs == [1, 2, 3]

    def test_generated_inputs_satisfy_path(self):
        engine = _engine(_BRANCHY)
        done = _explore_all(engine)
        for state in done:
            value = state.input_values()["b0"][0]
            expected = 1 if value == ord("a") else 2 if value == ord("b") else 3
            assert state.machine.output == [expected]

    def test_infeasible_alternate_discarded(self):
        engine = _engine("""
            const BUF = 700;
            fn main() {
                make_symbolic(BUF, 1, 0, 255);
                var c = load(BUF);
                assume(c < 10);
                if (c > 50) { out(1); } else { out(2); }
                end_symbolic();
            }
        """)
        state = engine.new_state()
        pending = engine.run_path(state)
        assert state.machine.output == [2]
        results = [engine.activate(p) for p in pending]
        assert "unsat" in results

    def test_assume_failure_kills_path(self):
        engine = _engine("""
            const BUF = 700;
            fn main() {
                make_symbolic(BUF, 1, 0, 255);
                assume(load(BUF) > 10);
                out(1);
                end_symbolic();
            }
        """)
        state = engine.new_state()
        engine.run_path(state)
        # Seed value 0 contradicts the assumption.
        assert state.status == Status.ASSUME_FAILED

    def test_symbolic_pointer_enumerates_targets(self):
        engine = _engine("""
            const BUF = 700;
            const TBL = 800;
            fn main() {
                store(800, 10);
                store(801, 11);
                store(802, 12);
                store(803, 13);
                make_symbolic(BUF, 1, 0, 3);
                out(load(TBL + load(BUF)));
                end_symbolic();
            }
        """, symptr_fork_limit=4)
        done = _explore_all(engine)
        outputs = sorted(s.machine.output[0] for s in done)
        assert outputs == [10, 11, 12, 13]

    def test_upper_bound_is_sound(self):
        engine = _engine("""
            const BUF = 700;
            fn main() {
                make_symbolic(BUF, 1, 0, 100);
                out(upper_bound(load(BUF) * 2));
                end_symbolic();
            }
        """)
        state = engine.new_state()
        engine.run_path(state)
        assert state.machine.output[0] >= 200

    def test_is_symbolic_and_concretize(self):
        engine = _engine("""
            const BUF = 700;
            fn main() {
                make_symbolic(BUF, 1, 0, 255);
                var v = load(BUF);
                out(is_symbolic(v));
                out(concretize(v));
                out(is_symbolic(concretize(v)));
                end_symbolic();
            }
        """)
        state = engine.new_state()
        engine.run_path(state)
        assert state.machine.output == [1, 0, 0]

    def test_events_recorded(self):
        engine = _engine("fn main() { event(1, 42, 7); end_symbolic(); }")
        state = engine.new_state()
        engine.run_path(state)
        assert len(state.events) == 1
        assert (state.events[0].kind, state.events[0].a) == (1, 42)

    def test_fork_bookkeeping_groups(self):
        engine = _engine("""
            const BUF = 700;
            fn main() {
                make_symbolic(BUF, 3, 0, 255);
                var i = 0;
                while (i < 3) {
                    if (load(BUF + i) == 'x') { out(i); }
                    i = i + 1;
                }
                end_symbolic();
            }
        """)
        state = engine.new_state()
        pending = engine.run_path(state)
        assert len(pending) == 3
        # Same low-level branch location: same fork group, increasing index.
        groups = {p.fork_group for p in pending}
        assert len(groups) == 1
        assert sorted(p.fork_index for p in pending) == [1, 2, 3]

    def test_namespaces_isolate_engines(self):
        e1 = _engine(_BRANCHY)
        e2 = _engine(_BRANCHY)
        s1, s2 = e1.new_state(), e2.new_state()
        e1.run_path(s1)
        e2.run_path(s2)
        assert s1.input_values().keys() == s2.input_values().keys() == {"b0"}

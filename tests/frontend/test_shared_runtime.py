"""The PyLite runtime is built once per process and shared.

Every PyLite ``Program`` holds the same runtime ``Function`` objects, and
the executor caches decoded blocks on them.  These pin what that sharing
must not change: the global instruction ids of each program, the
runtime's code, the pickled image, and the paths of concurrent sessions.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import Counter

from repro.api import Session, get_language
from repro.chef.options import ChefConfig
from repro.frontend import compile_pylite, runtime
from repro.frontend.runtime import build_runtime
from repro.targets import pylite_packages as PL


def _source(module: str, test: dict, seed_string: str) -> str:
    (_kind, name, _default), = test["inputs"]
    declaration = get_language("pylite").declare_string(name, seed_string)
    return f"{module}\n{declaration}\n{test['body']}\n"


TURNSTILE = _source(PL.TURNSTILE_SOURCE, PL.TURNSTILE_TEST, "cpcp")
RLE = _source(PL.RLE_SOURCE, PL.RLE_TEST, "ab")
PARSEINT = _source(PL.PARSEINT_SOURCE, PL.PARSEINT_TEST, "12")

#: program -> (total instructions, ids of rt_add@0, rt_truth@0 and
#: rt_make_symbolic@0), as laid out when every Function carried its own
#: base id.  The runtime's 1,246 instructions follow the program's own.
LAYOUT = {
    "turnstile": (1478, 232, 1457, 1165),
    "rle": (1523, 277, 1502, 1210),
}


def _runtime_names(program):
    return sorted(name for name in program.functions if name.startswith("rt_"))


def _run_threads(targets, timeout: float = 120.0) -> None:
    """Run ``targets`` on threads that switch often; re-raise any error."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # surfaced below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def _paths(program) -> Counter:
    """The path multiset of a seed-1 session over ``program``."""
    session = Session.from_program(program, ChefConfig(seed=1, time_budget=120.0))
    result = session.run()
    return Counter(
        (repr(case.inputs), case.status, tuple(case.output))
        for case in result.suite.cases
    )


def test_concurrent_first_builds_agree(monkeypatch):
    monkeypatch.setattr(runtime, "_RUNTIME", None)
    seen = []
    _run_threads([lambda: seen.append(build_runtime())] * 8)
    assert len(seen) == 8
    assert all(functions is seen[0] for functions in seen)


def test_programs_of_different_sizes_share_runtime_functions():
    small = compile_pylite(TURNSTILE).build_program()
    large = compile_pylite(RLE).build_program()
    assert small.total_instrs() < large.total_instrs()
    names = _runtime_names(small)
    assert len(names) == 37 and names == _runtime_names(large)
    for name in names:
        assert small.functions[name] is large.functions[name]
    # Each program's own functions are its own.
    assert small.functions["main"] is not large.functions["main"]


def test_runtime_instruction_ids_keep_their_layout():
    for label, source in (("turnstile", TURNSTILE), ("rle", RLE)):
        program = compile_pylite(source).build_program()
        assert (
            program.total_instrs(),
            program.instr_id("rt_add", 0),
            program.instr_id("rt_truth", 0),
            program.instr_id("rt_make_symbolic", 0),
        ) == LAYOUT[label]
        # The runtime sits after main and the py_ functions, in name order.
        ids = [program.instr_id(name, 0) for name in _runtime_names(program)]
        assert ids == sorted(ids)
        last = _runtime_names(program)[-1]
        assert ids[-1] + len(program.functions[last].instrs) == program.total_instrs()
        assert program.locate(program.instr_id("rt_truth", 3)) == ("rt_truth", 3)


def test_sessions_leave_the_runtime_code_unchanged():
    before = [fn.disassemble() for fn in build_runtime()]
    _paths(compile_pylite(TURNSTILE).build_program())
    _paths(compile_pylite(RLE).build_program())
    assert [fn.disassemble() for fn in build_runtime()] == before
    assert any(fn.blocks for fn in build_runtime())


def test_a_used_program_pickles_like_a_fresh_build():
    compiled = compile_pylite(RLE)
    fresh = pickle.dumps(compiled.build_program(), protocol=pickle.HIGHEST_PROTOCOL)
    used = compiled.build_program()
    _paths(used)
    assert any(fn.blocks for fn in used.functions.values())
    assert pickle.dumps(used, protocol=pickle.HIGHEST_PROTOCOL) == fresh
    restored = pickle.loads(fresh)
    assert all(fn.blocks == {} for fn in restored.functions.values())


def test_concurrent_sessions_match_their_serial_runs():
    # Two of the threads share one fresh program, so they decode its
    # blocks at the same time; the third runs another program.
    shared = compile_pylite(TURNSTILE).build_program()
    jobs = [shared, shared, compile_pylite(PARSEINT).build_program()]
    threaded = [None] * len(jobs)

    def job(index):
        def run():
            threaded[index] = _paths(jobs[index])
        return run

    _run_threads([job(index) for index in range(len(jobs))])
    serial = [_paths(compile_pylite(source).build_program())
              for source in (TURNSTILE, TURNSTILE, PARSEINT)]
    assert threaded == serial
    assert len(serial[0]) == 31 and len(serial[2]) == 8


def test_second_session_decodes_only_its_own_functions():
    # Every runtime block the turnstile-3 session runs was decoded by the
    # turnstile-4 session before it, so the second session decodes
    # exactly the blocks of its own main and py_ functions.
    Session("pylite", TURNSTILE, ChefConfig(seed=1, time_budget=120.0)).run()
    program = compile_pylite(
        _source(PL.TURNSTILE_SOURCE, PL.TURNSTILE_TEST, "cpc")
    ).build_program()
    session = Session.from_program(program, ChefConfig(seed=1, time_budget=120.0))
    session.run()
    own = sum(len(fn.blocks) for name, fn in program.functions.items()
              if not name.startswith("rt_"))
    assert own > 0
    assert session.metrics()["engine.blocks_decoded"] == own

"""The PyLite compile path produces byte-identical output.

One sha256 pins everything the frontend hands the executor for a fixed
set of programs: the TAC listing, the CFGs, and every emitted function's
signature, instructions (every field), line table and the program's
static data.  A change to lowering or emission that is meant to be a
pure speed-up must leave this digest alone; one that changes the emitted
code must say so by updating it.
"""

from __future__ import annotations

import hashlib

from repro.api import get_language
from repro.frontend import compile_pylite, tac
from repro.targets import pylite_packages as PL
from tests.frontend import test_golden

#: every pack: ``NAME_TEST`` specs with their ``NAME_SOURCE`` module.
PACKS = {
    attr[:-len("_TEST")]: (getattr(PL, attr[:-len("_TEST")] + "_SOURCE"),
                           getattr(PL, attr))
    for attr in sorted(vars(PL)) if attr.endswith("_TEST")
}

DIGEST = "9429fad1d04e37c655355de110c8970ddfeab62baf61a8268124092a1437ca7e"


def _programs():
    declare = get_language("pylite").declare_string
    for module, test in PACKS.values():
        (_kind, name, default), = test["inputs"]
        for seed in (default, default * 2):  # two input lengths
            yield f"{module}\n{declare(name, seed)}\n{test['body']}\n"
    for attr in sorted(vars(test_golden)):
        if attr.endswith("_SOURCE"):
            yield getattr(test_golden, attr)


def _fingerprint(source: str) -> str:
    compiled = compile_pylite(source)
    program = compiled.build_program()
    parts = [compiled.dump_ir(), compiled.dump_cfg(), repr(program.entry)]
    for name in sorted(program.functions):
        fn = program.functions[name]
        parts.append(repr((fn.name, fn.n_params, fn.n_regs)))
        parts.extend(
            repr((i.op, i.dst, i.a, i.b, i.extra, i.args)) for i in fn.instrs
        )
        parts.append(repr(fn.lines))
    parts.append(repr(sorted(program.static_data.items())))
    parts.append(repr(program.data_end))
    return "\n".join(parts)


def test_programs_cover_every_pack_and_golden_source():
    sources = list(_programs())
    assert len(sources) == 2 * len(PACKS) + sum(
        attr.endswith("_SOURCE") for attr in vars(test_golden))
    assert len(set(sources)) == len(sources)
    assert {"PARSEINT", "RLE", "TURNSTILE"} <= set(PACKS)


def test_emitted_programs_are_byte_identical():
    digest = hashlib.sha256()
    for source in _programs():
        digest.update(_fingerprint(source).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == DIGEST


def test_every_instruction_carries_the_line_of_its_last_line_marker():
    # Emission sets the builder's line only at LINE markers; that is
    # exact only while lowering keeps this invariant.
    for source in _programs():
        for fn in compile_pylite(source).module.functions.values():
            line = 0
            for instr in fn.instrs:
                if instr.op == tac.LINE:
                    line = instr.a
                assert instr.line == line, (fn.name, instr)

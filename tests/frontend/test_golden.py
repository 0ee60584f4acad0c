"""Golden tests for the PyLite frontend: source → IR dump → CFG → paths.

Each case pins the *exact* three-address IR listing and CFG shape for a
small program, then runs it symbolically and pins the exact path count.
A lowering change that shifts an instruction, a temp number or an edge
shows up here as a readable diff, not as a mystery path-count change
three layers up.
"""

import textwrap

from repro.frontend import compile_pylite
from repro.frontend.tac import EXC_IDS
from repro.interpreters.pylite.engine import PyLiteEngine


def _explore(source):
    engine = PyLiteEngine(source)
    result = engine.run()
    reports = engine.differential_sweep(result.suite)
    assert all(r.matches for r in reports), [r.detail for r in reports]
    return result


BRANCH_SOURCE = (
    "n = sym_int(5, 0, 9)\n"
    "if n < 3:\n"
    "    print(0)\n"
    "else:\n"
    "    print(1)\n"
)

BRANCH_IR = """\
func main() temps=12
    0: line 1 kind=1
    1: t0 = 5
    2: t1 = 0
    3: t2 = 9
    4: t3 = sym_int(t0, t1, t2)
    5: global n = t3
    6: line 2 kind=2
    7: t4 = global n (bound)
    8: t5 = 3
    9: t6 = t4 lt t5
   10: if t6 jmp @11 else @15
   11: line 3 kind=5
   12: t7 = 0
   13: t8 = print(t7)
   14: jmp @18
   15: line 5 kind=5
   16: t9 = 1
   17: t10 = print(t9)
   18: t11 = None
   19: ret t11
"""

BRANCH_CFG = """\
cfg main: 4 blocks
  B0 [0..11) -> B1, B2
  B1 [11..15) -> B3
  B2 [15..18) -> B3
  B3 [18..20) -> -
"""


class TestBranch:
    def test_ir_dump(self):
        assert compile_pylite(BRANCH_SOURCE).dump_ir() == BRANCH_IR.rstrip("\n")

    def test_cfg_dump(self):
        assert compile_pylite(BRANCH_SOURCE).dump_cfg() == BRANCH_CFG.rstrip("\n")

    def test_path_count(self):
        assert len(_explore(BRANCH_SOURCE).suite.cases) == 2


SIGN_SOURCE = textwrap.dedent(
    """\
    def sign(x):
        if x < 0:
            return -1
        if x > 0:
            return 1
        return 0

    n = sym_int(1, -2, 2)
    print(sign(n))
    """
)

SIGN_IR = """\
func main() temps=9
    0: line 8 kind=1
    1: t0 = 1
    2: t1 = 2
    3: t2 = neg t1
    4: t3 = 2
    5: t4 = sym_int(t0, t2, t3)
    6: global n = t4
    7: line 9 kind=5
    8: t5 = global n (bound)
    9: t6 = sign(t5)
   10: t7 = print(t6)
   11: t8 = None
   12: ret t8

func sign(x) temps=10
    0: line 2 kind=2
    1: t1 = 0
    2: t2 = t0 lt t1
    3: if t2 jmp @4 else @9
    4: line 3 kind=6
    5: t3 = 1
    6: t4 = neg t3
    7: ret t4
    8: jmp @9
    9: line 4 kind=2
   10: t5 = 0
   11: t6 = t0 gt t5
   12: if t6 jmp @13 else @17
   13: line 5 kind=6
   14: t7 = 1
   15: ret t7
   16: jmp @17
   17: line 6 kind=6
   18: t8 = 0
   19: ret t8
   20: t9 = None
   21: ret t9
"""


class TestSign:
    def test_ir_dump(self):
        assert compile_pylite(SIGN_SOURCE).dump_ir() == SIGN_IR.rstrip("\n")

    def test_cfg_shape(self):
        cfgs = compile_pylite(SIGN_SOURCE).cfgs
        assert len(cfgs["main"].blocks) == 1
        sign = cfgs["sign"]
        assert len(sign.blocks) == 8
        assert sign.edge_list() == [
            (0, 1), (0, 3), (2, 3), (3, 4), (3, 6), (5, 6),
        ]

    def test_path_count(self):
        # x<0 / x>0 / x==0 — one path per return.
        assert len(_explore(SIGN_SOURCE).suite.cases) == 3


COUNT_SOURCE = (
    's = sym_string("ab")\n'
    "count = 0\n"
    "for i in range(len(s)):\n"
    '    if s[i] == "a":\n'
    "        count = count + 1\n"
    "print(count)\n"
)

COUNT_CFG = """\
cfg main: 6 blocks
  B0 [0..13) -> B1
  B1 [13..15) -> B2, B5
  B2 [15..23) -> B3, B4
  B3 [23..29) -> B4
  B4 [29..32) -> B1
  B5 [32..37) -> -
"""


class TestForLoop:
    def test_cfg_dump(self):
        assert compile_pylite(COUNT_SOURCE).dump_cfg() == COUNT_CFG.rstrip("\n")

    def test_back_edge_exists(self):
        cfg = compile_pylite(COUNT_SOURCE).cfgs["main"]
        assert (4, 1) in cfg.edge_list()  # loop latch → header

    def test_path_count(self):
        # Length is concrete (2); each char forks on == "a": 2 * 2 paths.
        assert len(_explore(COUNT_SOURCE).suite.cases) == 4


ASSERT_SOURCE = (
    "n = sym_int(2, 0, 3)\n"
    "assert n != 3\n"
    "print(n)\n"
)

ASSERT_CFG = """\
cfg main: 3 blocks
  B0 [0..11) -> B2, B1
  B1 [11..12) -> -
  B2 [12..17) -> -
"""


class TestAssert:
    def test_cfg_dump(self):
        assert compile_pylite(ASSERT_SOURCE).dump_cfg() == ASSERT_CFG.rstrip("\n")

    def test_path_count_and_failure_path(self):
        result = _explore(ASSERT_SOURCE)
        assert len(result.suite.cases) == 2
        engine = PyLiteEngine(ASSERT_SOURCE)
        names = sorted(
            engine.exception_name(t) for t in result.suite.exceptions()
        )
        assert names == ["AssertionError"]


UNHASHABLE_KEY_SOURCE = (
    "x = sym_int(1, 0, 3)\n"
    "d = {}\n"
    "d[[x]] = 2\n"
    "print(d[[x]])\n"
)


class TestUnhashableKey:
    """A list key raises TypeError, as CPython's unhashable check does."""

    def test_list_key_store_raises(self):
        result = _explore(UNHASHABLE_KEY_SOURCE)
        assert len(result.suite.cases) == 1
        engine = PyLiteEngine(UNHASHABLE_KEY_SOURCE)
        (case,) = result.suite.cases
        assert engine.exception_name(case.exception_type) == "TypeError"
        assert case.output == []

    def test_list_key_lookup_and_membership_raise(self):
        for probe in ("print(d[[x]])", "print([x] in d)", "d[{}] = x"):
            source = f"x = sym_int(1, 0, 3)\nd = {{'a': 1}}\n{probe}\n"
            (case,) = _explore(source).suite.cases
            assert case.exception_type == EXC_IDS["TypeError"], probe


class TestCompiledArtifact:
    def test_fresh_program_per_build(self):
        compiled = compile_pylite(BRANCH_SOURCE)
        assert compiled.build_program() is not compiled.build_program()

    def test_coverable_lines(self):
        compiled = compile_pylite(BRANCH_SOURCE)
        # line 4 is the bare "else:" — not a coverable statement.
        assert set(compiled.coverable_lines) == {1, 2, 3, 5}

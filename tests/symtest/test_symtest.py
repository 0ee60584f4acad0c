"""Symbolic test library and runner tests (the Fig. 7 API)."""

import pytest

from repro.chef.options import ChefConfig
from repro.errors import ReproError
from repro.symtest import SymbolicTest, SymbolicTestRunner
from repro.symtest.coverage import count_loc, coverage_percent
from repro.symtest.library import SimpleSymbolicTest
from repro.targets import target_by_name


class ArgparseStyleTest(SymbolicTest):
    """Mirrors the paper's Fig. 7 test structure."""

    def setUp(self):
        self.package = "argparse-mini"

    def runTest(self):
        self.getString("arg1_name", "\x00\x00\x00")
        self.getString("arg1", "\x00\x00\x00")
        self.emit("print(len(arg1_name) + len(arg1))")


class TestSymbolicTestApi:
    def test_driver_generation(self):
        test = ArgparseStyleTest()
        driver = test.build_driver()
        assert 'arg1_name = sym_string("\\x00\\x00\\x00")' in driver
        assert "print(" in driver
        assert [spec.name for spec in test.inputs] == ["arg1_name", "arg1"]

    def test_get_int_generates_sym_int(self):
        test = SimpleSymbolicTest([("int", "n", 4, 0, 9)], "print(n)")
        assert 'n = sym_int(4, 0, 9)' in test.build_driver()

    def test_duplicate_input_rejected(self):
        class Bad(SymbolicTest):
            def runTest(self):
                self.getString("a", "x")
                self.getString("a", "y")

        with pytest.raises(ReproError):
            Bad().build_driver()

    def test_invalid_identifier_rejected(self):
        class Bad(SymbolicTest):
            def runTest(self):
                self.getString("not an ident", "x")

        with pytest.raises(ReproError):
            Bad().build_driver()

    def test_empty_test_rejected(self):
        class Empty(SymbolicTest):
            def runTest(self):
                pass

        with pytest.raises(ReproError):
            Empty().build_driver()

    def test_quoting_non_printable(self):
        test = SimpleSymbolicTest([("str", "s", "\x00a\"\\")], "print(s)")
        assert 's = sym_string("\\x00a\\"\\\\")' in test.build_driver()

    def test_default_language_is_pylite(self):
        # The default guest is one that runs: a test built without
        # language= explores the parseint pack over its 2-byte input to
        # the exact path count.  First byte: sign, digit, or a non-digit
        # below/above the digits (raises).  After a sign or a digit the
        # second byte splits the same three ways: 2 * 3 + 2 = 8.
        target = target_by_name("parseint")
        test = SimpleSymbolicTest(list(target.test_inputs), target.test_body)
        assert test.language == "pylite"
        runner = SymbolicTestRunner(
            target.source, test, ChefConfig(time_budget=60.0)
        )
        result = runner.run_symbolic()
        assert result.hl_paths == 8

    def test_unknown_language_rejected(self):
        test = SimpleSymbolicTest([("str", "s", "x")], "print(s)", language="ruby")
        with pytest.raises(ReproError):
            SymbolicTestRunner("", test)

    def test_unknown_input_kind_rejected(self):
        test = SimpleSymbolicTest([("float", "f", 1.0)], "print(1)")
        with pytest.raises(ReproError):
            test.build_driver()


_PACKAGE = """
def is_vowel(c):
    return c in "aeiou"
"""


class TestRunner:
    def _runner(self, budget=5.0):
        test = SimpleSymbolicTest(
            [("str", "letter", "x")],
            "if is_vowel(letter):\n    print(1)\nelse:\n    print(0)",
        )
        config = ChefConfig(strategy="cupa-path", seed=0, time_budget=budget)
        return SymbolicTestRunner(_PACKAGE, test, config)

    def test_symbolic_mode_finds_both_outcomes(self):
        runner = self._runner()
        result = runner.run_symbolic()
        outputs = {tuple(c.output) for c in result.hl_test_cases}
        # print() emits the value, then a newline word.
        assert (1, 10) in outputs  # a vowel
        assert (0, 10) in outputs  # not a vowel

    def test_run_symbolic_twice_reuses_compiled_engine(self):
        # Re-running builds a fresh session over the *same* engine —
        # no source recompilation — and finds the same outcome set.
        runner = self._runner()
        first = runner.run_symbolic()
        engine = runner.engine
        second = runner.run_symbolic()
        assert runner.engine is engine
        assert {tuple(c.output) for c in first.hl_test_cases} == {
            tuple(c.output) for c in second.hl_test_cases
        }

    def test_replay_matches_symbolic_output(self):
        runner = self._runner()
        result = runner.run_symbolic()
        for case in result.hl_test_cases:
            replayed = runner.replay_case(case)
            assert replayed.output == case.output
            assert replayed.exception_name is None

    def test_replay_suite(self):
        runner = self._runner()
        result = runner.run_symbolic()
        replays = runner.replay_suite(result)
        assert len(replays) == len(result.hl_test_cases)

    def test_line_coverage_in_unit_range(self):
        runner = self._runner()
        result = runner.run_symbolic()
        cov = runner.line_coverage(result)
        assert 0.0 < cov <= 1.0


class TestCoverageHelpers:
    def test_percent(self):
        assert coverage_percent({1, 2}, 4) == 50.0
        assert coverage_percent(set(), 0) == 0.0

    def test_count_loc_skips_comments_and_blanks(self):
        assert count_loc("a = 1\n\n# c\nb = 2\n", comment_prefix="#") == 2
        assert count_loc("-- c\nx = 1\n", comment_prefix="--") == 1

    def test_count_loc_prefix_is_required(self):
        # The prefix must come from the GuestLanguage protocol; a silent
        # "#" default used to leak through at call sites.
        with pytest.raises(TypeError):
            count_loc("x = 1\n")

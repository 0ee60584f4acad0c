"""Unit tests of the target packages themselves, run under CPython.

These test the *libraries* (the PyLite scenario pack), independent of
symbolic execution — the same way a downstream user of those packages
would.
"""

import pytest

from repro.interpreters.pylite.hostvm import PyLiteHostVM
from repro.targets import all_targets, target_by_name
from repro.targets import pylite_packages as PL


def run_pylite(package_source, driver):
    vm = PyLiteHostVM(package_source + "\n" + driver, symbolic_inputs=[])
    return vm.run()


class TestRegistry:
    def test_target_counts(self):
        # The PyLite scenario pack: parser, state machine, codec.
        assert [t.name for t in all_targets()] == ["parseint", "turnstile", "rle"]

    def test_lookup_by_name(self):
        assert target_by_name("rle").language == "pylite"
        with pytest.raises(KeyError):
            target_by_name("nonexistent")

    def test_lookup_is_memoized(self):
        # target_by_name used to rebuild every TargetPackage per call;
        # the registry is now built once and indexed by name.
        assert target_by_name("rle") is target_by_name("rle")
        assert target_by_name("turnstile") in all_targets()
        assert all_targets()[0] is all_targets()[0]

    def test_all_targets_returns_fresh_list(self):
        targets = all_targets()
        targets.clear()
        assert len(all_targets()) == 3

    def test_loc_positive(self):
        for target in all_targets():
            assert target.loc() > 15, target.name

    def test_loc_comment_prefix_comes_from_guest_language(self):
        from repro.symtest.coverage import count_loc

        rle = target_by_name("rle")
        assert rle.guest_language().comment_prefix == "#"
        assert rle.loc() == count_loc(rle.source, comment_prefix="#")

    def test_documented_classification(self):
        turnstile = target_by_name("turnstile")
        assert turnstile.is_documented("RuntimeError")
        assert turnstile.is_documented("ValueError")  # common stdlib
        assert not turnstile.is_documented("AssertionError")
        assert not turnstile.is_documented("IndexError")  # per the paper

    def test_symbolic_tests_build(self):
        for target in all_targets():
            driver = target.symbolic_test().build_driver()
            assert "sym_" in driver


class TestPyLiteTargets:
    def test_parseint(self):
        r = run_pylite(PL.PARSEINT_SOURCE, "print(parse_int(\"-42\"))")
        assert r.exception is None
        assert r.output == [-42, 10]

    def test_parseint_rejects_garbage(self):
        r = run_pylite(PL.PARSEINT_SOURCE, "parse_int(\"4x\")")
        assert r.exception is not None
        assert r.exception.name == "ValueError"

    def test_turnstile(self):
        r = run_pylite(
            PL.TURNSTILE_SOURCE,
            'm = run_machine("ccpp")\nprint(m["entries"])\nprint(m["coins"])',
        )
        assert r.exception is None
        # second push bounces off the locked state
        assert r.output == [1, 10, 2, 10]

    def test_turnstile_unknown_command(self):
        r = run_pylite(PL.TURNSTILE_SOURCE, 'run_machine("x")')
        assert r.exception.name == "RuntimeError"

    def test_rle_roundtrip(self):
        r = run_pylite(PL.RLE_SOURCE, 'print(roundtrip("aaabcc"))')
        assert r.exception is None
        assert r.output == [3, 10]

"""Public API smoke tests (the README quickstart must work)."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api


def test_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_all_is_sorted_and_resolvable():
    # CI's api-smoke job asserts the same two invariants: every __all__
    # name resolves, and the list stays sorted (merge conflicts show up
    # as ordering noise otherwise).
    assert repro.__all__ == sorted(repro.__all__)
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_session_exported_and_aliased():
    assert repro.Session is repro.SymbolicSession
    assert repro.Session is repro.api.Session


def test_language_registry_exported():
    assert repro.languages() == ["pylite"]
    assert repro.get_language("pylite").comment_prefix == "#"


def test_session_bad_language_error():
    with pytest.raises(repro.ReproError) as exc:
        repro.Session("ruby", "x = 1")
    assert "ruby" in str(exc.value)
    assert isinstance(exc.value, repro.UnknownLanguageError)


def test_session_events_consumed_twice_raises_cleanly():
    from repro.bench.workloads import branchy_source
    from repro.clay import compile_program

    session = repro.Session.from_program(
        compile_program(branchy_source(2)).program,
        repro.ChefConfig(time_budget=60.0),
    )
    events = list(session.events())
    assert isinstance(events[-1], repro.RunFinished)
    with pytest.raises(repro.ReproError):
        session.events()


def test_readme_quickstart_flow():
    # The package docstring's quickstart, run as written.
    session = repro.Session(
        "pylite",
        '''
def check(s):
    if s[0] == "@":
        raise ValueError("bad")
    return ord(s[1])

data = sym_string("ab")
print(check(data))
''',
        repro.ChefConfig(strategy="cupa-path", time_budget=5.0),
    )
    found = [e.case for e in session.events() if isinstance(e, repro.TestCaseFound)]
    exceptional = [c for c in found if c.exception_type is not None]
    clean = [c for c in found if c.exception_type is None]
    assert exceptional and clean
    assert exceptional[0].input_string("b0")[0] == "@"
    for case in found:
        assert session.replay(case).output == case.output


def test_setup_py_declares_name_and_version():
    # The distribution's metadata comes from setup.py, and its version
    # from repro.__version__; this command writes no files.
    repo_root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=repo_root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["repro", repro.__version__]

"""Dict lookups with symbolic keys against CPython.

``rt_dfind`` looks a key up by box identity before it compares
values.  This program mixes keys that are fresh symbolic one-char boxes
(``s[0]``, ``s[1]``) with an interned literal (``"a"``), so a lookup may
hit by identity, by symbolic equality, or only after an earlier key
turned out equal.  Every input over a small alphabet must behave as
under CPython, and the identity pass must drop only forks no input
can take.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.api import Session
from repro.chef.options import ChefConfig
from repro.interpreters.pylite.hostvm import PyLiteHostVM

SOURCE = (
    's = sym_string("ab")\n'
    "d = {}\n"
    "d[s[0]] = 1\n"
    "d[s[1]] = 2\n"
    'd["a"] = 3\n'
    "print(d[s[0]])\n"
    "print(d[s[1]])\n"
    'print(d["a"])\n'
    "if len(d) == 3:\n"
    '    print("distinct")\n'
)

#: "a" and two other letters cover every equality pattern of s[0], s[1]
#: and "a".
ALPHABET = "abc"


def _outcome(exception_type, output):
    return exception_type, tuple(output)


def _cpython_outcomes():
    outcomes = set()
    for chars in itertools.product(ALPHABET, repeat=2):
        host = PyLiteHostVM(SOURCE, symbolic_inputs=[[ord(c) for c in chars]]).run()
        assert not host.hit_budget
        exception = host.exception.type_id if host.exception else None
        outcomes.add(_outcome(exception, host.output))
    return outcomes


def _explore():
    session = Session("pylite", SOURCE, ChefConfig(seed=1, time_budget=120.0))
    cases = session.run().suite.cases
    return cases, session.metrics()


def test_symbolic_key_outcomes_match_cpython():
    cases, _metrics = _explore()
    assert {_outcome(c.exception_type, c.output) for c in cases} == _cpython_outcomes()


def test_symbolic_key_paths_are_pinned():
    cases, metrics = _explore()
    # One path per equality pattern of (s[0], s[1], "a"); only the
    # all-distinct one prints "distinct".
    assert len(cases) == 5
    assert Counter(c.hl_path_signature for c in cases) == Counter(
        {1961283667245407906: 4, 1745220492313014693: 1}
    )
    # Lookups that hit by identity fork nowhere; every fork left comes
    # from an equality pass over a symbolic key.
    assert (metrics["engine.forks"], metrics["engine.states_infeasible"]) == (13, 9)

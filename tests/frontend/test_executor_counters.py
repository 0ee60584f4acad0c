"""Golden executor counters for every PyLite scenario pack.

The LVM executor runs straight-line code as pre-decoded blocks and
steps one instruction at a time only where a block's fast path does not
apply.  That must not change what a run counts: these pin, per pack and
seed string, the exact ``engine.instrs_executed`` and ``engine.forks``
totals and the multiset of ``(ll_instr_count, hl_instr_count)`` over
every generated test (by size, sums and a digest of the sorted pairs),
as the per-instruction executor produced them.  They also pin the exact
``engine.instrs_stepped``, so that no fast path quietly hands work back
to the stepper.  The longer rle rows were taken while two to nineteen
of rle's queries still budgeted out, so they also pin that the solver's
pre-search propagation moves no path.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Session, get_language
from repro.chef.options import ChefConfig
from repro.targets import pylite_packages as PL

_PACKS = {
    "parseint": (PL.PARSEINT_SOURCE, PL.PARSEINT_TEST),
    "turnstile": (PL.TURNSTILE_SOURCE, PL.TURNSTILE_TEST),
    "rle": (PL.RLE_SOURCE, PL.RLE_TEST),
}

#: (pack, seed string) -> (cases, instrs_executed, instrs_stepped, forks,
#: sum of ll counts, sum of hl counts, sha256 prefix of the sorted pairs).
GOLDEN = {
    ("turnstile", "cpcpcpc"): (
        255, 238_705, 1_072, 254, 1_624_994, 12_929, "45d8b77dee3eba9e"
    ),
    ("turnstile", "cpcp"): (31, 28_731, 167, 30, 113_872, 993, "a5e8f147292dbd71"),
    ("turnstile", "cpc"): (15, 13_725, 57, 14, 42_478, 393, "ade28727931e8920"),
    ("rle", "ab"): (2, 3_974, 26, 5, 4_524, 72, "baa2591ef7bd888f"),
    ("rle", "abc"): (4, 9_802, 72, 14, 12_408, 176, "b3f36c65956e3ffd"),
    ("rle", "abcd"): (8, 23_020, 186, 34, 31_616, 416, "676157d934792edc"),
    ("parseint", "12"): (8, 2_028, 32, 7, 6_724, 118, "98e8d995749e944d"),
    ("parseint", "123"): (12, 2_894, 50, 11, 12_588, 202, "8f283f893abb1d7a"),
    ("parseint", "1234"): (16, 3_760, 68, 15, 20_140, 302, "57a8bc4e3dbe9c2d"),
}


def _explore(pack: str, seed_string: str):
    module, test = _PACKS[pack]
    (_kind, name, _default), = test["inputs"]
    declaration = get_language("pylite").declare_string(name, seed_string)
    source = f"{module}\n{declaration}\n{test['body']}\n"
    session = Session("pylite", source, ChefConfig(seed=1, time_budget=120.0))
    result = session.run()
    return result.suite.cases, session.metrics()


@pytest.mark.parametrize("pack, seed_string", sorted(GOLDEN), ids="-".join)
def test_executor_counters_match_golden(pack, seed_string):
    cases, metrics = _explore(pack, seed_string)
    pairs = sorted((c.ll_instr_count, c.hl_instr_count) for c in cases)
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]
    assert (
        len(cases),
        metrics["engine.instrs_executed"],
        metrics["engine.instrs_stepped"],
        metrics["engine.forks"],
        sum(ll for ll, _hl in pairs),
        sum(hl for _ll, hl in pairs),
        digest,
    ) == GOLDEN[(pack, seed_string)]


def test_turnstile_runs_almost_entirely_in_blocks():
    # Counters, never wall-clock: the one-instruction fallback (forks,
    # symbolic operands, faulting operators) stays a small share.
    _cases, metrics = _explore("turnstile", "cpcpcpc")
    assert 0 < metrics["engine.instrs_stepped"] <= 0.02 * metrics["engine.instrs_executed"]


@pytest.mark.parametrize("seed_string", ["ab", "abc", "abcd"])
def test_rle_queries_never_budget_out(seed_string):
    # Every rle query the search sees is refuted or solved by the
    # propagation ahead of it; none may exhaust the step budget.
    _cases, metrics = _explore("rle", seed_string)
    assert metrics["solver.timeouts"] == 0
    assert metrics["solver.search_steps"] < 1000

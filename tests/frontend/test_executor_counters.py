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
        255, 114_225, 763, 254, 880_640, 12_929, "a408f61f4d3d5bcf"
    ),
    ("turnstile", "cpcp"): (31, 14_020, 91, 30, 65_893, 993, "16c4fd2f53b4f213"),
    ("turnstile", "cpc"): (15, 6_857, 43, 14, 25_664, 393, "908be93540cf6cae"),
    ("rle", "ab"): (2, 3_161, 25, 5, 3_633, 72, "9de35ff881ea1bd6"),
    ("rle", "abc"): (4, 7_776, 69, 14, 10_022, 176, "202c80ad5d053bc9"),
    ("rle", "abcd"): (8, 18_187, 173, 34, 25_612, 416, "027620599798d958"),
    ("parseint", "12"): (8, 1_482, 25, 7, 4_820, 118, "1d36f8eaf7ebc8a9"),
    ("parseint", "123"): (12, 2_109, 39, 11, 8_980, 202, "38553d72da63884d"),
    ("parseint", "1234"): (16, 2_736, 53, 15, 14_332, 302, "2949eb8475a79fda"),
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

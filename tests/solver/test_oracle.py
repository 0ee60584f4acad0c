"""Exhaustive oracle for the CSP solver over two byte variables.

Every query mentions at most ``x`` and ``y`` (each 0..255), so the
65,536 assignments are the ground truth.  The oracle enumerates them
once, as bitsets (bit ``x*256 + y`` stands for one assignment), and
answers a query with bitwise operations on those sets: no solver code,
no interval reasoning, no ``evaluate``.

Three tiers:

- **soundness** over a depth-3 ``land``/``lor``/``lnot``/``== 0``/``!= 0``
  grammar of comparisons among ``x``, ``y`` and constants: a model must
  satisfy every atom and UNSAT must match the enumeration; UNKNOWN is
  allowed;
- **completeness** on conjunctions of up to six literals (comparisons
  between two of ``x``, ``y``, ``x+c``, ``y+c`` and a constant, in
  either order, optionally wrapped) and single-variable range clauses
  ``lnot(v >= a land v <= b)``: the solver must never answer UNKNOWN;
- **cross-query soundness** on whole query sequences through one shared
  solver, the way the engine issues them: fork-style
  ``ConstraintSet.append`` chains (both sides of a branch, extended only
  from satisfiable sets) mixed with repeats of earlier queries, as the
  same set and as a fresh chain.  That drives the paths a fresh solver
  per query never reaches: the known-model answer, the suffix re-check
  against an ancestor model, independence slicing and recent-model
  reuse.  Every verdict is checked against the whole chain.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lowlevel.expr import (
    BINOP_FUNCS,
    BinExpr,
    COMPARISONS,
    Expr,
    Sym,
    UnExpr,
    evaluate,
    mk_binop,
    mk_unop,
    negate_condition,
)
from repro.solver.backend import SAT, UNKNOWN, UNSAT
from repro.solver.constraints import ConstraintSet
from repro.solver.csp import CspSolver

_X, _Y = "orc_x", "orc_y"
_ROW = (1 << 256) - 1
_ALL = (1 << 65536) - 1
_OPS = sorted(COMPARISONS)


@lru_cache(maxsize=1024)  # ~8 MB of 65,536-bit sets
def _less(ax: int, ay: int, k: int) -> int:
    """Assignments with ``ax*x + ay*y < k`` (``ax, ay`` in -1..1)."""

    def clamp(v: int) -> int:
        return min(max(v, 0), 256)

    rows = []
    for x in range(256):
        bound = k - ax * x  # ay*y < bound
        if ay == 0:
            row = _ROW if bound > 0 else 0
        elif ay == 1:
            row = (1 << clamp(bound)) - 1
        else:
            row = _ROW ^ ((1 << clamp(1 - bound)) - 1)
        rows.append(row.to_bytes(32, "little"))
    return int.from_bytes(b"".join(rows), "little")


def _affine(v):
    """``(ax, ay, c)`` with ``v == ax*x + ay*y + c``, or None."""
    if not isinstance(v, Expr):
        return (0, 0, v)
    if isinstance(v, Sym):
        return (1, 0, 0) if v.name == _X else (0, 1, 0)
    if isinstance(v, BinExpr) and v.op in ("add", "sub"):
        a, b = _affine(v.a), _affine(v.b)
        if a is not None and b is not None:
            sign = 1 if v.op == "add" else -1
            return tuple(p + sign * q for p, q in zip(a, b))
    return None


def _compare(op: str, ax: int, ay: int, k: int) -> int:
    """Assignments with ``ax*x + ay*y op k``."""
    lt, le = _less(ax, ay, k), _less(ax, ay, k + 1)
    return {
        "lt": lt,
        "le": le,
        "gt": _ALL ^ le,
        "ge": _ALL ^ lt,
        "eq": le ^ lt,
        "ne": _ALL ^ le ^ lt,
    }[op]


def _truth(v) -> int:
    """Assignments under which ``v`` is nonzero."""
    if not isinstance(v, Expr):
        return _ALL if v else 0
    if isinstance(v, UnExpr):
        assert v.op == "lnot", v
        return _ALL ^ _truth(v.a)
    if v.op == "land":
        return _truth(v.a) & _truth(v.b)
    if v.op == "lor":
        return _truth(v.a) | _truth(v.b)
    if v.op in COMPARISONS:
        a, b = _affine(v.a), _affine(v.b)
        if a is not None and b is not None:
            ax, ay, c = (p - q for p, q in zip(a, b))
            return _compare(v.op, ax, ay, -c)
        # A condition compared with a constant: split on its 0/1 value.
        assert b is not None and (b[0], b[1]) == (0, 0), v
        truthy, holds = _truth(v.a), BINOP_FUNCS[v.op]
        return (truthy if holds(1, b[2]) else 0) | (
            (_ALL ^ truthy) if holds(0, b[2]) else 0
        )
    affine = _affine(v)
    assert affine is not None, v
    return _compare("ne", affine[0], affine[1], -affine[2])


def _check(atoms, allow_unknown: bool, solver=None) -> str:
    """Ask ``solver`` (a fresh one by default) and compare with enumeration.

    ``atoms`` is a list or a ``ConstraintSet``; returns the verdict.
    """
    result = (solver or CspSolver()).check(atoms)
    atoms = list(atoms)
    truth = _ALL
    for atom in atoms:
        truth &= _truth(atom)
    if result.status == UNKNOWN:
        assert allow_unknown, f"UNKNOWN on {atoms}"
        return UNKNOWN
    if result.status == UNSAT:
        assert truth == 0, f"UNSAT but satisfiable: {atoms}"
        return UNSAT
    assert result.status == SAT
    env = {_X: 0, _Y: 0}
    env.update(result.model)
    for atom in atoms:
        assert evaluate(atom, env) != 0, (atom, env)
    assert truth >> (env[_X] * 256 + env[_Y]) & 1, (atoms, env)
    return SAT


def _vars():
    return Sym(_X, 0, 255), Sym(_Y, 0, 255)


# -- tier (a): soundness over nested conditions ------------------------------

_bytes = st.integers(0, 255)


@st.composite
def _comparison(draw):
    x, y = _vars()
    pool = st.one_of(st.sampled_from([x, y]), _bytes)
    return mk_binop(draw(st.sampled_from(_OPS)), draw(pool), draw(pool))


def _nested(depth: int):
    if depth == 0:
        return _comparison()
    sub = _nested(depth - 1)
    return st.one_of(
        sub,
        st.builds(lambda a, b: mk_binop("land", a, b), sub, sub),
        st.builds(lambda a, b: mk_binop("lor", a, b), sub, sub),
        st.builds(lambda a: mk_unop("lnot", a), sub),
        st.builds(lambda a: mk_binop("eq", a, 0), sub),
        st.builds(lambda a: mk_binop("ne", a, 0), sub),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(atoms=st.lists(_nested(3), min_size=1, max_size=3))
def test_nested_conditions_agree_with_enumeration(atoms):
    _check(atoms, allow_unknown=True)


# -- tier (b): no UNKNOWN on literal conjunctions ----------------------------


@st.composite
def _literal(draw):
    x, y = _vars()
    offset = st.integers(-20, 20)
    operand = st.one_of(
        st.sampled_from([x, y]),
        st.builds(lambda v, c: mk_binop("add", v, c), st.sampled_from([x, y]), offset),
        _bytes,
    )
    a, b = draw(operand), draw(operand)
    if draw(st.booleans()):
        a, b = b, a
    lit = mk_binop(draw(st.sampled_from(_OPS)), a, b)
    wrap = draw(st.sampled_from(["none", "land1", "ne0", "eq0", "lnot"]))
    if wrap == "land1":
        return mk_binop("land", lit, 1)
    if wrap == "ne0":
        return mk_binop("ne", lit, 0)
    if wrap == "eq0":
        return mk_binop("eq", lit, 0)
    if wrap == "lnot":
        return mk_unop("lnot", lit)
    return lit


@st.composite
def _range_clause(draw):
    v = draw(st.sampled_from(_vars()))
    lo = draw(_bytes)
    hi = draw(st.integers(lo, 255))
    inside = mk_binop("land", mk_binop("ge", v, lo), mk_binop("le", v, hi))
    return mk_unop("lnot", inside)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(atoms=st.lists(st.one_of(_literal(), _range_clause()), min_size=1, max_size=6))
def test_literal_conjunctions_never_unknown(atoms):
    _check(atoms, allow_unknown=False)


# -- tier (c): query sequences through one shared solver --------------------

_steps = st.lists(
    st.tuples(
        st.sampled_from(["fork", "fork", "repeat", "requery"]),
        st.integers(0, 63),
        st.one_of(_literal(), _range_clause(), _nested(1)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=_steps)
def test_query_sequences_through_one_solver_agree_with_enumeration(steps):
    solver = CspSolver()
    sat_sets = [ConstraintSet.empty()]
    for kind, pick, atom in steps:
        cs = sat_sets[pick % len(sat_sets)]
        if kind == "repeat":  # the same set again: its known model answers
            _check(cs, allow_unknown=True, solver=solver)
        elif kind == "requery":  # equal atoms, fresh chain: no known model
            _check(ConstraintSet.from_atoms(cs.atoms()), allow_unknown=True, solver=solver)
        else:  # a branch: query both sides, keep the satisfiable ones
            for side in (atom, negate_condition(atom)):
                child = cs.append(side)
                if _check(child, allow_unknown=True, solver=solver) == SAT:
                    sat_sets.append(child)


def test_swapped_equality_against_its_negation_is_unsat_without_search():
    # The shape pylite-rle's budget-outs had: E and E' == 0 with E'
    # the same equality, operands swapped, under PyLite's ``land 1``.
    x, y = _vars()
    solver = CspSolver()
    atoms = [mk_binop("eq", x, y), mk_binop("eq", mk_binop("land", mk_binop("eq", y, x), 1), 0)]
    assert solver.check(atoms).status == UNSAT
    assert solver.stats.search_steps == 0


def test_oracle_matches_direct_enumeration_on_a_sample():
    # The bitset oracle itself: spot-check it against evaluate().
    x, y = _vars()
    atom = mk_unop(
        "lnot",
        mk_binop("land", mk_binop("lt", mk_binop("add", x, 7), y), mk_binop("ne", y, 200)),
    )
    truth = _truth(atom)
    for xv in range(0, 256, 17):
        for yv in range(0, 256, 13):
            expected = evaluate(atom, {_X: xv, _Y: yv}) != 0
            assert bool(truth >> (xv * 256 + yv) & 1) == expected

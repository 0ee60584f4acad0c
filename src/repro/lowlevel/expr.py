"""Symbolic expression DAG over unbounded integers.

Machine values are either plain Python ``int`` (concrete) or :class:`Expr`
nodes (symbolic).  Expressions are *interned*: structurally identical nodes
are the same object, which makes structural equality an ``is`` check and
lets downstream caches key on ``id()``.

Booleans are represented as the integers 0 and 1, as in machine code.
Comparison operators therefore produce 0/1-valued expressions, and branch
conditions are "expression != 0".

The factory functions :func:`mk_binop` / :func:`mk_unop` perform light
canonicalisation (constant folding, identities) at construction time; the
heavier rewrites live in :mod:`repro.lowlevel.simplify`.
"""

from __future__ import annotations

import operator
import sys
from hashlib import blake2b
from typing import Dict, FrozenSet, Optional, Union

# Deeply nested expressions arise from loops over symbolic buffers (hash
# functions, string scans).  Recursive traversals need headroom.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)

Value = Union[int, "Expr"]

#: Binary operators.  Comparison operators evaluate to 0/1.
BINOPS = {
    "add", "sub", "mul", "div", "mod",
    "and", "or", "xor", "shl", "shr",
    "eq", "ne", "lt", "le", "gt", "ge",
    "land", "lor",
}

#: Unary operators.  ``lnot`` evaluates to 0/1.
UNOPS = {"neg", "bnot", "lnot"}

_CMP_NEGATION = {
    "eq": "ne", "ne": "eq",
    "lt": "ge", "ge": "lt",
    "gt": "le", "le": "gt",
}

_CMP_SWAP = {"eq": "eq", "ne": "ne", "lt": "gt", "gt": "lt", "le": "ge", "ge": "le"}

COMPARISONS = frozenset(_CMP_NEGATION)

_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "eq", "ne", "land", "lor"})


class Expr:
    """Base class of interned symbolic expression nodes."""

    __slots__ = ("_free", "__weakref__")

    def free_vars(self) -> FrozenSet["Sym"]:
        raise NotImplementedError

    def evaluate(self, env: Dict[str, int], memo: Optional[dict] = None) -> int:
        """Evaluate under a complete assignment ``env`` (name -> int)."""
        raise NotImplementedError

    def depth(self) -> int:
        raise NotImplementedError

    # Interned nodes: identity is structural equality.
    def __eq__(self, other: object) -> bool:  # pragma: no cover - trivial
        return self is other

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return id(self)

    def __reduce__(self):
        # Pickle as a flat post-order instruction list, NOT as nested
        # constructor calls: pickle walks __reduce__ arguments recursively
        # in C, so an operand-chain encoding blows the C stack (hard
        # segfault, no RecursionError) on the deep expressions this module
        # raises sys.recursionlimit for.  Rebuilding goes through the
        # intern table, so a restored node IS the receiving process's
        # interned node and id()-keyed caches stay sound.
        instrs, refs = flatten_values((self,))
        return (_rebuild_graph, (instrs, refs[0]))


class Sym(Expr):
    """A symbolic input variable with an inclusive finite domain.

    Variables are created by ``make_symbolic`` guest calls; the domain is
    what makes the CSP solver's search finite (bytes default to 0..255).
    """

    __slots__ = ("name", "lo", "hi")

    _registry: Dict[str, "Sym"] = {}

    def __new__(cls, name: str, lo: int = 0, hi: int = 255):
        existing = cls._registry.get(name)
        if existing is not None:
            if (existing.lo, existing.hi) != (lo, hi):
                raise ValueError(
                    f"symbolic variable {name!r} re-declared with a different "
                    f"domain ({existing.lo},{existing.hi}) vs ({lo},{hi})"
                )
            return existing
        self = object.__new__(cls)
        self.name = name
        self.lo = lo
        self.hi = hi
        cls._registry[name] = self
        return self

    @classmethod
    def reset_registry(cls) -> None:
        """Forget all variables (used between independent engine runs)."""
        cls._registry.clear()
        _fp_memo.clear()

    def __reduce__(self):
        # Re-intern through the registry on unpickle: a variable of the
        # same name in the receiving process IS this variable.
        return (Sym, (self.name, self.lo, self.hi))

    def free_vars(self) -> FrozenSet["Sym"]:
        return frozenset((self,))

    def evaluate(self, env: Dict[str, int], memo: Optional[dict] = None) -> int:
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(f"no value for symbolic variable {self.name!r}") from None

    def depth(self) -> int:
        return 1

    def __repr__(self) -> str:
        return self.name


class BinExpr(Expr):
    """Binary operation node; operands are ``int`` or interned ``Expr``."""

    __slots__ = ("op", "a", "b")

    def free_vars(self) -> FrozenSet[Sym]:
        free = getattr(self, "_free", None)
        if free is None:
            free = _operand_free(self.a) | _operand_free(self.b)
            self._free = free
        return free

    def evaluate(self, env: Dict[str, int], memo: Optional[dict] = None) -> int:
        if memo is None:
            memo = {}
        return _eval(self, env, memo)

    def depth(self) -> int:
        return 1 + max(_operand_depth(self.a), _operand_depth(self.b))

    def __repr__(self) -> str:
        return f"({self.a!r} {self.op} {self.b!r})"


class UnExpr(Expr):
    """Unary operation node."""

    __slots__ = ("op", "a")

    def free_vars(self) -> FrozenSet[Sym]:
        free = getattr(self, "_free", None)
        if free is None:
            free = _operand_free(self.a)
            self._free = free
        return free

    def evaluate(self, env: Dict[str, int], memo: Optional[dict] = None) -> int:
        if memo is None:
            memo = {}
        return _eval(self, env, memo)

    def depth(self) -> int:
        return 1 + _operand_depth(self.a)

    def __repr__(self) -> str:
        return f"{self.op}({self.a!r})"


def _operand_free(v: Value) -> FrozenSet[Sym]:
    return v.free_vars() if isinstance(v, Expr) else frozenset()


def _operand_depth(v: Value) -> int:
    return v.depth() if isinstance(v, Expr) else 0


def is_symbolic(v: Value) -> bool:
    """True if ``v`` is a symbolic expression rather than a concrete int."""
    return isinstance(v, Expr)


# ---------------------------------------------------------------------------
# Concrete evaluation
# ---------------------------------------------------------------------------

def _concrete_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("guest division by zero")
    return a // b


def _concrete_mod(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("guest modulo by zero")
    return a % b


#: op name -> concrete implementation.  ``_eval`` is the hottest loop in
#: the engine (every conc() shadow evaluation lands here), so dispatch is
#: one dict lookup instead of a 19-arm if-chain.
BINOP_FUNCS: Dict[str, object] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _concrete_div,
    "mod": _concrete_mod,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": operator.lshift,
    "shr": operator.rshift,
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
    "land": lambda a, b: int(bool(a) and bool(b)),
    "lor": lambda a, b: int(bool(a) or bool(b)),
}

UNOP_FUNCS: Dict[str, object] = {
    "neg": operator.neg,
    "bnot": operator.invert,
    "lnot": lambda a: int(a == 0),
}


def _apply_binop(op: str, a: int, b: int) -> int:
    func = BINOP_FUNCS.get(op)
    if func is None:
        raise ValueError(f"unknown binary operator {op!r}")
    return func(a, b)


def _apply_unop(op: str, a: int) -> int:
    func = UNOP_FUNCS.get(op)
    if func is None:
        raise ValueError(f"unknown unary operator {op!r}")
    return func(a)


def _eval(expr: Value, env: Dict[str, int], memo: dict) -> int:
    """Iterative post-order evaluation (avoids deep recursion)."""
    if not isinstance(expr, Expr):
        return expr
    key = id(expr)
    hit = memo.get(key)
    if hit is not None:
        return hit
    stack = [expr]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in memo:
            stack.pop()
            continue
        if isinstance(node, Sym):
            memo[nid] = node.evaluate(env)
            stack.pop()
        elif isinstance(node, UnExpr):
            a = node.a
            if isinstance(a, Expr) and id(a) not in memo:
                stack.append(a)
                continue
            av = memo[id(a)] if isinstance(a, Expr) else a
            memo[nid] = UNOP_FUNCS[node.op](av)
            stack.pop()
        else:
            assert isinstance(node, BinExpr)
            a, b = node.a, node.b
            pushed = False
            if isinstance(a, Expr) and id(a) not in memo:
                stack.append(a)
                pushed = True
            if isinstance(b, Expr) and id(b) not in memo:
                stack.append(b)
                pushed = True
            if pushed:
                continue
            av = memo[id(a)] if isinstance(a, Expr) else a
            bv = memo[id(b)] if isinstance(b, Expr) else b
            memo[nid] = BINOP_FUNCS[node.op](av, bv)
            stack.pop()
    return memo[key]


def evaluate(v: Value, env: Dict[str, int], memo: Optional[dict] = None) -> int:
    """Evaluate a value (int or Expr) under a complete assignment."""
    if not isinstance(v, Expr):
        return v
    if type(v) is BinExpr and type(v.a) is Sym and type(v.b) is int:
        # The commonest path-condition atom: one variable against a constant.
        return BINOP_FUNCS[v.op](v.a.evaluate(env), v.b)
    return _eval(v, env, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# Interned constructors with light canonicalisation
# ---------------------------------------------------------------------------

_intern: Dict[tuple, Expr] = {}


def clear_intern_cache() -> None:
    """Drop the interning table (tests use this to bound memory)."""
    _intern.clear()
    # Fingerprints memoize on id(); a cleared table recycles ids.
    _fp_memo.clear()


def _key_of(v: Value):
    return id(v) if isinstance(v, Expr) else ("i", v)


def _intern_bin(op: str, a: Value, b: Value) -> BinExpr:
    key = (op, _key_of(a), _key_of(b))
    node = _intern.get(key)
    if node is None:
        node = object.__new__(BinExpr)
        node.op = op
        node.a = a
        node.b = b
        _intern[key] = node
    return node  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Stable structural fingerprints
# ---------------------------------------------------------------------------
#
# ``id()`` identifies an interned node only within one process.  Parallel
# exploration ships expression graphs between processes, so cross-process
# consumers (snapshot tests, model-cache delta merging, path identity)
# need a name for a node that every process computes identically.  The
# fingerprint is a 64-bit blake2b digest of the node's structure; it is
# independent of interning order, process, and PYTHONHASHSEED.

_fp_memo: Dict[int, int] = {}


def _fp_digest(*parts) -> int:
    payload = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


def fingerprint(v: Value) -> int:
    """Stable 64-bit structural fingerprint of a value (int or Expr).

    Structurally identical expressions get identical fingerprints in
    every process; memoized per interned node.
    """
    if not isinstance(v, Expr):
        return _fp_digest("i", v)
    memo = _fp_memo
    hit = memo.get(id(v))
    if hit is not None:
        return hit
    stack = [v]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in memo:
            stack.pop()
            continue
        if isinstance(node, Sym):
            memo[nid] = _fp_digest("s", node.name, node.lo, node.hi)
            stack.pop()
        elif isinstance(node, UnExpr):
            a = node.a
            if isinstance(a, Expr) and id(a) not in memo:
                stack.append(a)
                continue
            fa = memo[id(a)] if isinstance(a, Expr) else _fp_digest("i", a)
            memo[nid] = _fp_digest("u", node.op, fa)
            stack.pop()
        else:
            assert isinstance(node, BinExpr)
            a, b = node.a, node.b
            pushed = False
            if isinstance(a, Expr) and id(a) not in memo:
                stack.append(a)
                pushed = True
            if isinstance(b, Expr) and id(b) not in memo:
                stack.append(b)
                pushed = True
            if pushed:
                continue
            fa = memo[id(a)] if isinstance(a, Expr) else _fp_digest("i", a)
            fb = memo[id(b)] if isinstance(b, Expr) else _fp_digest("i", b)
            memo[nid] = _fp_digest("b", node.op, fa, fb)
            stack.pop()
    return memo[id(v)]


# ---------------------------------------------------------------------------
# Iterative pickling codec
# ---------------------------------------------------------------------------
#
# Expression graphs are serialized as a flat post-order instruction list;
# operands reference earlier instruction indices.  Flattening and
# rebuilding are both iterative, so arbitrarily deep graphs survive
# pickling (a nested-constructor encoding recurses inside pickle's C
# implementation and segfaults long before RecursionError can fire).
# Shared subgraphs are emitted once per flatten call; separately pickled
# values duplicate structure on the wire but re-intern to shared nodes on
# load.

def flatten_values(values) -> "tuple":
    """Flatten Exprs/ints into ``(instrs, refs)`` with shared structure.

    ``instrs`` is a tuple of instructions — ``("i", int)``, ``("s", name,
    lo, hi)``, ``("u", op, aref)``, ``("b", op, aref, bref)`` — where refs
    are indices of earlier instructions; ``refs[i]`` is the instruction
    index of ``values[i]``.  Nodes shared between the given values are
    emitted once.
    """
    instrs: list = []
    memo: Dict[int, int] = {}
    const_memo: Dict[int, int] = {}

    def const_ref(v) -> int:
        idx = const_memo.get(v)
        if idx is None:
            idx = len(instrs)
            instrs.append(("i", v))
            const_memo[v] = idx
        return idx

    for root in values:
        if not isinstance(root, Expr):
            const_ref(root)
            continue
        stack = [root]
        while stack:
            node = stack[-1]
            nid = id(node)
            if nid in memo:
                stack.pop()
                continue
            if isinstance(node, Sym):
                memo[nid] = len(instrs)
                instrs.append(("s", node.name, node.lo, node.hi))
                stack.pop()
            elif isinstance(node, UnExpr):
                a = node.a
                if isinstance(a, Expr):
                    if id(a) not in memo:
                        stack.append(a)
                        continue
                    aref = memo[id(a)]
                else:
                    aref = const_ref(a)
                memo[nid] = len(instrs)
                instrs.append(("u", node.op, aref))
                stack.pop()
            else:
                assert isinstance(node, BinExpr)
                a, b = node.a, node.b
                pushed = False
                if isinstance(a, Expr) and id(a) not in memo:
                    stack.append(a)
                    pushed = True
                if isinstance(b, Expr) and id(b) not in memo:
                    stack.append(b)
                    pushed = True
                if pushed:
                    continue
                aref = memo[id(a)] if isinstance(a, Expr) else const_ref(a)
                bref = memo[id(b)] if isinstance(b, Expr) else const_ref(b)
                memo[nid] = len(instrs)
                instrs.append(("b", node.op, aref, bref))
                stack.pop()
    refs = tuple(
        memo[id(v)] if isinstance(v, Expr) else const_memo[v] for v in values
    )
    return tuple(instrs), refs


def rebuild_values(instrs):
    """Evaluate a :func:`flatten_values` instruction list to values.

    Interned constructors (not mk_binop/mk_unop) rebuild each node: the
    graph already survived canonicalisation when it was first built, so
    its exact structure is restored and deduped against this process's
    intern table.
    """
    vals: list = []
    for ins in instrs:
        tag = ins[0]
        if tag == "i":
            vals.append(ins[1])
        elif tag == "s":
            vals.append(Sym(ins[1], ins[2], ins[3]))
        elif tag == "u":
            vals.append(_intern_un(ins[1], vals[ins[2]]))
        else:
            vals.append(_intern_bin(ins[1], vals[ins[2]], vals[ins[3]]))
    return vals


def rebuild_values_cached(instrs, cache: Optional[dict]):
    """Batch re-intern entry point: :func:`rebuild_values` memoized.

    The parallel snapshot codec encodes a whole chunk of states against
    one shared instruction table; every state in the chunk then restores
    against the *same* ``instrs`` tuple.  ``cache`` (keyed by
    ``id(instrs)``) makes the table rebuild once per chunk instead of
    once per state.  The caller owns the cache's lifetime and must keep
    the instruction tuples alive while it is in use (ids are only stable
    while the object is); pass ``None`` to bypass caching.
    """
    if cache is None:
        return rebuild_values(instrs)
    key = id(instrs)
    vals = cache.get(key)
    if vals is None:
        vals = cache[key] = rebuild_values(instrs)
    return vals


def _rebuild_graph(instrs, ref):
    """Unpickle target for a single flattened value."""
    return rebuild_values(instrs)[ref]


def _intern_un(op: str, a: Value) -> UnExpr:
    key = (op, _key_of(a))
    node = _intern.get(key)
    if node is None:
        node = object.__new__(UnExpr)
        node.op = op
        node.a = a
        _intern[key] = node
    return node  # type: ignore[return-value]


def mk_binop(op: str, a: Value, b: Value) -> Value:
    """Build ``a op b`` with constant folding and identity rules."""
    if op not in BINOPS:
        raise ValueError(f"unknown binary operator {op!r}")
    a_sym = isinstance(a, Expr)
    b_sym = isinstance(b, Expr)
    if not a_sym and not b_sym:
        return _apply_binop(op, a, b)

    # Canonical operand order for commutative ops: constant on the right.
    if op in _COMMUTATIVE and not a_sym and b_sym:
        a, b = b, a
        a_sym, b_sym = b_sym, a_sym
    # Comparisons with the constant on the left are flipped.
    if op in _CMP_SWAP and not a_sym and b_sym:
        a, b = b, a
        op = _CMP_SWAP[op]
        a_sym, b_sym = True, False
    # Two variables under a commutative op are ordered by name, so
    # ``x == y`` and ``y == x`` intern to one node.
    if (
        op in _COMMUTATIVE
        and isinstance(a, Sym)
        and isinstance(b, Sym)
        and a.name > b.name
    ):
        a, b = b, a

    if not b_sym:
        if op in ("add", "sub", "or", "xor", "shl", "shr") and b == 0:
            return a
        if op == "mul":
            if b == 0:
                return 0
            if b == 1:
                return a
        if op == "div" and b == 1:
            return a
        if op == "and" and b == 0:
            return 0
        if op == "land":
            return truth_condition(a) if b != 0 else 0
        if op == "lor":
            return truth_condition(a) if b == 0 else 1

    if a_sym and b_sym and a is b:
        if op in ("sub", "xor"):
            return 0
        if op in ("eq", "le", "ge"):
            return 1
        if op in ("ne", "lt", "gt"):
            return 0
        if op in ("and", "or"):
            return a

    # (x op c1) op c2 folding for associative chains with constants.
    if (
        not b_sym
        and isinstance(a, BinExpr)
        and not isinstance(a.b, Expr)
        and op == a.op
        and op in ("add", "mul", "and", "or", "xor")
    ):
        folded = _apply_binop(op, a.b, b)
        return mk_binop(op, a.a, folded)
    if not b_sym and isinstance(a, BinExpr) and not isinstance(a.b, Expr):
        if a.op == "add" and op == "sub":
            return mk_binop("add", a.a, a.b - b)
        if a.op == "sub" and op == "add":
            return mk_binop("add", a.a, b - a.b)
        # Comparison of an offset expression against a constant.
        if op in COMPARISONS and a.op == "add":
            return mk_binop(op, a.a, b - a.b)

    return _intern_bin(op, a, b)


def mk_unop(op: str, a: Value) -> Value:
    """Build ``op a`` with constant folding and double-negation removal."""
    if op not in UNOPS:
        raise ValueError(f"unknown unary operator {op!r}")
    if not isinstance(a, Expr):
        return _apply_unop(op, a)
    if op == "neg" and isinstance(a, UnExpr) and a.op == "neg":
        return a.a
    if op == "bnot" and isinstance(a, UnExpr) and a.op == "bnot":
        return a.a
    if op == "lnot":
        if isinstance(a, UnExpr) and a.op == "lnot":
            # lnot(lnot(x)) == (x != 0)
            return mk_binop("ne", a.a, 0)
        if isinstance(a, BinExpr) and a.op in _CMP_NEGATION:
            return mk_binop(_CMP_NEGATION[a.op], a.a, a.b)
    return _intern_un(op, a)


def negate_condition(cond: Value) -> Value:
    """Logical negation of a branch condition (``cond`` is truthy-int)."""
    if not isinstance(cond, Expr):
        return int(cond == 0)
    if isinstance(cond, BinExpr) and cond.op in _CMP_NEGATION:
        return mk_binop(_CMP_NEGATION[cond.op], cond.a, cond.b)
    return mk_unop("lnot", cond)


def is_condition(v: Value) -> bool:
    """True for a comparison, ``land``, ``lor`` or ``lnot`` node."""
    if isinstance(v, UnExpr):
        return v.op == "lnot"
    return isinstance(v, BinExpr) and (v.op in COMPARISONS or v.op in ("land", "lor"))


def truth_condition(cond: Value) -> Value:
    """Normalise a value used as a branch condition to a 0/1 expression."""
    if not isinstance(cond, Expr):
        return int(cond != 0)
    return cond if is_condition(cond) else mk_binop("ne", cond, 0)

"""Incremental, share-structure path-condition sets.

A :class:`ConstraintSet` is an immutable chain of path-condition atoms:
``child = parent.append(atom)`` shares the whole parent chain, so the N
states alive during exploration hold O(N) atoms total instead of O(N^2)
copied lists.  This is the engine-side half of incremental solving (the
classic per-state constraint sets surveyed by Baldoni et al.): the solver
sees *which atoms are new* relative to an ancestor that is already known
to be satisfiable and only re-solves what those atoms touch.

Each set carries two things:

- a :class:`Partition`, computed lazily and once per node from its
  parent's: the node's own atom normalised to literal form
  (:func:`_normalise`), and the independence partition of every
  normalised atom in the chain (connected components of the
  atom/variable graph, which can be solved separately), with the
  variables' domains and the atom count.  A query therefore normalises
  and partitions only the atoms appended since the last query on its
  chain, in the manner of KLEE's constraint independence;
- a *known model*: an assignment recorded by whoever proved or observed
  this exact set satisfiable (the concolic executor knows its concrete
  assignment satisfies every atom it appends; the solver records the
  models it finds).

The known-model contract: ``note_model(m)`` asserts that ``m``, completed
with ``var.lo`` for any variable missing from it, satisfies **every**
atom in this set.  Solvers use it two ways: re-check just the appended
suffix atoms against the nearest ancestor model before any search, and
adopt the ancestor model wholesale for components the suffix does not
touch (independence slicing).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lowlevel.expr import (
    BinExpr,
    COMPARISONS,
    Expr,
    Sym,
    UnExpr,
    flatten_values,
    is_condition,
    mk_binop,
    negate_condition,
    rebuild_values,
)

Atom = object  #: an Expr, or a concrete int (trivially true/false)

#: An independence component: (variable names, sorted; atoms, in the
#: order they joined the chain).
Component = Tuple[Tuple[str, ...], Tuple[Expr, ...]]


def _is_boolean_valued(expr, memo: dict) -> bool:
    """True when ``expr`` can only evaluate to 0 or 1."""
    if not isinstance(expr, Expr):
        return expr in (0, 1)
    key = id(expr)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(expr, Sym):
        result = expr.lo >= 0 and expr.hi <= 1
    elif isinstance(expr, UnExpr):
        result = expr.op == "lnot"
    else:
        assert isinstance(expr, BinExpr)
        if expr.op in COMPARISONS or expr.op in ("land", "lor"):
            result = True
        elif expr.op in ("and", "or", "xor"):
            memo[key] = False  # guard against (impossible) cycles
            result = _is_boolean_valued(expr.a, memo) and _is_boolean_valued(expr.b, memo)
        else:
            result = False
    memo[key] = result
    return result


def _normalise(constraints: Sequence) -> Optional[List[Expr]]:
    """Return comparison-shaped atoms, or None if trivially UNSAT.

    Conjunctions are decomposed: branch-free guest code (fast-path-
    eliminated string comparison) produces conditions like
    ``(c0==97)&(c1==98)&... == 1``; splitting them into per-character
    atoms lets interval propagation solve them without search.  A
    condition compared with 0 is unwrapped to literal form (``C != 0``
    is ``C``, ``C == 0`` is ``not C``), so a negated comparison becomes
    a bound and one condition always appears as one interned atom.
    """
    atoms: List[Expr] = []
    seen = set()
    bool_memo: dict = {}
    work = list(constraints)
    while work:
        c = work.pop()
        if not isinstance(c, Expr):
            if c == 0:
                return None
            continue
        if isinstance(c, UnExpr) and c.op == "lnot":
            c = mk_binop("eq", c.a, 0)
        elif not is_condition(c):
            c = mk_binop("ne", c, 0)
        if not isinstance(c, Expr):
            if c == 0:
                return None
            continue
        # Decompose truthy conjunctions and falsy disjunctions.  Operands
        # are pushed back raw (or properly negated); the loop's own
        # normalisation turns them into comparison atoms.
        if isinstance(c, BinExpr):
            if c.op == "land":
                work.append(c.a)
                work.append(c.b)
                continue
            inner = c.a
            if c.op == "ne" and c.b == 0 and is_condition(inner):
                work.append(inner)  # C != 0 is C itself
                continue
            if (
                c.op == "ne"
                and c.b == 0
                and isinstance(inner, BinExpr)
                and inner.op == "and"
                and _is_boolean_valued(inner.a, bool_memo)
                and _is_boolean_valued(inner.b, bool_memo)
            ):
                work.append(inner.a)
                work.append(inner.b)
                continue
            if c.op == "eq" and c.b == 0 and isinstance(inner, Expr):
                if is_condition(inner) and inner.op not in ("land", "lor"):
                    work.append(negate_condition(inner))  # C == 0 is not C
                    continue
                if isinstance(inner, BinExpr) and (
                    inner.op == "lor"
                    or (
                        inner.op == "or"
                        and _is_boolean_valued(inner.a, bool_memo)
                        and _is_boolean_valued(inner.b, bool_memo)
                    )
                ):
                    work.append(negate_condition(inner.a))
                    work.append(negate_condition(inner.b))
                    continue
            # eq(X, 1) for boolean X is the same as asserting X.
            if (
                c.op == "eq"
                and not isinstance(c.b, Expr)
                and c.b == 1
                and isinstance(c.a, BinExpr)
                and c.a.op in ("and", "land")
                and _is_boolean_valued(c.a, bool_memo)
            ):
                work.append(c.a)
                continue
        if id(c) in seen:
            continue
        seen.add(id(c))
        atoms.append(c)
    return atoms


def _component_order(comp: Component):
    return (len(comp[0]), comp[0])


class Partition:
    """A node's normalised atoms, split into independence components.

    Shared and never mutated: a child derives its own from its parent's
    (:meth:`extend`), copying only what its new atoms change.

    - ``new``: the normalised atoms this node adds to its parent's (atoms
      already in the chain are not repeated);
    - ``unsat``: some atom of the chain normalised to false;
    - ``comp_of``: variable name -> its :data:`Component`;
    - ``domains``: variable name -> inclusive ``(lo, hi)``;
    - ``n_atoms`` and ``n_components`` count the chain's normalised atoms
      and its components.
    """

    __slots__ = ("new", "unsat", "comp_of", "domains", "n_atoms", "n_components")

    def __init__(self, new, unsat, comp_of, domains, n_atoms, n_components):
        self.new: Tuple[Expr, ...] = new
        self.unsat: bool = unsat
        self.comp_of: Dict[str, Component] = comp_of
        self.domains: Dict[str, Tuple[int, int]] = domains
        self.n_atoms: int = n_atoms
        self.n_components: int = n_components

    def extend(self, atom: Atom) -> "Partition":
        """The partition of this chain plus ``atom``."""
        if self.unsat:
            return self
        normalised = _normalise((atom,))
        if normalised is None:
            return Partition((), True, self.comp_of, self.domains,
                             self.n_atoms, self.n_components)
        comp_of = self.comp_of
        new = []
        for x in normalised:
            for var in x.free_vars():
                comp = comp_of.get(var.name)
                if comp is None or not any(y is x for y in comp[1]):
                    new.append(x)
                break
        if not new:
            return Partition((), False, comp_of, self.domains,
                             self.n_atoms, self.n_components)
        comp_of = dict(comp_of)
        domains = self.domains
        n_components = self.n_components
        for x in new:
            names = set()
            merged = {}
            for var in x.free_vars():
                comp = comp_of.get(var.name)
                if comp is None:
                    if domains is self.domains:
                        domains = dict(domains)
                    domains[var.name] = (var.lo, var.hi)
                    names.add(var.name)
                else:
                    merged[id(comp)] = comp
            atoms: List[Expr] = []
            for comp in sorted(merged.values(), key=_component_order):
                names.update(comp[0])
                atoms.extend(comp[1])
            atoms.append(x)
            joined = (tuple(sorted(names)), tuple(atoms))
            for name in joined[0]:
                comp_of[name] = joined
            n_components += 1 - len(merged)
        return Partition(tuple(new), False, comp_of, domains,
                         self.n_atoms + len(new), n_components)

    def components(self) -> List[Component]:
        """Every component, fewest variables first, then by name."""
        unique = {id(comp): comp for comp in self.comp_of.values()}
        return sorted(unique.values(), key=_component_order)

    def touched(self, atoms: Sequence[Expr]) -> List[Component]:
        """The components holding ``atoms``, in :meth:`components` order."""
        comp_of = self.comp_of
        hit = {}
        for atom in atoms:
            for var in atom.free_vars():
                comp = comp_of[var.name]
                hit[id(comp)] = comp
                break
        return sorted(hit.values(), key=_component_order)


_EMPTY_PARTITION = Partition((), False, {}, {}, 0, 0)


class ConstraintSet:
    """One immutable node in a share-structure chain of atoms."""

    __slots__ = ("parent", "atom", "_length", "_partition", "_model", "_unsat")

    _EMPTY: Optional["ConstraintSet"] = None

    def __init__(self, parent: Optional["ConstraintSet"], atom: Optional[Atom]):
        self.parent = parent
        self.atom = atom
        self._length = (parent._length + 1) if parent is not None else 0
        self._partition: Optional[Partition] = None
        self._model: Optional[Dict[str, int]] = None
        self._unsat = False

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls) -> "ConstraintSet":
        """The shared empty set (root of every chain)."""
        if cls._EMPTY is None:
            cls._EMPTY = cls(None, None)
            cls._EMPTY._partition = _EMPTY_PARTITION
        return cls._EMPTY

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "ConstraintSet":
        """Build a fresh chain from an iterable of atoms."""
        if isinstance(atoms, ConstraintSet):
            return atoms
        node = cls.empty()
        for atom in atoms:
            node = node.append(atom)
        return node

    def append(self, atom: Atom) -> "ConstraintSet":
        """Return a new set extending this one by ``atom`` (shared tail)."""
        return ConstraintSet(self, atom)

    def extend(self, atoms: Iterable[Atom]) -> "ConstraintSet":
        node = self
        for atom in atoms:
            node = node.append(atom)
        return node

    # -- basic views ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms())

    def atoms(self) -> List[Atom]:
        """All atoms, oldest first."""
        out: List[Atom] = []
        node = self
        while node._length:
            out.append(node.atom)
            node = node.parent
        out.reverse()
        return out

    def key(self) -> Tuple[int, ...]:
        """Stable identity key (interned-atom ids, oldest first)."""
        return tuple(id(a) if isinstance(a, Expr) else hash(("c", a)) for a in self.atoms())

    # -- portable snapshots ---------------------------------------------------

    def __reduce__(self):
        """Pickle as (prefix atoms, nearest known model, suffix atoms).

        The chain is flattened so unpickling is iterative (no recursion
        over parent links) and the nearest ancestor known-model — the
        thing that makes sibling queries cheap — survives the trip.
        All atoms are flattened through one shared
        :func:`~repro.lowlevel.expr.flatten_values` call, so expression
        structure shared between atoms (the common case: each loop
        iteration's atom builds on the previous accumulator) is encoded
        once instead of once per atom.  Atoms re-intern on load, so a
        restored set keys into the receiving process's caches exactly
        like a native one.
        """
        model, prefix, suffix = self.split_at_model()
        instrs, refs = flatten_values(prefix + suffix)
        return (
            _restore_chain,
            (
                instrs,
                refs[: len(prefix)],
                None if model is None else dict(model),
                refs[len(prefix):],
            ),
        )

    def __repr__(self) -> str:
        return f"ConstraintSet(|atoms|={self._length}, model={'yes' if self._model is not None else 'no'})"

    # -- the memoised partition ---------------------------------------------

    def partition(self) -> Partition:
        """This set's :class:`Partition`, derived once from its parent's.

        Ancestors without one get theirs first, oldest first, in a loop
        (chains are far deeper than the recursion limit).
        """
        part = self._partition
        if part is None:
            missing = []
            node = self
            while node._partition is None:
                missing.append(node)
                node = node.parent
            part = node._partition
            for node in reversed(missing):
                part = node._partition = part.extend(node.atom)
        return part

    @property
    def free_names(self) -> FrozenSet[str]:
        """Names of the variables in the set's normalised atoms."""
        return frozenset(self.partition().domains)

    def new_atoms_since(self, ancestor: "ConstraintSet") -> List[Expr]:
        """The normalised atoms appended after ``ancestor``, newest first."""
        self.partition()
        out: List[Expr] = []
        node = self
        while node is not ancestor:
            out.extend(node._partition.new)
            node = node.parent
        return out

    # -- known models ---------------------------------------------------------

    def note_model(self, model: Dict[str, int]) -> None:
        """Record an assignment known to satisfy every atom in this set.

        Contract: ``model`` completed with ``var.lo`` for missing variables
        satisfies all atoms.  The dict is stored by reference; callers may
        later *add* keys (the concolic executor lazily fills in fresh
        variables) but must never change the value of an existing key.
        """
        self._model = model

    @property
    def model(self) -> Optional[Dict[str, int]]:
        """The known satisfying assignment, if any."""
        return self._model

    def note_unsat(self) -> None:
        """Record that this exact set was proven unsatisfiable."""
        self._unsat = True

    @property
    def known_unsat(self) -> bool:
        return self._unsat

    def model_ancestor(self) -> Optional["ConstraintSet"]:
        """The nearest node, this one included, that carries a known model."""
        node = self
        while node._length:
            if node._model is not None:
                return node
            node = node.parent
        return None

    def split_at_model(self) -> Tuple[Optional[Dict[str, int]], List[Atom], List[Atom]]:
        """Split at the nearest ancestor carrying a known model.

        Returns ``(model, prefix_atoms, suffix_atoms)``: ``prefix_atoms``
        are the atoms of the model-bearing ancestor (satisfied by the
        model, per the contract), ``suffix_atoms`` everything appended
        since.  With no model anywhere, returns ``(None, [], all_atoms)``.
        """
        ancestor = self.model_ancestor()
        if ancestor is None:
            return None, [], self.atoms()
        prefix = ancestor.atoms()
        return ancestor._model, prefix, self.atoms()[len(prefix):]


def _restore_chain(instrs, prefix_refs, model, suffix_refs) -> ConstraintSet:
    """Rebuild a pickled chain; see :meth:`ConstraintSet.__reduce__`."""
    values = rebuild_values(instrs)
    node = ConstraintSet.from_atoms(values[r] for r in prefix_refs)
    if model is not None:
        node.note_model(model)
    return node.extend(values[r] for r in suffix_refs)


__all__ = ["Component", "ConstraintSet", "Partition"]

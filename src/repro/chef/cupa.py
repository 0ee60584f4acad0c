"""Class-Uniform Path Analysis (CUPA) — §3.2 and Fig. 5 of the paper.

CUPA organises the pending-state queue into a hierarchy of partitions.
Level *i* groups states by a classification function ``h_i``; selecting a
state performs a random descent: pick a class at each level (uniformly by
default, or by a per-level weight function), then pick a state in the
reached leaf.  States from prolific fork sites therefore stop dominating
selection: a class containing one state is as likely as one with hundreds.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

Classifier = Callable[[object], object]
WeightFn = Callable[[object, int], float]


class _Level:
    __slots__ = ("classes",)

    def __init__(self):
        self.classes: Dict[object, object] = {}


class CupaTree:
    """N-level CUPA partition tree holding pending states."""

    def __init__(
        self,
        classifiers: List[Classifier],
        rng: random.Random,
        weight_fns: Optional[List[Optional[WeightFn]]] = None,
    ):
        if not classifiers:
            raise ValueError("CUPA requires at least one classification level")
        self._classifiers = classifiers
        self._rng = rng
        self._weight_fns: List[Optional[WeightFn]] = (
            list(weight_fns) if weight_fns else [None] * len(classifiers)
        )
        if len(self._weight_fns) != len(classifiers):
            raise ValueError("one weight function slot per level required")
        self._root = _Level()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, state) -> None:
        node = self._root
        for index, classify in enumerate(self._classifiers):
            key = classify(state)
            if index == len(self._classifiers) - 1:
                leaf = node.classes.setdefault(key, [])
                leaf.append(state)
            else:
                node = node.classes.setdefault(key, _Level())
        self._size += 1

    def select(self) -> Optional[object]:
        """Random descent; removes and returns the selected state."""
        if self._size == 0:
            return None
        path: List[tuple] = []
        node = self._root
        for level_index in range(len(self._classifiers)):
            # Never empty: _prune drops every class it empties.
            ordered = sorted(node.classes, key=repr)
            weight_fn = self._weight_fns[level_index]
            if weight_fn is None:
                key = self._rng.choice(ordered)
            else:
                weights = [max(weight_fn(k, level_index), 1e-12) for k in ordered]
                key = self._rng.choices(ordered, weights=weights, k=1)[0]
            path.append((node, key))
            node = node.classes[key]
        leaf: List = node  # type: ignore[assignment]
        state = leaf.pop(self._rng.randrange(len(leaf)))
        self._size -= 1
        self._prune(path)
        return state

    def select_weighted_leaf(self, leaf_weight: Callable[[object], float]) -> Optional[object]:
        """Like :meth:`select` but leaf states are weighted (fork weight)."""
        if self._size == 0:
            return None
        path: List[tuple] = []
        node = self._root
        for level_index in range(len(self._classifiers)):
            ordered = sorted(node.classes, key=repr)
            weight_fn = self._weight_fns[level_index]
            if weight_fn is None:
                key = self._rng.choice(ordered)
            else:
                weights = [max(weight_fn(k, level_index), 1e-12) for k in ordered]
                key = self._rng.choices(ordered, weights=weights, k=1)[0]
            path.append((node, key))
            node = node.classes[key]
        leaf: List = node  # type: ignore[assignment]
        weights = [max(leaf_weight(s), 1e-12) for s in leaf]
        index = self._rng.choices(range(len(leaf)), weights=weights, k=1)[0]
        state = leaf.pop(index)
        self._size -= 1
        self._prune(path)
        return state

    def _prune(self, path: List[tuple]) -> None:
        """Delete the classes on ``path`` that the last removal emptied.

        So no class in the tree is ever empty, and selection can draw
        from a level's classes as they stand.
        """
        for node, key in reversed(path):
            child = node.classes[key]
            if child if isinstance(child, list) else child.classes:
                return  # non-empty, and so is every class above it
            del node.classes[key]

    def states(self) -> List[object]:
        """All pending states (diagnostics)."""
        result: List[object] = []

        def walk(node) -> None:
            if isinstance(node, list):
                result.extend(node)
                return
            for child in node.classes.values():
                walk(child)

        walk(self._root)
        return result


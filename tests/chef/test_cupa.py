"""CUPA partition-tree tests, including the class-uniformity property."""

import random
from collections import Counter

import pytest

from repro.chef.cupa import CupaTree


class FakeState:
    def __init__(self, cls_a, cls_b, name):
        self.cls_a = cls_a
        self.cls_b = cls_b
        self.name = name

    def __repr__(self):
        return f"FakeState({self.name})"


def _tree(rng=None, weights=None):
    return CupaTree(
        classifiers=[lambda s: s.cls_a, lambda s: s.cls_b],
        rng=rng or random.Random(0),
        weight_fns=weights,
    )


class TestBasics:
    def test_add_select_roundtrip(self):
        tree = _tree()
        state = FakeState(1, 1, "only")
        tree.add(state)
        assert len(tree) == 1
        assert tree.select() is state
        assert len(tree) == 0
        assert tree.select() is None

    def test_selection_removes(self):
        tree = _tree()
        states = [FakeState(i % 2, 0, i) for i in range(10)]
        for s in states:
            tree.add(s)
        picked = [tree.select() for _ in range(10)]
        assert sorted(s.name for s in picked) == list(range(10))

    def test_states_listing(self):
        tree = _tree()
        for i in range(5):
            tree.add(FakeState(0, i, i))
        assert len(tree.states()) == 5

    def test_requires_classifiers(self):
        with pytest.raises(ValueError):
            CupaTree([], random.Random(0))

    def test_weight_fn_count_checked(self):
        with pytest.raises(ValueError):
            CupaTree([lambda s: 0], random.Random(0), weight_fns=[None, None])


class TestClassUniformity:
    def test_small_class_not_starved(self):
        """The core CUPA property (§3.2): a class with 1 state is selected
        as often as a class with 100 states."""
        rng = random.Random(42)
        counts = Counter()
        trials = 400
        for _ in range(trials):
            tree = _tree(rng=rng)
            tree.add(FakeState("small", 0, "the-one"))
            for i in range(100):
                tree.add(FakeState("big", 0, f"b{i}"))
            first = tree.select()
            counts[first.cls_a] += 1
        # Uniform over classes => ~50/50, far from the 1/101 a flat queue
        # would give the small class.
        assert counts["small"] > trials * 0.35
        assert counts["big"] > trials * 0.35

    def test_weighted_level_biases_selection(self):
        rng = random.Random(7)
        weights = [lambda key, _level: 10.0 if key == "hot" else 0.1, None]
        counts = Counter()
        for _ in range(300):
            tree = _tree(rng=rng, weights=weights)
            tree.add(FakeState("hot", 0, "h"))
            tree.add(FakeState("cold", 0, "c"))
            counts[tree.select().cls_a] += 1
        assert counts["hot"] > counts["cold"] * 3

    def test_weighted_leaf_selection(self):
        rng = random.Random(9)
        counts = Counter()
        for _ in range(300):
            tree = CupaTree([lambda s: 0], rng)
            heavy = FakeState(0, 0, "heavy")
            light = FakeState(0, 0, "light")
            tree.add(heavy)
            tree.add(light)
            picked = tree.select_weighted_leaf(
                lambda s: 10.0 if s.name == "heavy" else 0.1
            )
            counts[picked.name] += 1
        assert counts["heavy"] > counts["light"] * 3

    def test_empty_classes_pruned(self):
        tree = _tree()
        tree.add(FakeState(1, 1, "a"))
        tree.select()
        tree.add(FakeState(2, 2, "b"))
        assert tree.select().name == "b"


def _empty_classes(tree):
    """Classes anywhere in ``tree`` that hold no state."""
    empty = []

    def walk(node):
        for key, child in node.classes.items():
            if isinstance(child, list):
                if not child:
                    empty.append(key)
            elif not child.classes:
                empty.append(key)
            else:
                walk(child)

    walk(tree._root)
    return empty


class TestNoEmptyClasses:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_no_empty_class_survives_add_select_drain(self, weighted):
        from repro.chef.strategies import SearchStrategy

        rng = random.Random(7)
        tree = _tree(random.Random(3))
        select = (
            (lambda: tree.select_weighted_leaf(lambda s: 1.0 + s.name % 3))
            if weighted else tree.select
        )
        added = 0
        for _ in range(400):
            if rng.random() < 0.55:
                tree.add(FakeState(rng.randrange(4), rng.randrange(3), added))
                added += 1
            else:
                select()
            assert _empty_classes(tree) == []
            assert len(tree.states()) == len(tree)

        class Strategy(SearchStrategy):
            def select(self):
                return select()

        drained = Strategy().drain()
        assert len(drained) > 0
        assert len(tree) == 0 and tree._root.classes == {}
        assert select() is None


#: seed-1 turnstile-4 PathCompleted inputs, in event order, as CUPA chose
#: them before selection stopped re-measuring class sizes.
TURNSTILE_4_ORDER = {
    "cupa-path": [
        "cpcp", "cccp", "c\x00cp", "cpc\x00", "\x00pcp", "cccc", "ccc\x00",
        "cp\x00p", "cpcc", "ppcp", "ppcc", "p\x00cp", "pccp", "ppc\x00",
        "pc\x00p", "pcc\x00", "cc\x00p", "ccpp", "cppp", "ccp\x00", "cppc",
        "pppp", "cpp\x00", "pppc", "pp\x00p", "pccc", "ppp\x00", "pcpp",
        "pcp\x00", "pcpc", "ccpc",
    ],
    "cupa-cov": [
        "cpcp", "cpcc", "c\x00cp", "cpc\x00", "cp\x00p", "\x00pcp", "cppp",
        "ppcp", "pp\x00p", "ppcc", "cpp\x00", "cppc", "ppc\x00", "cccp",
        "pccp", "cccc", "cc\x00p", "pccc", "pc\x00p", "pcc\x00", "p\x00cp",
        "pcpp", "pcpc", "ccpp", "ccc\x00", "ccp\x00", "ccpc", "pcp\x00",
        "pppp", "pppc", "ppp\x00",
    ],
}


@pytest.mark.parametrize("strategy", sorted(TURNSTILE_4_ORDER))
def test_turnstile_path_order_is_unchanged(strategy):
    from repro.api import Session, get_language
    from repro.api.events import PathCompleted
    from repro.chef.options import ChefConfig
    from repro.targets import pylite_packages as PL

    (_kind, name, _default), = PL.TURNSTILE_TEST["inputs"]
    declaration = get_language("pylite").declare_string(name, "cpcp")
    source = f"{PL.TURNSTILE_SOURCE}\n{declaration}\n{PL.TURNSTILE_TEST['body']}\n"
    config = ChefConfig(seed=1, time_budget=120.0, strategy=strategy)
    order = [
        bytes(event.case.inputs["b0"]).decode("latin-1")
        for event in Session("pylite", source, config).events()
        if isinstance(event, PathCompleted)
    ]
    assert order == TURNSTILE_4_ORDER[strategy]

"""The first-binding order of names, which fixes local slot numbers.

``_assigned_names`` walks statements breadth-first: every statement of
one nesting level before any statement of the next, the order
``ast.walk`` visits them in.  A function's local slots, and the LVM
registers built from them, follow this order, so a walk that drifted to
source (depth-first) order would renumber every register.
"""

from __future__ import annotations

import ast
import textwrap

from repro.frontend import compile_pylite
from repro.frontend.lower import _assigned_names
from repro.targets import pylite_packages as PL

NESTED = textwrap.dedent("""\
    if c:
        a = 1
        while w:
            b = 2
            for i in range(3):
                d = 4
    elif e:
        f = 5
    else:
        g += 1
    x = 0
    for j in range(2):
        k = 1
""")

#: level 1: x, j; level 2: a, k; level 3: b, i (while body), f, g
#: (elif body and else); level 4: d.  Source order would be a b i d f g x j k.
BREADTH_FIRST = ["x", "j", "a", "k", "b", "i", "f", "g", "d"]


def _walk_order(stmts):
    """The reference: every Assign/AugAssign/For target ``ast.walk`` meets."""
    seen = []
    for node in ast.walk(ast.Module(body=stmts, type_ignores=[])):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.For):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id not in seen:
                seen.append(target.id)
    return seen


def test_nested_bodies_bind_level_by_level():
    stmts = ast.parse(NESTED).body
    assert _assigned_names(stmts) == BREADTH_FIRST
    assert _walk_order(stmts) == BREADTH_FIRST


def test_function_slots_follow_the_binding_order():
    body = textwrap.indent(NESTED, "    ")
    source = f"def outer(c, w, e):\n{body}    return 0\n"
    slots = compile_pylite(source).module.functions["outer"].local_slots
    assert list(slots) == ["c", "w", "e"] + BREADTH_FIRST
    assert list(slots.values()) == list(range(len(slots)))


def test_pack_bodies_match_the_walk_order():
    for attr in sorted(vars(PL)):
        if attr.endswith("_SOURCE"):
            module = ast.parse(getattr(PL, attr)).body
            defs = [node for node in module if isinstance(node, ast.FunctionDef)]
            main = [node for node in module if node not in defs]
            bodies = [main] + [node.body for node in defs]
            for body in bodies:
                assert _assigned_names(body) == _walk_order(body), attr

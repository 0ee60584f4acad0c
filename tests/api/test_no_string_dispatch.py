"""Lint-style guard for PR 5's no-string-dispatch invariant.

Language behaviour must flow through the :class:`GuestLanguage` registry;
the only files allowed to name a language are the per-language
``interpreters/<lang>/language.py`` registration modules.  This test
walks the AST of every module under ``src/repro`` and flags comparisons
of a ``language`` value against a string literal anywhere else — the
pattern the registry was introduced to eliminate.
"""

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent


def _is_language_ref(node: ast.expr) -> bool:
    """``language``/``lang`` names or ``*.language`` attributes."""
    if isinstance(node, ast.Name):
        return node.id in {"language", "lang", "language_name"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"language", "lang", "language_name"}
    return False


def _is_string_literal(node: ast.expr) -> bool:
    """A string constant, or a tuple/list/set containing one (``in``)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string_literal(elt) for elt in node.elts)
    return False


def _string_dispatch_sites(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        has_language = any(_is_language_ref(op) for op in operands)
        has_literal = any(_is_string_literal(op) for op in operands)
        if has_language and has_literal:
            yield node.lineno


def _is_registration_module(path: Path) -> bool:
    rel = path.relative_to(SRC_ROOT)
    return (
        len(rel.parts) == 3
        and rel.parts[0] == "interpreters"
        and rel.parts[2] == "language.py"
    )


class TestNoStringDispatch:
    def test_no_language_string_comparisons_outside_language_modules(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if _is_registration_module(path):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for lineno in _string_dispatch_sites(tree):
                offenders.append(f"{path.relative_to(SRC_ROOT)}:{lineno}")
        assert not offenders, (
            "language-name string comparisons outside interpreters/*/language.py "
            f"(route through repro.api.get_language instead): {offenders}"
        )

    def test_guard_actually_detects_the_pattern(self):
        # The lint must not be vacuous: feed it the forbidden shape.
        tree = ast.parse("if package.language == 'pylite':\n    pass\n")
        assert list(_string_dispatch_sites(tree)) == [1]
        tree = ast.parse("ok = language in ('a', 'b')\n")
        assert list(_string_dispatch_sites(tree)) == [1]
        tree = ast.parse("if kind == 'pylite':\n    pass\n")
        assert list(_string_dispatch_sites(tree)) == []

    def test_registration_modules_exist_for_every_language(self):
        # The allow-list is real: each registered language has its
        # interpreters/<name>/language.py registration module.
        for name in repro.languages():
            assert (SRC_ROOT / "interpreters" / name / "language.py").is_file()

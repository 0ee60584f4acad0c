"""GuestLanguage protocol + registry tests."""

import pytest

from repro.api.language import (
    GuestLanguage,
    UnknownLanguageError,
    _REGISTRY,
    escape_double_quoted,
    get_language,
    languages,
    register_language,
)
from repro.errors import ReproError
from repro.interpreters.minipy.frontend import tokenize


#: strings whose literals must survive frontend lexing unchanged.
ROUND_TRIP_CASES = [
    "plain",
    'has "quotes"',
    "back\\slash",
    'mix "q" and \\ and more \\\\',
    '\\"mix\\\\"',
    "\x00\x01\x1f\x7f\xff",
    "tab\tnewline\nquote'",
    "",
]


class TestRegistry:
    def test_builtins_registered(self):
        assert languages() == ["pylite"]

    def test_get_language_comment_prefixes(self):
        assert get_language("pylite").comment_prefix == "#"

    def test_get_language_passthrough(self):
        lang = get_language("pylite")
        assert get_language(lang) is lang

    def test_unknown_language_error_lists_known(self):
        with pytest.raises(UnknownLanguageError) as exc:
            get_language("ruby")
        # Every registered language, quoted.
        assert "registered languages: 'pylite'" in str(exc.value)

    def test_unknown_language_error_is_repro_error(self):
        with pytest.raises(ReproError):
            get_language("ruby")

    def test_reregistering_same_object_is_noop(self):
        lang = get_language("pylite")
        assert register_language(lang) is lang

    def test_registering_conflicting_name_rejected(self):
        impostor = GuestLanguage(
            name="pylite",
            comment_prefix=";",
            engine_factory=lambda *a: None,
            quote_literal=repr,
        )
        with pytest.raises(ReproError):
            register_language(impostor)
        # ...and the registry stays usable afterwards.
        assert languages() == ["pylite"]

    def test_conflict_detected_even_before_first_lookup(self):
        # Regression: registering an impostor under a builtin name
        # *before* any get_language()/languages() call used to succeed
        # (builtins load lazily) and then poison every later lookup,
        # which would raise "already registered" from _load_builtins.
        # register_language now loads the builtins first.
        import sys

        from repro.api import language as language_module

        saved_registry = dict(_REGISTRY)
        module_names = ["repro.interpreters.pylite.language"]
        saved_modules = {n: sys.modules.pop(n) for n in module_names if n in sys.modules}
        _REGISTRY.clear()
        language_module._builtins_loaded = False
        try:
            impostor = GuestLanguage(
                name="pylite",
                comment_prefix=";",
                engine_factory=lambda *a: None,
                quote_literal=repr,
            )
            with pytest.raises(ReproError):
                register_language(impostor)
            assert languages() == ["pylite"]
        finally:
            _REGISTRY.clear()
            _REGISTRY.update(saved_registry)
            sys.modules.update(saved_modules)
            language_module._builtins_loaded = True

    def test_third_language_is_one_registration_away(self):
        toy = GuestLanguage(
            name="toylang",
            comment_prefix=";;",
            engine_factory=lambda *a: None,
            quote_literal=lambda s: "<" + s + ">",
        )
        register_language(toy)
        try:
            assert get_language("toylang") is toy
            assert "toylang" in languages()
            assert toy.declare_string("s", "ab") == "s = sym_string(<ab>)"
            assert toy.declare_int("n", 3, 0, 9) == "n = sym_int(3, 0, 9)"
            assert toy.loc("a\n;; comment\n\nb\n") == 2
        finally:
            del _REGISTRY["toylang"]


class TestQuoting:
    # MiniPy registers no language; the double-quoted escaper is the
    # quoter it used, and its lexer must read it back.
    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_minipy_literal_round_trips_through_lexer(self, text):
        literal = escape_double_quoted(text)
        tokens = tokenize(f"x = {literal}\n")
        values = [t.value for t in tokens if t.kind == "str"]
        assert values == [text]

    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_pylite_literal_round_trips_through_ast(self, text):
        # PyLite is parsed by CPython's ast, so the literal must read
        # back identically under Python's own literal rules.
        import ast

        literal = get_language("pylite").quote_literal(text)
        assert ast.literal_eval(literal) == text

    def test_loc_uses_language_comment_prefix(self):
        assert get_language("pylite").loc("a = 1\n# c\n\nb = 2\n") == 2

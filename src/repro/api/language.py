"""The GuestLanguage plugin protocol and registry.

A :class:`GuestLanguage` bundles everything the toolchain needs to know
about one guest language, so nothing else compares language names:

- an **engine factory** building the Chef-generated engine facade for a
  source text (``PyLiteEngine`` for the built-in PyLite); the facade
  also replays generated tests in the vanilla reference interpreter,
- **driver codegen** for the Fig. 7 symbolic-test API: guest string
  literal quoting and ``sym_string`` / ``sym_int`` input declarations,
- **comment prefix** / LoC rules (Table 3 accounting).

Built-in languages register themselves from
``repro/interpreters/<lang>/language.py``; those modules are the only
place a language name may be special-cased.  Everything else goes
through :func:`get_language`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.errors import ReproError


class UnknownLanguageError(ReproError):
    """No :class:`GuestLanguage` is registered under the given name."""


@dataclass(frozen=True)
class GuestLanguage:
    """One guest language, as the engine toolchain sees it."""

    #: registry key ("pylite", ...).
    name: str
    #: line-comment prefix, used by LoC accounting (Table 3).
    comment_prefix: str
    #: ``engine_factory(source, config, solver)`` → engine facade
    #: exposing ``run() -> RunResult``, ``make_chef()``, ``replay(case)``,
    #: ``coverage(suite)`` and ``exception_name(type_id)``.
    engine_factory: Callable[..., Any]
    #: render a host string as a guest-language string literal.
    quote_literal: Callable[[str], str]
    #: human-oriented one-liner for docs and error messages.
    description: str = ""

    # -- engine construction -------------------------------------------------

    def create_engine(self, source: str, config=None, solver=None):
        """Build the Chef-generated symbolic execution engine."""
        return self.engine_factory(source, config, solver)

    # -- symbolic-test driver codegen (Fig. 7) -------------------------------

    def declare_string(self, name: str, seed: str) -> str:
        """Driver statement declaring a symbolic string input."""
        return f"{name} = sym_string({self.quote_literal(seed)})"

    def declare_int(self, name: str, seed: int, lo: int, hi: int) -> str:
        """Driver statement declaring a symbolic integer input."""
        return f"{name} = sym_int({seed}, {lo}, {hi})"

    # -- source accounting ---------------------------------------------------

    def loc(self, source: str) -> int:
        """Non-blank, non-comment lines of guest source (cloc stand-in)."""
        from repro.symtest.coverage import count_loc

        return count_loc(source, comment_prefix=self.comment_prefix)


def escape_double_quoted(text: str) -> str:
    """Render ``text`` as a double-quoted literal with ``\\\\``/``\\"``
    escapes and ``\\xNN`` for non-printables — a valid Python literal,
    so the PyLite frontend reads it back unchanged.  Language modules
    alias or wrap this so the escape rules live in one place."""
    chars = []
    for c in text:
        o = ord(c)
        if c == "\\":
            chars.append("\\\\")
        elif c == '"':
            chars.append('\\"')
        elif 32 <= o < 127:
            chars.append(c)
        else:
            chars.append(f"\\x{o:02x}")
    return '"' + "".join(chars) + '"'


_REGISTRY: Dict[str, GuestLanguage] = {}
_BUILTIN_MODULES = ("repro.interpreters.pylite.language",)
_builtins_loaded = False


def register_language(language: GuestLanguage) -> GuestLanguage:
    """Add a language to the registry; returns it for chaining.

    Re-registering the same object is a no-op (module re-imports);
    registering a *different* object under a taken name is an error —
    shadowing a language silently would change engine behaviour at a
    distance.  Builtins are loaded first so that a conflicting name
    fails here, at the registration site, rather than poisoning every
    later lookup (a builtin module currently mid-import is already in
    ``sys.modules``, so the recursion terminates).
    """
    _load_builtins()
    existing = _REGISTRY.get(language.name)
    if existing is not None and existing != language:
        raise ReproError(f"guest language {language.name!r} is already registered")
    _REGISTRY[language.name] = language
    return language


def _load_builtins() -> None:
    # get_language() runs per symbolic-input declaration, so this must
    # be a single branch after the first load.
    global _builtins_loaded
    if _builtins_loaded:
        return
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def get_language(name) -> GuestLanguage:
    """Look up a registered language by name (or pass one through)."""
    if isinstance(name, GuestLanguage):
        return name
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(repr(n) for n in languages())
        raise UnknownLanguageError(
            f"unknown guest language {name!r}; registered languages: {known}"
        ) from None


def languages() -> List[str]:
    """Sorted names of every registered guest language."""
    _load_builtins()
    return sorted(_REGISTRY)

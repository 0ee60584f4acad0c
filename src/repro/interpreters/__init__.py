"""Guest languages prepared for Chef.

Each language lives in its own subpackage and registers a
:class:`~repro.api.language.GuestLanguage` from its ``language.py``.
The built-in one is PyLite (:mod:`repro.interpreters.pylite`), a Python
subset lowered straight to LVM bytecode by :mod:`repro.frontend` and
replayed under CPython.

:mod:`repro.interpreters.minipy` and :mod:`repro.interpreters.minilua`
hold the host toolchains of the paper's two case studies (lexer,
parser, bytecode compiler, reference host VM).  They register no
language: running them symbolically needs their interpreters written
in Clay, which this tree does not have.
"""

"""Guest languages prepared for Chef.

Each language lives in its own subpackage and registers a
:class:`~repro.api.language.GuestLanguage` from its ``language.py``.
The built-in one is PyLite (:mod:`repro.interpreters.pylite`), a Python
subset lowered straight to LVM bytecode by :mod:`repro.frontend` and
replayed under CPython.

:mod:`repro.interpreters.minipy` holds the host toolchain of the
paper's Python case study (lexer, parser, bytecode compiler, reference
host VM).  It registers no language: running it symbolically needs
its interpreter written in Clay, which this tree does not have.
"""

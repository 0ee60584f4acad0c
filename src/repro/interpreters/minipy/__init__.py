"""MiniPy host toolchain: the Python subset of the paper's CPython case
study (§5.1), kept as a lexer, parser, bytecode compiler and reference
host VM.

There is no Chef engine and no registered
:class:`~repro.api.language.GuestLanguage` for MiniPy: symbolic runs
need the interpreter written in Clay, which this tree does not have.
"""

from repro.interpreters.minipy.bytecode import CodeObject, CompiledModule, Op
from repro.interpreters.minipy.compiler import compile_source
from repro.interpreters.minipy.hostvm import HostVM, MiniPyException

__all__ = [
    "CodeObject",
    "CompiledModule",
    "HostVM",
    "MiniPyException",
    "Op",
    "compile_source",
]

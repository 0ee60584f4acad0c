"""MiniLua host toolchain: the Lua subset of the paper's Lua case study
(§5.2), kept as a lexer, parser, bytecode compiler and reference host VM.

As in the paper's port, numbers are integers.  Like MiniPy, MiniLua has
no Chef engine and no registered
:class:`~repro.api.language.GuestLanguage`: symbolic runs need the
interpreter written in Clay, which this tree does not have.
"""

from repro.interpreters.minilua.bytecode import LuaCode, LuaModule, LOp
from repro.interpreters.minilua.compiler import compile_lua
from repro.interpreters.minilua.hostvm import LuaHostVM

__all__ = [
    "LOp",
    "LuaCode",
    "LuaHostVM",
    "LuaModule",
    "compile_lua",
]

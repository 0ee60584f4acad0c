"""PyLite: a restricted-but-real Python subset compiled by repro.frontend.

Unlike the paper's guests — interpreters that *interpret* guest
bytecode on the LVM — PyLite source is lowered straight to LVM bytecode
(ast → TAC → CFG → LIR).  Importing :mod:`.language` registers it.
"""

"""Line-coverage helpers (the paper's coverage/luacov stand-in)."""

from __future__ import annotations

from typing import Set


def coverage_percent(covered: Set[int], coverable_count: int) -> float:
    """Line coverage as a percentage (0..100)."""
    if coverable_count <= 0:
        return 0.0
    return 100.0 * len(covered) / coverable_count


def count_loc(source: str, *, comment_prefix: str) -> int:
    """Non-blank, non-comment source lines (the paper uses cloc).

    ``comment_prefix`` is keyword-only and has no default on purpose:
    the prefix belongs to the :class:`~repro.api.language.GuestLanguage`
    under measurement (``language.loc(source)`` passes it), and a silent
    ``"#"`` default would miscount any language with another comment
    syntax at call sites that forgot to pass one.
    """
    count = 0
    for line in source.split("\n"):
        stripped = line.strip()
        if stripped and not stripped.startswith(comment_prefix):
            count += 1
    return count

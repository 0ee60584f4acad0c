"""Basic-block recovery over TAC functions.

The emitter does not walk the flat TAC list directly: it consumes the CFG,
placing one LVM label per block leader and wiring jumps block-to-block, so
the block structure computed here *is* the control flow the LVM executes.
Golden tests pin block boundaries and the edge list for small programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.frontend.tac import CJMP, JMP, RAISE, RET, TacFunction


@dataclass
class BasicBlock:
    """Half-open instruction range ``[start, end)`` with successor leaders."""

    index: int
    start: int
    end: int
    successors: Tuple[int, ...] = field(default_factory=tuple)


@dataclass
class Cfg:
    """Blocks in leader order; ``block_of`` maps a leader index to a block."""

    function: str
    blocks: List[BasicBlock]
    block_of: Dict[int, BasicBlock]

    def edge_list(self) -> List[Tuple[int, int]]:
        """(block index, successor block index) pairs, in block order."""
        edges: List[Tuple[int, int]] = []
        for block in self.blocks:
            for leader in block.successors:
                edges.append((block.index, self.block_of[leader].index))
        return edges

    def dump(self) -> str:
        lines = [f"cfg {self.function}: {len(self.blocks)} blocks"]
        for block in self.blocks:
            succ = ", ".join(
                f"B{self.block_of[s].index}" for s in block.successors
            )
            lines.append(
                f"  B{block.index} [{block.start}..{block.end}) -> {succ or '-'}"
            )
        return "\n".join(lines)


def build_cfg(fn: TacFunction) -> Cfg:
    """Leader analysis: entry, every jump target, every post-terminator."""
    n = len(fn.instrs)
    leaders = {0}
    for i, instr in enumerate(fn.instrs):
        op = instr.op
        if op == JMP:
            leaders.add(instr.extra)
        elif op == CJMP:
            leaders.add(instr.b)
            leaders.add(instr.extra)
        elif op != RET and op != RAISE:
            continue
        leaders.add(i + 1)  # a terminator or branch ends its block
    ordered = sorted(leader for leader in leaders if leader < n)
    blocks: List[BasicBlock] = []
    block_of: Dict[int, BasicBlock] = {}
    for bi, start in enumerate(ordered):
        end = ordered[bi + 1] if bi + 1 < len(ordered) else n
        last = fn.instrs[end - 1]
        if last.op == JMP:
            succ: Tuple[int, ...] = (last.extra,)
        elif last.op == CJMP:
            succ = (last.b, last.extra)
        elif last.op in (RET, RAISE):
            succ = ()
        else:
            succ = (end,) if end < n else ()
        block = BasicBlock(bi, start, end, succ)
        blocks.append(block)
        block_of[start] = block
    return Cfg(function=fn.name, blocks=blocks, block_of=block_of)


__all__ = ["BasicBlock", "Cfg", "build_cfg"]

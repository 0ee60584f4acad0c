"""Crash-consistent campaign checkpoints: persist frontier + tree + suite.

A checkpoint is everything a new process needs to continue an
interrupted Chef run and finish the *identical path multiset* (for
exhaustive runs — exploration order after resume is not preserved, the
set of reachable paths is):

- the program image and :class:`~repro.chef.options.ChefConfig`,
- the high-level execution tree and CFG (pickled wholesale, so the
  node ids anchoring pending snapshots stay valid across the resume),
- the test suite so far (path constraints stripped — they share
  interned expression structure that must not leak across processes;
  resumed streams re-emit the checkpointed path events from these),
- the pending frontier as batch-encoded
  :class:`~repro.parallel.snapshot.StateSnapshot` images, and
- the strategy RNG state and run counters.

Solver state (each solver's recent models) is not persisted: a resumed
run starts without it, which costs solver work but never changes a
verdict.  Torn frames are counted here; the engine logs one
``repro.checkpoint`` warning when it resumes past them.

On-disk format: length-prefixed pickled frames, each
``(MAGIC, kind, payload)``.  Saves go through a temp file + ``fsync`` +
atomic rename, so a crash mid-save leaves the previous checkpoint
intact; loads recover the longest valid frame prefix of a torn file
and count the damage under
``checkpoint.corrupt_frames_skipped``.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

MAGIC = "repro-ckpt/1"
CHECKPOINT_NAME = "campaign.ckpt"

_LEN = struct.Struct(">Q")


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_NAME)


@dataclass
class Checkpoint:
    """In-memory image of one persisted campaign checkpoint."""

    config: Any  # ChefConfig (fault_plan stripped)
    namespace: str
    program_blob: bytes
    rng_state: Any
    ll_paths: int
    tree: Any  # HighLevelTree
    cfg: Any  # HighLevelCfg
    timeline: List[Tuple[float, int, int]] = field(default_factory=list)
    cases: List[Any] = field(default_factory=list)  # TestCase, constraints stripped
    frontier: List[Any] = field(default_factory=list)  # StateSnapshot
    #: torn/corrupt frames skipped while loading (0 for a clean file).
    corrupt_frames_skipped: int = 0


def _portable_case(case) -> Any:
    """Strip the non-portable constraint chain off a test case."""
    if getattr(case, "path_constraints", None) is None:
        return case
    return dataclasses.replace(case, path_constraints=None)


def save_checkpoint(
    directory: str,
    *,
    config,
    namespace: str,
    program_blob: bytes,
    rng_state,
    ll_paths: int,
    tree,
    cfg,
    timeline,
    cases,
    frontier,
    faults=None,
) -> str:
    """Atomically write ``<directory>/campaign.ckpt``; returns its path.

    Frames are written smallest-scope first (meta, tree, cases,
    frontier) so a torn tail costs the newest data, never the run
    identity.  ``faults`` is a chaos-test injector whose
    ``maybe_truncate`` hook fires after the rename (to exercise the
    torn-tail loader); production passes None.
    """
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory)
    tmp = path + ".tmp"
    config = dataclasses.replace(config, fault_plan=None)
    frames = [
        (
            "meta",
            {
                "config": config,
                "namespace": namespace,
                "program_blob": program_blob,
                "rng_state": rng_state,
                "ll_paths": ll_paths,
                "timeline": list(timeline),
            },
        ),
        ("tree", {"tree": tree, "cfg": cfg}),
        ("cases", [_portable_case(c) for c in cases]),
        ("frontier", list(frontier)),
    ]
    with open(tmp, "wb") as fh:
        for kind, payload in frames:
            blob = pickle.dumps((MAGIC, kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
            fh.write(_LEN.pack(len(blob)) + blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    if faults is not None:
        faults.maybe_truncate(path)
    return path


def load_checkpoint(path: str) -> Checkpoint:
    """Load a checkpoint, recovering the longest valid frame prefix.

    A torn or corrupt frame ends the scan (frames are dependent in
    order); everything read up to it is returned, with the damage
    counted in ``corrupt_frames_skipped``.
    Raises ``FileNotFoundError`` if there is no checkpoint and
    ``ValueError`` if not even the meta frame is recoverable.
    """
    sections: Dict[str, Any] = {}
    skipped = 0
    with open(path, "rb") as fh:
        while True:
            header = fh.read(_LEN.size)
            if not header:
                break
            if len(header) < _LEN.size:
                skipped += 1
                break
            (length,) = _LEN.unpack(header)
            blob = fh.read(length)
            if len(blob) < length:
                skipped += 1
                break
            try:
                record = pickle.loads(blob)
            except Exception:
                skipped += 1
                break
            if (
                not isinstance(record, tuple)
                or len(record) != 3
                or record[0] != MAGIC
            ):
                skipped += 1
                break
            _magic, kind, payload = record
            sections[kind] = payload
    meta = sections.get("meta")
    if meta is None:
        raise ValueError(f"checkpoint {path!r} has no recoverable meta frame")
    tree_section = sections.get("tree") or {}
    return Checkpoint(
        config=meta["config"],
        namespace=meta["namespace"],
        program_blob=meta["program_blob"],
        rng_state=meta["rng_state"],
        ll_paths=meta["ll_paths"],
        timeline=meta["timeline"],
        tree=tree_section.get("tree"),
        cfg=tree_section.get("cfg"),
        cases=sections.get("cases", []),
        frontier=sections.get("frontier", []),
        corrupt_frames_skipped=skipped,
    )


def has_checkpoint(directory: str) -> bool:
    return os.path.exists(checkpoint_path(directory))

"""Checkpoint/resume under crashes and torn writes.

The headline acceptance scenario: a campaign SIGKILLed between
checkpoints resumes to the *identical* ``TestCaseFound`` multiset a
crash-free run produces.  The torn-write tests cut the checkpoint file
at every byte offset of its final frame and require longest-valid-
prefix recovery with the damage counted.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import signal
import struct
import time
from collections import Counter

import pytest

from repro.api.events import CheckpointSaved, RunFinished, TestCaseFound
from repro.api.session import SymbolicSession
from repro.bench.workloads import branchy_source
from repro.chef.checkpoint import (
    checkpoint_path,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.chef.options import ChefConfig
from repro.chef.testcase import TestCase
from repro.clay import compile_program
from repro.faults import FaultPlan

_LEN = struct.Struct(">Q")


def _case_key(case):
    return (
        tuple(sorted((k, tuple(v)) for k, v in case.inputs.items())),
        case.status,
        case.hl_path_signature,
        tuple(case.output),
    )


def _found_multiset(events):
    return Counter(
        _case_key(e.case) for e in events if isinstance(e, TestCaseFound)
    )


def _run_to_events(depth, **overrides):
    program = compile_program(branchy_source(depth)).program
    session = SymbolicSession.from_program(
        program, ChefConfig(time_budget=120.0, **overrides)
    )
    return session, list(session.events())


def _frame_offsets(path):
    """Byte offset of each frame header in a checkpoint file."""
    offsets = []
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        while fh.tell() < size:
            offsets.append(fh.tell())
            (length,) = _LEN.unpack(fh.read(_LEN.size))
            fh.seek(length, os.SEEK_CUR)
    return offsets, size


class TestCheckpointCadence:
    def test_serial_run_emits_and_persists_checkpoints(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpt")
        session, events = _run_to_events(
            4, workers=1, checkpoint_dir=ckpt_dir, checkpoint_every=4
        )
        saves = [e for e in events if isinstance(e, CheckpointSaved)]
        assert saves, "checkpoint cadence produced no CheckpointSaved events"
        assert has_checkpoint(ckpt_dir)
        assert session.metrics().get("checkpoint.saves") == len(saves)
        assert session.result.ll_paths == 16

    def test_parallel_abandon_then_resume_identical_multiset(self, tmp_path):
        baseline, base_events = _run_to_events(4, workers=2)
        ckpt_dir = str(tmp_path / "ckpt")
        program = compile_program(branchy_source(4)).program
        session = SymbolicSession.from_program(
            program,
            ChefConfig(
                time_budget=120.0, workers=2,
                checkpoint_dir=ckpt_dir, checkpoint_every=1,
            ),
        )
        stream = session.events()
        for event in stream:
            if isinstance(event, CheckpointSaved):
                break
        stream.close()  # abandon the campaign mid-run
        assert has_checkpoint(ckpt_dir)

        resumed = SymbolicSession.resume(ckpt_dir, workers=2)
        resumed_events = list(resumed.events())
        assert _found_multiset(resumed_events) == _found_multiset(base_events)
        assert resumed.result.ll_paths == baseline.result.ll_paths == 16
        assert resumed.metrics().get("checkpoint.resumes") == 1


def _campaign_child(ckpt_dir: str, depth: int) -> None:
    program = compile_program(branchy_source(depth)).program
    session = SymbolicSession.from_program(
        program,
        ChefConfig(
            time_budget=120.0, workers=1,
            checkpoint_dir=ckpt_dir, checkpoint_every=2,
        ),
    )
    session.run()


class TestSigkillResume:
    def test_sigkilled_campaign_resumes_to_identical_multiset(self, tmp_path):
        depth = 5  # 32 paths, checkpoint every 2: plenty of kill window
        baseline, base_events = _run_to_events(depth, workers=1)

        ckpt_dir = str(tmp_path / "ckpt")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_campaign_child, args=(ckpt_dir, depth))
        child.start()
        try:
            deadline = time.monotonic() + 60.0
            while not has_checkpoint(ckpt_dir):
                assert child.is_alive() or has_checkpoint(ckpt_dir), (
                    "campaign child died before writing a checkpoint"
                )
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join(timeout=30.0)
        assert child.exitcode == -signal.SIGKILL or child.exitcode == 0

        # Resume from the checkpoint *file* path (directories work too).
        resumed = SymbolicSession.resume(checkpoint_path(ckpt_dir))
        resumed_events = list(resumed.events())
        assert isinstance(resumed_events[-1], RunFinished)
        assert _found_multiset(resumed_events) == _found_multiset(base_events)
        assert resumed.result.ll_paths == baseline.result.ll_paths == 2 ** depth
        assert resumed.metrics().get("checkpoint.resumes") == 1


def _tiny_checkpoint(directory, frontier=(b"snap-a", b"snap-b")):
    cases = [
        TestCase(test_id=0, inputs={"b0": [97]}, status="ok", output=[1]),
        TestCase(test_id=1, inputs={"b0": [0]}, status="ok", output=[0]),
    ]
    return save_checkpoint(
        str(directory),
        config=ChefConfig(),
        namespace="t0",
        program_blob=b"program-image",
        rng_state=("synthetic", 1),
        ll_paths=2,
        tree="tree-payload",
        cfg="cfg-payload",
        timeline=[(0.1, 1, 1)],
        cases=cases,
        frontier=list(frontier),
    )


class TestTornCheckpoint:
    def test_truncate_at_every_offset_of_final_frame(self, tmp_path):
        """Longest-valid-prefix recovery at every possible tear point."""
        path = _tiny_checkpoint(tmp_path / "full")
        offsets, size = _frame_offsets(path)
        assert len(offsets) == 4  # meta, tree, cases, frontier
        blob = open(path, "rb").read()
        final_start = offsets[-1]
        torn_path = tmp_path / "torn.ckpt"
        for cut in range(final_start, size):
            torn_path.write_bytes(blob[:cut])
            ckpt = load_checkpoint(str(torn_path))
            assert ckpt.namespace == "t0"
            assert ckpt.ll_paths == 2
            assert ckpt.tree == "tree-payload"
            assert [c.test_id for c in ckpt.cases] == [0, 1]
            assert ckpt.frontier == [], f"cut at {cut} resurrected the frontier"
            # A cut exactly on the frame boundary looks like a clean
            # three-frame file; any cut inside the frame is damage.
            assert ckpt.corrupt_frames_skipped == (0 if cut == final_start else 1)

    def test_truncating_earlier_frames_loses_only_their_sections(self, tmp_path):
        path = _tiny_checkpoint(tmp_path / "full")
        offsets, _size = _frame_offsets(path)
        blob = open(path, "rb").read()
        torn_path = tmp_path / "torn.ckpt"
        # Mid-cases tear: tree survives, cases and frontier are lost.
        torn_path.write_bytes(blob[: offsets[3] - 1])
        ckpt = load_checkpoint(str(torn_path))
        assert ckpt.tree == "tree-payload"
        assert ckpt.cases == [] and ckpt.frontier == []
        assert ckpt.corrupt_frames_skipped == 1
        # Mid-meta tear: nothing recoverable -> hard error.
        torn_path.write_bytes(blob[: offsets[1] - 1])
        with pytest.raises(ValueError):
            load_checkpoint(str(torn_path))

    def test_garbage_frame_ends_scan_without_crashing(self, tmp_path):
        path = _tiny_checkpoint(tmp_path / "full")
        garbage = b"not a pickle"
        with open(path, "ab") as fh:
            fh.write(_LEN.pack(len(garbage)) + garbage)
        ckpt = load_checkpoint(path)
        assert ckpt.frontier == [b"snap-a", b"snap-b"]
        assert ckpt.corrupt_frames_skipped == 1

    def test_wrong_magic_frame_is_rejected(self, tmp_path):
        path = _tiny_checkpoint(tmp_path / "full")
        rogue = pickle.dumps(("other-magic/9", "frontier", [b"evil"]))
        with open(path, "ab") as fh:
            fh.write(_LEN.pack(len(rogue)) + rogue)
        ckpt = load_checkpoint(path)
        assert ckpt.frontier == [b"snap-a", b"snap-b"]
        assert ckpt.corrupt_frames_skipped == 1

    def test_fault_injected_torn_save_still_resumes(self, tmp_path, caplog):
        """Every save torn by the plan; resume recovers a valid prefix."""
        ckpt_dir = str(tmp_path / "ckpt")
        session, events = _run_to_events(
            3,
            workers=1,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=2,
            fault_plan=FaultPlan(truncate_tail_bytes=7, truncate_writes=99),
        )
        assert session.result.ll_paths == 8  # tearing never hurt the run
        with caplog.at_level(logging.WARNING, logger="repro.checkpoint"):
            resumed = SymbolicSession.resume(ckpt_dir)
            resumed_events = list(resumed.events())
        assert isinstance(resumed_events[-1], RunFinished)
        metrics = resumed.metrics()
        assert metrics.get("checkpoint.resumes") == 1
        assert metrics.get("checkpoint.corrupt_frames_skipped", 0) >= 1
        (message,) = [r.getMessage() for r in caplog.records if r.name == "repro.checkpoint"]
        skipped = metrics["checkpoint.corrupt_frames_skipped"]
        assert message == f"resumed past {skipped} torn checkpoint frame(s)"
        # Whatever the tear cost, the resumed multiset never exceeds the
        # crash-free one.
        full = _found_multiset(events)
        assert not (_found_multiset(resumed_events) - full)

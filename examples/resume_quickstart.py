"""Checkpoint/resume quickstart: survive a mid-campaign crash.

Runs a branchy Clay guest with ``checkpoint_dir`` set, abandons the
campaign partway through (standing in for a crash or SIGKILL), then
resumes from the checkpoint and shows the resumed run finishing the
*identical* test-case multiset a crash-free run produces:

- the engine checkpoints the pending frontier, the high-level tree
  and the suite so far every ``checkpoint_every`` paths (serial) or
  rounds (parallel);
- saves are torn-write safe (temp file + fsync + atomic rename; loads
  recover the longest valid frame prefix and count the damage under
  ``checkpoint.corrupt_frames_skipped``);
- ``Session.resume(path)`` re-emits the checkpointed path events and
  explores the rest, so downstream consumers see one complete stream.

Run:  python examples/resume_quickstart.py
"""

import tempfile
from collections import Counter

from repro import CheckpointSaved, ChefConfig, Session, TestCaseFound
from repro.bench.workloads import branchy_source
from repro.clay import compile_program


def case_key(case):
    return (
        tuple(sorted((k, tuple(v)) for k, v in case.inputs.items())),
        case.status,
        case.hl_path_signature,
    )


def main() -> None:
    compiled = compile_program(branchy_source(5))  # 32 feasible paths

    # Baseline: a crash-free run, for the equality check at the end.
    baseline = Session.from_program(
        compiled.program, ChefConfig(time_budget=30.0)
    )
    baseline_cases = Counter(
        case_key(e.case)
        for e in baseline.events()
        if isinstance(e, TestCaseFound)
    )
    print(f"crash-free run: {baseline.result.ll_paths} paths")

    with tempfile.TemporaryDirectory() as ckpt_dir:
        # Doomed campaign: abandon it right after the first checkpoint
        # lands (a SIGKILL between checkpoints plays out the same way).
        doomed = Session.from_program(
            compiled.program,
            ChefConfig(
                time_budget=30.0, checkpoint_dir=ckpt_dir, checkpoint_every=4
            ),
        )
        stream = doomed.events()
        seen = 0
        for event in stream:
            if isinstance(event, TestCaseFound):
                seen += 1
            if isinstance(event, CheckpointSaved):
                print(
                    f"checkpointed at {event.path} "
                    f"({event.frontier} frontier states, {event.cases} cases)"
                )
                break
        stream.close()
        print(f"campaign 'crashed' after {seen} test cases")

        # Resume: the stream replays the checkpointed cases and then
        # finishes the frontier — one complete, identical multiset.
        resumed = Session.resume(ckpt_dir)
        resumed_cases = Counter(
            case_key(e.case)
            for e in resumed.events()
            if isinstance(e, TestCaseFound)
        )
        print(
            f"resumed run: {resumed.result.ll_paths} paths, "
            f"checkpoint.resumes="
            f"{resumed.metrics().get('checkpoint.resumes')}"
        )
        assert resumed_cases == baseline_cases, "multisets must match"
        print("resumed test-case multiset == crash-free multiset")


if __name__ == "__main__":
    main()

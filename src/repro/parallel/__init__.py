"""Sharded parallel exploration across worker processes.

The frontier of pending states is read-mostly by design (share-structure
``ConstraintSet`` chains; each solver keeps its own recent models), so it
shards: a coordinator pops batches of pending states, ships them to
persistent pool workers as batch-encoded portable snapshots through a
shared work-stealing task queue, and deterministically merges the
returned path records and new pending states.  See
``docs/architecture.md`` ("Parallel exploration").
"""

from repro.parallel.coordinator import (
    ExploreResult,
    ParallelExplorer,
    PathRecord,
    path_set,
)
from repro.parallel.pool import (
    WorkerCrashError,
    WorkerPool,
    acquire_pool,
    close_shared_pools,
    release_pool,
    shared_worker_pool,
)
from repro.parallel.snapshot import (
    SnapshotDecoder,
    StateSnapshot,
    boot_snapshot,
    path_record_of,
    restore_state,
    snapshot_state,
    snapshot_states,
)

__all__ = [
    "ExploreResult",
    "ParallelExplorer",
    "PathRecord",
    "SnapshotDecoder",
    "StateSnapshot",
    "WorkerCrashError",
    "WorkerPool",
    "acquire_pool",
    "boot_snapshot",
    "close_shared_pools",
    "path_record_of",
    "path_set",
    "release_pool",
    "restore_state",
    "shared_worker_pool",
    "snapshot_state",
    "snapshot_states",
]

"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class ChefConfig:
    """Configuration of one Chef run."""

    #: "random" (baseline), "cupa-path" (§3.3) or "cupa-cov" (§3.4).
    strategy: str = "cupa-path"
    #: RNG seed for the state-selection strategy.
    seed: int = 0
    #: wall-clock budget for the whole run, in seconds.
    time_budget: float = 10.0
    #: stop after this many completed low-level paths (0 = unlimited).
    max_ll_paths: int = 0
    #: stop after this many distinct high-level paths (0 = unlimited).
    max_hl_paths: int = 0
    #: per-path executed instruction budget (hang proxy; paper uses 60 s).
    path_instr_budget: int = 400_000
    #: solver search budget in steps.
    solver_budget: int = 12_000
    #: de-emphasis factor for earlier forks in coverage CUPA (§3.4).
    fork_weight_p: float = 0.75
    #: sample interval (in completed ll paths) for the Fig. 10 time series.
    sample_every: int = 1
    #: worker processes for frontier exploration (1 = classic in-process
    #: loop; >1 shards pending states across a parallel worker pool).
    workers: int = 1
    #: states shipped per worker per round in parallel mode.
    worker_batch: int = 8
    #: record tracing spans (Chrome-trace export, per-phase histograms).
    #: Metrics counters are always on; this gates only the tracer.
    trace: bool = False
    #: directory for crash-consistent campaign checkpoints (None = off).
    #: A SIGKILLed run resumes from ``<dir>/campaign.ckpt`` via
    #: ``Session.resume`` and completes the identical path multiset.
    checkpoint_dir: Optional[str] = None
    #: checkpoint cadence, in completed frontier rounds/paths.
    checkpoint_every: int = 4
    #: per-query wall-clock solver deadline in seconds (None = no
    #: deadline).  An over-deadline query returns *unknown* instead of
    #: hanging the run; counted under ``solver.deadline_unknowns``.
    solver_deadline_s: Optional[float] = None
    #: what to do with a pending state whose feasibility check came back
    #: unknown: "prune" drops it (sound for coverage, may miss paths),
    #: "feasible" optimistically activates it under its seed assignment.
    unknown_policy: str = "prune"
    #: deterministic fault-injection plan (:class:`repro.faults.FaultPlan`)
    #: for chaos tests; None or a no-op plan costs nothing.
    fault_plan: Optional[object] = None
    #: worker crashes blamed on one state before it is quarantined.
    quarantine_threshold: int = 3
    #: extra metadata carried into results (benchmarks stamp configs here).
    tags: Optional[Dict[str, str]] = None

"""Testing targets: little libraries written in the guest language.

Each target plays the role of one of the paper's evaluated packages
(Table 3): real guest source with input-dependent control flow and a
documented exception set.  The built-in targets are the PyLite scenario
pack (a parser, a state machine and a codec); they compile straight to
the LVM and run end-to-end.
"""

from repro.targets.registry import TargetPackage, all_targets, target_by_name

__all__ = ["TargetPackage", "all_targets", "target_by_name"]

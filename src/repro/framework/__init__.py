"""End-to-end theorem pipelines: system building (linking clients with
the lock object), the ``Correct``/``GCorrect``/Thm 15 checks, and the
Fig. 13-style effort reports."""

from repro.framework.build import ClientSystem, lock_counter_system
from repro.framework.theorems import (
    check_correct,
    check_gcorrect,
    check_idtrans,
    check_reachclose_all,
    check_theorem15,
    framework_steps,
)
from repro.framework.report import PassRow, format_table, per_pass_table

__all__ = [
    "ClientSystem",
    "lock_counter_system",
    "check_correct",
    "check_reachclose_all",
    "check_idtrans",
    "check_gcorrect",
    "check_theorem15",
    "framework_steps",
    "PassRow",
    "per_pass_table",
    "format_table",
]

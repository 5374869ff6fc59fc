"""The extended framework for x86-TSO and confined benign races
(Sec. 7.3, Fig. 3): the lock specification γ_lock, the racy TTAS
implementation π_lock, the contextual object simulation ``≼ᵒ`` and the
strengthened DRF-guarantee theorem (Lem. 16)."""

from repro.tso.lockspec import (
    DEFAULT_LOCK_ADDR,
    LOCK_SPEC_SOURCE,
    lock_spec,
    lock_spec_decl,
)
from repro.tso.lockimpl import lock_impl, lock_impl_decl
from repro.tso.counterobj import (
    DEFAULT_COUNTER_ADDR,
    counter_impl,
    counter_impl_decl,
    counter_spec,
    counter_spec_decl,
)
from repro.tso.objectsim import check_object_refinement
from repro.tso.drf_guarantee import (
    check_plain_drf_guarantee,
    check_strengthened_drf_guarantee,
)

__all__ = [
    "DEFAULT_LOCK_ADDR",
    "LOCK_SPEC_SOURCE",
    "lock_spec",
    "lock_spec_decl",
    "lock_impl",
    "lock_impl_decl",
    "DEFAULT_COUNTER_ADDR",
    "counter_spec",
    "counter_spec_decl",
    "counter_impl",
    "counter_impl_decl",
    "check_object_refinement",
    "check_plain_drf_guarantee",
    "check_strengthened_drf_guarantee",
]

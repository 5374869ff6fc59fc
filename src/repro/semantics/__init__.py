"""Global semantics: preemptive & non-preemptive execution, behaviours,
refinement, and data-race detection (Secs. 3.2, 3.3, 5 of the paper).
"""

from repro.semantics.world import Frame, GlobalContext, World
from repro.semantics.preemptive import PreemptiveSemantics
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.explore import (
    Behaviour,
    ExplorationLimit,
    StateGraph,
    behaviours,
    explore,
    program_behaviours,
)
from repro.semantics.refinement import (
    RefinementResult,
    Verdict,
    equivalent,
    refines,
    safe,
)
from repro.semantics.race import (
    RaceWitness,
    drf,
    find_race,
    npdrf,
    predict,
    race_and_behaviours,
)
from repro.semantics.por import AmpleReducer, default_reduce
from repro.semantics.parallel import (
    default_jobs,
    parallel_explore,
    parallel_find_race,
)
from repro.semantics.witness import (
    CaptureError,
    Schedule,
    ScheduleStep,
    WitnessRecord,
    capture_schedule,
    capture_walk,
    load_witness,
    record_abort,
    record_race,
    save_witness,
    semantics_for,
)
from repro.semantics.replay import (
    ReplayDivergence,
    ReplayResult,
    minimize_witness,
    replay_schedule,
    replay_witness,
)

__all__ = [
    "AmpleReducer",
    "default_reduce",
    "Frame",
    "World",
    "GlobalContext",
    "PreemptiveSemantics",
    "NonPreemptiveSemantics",
    "Behaviour",
    "StateGraph",
    "ExplorationLimit",
    "explore",
    "behaviours",
    "program_behaviours",
    "RefinementResult",
    "Verdict",
    "refines",
    "equivalent",
    "safe",
    "RaceWitness",
    "predict",
    "find_race",
    "race_and_behaviours",
    "drf",
    "npdrf",
    "default_jobs",
    "parallel_explore",
    "parallel_find_race",
    "CaptureError",
    "Schedule",
    "ScheduleStep",
    "WitnessRecord",
    "capture_schedule",
    "capture_walk",
    "record_race",
    "record_abort",
    "save_witness",
    "load_witness",
    "ReplayDivergence",
    "ReplayResult",
    "replay_schedule",
    "replay_witness",
    "minimize_witness",
    "semantics_for",
]

"""The footprint-preserving compositional simulation (Sec. 4) and its
whole-program consequences, as executable checkers."""

from repro.simulation.rg import Mu, fp_match, hg, inv, lg, rely
from repro.simulation.local import (
    LocalSimulationChecker,
    SimulationReport,
    SimulationStats,
)
from repro.simulation.reachclose import ReachCloseReport, check_reach_close
from repro.simulation.determinism import (
    DeterminismReport,
    check_determinism,
)
from repro.simulation.compose import (
    check_compositionality,
    check_drf_npdrf_equivalence,
    check_npdrf_preservation,
    check_semantics_equivalence,
)
from repro.simulation.wholeprog import (
    WholeProgramSimResult,
    check_simulation_and_flip,
    check_whole_program_simulation,
)
from repro.simulation.validate import (
    PassValidation,
    sample_args,
    validate_compilation,
    validate_pair,
)

__all__ = [
    "Mu",
    "fp_match",
    "inv",
    "hg",
    "lg",
    "rely",
    "LocalSimulationChecker",
    "SimulationReport",
    "SimulationStats",
    "ReachCloseReport",
    "check_reach_close",
    "DeterminismReport",
    "check_determinism",
    "check_compositionality",
    "check_npdrf_preservation",
    "check_semantics_equivalence",
    "check_drf_npdrf_equivalence",
    "WholeProgramSimResult",
    "check_whole_program_simulation",
    "check_simulation_and_flip",
    "PassValidation",
    "sample_args",
    "validate_compilation",
    "validate_pair",
]

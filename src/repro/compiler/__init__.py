"""CASCompCert: the mini-CompCert pipeline (the 12 passes of Fig. 11)."""

from repro.compiler.pipeline import (
    EXTRA_PASSES,
    PASSES,
    CompilationResult,
    Stage,
    compile_minic,
    id_trans,
    source_stage,
    stage_names,
)

__all__ = [
    "PASSES",
    "EXTRA_PASSES",
    "Stage",
    "CompilationResult",
    "compile_minic",
    "id_trans",
    "source_stage",
    "stage_names",
]

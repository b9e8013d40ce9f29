"""Exact verification of complex crystallographic monodromy data.

The package encodes vanishing-cycle diagrams of cyclically symmetric
parabolic cubic singularities, rebuilds their Picard-Lefschetz operators
in exact cyclotomic arithmetic, and checks that the induced affine action
on the dual of the kernel hyperplane is one of seven complex
crystallographic reflection groups.
"""

from .affine import (
    AffineError,
    AffineIsometry,
    CaseReport,
    DilationReport,
    DualFrame,
    dilation_check,
    maximal_root_check,
    reference_group,
    reference_names,
    verify_crystallographic,
)
from .classify import (
    ClassifyError,
    NotEquivariant,
    SymmetryCase,
    character_multiplicity,
    is_smoothable,
    kernel_characters,
    proj_rows,
    table_rows,
    verify_proj_row,
    verify_table_row,
)
from .cyclo import CycloField, CycloNum, GrammarError, clear_caches, parse_value, render_value
from .linalg import HermitianGram, ZLattice
from .monodromy import (
    CheckResult,
    Diagram,
    DiagramError,
    diagram,
    diagram_names,
    quotient_basis,
    verify_diagram,
)

__version__ = "0.1.0"

__all__ = [
    "AffineError",
    "AffineIsometry",
    "CaseReport",
    "CheckResult",
    "ClassifyError",
    "CycloField",
    "CycloNum",
    "Diagram",
    "DiagramError",
    "DilationReport",
    "DualFrame",
    "GrammarError",
    "HermitianGram",
    "NotEquivariant",
    "SymmetryCase",
    "ZLattice",
    "character_multiplicity",
    "clear_caches",
    "diagram",
    "diagram_names",
    "dilation_check",
    "is_smoothable",
    "kernel_characters",
    "maximal_root_check",
    "parse_value",
    "proj_rows",
    "quotient_basis",
    "reference_group",
    "reference_names",
    "render_value",
    "table_rows",
    "verify_crystallographic",
    "verify_diagram",
    "verify_proj_row",
    "verify_table_row",
]

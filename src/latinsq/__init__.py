"""Latin square prolongations and contractions.

A toolkit for growing and shrinking Latin squares (quasigroup Cayley
tables): enumerate transversals, disjoint transversal families, and
quasicomplete mappings; project them into new rows and columns to build
squares of higher order; and run the exact inverse contractions.  Comes
with a partial-square completion solver, seeded random generation, an
LSQ text format, and a CLI (`latinsq`).

The implementation is pure standard library.  See the individual
modules for the algorithmic details:

* latinsq.core           grids, validation, completion, generation, I/O
* latinsq.mappings       transversals and (quasi)complete mappings
* latinsq.constructions  prolongations and contractions
* latinsq.oracle         naive reference implementations for testing
* latinsq.cli            argparse front end
"""

from .constructions import (
    CellOrigin,
    ConstructionReport,
    contract_bruck,
    contract_except,
    feasible_contractions,
    prolong_belyavskaya,
    prolong_belyavskaya_gen,
    prolong_bruck,
    prolong_dd,
    prolong_dd_gen,
    prolong_disjoint,
    two_step,
)
from .core import (
    DomainError,
    GridError,
    InfeasibleError,
    LatinError,
    LatinSquare,
    PartialLatinSquare,
    ValidationIssue,
    ValidationReport,
    complete_partial,
    cyclic_square,
    format_lsq,
    is_latin,
    parse_lsq,
    parse_lsq_grid,
    permuted,
    random_square,
    validate,
)
from .mappings import (
    MappingRecord,
    Transversal,
    conjugated_mapping,
    count_disjoint_families,
    count_quasicomplete_mappings,
    count_transversals,
    find_disjoint_transversals,
    find_quasicomplete_mappings,
    find_transversals,
    iter_quasicomplete_mappings,
    iter_transversals,
    transversal_of,
)

__version__ = "0.1.0"

__all__ = [
    "CellOrigin",
    "ConstructionReport",
    "DomainError",
    "GridError",
    "InfeasibleError",
    "LatinError",
    "LatinSquare",
    "MappingRecord",
    "PartialLatinSquare",
    "Transversal",
    "ValidationIssue",
    "ValidationReport",
    "complete_partial",
    "conjugated_mapping",
    "contract_bruck",
    "contract_except",
    "count_disjoint_families",
    "count_quasicomplete_mappings",
    "count_transversals",
    "cyclic_square",
    "feasible_contractions",
    "find_disjoint_transversals",
    "find_quasicomplete_mappings",
    "find_transversals",
    "format_lsq",
    "is_latin",
    "iter_quasicomplete_mappings",
    "iter_transversals",
    "parse_lsq",
    "parse_lsq_grid",
    "permuted",
    "prolong_belyavskaya",
    "prolong_belyavskaya_gen",
    "prolong_bruck",
    "prolong_dd",
    "prolong_dd_gen",
    "prolong_disjoint",
    "random_square",
    "transversal_of",
    "two_step",
    "validate",
]

"""Exact root-system and Weyl-group toolkit.

Decides Levi-sphericality of Schubert varieties by the Coxeter-element
criterion, computes Demazure characters and their decompositions into
irreducible Levi characters, checks multiplicity-freeness, and runs
whole-group censuses with deterministic JSONL output.
"""

from .rootsys import (
    CartanType,
    InvalidCartanType,
    RootSystemSpec,
    build_root_system,
    parse_cartan_type,
    simple_root_in_weight_basis,
)
from .weyl import (
    CapExceeded,
    WeylElement,
    WordLetterError,
    classical_group_order,
    enumerate_group,
    from_word,
    identity,
    inverse,
    is_standard_coxeter,
    left_descents,
    length,
    longest_parabolic,
    multiply,
    reduced_word,
    simple_reflection,
    support,
)
from .sphericality import (
    ClassificationResult,
    LengthAdditivityError,
    LeviNotInDescents,
    classify,
    classify_toric,
)
from .characters import (
    CharacterBudgetExceeded,
    DecompositionEntry,
    MultiplicityCheck,
    NonDominantWeight,
    NotLeviCharacter,
    WeightPoly,
    Witness,
    decompose_demazure,
    decompose_levi,
    demazure_char,
    demazure_op,
    is_dominant,
    is_levi_dominant,
    is_multiplicity_free,
    levi_irreducible_char,
    reflect_weight,
    witness_search,
)
from .census import (
    CensusRecord,
    CensusSummary,
    CrossCheckReport,
    InconsistencyError,
    census_records,
    cross_check,
    fill_census,
    run_census,
    start_census,
)

__version__ = "0.1.0"

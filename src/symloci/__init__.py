"""symloci: exact computation of symmetry loci of rational maps on P^1.

The package certifies, with exact cyclotomic arithmetic, which finite
Moebius groups occur as automorphism groups of degree-d rational maps,
computes the dimensions of the corresponding loci in both the parameter
space and the moduli space, and constructs explicit maps realizing the
platonic rotation groups.
"""

from .aut import (
    AutReport,
    automorphism_type,
    discover_automorphisms,
    is_automorphism,
    verify_group_action,
)
from .cyclotomic import (
    Cyclotomic,
    ExactMatrix,
    NonSquare,
    euler_phi,
    rational_sqrt,
)
from .decomp import (
    EigenformReport,
    FormPair,
    decompose,
    decompose_map,
    eigenform_classify,
    gm_action,
    meets_ratd,
    recompose,
    recompose_map,
)
from .forms import (
    BinaryForm,
    Divisor,
    P1Point,
    RationalMap,
    distinct_common_roots_count,
    form_from_divisor,
    form_gcd,
    partial_derivatives,
    resultant_pair,
    substitute,
)
from .loci import (
    LocusReport,
    commuting_space_basis,
    cyclic_existence_and_dim,
    dihedral_dim,
    generic_member,
    stalk_eigenvalue,
    stalk_order,
)
from .moebius import (
    FiniteSubgroup,
    MoebiusMap,
    SL2Lift,
    classify_finite_subgroup,
    conjugate_map,
    degenerate_orbits,
    generate_closure,
    standard_subgroup,
)
from .platonic import (
    OrbitCharacterRow,
    RelevantPair,
    character_table,
    construct_symmetric_map,
    fiber_dimension,
    invariant_eigenvalue_check,
    invariant_locus_dimension,
    platonic_existence,
    relevant_divisors,
    relevant_pairs,
)

__all__ = [
    "AutReport",
    "BinaryForm",
    "Cyclotomic",
    "Divisor",
    "EigenformReport",
    "ExactMatrix",
    "FiniteSubgroup",
    "FormPair",
    "LocusReport",
    "MoebiusMap",
    "NonSquare",
    "OrbitCharacterRow",
    "P1Point",
    "RationalMap",
    "RelevantPair",
    "SL2Lift",
    "automorphism_type",
    "character_table",
    "classify_finite_subgroup",
    "commuting_space_basis",
    "conjugate_map",
    "construct_symmetric_map",
    "cyclic_existence_and_dim",
    "decompose",
    "decompose_map",
    "degenerate_orbits",
    "dihedral_dim",
    "discover_automorphisms",
    "distinct_common_roots_count",
    "eigenform_classify",
    "euler_phi",
    "fiber_dimension",
    "form_from_divisor",
    "form_gcd",
    "generate_closure",
    "generic_member",
    "gm_action",
    "invariant_eigenvalue_check",
    "invariant_locus_dimension",
    "is_automorphism",
    "meets_ratd",
    "partial_derivatives",
    "platonic_existence",
    "rational_sqrt",
    "recompose",
    "recompose_map",
    "relevant_divisors",
    "relevant_pairs",
    "resultant_pair",
    "stalk_eigenvalue",
    "stalk_order",
    "standard_subgroup",
    "substitute",
    "verify_group_action",
]

__version__ = "0.1.0"

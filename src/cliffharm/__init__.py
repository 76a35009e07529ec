"""Exact harmonic analysis on the Clifford groups CL(n).

Everything is computed over the Gaussian rationals: group arithmetic,
characters and decompositions, Gelfand-pair verdicts for the triple-product
pairs, explicit matrix models with exact intertwiner spaces, conjugation
orbits and spherical characters.
"""

from .exact import GaussianRational, gr, format_gaussian
from .elements import (
    CliffordElement,
    TripleElement,
    DegreeMismatchError,
    GuardError,
    element,
    identity,
    multiply,
    inverse,
    conjugate,
    parse_element,
    format_element,
)
from .characters import (
    IrrepLabel,
    ClassFunction,
    Decomposition,
    NotACharacterError,
    chi,
    rho,
    irreps,
    character_value,
    irrep_character,
    tensor_character,
    restrict_character,
    decompose,
    restricted_kronecker,
    conjugate_label,
    parse_label,
    format_label,
)
from .gelfand import (
    TripleIrrepLabel,
    GelfandReport,
    diagonal_invariant_dim,
    gelfand_check_characters,
    gelfand_check_biinvariant,
    spherical_character,
)
from .matrix_models import (
    IntertwinerBasis,
    FrobeniusContext,
    build_matrix_rep,
    intertwiner_space,
    matrix_coefficient_checks,
)
from .orbits import (
    PairOrbit,
    SphericalQuery,
    SphericalResult,
    enumerate_pair_orbits,
    predicted_orbit,
    spherical_value,
    spherical_closed_form,
    subset_sum_lemma,
    closed_vs_direct_grids,
)

__version__ = "0.1.0"

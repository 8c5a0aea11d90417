"""Harmonic analysis on spheres tiled by regular simplices.

The tiling of S^(n-1) by the n+1 faces of a regular simplex is generated
by a cyclic group of deck transformations sitting inside the symmetric
group S(n+1) < O(n).  This package computes the associated character
tables, branching multiplicities and selection rules for n = 2, 3, 4, and
constructs the explicit cyclic-periodic eigenmode bases on S^3.
"""

from .permgroup import (
    CharacterTable,
    ConsistencyError,
    CycleType,
    Partition,
    Permutation,
    character,
    character_table,
    coxeter_element,
    cycle_type,
    cyclic_character,
    cyclic_elements,
    full_cycle,
    partitions_of,
    trivial_multiplicity,
)
from .youngrep import (
    FixedSubspace,
    ReprMatrix,
    StandardTableau,
    fixed_subspace,
    generator_matrix,
    primed_rep_matrix,
    rep_matrix,
    standard_tableaux,
    tetrahedral_primed_generators,
    trivial_projector,
)
from .su2wigner import (
    Point4,
    SU2Element,
    WignerMatrix,
    q_conjugation,
    su2_character,
    su2_from_point,
    wigner_d,
    wigner_rows,
)
from .weylaction import (
    ClassCharacterRow,
    GroupOperator,
    WeylVector,
    act_on_coefficients,
    act_on_point,
    act_on_points,
    class_character,
    class_character_table,
    class_representatives,
    compose,
    diagonal_factors,
    operator_character,
    operator_factors,
    operator_matrices,
    operator_matrix,
    permutation_operator,
    reflection_operator,
    transposition_operators,
    weyl_vectors_s5,
)
from .reduction import (
    MultiplicityTable,
    O2Label,
    O3Label,
    RecursionReport,
    multiplicity_o3_s4,
    multiplicity_o4_s5,
    o2_multiplicity_table,
    o2_reduce,
    o3_multiplicity_table,
    lattice_count_o4,
    o4_multiplicity_table,
    periodic_count_o4,
    recursion_report,
)
from .modes import (
    ModeBasis,
    ModeDescription,
    SamplePoint,
    cyclic_projector,
    lower_dim_modes,
    periodic_basis,
    sample_points,
    verify_invariance,
    young_rank,
)

__version__ = "0.1.0"

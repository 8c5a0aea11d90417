"""Harmonic analysis on spheres tiled by regular simplices.

The tiling of S^(n-1) by the n+1 faces of a regular simplex is generated
by a cyclic group of deck transformations sitting inside the symmetric
group S(n+1) < O(n).  This package computes the associated character
tables, branching multiplicities and selection rules for n = 2, 3, 4, and
constructs the explicit cyclic-periodic eigenmode bases on S^3.

The re-exported names are resolved on first access (PEP 562): importing
the package loads none of its modules, and numpy comes only with the first
module that builds arrays.
"""

import importlib

__version__ = "0.1.0"

#: module of each re-exported name
_HOMES = {
    name: module
    for module, names in {
        "report": "ConsistencyError",
        "permgroup": "CharacterTable CycleType Partition Permutation "
        "character character_table class_column coxeter_element "
        "cyclic_elements partitions_of trivial_multiplicity",
        "youngrep": "fixed_subspace generator_matrix primed_rep_matrix "
        "rep_matrix tetrahedral_primed_generators trivial_projector",
        "su2wigner": "Point4 SU2Element su2_character su2_from_point wigner_rows",
        "weylaction": "ClassCharacterRow GroupOperator act_on_coefficients "
        "act_on_points class_character_table class_representatives compose "
        "diagonal_factors operator_character operator_factors permutation_operator "
        "reflection_operator transposition_operators weyl_vectors_s5",
        "reduction": "MultiplicityTable o2_multiplicity_table o3_multiplicity_table "
        "lattice_count_o4 o4_multiplicity_table",
        "modes": "ModeBasis periodic_basis verify_invariance",
    }.items()
    for name in names.split()
}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value

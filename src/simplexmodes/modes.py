"""Explicit cyclic-periodic eigenmode bases on the covering spheres.

The primary construction averages the five deck operators into a projector
and orthonormalizes its range; Young operators provide an independent
isotypic route whose ranks must agree with character theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .permgroup import (
    ConsistencyError,
    Partition,
    Permutation,
    character,
    coxeter_element,
    trivial_multiplicity,
)
from .reduction import (
    S5_PARTITION_ORDER,
    O2Label,
    O3Label,
    multiplicity_o3_s4,
    multiplicity_o4_s5,
    o2_reduce,
    periodic_count_o4,
)
from .su2wigner import SU2Element, _complex, block_points, wigner_d, wigner_rows
from .weylaction import (
    GroupOperator,
    act_on_points,
    compose,
    operator_matrices,
    permutation_operator,
)
from .youngrep import RANK_CUTOFF, fixed_subspace, rep_matrix

MAX_TWO_J_MODES = 12
PHASE_TOL = 1e-8


@dataclass(frozen=True)
class ModeBasis:
    """Orthonormal periodic modes of one degree, expressed in the harmonic
    basis D^j_{m1 m2} flattened row-major; one optional partition tag per
    column."""

    two_j: int
    coefficients: np.ndarray  # (2j+1)^2 x count, complex
    partitions: tuple[Partition | None, ...]

    @property
    def count(self) -> int:
        return self.coefficients.shape[1]


@dataclass(frozen=True)
class YoungOperator:
    """Group-averaged operator c^f_{r,s} realized on the degree-2j
    harmonic space."""

    shape: Partition
    row: int
    col: int
    two_j: int
    matrix: np.ndarray


@dataclass(frozen=True)
class SamplePoint:
    u: SU2Element
    seed: int
    index: int


@lru_cache(maxsize=None)
def cyclic_operators() -> tuple[GroupOperator, ...]:
    """The five deck operators: identity and the four powers of the
    generating rotation (all are pure rotations)."""
    gen = permutation_operator(coxeter_element(5))
    ops = [GroupOperator.identity()]
    for _ in range(4):
        ops.append(compose(ops[-1], gen))
    return tuple(ops)


def cyclic_projector(two_j: int) -> np.ndarray:
    """Average of the five deck-operator matrices: the Hermitian idempotent
    projecting onto the periodic subspace of degree 2j."""
    if not 0 <= two_j <= MAX_TWO_J_MODES:
        raise ValueError(f"two_j must lie in 0..{MAX_TWO_J_MODES}")
    return sum(operator_matrices(Fraction(two_j, 2), cyclic_operators())) / 5.0


def _all_s5() -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(1, 6))]


@lru_cache(maxsize=2)
def _operator_matrices(two_j: int) -> dict[Permutation, np.ndarray]:
    """Operator matrix of every element of S(5) at one degree.

    Shared by the Young-operator and isotypic routes; treat the cached
    arrays as read-only.
    """
    perms = _all_s5()
    ops = [permutation_operator(p) for p in perms]
    return dict(zip(perms, operator_matrices(Fraction(two_j, 2), ops)))


def _canonical_phases(cols: np.ndarray) -> np.ndarray:
    out = cols.copy()
    for c in range(out.shape[1]):
        for v in out[:, c]:
            if abs(v) > PHASE_TOL:
                out[:, c] *= np.conj(v) / abs(v)
                break
    return out


def _projector_range(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the eigenvalue-1 eigenspace of a Hermitian
    projector (eigenvalues cluster at 0 and 1)."""
    vals, vecs = np.linalg.eigh(mat)
    return vecs[:, vals > 0.5]


def periodic_basis(two_j: int) -> ModeBasis:
    """Orthonormal basis of all periodic modes of degree 2j, grouped and
    tagged by the S(5) partition of the isotypic component."""
    projector = cyclic_projector(two_j)
    dim = (two_j + 1) ** 2
    weights = {f: trivial_multiplicity(f) for f in S5_PARTITION_ORDER}
    allowed = [f for f in S5_PARTITION_ORDER if weights[f] > 0]
    isotypic = {f: np.zeros((dim, dim), dtype=complex) for f in allowed}
    for p, mat in _operator_matrices(two_j).items():
        k = p.cycle_type()
        for f in allowed:
            isotypic[f] += character(f, k) * mat
    columns = []
    tags: list[Partition | None] = []
    for f in allowed:
        central = (f.dimension / 120.0) * isotypic[f]
        block = _projector_range(central @ projector)
        expected = multiplicity_o4_s5(two_j, f) * weights[f]
        if block.shape[1] != expected:
            raise ConsistencyError(
                f"isotypic block {f} at 2j={two_j} has rank {block.shape[1]}, "
                f"expected {expected}"
            )
        if block.shape[1]:
            columns.append(block)
            tags.extend([f] * block.shape[1])
    coeffs = (
        np.hstack(columns) if columns else np.zeros((dim, 0), dtype=complex)
    )
    if coeffs.shape[1] != periodic_count_o4(two_j):
        raise ConsistencyError(
            f"periodic basis at 2j={two_j} has {coeffs.shape[1]} columns, "
            f"character theory demands {periodic_count_o4(two_j)}"
        )
    return ModeBasis(two_j, _canonical_phases(coeffs), tuple(tags))


def young_operator(two_j: int, f: Partition, row: int, col: int) -> YoungOperator:
    """c^f_{row,col} = (dim f / 120) sum_p D^f_{row,col}(p) T_p on the
    degree-2j harmonic space."""
    if f.n != 5:
        raise ValueError(f"expected a partition of 5, got {f}")
    dim = (two_j + 1) ** 2
    acc = np.zeros((dim, dim), dtype=complex)
    for p, mat in _operator_matrices(two_j).items():
        weight = rep_matrix(f, p).matrix[row, col]
        if weight != 0.0:
            acc += weight * mat
    return YoungOperator(f, row, col, two_j, (f.dimension / 120.0) * acc)


def _rank(mat: np.ndarray) -> int:
    sing = np.linalg.svd(mat, compute_uv=False)
    if sing.size == 0:
        return 0
    return int(np.sum(sing > RANK_CUTOFF * max(sing[0], 1.0)))


def young_rank(two_j: int, f: Partition) -> int:
    """Rank of the diagonal Young operators c^f_{r,r}; every standard row
    must give the same value, the multiplicity of f at degree 2j."""
    if not 0 <= two_j <= 8:
        raise ValueError("two_j must lie in 0..8 for the Young-operator route")
    ranks = {
        _rank(young_operator(two_j, f, r, r).matrix)
        for r in range(f.dimension)
    }
    if len(ranks) != 1:
        raise ConsistencyError(f"rows of c^{f} disagree on rank: {ranks}")
    return ranks.pop()


def _sample_pairs(num_points: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2) of N uniform points of S^3: normalized 4-dimensional
    Gaussian draws x of a seeded generator, z1 = x0 - i x3, z2 = -x2 - i x1."""
    x = np.random.default_rng(seed).normal(size=(num_points, 4))
    # each row's squared norm by the same BLAS dot as np.linalg.norm(row)
    x = x / np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    return _complex(x[:, 0], -x[:, 3]), _complex(-x[:, 2], -x[:, 1])


def sample_points(num_points: int, seed: int) -> list[SamplePoint]:
    """Uniform points of S^3 from normalized 4-dimensional Gaussian draws
    of a seeded generator."""
    return [
        SamplePoint(SU2Element(complex(z1), complex(z2)), seed, i)
        for i, (z1, z2) in enumerate(zip(*_sample_pairs(num_points, seed)))
    ]


def evaluate_modes(basis: ModeBasis, u: SU2Element) -> np.ndarray:
    """Values of every mode at a point."""
    w = wigner_d(Fraction(basis.two_j, 2), u).matrix.reshape(-1)
    return w @ basis.coefficients


def verify_invariance(basis: ModeBasis, num_points: int, seed: int) -> float:
    """Largest |psi(g u) - psi(u)| over the sample, all deck operators g,
    and all modes; exactly zero up to roundoff for a periodic basis.

    Points are evaluated in blocks of `block_points(2j)`, one Wigner kernel
    call and one matrix product per block and operator.
    """
    if num_points < 1:
        raise ValueError(f"need at least one sample point, got {num_points}")
    z1, z2 = _sample_pairs(num_points, seed)
    two_j, coeffs = basis.two_j, basis.coefficients
    step = block_points(two_j)
    worst = 0.0
    for lo in range(0, num_points, step):
        u1, u2 = z1[lo:lo + step], z2[lo:lo + step]
        here = wigner_rows(two_j, u1, u2) @ coeffs
        for op in cyclic_operators():
            there = wigner_rows(two_j, *act_on_points(op, u1, u2)) @ coeffs
            if here.size:
                worst = max(worst, float(np.abs(there - here).max()))
    return worst


# ------------------------------------------------------- lower-dimensional

@dataclass(frozen=True)
class ModeComponent:
    partition: Partition
    coefficients: tuple[float, ...]
    basis: str


@dataclass(frozen=True)
class ModeDescription:
    chain: str
    label: str
    allowed: bool
    reason: str
    components: tuple[ModeComponent, ...]


def lower_dim_modes(chain: str, label: O2Label | O3Label) -> ModeDescription:
    """Periodic-mode description on the circle or the 2-sphere.

    Labels failing the selection rule yield an explicit excluded result
    rather than an error.
    """
    if chain == "circle":
        if not isinstance(label, O2Label):
            raise ValueError("circle chain needs an O2Label")
        f, m0 = o2_reduce(label)
        text = "m=0" if label.m == 0 else (
            f"m={label.m},eps={'+' if label.epsilon == 1 else '-'}"
        )
        if m0 == 0:
            return ModeDescription(chain, text, False, "excluded by selection rule", ())
        if label.m == 0:
            comp = ModeComponent(f, (1.0,), "Y_0")
            return ModeDescription(chain, text, True, "", (comp,))
        amp = 1.0 / np.sqrt(2.0)
        pair = (amp, label.epsilon * (-1.0) ** label.m * amp)
        comp = ModeComponent(f, pair, f"(Y_{label.m}, Y_-{label.m})")
        return ModeDescription(chain, text, True, "", (comp,))
    if chain == "sphere2":
        if not isinstance(label, O3Label):
            raise ValueError("sphere2 chain needs an O3Label")
        text = f"(l={label.l},kappa={'+' if label.kappa == 1 else '-'})"
        comps = []
        for f in (Partition(p) for p in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]):
            if multiplicity_o3_s4(label, f) == 0 or trivial_multiplicity(f) == 0:
                continue
            space = fixed_subspace(f)
            for col in range(space.dim):
                comps.append(
                    ModeComponent(
                        f,
                        tuple(float(v) for v in space.basis[:, col]),
                        "young-yamanouchi",
                    )
                )
        if not comps:
            return ModeDescription(chain, text, False, "excluded by selection rule", ())
        return ModeDescription(chain, text, True, "", tuple(comps))
    raise ValueError(f"unknown chain {chain!r}")

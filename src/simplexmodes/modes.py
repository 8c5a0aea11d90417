"""Explicit cyclic-periodic eigenmode bases on the covering spheres.

The primary construction spans the periodic modes by the lattice of harmonics
that the deck generator fixes in its diagonal frame, and tags them by the
integer spectrum of the central transposition sum.  The Jucys-Murphy sums give
an independent route to the multiplicities: their joint eigenspaces, one per
standard tableau, have the dimensions that character theory predicts.  Both
integer spectra are read one way, by youngrep.integer_eigenspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .permgroup import (
    ConsistencyError, Partition, Permutation, coxeter_element, trivial_multiplicity,
)
from .reduction import (
    S4_PARTITION_ORDER,
    S5_PARTITION_ORDER,
    O2Label,
    O3Label,
    multiplicity_o3_s4,
    multiplicity_o4_s5,
    lattice_count_o4,
    o2_reduce,
)
from .su2wigner import wigner_rows
from .weylaction import (
    GroupOperator,
    act_on_coefficients,
    act_on_points,
    compose,
    diagonal_factors,
    operator_factors,
    operator_matrices,
    permutation_operator,
    transposition_operators,
)
from .youngrep import (
    SPECTRUM_TOL, canonical_phases, fixed_subspace, integer_eigenspaces, standard_tableaux,
)

PHASE_TOL = 1e-8  # the first coefficient above this is made real and positive
PIVOT_TIE = 1e-9  # relative gap of pivot ties; 2j <= 24: rounding < 6e-15, real > 1.8e-5


@dataclass(frozen=True)
class ModeBasis:
    """Orthonormal periodic modes of one degree in the harmonics D^j_{m1 m2}
    flattened row-major, one optional partition tag per column, and the tag
    margins of periodic_basis: the largest distance of an eigenvalue of M from
    its integer and of a content block's squared norm from m_f w_f."""

    two_j: int
    coefficients: np.ndarray  # (2j+1)^2 x count, complex
    partitions: tuple[Partition | None, ...]
    spectrum_margin: float = 0.0
    trace_margin: float = 0.0

    @property
    def count(self) -> int:
        return self.coefficients.shape[1]


@lru_cache(maxsize=None)
def cyclic_operators() -> tuple[GroupOperator, ...]:
    """The five deck operators: identity and the four powers of the
    generating rotation (all are pure rotations)."""
    gen = permutation_operator(coxeter_element(5))
    ops = [GroupOperator.identity()]
    for _ in range(4):
        ops.append(compose(ops[-1], gen))
    return tuple(ops)


@lru_cache(maxsize=2)
def _operator_matrices(two_j: int) -> dict[Permutation, np.ndarray]:
    """Operator matrix of every element of S(5) at one degree; treat the
    cached arrays as read-only.  A dense oracle that no library route calls:
    it stays only because the benchmark trace reads its cache by this name."""
    perms = [Permutation(p) for p in itertools.permutations(range(1, 6))]
    ops = [permutation_operator(p) for p in perms]
    return dict(zip(perms, operator_matrices(Fraction(two_j, 2), ops)))


def _pivoted_gram_schmidt(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of an r x p matrix of rank r:
    each step takes its column (a projected lattice vector) of largest
    residual, the first in lattice order of those within PIVOT_TIE of it."""
    residual, out = a.copy(), np.empty((len(a), len(a)), dtype=complex)
    for i in range(len(a)):
        norms = np.linalg.norm(residual, axis=0)
        k = int(np.argmax(norms >= (1.0 - PIVOT_TIE) * norms.max()))
        out[:, i] = residual[:, k] / norms[k]
        residual -= np.outer(out[:, i], out[:, i].conj() @ residual)
    return out


def periodic_basis(two_j: int) -> ModeBasis:
    """Orthonormal basis of all periodic modes of degree 2j, grouped and
    tagged by the S(5) partition of the isotypic component.

    In frames that diagonalize the deck generator (half-angles 3pi/5, pi/5)
    it multiplies the harmonic x_a y_b^T by exp(i pi (3a + b) / 5), (a, b) =
    (2 m1, 2 m2), so the lattice 3a + b = 0 (mod 10) spans the periodic modes.
    There the transposition sum M acts on the f-isotypic part as
    f.content_sum; its eigenspace at each content is that block, made canonical
    by pivoted Gram-Schmidt over the projected lattice vectors."""
    x, y, rot_l, rot_r = diagonal_factors(two_j, cyclic_operators()[1])
    twice_m = np.arange(-two_j, two_j + 1, 2)
    phase_error = max(np.abs(rot - np.diag(np.exp(1j * np.pi * k * twice_m / 5))).max()
                      for rot, k in ((rot_l, 3), (rot_r, 1)))
    i1, i2 = np.nonzero((3 * twice_m[:, None] + twice_m) % 10 == 0)
    ranks = {f: multiplicity_o4_s5(two_j, f) * w
             for f in S5_PARTITION_ORDER if (w := trivial_multiplicity(f))}
    if phase_error > SPECTRUM_TOL or not len(i1) == lattice_count_o4(two_j) == sum(ranks.values()):
        raise ConsistencyError(
            f"2j={two_j}: generator phases off by {phase_error:.3g}, {len(i1)} lattice "
            f"points, count {lattice_count_o4(two_j)}, character theory {sum(ranks.values())}"
        )
    # a transposition, (-1)^{2j} L^T C^T R^T, sends x_a y_b^T to (L^T y_b)(R x_a)^T
    m = (-1.0) ** two_j * sum(
        (x.conj().T @ left.T @ y)[np.ix_(i1, i2)] * (y.conj().T @ right @ x)[np.ix_(i2, i1)]
        for left, right in operator_factors(two_j, transposition_operators())
    )
    blocks, spectrum_margin = integer_eigenspaces(m, -10, 10)
    columns, tags, trace_margin = [], [], 0.0
    for f, rank in ranks.items():
        v = blocks[f.content_sum]
        # |V|_F^2 is the trace of the content projector V V^dagger
        trace_margin = max(trace_margin, abs(np.vdot(v, v).real - rank))
        # column k of V^dagger is lattice vector k projected, in the isometry V
        columns.append(v @ _pivoted_gram_schmidt(v.conj().T))
        tags += [f] * v.shape[1]
    frame = (x[:, i1][:, None, :] * y[:, i2][None, :, :]).reshape((two_j + 1) ** 2, len(i1))
    coeffs = canonical_phases(frame @ np.hstack(columns), PHASE_TOL)
    return ModeBasis(two_j, coeffs, tuple(tags), spectrum_margin, trace_margin)


def basis_residuals(basis: ModeBasis) -> tuple[float, float]:
    """Largest entries of C^dagger C - I and of P C - C for the coefficients C:
    the columns are orthonormal and fixed by the projector P, the mean of the
    five deck operators, applied factored."""
    coeffs = basis.coefficients
    gram = coeffs.conj().T @ coeffs - np.eye(basis.count)
    fixed = act_on_coefficients(basis.two_j, cyclic_operators(), coeffs) / 5.0 - coeffs
    return float(np.abs(gram).max(initial=0.0)), float(np.abs(fixed).max(initial=0.0))


def _jucys_murphy_leaves(two_j: int) -> tuple[dict[tuple[int, ...], np.ndarray], float]:
    """Orthonormal bases of the joint eigenspaces of the Jucys-Murphy sums
    X_k = sum_{i<k} T_(i k), k = 2..5, on the degree-2j harmonics, keyed by
    the contents (0, c_2, .., c_5) of a standard tableau, and the largest
    distance of an eigenvalue from its integer in -(k-1)..(k-1).  The X_k
    commute, so each level splits every node's columns B by B^dagger X_k B."""
    swaps = dict(zip(itertools.combinations(range(1, 6), 2), transposition_operators()))
    nodes, margin = {(0,): np.eye((two_j + 1) ** 2, dtype=complex)}, 0.0
    for k in range(2, 6):
        ops = [swaps[i, k] for i in range(1, k)]
        split = {}
        for key, b in nodes.items():
            spaces, level_margin = integer_eigenspaces(
                b.conj().T @ act_on_coefficients(two_j, ops, b), 1 - k, k - 1)
            margin = max(margin, level_margin)
            split.update({key + (c,): b @ vecs for c, vecs in spaces.items() if vecs.shape[1]})
        nodes = split
    if margin > SPECTRUM_TOL:
        raise ConsistencyError(f"2j={two_j}: Jucys-Murphy eigenvalues off their integers, "
                               f"margin {margin:.3g}")
    return nodes, margin


def young_ranks(two_j: int) -> dict[Partition, int]:
    """Rank of the diagonal Young operators c^f_{r,r} for every partition f of
    5, from one Jucys-Murphy walk: the dimension of the joint eigenspace at the
    contents of tableau r.  Every standard tableau of f must give the same
    value, the multiplicity of f at degree 2j."""
    counts = {key: b.shape[1] for key, b in _jucys_murphy_leaves(two_j)[0].items()}
    out = {}
    for f in S5_PARTITION_ORDER:
        ranks = {counts.get(t.contents, 0) for t in standard_tableaux(f)}
        if len(ranks) != 1:
            raise ConsistencyError(f"tableaux of {f} disagree on rank: {ranks}")
        out[f] = ranks.pop()
    return out


def young_rank(two_j: int, f: Partition) -> int:
    """The rank of the diagonal Young operators of f at degree 2j; see young_ranks."""
    if f.n != 5:
        raise ValueError(f"expected a partition of 5, got {f}")
    return young_ranks(two_j)[f]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array from its parts, signs of zeros included."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _sample_pairs(num_points: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2) of N uniform points of S^3: normalized 4-dimensional
    Gaussian draws x of a seeded generator, z1 = x0 - i x3, z2 = -x2 - i x1."""
    x = np.random.default_rng(seed).normal(size=(num_points, 4))
    # each row's squared norm by the same BLAS dot as np.linalg.norm(row)
    x = x / np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    return _complex(x[:, 0], -x[:, 3]), _complex(-x[:, 2], -x[:, 1])


#: points x matrix entries per Wigner call of verify_invariance; bounds the
#: temporaries of the sample at every 2j
BLOCK_ELEMENTS = 1 << 12


def block_points(two_j: int) -> int:
    """Points per Wigner call of verify_invariance at degree 2j."""
    return max(1, BLOCK_ELEMENTS // (two_j + 1) ** 2)


def verify_invariance(basis: ModeBasis, num_points: int, seed: int) -> float:
    """Largest |psi(g u) - psi(u)| over the sample, all deck operators g,
    and all modes; exactly zero up to roundoff for a periodic basis.

    Points are evaluated in blocks of `block_points(2j)`, one `wigner_rows`
    call and one matrix product per block and operator; the identity, the
    first deck operator, is skipped.
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
        for op in cyclic_operators()[1:]:
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
        comps = [
            ModeComponent(f, tuple(float(v) for v in vec), "young-yamanouchi")
            for f in S4_PARTITION_ORDER
            if multiplicity_o3_s4(label, f) and trivial_multiplicity(f)
            for vec in fixed_subspace(f).basis.T
        ]
        if not comps:
            return ModeDescription(chain, text, False, "excluded by selection rule", ())
        return ModeDescription(chain, text, True, "", tuple(comps))
    raise ValueError(f"unknown chain {chain!r}")

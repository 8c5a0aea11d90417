"""The O(4) action on the 3-sphere in factored form.

S(5) acts on S^3 through Weyl reflections; every element is either a
rotation pair (g_l, g_r) acting as u -> g_l^{-1} u g_r, or such a pair
followed by the base reflection u -> -u^dagger.  Operators multiply in
written order, the left factor acting on points first, which matches
both the permutation convention of `permgroup` and the reflection-string
factorizations used throughout.

The characters of a class on the degree-2j harmonics, 2j = 0..top, are the
integer Molien coefficients `permgroup.class_column`, read off its cycle
type; the float traces of the operators (`operator_character`) serve as
their independent cross-check.  The group algebra is scalar: only the
functions that build arrays import numpy.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .permgroup import CLASS_ORDER_S5, CycleType, Permutation, class_column
from .su2wigner import (
    Point4,
    Q_ELEMENT,
    SU2Element,
    _times,
    half_angle,
    su2_character,
    su2_from_point,
    wigner_rows,
)

if TYPE_CHECKING:
    import numpy as np


class GroupOperator(NamedTuple):
    """Element of O(4) in factored form; `reflective` marks a trailing
    base-reflection factor."""

    g_l: SU2Element
    g_r: SU2Element
    reflective: bool

    @classmethod
    def identity(cls) -> GroupOperator:
        return cls(SU2Element.identity(), SU2Element.identity(), False)


def weyl_vectors_s5() -> list[Point4]:
    """The four unit reflection vectors realizing the generators (i, i+1) of
    S(5); adjacent vectors meet at 60 degrees, all others are orthogonal."""
    return [
        Point4(0.0, 0.0, 0.0, 1.0),
        Point4(0.0, 0.0, math.sqrt(3.0 / 4.0), 0.5),
        Point4(0.0, math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0), 0.0),
        Point4(math.sqrt(5.0 / 8.0), math.sqrt(3.0 / 8.0), 0.0, 0.0),
    ]


def reflection_operator(a: Point4) -> GroupOperator:
    """The Weyl reflection about the unit vector a, factored as the rotation
    pair (v, v^-1), v = su2_from_point(a), followed by the base reflection."""
    v = su2_from_point(a)
    return GroupOperator(v, v.inverse(), True)


def compose(s: GroupOperator, t: GroupOperator) -> GroupOperator:
    """Written-order product s*t (s acts on points first).

    Moving the trailing base reflection of s through t swaps t's rotation
    pair; two base reflections cancel.
    """
    if s.reflective:
        g_l, g_r = s.g_l * t.g_r, s.g_r * t.g_l
    else:
        g_l, g_r = s.g_l * t.g_l, s.g_r * t.g_r
    return GroupOperator(g_l, g_r, s.reflective != t.reflective)


@lru_cache(maxsize=None)
def _reflection_ops() -> tuple[GroupOperator, ...]:
    return tuple(reflection_operator(w) for w in weyl_vectors_s5())


def permutation_operator(p: Permutation) -> GroupOperator:
    """Operator for a permutation of S(5): factor into adjacent
    transpositions, map each to its reflection operator, compose."""
    if p.n != 5:
        raise ValueError(f"permutation_operator needs S(5), got S({p.n})")
    ops = _reflection_ops()
    out = GroupOperator.identity()
    for i in p.adjacent_factors():
        out = compose(out, ops[i - 1])
    return out


@lru_cache(maxsize=None)
def transposition_operators() -> tuple[GroupOperator, ...]:
    """The ten transposition operators of S(5), (1 2), (1 3), ..., (4 5)."""
    return tuple(
        permutation_operator(Permutation.from_cycles(5, [pair]))
        for pair in itertools.combinations(range(1, 6), 2)
    )


def act_on_points(
    op: GroupOperator, z1: np.ndarray, z2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Images of the points (z1[n], z2[n]) of S^3 under the operator.

    A rotation pair sends u to g_l^{-1} u g_r.  For a reflective operator
    the rotation acts first and the base reflection afterwards, i.e.
    -(g_l^{-1} u g_r)^dagger = g_r^{-1} (-u^dagger) g_l, which is what makes
    reflection_operator(a) act as the Weyl reflection about a.
    """
    import numpy as np

    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    if op.reflective:
        left, right, z1 = op.g_r, op.g_l, -np.conj(z1)
    else:
        left, right = op.g_l, op.g_r
    inv = left.inverse()
    z1, z2 = _times(inv.z1, inv.z2, z1, z2)
    return _times(z1, z2, right.z1, right.z2)


def operator_character(two_j: int, op: GroupOperator) -> float:
    """Trace of the operator on the degree-2j harmonic space: the product
    chi^j(g_l^{-1}) chi^j(g_r) for rotations, chi^j(g_r g_l) otherwise."""
    if op.reflective:
        return su2_character(two_j, op.g_r * op.g_l)
    return su2_character(two_j, op.g_l.inverse()) * su2_character(two_j, op.g_r)


def operator_factors(two_j: int, ops: Sequence[GroupOperator]) -> np.ndarray:
    """Wigner matrices (L, R) of each operator, shape (len(ops), 2, 2j+1, 2j+1),
    from one wigner_rows call.  On the coefficient matrix C of the harmonics
    D^j_{m1 m2} the operator acts as C -> L^T C R^T if it is a rotation and
    as C -> (-1)^{2j} L^T C^T R^T if it is reflective."""
    factors = []
    for op in ops:
        if op.reflective:
            factors += [Q_ELEMENT.inverse() * op.g_l.inverse(), op.g_r * Q_ELEMENT]
        else:
            factors += [op.g_l.inverse(), op.g_r]
    rows = wigner_rows(two_j, [u.z1 for u in factors], [u.z2 for u in factors])
    return rows.reshape(len(ops), 2, two_j + 1, two_j + 1)


def diagonal_factors(two_j: int, op: GroupOperator) -> tuple[np.ndarray, ...]:
    """Frames h_l, h_r in which the factors L = D(g_l^-1) and R = D(g_r) of a
    rotation are diagonal: returns x = conj(D(h_l)), y = D(h_r) and the
    matrices D(h_l^-1 g_l^-1 h_l), D(h_r^-1 g_r h_r), whose diagonals are the
    phases by which the rotation multiplies the harmonic x_a y_b^T."""
    if op.reflective:
        raise ValueError("diagonal_factors needs a rotation")
    left, right = op.g_l.inverse(), op.g_r
    h_l, h_r = left.diagonal_frame(), right.diagonal_frame()
    elements = [h_l, h_r, h_l.inverse() * left * h_l, h_r.inverse() * right * h_r]
    rows = wigner_rows(two_j, [u.z1 for u in elements], [u.z2 for u in elements])
    x, y, rot_l, rot_r = rows.reshape(4, two_j + 1, two_j + 1)
    return x.conj(), y, rot_l, rot_r


def operator_matrices(two_j: int, ops: Sequence[GroupOperator]) -> list[np.ndarray]:
    """Matrices of the operators on the (2j+1)^2 harmonics D^j_{m1 m2}, with
    the pair (m1, m2) flattened row-major and m ascending; see operator_factors.
    A dense oracle that no library route calls: it stays only because the
    benchmark trace reads the cache of modes._operator_matrices by name."""
    import numpy as np

    dim = two_j + 1
    out = []
    for op, (left, right) in zip(ops, operator_factors(two_j, ops)):
        if not op.reflective:
            out.append(np.kron(left.T, right))
        else:
            mat = np.einsum("ba,cd->acdb", left, right).reshape(dim * dim, dim * dim)
            out.append((-1.0) ** two_j * mat)
    return out


def act_on_coefficients(
    two_j: int, ops: Sequence[GroupOperator], coeffs: np.ndarray
) -> np.ndarray:
    """Sum of the operators applied to the columns of coeffs, (2j+1)^2 x p:
    each column holds the coefficients of the harmonics D^j_{m1 m2} with the
    pair (m1, m2) flattened row-major and m ascending.  It uses the factored
    form of operator_factors, which validates 2j: O((2j+1)^3) per column and
    operator, and no (2j+1)^2 x (2j+1)^2 matrix."""
    import numpy as np

    factors = operator_factors(two_j, ops)
    dim = two_j + 1
    cols = coeffs.T.reshape(-1, dim, dim)
    out = np.zeros(cols.shape, dtype=complex)
    for op, (left, right) in zip(ops, factors):
        if op.reflective:
            out += (-1.0) ** two_j * (left.T @ cols.transpose(0, 2, 1) @ right.T)
        else:
            out += left.T @ cols @ right.T
    return out.reshape(-1, dim * dim).T


@lru_cache(maxsize=None)
def class_representatives() -> dict[CycleType, Permutation]:
    """One representative per conjugacy class of S(5), the transposition
    string of the reference tables: each cycle of length c, on the next
    consecutive letters s..s+c-1, becomes (s, s+1)(s+1, s+2)...(s+c-2, s+c-1)."""
    out = {}
    for k in CLASS_ORDER_S5:
        string, s = [], 1
        for c in k.parts:
            string += [(a, a + 1) for a in range(s, s + c - 1)]
            s += c
        out[k] = Permutation.from_cycles(5, string)
    return out


@lru_cache(maxsize=None)
def class_operators() -> dict[CycleType, GroupOperator]:
    return {
        k: permutation_operator(p) for k, p in class_representatives().items()
    }


class ClassCharacterRow(NamedTuple):
    """Characters chi^{(j,j)}(k) of one S(5) class for 2j = 0..two_j_max."""

    cycle_type: CycleType
    reflective: bool
    half_angles: tuple[float, ...]  # (phi_l/2, phi_r/2) or (phi(g_r g_l)/2,)
    values: tuple[int, ...]


def class_character_table(two_j_max: int) -> list[ClassCharacterRow]:
    """Exact characters of all seven classes on the degree-2j harmonic spaces."""
    rows = []
    for k, op in class_operators().items():
        if op.reflective:
            angles = (half_angle(op.g_r * op.g_l),)
        else:
            angles = (half_angle(op.g_l), half_angle(op.g_r))
        values = tuple(class_column(k, two_j_max))
        rows.append(ClassCharacterRow(k, op.reflective, angles, values))
    return rows

"""SU(2) as the unit 3-sphere, Wigner D matrices, and SU(2) characters.

An element is stored as the pair (z1, z2) of its defining matrix
[[z1, z2], [-conj(z2), conj(z1)]].  The coordinate map to E^4 is
z1 = x0 - i*x3, z2 = -(x2 + i*x1), so D^j matrix elements double as the
degree-2j harmonic polynomials on the 3-sphere.

Index convention: both Wigner axes run over m = -j ... +j ascending.  With
that choice D^{1/2} is the defining matrix with both axes reversed,
[[conj(z1), -conj(z2)], [z2, z1]], and D^j(u v) = D^j(u) D^j(v) holds in
ordinary matrix-product order, which is what the rest of the package
relies on.

D^j is evaluated by exact diagonalization: one J_y eigenbasis per degree,
cached, and Euler-angle phases per point, for any 2j >= 0.  Characters
take the independent Chebyshev route.  The group algebra is scalar: only
the functions that build arrays import numpy.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .report import ConsistencyError

if TYPE_CHECKING:
    import numpy as np

UNIT_TOL = 1e-12
JY_TOL = 1e-10  # of the J_y eigenvalues from their m; 2j = 400 lands at 4.3e-14


def _times(a1, a2, b1, b2):
    """(a1, a2) * (b1, b2) as SU(2) pairs; either side may be an array of points."""
    return a1 * b1 - a2 * b2.conjugate(), a1 * b2 + a2 * b1.conjugate()


class Point4(NamedTuple):
    """Point of E^4; unit norm when it lies on the 3-sphere."""

    x0: float
    x1: float
    x2: float
    x3: float

    def norm(self) -> float:
        return math.sqrt(self.x0**2 + self.x1**2 + self.x2**2 + self.x3**2)


class SU2Element(namedtuple("SU2Element", "z1 z2")):
    __slots__ = ()

    def __new__(cls, z1: complex, z2: complex) -> SU2Element:
        norm = abs(z1) ** 2 + abs(z2) ** 2
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"|z1|^2+|z2|^2 = {norm}, not a unit pair")
        return super().__new__(cls, z1, z2)

    @classmethod
    def identity(cls) -> SU2Element:
        return cls(1.0 + 0j, 0j)

    def matrix(self) -> list[list[complex]]:
        """The defining matrix [[z1, z2], [-conj(z2), conj(z1)]]."""
        return [[self.z1, self.z2], [-self.z2.conjugate(), self.z1.conjugate()]]

    def __mul__(self, other: SU2Element) -> SU2Element:
        z1, z2 = _times(self.z1, self.z2, other.z1, other.z2)
        return SU2Element(complex(z1), complex(z2))

    def inverse(self) -> SU2Element:
        return SU2Element(self.z1.conjugate(), -self.z2)

    def diagonal_frame(self) -> SU2Element:
        """h with h^-1 u h = (exp(i phi/2), 0), phi/2 = half_angle(u): its first
        column is the eigenvector (z2, lambda - z1) of u for lambda = exp(i phi/2).
        Its second entry is divided in numpy's complex128: Python's complex
        quotient by a float differs in the last bit, and the modes output
        pins these bits."""
        import numpy as np

        lam = cmath.exp(1j * half_angle(self))
        v1, v2 = self.z2, lam - self.z1
        norm = math.sqrt(abs(v1) ** 2 + abs(v2) ** 2)
        if norm == 0.0:  # u is that diagonal element already
            return SU2Element.identity()
        return SU2Element(v1 / norm, -np.conj(v2) / norm)


#: fixed matrix with q^T = q^{-1} = -q, conjugating u to its complex conjugate
Q_ELEMENT = SU2Element(0j, -1.0 + 0j)


def su2_from_point(x: Point4) -> SU2Element:
    """Insert a unit 4-vector into the coordinate map."""
    if abs(x.norm() - 1.0) > UNIT_TOL:
        raise ValueError(f"point has norm {x.norm()}, expected 1")
    return SU2Element(complex(x.x0, -x.x3), complex(-x.x2, -x.x1))


@lru_cache(maxsize=None)
def _wigner_terms(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvectors W of J_y = (J_+ - J_+^T)/2i at degree 2j, with J_+|m> =
    sqrt(j(j+1) - m(m+1))|m+1>, their conjugate transpose and the weights m
    ascending.  eigh returns the eigenvalues ascending, so each column of W
    belongs to one m; ConsistencyError unless all lie within JY_TOL of it."""
    import numpy as np

    j, m = two_j / 2, np.arange(-two_j, two_j + 1, 2) / 2
    raising = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    spectrum, w = np.linalg.eigh(-0.5j * (raising - raising.T))
    margin = float(np.abs(spectrum - m).max())
    if margin > JY_TOL:
        raise ConsistencyError(f"2j={two_j}: J_y eigenvalues off their m, margin {margin:.3g}")
    return w, w.conj().T, m


def wigner_rows(two_j: int, z1, z2) -> np.ndarray:
    """D^j at N points (z1[n], z2[n]) of S^3, flattened row-major: an
    (N, (2j+1)^2) array.

    Exact diagonalization (Feng, Wang, Yang & Jin, Phys. Rev. E 92 (2015)
    043307): with beta = 2 atan2(|z2|, |z1|) and phi+- = arg z1 +- arg z2,
    D = diag(e^{i m phi+}) W e^{i beta m} W^dagger diag(e^{i m phi-}), one
    matrix product for all points: the N scaled copies of W stacked as one
    (N (2j+1), 2j+1) matrix.
    """
    import numpy as np

    if two_j < 0 or two_j != int(two_j):
        raise ValueError(f"2j must be a non-negative integer, got {two_j}")
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
    r1, r2 = np.abs(z1), np.abs(z2)
    norm = r1**2 + r2**2
    bad = np.flatnonzero(np.abs(norm - 1.0) > UNIT_TOL)
    if len(bad):
        raise ValueError(f"|z1|^2+|z2|^2 = {norm[bad[0]]} at point {bad[0]}, not a unit pair")
    w, w_dagger, m = _wigner_terms(int(two_j))
    beta, a, b = 2.0 * np.arctan2(r2, r1)[:, None], np.angle(z1)[:, None], np.angle(z2)[:, None]
    n, size = len(z1), len(m)
    scaled = (w * np.exp(1j * m * beta)[:, None, :]).reshape(n * size, size)
    d = (scaled @ w_dagger).reshape(n, size, size)
    d *= np.exp(1j * m * (a + b))[:, :, None] * np.exp(1j * m * (a - b))[:, None, :]
    return d.reshape(n, -1)


def chebyshev_u(n: int, x: float) -> float:
    """Chebyshev polynomial of the second kind, U_n(cos t) = sin((n+1)t)/sin(t).

    The three-term recurrence is stable on [-1, 1] and exact at the
    endpoints, where the sine quotient degenerates.
    """
    prev, cur = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(n):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def su2_character(two_j: int, u: SU2Element) -> float:
    """Character chi^j(u) = sin((2j+1)phi/2)/sin(phi/2) with
    cos(phi/2) = Re(z1) clamped into [-1, 1], evaluated as the Chebyshev
    polynomial U_{2j}(cos(phi/2)) so the phi -> 0 and phi -> 2*pi limits
    come out exact (2j+1 and (-1)^{2j} (2j+1))."""
    if two_j < 0:
        raise ValueError(f"2j must be non-negative, got {two_j}")
    return chebyshev_u(two_j, min(1.0, max(-1.0, u.z1.real)))


def half_angle(u: SU2Element) -> float:
    """phi/2 in [0, pi], from cos(phi/2) = Re(z1) clamped into [-1, 1]."""
    return math.acos(min(1.0, max(-1.0, u.z1.real)))

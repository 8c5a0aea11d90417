"""SU(2) as the unit 3-sphere, Wigner D matrices, and SU(2) characters.

An element is stored as the pair (z1, z2) of its defining matrix
[[z1, z2], [-conj(z2), conj(z1)]].  The coordinate map to E^4 is
z1 = x0 - i*x3, z2 = -(x2 + i*x1), so D^j matrix elements double as the
degree-2j harmonic polynomials on the 3-sphere.

Index convention: both Wigner axes run over m = -j ... +j ascending.  With
that choice the polynomial sum at j = 1/2 evaluates to the defining matrix
with both axes reversed, [[conj(z1), -conj(z2)], [z2, z1]], and
D^j(u v) = D^j(u) D^j(v) holds in ordinary matrix-product order, which is
what the rest of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

UNIT_TOL = 1e-12
MAX_TWO_J = 24  # factorial coefficients stay exactly representable


def _as_two_j(j: float | int | Fraction) -> int:
    two_j = 2 * Fraction(j)
    if two_j.denominator != 1 or two_j < 0:
        raise ValueError(f"j must be a non-negative half-integer, got {j}")
    return int(two_j)


@dataclass(frozen=True)
class Point4:
    """Point of E^4; unit norm when it lies on the 3-sphere."""

    x0: float
    x1: float
    x2: float
    x3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    def norm(self) -> float:
        return math.sqrt(self.x0**2 + self.x1**2 + self.x2**2 + self.x3**2)

    @classmethod
    def from_array(cls, x) -> Point4:
        a, b, c, d = (float(v) for v in x)
        return cls(a, b, c, d)


@dataclass(frozen=True)
class SU2Element:
    z1: complex
    z2: complex

    def __post_init__(self) -> None:
        norm = abs(self.z1) ** 2 + abs(self.z2) ** 2
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"|z1|^2+|z2|^2 = {norm}, not a unit pair")

    @classmethod
    def identity(cls) -> SU2Element:
        return cls(1.0 + 0j, 0j)

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.z1, self.z2], [-np.conj(self.z2), np.conj(self.z1)]],
            dtype=complex,
        )

    def __mul__(self, other: SU2Element) -> SU2Element:
        z1 = self.z1 * other.z1 - self.z2 * np.conj(other.z2)
        z2 = self.z1 * other.z2 + self.z2 * np.conj(other.z1)
        return SU2Element(complex(z1), complex(z2))

    def __neg__(self) -> SU2Element:
        return SU2Element(-self.z1, -self.z2)

    def inverse(self) -> SU2Element:
        return SU2Element(np.conj(self.z1), -self.z2)

    def transpose(self) -> SU2Element:
        return SU2Element(self.z1, -np.conj(self.z2))

    def minus_dagger(self) -> SU2Element:
        """-u^dagger: the image of u under the base reflection x0 -> -x0."""
        return SU2Element(-np.conj(self.z1), self.z2)

    def point(self) -> Point4:
        return Point4(
            self.z1.real, -self.z2.imag, -self.z2.real, -self.z1.imag
        )

    def isclose(self, other: SU2Element, tol: float = 1e-12) -> bool:
        return abs(self.z1 - other.z1) <= tol and abs(self.z2 - other.z2) <= tol


#: fixed matrix with q^T = q^{-1} = -q, conjugating u to its complex conjugate
Q_ELEMENT = SU2Element(0j, -1.0 + 0j)


def su2_from_point(x: Point4) -> SU2Element:
    """Insert a unit 4-vector into the coordinate map."""
    if abs(x.norm() - 1.0) > UNIT_TOL:
        raise ValueError(f"point has norm {x.norm()}, expected 1")
    return SU2Element(complex(x.x0, -x.x3), complex(-x.x2, -x.x1))


def q_conjugation(u: SU2Element) -> SU2Element:
    """Entrywise complex conjugate of u, realized as q^{-1} u q."""
    qinv = SU2Element(0j, 1.0 + 0j)  # q^{-1} = -q
    return qinv * u * Q_ELEMENT


@dataclass(frozen=True)
class WignerMatrix:
    """Unitary (2j+1)x(2j+1) representation matrix, rows and columns indexed
    by m = -j ... +j ascending."""

    two_j: int
    matrix: np.ndarray

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def dim(self) -> int:
        return self.two_j + 1


@lru_cache(maxsize=None)
def _wigner_terms(two_j: int):
    """Per matrix entry: (prefactor, ((coeff, e1, e2c, e2, e1c), ...)).

    Prefactors are square roots of exact factorial ratios; the per-sigma
    coefficients are exact integers.  Exponents order: z1, conj(z2), z2,
    conj(z1).
    """
    dim = two_j + 1
    table = []
    for i1 in range(dim):
        two_m1 = -two_j + 2 * i1
        row = []
        for i2 in range(dim):
            two_m2 = -two_j + 2 * i2
            jp1, jm1 = (two_j + two_m1) // 2, (two_j - two_m1) // 2
            jp2, jm2 = (two_j + two_m2) // 2, (two_j - two_m2) // 2
            pref = math.sqrt(
                Fraction(factorial(jp1) * factorial(jm1),
                         factorial(jp2) * factorial(jm2))
            )
            dm = (two_m2 - two_m1) // 2
            terms = []
            for sig in range(max(0, -dm), min(jp1, jm2) + 1):
                coeff = (-1) ** (dm + sig) * comb(jp2, jp1 - sig) * comb(jm2, sig)
                terms.append((coeff, jp1 - sig, dm + sig, sig, jm2 - sig))
            row.append((pref, tuple(terms)))
        table.append(tuple(row))
    return tuple(table)


def _wigner_array(two_j: int, u: SU2Element) -> np.ndarray:
    z1, z2 = complex(u.z1), complex(u.z2)
    z1c, z2c = z1.conjugate(), z2.conjugate()
    dim = two_j + 1
    pows = {}
    for base, z in (("z1", z1), ("z2c", z2c), ("z2", z2), ("z1c", z1c)):
        p = [1.0 + 0j]
        for _ in range(two_j):
            p.append(p[-1] * z)
        pows[base] = p
    out = np.zeros((dim, dim), dtype=complex)
    table = _wigner_terms(two_j)
    for i1 in range(dim):
        for i2 in range(dim):
            pref, terms = table[i1][i2]
            acc = 0j
            for coeff, e1, e2c, e2, e1c in terms:
                acc += coeff * pows["z1"][e1] * pows["z2c"][e2c] \
                    * pows["z2"][e2] * pows["z1c"][e1c]
            out[i1, i2] = pref * acc
    return out


def wigner_d(j: float | int | Fraction, u: SU2Element) -> WignerMatrix:
    """Wigner representation matrix D^j(u) as a homogeneous polynomial of
    degree 2j in (z1, z2, conj(z1), conj(z2))."""
    two_j = _as_two_j(j)
    if two_j > MAX_TWO_J:
        raise ValueError(f"2j = {two_j} exceeds the supported range {MAX_TWO_J}")
    return WignerMatrix(two_j, _wigner_array(two_j, u))


def chebyshev_u(n: int, x: float) -> float:
    """Chebyshev polynomial of the second kind, U_n(cos t) = sin((n+1)t)/sin(t).

    The three-term recurrence is stable on [-1, 1] and exact at the
    endpoints, where the sine quotient degenerates.
    """
    prev, cur = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(n):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def su2_character(j: float | int | Fraction, u: SU2Element) -> float:
    """Character chi^j(u) = sin((2j+1)phi/2)/sin(phi/2) with
    cos(phi/2) = Re(z1) clamped into [-1, 1], evaluated as the Chebyshev
    polynomial U_{2j}(cos(phi/2)) so the phi -> 0 and phi -> 2*pi limits
    come out exact (2j+1 and (-1)^{2j} (2j+1))."""
    two_j = _as_two_j(j)
    return chebyshev_u(two_j, min(1.0, max(-1.0, u.z1.real)))


def half_angle(u: SU2Element) -> float:
    """phi/2 in [0, pi], from cos(phi/2) = Re(z1) clamped into [-1, 1]."""
    return math.acos(min(1.0, max(-1.0, u.z1.real)))

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

import cmath
import itertools
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

    def diagonal_frame(self) -> SU2Element:
        """h with h^-1 u h = (exp(i phi/2), 0), phi/2 = half_angle(u): its first
        column is the eigenvector (z2, lambda - z1) of u for lambda = exp(i phi/2)."""
        lam = cmath.exp(1j * half_angle(self))
        v1, v2 = self.z2, lam - self.z1
        norm = math.sqrt(abs(v1) ** 2 + abs(v2) ** 2)
        if norm == 0.0:  # u is that diagonal element already
            return SU2Element.identity()
        return SU2Element(v1 / norm, -np.conj(v2) / norm)

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


#: points x matrix entries per numpy pass of the Wigner kernel; bounds its
#: temporaries (about 20 arrays of this many floats) at every 2j
BLOCK_ELEMENTS = 1 << 12


@lru_cache(maxsize=None)
def _wigner_terms(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The polynomial sum of D^j as arrays over the flattened entries (m1, m2).

    Returns prefactors (E,), square roots of exact factorial ratios, and per
    sigma term s = 0..S-1 the exact integer coefficients coeffs[s] (E,) and
    picks[s] (4, E): where each factor sits in the stacked powers 0..2j of
    z1, conj(z2), z2, conj(z1).  Entries with fewer than S terms are padded
    with zero coefficients and zeroth powers, which leave the sum unchanged.
    """
    dim = two_j + 1
    prefs, rows = [], []
    for i1, i2 in itertools.product(range(dim), repeat=2):  # i = j + m
        jm1, jm2, dm = two_j - i1, two_j - i2, i2 - i1
        prefs.append(math.sqrt(
            Fraction(factorial(i1) * factorial(jm1), factorial(i2) * factorial(jm2))
        ))
        rows.append([
            ((-1) ** (dm + sig) * comb(i2, i1 - sig) * comb(jm2, sig),
             i1 - sig, dm + sig, sig, jm2 - sig)
            for sig in range(max(0, -dm), min(i1, jm2) + 1)
        ])
    terms = np.zeros((dim * dim, max(map(len, rows)), 5))
    for e, row in enumerate(rows):
        terms[e, :len(row)] = row
    picks = terms[..., 1:].astype(np.intp).transpose(1, 2, 0) + dim * np.arange(4)[:, None]
    return np.array(prefs), terms[..., 0].T.copy(), picks


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) in real arithmetic, rounded operation by
    operation as Python's complex product; numpy's complex multiply may
    fuse and round differently."""
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array from its parts, signs of zeros included."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def block_points(two_j: int) -> int:
    """Points per numpy pass of the degree-2j kernel."""
    return max(1, BLOCK_ELEMENTS // (two_j + 1) ** 2)


def _wigner_block(two_j: int, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    prefs, coeffs, picks = _wigner_terms(two_j)
    dim, n = two_j + 1, len(z1)
    # powers 0..2j of z1, conj(z2), z2, conj(z1), each from the last by one product
    base_re = np.stack([z1.real, z2.real, z2.real, z1.real], axis=1)
    base_im = np.stack([z1.imag, -z2.imag, z2.imag, -z1.imag], axis=1)
    pow_re, pow_im = np.empty((n, 4, dim)), np.empty((n, 4, dim))
    pow_re[..., 0], pow_im[..., 0] = 1.0, 0.0
    for k in range(two_j):
        pow_re[..., k + 1], pow_im[..., k + 1] = _cmul(
            pow_re[..., k], pow_im[..., k], base_re, base_im
        )
    pow_re, pow_im = pow_re.reshape(n, 4 * dim), pow_im.reshape(n, 4 * dim)
    acc_re, acc_im = np.zeros((n, len(prefs))), np.zeros((n, len(prefs)))
    # ((coeff * f0) * f1 * f2) * f3 summed from +0.0, as Python evaluates the
    # sum.  Python multiplies by a real number as by (x + 0j), which can only
    # flip the sign of a zero part of a term; a sum started at +0.0 never
    # returns -0.0, so scaling both parts gives the same bits.
    # Each factor is gathered on its own, (n, E) at a time: an (n, 4, E)
    # gather reaches glibc's 128 KB heap-trim threshold at BLOCK_ELEMENTS, and
    # freeing it every term would hand its pages back, to fault in again.
    for coeff, pick in zip(coeffs, picks):
        re, im = coeff * pow_re[:, pick[0]], coeff * pow_im[:, pick[0]]
        for b in range(1, 4):
            re, im = _cmul(re, im, pow_re[:, pick[b]], pow_im[:, pick[b]])
        acc_re += re
        acc_im += im
    return _complex(prefs * acc_re, prefs * acc_im)


def wigner_rows(two_j: int, z1, z2) -> np.ndarray:
    """D^j at N points (z1[n], z2[n]) of S^3, flattened row-major: an
    (N, (2j+1)^2) array.

    Evaluates the polynomial sum in blocks of `block_points(two_j)` points;
    every value equals the scalar sum term by term in Python complex
    arithmetic, bit for bit.
    """
    if not 0 <= two_j <= MAX_TWO_J:
        raise ValueError(f"2j = {two_j} exceeds the supported range {MAX_TWO_J}")
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
    norm = np.abs(z1) ** 2 + np.abs(z2) ** 2
    bad = np.flatnonzero(np.abs(norm - 1.0) > UNIT_TOL)
    if len(bad):
        raise ValueError(f"|z1|^2+|z2|^2 = {norm[bad[0]]} at point {bad[0]}, not a unit pair")
    step = block_points(two_j)
    out = np.empty((len(z1), (two_j + 1) ** 2), dtype=complex)
    for lo in range(0, len(z1), step):
        out[lo:lo + step] = _wigner_block(two_j, z1[lo:lo + step], z2[lo:lo + step])
    return out


def wigner_d(j: float | int | Fraction, u: SU2Element) -> WignerMatrix:
    """Wigner representation matrix D^j(u) as a homogeneous polynomial of
    degree 2j in (z1, z2, conj(z1), conj(z2))."""
    two_j = _as_two_j(j)
    row = wigner_rows(two_j, u.z1, u.z2)[0]
    return WignerMatrix(two_j, row.reshape(two_j + 1, two_j + 1))


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

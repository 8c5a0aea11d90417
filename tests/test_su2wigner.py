import math
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from oracles import isclose, point, transpose, wigner_d
from simplexmodes import su2wigner
from simplexmodes.report import ConsistencyError
from simplexmodes.su2wigner import (
    Point4,
    Q_ELEMENT,
    SU2Element,
    chebyshev_u,
    su2_character,
    su2_from_point,
    wigner_rows,
)

s = math.sqrt


def q_conjugation(u: SU2Element) -> SU2Element:
    """Entrywise complex conjugate of u, realized as q^{-1} u q."""
    qinv = SU2Element(0j, 1.0 + 0j)  # q^{-1} = -q
    return qinv * u * Q_ELEMENT


def scalar_wigner(two_j: int, z1: complex, z2: complex) -> np.ndarray:
    """Oracle: D^j at one point, summed term by term in Python complex
    arithmetic from the factorial formula (m ascending on both axes)."""
    z1, z2 = complex(z1), complex(z2)
    pows = {}
    for base, z in (("z1", z1), ("z2c", z2.conjugate()), ("z2", z2), ("z1c", z1.conjugate())):
        p = [1.0 + 0j]
        for _ in range(two_j):
            p.append(p[-1] * z)
        pows[base] = p
    dim = two_j + 1
    out = np.zeros((dim, dim), dtype=complex)
    for i1 in range(dim):
        jp1, jm1 = i1, two_j - i1
        for i2 in range(dim):
            jp2, jm2 = i2, two_j - i2
            pref = math.sqrt(Fraction(factorial(jp1) * factorial(jm1),
                                      factorial(jp2) * factorial(jm2)))
            dm = i2 - i1
            acc = 0j
            for sig in range(max(0, -dm), min(jp1, jm2) + 1):
                coeff = (-1) ** (dm + sig) * comb(jp2, jp1 - sig) * comb(jm2, sig)
                acc += coeff * pows["z1"][jp1 - sig] * pows["z2c"][dm + sig] \
                    * pows["z2"][sig] * pows["z1c"][jm2 - sig]
            out[i1, i2] = pref * acc
    return out


def random_su2(rng):
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    return su2_from_point(Point4(*x))


class TestSU2Element:
    def test_unit_validation(self):
        with pytest.raises(ValueError):
            SU2Element(1.0 + 0j, 0.5 + 0j)

    def test_matrix_layout(self):
        u = SU2Element(complex(0.6, 0.0), complex(0.0, 0.8))
        m = np.array(u.matrix())
        assert m[1, 0] == -np.conj(m[0, 1])
        assert m[1, 1] == np.conj(m[0, 0])
        assert abs(np.linalg.det(m) - 1) < 1e-12

    def test_product_matches_matrix_product(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u, v = random_su2(rng), random_su2(rng)
            uv = np.array((u * v).matrix())
            assert np.abs(uv - np.array(u.matrix()) @ v.matrix()).max() < 1e-14

    def test_inverse_and_point_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = random_su2(rng)
            assert isclose(u * u.inverse(), SU2Element.identity(), tol=1e-12)
            again = su2_from_point(point(u))
            assert isclose(u, again, tol=1e-12)

    def test_diagonal_frame(self):
        rng = np.random.default_rng(5)
        diagonal = [SU2Element(complex(0.6, s * 0.8), 0j) for s in (1, -1)]
        for u in [random_su2(rng) for _ in range(10)] + diagonal + [SU2Element.identity()]:
            h = u.diagonal_frame()
            d = h.inverse() * u * h
            want = complex(u.z1.real, math.sqrt(1.0 - u.z1.real ** 2))  # exp(i phi/2)
            assert abs(d.z1 - want) < 1e-12 and abs(d.z2) < 1e-12
        assert diagonal[0].diagonal_frame() == SU2Element.identity()


class TestCoordinateMap:
    def test_north_pole(self):
        u = su2_from_point(Point4(1.0, 0.0, 0.0, 0.0))
        assert isclose(u, SU2Element.identity())

    def test_axis_point(self):
        u = su2_from_point(Point4(0.0, 0.0, 0.0, 1.0))
        assert np.allclose(u.matrix(), [[-1j, 0], [0, 1j]])

    def test_generator_vector(self):
        u = su2_from_point(Point4(s(5 / 8), s(3 / 8), 0.0, 0.0))
        want = np.array([[s(5 / 8), -1j * s(3 / 8)], [-1j * s(3 / 8), s(5 / 8)]])
        assert np.allclose(u.matrix(), want)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            su2_from_point(Point4(1.0, 1.0, 0.0, 0.0))


class TestWignerMatrices:
    def test_identity(self):
        for j in (0, Fraction(1, 2), 1, Fraction(5, 2), 4):
            w = wigner_d(j, SU2Element.identity())
            assert np.allclose(w, np.eye(len(w)))

    def test_j_half_is_index_reversed_defining_matrix(self):
        # expanding the polynomial sum at j=1/2 by hand gives, with m
        # ascending, the defining matrix with both axes reversed
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = random_su2(rng)
            got = wigner_d(Fraction(1, 2), u)
            want = np.array([
                [np.conj(u.z1), -np.conj(u.z2)],
                [u.z2, u.z1],
            ])
            assert np.abs(got - want).max() < 1e-14

    def test_homogeneity_under_negation(self):
        rng = np.random.default_rng(9)
        for two_j in (1, 2, 3):
            for _ in range(10):
                u = random_su2(rng)
                a = wigner_d(Fraction(two_j, 2), SU2Element(-u.z1, -u.z2))
                b = (-1.0) ** two_j * wigner_d(Fraction(two_j, 2), u)
                assert np.abs(a - b).max() < 1e-12

    def test_homomorphism(self):
        rng = np.random.default_rng(10)
        for j in (Fraction(1, 2), 1, Fraction(3, 2), 2, 5):
            for _ in range(20):
                u, v = random_su2(rng), random_su2(rng)
                lhs = wigner_d(j, u * v)
                rhs = wigner_d(j, u) @ wigner_d(j, v)
                assert np.abs(lhs - rhs).max() < 1e-9

    def test_unitarity_and_reality(self):
        rng = np.random.default_rng(11)
        for j in (Fraction(1, 2), 1, 2, Fraction(7, 2)):
            for _ in range(5):
                u = random_su2(rng)
                d = wigner_d(j, u)
                assert np.abs(d @ d.conj().T - np.eye(len(d))).max() < 1e-10
                dinv = wigner_d(j, u.inverse())
                assert np.abs(dinv - d.conj().T).max() < 1e-10
                dconj = wigner_d(j, q_conjugation(u))
                assert np.abs(dconj - d.conj()).max() < 1e-10

    def test_transposition(self):
        rng = np.random.default_rng(12)
        for j in (Fraction(1, 2), 1, Fraction(5, 2)):
            for _ in range(5):
                u = random_su2(rng)
                dt = wigner_d(j, transpose(u))
                assert np.abs(dt - wigner_d(j, u).T).max() < 1e-10

    def test_range_guard(self):
        with pytest.raises(ValueError):
            wigner_d(Fraction(-1, 2), SU2Element.identity())
        with pytest.raises(ValueError):
            wigner_d(0.3, SU2Element.identity())

    def test_trace_equals_character(self):
        rng = np.random.default_rng(13)
        for j in (0, Fraction(1, 2), 1, 2, Fraction(9, 2)):
            for _ in range(10):
                u = random_su2(rng)
                tr = np.trace(wigner_d(j, u))
                assert abs(tr - su2_character(int(2 * j), u)) < 1e-9
                assert abs(tr.imag) < 1e-10


#: largest 2j of the scalar oracle: its factorial ratios stay exact
ORACLE_TWO_J = 24


def su2_pairs(us) -> tuple[np.ndarray, np.ndarray]:
    return np.array([u.z1 for u in us]), np.array([u.z2 for u in us])


class TestWignerKernel:
    #: the identity, the poles (0, +-1) and (0, i), and zeros of both signs
    SPECIAL = [
        (1 + 0j, 0j), (0j, 1 + 0j), (0j, -1 + 0j), (0j, 1j),
        (complex(-0.0, 1.0), complex(0.0, -0.0)), (complex(0.6, -0.0), complex(-0.0, 0.8)),
    ]

    @pytest.mark.parametrize("two_j", range(ORACLE_TWO_J + 1))
    def test_equals_scalar_sum(self, two_j):
        rng = np.random.default_rng(100 + two_j)
        points = [(u.z1, u.z2) for u in (random_su2(rng) for _ in range(12))] + self.SPECIAL
        z1, z2 = np.array(points).T
        got = wigner_rows(two_j, z1, z2)
        want = np.array([scalar_wigner(two_j, a, b).reshape(-1) for a, b in points])
        assert np.abs(got - want).max() <= 2e-13

    def test_many_points_equal_one_each(self):
        two_j = 12
        rng = np.random.default_rng(101)
        us = [random_su2(rng) for _ in range(50)]
        got = wigner_rows(two_j, *su2_pairs(us))
        for row, u in zip(got, us):
            assert np.abs(row - wigner_d(Fraction(two_j, 2), u).reshape(-1)).max() <= 1e-14

    def test_non_unit_point_raises(self):
        with pytest.raises(ValueError, match="point 1"):
            wigner_rows(2, [1 + 0j, 1 + 0j], [0j, 1e-5 + 0j])

    def test_range_guard(self):
        with pytest.raises(ValueError):
            wigner_rows(-1, [1 + 0j], [0j])
        with pytest.raises(ValueError):
            wigner_rows(0.6, [1 + 0j], [0j])  # j = 0.3

    def test_perturbed_j_y_spectrum_raises(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a):
            spectrum, vectors = eigh(a)
            return spectrum * (1 + 1e-8), vectors

        su2wigner._wigner_terms.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        try:
            with pytest.raises(ConsistencyError, match="margin"):
                wigner_rows(4, [1 + 0j], [0j])
        finally:
            su2wigner._wigner_terms.cache_clear()


class TestWignerReach:
    """Beyond the scalar oracle's range: identities D^j must satisfy."""

    @pytest.fixture(scope="class", params=[25, 60, 400])
    def case(self, request):
        two_j = request.param
        rng = np.random.default_rng(200 + two_j)
        us = [random_su2(rng) for _ in range(3)]
        us.append(us[0] * us[1])
        mats = wigner_rows(two_j, *su2_pairs(us)).reshape(-1, two_j + 1, two_j + 1)
        return two_j, us, mats

    def test_unitarity(self, case):
        two_j, _, mats = case
        eye = np.eye(two_j + 1)
        assert max(np.abs(d @ d.conj().T - eye).max() for d in mats) <= 1e-12

    def test_homomorphism(self, case):
        _, _, (a, b, _, ab) = case
        assert np.abs(a @ b - ab).max() <= 1e-12

    def test_inverse_and_transpose(self, case):
        two_j, us, mats = case
        images = [u.inverse() for u in us] + [transpose(u) for u in us]
        got = wigner_rows(two_j, *su2_pairs(images)).reshape(2, -1, two_j + 1, two_j + 1)
        assert np.abs(got[0] - mats.conj().transpose(0, 2, 1)).max() <= 1e-12
        assert np.abs(got[1] - mats.transpose(0, 2, 1)).max() <= 1e-12

    def test_trace_equals_character(self, case):
        two_j, us, mats = case
        for u, d in zip(us, mats):
            assert abs(np.trace(d) - su2_character(two_j, u)) <= 1e-10 * (two_j + 1)

    def test_identity_and_poles(self, case):
        two_j = case[0]
        got = wigner_rows(two_j, *np.array(TestWignerKernel.SPECIAL[:4]).T)
        got = got.reshape(-1, two_j + 1, two_j + 1)
        assert np.abs(got[0] - np.eye(two_j + 1)).max() <= 1e-12
        # (0, z2) maps m to -m with the phase z2^(2m) times (-1)^(j-m)
        m = np.arange(-two_j, two_j + 1, 2) / 2
        for d, z2 in zip(got[1:], (1, -1, 1j)):
            want = np.diag((-1.0) ** (two_j / 2 - m) * complex(z2) ** (2 * m))[:, ::-1]
            assert np.abs(d - want).max() <= 1e-12


class TestCharacter:
    def test_identity_value(self):
        for j in (0, Fraction(1, 2), 3, Fraction(11, 2)):
            assert su2_character(int(2 * j), SU2Element.identity()) == float(2 * j) + 1

    def test_negative_identity(self):
        minus_e = SU2Element(-1.0 + 0j, 0j)
        for two_j in range(6):
            want = (-1) ** two_j * (two_j + 1)
            assert su2_character(two_j, minus_e) == want

    def test_half_turn_alternation(self):
        u = SU2Element(1j, 0j)  # phi = pi
        got = [su2_character(t, u) for t in range(8)]
        assert got == [1, 0, -1, 0, 1, 0, -1, 0]

    def test_fundamental_character_is_trace(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            u = random_su2(rng)
            assert abs(su2_character(1, u) - 2 * u.z1.real) < 1e-12

    def test_negative_degree_is_rejected(self):
        with pytest.raises(ValueError, match="2j must be non-negative, got -1"):
            su2_character(-1, SU2Element.identity())

    def test_chebyshev_endpoint(self):
        assert chebyshev_u(6, 1.0) == 7.0
        assert chebyshev_u(5, -1.0) == -6.0


class TestQConjugation:
    def test_q_element(self):
        assert np.allclose(Q_ELEMENT.matrix(), [[0, -1], [1, 0]])
        qm = np.array(Q_ELEMENT.matrix())
        assert np.allclose(qm.T, np.linalg.inv(qm))
        assert np.allclose(np.linalg.inv(qm), -qm)

    def test_real_element_unchanged(self):
        u = SU2Element(complex(0.28, 0.0), complex(-0.96, 0.0))
        assert isclose(q_conjugation(u), u, tol=1e-12)

    def test_conjugates_entries(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            u = random_su2(rng)
            v = q_conjugation(u)
            assert abs(v.z1 - np.conj(u.z1)) < 1e-12
            assert abs(v.z2 - np.conj(u.z2)) < 1e-12
            assert isclose(q_conjugation(v), u, tol=1e-12)

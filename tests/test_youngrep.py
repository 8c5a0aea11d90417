import itertools
import math

import numpy as np
import pytest

from oracles import eigh_fixed_subspace, rows, standard_tableaux
from simplexmodes import youngrep
from simplexmodes.modes import integer_eigenspaces
from simplexmodes.permgroup import (
    Partition,
    Permutation,
    character,
    coxeter_element,
    partitions_of,
    trivial_multiplicity,
)
from simplexmodes.report import ConsistencyError
from simplexmodes.youngrep import (
    fixed_subspace,
    generator_matrix,
    primed_rep_matrix,
    rep_matrix,
    tetrahedral_primed_generators,
    trivial_projector,
)

s = math.sqrt

COXETER_32 = np.array([
    [-1 / 3, 0, -s(2 / 9), 0, s(2 / 3)],
    [-s(2 / 3), 1 / 4, s(1 / 48), -s(3 / 16), -1 / 4],
    [-s(2 / 9), -s(3 / 16), 1 / 12, 3 / 4, -s(1 / 48)],
    [0, s(3 / 16), -3 / 4, 1 / 4, -s(3 / 16)],
    [0, -3 / 4, -s(3 / 16), -s(3 / 16), -1 / 4],
])

COXETER_221 = np.array([
    [-1 / 3, 0, s(2 / 9), 0, s(2 / 3)],
    [-s(2 / 3), 1 / 4, -s(1 / 48), s(3 / 16), -1 / 4],
    [s(2 / 9), s(3 / 16), 1 / 12, 3 / 4, s(1 / 48)],
    [0, -s(3 / 16), -3 / 4, 1 / 4, s(3 / 16)],
    [0, -3 / 4, s(3 / 16), s(3 / 16), -1 / 4],
])

COXETER_311 = np.array([
    [1 / 3, -s(1 / 18), 0, s(5 / 6), 0, 0],
    [s(2 / 9), 1 / 24, -s(3 / 64), -s(5 / 192), s(45 / 64), 0],
    [s(2 / 3), s(1 / 192), 1 / 8, -s(5 / 64), -s(15 / 64), 0],
    [0, s(15 / 64), -s(5 / 64), 1 / 8, -s(1 / 192), s(2 / 3)],
    [0, s(45 / 64), s(5 / 192), s(3 / 64), 1 / 24, -s(2 / 9)],
    [0, 0, s(5 / 6), 0, s(1 / 18), 1 / 3],
])

COXETER_211_S4 = np.array([
    [1 / 2, -s(3) / 6, s(2 / 3)],
    [s(3) / 2, 1 / 6, -s(2) / 3],
    [0, 2 * s(2) / 3, 1 / 3],
])


def all_perms(n):
    return [Permutation(im) for im in itertools.permutations(range(1, n + 1))]


class TestStandardTableaux:
    def test_single_row(self):
        tabs = standard_tableaux(Partition.of(5))
        assert len(tabs) == 1
        assert rows(tabs[0]) == ((1, 2, 3, 4, 5),)

    def test_211_order(self):
        words = standard_tableaux(Partition.of(2, 1, 1))
        assert words == [(3, 2, 1, 1), (3, 1, 2, 1), (1, 3, 2, 1)]

    def test_32_order(self):
        got = [rows(t) for t in standard_tableaux(Partition.of(3, 2))]
        assert got == [
            ((1, 2, 3), (4, 5)),
            ((1, 3, 4), (2, 5)),
            ((1, 2, 4), (3, 5)),
            ((1, 3, 5), (2, 4)),
            ((1, 2, 5), (3, 4)),
        ]

    def test_221_order_mirrors_32(self):
        mirrored = [
            tuple(
                tuple(row[j] for row in rows(t) if j < len(row))
                for j in range(len(rows(t)[0]))
            )
            for t in standard_tableaux(Partition.of(3, 2))
        ]
        assert [rows(t) for t in standard_tableaux(Partition.of(2, 2, 1))] == mirrored

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_count_is_dimension(self, n):
        for f in partitions_of(n):
            assert len(standard_tableaux(f)) == f.dimension


class TestGeneratorMatrices:
    def test_21_generator(self):
        got = generator_matrix(Partition.of(2, 1), 2)
        assert np.allclose(got, [[-0.5, s(3) / 2], [s(3) / 2, 0.5]])

    def test_22_generators(self):
        f = Partition.of(2, 2)
        assert np.allclose(generator_matrix(f, 1), np.diag([1.0, -1.0]))
        assert np.allclose(
            generator_matrix(f, 2),
            [[-0.5, -s(3) / 2], [-s(3) / 2, 0.5]],
        )
        assert np.allclose(generator_matrix(f, 3), np.diag([1.0, -1.0]))

    def test_32_generators(self):
        f = Partition.of(3, 2)
        assert np.allclose(
            generator_matrix(f, 1), np.diag([1.0, -1, 1, -1, 1])
        )
        want_23 = np.eye(5)
        want_23[1:3, 1:3] = [[0.5, s(3 / 4)], [s(3 / 4), -0.5]]
        want_23[3:5, 3:5] = [[0.5, s(3 / 4)], [s(3 / 4), -0.5]]
        assert np.allclose(generator_matrix(f, 2), want_23)
        want_34 = np.diag([0.0, 1, 0, -1, 1])
        want_34[0, 0] = -1 / 3
        want_34[2, 2] = 1 / 3
        want_34[0, 2] = want_34[2, 0] = s(8 / 9)
        assert np.allclose(generator_matrix(f, 3), want_34)
        want_45 = np.zeros((5, 5))
        want_45[0, 0] = 1
        want_45[1, 1] = want_45[2, 2] = -0.5
        want_45[3, 3] = want_45[4, 4] = 0.5
        want_45[1, 3] = want_45[3, 1] = s(3 / 4)
        want_45[2, 4] = want_45[4, 2] = s(3 / 4)
        assert np.allclose(generator_matrix(f, 4), want_45)

    def test_211_s4_generators(self):
        f = Partition.of(2, 1, 1)
        assert np.allclose(generator_matrix(f, 1), np.diag([1.0, -1, -1]))
        assert np.allclose(
            generator_matrix(f, 2),
            [[-0.5, s(3) / 2, 0], [s(3) / 2, 0.5, 0], [0, 0, -1]],
        )
        assert np.allclose(
            generator_matrix(f, 3),
            [[-1, 0, 0], [0, -1 / 3, s(8 / 9)], [0, s(8 / 9), 1 / 3]],
        )

    def test_index_range(self):
        with pytest.raises(ValueError):
            generator_matrix(Partition.of(2, 1), 3)

    # 6 and 7 pin the content rule of the generators past the reference tables
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_involutions_and_braid_relations(self, n):
        for f in partitions_of(n):
            gens = [np.asarray(generator_matrix(f, i)) for i in range(1, n)]
            d = len(gens[0])
            for g in gens:
                assert np.abs(g @ g - np.eye(d)).max() < 1e-12
                assert np.abs(g @ g.T - np.eye(d)).max() < 1e-12
            for i in range(n - 2):
                prod = gens[i] @ gens[i + 1]
                cubed = prod @ prod @ prod
                assert np.abs(cubed - np.eye(d)).max() < 1e-12
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    sq = gens[i] @ gens[j]
                    assert np.abs(sq @ sq - np.eye(d)).max() < 1e-12


class TestRepMatrix:
    def test_identity(self):
        got = rep_matrix(Partition.of(3, 2), Permutation.identity(5))
        assert np.allclose(got, np.eye(5))

    def test_22_full_cycle(self):
        got = rep_matrix(Partition.of(2, 2), Permutation.from_cycles(4, [(1, 2, 3, 4)]))
        assert np.allclose(got, [[-0.5, s(3) / 2], [s(3) / 2, 0.5]])

    def test_coxeter_golden_matrices(self):
        cox5 = coxeter_element(5)
        assert np.allclose(rep_matrix(Partition.of(3, 2), cox5), COXETER_32)
        assert np.allclose(rep_matrix(Partition.of(2, 2, 1), cox5), COXETER_221)
        assert np.allclose(rep_matrix(Partition.of(3, 1, 1), cox5), COXETER_311)
        cox4 = coxeter_element(4)
        assert np.allclose(
            rep_matrix(Partition.of(2, 1, 1), cox4), COXETER_211_S4
        )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_coxeter_order(self, n):
        cox = coxeter_element(n)
        for f in partitions_of(n):
            m = rep_matrix(f, cox)
            assert np.abs(np.linalg.matrix_power(m, n) - np.eye(len(m))).max() < 1e-10

    def test_homomorphism_left_to_right(self):
        rng = np.random.default_rng(5)
        f = Partition.of(3, 1, 1)
        perms = all_perms(5)
        for _ in range(20):
            p, q = (perms[rng.integers(len(perms))] for _ in range(2))
            lhs = np.asarray(rep_matrix(f, p * q))
            rhs = np.asarray(rep_matrix(f, p)) @ np.asarray(rep_matrix(f, q))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_traces_are_characters_s4(self):
        for f in partitions_of(4):
            for p in all_perms(4):
                tr = np.trace(rep_matrix(f, p))
                assert abs(tr - character(f, p.cycle_type())) < 1e-10

    def test_traces_are_characters_s5_sample(self):
        rng = np.random.default_rng(17)
        perms = all_perms(5)
        sample = [perms[i] for i in rng.integers(0, len(perms), size=50)]
        for f in partitions_of(5):
            for p in sample:
                tr = np.trace(rep_matrix(f, p))
                assert abs(tr - character(f, p.cycle_type())) < 1e-10


class TestProjectorsAndFixedVectors:
    def test_projector_22(self):
        got = trivial_projector(Partition.of(2, 2))
        assert np.allclose(got, np.array([[1, s(3)], [s(3), 3]]) / 4)

    def test_projector_211_primed(self):
        got = trivial_projector(Partition.of(2, 1, 1), primed=True)
        assert np.allclose(got, np.diag([0.0, 1.0, 0.0]))

    def test_projector_41_vanishes(self):
        got = trivial_projector(Partition.of(4, 1))
        assert np.abs(got).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_projector_idempotent_with_correct_rank(self, n):
        for f in partitions_of(n):
            p = np.asarray(trivial_projector(f))
            assert np.abs(p @ p - p).max() < 1e-12
            assert round(np.trace(p)) == trivial_multiplicity(f)
            assert abs(np.trace(p) - round(np.trace(p))) < 1e-12

    def test_projector_off_its_spectrum_raises(self, monkeypatch):
        real = youngrep.trivial_projector
        monkeypatch.setattr(youngrep, "trivial_projector",
                            lambda f: 0.9 * np.asarray(real(f)))
        with pytest.raises(ConsistencyError, match="margin"):
            fixed_subspace(Partition.of(3, 1, 1))

    def test_fixed_211(self):
        basis = np.asarray(fixed_subspace(Partition.of(2, 1, 1)))
        assert basis.shape[1] == 1
        assert np.allclose(basis[:, 0], [s(1 / 2), s(1 / 6), s(1 / 3)])

    def test_fixed_22(self):
        assert np.allclose(np.asarray(fixed_subspace(Partition.of(2, 2)))[:, 0], [0.5, s(3 / 4)])

    def test_fixed_32_and_221(self):
        raw = np.array([s(2 / 3), -1, -s(1 / 3), -s(1 / 3), 1])
        want = raw / np.linalg.norm(raw)
        assert np.allclose(np.asarray(fixed_subspace(Partition.of(3, 2)))[:, 0], want)
        raw221 = np.array([s(2 / 3), -1, s(1 / 3), s(1 / 3), 1])
        want221 = raw221 / np.linalg.norm(raw221)
        assert np.allclose(np.asarray(fixed_subspace(Partition.of(2, 2, 1)))[:, 0], want221)

    def test_fixed_311_span(self):
        b = np.asarray(fixed_subspace(Partition.of(3, 1, 1)))
        assert b.shape[1] == 2
        assert np.abs(b.T @ b - np.eye(2)).max() < 1e-12
        q1 = np.array([s(49 / 45), s(2 / 45), s(8 / 15), s(2 / 3), 0, 1])
        q2 = np.array([s(8 / 45), s(49 / 45), -s(1 / 15), s(1 / 3), 1, 0])
        for q in (q1, q2):
            v = q / np.linalg.norm(q)
            residual = np.linalg.norm(b @ (b.T @ v) - v)
            assert residual < 1e-9  # principal angles below 1e-9
        # and the computed columns lie in span(q1, q2)
        qbasis, _ = np.linalg.qr(np.column_stack([q1, q2]))
        for col in b.T:
            residual = np.linalg.norm(qbasis @ (qbasis.T @ col) - col)
            assert residual < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dimension_matches_multiplicity(self, n):
        for f in partitions_of(n):
            assert np.asarray(fixed_subspace(f)).shape[1] == trivial_multiplicity(f)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_gram_schmidt_and_eigh_span_one_space(self, n):
        for f in partitions_of(n):
            basis = np.asarray(fixed_subspace(f))
            other, margin = eigh_fixed_subspace(f)
            assert basis.shape == other.shape and margin < 1e-9, f
            # the Frobenius norm of (I - B B^T) V bounds the sine of every
            # principal angle between the two spans
            assert np.linalg.norm(other - basis @ (basis.T @ other)) <= 1e-10, f

    def test_first_component_sign_convention(self):
        for parts in [(2, 2), (2, 1, 1), (3, 2), (2, 2, 1)]:
            v = np.asarray(fixed_subspace(Partition(parts)))[:, 0]
            lead = next(x for x in v if abs(x) > 1e-9)
            assert lead > 0


class TestIntegerEigenspaces:
    def test_blocks_and_margin(self):
        h = np.diag([1.0, -1e-12, 1.0 + 2e-12, 3.0])
        blocks, margin = integer_eigenspaces(h, -1, 2)
        assert {c: v.shape[1] for c, v in blocks.items()} == {-1: 0, 0: 1, 1: 2, 2: 1}
        assert np.abs(blocks[1].T @ h @ blocks[1] - np.eye(2)).max() < 1e-11
        # 3 is clipped to 2, so an eigenvalue out of range shows in the margin
        assert margin == pytest.approx(1.0)


class TestPrimedRepresentation:
    def test_generators(self):
        gens = [np.asarray(g) for g in tetrahedral_primed_generators()]
        assert len(gens) == 6
        assert np.allclose(gens[1], [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert np.allclose(gens[0], [[1, 0, 0], [0, 0, -1], [0, -1, 0]])
        for g in gens:
            assert np.allclose(g @ g, np.eye(3))
        for i, (a, b) in enumerate(zip(gens[:3], gens[3:]), start=1):
            assert np.allclose(a, -b)
            swap = Permutation.from_cycles(4, [(i, i + 1)])
            assert np.allclose(b, primed_rep_matrix(Partition.of(2, 1, 1), swap))

    def test_primed_coxeter(self):
        got = primed_rep_matrix(Partition.of(2, 1, 1), coxeter_element(4))
        assert np.allclose(got, [[0, 0, -1], [0, 1, 0], [1, 0, 0]])

    def test_primed_traces_match_characters(self):
        for f in (Partition.of(3, 1), Partition.of(2, 1, 1)):
            for p in all_perms(4):
                tr = np.trace(primed_rep_matrix(f, p))
                assert abs(tr - character(f, p.cycle_type())) < 1e-12

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            primed_rep_matrix(Partition.of(2, 2), Permutation.identity(4))

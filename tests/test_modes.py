import math
import tracemalloc

import numpy as np
import pytest

from oracles import act_on_point, cyclic_projector, evaluate_modes, operator_matrix, sample_points
from simplexmodes import modes
from simplexmodes.cli import MAX_TWO_J_MODES
from simplexmodes.modes import (
    SPECTRUM_TOL,
    ModeBasis,
    block_points,
    cyclic_operators,
    lower_dim_modes,
    periodic_basis,
    verify_invariance,
    young_rank,
    young_ranks,
)
from simplexmodes.permgroup import (
    ConsistencyError,
    Partition,
    character,
    partitions_of,
    trivial_multiplicity,
)
from simplexmodes.reduction import (
    S5_PARTITION_ORDER,
    O2Label,
    O3Label,
    multiplicity_o4_s5,
    periodic_count_o4,
)
from simplexmodes.weylaction import (
    act_on_coefficients,
    diagonal_factors,
    transposition_operators,
)
from simplexmodes.youngrep import rep_matrix, standard_tableaux


def dense_isotypic_spans(two_j):
    """The dense route that built the periodic basis before the frame: the
    range of each central isotypic projector times the cyclic projector,
    from the 120 operator matrices and eigh."""
    projector = cyclic_projector(two_j)
    spans = {}
    for f in S5_PARTITION_ORDER:
        if trivial_multiplicity(f):
            central = sum(
                character(f, p.cycle_type()) * mat
                for p, mat in modes._operator_matrices(two_j).items()
            ) * (f.dimension / 120.0)
            vals, vecs = np.linalg.eigh(central @ projector)
            spans[f] = vecs[:, vals > 0.5]
    return spans


def young_operator(two_j, f, row, col):
    """The dense route that gave young_rank before the Jucys-Murphy walk:
    c^f_{row,col} = (dim f / 120) sum_p D^f_{row,col}(p) T_p on the degree-2j
    harmonics, from the 120 operator matrices."""
    return (f.dimension / 120.0) * sum(
        rep_matrix(f, p).matrix[row, col] * mat
        for p, mat in modes._operator_matrices(two_j).items()
    )


def partition_counts(basis):
    counts = {}
    for f in basis.partitions:
        counts[f] = counts.get(f, 0) + 1
    return counts


class TestCyclicProjector:
    def test_group_closure(self):
        ops = cyclic_operators()
        assert len(ops) == 5
        assert not any(op.reflective for op in ops)
        assert ops[0].g_l.isclose(ops[0].g_r) and ops[0].g_l.z1 == 1.0

    def test_degree_zero(self):
        p = cyclic_projector(0)
        assert p.shape == (1, 1)
        assert abs(p[0, 0] - 1.0) < 1e-12

    def test_degree_one_vanishes(self):
        assert np.abs(cyclic_projector(1)).max() < 1e-12

    @pytest.mark.parametrize("two_j", range(11))
    def test_hermitian_idempotent_with_correct_rank(self, two_j):
        p = cyclic_projector(two_j)
        assert np.abs(p - p.conj().T).max() < 1e-10
        assert np.abs(p @ p - p).max() < 1e-9
        rank = int(round(np.trace(p).real))
        assert abs(np.trace(p).real - rank) < 1e-8
        assert rank == periodic_count_o4(two_j)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            cyclic_projector(-1)


class TestPeriodicBasis:
    @pytest.mark.parametrize("two_j,count", [(0, 1), (1, 0), (2, 1), (3, 4), (4, 5)])
    def test_counts(self, two_j, count):
        assert periodic_basis(two_j).count == count

    def test_columns_orthonormal_and_fixed(self):
        for two_j in (2, 3, 4, 5):
            basis = periodic_basis(two_j)
            c = basis.coefficients
            assert np.abs(c.conj().T @ c - np.eye(basis.count)).max() < 1e-10
            p = cyclic_projector(two_j)
            assert np.abs(p @ c - c).max() < 1e-9

    def test_partition_tags(self):
        basis = periodic_basis(5)
        counts = {}
        for f in basis.partitions:
            counts[f.parts] = counts.get(f.parts, 0) + 1
        for parts, got in counts.items():
            f = Partition(parts)
            assert got == multiplicity_o4_s5(5, f) * trivial_multiplicity(f)
        assert sum(counts.values()) == periodic_count_o4(5)

    def test_stable_under_deck_operators(self):
        basis = periodic_basis(4)
        c = basis.coefficients
        for op in cyclic_operators():
            moved = operator_matrix(2, op) @ c
            gram = moved.conj().T @ moved
            assert np.abs(gram - np.eye(basis.count)).max() < 1e-9
            # and each column is individually fixed
            assert np.abs(moved - c).max() < 1e-9

    def test_phase_canonicalization(self):
        basis = periodic_basis(3)
        for col in basis.coefficients.T:
            lead = next(v for v in col if abs(v) > 1e-8)
            assert abs(lead.imag) < 1e-10
            assert lead.real > 0

    def test_deterministic(self):
        a = periodic_basis(3).coefficients
        b = periodic_basis(3).coefficients
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("two_j", range(13))
    def test_spans_equal_dense_isotypic_route(self, two_j):
        basis = periodic_basis(two_j)
        spans = dense_isotypic_spans(two_j)
        tags = np.array(basis.partitions, dtype=object)
        assert partition_counts(basis) == {f: v.shape[1] for f, v in spans.items() if v.shape[1]}
        for f, old in spans.items():
            new = basis.coefficients[:, tags == f]
            # sine of the largest principal angle between equal-dimensional spans
            sine = np.linalg.norm(new - old @ (old.conj().T @ new), 2) if old.shape[1] else 0.0
            assert sine <= 1e-10, (two_j, f)

    def test_reach_at_the_modes_cap(self):
        two_j = MAX_TWO_J_MODES
        tracemalloc.start()
        basis = periodic_basis(two_j)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # no (2j+1)^2 x (2j+1)^2 array: one complex one takes 6.25 MB at 2j = 24
        assert peak < 16 * (two_j + 1) ** 4
        assert partition_counts(basis) == {
            f: multiplicity_o4_s5(two_j, f) * trivial_multiplicity(f)
            for f in S5_PARTITION_ORDER
            if multiplicity_o4_s5(two_j, f) * trivial_multiplicity(f)
        }
        c = basis.coefficients
        assert np.abs(c.conj().T @ c - np.eye(basis.count)).max() < 1e-10
        assert verify_invariance(basis, 30, 20080514) < 1e-9
        # the bound is the command line's; the library goes on
        assert periodic_basis(two_j + 1).count == periodic_count_o4(two_j + 1)
        with pytest.raises(ValueError):
            periodic_basis(-1)

    @pytest.mark.parametrize("two_j,bound", [(12, 2e-14), (24, 1e-13)])
    def test_blocks_orthogonal_to_rounding(self, two_j, bound):
        # eigh leaves ~1e-15 between the tag blocks; the rest is the frame's
        # own rounding
        c = periodic_basis(two_j).coefficients
        assert np.abs(c.conj().T @ c - np.eye(c.shape[1])).max() < bound

    @pytest.mark.parametrize("two_j", [5, 12, 24])
    def test_columns_ignore_the_eigenvectors_returned(self, two_j, monkeypatch):
        # pivoting on projected lattice vectors picks the same columns from
        # any orthonormal basis of each tag block
        want = periodic_basis(two_j).coefficients
        rng, real = np.random.default_rng(two_j), modes.integer_eigenspaces

        def rotated(h, lo, hi):
            blocks, margin = real(h, lo, hi)
            for c, v in blocks.items():
                z = rng.normal(size=(v.shape[1],) * 2) + 1j * rng.normal(size=(v.shape[1],) * 2)
                blocks[c] = v @ np.linalg.qr(z)[0]
            return blocks, margin

        monkeypatch.setattr(modes, "integer_eigenspaces", rotated)
        assert np.abs(periodic_basis(two_j).coefficients - want).max() < 1e-10

    @pytest.mark.parametrize("two_j", [0, 1, 5, 12, 17, 24])
    def test_margins(self, two_j):
        basis = periodic_basis(two_j)
        assert 0.0 <= basis.spectrum_margin <= SPECTRUM_TOL
        assert 0.0 <= basis.trace_margin <= SPECTRUM_TOL


class TestDiagonalFrame:
    def test_content_sums(self):
        got = {str(f): f.content_sum for f in S5_PARTITION_ORDER if trivial_multiplicity(f)}
        assert got == {"[5]": 10, "[11111]": -10, "[32]": 2, "[221]": -2, "[311]": 0}

    def test_transposition_sum_is_central(self):
        # the sum commutes with the deck generator on the whole harmonic space
        ops = transposition_operators()
        two_j = 4
        rng = np.random.default_rng(3)
        c = rng.normal(size=(25, 6)) + 1j * rng.normal(size=(25, 6))
        gen = cyclic_operators()[1:2]
        both = act_on_coefficients(two_j, gen, act_on_coefficients(two_j, ops, c))
        back = act_on_coefficients(two_j, ops, act_on_coefficients(two_j, gen, c))
        assert np.abs(both - back).max() < 1e-12

    @pytest.mark.parametrize("two_j", [1, 6, 11, 24])
    def test_generator_phases_match_the_lattice(self, two_j):
        # every frame harmonic x_a y_b^T, on or off the lattice, is an
        # eigenvector of the deck generator with phase exp(i pi (3a + b) / 5)
        gen = cyclic_operators()[1]
        x, y, rot_l, rot_r = diagonal_factors(two_j, gen)
        dim = two_j + 1
        frame = np.einsum("ia,jb->ijab", x, y).reshape(dim * dim, dim * dim)
        twice_m = np.arange(-two_j, two_j + 1, 2)
        a, b = np.meshgrid(twice_m, twice_m, indexing="ij")
        phases = np.exp(1j * np.pi * (3 * a + b) / 5)
        assert np.abs(np.outer(rot_l.diagonal(), rot_r.diagonal()) - phases).max() < 1e-12
        moved = act_on_coefficients(two_j, [gen], frame)
        assert np.abs(moved - frame * phases.reshape(-1)).max() < 1e-12
        on_lattice = (3 * a + b) % 10 == 0
        assert np.abs(phases[on_lattice] - 1).max(initial=0.0) < 1e-12
        assert np.abs(phases[~on_lattice] - 1).min(initial=2.0) > 0.6
        assert on_lattice.sum() == periodic_count_o4(two_j)
        assert np.abs(frame.conj().T @ frame - np.eye(dim * dim)).max() < 1e-12

    def test_generator_frames_keep_their_bits(self):
        # the modes output depends on these floats to the last bit: Python's
        # complex / float quotient differs from numpy's in the last bit
        gen = cyclic_operators()[1]
        h_l, h_r = gen.g_l.inverse().diagonal_frame(), gen.g_r.diagonal_frame()
        assert h_l.z1 == -0.09182990452765136 + 0.8901223208852901j
        assert h_l.z2 == -1.3076010599823187e-16 + 0.44637374754372294j
        assert h_r.z1 == 0.8110900028781493 - 0.1673529935830729j
        assert h_r.z2 == 0.5604694307184896j

    def test_frames_of_another_operator_raise(self, monkeypatch):
        squared = cyclic_operators()[2]
        real = modes.diagonal_factors
        monkeypatch.setattr(modes, "diagonal_factors", lambda two_j, op: real(two_j, squared))
        with pytest.raises(ConsistencyError, match="generator phases off"):
            periodic_basis(4)

    def test_pivots_break_ties_in_lattice_order(self):
        # the last column is the largest, but within the tie window of the others
        a = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1 + 1e-12]], dtype=complex)
        out = modes._pivoted_gram_schmidt(a)
        # output column i is the residual of the column of a it pivoted on
        assert np.array_equal(np.abs(a.conj().T @ out).argmax(axis=0), [1, 2, 3])
        assert np.abs(out.conj().T @ out - np.eye(3)).max() < 1e-15

    def test_tags_split_the_transposition_sum(self):
        # the dense transposition sum on the periodic columns acts by the tags' contents
        basis = periodic_basis(9)
        tsum = sum(operator_matrix(4.5, op) for op in transposition_operators())
        moved = tsum @ basis.coefficients
        contents = np.array([f.content_sum for f in basis.partitions])
        assert np.abs(moved - basis.coefficients * contents).max() < 1e-12


class TestYoungOperators:
    def test_composition_rule(self):
        f = Partition.of(3, 2)
        g = Partition.of(2, 2, 1)
        two_j = 2
        c_f_01 = young_operator(two_j, f, 0, 1)
        c_f_11 = young_operator(two_j, f, 1, 1)
        c_f_00 = young_operator(two_j, f, 0, 0)
        c_f_10 = young_operator(two_j, f, 1, 0)
        # c^f_{0,1} c^f_{1,1} = c^f_{0,1} and c^f_{0,1} c^f_{0,0} = 0
        assert np.abs(c_f_01 @ c_f_11 - c_f_01).max() < 1e-9
        assert np.abs(c_f_01 @ c_f_00).max() < 1e-9
        # c^f_{1,0} c^f_{0,1} = c^f_{1,1}; mixed partitions annihilate
        assert np.abs(c_f_10 @ c_f_01 - c_f_11).max() < 1e-9
        c_g = young_operator(two_j, g, 0, 1)
        assert np.abs(c_g @ c_f_11).max() < 1e-9

    def test_adjoint_rule(self):
        f = Partition.of(3, 1, 1)
        for two_j in (1, 3):
            a = young_operator(two_j, f, 0, 2)
            b = young_operator(two_j, f, 2, 0)
            assert np.abs(a.conj().T - b).max() < 1e-9

    def test_diagonal_operators_are_projectors(self):
        f = Partition.of(3, 2)
        c = young_operator(4, f, 2, 2)
        assert np.abs(c @ c - c).max() < 1e-9
        assert np.abs(c - c.conj().T).max() < 1e-9

    @pytest.mark.parametrize("two_j", range(5))
    def test_leaf_spaces_equal_dense_diagonal_operators(self, two_j):
        leaves, _ = modes._jucys_murphy_leaves(two_j)
        empty = np.zeros(((two_j + 1) ** 2, 0))
        for f in partitions_of(5):
            for r, t in enumerate(standard_tableaux(f)):
                b = leaves.get(t.contents, empty)
                assert np.abs(b @ b.conj().T - young_operator(two_j, f, r, r)).max() < 1e-10

    @pytest.mark.parametrize("two_j", range(13))
    def test_rank_equals_multiplicity(self, two_j):
        ranks = young_ranks(two_j)
        for f in partitions_of(5):
            assert ranks[f] == multiplicity_o4_s5(two_j, f)

    def test_one_walk_gives_every_rank(self, monkeypatch):
        walks = []
        real = modes._jucys_murphy_leaves
        monkeypatch.setattr(modes, "_jucys_murphy_leaves", lambda t: walks.append(t) or real(t))
        ranks = young_ranks(6)
        assert walks == [6]
        assert set(ranks) == set(partitions_of(5))
        assert all(young_rank(6, f) == n for f, n in ranks.items())

    def test_reach_at_the_modes_cap(self):
        two_j = MAX_TWO_J_MODES
        tracemalloc.start()
        leaves, margin = modes._jucys_murphy_leaves(two_j)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the dense route would hold 120 complex (2j+1)^2 x (2j+1)^2 arrays, 6.25 MB each
        assert peak < 64e6
        counts = {
            t: leaves[t.contents].shape[1] if t.contents in leaves else 0
            for f in partitions_of(5) for t in standard_tableaux(f)
        }
        assert all(n == multiplicity_o4_s5(two_j, t.shape) for t, n in counts.items())
        assert sum(counts.values()) == (two_j + 1) ** 2
        assert 0.0 <= margin <= SPECTRUM_TOL

    @pytest.mark.parametrize("two_j,f", [(3, Partition.of(4)),
                                         (-1, Partition.of(5)), (2, Partition.of(3, 1))])
    def test_range_guards(self, two_j, f):
        with pytest.raises(ValueError):
            young_rank(two_j, f)

    @pytest.mark.parametrize("two_j", [-1, -3])
    def test_negative_degree_is_named(self, two_j):
        with pytest.raises(ValueError, match=f"non-negative integer, got {two_j}$"):
            young_ranks(two_j)

    def test_another_operator_in_the_sums_raises(self, monkeypatch):
        ops = list(transposition_operators())
        ops[0] = cyclic_operators()[1]  # the deck generator in place of (1 2)
        monkeypatch.setattr(modes, "transposition_operators", lambda: tuple(ops))
        with pytest.raises(ConsistencyError, match="margin"):
            young_rank(4, Partition.of(3, 2))

    @pytest.mark.parametrize("two_j", range(7))
    def test_rank_dimension_budget(self, two_j):
        total = sum(young_rank(two_j, f) * f.dimension for f in partitions_of(5))
        assert total == (two_j + 1) ** 2

    def test_spec_examples(self):
        assert young_rank(2, Partition.of(3, 2)) == 1
        assert young_rank(3, Partition.of(3, 1, 1)) == 1
        assert young_rank(0, Partition.of(5)) == 1
        for f in partitions_of(5):
            if f != Partition.of(5):
                assert young_rank(0, f) == 0


class TestInvariance:
    def test_sampling_is_deterministic(self):
        a = sample_points(5, 42)
        b = sample_points(5, 42)
        assert all(x.u.isclose(y.u) for x, y in zip(a, b))
        assert a[0].seed == 42 and a[3].index == 3

    @pytest.mark.parametrize("two_j", [0, 2, 3, 4, 5])
    def test_periodic_modes_are_invariant(self, two_j):
        basis = periodic_basis(two_j)
        assert verify_invariance(basis, 100, 20080514) < 1e-9

    def test_negative_control(self):
        # a degree-1 harmonic cannot be periodic: no invariants exist there
        coeffs = np.zeros((4, 1), dtype=complex)
        coeffs[0, 0] = 1.0
        rogue = ModeBasis(1, coeffs, (None,))
        assert verify_invariance(rogue, 100, 20080514) > 0.1

    def test_sample_stream_is_pinned(self):
        got = list(zip(*modes._sample_pairs(3, 20080514)))
        assert got == [
            (complex(-0.27766946726402253, -0.3838068813463759),
             complex(0.6610041258354584, 0.5819497318574725)),
            (complex(0.07695470468035252, 0.8697153743190731),
             complex(-0.1263948718614057, -0.4708476159732926)),
            (complex(0.4594141428528585, 0.8349700178629023),
             complex(-0.01387498426919066, 0.30260733538420354)),
        ]

    @pytest.mark.parametrize("points", [0, -1])
    def test_no_samples_raises(self, points):
        with pytest.raises(ValueError):
            verify_invariance(periodic_basis(2), points, 20080514)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_blocks_agree_with_pointwise_evaluation(self, periodic):
        two_j = 8
        basis = periodic_basis(two_j)
        if not periodic:  # a generic combination, far from invariant
            rng = np.random.default_rng(6)
            shape = (basis.coefficients.shape[0], 3)
            basis = ModeBasis(two_j, rng.normal(size=shape) + 0j, (None,) * 3)
        block, seed = block_points(two_j), 47
        pointwise = []
        for sample in sample_points(block + 1, seed):
            here = evaluate_modes(basis, sample.u)
            pointwise.append(max(
                np.abs(evaluate_modes(basis, act_on_point(op, sample.u)) - here).max()
                for op in cyclic_operators()
            ))
        if not periodic:  # the seed puts the largest deviation on the lone last point
            assert np.argmax(pointwise) == block
        for n in (block - 1, block, block + 1):
            want = max(pointwise[:n])  # block and pointwise products round apart
            got = verify_invariance(basis, n, seed)
            assert got == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_identity_operator_is_skipped(self, monkeypatch):
        # one wigner_rows call for the sample and one for each of the four
        # non-identity deck operators, per block
        two_j = 6
        basis = periodic_basis(two_j)
        calls = []
        real = modes.wigner_rows
        monkeypatch.setattr(modes, "wigner_rows", lambda *a: calls.append(1) or real(*a))
        verify_invariance(basis, 2 * block_points(two_j) + 1, 5)  # three blocks
        assert len(calls) == 3 * 5


class TestLowerDimensionalModes:
    def test_circle_allowed(self):
        desc = lower_dim_modes("circle", O2Label(3, 1))
        assert desc.allowed
        assert desc.components[0].partition == Partition.of(3)
        amp = 1 / math.sqrt(2)
        assert np.allclose(desc.components[0].coefficients, (amp, -amp))

    def test_circle_constant(self):
        desc = lower_dim_modes("circle", O2Label(0))
        assert desc.allowed
        assert desc.components[0].coefficients == (1.0,)

    def test_circle_excluded(self):
        desc = lower_dim_modes("circle", O2Label(2, 1))
        assert not desc.allowed
        assert desc.reason == "excluded by selection rule"
        assert desc.components == ()

    def test_sphere_excluded(self):
        desc = lower_dim_modes("sphere2", O3Label(1, -1))
        assert not desc.allowed

    def test_sphere_allowed(self):
        desc = lower_dim_modes("sphere2", O3Label(3, -1))
        assert desc.allowed
        partitions = sorted(str(c.partition) for c in desc.components)
        assert partitions == ["[211]", "[4]"]
        vec = next(
            c.coefficients
            for c in desc.components
            if c.partition == Partition.of(2, 1, 1)
        )
        want = (math.sqrt(1 / 2), math.sqrt(1 / 6), math.sqrt(1 / 3))
        assert np.allclose(vec, want)

    def test_label_type_guard(self):
        with pytest.raises(ValueError):
            lower_dim_modes("circle", O3Label(1, -1))
        with pytest.raises(ValueError):
            lower_dim_modes("torus", O2Label(0))

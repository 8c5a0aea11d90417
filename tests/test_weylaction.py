import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import act_on_point, operator_matrix, wigner_d
from simplexmodes.permgroup import CycleType, Permutation, coxeter_element
from simplexmodes.su2wigner import Point4, SU2Element
from simplexmodes.weylaction import (
    CLASS_ORDER_S5,
    GroupOperator,
    WeylVector,
    act_on_coefficients,
    act_on_points,
    class_character,
    class_character_table,
    class_operators,
    class_representatives,
    compose,
    diagonal_factors,
    operator_character,
    operator_factors,
    operator_matrices,
    permutation_operator,
    reflection_operator,
    transposition_operators,
    weyl_vectors_s5,
)

s = math.sqrt

#: characters chi^{(j,j)}(k) for 2j = 0..5, in CLASS_ORDER_S5 row order
CLASS_CHARACTERS = {
    (1, 1, 1, 1, 1): [1, 4, 9, 16, 25, 36],
    (2, 1, 1, 1): [1, 2, 3, 4, 5, 6],
    (3, 1, 1): [1, 1, 0, 1, 1, 0],
    (2, 2, 1): [1, 0, 1, 0, 1, 0],
    (3, 2): [1, -1, 0, 1, -1, 0],
    (4, 1): [1, 0, -1, 0, 1, 0],
    (5,): [1, -1, -1, 1, 0, 1],
}

GOLDEN_ROTATION_PAIRS = {
    (3, 1, 1): np.array([[0.5, -1j * s(3) / 2], [-1j * s(3) / 2, 0.5]]),
    (2, 2, 1): np.array([
        [0, (s(2) - 1j) / s(3)],
        [-(s(2) + 1j) / s(3), 0],
    ]),
}

GOLDEN_GRGL = {
    (3, 2): np.array([[-0.5, -1j * s(3) / 2], [-1j * s(3) / 2, -0.5]]),
    (4, 1): np.array([
        [-1j / s(2), -(s(2) + 2j) / (2 * s(3))],
        [(s(2) - 2j) / (2 * s(3)), 1j / s(2)],
    ]),
}

G5 = s(5)
GOLDEN_5_GL = np.array([
    [(2 - 2 * G5 - 1j * (s(2) + s(10))) / 8,
     (3 * s(2) - s(10) + 1j * (-6 - 2 * G5)) / (8 * s(3))],
    [(-3 * s(2) + s(10) + 1j * (-6 - 2 * G5)) / (8 * s(3)),
     (2 - 2 * G5 + 1j * (s(2) + s(10))) / 8],
])
GOLDEN_5_GR = np.array([
    [(2 + 2 * G5 + 1j * (-s(2) + s(10))) / 8,
     (3 * s(2) + s(10) + 1j * (-6 + 2 * G5)) / (8 * s(3))],
    [(-3 * s(2) - s(10) + 1j * (-6 + 2 * G5)) / (8 * s(3)),
     (2 + 2 * G5 + 1j * (s(2) - s(10))) / 8],
])


def random_point(rng):
    x = rng.normal(size=4)
    return Point4.from_array(x / np.linalg.norm(x))


def random_su2(rng):
    from simplexmodes.su2wigner import su2_from_point

    return su2_from_point(random_point(rng))


class TestWeylVectors:
    def test_first_vector(self):
        vectors = weyl_vectors_s5()
        assert vectors[0].a == Point4(0.0, 0.0, 0.0, 1.0)

    def test_gram_matrix(self):
        pts = np.array([w.a.as_array() for w in weyl_vectors_s5()])
        gram = pts @ pts.T
        want = np.array([
            [1, 0.5, 0, 0], [0.5, 1, 0.5, 0], [0, 0.5, 1, 0.5], [0, 0, 0.5, 1]
        ])
        assert np.abs(gram - want).max() < 1e-15

    def test_v_matrices(self):
        v = [w.v.matrix() for w in weyl_vectors_s5()]
        assert np.allclose(v[0], [[-1j, 0], [0, 1j]])
        assert np.allclose(v[1], [[-0.5j, -s(3) / 2], [s(3) / 2, 0.5j]])
        want3 = np.array([
            [0, -(s(1 / 3) + 1j * s(2 / 3))],
            [s(1 / 3) - 1j * s(2 / 3), 0],
        ])
        assert np.allclose(v[2], want3)
        assert np.allclose(
            v[3], [[s(5 / 8), -1j * s(3 / 8)], [-1j * s(3 / 8), s(5 / 8)]]
        )


class TestReflectionOperators:
    def test_base_point_gives_pure_reflection(self):
        op = reflection_operator(WeylVector.from_point(Point4(1.0, 0.0, 0.0, 0.0)))
        assert op.reflective
        assert op.g_l.isclose(SU2Element.identity())
        assert op.g_r.isclose(SU2Element.identity())

    def test_first_generator(self):
        op = reflection_operator(weyl_vectors_s5()[0])
        assert np.allclose(op.g_l.matrix(), [[-1j, 0], [0, 1j]])
        assert np.allclose(op.g_r.matrix(), [[1j, 0], [0, -1j]])

    def test_involution(self):
        for w in weyl_vectors_s5():
            op = reflection_operator(w)
            sq = compose(op, op)
            assert not sq.reflective
            assert sq.g_l.isclose(SU2Element.identity())
            assert sq.g_r.isclose(SU2Element.identity())

    def test_acts_as_weyl_reflection(self):
        # independent geometric oracle: x -> x - 2 <x,a> a
        rng = np.random.default_rng(21)
        for w in weyl_vectors_s5():
            a = w.a.as_array()
            op = reflection_operator(w)
            for _ in range(20):
                p = random_point(rng)
                x = p.as_array()
                want = x - 2 * float(x @ a) * a
                from simplexmodes.su2wigner import su2_from_point

                got = act_on_point(op, su2_from_point(p)).point().as_array()
                assert np.abs(got - want).max() < 1e-12


class TestCompose:
    def test_identity_neutral(self):
        op = permutation_operator(Permutation.from_cycles(5, [(1, 2), (2, 3)]))
        e = GroupOperator.identity()
        for left, right in ((op, e), (e, op)):
            c = compose(left, right)
            assert c.reflective == op.reflective
            assert c.g_l.isclose(op.g_l) and c.g_r.isclose(op.g_r)

    def test_two_reflection_pattern(self):
        vecs = weyl_vectors_s5()
        for b, a in itertools.permutations(range(4), 2):
            got = compose(reflection_operator(vecs[b]), reflection_operator(vecs[a]))
            assert not got.reflective
            want_l = vecs[b].v * vecs[a].v.inverse()
            want_r = vecs[b].v.inverse() * vecs[a].v
            assert got.g_l.isclose(want_l, tol=1e-12)
            assert got.g_r.isclose(want_r, tol=1e-12)

    def test_three_and_four_reflection_patterns(self):
        vecs = weyl_vectors_s5()
        v = [w.v for w in vecs]
        ops = [reflection_operator(w) for w in vecs]
        three = compose(ops[0], compose(ops[1], ops[2]))
        assert three.reflective
        assert three.g_l.isclose(v[0] * v[1].inverse() * v[2], tol=1e-12)
        assert three.g_r.isclose(v[0].inverse() * v[1] * v[2].inverse(), tol=1e-12)
        four = compose(three, ops[3])
        assert not four.reflective
        assert four.g_l.isclose(
            v[0] * v[1].inverse() * v[2] * v[3].inverse(), tol=1e-12
        )
        assert four.g_r.isclose(
            v[0].inverse() * v[1] * v[2].inverse() * v[3], tol=1e-12
        )


class TestPermutationOperator:
    def test_identity(self):
        op = permutation_operator(Permutation.identity(5))
        assert not op.reflective
        assert op.g_l.isclose(SU2Element.identity())

    def test_reflective_flag_is_parity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            images = rng.permutation(np.arange(1, 6))
            p = Permutation(tuple(int(v) for v in images))
            assert permutation_operator(p).reflective == (p.parity() == 1)

    def test_golden_rotation_pairs(self):
        reps = class_representatives()
        for parts, want in GOLDEN_ROTATION_PAIRS.items():
            op = permutation_operator(reps[CycleType(parts)])
            assert not op.reflective
            assert np.abs(op.g_l.matrix() - want).max() < 1e-12
            assert np.abs(op.g_r.matrix() - want).max() < 1e-12

    def test_golden_reflective_products(self):
        reps = class_representatives()
        for parts, want in GOLDEN_GRGL.items():
            op = permutation_operator(reps[CycleType(parts)])
            assert op.reflective
            got = (op.g_r * op.g_l).matrix()
            assert np.abs(got - want).max() < 1e-12

    def test_golden_coxeter_pair_up_to_joint_sign(self):
        op = permutation_operator(class_representatives()[CycleType((5,))])
        direct = max(
            np.abs(op.g_l.matrix() - GOLDEN_5_GL).max(),
            np.abs(op.g_r.matrix() - GOLDEN_5_GR).max(),
        )
        flipped = max(
            np.abs(op.g_l.matrix() + GOLDEN_5_GL).max(),
            np.abs(op.g_r.matrix() + GOLDEN_5_GR).max(),
        )
        assert min(direct, flipped) < 1e-12

    def test_well_defined_on_random_factorizations(self):
        # composing operators must agree with the operator of the product,
        # up to the shared sign of the rotation pair
        rng = np.random.default_rng(24)
        for _ in range(20):
            a = Permutation(tuple(int(v) for v in rng.permutation(np.arange(1, 6))))
            b = Permutation(tuple(int(v) for v in rng.permutation(np.arange(1, 6))))
            left = compose(permutation_operator(a), permutation_operator(b))
            right = permutation_operator(a * b)
            assert left.reflective == right.reflective
            same = left.g_l.isclose(right.g_l, 1e-12) and left.g_r.isclose(
                right.g_r, 1e-12
            )
            flip = left.g_l.isclose(-right.g_l, 1e-12) and left.g_r.isclose(
                -right.g_r, 1e-12
            )
            assert same or flip


class TestAction:
    def test_identity_action(self):
        rng = np.random.default_rng(25)
        u = random_su2(rng)
        got = act_on_point(GroupOperator.identity(), u)
        assert got.isclose(u, tol=1e-12)

    def test_base_reflection_action(self):
        rng = np.random.default_rng(26)
        base = GroupOperator(SU2Element.identity(), SU2Element.identity(), True)
        for _ in range(10):
            u = random_su2(rng)
            x = u.point()
            got = act_on_point(base, u).point()
            assert np.allclose(
                got.as_array(), [-x.x0, x.x1, x.x2, x.x3], atol=1e-12
            )

    def test_deck_generator_is_fixpoint_free(self):
        rng = np.random.default_rng(27)
        gen = permutation_operator(coxeter_element(5))
        assert not gen.reflective
        worst = math.inf
        for _ in range(1000):
            u = random_su2(rng)
            w = act_on_point(gen, u)
            inner = 0.5 * np.real(np.trace(u.matrix().conj().T @ w.matrix()))
            worst = min(worst, math.acos(min(1.0, max(-1.0, inner))))
        assert worst > 0.5

    def test_action_composes_left_factor_first(self):
        rng = np.random.default_rng(28)
        a = permutation_operator(Permutation.from_cycles(5, [(1, 2)]))
        b = permutation_operator(Permutation.from_cycles(5, [(2, 3), (4, 5)]))
        ab = compose(a, b)
        for _ in range(10):
            u = random_su2(rng)
            step = act_on_point(b, act_on_point(a, u))
            assert act_on_point(ab, u).isclose(step, tol=1e-12)


def all_s5_operators() -> list[GroupOperator]:
    return [permutation_operator(Permutation(p)) for p in itertools.permutations(range(1, 6))]


def python_product(a: tuple[complex, complex], b: tuple[complex, complex]):
    """SU(2) product of (z1, z2) pairs in Python complex arithmetic."""
    (a1, a2), (b1, b2) = map(complex, a), map(complex, b)
    return a1 * b1 - a2 * b2.conjugate(), a1 * b2 + a2 * b1.conjugate()


class TestBatchedAction:
    def test_points_move_as_python_products_do(self):
        rng = np.random.default_rng(32)
        # enough points for numpy's vectorized loops, whose complex products
        # round differently from Python's
        us = [random_su2(rng) for _ in range(64)] + [SU2Element.identity(), SU2Element(0j, 1j)]
        z1, z2 = np.array([u.z1 for u in us]), np.array([u.z2 for u in us])
        ops = all_s5_operators()
        assert {op.reflective for op in ops} == {False, True}
        for op in ops:
            w1, w2 = act_on_points(op, z1, z2)
            for a, b, u in zip(w1, w2, us):
                one = act_on_point(op, u)
                assert (a, b) == (one.z1, one.z2)
                assert np.signbit([a.real, a.imag, b.real, b.imag]).tolist() == np.signbit(
                    [one.z1.real, one.z1.imag, one.z2.real, one.z2.imag]).tolist()
                # g_l^-1 u g_r, or g_r^-1 (-u^dagger) g_l for a reflective operator
                left, right = (op.g_r, op.g_l) if op.reflective else (op.g_l, op.g_r)
                z = (-u.z1.conjugate(), u.z2) if op.reflective else (u.z1, u.z2)
                inv = left.inverse()
                z = python_product(python_product((inv.z1, inv.z2), z), (right.z1, right.z2))
                assert max(abs(a - z[0]), abs(b - z[1])) <= 1e-15

    def test_operator_matrices_equal_one_by_one(self):
        ops = all_s5_operators()
        for two_j in (0, 1, 4):
            j = Fraction(two_j, 2)
            for op, m in zip(ops, operator_matrices(j, ops)):
                assert np.array_equal(m, operator_matrix(j, op))

    @pytest.mark.parametrize("two_j", [-1, -3])
    def test_negative_degree_is_named(self, two_j):
        ops = transposition_operators()
        with pytest.raises(ValueError, match=f"non-negative integer, got {two_j}$"):
            act_on_coefficients(two_j, ops, np.eye((two_j + 1) ** 2, dtype=complex))

    def test_transposition_operators(self):
        ops = transposition_operators()
        assert len(ops) == 10 and all(op.reflective for op in ops)
        want = [permutation_operator(Permutation.from_cycles(5, [pair]))
                for pair in itertools.combinations(range(1, 6), 2)]
        assert list(ops) == want

    @pytest.mark.parametrize("two_j", [1, 2, 9])
    def test_diagonal_factors(self, two_j):
        rotations = [op for op in all_s5_operators() if not op.reflective]
        for op in rotations[1:12]:
            x, y, rot_l, rot_r = diagonal_factors(two_j, op)
            left, right = operator_factors(two_j, [op])[0]
            for rot in (rot_l, rot_r):
                assert np.abs(rot - np.diag(rot.diagonal())).max() < 1e-12
            # L^T x_a = rot_l[a, a] x_a and R^T conj(y_b) = rot_r[b, b] conj(y_b)
            assert np.abs(left.T @ x - x * rot_l.diagonal()).max() < 1e-12
            assert np.abs(right.T @ y.conj() - y.conj() * rot_r.diagonal()).max() < 1e-12
        with pytest.raises(ValueError):
            diagonal_factors(two_j, transposition_operators()[0])

    @pytest.mark.parametrize("two_j", [0, 1, 4, 7])
    def test_factored_action_equals_the_dense_matrices(self, two_j):
        ops = all_s5_operators()
        rng = np.random.default_rng(two_j)
        shape = ((two_j + 1) ** 2, 3)
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dense = operator_matrices(Fraction(two_j, 2), ops)
        for op, m in zip(ops, dense):
            assert np.abs(act_on_coefficients(two_j, [op], coeffs) - m @ coeffs).max() < 1e-13
        total = act_on_coefficients(two_j, ops, coeffs)
        assert np.abs(total - sum(dense) @ coeffs).max() < 1e-11


class TestCharactersAndMatrices:
    def test_single_reflection_character(self):
        reps = class_representatives()
        op = permutation_operator(reps[CycleType((2, 1, 1, 1))])
        for two_j in (0, 1, 2, 7, 12):
            got = operator_character(Fraction(two_j, 2), op)
            assert abs(got - (two_j + 1)) < 1e-12
        # independent of which reflection vector realizes it
        for w in weyl_vectors_s5():
            got = operator_character(3, reflection_operator(w))
            assert abs(got - 7) < 1e-12

    def test_character_values_table(self):
        rows = {r.cycle_type.parts: r for r in class_character_table(5)}
        for parts, want in CLASS_CHARACTERS.items():
            got = rows[parts].values
            assert np.abs(np.array(got) - np.array(want)).max() < 1e-12

    def test_half_angle_data(self):
        rows = {r.cycle_type.parts: r for r in class_character_table(0)}
        assert np.allclose(rows[(1, 1, 1, 1, 1)].half_angles, [0.0, 0.0])
        assert np.allclose(rows[(2, 1, 1, 1)].half_angles, [0.0])
        assert np.allclose(rows[(3, 1, 1)].half_angles, [math.pi / 3, math.pi / 3])
        assert np.allclose(rows[(2, 2, 1)].half_angles, [math.pi / 2, math.pi / 2])
        assert np.allclose(rows[(3, 2)].half_angles, [2 * math.pi / 3])
        assert np.allclose(rows[(4, 1)].half_angles, [math.pi / 2])
        assert np.allclose(
            sorted(rows[(5,)].half_angles), [math.pi / 5, 3 * math.pi / 5]
        )

    def test_character_recursions_to_60(self):
        rows = {r.cycle_type.parts: r for r in class_character_table(60)}
        periods = {(3, 1, 1): 3, (2, 2, 1): 2, (3, 2): 3, (4, 1): 4, (5,): 5}
        for parts, period in periods.items():
            vals = rows[parts].values
            for t in range(61 - period):
                assert abs(vals[t + period] - vals[t]) < 1e-8
        for t in range(61):
            assert abs(rows[(1, 1, 1, 1, 1)].values[t] - (t + 1) ** 2) < 1e-8
            assert abs(rows[(2, 1, 1, 1)].values[t] - (t + 1)) < 1e-8

    def test_period_sixty(self):
        ops = class_operators()
        for parts in [(3, 1, 1), (2, 2, 1), (3, 2), (4, 1), (5,)]:
            op = ops[CycleType(parts)]
            for t in (0, 1, 7, 31):
                a = operator_character(Fraction(t, 2), op)
                b = operator_character(Fraction(t + 60, 2), op)
                assert abs(a - b) < 1e-8

    def test_matrix_traces_match_characters(self):
        ops = class_operators()
        for k in CLASS_ORDER_S5:
            for two_j in range(6):
                m = operator_matrix(Fraction(two_j, 2), ops[k])
                tr = np.trace(m)
                assert abs(tr - CLASS_CHARACTERS[k.parts][two_j]) < 1e-9

    def test_matrix_unitarity(self):
        for parts in [(2, 1, 1, 1), (5,), (3, 2)]:
            op = class_operators()[CycleType(parts)]
            for two_j in (1, 2, 3):
                m = operator_matrix(Fraction(two_j, 2), op)
                assert np.abs(m @ m.conj().T - np.eye(len(m))).max() < 1e-10

    def test_matrix_homomorphism_random_pairs(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            a = Permutation(tuple(int(v) for v in rng.permutation(np.arange(1, 6))))
            b = Permutation(tuple(int(v) for v in rng.permutation(np.arange(1, 6))))
            for two_j in (1, 2, 3, 4):
                j = Fraction(two_j, 2)
                lhs = operator_matrix(j, permutation_operator(a * b))
                rhs = operator_matrix(j, permutation_operator(a)) @ operator_matrix(
                    j, permutation_operator(b)
                )
                assert np.abs(lhs - rhs).max() < 1e-9

    def test_matrix_consistent_with_point_action(self):
        # (M c) . W(u) == c . W(g u) for the function with coefficients c
        rng = np.random.default_rng(31)
        for parts in [(3, 1, 1), (2, 1, 1, 1), (4, 1)]:  # rotations + reflectives
            op = class_operators()[CycleType(parts)]
            for two_j in (1, 2):
                j = Fraction(two_j, 2)
                dim = (two_j + 1) ** 2
                m = operator_matrix(j, op)
                for _ in range(5):
                    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                    u = random_su2(rng)
                    w_here = wigner_d(j, u).reshape(-1)
                    w_there = wigner_d(j, act_on_point(op, u)).reshape(-1)
                    assert abs((m @ c) @ w_here - c @ w_there) < 1e-9


class TestExactClassCharacters:
    def test_equal_float_characters(self):
        ops = class_operators()
        for k in CLASS_ORDER_S5:
            for two_j in range(121):
                exact = class_character(k, two_j)
                assert isinstance(exact, int)
                assert abs(exact - operator_character(Fraction(two_j, 2), ops[k])) < 1e-8

    def test_closed_forms_far_out(self):
        assert class_character(CycleType((1, 1, 1, 1, 1)), 10**6) == (10**6 + 1) ** 2
        assert class_character(CycleType((2, 1, 1, 1)), 10**6) == 10**6 + 1
        assert class_character(CycleType((5,)), 10**6 + 3) == CLASS_CHARACTERS[(5,)][3]

    def test_table_values_are_integers(self):
        for row in class_character_table(12):
            assert all(type(v) is int for v in row.values)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            class_character(CycleType((5,)), -1)
        # any cycle type is valid: (2)^2 acts on R^3 as a rotation by pi
        assert [class_character(CycleType((2, 2)), l) for l in range(4)] == [1, -1, 1, -1]

    def test_tabulation_is_lazy(self):
        # importing the package must not expand a Molien series: it would
        # slow every start-up
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = (
            "import simplexmodes.cli, simplexmodes.permgroup as p; "
            "print(p._molien_terms.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "0"

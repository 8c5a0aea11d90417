import cmath
import itertools
import math

import pytest
from hypothesis import given, strategies as st

from oracles import class_character, inverse
from simplexmodes.permgroup import (
    CycleType,
    Partition,
    Permutation,
    character,
    character_table,
    class_column,
    coxeter_element,
    cyclic_elements,
    partitions_of,
    series_column,
    trivial_multiplicity,
)

S3_TABLE = {
    (3,): (1, 1, 1),
    (2, 1): (2, 0, -1),
    (1, 1, 1): (1, -1, 1),
}
S3_CLASSES = [(1, 1, 1), (2, 1), (3,)]

# last entry of the [211] row is -1: column orthogonality is exact, and the
# 3x3 matrix of a transposition in that representation has trace -1
S4_TABLE = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (3, -1, 0, -1, 1),
    (2, 2): (2, 0, -1, 2, 0),
    (2, 1, 1): (3, 1, 0, -1, -1),
    (1, 1, 1, 1): (1, -1, 1, 1, -1),
}
S4_CLASSES = [(1, 1, 1, 1), (4,), (3, 1), (2, 2), (2, 1, 1)]

S5_TABLE = {
    (5,): (1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1): (1, -1, 1, 1, -1, -1, 1),
    (4, 1): (4, 2, 0, 1, -1, 0, -1),
    (2, 1, 1, 1): (4, -2, 0, 1, 1, 0, -1),
    (3, 2): (5, 1, 1, -1, 1, -1, 0),
    (2, 2, 1): (5, -1, 1, -1, -1, 1, 0),
    (3, 1, 1): (6, 0, -2, 0, 0, 0, 1),
}
S5_CLASSES = [(1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (5,)]


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition.of()
        with pytest.raises(ValueError):
            Partition.of(1, 2)
        with pytest.raises(ValueError):
            Partition.of(3, 0)

    def test_conjugate(self):
        assert Partition.of(3, 2).conjugate() == Partition.of(2, 2, 1)
        assert Partition.of(5).conjugate() == Partition.of(1, 1, 1, 1, 1)

    def test_dimensions(self):
        dims = [f.dimension for f in partitions_of(5)]
        assert dims == [1, 4, 5, 6, 5, 4, 1]
        for n in (3, 4, 5, 6):
            assert sum(f.dimension**2 for f in partitions_of(n)) == math.factorial(n)

    def test_hooks(self):
        assert Partition.of(3, 2).hooks == (4, 3, 1, 2, 1)
        assert Partition.of(2, 1, 1).hooks == (4, 1, 2, 1)
        # the hook length formula against the Murnaghan-Nakayama degree
        for n in range(1, 9):
            for f in partitions_of(n):
                degree = character(f, CycleType((1,) * n))
                assert math.prod(f.hooks) * degree == math.factorial(n), f

    def test_reverse_lex_order(self):
        assert [f.parts for f in partitions_of(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        ]


class TestPermutation:
    def test_left_to_right_composition(self):
        t12 = Permutation.from_cycles(3, [(1, 2)])
        t23 = Permutation.from_cycles(3, [(2, 3)])
        p = t12 * t23  # apply (1,2) first
        assert p(1) == 3 and p(2) == 1 and p(3) == 2

    def test_from_cycles_and_inverse(self):
        p = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        assert p.images == (2, 3, 4, 5, 1)
        assert (p * inverse(p)).images == Permutation.identity(5).images

    def test_cycle_type_examples(self):
        assert Permutation.identity(5).cycle_type().parts == (1, 1, 1, 1, 1)
        assert Permutation.identity(5).cycle_type().class_size == 1
        five = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        assert five.cycle_type().parts == (5,)
        assert five.cycle_type().class_size == 24
        p = Permutation.from_cycles(5, [(1, 2), (2, 3)])
        assert p.cycle_type().parts == (3, 1, 1)
        assert p.cycle_type().class_size == 20

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_class_sizes_by_enumeration(self, n):
        counts = {}
        for images in itertools.permutations(range(1, n + 1)):
            k = Permutation(images).cycle_type()
            counts[k.parts] = counts.get(k.parts, 0) + 1
        for parts, count in counts.items():
            assert CycleType(parts).class_size == count

    def test_adjacent_factors_reassemble(self):
        for images in itertools.permutations(range(1, 6)):
            p = Permutation(images)
            q = Permutation.identity(5)
            for i in p.adjacent_factors():
                q = q * Permutation.from_cycles(5, [(i, i + 1)])
            assert q == p


class TestCharacters:
    def test_spec_values(self):
        assert character(Partition.of(3, 2), CycleType((2, 1, 1, 1))) == 1
        assert character(Partition.of(5), CycleType((3, 2))) == 1
        assert character(Partition.of(3, 1, 1), CycleType((2, 2, 1))) == -2
        assert character(Partition.of(2, 1), CycleType((3,))) == -1

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            character(Partition.of(3, 1), CycleType((3,)))

    @pytest.mark.parametrize(
        "n,table,classes",
        [(3, S3_TABLE, S3_CLASSES), (4, S4_TABLE, S4_CLASSES), (5, S5_TABLE, S5_CLASSES)],
    )
    def test_tables(self, n, table, classes):
        t = character_table(n)
        for parts, values in table.items():
            f = Partition(parts)
            got = tuple(t.entry(f, CycleType(k)) for k in classes)
            assert got == values, f"row {f}"

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_orthogonality_exact(self, n):
        t = character_table(n)
        m = len(t.partitions)
        # rows: sum_k n(k) chi chi' = n! delta
        for a in range(m):
            for b in range(m):
                dot = sum(
                    k.class_size * t.values[a][i] * t.values[b][i]
                    for i, k in enumerate(t.cycle_types)
                )
                assert dot == (t.order if a == b else 0)
        # columns: sum_f chi(k) chi(k') = centralizer order * delta
        for i in range(m):
            for j in range(m):
                dot = sum(row[i] * row[j] for row in t.values)
                want = t.order // t.cycle_types[i].class_size if i == j else 0
                assert dot == want

    def test_s5_class_sizes(self):
        t = character_table(5)
        sizes = {k.parts: k.class_size for k in t.cycle_types}
        assert [sizes[k] for k in S5_CLASSES] == [1, 10, 15, 20, 20, 30, 24]


class TestCyclicSubgroup:
    def test_cyclic_elements_s3(self):
        elems = cyclic_elements(3)
        assert elems[0] == Permutation.from_cycles(3, [(1, 2, 3)])
        assert elems[1] == Permutation.from_cycles(3, [(1, 3, 2)])
        assert elems[2] == Permutation.identity(3)

    def test_cyclic_elements_s4_square(self):
        elems = cyclic_elements(4)
        assert elems[1] == Permutation.from_cycles(4, [(1, 3), (2, 4)])

    def test_cyclic_elements_s5_square(self):
        elems = cyclic_elements(5)
        assert elems[1] == Permutation.from_cycles(5, [(1, 3, 5, 2, 4)])

    def test_coxeter_element_generates(self):
        c = coxeter_element(5)
        assert c in cyclic_elements(5)
        powers = {c}
        p = c
        for _ in range(4):
            p = p * c
            powers.add(p)
        assert powers == set(cyclic_elements(5))

    def test_trivial_multiplicity_values(self):
        assert trivial_multiplicity(Partition.of(3, 1, 1)) == 2
        assert trivial_multiplicity(Partition.of(2, 1)) == 0
        assert trivial_multiplicity(Partition.of(2, 2)) == 1
        assert trivial_multiplicity(Partition.of(4, 1)) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_trivial_multiplicity_oracle(self, n):
        # class-formula result equals the brute-force elementwise average
        for f in partitions_of(n):
            brute = sum(
                character(f, h.cycle_type()) for h in cyclic_elements(n)
            )
            assert trivial_multiplicity(f) * n == brute

    def test_s5_branch_column(self):
        order = [(5,), (1, 1, 1, 1, 1), (4, 1), (2, 1, 1, 1), (3, 2), (2, 2, 1), (3, 1, 1)]
        col = [trivial_multiplicity(Partition(p)) for p in order]
        assert col == [1, 1, 0, 0, 1, 1, 2]


def cyclic_character(n: int, alpha: int, power: int) -> complex:
    """Character of the 1-dimensional representation alpha of C_n at the
    power-th power of the generator: exp(2*pi*i*alpha*power/n)."""
    if not 0 <= alpha < n:
        raise ValueError(f"need 0 <= alpha < n, got alpha={alpha}, n={n}")
    return cmath.exp(2j * cmath.pi * alpha * power / n)


class TestCyclicCharacter:
    def test_values(self):
        third = cyclic_character(3, 1, 1)
        assert abs(third - complex(-0.5, math.sqrt(3) / 2)) < 1e-15
        assert abs(cyclic_character(4, 2, 1) - (-1)) < 1e-15
        assert cyclic_character(7, 0, 3) == 1

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            cyclic_character(3, 3, 1)


#: every class of S(3), S(4) and S(5)
CLASSES_3_TO_5 = [CycleType(f.parts) for n in (3, 4, 5) for f in partitions_of(n)]


class TestClassColumn:
    """The column route against the per-degree Molien coefficient."""

    @pytest.mark.parametrize("k", CLASSES_3_TO_5, ids=str)
    def test_equals_class_character(self, k):
        period = math.lcm(*k.parts)
        for top in sorted({0, 1, period - 1, period, period + 1, 1500}):
            assert class_column(k, top) == [class_character(k, d) for d in range(top + 1)], top

    @given(st.sampled_from(CLASSES_3_TO_5), st.integers(0, 300))
    def test_prefix_of_a_longer_column(self, k, top):
        column = class_column(k, top)
        assert column == class_column(k, 300)[:top + 1]
        assert column[-1] == class_character(k, top)

    def test_negative_top_raises(self):
        with pytest.raises(ValueError):
            class_column(CycleType((5,)), -1)

    def test_series_column(self):
        # 1 / (1-t)(1-t^2): floor(d/2) + 1; (1-t^2) / (1-t) = 1 + t
        assert series_column((1,), (1, 2), 7) == [1, 1, 2, 2, 3, 3, 4, 4]
        assert series_column((1, 0, -1), (1,), 4) == [1, 1, 0, 0, 0]
        assert series_column((0, 0, 1), (3,), 1) == [0, 0]

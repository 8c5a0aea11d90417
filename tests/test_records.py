"""The value types of the library are named tuples: immutable, and hashed and
ordered as the tuple of their fields, so that dict order and every output
follow from the fields alone.  The constructors' ValueErrors are tested with
each module."""

import pytest

from simplexmodes.modes import periodic_basis
from simplexmodes.permgroup import (
    CycleType,
    Partition,
    Permutation,
    character_table,
    partitions_of,
)
from simplexmodes.reduction import o2_multiplicity_table
from simplexmodes.su2wigner import SU2Element
from simplexmodes.weylaction import GroupOperator, class_character_table

#: one value of each record type, built as the library builds it
RECORDS = {
    "Partition": lambda: Partition.of(3, 2),
    "CycleType": lambda: CycleType((3, 2)),
    "Permutation": lambda: Permutation.identity(3),
    "CharacterTable": lambda: character_table(3),
    "MultiplicityTable": lambda: o2_multiplicity_table(2),
    "GroupOperator": GroupOperator.identity,
    "ClassCharacterRow": lambda: class_character_table(1)[0],
    "SU2Element": SU2Element.identity,
    "ModeBasis": lambda: periodic_basis(2),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):  # no instance dict
        record.extra = None


@pytest.mark.parametrize("n", range(1, 8))
def test_partitions_sort_by_their_parts(n):
    # partitions_of lists them in reverse-lex order, which sorted() reverses
    parts = partitions_of(n)
    assert sorted(parts) == parts[::-1]


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_hashes_as_the_tuple_of_its_fields(n):
    # the hash a frozen dataclass gave, so set and dict orders do not move
    for f in partitions_of(n):
        assert hash(f) == hash((f.parts,))
        assert hash(CycleType(f.parts)) == hash((f.parts,))

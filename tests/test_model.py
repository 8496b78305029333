from fractions import Fraction

import pytest

from ceei import (
    DimensionMismatch,
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    InvalidAssignment,
    bundle_utility,
    nash_welfare,
    validate_instance,
)
from ceei.model import integer_rows
from oracles import all_discrete_assignments


class TestBundleUtility:
    def test_top_two_objects(self, separation):
        assert bundle_utility(separation, 0, (1, 1, 0, 0)) == 100

    def test_empty_bundle_is_worthless(self, separation):
        assert bundle_utility(separation, 0, (0, 0, 0, 0)) == 0

    def test_second_agent_three_objects(self, separation):
        assert bundle_utility(separation, 1, (0, 1, 1, 1)) == 102

    def test_fractional_shares(self, separation):
        assert bundle_utility(separation, 0, (Fraction(1, 2), 0, 0, 0)) == Fraction(95, 2)

    def test_wrong_length_names_offender(self, separation):
        with pytest.raises(DimensionMismatch) as excinfo:
            bundle_utility(separation, 0, (1, 0))
        assert excinfo.value.expected == 4
        assert excinfo.value.got == 2


class TestNashWelfare:
    def test_even_split(self, separation):
        assert nash_welfare(separation, DiscreteAssignment([0, 0, 1, 1])) == 10000

    def test_even_split_is_the_enumeration_maximum(self, separation):
        best = max(
            nash_welfare(separation, y) for y in all_discrete_assignments(2, 4)
        )
        assert best == 10000

    def test_lopsided_split(self, separation):
        assert nash_welfare(separation, DiscreteAssignment([0, 1, 1, 1])) == 95 * 102

    def test_single_agent_gets_row_sum(self):
        inst = Instance([[4, 7, 2]])
        assert nash_welfare(inst, DiscreteAssignment([0, 0, 0])) == 13

    def test_zero_factor_collapses_product(self):
        inst = Instance([[1, 1], [1, 1]])
        assert nash_welfare(inst, DiscreteAssignment([0, 0])) == 0

    def test_invariant_under_joint_agent_permutation(self, separation):
        flipped = Instance([separation.utilities[1], separation.utilities[0]])
        for y in all_discrete_assignments(2, 4):
            swapped = DiscreteAssignment([1 - o for o in y.owner])
            assert nash_welfare(separation, y) == nash_welfare(flipped, swapped)


class TestIntegerRows:
    def test_integer_rows_keep_their_values(self, separation):
        rows, scales = integer_rows(separation)
        assert rows == [[95, 5, 2, 1], [1, 2, 5, 95]]
        assert scales == [1, 1]
        assert all(type(v) is int for row in rows for v in row)

    def test_each_row_scaled_by_its_denominators_lcm(self):
        inst = Instance([["1/2", "3/4", 2], [1, "5/6", "7/9"], ["0/1", 3, "2/3"]])
        rows, scales = integer_rows(inst)
        assert scales == [4, 18, 3]
        assert rows == [[2, 3, 8], [18, 15, 14], [0, 9, 2]]
        for row, scale, exact in zip(rows, scales, inst.utilities):
            assert [Fraction(v, scale) for v in row] == list(exact)


class TestValidateInstance:
    def test_clean_instance(self, separation):
        assert validate_instance(separation) == []

    def test_zero_column_names_object(self):
        inst = Instance([[1, 0], [1, 0]])
        violations = validate_instance(inst)
        assert len(violations) == 1
        assert violations[0].kind == "zero_column"
        assert violations[0].object == 1

    def test_zero_row_names_agent(self):
        inst = Instance([[1, 1], [0, 0]])
        violations = validate_instance(inst)
        assert len(violations) == 1
        assert violations[0].kind == "zero_row"
        assert violations[0].agent == 1

    def test_negative_entry_reported(self):
        inst = Instance([[1, -1], [1, 2]])
        kinds = {v.kind for v in validate_instance(inst)}
        assert "negative_entry" in kinds


class TestAssignments:
    def test_discrete_round_trip(self, separation):
        for y in all_discrete_assignments(2, 4):
            assert y.to_fractional(2).to_discrete() == y

    def test_column_mass_equals_object_count(self, separation):
        for y in all_discrete_assignments(2, 4):
            x = y.to_fractional(2)
            assert sum(sum(row) for row in x.rows) == separation.m

    def test_incomplete_column_rejected(self):
        with pytest.raises(InvalidAssignment):
            FractionalAssignment([[Fraction(1, 2), 1], [Fraction(1, 4), 0]])

    def test_out_of_range_share_rejected(self):
        with pytest.raises(InvalidAssignment):
            FractionalAssignment([[2, 1], [-1, 0]])

    def test_fractional_entries_cannot_convert(self):
        x = FractionalAssignment([[Fraction(1, 2)], [Fraction(1, 2)]])
        with pytest.raises(InvalidAssignment):
            x.to_discrete()

    def test_bundles_partition_objects(self):
        y = DiscreteAssignment([0, 2, 1, 0])
        assert y.bundles(3) == [(0, 3), (2,), (1,)]
        assert DiscreteAssignment.from_bundles(4, y.bundles(3)) == y

    @pytest.mark.parametrize("bundles", [[[0], [-1]], [[0], [5]], [[0, 2], [1]]])
    def test_from_bundles_rejects_out_of_range_objects(self, bundles):
        with pytest.raises(InvalidAssignment):
            DiscreteAssignment.from_bundles(2, bundles)

    def test_instance_rejects_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            Instance([[1, 2], [1]])

    def test_immutability(self, separation):
        with pytest.raises(AttributeError):
            separation.utilities = ()

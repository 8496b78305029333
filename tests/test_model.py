import copy
import dataclasses
import inspect
import math
import pickle
import typing
from decimal import Decimal
from fractions import Fraction

import pytest

import ceei
from ceei import (
    Certificate,
    DimensionMismatch,
    DiscreteAssignment,
    DominatingAssignment,
    EnvyPair,
    FractionalAssignment,
    Instance,
    InstanceViolation,
    InvalidAssignment,
    InvariantError,
    KktViolation,
    PartitionInput,
    PriceSupport,
    PriceVector,
    ThreePartitionInput,
    ViolatingBundle,
    agent_utilities,
    brute_force_max_nash,
    kkt_residual,
    nash_welfare,
    separation_example,
    validate_instance,
    verify_ceei_disc,
)
from ceei.model import as_fractional, check_assignment
from oracles import all_discrete_assignments

# one value of each value type, with a field whose value is truthy
_VALUES = [
    (Instance([[1, "1/2"], [3, 0]]), "utilities"),
    (FractionalAssignment([["1/3", 1], ["2/3", 0]]), "rows"),
    (DiscreteAssignment([1, 0, 1]), "owner"),
    (PriceVector([1, "3/4"]), "prices"),
    (InstanceViolation("zero_row", agent=1), "kind"),
    (EnvyPair(0, 1), "envied"),
    (DominatingAssignment(DiscreteAssignment([1, 0])), "assignment"),
    (PriceSupport(PriceVector([1, "1/2"])), "prices"),
    (ViolatingBundle(0, (1,)), "objects"),
    (KktViolation(1, 0, Fraction(1, 2)), "ratio_gap"),
    (PartitionInput([3, 1, 2]), "integers"),
    (ThreePartitionInput([3, 3, 4], 10), "weights"),
    (brute_force_max_nash(separation_example()), "best"),
    (verify_ceei_disc(Instance([[2, 1], [1, 2]]), DiscreteAssignment([0, 1])), "certificate"),
]


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


class TestAgentUtilities:
    @pytest.mark.parametrize(
        "utilities",
        [
            [[19, 1, 1, 19], [1, 100, 1, 1]],
            [[1, "1/2", 0], ["2/3", 0, 3]],
            [["1/3", "1/3", 0], [0, "1/2", "1/2"], ["3/4", 0, 1]],
        ],
    )
    def test_owner_vector_matches_its_fractional_matrix(self, utilities):
        # every instance has owner vectors leaving some agent an empty bundle
        inst = Instance(utilities)
        for y in all_discrete_assignments(inst.n, inst.m):
            x = as_fractional(inst, y)
            assert x.rows == tuple(tuple(int(o == i) for o in y.owner) for i in range(inst.n))
            values = agent_utilities(inst, y)
            assert values == agent_utilities(inst, x)
            assert all(type(v) is Fraction for v in values)
            assert nash_welfare(inst, y) == nash_welfare(inst, x)


class TestIntegerRows:
    def test_int_rows_keep_their_values(self, separation):
        assert separation.int_rows == ((95, 5, 2, 1), (1, 2, 5, 95))
        assert separation.scales == (1, 1)
        assert all(type(v) is int for row in separation.int_rows for v in row)

    def test_each_row_scaled_by_its_denominators_lcm(self):
        inst = Instance([["1/2", "3/4", 2], [1, "5/6", "7/9"], ["0/1", 3, "2/3"]])
        assert inst.scales == (4, 18, 3)
        assert inst.int_rows == ((2, 3, 8), (18, 15, 14), (0, 9, 2))
        assert type(inst.int_rows) is tuple and all(type(row) is tuple for row in inst.int_rows)
        for row, scale, exact in zip(inst.int_rows, inst.scales, inst.utilities):
            assert tuple(Fraction(v, scale) for v in row) == exact

    def test_rows_are_computed_once(self):
        inst = Instance([["1/2", 1], [3, "2/3"]])
        assert inst.int_rows is inst.int_rows
        assert inst.scales is inst.scales

    def test_equal_instances_have_equal_rows(self):
        a, b = Instance([["2/4", 1]]), Instance([["1/2", 1]])
        assert a.int_rows == ((1, 2),)  # read on one side only
        assert a == b and hash(a) == hash(b)
        assert (a.int_rows, a.scales) == (b.int_rows, b.scales) == (((1, 2),), (2,))

    @pytest.mark.parametrize(
        "round_trip",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_copies_have_equal_rows(self, round_trip, read_first):
        inst = Instance([["1/2", "3/4", 2], [1, "5/6", "7/9"]])
        if read_first:
            inst.int_rows
        twin = round_trip(inst)
        assert twin == inst and hash(twin) == hash(inst)
        assert (twin.int_rows, twin.scales) == (inst.int_rows, inst.scales)

    def test_rows_cannot_be_assigned(self, separation):
        for name in ("int_rows", "scales"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(separation, name, ((1,),))
        assert separation.int_rows == ((95, 5, 2, 1), (1, 2, 5, 95))


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
        with pytest.raises(InvariantError) as raised:
            validate_instance(Instance([[1, -1], [1, 2]]))
        kinds = {v.kind for v in raised.value.violations}
        assert "negative_entry" in kinds

    # each once passed into the verifiers and searches and got a wrong
    # answer: a CEEI verdict with prices (1, 1), Nash welfare 12 from two
    # negative totals, no equal split of {3, -1} | {2}
    @pytest.mark.parametrize(
        "utilities, negative",
        [
            ([[-1, -1], [1, 1]], [(0, 0), (0, 1)]),
            ([[3, -1, 2]] * 2, [(0, 1), (1, 1)]),
            ([[-3, -2, -2], [-3, 1, 2]], [(0, 0), (0, 1), (0, 2), (1, 0)]),
            ([[0, "-1/2"]], [(0, 1)]),
        ],
    )
    def test_instance_names_every_negative_entry(self, utilities, negative):
        with pytest.raises(InvariantError) as raised:
            Instance(utilities)
        assert raised.value.violations == [InstanceViolation("negative_entry", agent=i, object=j) for i, j in negative]


class TestAssignments:
    def test_discrete_round_trip(self, separation):
        for y in all_discrete_assignments(2, 4):
            matrix = tuple(tuple(int(j in y.bundle(i)) for j in range(4)) for i in range(2))
            assert as_fractional(separation, y).rows == matrix

    def test_column_mass_equals_object_count(self, separation):
        for y in all_discrete_assignments(2, 4):
            x = as_fractional(separation, y)
            assert sum(sum(row) for row in x.rows) == separation.m

    def test_incomplete_column_rejected(self):
        with pytest.raises(InvalidAssignment):
            FractionalAssignment([[Fraction(1, 2), 1], [Fraction(1, 4), 0]])

    def test_out_of_range_share_rejected(self):
        with pytest.raises(InvalidAssignment):
            FractionalAssignment([[2, 1], [-1, 0]])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[2, 1], [-1, 0]], "share of object 0 for agent 0 is 2, outside [0, 1]"),
            ([[-1, 0], [2, 1]], "share of object 0 for agent 0 is -1, outside [0, 1]"),
            ([["1/2", 1], ["1/4", 0]], "object 0 is allocated 3/4 in total, not 1"),
            ([["1/3", 1], ["2/3", "1/6"]], "object 1 is allocated 7/6 in total, not 1"),
        ],
    )
    def test_rejection_names_the_first_bad_entry(self, rows, message):
        with pytest.raises(InvalidAssignment) as excinfo:
            FractionalAssignment(rows)
        assert str(excinfo.value) == message

    def test_bundles_partition_objects(self):
        y = DiscreteAssignment([0, 2, 1, 0])
        bundles = [y.bundle(i) for i in range(3)]
        assert bundles == [(0, 3), (2,), (1,)]

    @pytest.mark.parametrize("owner", [[0.7, 1.9], [True, False], ["1"], [0, Fraction(1)], [None]])
    def test_owners_must_be_integers(self, owner):
        with pytest.raises(InvalidAssignment, match="not an agent index"):
            DiscreteAssignment(owner)

    def test_index_types_are_owners(self):
        numpy = pytest.importorskip("numpy")
        y = DiscreteAssignment(numpy.array([1, 0, 1]))
        assert y == DiscreteAssignment([1, 0, 1])
        assert all(type(o) is int for o in y.owner)

    @pytest.mark.parametrize(
        "call",
        [
            check_assignment,
            lambda inst, y: kkt_residual(inst, y, [1, 1]),
            as_fractional,
            agent_utilities,
            nash_welfare,
        ],
        ids=["check_assignment", "kkt_residual", "as_fractional", "agent_utilities", "nash_welfare"],
    )
    def test_out_of_range_owner_is_invalid_on_every_path(self, call):
        with pytest.raises(InvalidAssignment):
            call(Instance([[1, 1], [1, 1]]), DiscreteAssignment([0, 2]))

    def test_instance_rejects_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            Instance([[1, 2], [1]])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Instance([]), "an instance needs at least one agent"),
            (lambda: Instance([[]]), "an instance needs at least one object"),
            (lambda: FractionalAssignment([]), "an assignment needs at least one agent and object"),
            (lambda: DiscreteAssignment([]), "an assignment needs at least one object"),
            (lambda: DiscreteAssignment([0, -1]), "owner of object 1 is -1, not an agent index"),
            (
                lambda: check_assignment(Instance([[1, 1], [1, 1]]), DiscreteAssignment([0, 2])),
                "owner of object 1 is 2, out of range for 2 agents",
            ),
            (
                lambda: as_fractional(Instance([[1, 1], [1, 1]]), DiscreteAssignment([0, 2])),
                "owner of object 1 is 2, out of range for 2 agents",
            ),
            (lambda: PriceVector([]), "a price vector needs at least one object"),
            (lambda: PriceVector([1, "-1/2"]), "price of object 1 is -1/2, negative"),
        ],
    )
    def test_rejection_message_names_the_offender(self, build, message):
        with pytest.raises(InvalidAssignment) as excinfo:
            build()
        assert str(excinfo.value) == message

    # str() refuses ints past 4300 digits; the messages show them bounded
    def test_huge_negative_price_is_rejected_by_message(self):
        with pytest.raises(InvalidAssignment, match=r"price of object 0 is -10000\.\.\.\(5001 digits\), negative"):
            PriceVector([-(10**5000)])

    def test_huge_fraction_owner_is_rejected_by_message(self):
        with pytest.raises(InvalidAssignment, match=r"is 10000\.\.\.\(5001 digits\)/3, not an agent index"):
            DiscreteAssignment([Fraction(10**5000, 3)])

    def test_boolean_utility_is_rejected(self):
        with pytest.raises(TypeError, match="booleans are not valid utilities"):
            Instance([[True]])

    # a string is iterable and its characters are digits: "95" once built
    # the 1x2 instance ((9, 5),) and "12" a 2x1 one
    @pytest.mark.parametrize("matrix", ["12", b"12", ["95"], [[1], "2"], [b"\x01\x02"]], ids=repr)
    @pytest.mark.parametrize("build", [Instance, FractionalAssignment], ids=lambda c: c.__name__)
    def test_string_matrices_and_rows_are_rejected(self, build, matrix):
        with pytest.raises(TypeError):
            build(matrix)

    @pytest.mark.parametrize("prices", ["12", b"12"], ids=repr)
    def test_string_price_vectors_are_rejected(self, prices):
        with pytest.raises(TypeError):
            PriceVector(prices)

    def test_rows_may_come_from_an_iterator(self):
        assert Instance(iter([[1, "1/2"], (2, 0)])) == Instance([[1, "1/2"], [2, 0]])

    # Fraction raises OverflowError for an infinity but ValueError for NaN
    @pytest.mark.parametrize(
        "value",
        [math.inf, -math.inf, math.nan, Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN"), Decimal("sNaN")],
        ids=repr,
    )
    @pytest.mark.parametrize(
        "build",
        [lambda v: Instance([[v]]), lambda v: PriceVector([v]), lambda v: FractionalAssignment([[v]])],
        ids=["Instance", "PriceVector", "FractionalAssignment"],
    )
    def test_non_finite_floats_are_value_errors(self, build, value):
        with pytest.raises(ValueError, match="is not a finite number"):
            build(value)

    def test_decimal_beyond_float_range_stays_exact(self):
        assert PriceVector([Decimal("1e400")]).prices == (10**400,)

    def test_ragged_fractional_rows_are_rejected(self):
        with pytest.raises(DimensionMismatch) as excinfo:
            FractionalAssignment([[1, 0], [0]])
        assert (excinfo.value.what, excinfo.value.expected, excinfo.value.got) == ("assignment row 1", 2, 1)

    def test_immutability(self, separation):
        with pytest.raises(AttributeError):
            separation.utilities = ()
        for value, field in _VALUES:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
                setattr(value, field, ())
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
                delattr(value, field)
            assert getattr(value, field)
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.not_a_field = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                del value.not_a_field

    @pytest.mark.parametrize("value", [value for value, _field in _VALUES], ids=lambda value: type(value).__name__)
    @pytest.mark.parametrize(
        "round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
    )
    def test_values_pickle_and_copy_to_equal_values(self, value, round_trip, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the validating __init__ ran again")

        monkeypatch.setattr(type(value), "__init__", refuse)
        twin = round_trip(value)
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)

    def test_values_of_other_classes_or_tuples_differ(self):
        assert EnvyPair(0, 1) != ViolatingBundle(0, (1,))
        assert EnvyPair(0, 1) == EnvyPair(0, 1) and hash(EnvyPair(0, 1)) == hash(EnvyPair(0, 1))
        for value, field in _VALUES:
            assert value != getattr(value, field) and value != (getattr(value, field),)
            assert value != tuple(getattr(value, name) for name in type(value)._fields)

    def test_certificate_is_the_union_of_the_certificate_types(self):
        certificates = {EnvyPair, DominatingAssignment, PriceSupport, ViolatingBundle, KktViolation}
        for value, _field in _VALUES:
            assert isinstance(value, Certificate) == (type(value) in certificates)

    def test_violation_defaults(self):
        violation = InstanceViolation("zero_row", agent=1)
        assert (violation.kind, violation.agent, violation.object) == ("zero_row", 1, None)
        assert violation == InstanceViolation("zero_row", 1, None)
        assert str(violation) == "agent 1 values no object"


    # the printed text and sizes of the value types, as they were when the
    # value types were dataclasses
    @pytest.mark.parametrize(
        "value, text, size, expected",
        [
            (_VALUES[0][0], "Instance(n=2, m=2)", "m", 2),
            (_VALUES[1][0], "FractionalAssignment(n=2, m=2)", "m", 2),
            (_VALUES[2][0], "DiscreteAssignment([1, 0, 1])", "m", 3),
            (_VALUES[3][0], "PriceVector(['1', '3/4'])", None, None),
            (PartitionInput([3, 1, 2]), "PartitionInput(integers=(3, 1, 2))", None, None),
        ],
        ids=["Instance", "FractionalAssignment", "DiscreteAssignment", "PriceVector", "PartitionInput"],
    )
    def test_repr_and_size(self, value, text, size, expected):
        assert repr(value) == text
        if size is not None:
            assert getattr(value, size) == expected

    @pytest.mark.parametrize(
        "index, text",
        [
            (4, "InstanceViolation(kind='zero_row', agent=1, object=None)"),
            (5, "EnvyPair(envious=0, envied=1)"),
            (6, "DominatingAssignment(assignment=DiscreteAssignment([1, 0]))"),
            (7, "PriceSupport(prices=PriceVector(['1', '1/2']))"),
            (8, "ViolatingBundle(agent=0, objects=(1,))"),
            (9, "KktViolation(agent=1, object=0, ratio_gap=Fraction(1, 2))"),
            (11, "ThreePartitionInput(weights=(3, 3, 4), bound=10)"),
            (
                12,
                "SearchResult(best=DiscreteAssignment([0, 0, 1, 1]), welfare=Fraction(10000, 1),"
                " nodes_explored=16, optimal=True)",
            ),
            (13, "Verdict(holds=True, certificate=PriceSupport(prices=PriceVector(['1', '1'])))"),
        ],
        ids=[
            "InstanceViolation",
            "EnvyPair",
            "DominatingAssignment",
            "PriceSupport",
            "ViolatingBundle",
            "KktViolation",
            "ThreePartitionInput",
            "SearchResult",
            "Verdict",
        ],
    )
    def test_field_reprs(self, index, text):
        # the text a dataclass printed: the class name and each field's repr
        assert repr(_VALUES[index][0]) == text


def _functions(value):
    """The functions of a public name: itself, or the `__init__`, methods and
    property getters of a class and of its `ceei` bases."""
    if inspect.isfunction(value):
        return [value]
    if not isinstance(value, type):
        return []  # `Certificate`, a union of classes that are public names too
    functions = []
    for klass in value.__mro__:
        if klass.__module__.startswith("ceei."):
            for member in vars(klass).values():
                # a classmethod's or staticmethod's function, a property's or cached_property's getter
                member = getattr(member, "__func__", None) or getattr(member, "fget", None) or getattr(member, "func", member)
                if inspect.isfunction(member):
                    functions.append(member)
    return functions


@pytest.mark.parametrize("name", ceei.__all__)
def test_public_annotations_resolve(name):
    # `from __future__ import annotations` leaves each annotation a string, so
    # a name its module never imports fails only once `get_type_hints` reads it
    functions = _functions(getattr(ceei, name))
    assert functions or name == "Certificate"
    for function in functions:
        typing.get_type_hints(function)

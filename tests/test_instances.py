from fractions import Fraction

import pytest

from ceei import (
    DimensionMismatch,
    DiscreteAssignment,
    DocumentSyntaxError,
    Instance,
    InstanceViolation,
    InvalidAssignment,
    InvariantError,
    SchemaError,
    from_partition,
    from_three_partition,
    gen_random,
    instance_digest,
    parse_assignment,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from ceei import cli
from oracles import has_equal_bipartition

# entries that int() would take: it truncates floats and Fractions, reads
# strings, and counts True as 1
NOT_INTEGERS = [
    pytest.param(1.5, id="float"),
    pytest.param(2.0, id="integral-float"),
    pytest.param(True, id="bool"),
    pytest.param(Fraction(2), id="fraction"),
    pytest.param("2", id="str"),
]

SEPARATION_DOC = '{"agents":2,"objects":4,"utilities":[[95,5,2,1],[1,2,5,95]]}'


class TestPartitionBuilder:
    def test_three_integers(self):
        inst = from_partition([2, 1, 1])
        assert inst.n == 2
        assert inst.utilities == ((2, 1, 1), (2, 1, 1))

    def test_singleton(self):
        inst = from_partition([1])
        assert (inst.n, inst.m) == (2, 1)

    @pytest.mark.parametrize(
        "integers, message",
        [
            ([], "a partition input needs at least one integer"),
            ([2, 0, 1], "partition inputs must be positive"),
            ([2, -1, 1], "partition inputs must be positive"),
        ],
        ids=["empty", "zero", "negative"],
    )
    def test_malformed_multiset_names_its_fault(self, integers, message):
        with pytest.raises(SchemaError, match=f"^field 'integers': {message}$"):
            from_partition(integers)

    def test_yes_instance_fixture(self):
        values = [3, 3, 2, 2, 2]
        assert has_equal_bipartition(values)  # {3, 3} vs {2, 2, 2}
        inst = from_partition(values)
        assert inst.has_identical_rows()

    def test_odd_total_is_not_an_error(self):
        inst = from_partition([3, 1, 1])
        assert inst.m == 3

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_non_integer_rejected_by_position(self, bad):
        with pytest.raises(SchemaError, match=r"entry 1: .* is not an integer") as excinfo:
            from_partition([2, bad, 1])
        assert excinfo.value.field == "integers"

    def test_huge_fraction_is_rejected_by_message(self):
        # str() refuses ints past 4300 digits; the message shows it bounded
        with pytest.raises(SchemaError, match=r"entry 0: 10000\.\.\.\(5001 digits\)/3 is not an integer"):
            from_partition([Fraction(10**5000, 3)])

    def test_half_is_not_truncated_into_an_even_split(self):
        # int() made {1.5, 1} the multiset {1, 1}, which splits evenly
        with pytest.raises(SchemaError, match="entry 0: 1.5 is not an integer"):
            from_partition([1.5, 1])

    def test_numpy_ints_pass_as_ints(self):
        import numpy

        inst = from_partition([numpy.int64(2), numpy.int32(1), 1])
        assert inst.utilities == ((2, 1, 1), (2, 1, 1))


class TestThreePartitionBuilder:
    def test_two_group_fixture(self):
        inst = from_three_partition([3, 3, 4, 3, 3, 4], 10)
        assert (inst.n, inst.m) == (2, 6)
        assert inst.has_identical_rows()

    def test_single_group(self):
        inst = from_three_partition([3, 3, 4], 10)
        assert (inst.n, inst.m) == (1, 3)

    # the window is strict at both ends, and a bound of 0 or below leaves it empty
    @pytest.mark.parametrize(
        "weights, bound, message",
        [
            ([], 10, "need a positive multiple of 3 weights"),
            ([3, 3, 4, 3], 10, "need a positive multiple of 3 weights"),
            ([2, 4, 4, 3, 3, 4], 10, "weight 2 at position 0 violates 10/4 < w < 10/2"),
            ([5, 7, 8], 20, "weight 5 at position 0 violates 20/4 < w < 20/2"),
            ([6, 10, 4], 20, "weight 10 at position 1 violates 20/4 < w < 20/2"),
            ([3, 3, 4], -10, "weight 3 at position 0 violates -10/4 < w < -10/2"),
            ([3, 3, 4, 3, 3, 3], 10, "weights sum to 19, expected 20"),
            ([3, 3, 4, 3, 4, 4], 10, "weights sum to 21, expected 20"),
        ],
        ids=["empty", "count", "below-window", "at-quarter", "at-half", "negative-bound", "sum-short", "sum-over"],
    )
    def test_malformed_weights_name_their_fault(self, weights, bound, message):
        with pytest.raises(SchemaError, match=f"^field 'weights': {message}$"):
            from_three_partition(weights, bound)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_non_integer_weight_rejected_by_position(self, bad):
        weights = [3, 3, 4, 3, 3, 4]
        weights[2] = bad
        with pytest.raises(SchemaError, match=r"entry 2: .* is not an integer") as excinfo:
            from_three_partition(weights, 10)
        assert excinfo.value.field == "weights"

    @pytest.mark.parametrize(
        "bad", [10.5, 10.0, True, Fraction(10), "10"], ids=["float", "integral-float", "bool", "fraction", "str"]
    )
    def test_non_integer_bound_rejected(self, bad):
        # int() made 10.5 the bound 10, which these weights meet
        with pytest.raises(SchemaError, match="is not an integer") as excinfo:
            from_three_partition([3, 3, 4, 3, 3, 4], bad)
        assert excinfo.value.field == "bound"

    def test_numpy_ints_pass_as_ints(self):
        import numpy

        inst = from_three_partition([numpy.int64(3), 3, 4, 3, 3, numpy.int32(4)], numpy.int64(10))
        assert inst.utilities == ((3, 3, 4, 3, 3, 4),) * 2


class TestRandomGenerator:
    def test_same_seed_same_matrix(self):
        a = gen_random(2, 4, 100, seed=7)
        b = gen_random(2, 4, 100, seed=7)
        assert a == b

    def test_binary_instances_stay_binary_and_valid(self):
        inst = gen_random(3, 5, 1, seed=1)
        assert inst.is_binary()
        assert validate_instance(inst) == []

    def test_smallest_case_forces_positive_entry(self):
        inst = gen_random(1, 1, 5, seed=3)
        assert 1 <= inst.utilities[0][0] <= 5

    def test_generated_instances_always_validate(self):
        for seed in range(40):
            assert validate_instance(gen_random(1 + seed % 4, 1 + seed % 7, 3, seed=seed)) == []

    def test_bad_parameters_rejected(self):
        with pytest.raises(SchemaError):
            gen_random(0, 3, 5, seed=0)
        with pytest.raises(SchemaError):
            gen_random(2, 3, 0, seed=0)


class TestDocuments:
    def test_parse_canonical_document(self, separation):
        assert parse_instance(SEPARATION_DOC) == separation

    def test_serialize_is_canonical_golden(self, separation):
        assert serialize_instance(separation) == SEPARATION_DOC

    def test_parse_serialize_round_trip(self, separation):
        assert parse_instance(serialize_instance(separation)) == separation

    def test_serialize_normalizes_noncanonical_documents(self):
        noisy = '{"agents": 2, "objects": 1, "utilities": [["2/4"], ["4/2"]]}'
        inst = parse_instance(noisy)
        # fractions reduce and whole numbers render bare
        assert inst.utilities == ((Fraction(1, 2),), (2,))
        assert serialize_instance(inst) == '{"agents":2,"objects":1,"utilities":[["1/2"],[2]]}'

    def test_rational_entries_round_trip(self):
        inst = Instance([[Fraction(1, 3), 2], [1, Fraction(5, 7)]])
        assert parse_instance(serialize_instance(inst)) == inst

    def test_negative_utilities_are_invariant_errors_naming_each(self):
        # the sign is Instance's to check, for documents as for every caller
        with pytest.raises(InvariantError) as excinfo:
            parse_instance('{"agents":2,"objects":2,"utilities":[[1,-2],[-1,"1/2"]]}')
        assert excinfo.value.violations == [
            InstanceViolation("negative_entry", agent=0, object=1),
            InstanceViolation("negative_entry", agent=1, object=0),
        ]

    def test_float_utility_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_instance('{"agents":1,"objects":2,"utilities":[[1,0.5]]}')

    def test_malformed_json_reports_position(self):
        with pytest.raises(DocumentSyntaxError) as excinfo:
            parse_instance('{"agents": 2,')
        assert excinfo.value.line == 1

    def test_deeply_nested_json_is_syntax_error(self, separation):
        deep = "[" * 100000 + "]" * 100000
        with pytest.raises(DocumentSyntaxError):
            parse_instance(deep)
        with pytest.raises(DocumentSyntaxError):
            parse_assignment(deep, separation)

    def test_shape_mismatch_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_instance('{"agents":2,"objects":2,"utilities":[[1,1]]}')

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance('{"agents":1,"objects":1,"utilities":[[1]],"extra":0}')

    @pytest.mark.parametrize(
        "document, field",
        [
            ("[1, 2]", "document"),
            ('{"objects":1,"utilities":[[1]]}', "agents"),
            ('{"agents":2,"objects":2,"utilities":[[1,1],[1]]}', "utilities"),
            ('{"agents":1,"objects":0,"utilities":[[]]}', "objects"),
            ('{"agents":1,"objects":2,"utilities":[[1,true]]}', "utilities[0][1]"),
            ('{"agents":1,"objects":2,"utilities":[[1,"1/0"]]}', "utilities[0][1]"),
            ('{"agents":2,"objects":1,"utilities":[[1],[null]]}', "utilities[1][0]"),
        ],
    )
    def test_rejection_names_the_field(self, document, field, tmp_path, capsys):
        with pytest.raises(SchemaError) as excinfo:
            parse_instance(document)
        assert excinfo.value.field == field
        path = tmp_path / "doc.json"
        path.write_text(document)
        assert cli.main(["search", str(path), "mnw"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: field '{field}'")

    def test_invariant_violations_reported_via_validate(self):
        with pytest.raises(InvariantError) as excinfo:
            parse_instance('{"agents":2,"objects":2,"utilities":[[1,0],[1,0]]}')
        assert any(v.kind == "zero_column" for v in excinfo.value.violations)

    def test_digest_is_stable(self, separation):
        assert instance_digest(separation) == instance_digest(parse_instance(SEPARATION_DOC))

    def test_assignment_round_trip(self, separation):
        y = DiscreteAssignment([0, 1, 1, 0])
        assert parse_assignment('{"owner":[0,1,1,0]}', separation) == y

    @pytest.mark.parametrize("document", ['{"holders":[0,1,1,1]}', "[0,1,1,1]", '{"owner":{"0":1}}', '{"owner":[0],"x":1}'])
    def test_assignment_shape_is_schema_error(self, document, separation):
        with pytest.raises(SchemaError) as excinfo:
            parse_assignment(document, separation)
        assert excinfo.value.field == "owner"

    @pytest.mark.parametrize(
        "owner, error, message",
        [
            ("[0,1]", DimensionMismatch, "assignment: expected length 4, got 2"),
            ("[]", InvalidAssignment, "an assignment needs at least one object"),
            ("[0,1,2,5]", InvalidAssignment, "owner of object 2 is 2, out of range for 2 agents"),
            ("[0,-1,1,-2]", InvalidAssignment, "owner of object 1 is -1, not an agent index"),
            ("[0,1,true,1]", InvalidAssignment, "owner of object 2 is True, not an agent index"),
            ('[0,1.0,"1",null]', InvalidAssignment, "owner of object 1 is 1.0, not an agent index"),
        ],
    )
    def test_owner_entries_are_the_models_to_check(self, owner, error, message, separation, tmp_path, capsys):
        # DiscreteAssignment and check_assignment name the first bad object
        with pytest.raises(error) as excinfo:
            parse_assignment(f'{{"owner":{owner}}}', separation)
        assert str(excinfo.value) == message
        (tmp_path / "inst.json").write_text(SEPARATION_DOC)
        (tmp_path / "owner.json").write_text(f'{{"owner":{owner}}}')
        assert cli.main(["check", str(tmp_path / "inst.json"), str(tmp_path / "owner.json"), "ef"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "instance, owner, field",
        [
            ('{"agents":1,"objects":1,"utilities":[[1' + "0" * 5000 + "]]}", '{"owner":[0]}', "document"),
            ('{"agents":1,"objects":1,"utilities":[["1/1' + "0" * 5000 + '"]]}', '{"owner":[0]}', "utilities[0][0]"),
            ('{"agents":1,"objects":1,"utilities":[[1]]}', '{"owner":[1' + "0" * 5000 + "]}", "document"),
        ],
        ids=["int-literal", "fraction-string", "owner"],
    )
    def test_number_past_the_digit_limit_is_schema_error(self, instance, owner, field, tmp_path, capsys):
        # json.loads and Fraction raise Python's own ValueError past 4300 digits
        with pytest.raises(SchemaError, match="more than 4300 digits") as excinfo:
            parse_assignment(owner, parse_instance(instance))
        assert excinfo.value.field == field
        (tmp_path / "inst.json").write_text(instance)
        (tmp_path / "owner.json").write_text(owner)
        assert cli.main(["check", str(tmp_path / "inst.json"), str(tmp_path / "owner.json"), "ef"]) == 2
        assert capsys.readouterr() == ("", f"error: {excinfo.value}\n")

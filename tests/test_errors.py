import copy
import importlib
import pickle
from fractions import Fraction

import pytest

import ceei
from ceei import (
    DiscreteAssignment,
    Instance,
    InstanceTooLarge,
    NotBinary,
    SumMismatch,
    ThreePartitionInput,
    Verdict,
    ViolatingBundle,
    WindowViolation,
    binary_max_nash,
    brute_force_max_nash,
    exists_ceei_disc_bruteforce,
    is_pareto_optimal_discrete,
    verify_ceei_disc,
)
from ceei.errors import bounded

HUGE = 10**5000  # str() of it raises ValueError under the default int-to-str limit


class TestBounded:
    @pytest.mark.parametrize("value", [0, 7, -12, 10**29 - 1, Fraction(-3, 4), 1.5, "x"])
    def test_short_values_print_as_themselves(self, value):
        assert bounded(value) == str(value)

    def test_long_ints_print_leading_digits_and_digit_count(self):
        assert bounded(2**14400) == "67910...(4335 digits)"
        assert bounded(10**29) == "10000...(30 digits)"
        assert bounded(-HUGE + 1) == "-99999...(5000 digits)"
        assert bounded(Fraction(HUGE, 3)) == "10000...(5001 digits)/3"
        assert bounded(Fraction(HUGE)) == "10000...(5001 digits)"

    def test_digit_count_is_exact(self):
        for digits in range(30, 400):
            assert bounded(10 ** (digits - 1)).endswith(f"({digits} digits)")
            assert bounded(10**digits - 1).endswith(f"({digits} digits)")


WIDE = Instance([[1] * 14400, [2] * 14400])  # 2^14400 owner vectors and bundles


def test_guard_past_the_int_to_str_limit():
    with pytest.raises(InstanceTooLarge, match=r"needs 67910\.\.\.\(4335 digits\) enumeration") as excinfo:
        brute_force_max_nash(WIDE)
    assert excinfo.value.required == 2**14400


def test_walks_past_the_int_to_str_limit_decide_without_a_guard():
    # the Pareto walk prunes to 14,400 nodes, envy refutes price support
    # before verify_ceei_disc walks any bundle, and the existence walk drops
    # every prefix giving either agent more than half
    all_zero = DiscreteAssignment([0] * 14400)
    assert is_pareto_optimal_discrete(WIDE, all_zero) == Verdict(True, None)
    assert verify_ceei_disc(WIDE, all_zero) == Verdict(False, ViolatingBundle(1, tuple(range(14400))))
    y, prices = exists_ceei_disc_bruteforce(WIDE)
    assert y == DiscreteAssignment([0] * 7200 + [1] * 7200)
    assert set(prices) == {Fraction(1, 7200)}


def test_huge_non_binary_utility():
    with pytest.raises(NotBinary, match=r"is 10000\.\.\.\(5001 digits\), not 0/1") as excinfo:
        binary_max_nash(Instance([[HUGE, 0], [0, 1]]))
    assert excinfo.value.value == HUGE


def test_huge_weight_outside_the_window():
    with pytest.raises(WindowViolation) as excinfo:
        ThreePartitionInput([HUGE] * 3, HUGE)
    assert (excinfo.value.weight, excinfo.value.bound) == (HUGE, HUGE)


def test_huge_weights_with_the_wrong_sum():
    with pytest.raises(SumMismatch) as excinfo:
        ThreePartitionInput([HUGE] * 3, 3 * HUGE + 1)
    assert (excinfo.value.total, excinfo.value.expected) == (3 * HUGE, 3 * HUGE + 1)


def _one_of_each_error():
    return [
        ceei.CeeiError("plain"),
        ceei.DimensionMismatch("prices", 3, 2),
        ceei.InvalidAssignment("object 1 is split"),
        InstanceTooLarge(2, 40, 1000, 2**40),
        ceei.NonConvergence(200, 1.5e-3),
        NotBinary(0, 2, Fraction(1, 2)),
        ceei.NotIdenticalUtilities(2),
        ceei.InconclusiveSearch(7, Fraction(3, 2)),
        ceei.EmptyMultiset("no integers"),
        WindowViolation(3, 9, 10),
        SumMismatch(31, 30),
        ceei.DocumentSyntaxError(2, 5, "unexpected ']'"),
        ceei.SchemaError("utilities", "expected a list"),
        ceei.InvariantError([ceei.InstanceViolation("negative_entry", agent=0, object=1)]),
    ]


def test_examples_cover_every_exported_error():
    exported = {getattr(ceei, name) for name in ceei.__all__}
    errors = {kind for kind in exported if isinstance(kind, type) and issubclass(kind, ceei.CeeiError)}
    assert {type(error) for error in _one_of_each_error()} == errors


# the home module of each public name of `ceei`, which the package imports
# on first access to the name
HOMES = {
    "equilibrium": "EquilibriumSolution ResidualReport kkt_residual solve_eg",
    "errors": "CeeiError DimensionMismatch DocumentSyntaxError EmptyMultiset InconclusiveSearch InstanceTooLarge"
    " InvalidAssignment InvariantError NonConvergence NotBinary NotIdenticalUtilities SchemaError SumMismatch"
    " WindowViolation",
    "fairness": "Verdict is_envy_free is_pareto_optimal_discrete verify_ceei_disc verify_ceei_frac",
    "instances": "PartitionInput ThreePartitionInput binary_gap_example from_partition from_three_partition"
    " gen_random instance_digest parse_assignment parse_instance separation_example serialize_instance",
    "model": "Certificate DiscreteAssignment DominatingAssignment EnvyPair FractionalAssignment Instance"
    " InstanceViolation KktViolation PriceSupport PriceVector ViolatingBundle agent_utilities nash_welfare"
    " validate_instance",
    "search": "SearchResult binary_max_nash brute_force_max_nash exists_ceei_disc_bruteforce"
    " exists_ceei_frac_discrete find_ceei_disc_identical max_nash_discrete",
}


def test_the_package_exports_each_name_from_its_home_module():
    homes = {name: module for module, names in HOMES.items() for name in names.split()}
    assert len(homes) == 55
    assert set(ceei.__all__) == set(homes)
    namespace = {}
    exec("from ceei import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(homes)
    for name, module in homes.items():
        assert getattr(ceei, name) is namespace[name] is getattr(importlib.import_module(f"ceei.{module}"), name)
    assert set(ceei.__all__) <= set(dir(ceei))


def test_an_unknown_name_is_no_attribute_of_the_package():
    with pytest.raises(AttributeError, match="^module 'ceei' has no attribute 'no_such_name'$"):
        ceei.no_such_name
    assert not hasattr(ceei, "no_such_name")


@pytest.mark.parametrize("error", _one_of_each_error(), ids=lambda error: type(error).__name__)
@pytest.mark.parametrize(
    "round_trip", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_errors_survive_pickle_and_copy(error, round_trip):
    again = round_trip(error)
    assert type(again) is type(error)
    assert str(again) == str(error)
    assert again.args == error.args
    assert vars(again) == vars(error)

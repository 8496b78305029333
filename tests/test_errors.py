from fractions import Fraction

import pytest

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
        exists_ceei_disc_bruteforce(WIDE)
    assert excinfo.value.required == 2**14400


def test_walks_past_the_int_to_str_limit_decide_without_a_guard():
    # the Pareto walk prunes to 14,400 nodes, and envy refutes price support
    # before verify_ceei_disc's 2^m guard is reached
    all_zero = DiscreteAssignment([0] * 14400)
    assert is_pareto_optimal_discrete(WIDE, all_zero) == Verdict(True, None)
    assert verify_ceei_disc(WIDE, all_zero) == Verdict(False, ViolatingBundle(1, tuple(range(14400))))


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

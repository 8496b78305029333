import math
import random
import time
from fractions import Fraction

import numpy
import pytest

from ceei import (
    DiscreteAssignment,
    InconclusiveSearch,
    Instance,
    InstanceTooLarge,
    InvariantError,
    SearchResult,
    binary_gap_example,
    binary_max_nash,
    brute_force_max_nash,
    exists_ceei_disc_bruteforce,
    exists_ceei_frac_discrete,
    find_ceei_disc_identical,
    from_partition,
    gen_random,
    is_envy_free,
    is_pareto_optimal_discrete,
    max_nash_discrete,
    nash_welfare,
    PriceSupport,
    PriceVector,
    Verdict,
    separation_example,
    verify_ceei_disc,
    verify_ceei_frac,
)
from ceei import errors, search
from ceei.errors import DEFAULT_BUNDLE_LIMIT, DEFAULT_ENUM_LIMIT
from oracles import all_discrete_assignments, checks, equal_split_exists, has_equal_bipartition, mixed_instance


def _product_oracle_cases():
    rng = random.Random(8100)
    cases = [
        pytest.param(mixed_instance(rng, max_objects=9, max_assignments=2048), id=f"mixed-{k}")
        for k in range(24)
    ]
    for n, m in ((2, 11), (3, 7), (4, 5), (4, 6), (5, 4)):
        rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        cases.append(pytest.param(Instance(rows), id=f"binary-{n}x{m}"))
    # the brute force scores the Pareto fronts of a head of m - m//2 objects
    # and a tail of m//2: more agents than objects skip the fronts (7x1,
    # 257x1, 7x4, 8x3, 17x2), a welfare-0 optimum whose halves dominance
    # drops, and identical rows where it drops nothing
    return cases + [
        pytest.param(separation_example(), id="separation"),
        pytest.param(binary_gap_example(), id="binary-gap"),
        pytest.param(Instance([[3, 1]]), id="single-agent"),
        pytest.param(Instance([[0] * 6] * 3), id="all-zero"),  # the all-zero owner vector wins
        pytest.param(Instance([[0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 1]]), id="zero-row"),
        pytest.param(gen_random(2, 8, 9, seed=1), id="no-head-2x8"),
        pytest.param(gen_random(3, 5, 3, seed=2), id="no-head-3x5"),
        pytest.param(gen_random(7, 1, 9, seed=3), id="one-tail-object-7x1"),
        pytest.param(gen_random(7, 4, 9, seed=4), id="blocks-7x4"),
        pytest.param(gen_random(8, 3, 9, seed=5), id="blocks-8x3"),
        pytest.param(gen_random(17, 2, 9, seed=6), id="one-tail-object-17x2"),
        pytest.param(gen_random(257, 1, 9, seed=7), id="one-tail-object-257x1"),
        pytest.param(Instance([[3, 0, 1, 4, 1, 5, 9, 2, 6, 5, 3]]), id="one-agent"),
        # welfare 0, and the front of object 0 drops the all-zero owner's (0, 0, 0)
        pytest.param(Instance([[0, 1], [1, 0], [0, 0]]), id="zero-welfare-dominated-halves"),
        pytest.param(Instance([[5, 3, 8, 1, 9, 2, 7]] * 3), id="identical-rows-undominated"),
        pytest.param(
            Instance([[1, 0, 0, 0, 1, 0, 0], [1, 1, 0, 1, 0, 1, 1], [0, 1, 1, 1, 0, 0, 1]]), id="binary-sparse-agent-0"
        ),
    ]


# every assignment leaves some agent with nothing: more agents than objects,
# or three agents sharing the two objects they value; branch and bound alone
# truncates both at limit=1000
ZERO_OPTIMA = [
    pytest.param(gen_random(9, 8, 100, seed=0), id="9x8"),
    pytest.param(
        Instance([[5, 7] + [0] * 10, [7, 5] + [0] * 10, [6, 6] + [0] * 10, [0, 0] + list(range(1, 11))]),
        id="three-share-two-of-12",
    ),
]


class TestBruteForce:
    @pytest.mark.parametrize("inst", _product_oracle_cases())
    def test_matches_the_product_oracle(self, inst):
        best = checks.max_nash_owner(inst.utilities)
        result = brute_force_max_nash(inst)
        assert (list(result.best.owner), result.welfare) == (best, checks.nash_product(inst.utilities, best))
        assert result.nodes_explored == inst.n**inst.m
        assert result.optimal

    def test_decides_4_agents_and_10_binary_objects_quickly(self):
        # 4^10 owner vectors, about 0.7 s when each was scored on its own
        # and 0.06 s when scored in blocks (2-core VM)
        inst = gen_random(4, 10, 1, seed=0)
        start = time.perf_counter()
        result = brute_force_max_nash(inst)
        assert time.perf_counter() - start < 0.3
        assert result.nodes_explored == 4**10
        assert result.welfare == binary_max_nash(inst).welfare

    def test_decides_4_agents_and_12_objects_within_a_second(self):
        # 4^12 owner vectors, about 4.3 s when each head scored a block of
        # 256 tails and under 0.1 s over the two halves' Pareto fronts (2-core VM)
        inst = gen_random(4, 12, 100, seed=0)
        start = time.perf_counter()
        result = brute_force_max_nash(inst)
        assert time.perf_counter() - start < 1
        assert result.nodes_explored == 4**12
        expected = max_nash_discrete(inst)  # the same lexicographic tie-break
        assert (result.best, result.welfare) == (expected.best, expected.welfare)

    def test_more_agents_than_objects_return_the_zero_owner_vector_at_once(self):
        # 257^2 owner vectors all score 0; about 1.3 s when both fronts were
        # still built (2-core VM)
        inst = gen_random(257, 2, 9, seed=1)
        start = time.perf_counter()
        result = brute_force_max_nash(inst)
        assert time.perf_counter() - start < 0.1
        assert result == SearchResult(DiscreteAssignment([0, 0]), Fraction(0), 257**2, True)

    def test_size_guard(self):
        inst = gen_random(4, 14, 5, seed=0)
        with pytest.raises(InstanceTooLarge):
            brute_force_max_nash(inst, limit=10**6)

    def test_many_objects_do_not_exhaust_the_stack(self):
        result = brute_force_max_nash(Instance([[1] * 1500]))
        assert result.best == DiscreteAssignment([0] * 1500)
        assert result.welfare == 1500
        assert result.nodes_explored == 1


class TestBranchAndBound:
    def test_single_agent_two_objects(self):
        result = max_nash_discrete(Instance([[5, 7]]))
        assert result.welfare == 12

    @pytest.mark.parametrize("seed", range(25))
    def test_oracle_equivalence_including_witness(self, seed):
        rng = random.Random(seed)
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 6), 8, seed=seed)
        exhaustive = brute_force_max_nash(inst)
        bounded = max_nash_discrete(inst)
        assert bounded.optimal
        assert bounded.welfare == exhaustive.welfare
        assert bounded.best == exhaustive.best  # shared lexicographic tie-break

    def test_node_budget_truncates_instead_of_raising(self, separation):
        result = max_nash_discrete(separation, limit=3)
        assert not result.optimal
        assert result.nodes_explored <= 3
        assert result.welfare == nash_welfare(separation, result.best)

    @pytest.mark.parametrize("inst", ZERO_OPTIMA)
    def test_zero_optimum_is_decided_before_the_search(self, inst):
        result = max_nash_discrete(inst, limit=1000)
        assert (result.best, result.welfare, result.optimal) == (DiscreteAssignment([0] * inst.m), 0, True)

    def test_zero_welfare_frontier_returns_lexicographic_first(self, contested_object):
        result = max_nash_discrete(contested_object)
        assert result.optimal
        assert result.welfare == 0
        assert result.best == DiscreteAssignment([0])

    @pytest.mark.parametrize("seed", range(40))
    def test_witness_matches_brute_force_on_mixed_entries(self, seed):
        inst = mixed_instance(random.Random(5000 + seed))
        exhaustive = brute_force_max_nash(inst)
        bounded = max_nash_discrete(inst)
        assert bounded.optimal
        assert (bounded.best, bounded.welfare) == (exhaustive.best, exhaustive.welfare)

    def test_random_4x13_is_decided_within_a_small_budget(self):
        # the additive bound alone needed 1.87M nodes here
        inst = gen_random(4, 13, 100, seed=2)
        result = max_nash_discrete(inst, limit=50_000)
        assert result.optimal
        assert result.welfare == nash_welfare(inst, result.best) == 2972952576

    @pytest.mark.parametrize("seed", range(8))
    def test_truncated_search_keeps_at_least_the_greedy_welfare(self, seed):
        inst = gen_random(3, 9, 20, seed=seed)
        greedy = max_nash_discrete(inst, limit=1)
        assert not greedy.optimal and greedy.welfare > 0
        assert greedy.welfare == nash_welfare(inst, greedy.best)
        welfare = greedy.welfare
        for budget in (10, 100, 1000):
            result = max_nash_discrete(inst, limit=budget)
            assert result.welfare >= welfare
            welfare = result.welfare
        assert welfare <= max_nash_discrete(inst).welfare

    @pytest.mark.parametrize("search_fn", [max_nash_discrete, exists_ceei_frac_discrete])
    def test_negative_utilities_are_rejected(self, search_fn):
        with pytest.raises(InvariantError) as raised:
            search_fn(Instance([[-3, -2, -2], [-3, 1, 2]]))
        assert [(v.kind, v.agent, v.object) for v in raised.value.violations] == [
            ("negative_entry", 0, 0),
            ("negative_entry", 0, 1),
            ("negative_entry", 0, 2),
            ("negative_entry", 1, 0),
        ]

    def test_node_budget_stops_a_deep_search_cleanly(self):
        result = max_nash_discrete(Instance([[2] * 1200] * 2), limit=5000)  # not 0/1, so branch and bound
        assert not result.optimal
        assert result.nodes_explored == 5000
        assert result.best.m == 1200

    @pytest.mark.parametrize("nodes", [0, -1])
    def test_node_budget_below_one_is_rejected(self, nodes, separation):
        with pytest.raises(ValueError, match=f"an enumeration limit must be at least 1, not {nodes}"):
            max_nash_discrete(separation, limit=nodes)


def _zero_one_int_rows(seed):
    """Random 0/1 rows, each divided by its own integer from 1 to 6, so the
    int rows are 0/1 while the utilities may be rational."""
    rng = random.Random(7000 + seed)
    n, m = rng.randint(1, 3), rng.randint(1, 7)
    rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
    if seed % 2:
        rows = [[Fraction(v, k) for v in row] for row, k in zip(rows, (rng.randint(1, 6) for _ in rows))]
    return Instance(rows)


class TestZeroOneRoute:
    @pytest.mark.parametrize(
        "inst",
        [pytest.param(_zero_one_int_rows(seed), id=f"random-{seed}") for seed in range(40)]
        + [
            pytest.param(Instance([["1/3", "1/3", 0], [0, "1/2", "1/2"]]), id="thirds-halves"),
            pytest.param(Instance([["1/7", 0, "1/7"], ["1/5", "1/5", 0], [0, "1/4", 0]]), id="sevenths"),
            pytest.param(Instance([[1, 0], [1, 0]]), id="object-nobody-values"),
        ],
    )
    def test_zero_one_int_rows_are_maximized_in_polynomial_time(self, inst):
        assert all(v in (0, 1) for row in inst.int_rows for v in row)
        assert inst.is_binary()
        result = max_nash_discrete(inst, limit=1)  # branch and bound would stop at once
        assert result == binary_max_nash(inst)
        assert result.optimal
        optimum = checks.nash_product(inst.utilities, checks.max_nash_owner(inst.utilities))
        assert result.welfare == brute_force_max_nash(inst).welfare == optimum
        assert result.welfare == nash_welfare(inst, result.best)
        with pytest.raises(ValueError, match="an enumeration limit must be at least 1, not 0"):
            max_nash_discrete(inst, limit=0)


class TestExistsFractionalSupport:
    def test_single_agent_everything(self, single_agent):
        assert exists_ceei_frac_discrete(single_agent) == DiscreteAssignment([0, 0])

    def test_contested_object_has_none(self, contested_object):
        # the fractional optimum is positive, every discrete split is not
        assert exists_ceei_frac_discrete(contested_object) is None

    def test_truncated_search_is_inconclusive(self, separation):
        with pytest.raises(InconclusiveSearch):
            exists_ceei_frac_discrete(separation, limit=2)

    @pytest.mark.parametrize("inst", ZERO_OPTIMA)
    def test_zero_optimum_has_none_within_a_small_limit(self, inst):
        assert exists_ceei_frac_discrete(inst, limit=1000) is None

    @pytest.mark.parametrize("nodes", [0, -1])
    def test_limit_below_one_is_rejected_on_the_binary_route(self, nodes, binary_gap):
        with pytest.raises(ValueError, match=f"an enumeration limit must be at least 1, not {nodes}"):
            exists_ceei_frac_discrete(binary_gap, limit=nodes)

    def test_many_objects_do_not_exhaust_the_stack(self):
        assert exists_ceei_frac_discrete(Instance([[1] * 1500])) == DiscreteAssignment([0] * 1500)

    @pytest.mark.parametrize(
        "utilities, expected",
        [([[1, 1, 0], [0, 1, 0]], DiscreteAssignment([0, 1, 0])), ([[1, 0], [1, 0]], None)],
    )
    def test_objects_nobody_values(self, utilities, expected):
        assert exists_ceei_frac_discrete(Instance(utilities)) == expected

    @pytest.mark.parametrize("utilities", [[[0, 0], [1, 1]], [[1, 1, 1], [0, 0, 0]], [[2, 0], [0, 0]]])
    def test_zero_row_is_an_invariant_error(self, utilities):
        with pytest.raises(InvariantError):
            exists_ceei_frac_discrete(Instance(utilities))

    @pytest.mark.parametrize("seed", range(200))
    def test_binary_route_matches_branch_and_bound(self, seed):
        rng = random.Random(2000 + seed)
        inst = gen_random(rng.randint(1, 4), rng.randint(1, 9), 1, seed=seed)
        found = exists_ceei_frac_discrete(inst)
        # any maximizer decides existence, so the oracle's owner is as good as the route's
        assert (found is not None) == verify_ceei_frac(inst, brute_force_max_nash(inst).best).holds
        if found is not None:
            assert verify_ceei_frac(inst, found).holds
            assert nash_welfare(inst, found) == brute_force_max_nash(inst).welfare

    @pytest.mark.parametrize(
        "utilities",
        [
            [["1/3", "1/3", 0], [0, "1/2", "1/2"]],
            [["1/3", "1/3", 0, 0], [0, 0, "1/2", "1/2"]],
            [["1/7", 0, "1/7"], ["1/5", "1/5", 0], [0, "1/4", 0]],
        ],
    )
    def test_rational_rows_take_the_binary_route_of_their_integer_copy(self, utilities):
        inst = Instance(utilities)
        rows = inst.int_rows
        assert all(v in (0, 1) for row in rows for v in row)
        # the budget would truncate branch and bound at once, so a decided
        # answer shows the binary route ran
        found = exists_ceei_frac_discrete(inst, limit=1)
        assert found == exists_ceei_frac_discrete(Instance(rows), limit=1)
        assert found is None or verify_ceei_frac(inst, found).holds

    def test_large_binary_instance_is_decided_within_a_small_budget(self):
        inst = gen_random(40, 200, 1, seed=0)
        found = exists_ceei_frac_discrete(inst, limit=10_000)
        assert found is not None
        assert verify_ceei_frac(inst, found).holds
        # price support certifies the maximizer's assignment optimal as well
        assert verify_ceei_frac(inst, binary_max_nash(inst).best).holds

    @pytest.mark.parametrize("seed", range(12))
    def test_found_assignments_reach_the_fractional_optimum(self, seed):
        from ceei import solve_eg

        rng = random.Random(500 + seed)
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 6), 7, seed=seed)
        found = exists_ceei_frac_discrete(inst)
        if found is not None:
            assert verify_ceei_frac(inst, found).holds
            optimum = float(nash_welfare(inst, solve_eg(inst).x))
            assert abs(float(nash_welfare(inst, found)) - optimum) <= 1e-6 * optimum


def _scaled_zero_one_rows(seed):
    """Random 0/1 rows, each times its own p/q with p and q from 1 to 4."""
    rng = random.Random(7300 + seed)
    n, m = rng.randint(1, 3), rng.randint(1, 6)
    factors = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n)]
    return Instance([[factor * rng.randint(0, 1) for _ in range(m)] for factor in factors])


class TestBinaryMaxNash:
    def test_identity_instance_forces_diagonal(self):
        inst = Instance([[1 if i == j else 0 for j in range(3)] for i in range(3)])
        result = binary_max_nash(inst)
        assert result.welfare == 1
        assert result.best == DiscreteAssignment([0, 1, 2])

    def test_one_agent_interested_in_one_object(self):
        inst = Instance([[1, 1, 1, 1], [0, 0, 0, 1]])
        result = binary_max_nash(inst)
        assert result.welfare == 3

    @pytest.mark.parametrize(
        "utilities, offenders",
        [
            ([[95, 5, 2, 1], [1, 2, 5, 95]], [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]),
            # int rows [3, 2] and [1, 0]: only the first row's scale is no 1/k
            ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 0]], [(0, 0), (0, 1)]),
        ],
        ids=["separation", "scaled"],
    )
    def test_rejects_non_binary_entries(self, utilities, offenders):
        with pytest.raises(InvariantError) as excinfo:
            binary_max_nash(Instance(utilities))
        assert [(v.kind, v.agent, v.object) for v in excinfo.value.violations] == [
            ("non_binary_entry", i, j) for i, j in offenders
        ]

    def test_starved_agent_collapses_to_zero(self, contested_object):
        result = binary_max_nash(contested_object)
        assert result.welfare == 0
        assert result.best == DiscreteAssignment([0])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_oracle_on_random_binary_instances(self, seed):
        rng = random.Random(1000 + seed)
        inst = gen_random(rng.randint(1, 4), rng.randint(1, 8), 1, seed=seed)
        assert binary_max_nash(inst).welfare == brute_force_max_nash(inst).welfare

    @pytest.mark.parametrize(
        "inst", [pytest.param(_scaled_zero_one_rows(seed), id=f"random-{seed}") for seed in range(40)]
    )
    def test_answers_exactly_where_is_binary_holds(self, inst):
        # the int rows of p/q * {0, 1} are 0/1 iff each nonzero row's p/q is some 1/k
        binary = all(v.numerator == 1 for row in inst.utilities for v in row if v)
        assert inst.is_binary() == binary
        if binary:
            assert binary_max_nash(inst).welfare == brute_force_max_nash(inst).welfare
        else:
            with pytest.raises(InvariantError) as excinfo:
                binary_max_nash(inst)
            assert [(v.kind, v.agent, v.object) for v in excinfo.value.violations] == [
                ("non_binary_entry", i, j) for i, row in enumerate(inst.int_rows) for j, v in enumerate(row) if v not in (0, 1)
            ]

    @pytest.mark.parametrize("utilities", [[[1, 0], [1, 0]], [[1, 1, 0], [0, 1, 0]], [[0]]])
    def test_objects_nobody_values_match_the_oracle(self, utilities):
        inst = Instance(utilities)
        result = binary_max_nash(inst)
        assert result.welfare == brute_force_max_nash(inst).welfare
        assert result.welfare == nash_welfare(inst, result.best)


class TestIdenticalUtilitiesFinder:
    def test_even_weights_split(self):
        inst = from_partition([2, 1, 1])
        found = find_ceei_disc_identical(inst)
        assert found is not None
        sums = [sum(inst.utilities[0][j] for j in found.bundle(i)) for i in range(2)]
        assert sums == [2, 2]
        assert verify_ceei_disc(inst, found).holds

    def test_odd_total_is_a_no_instance(self):
        inst = from_partition([3, 1, 1])
        assert find_ceei_disc_identical(inst) is None

    def test_three_way_planted_split(self):
        # n = 2 groups, bound 10: two planted triples (3, 3, 4)
        inst = Instance([[3, 3, 4, 3, 3, 4]] * 2)
        found = find_ceei_disc_identical(inst)
        assert found is not None
        assert verify_ceei_disc(inst, found).holds

    @pytest.mark.parametrize(
        "utilities, agents",
        [
            ([[95, 5, 2, 1], [1, 2, 5, 95]], [1]),
            ([[1, 2], [2, 1], [1, 2], [1, 1]], [1, 3]),
            # rows equal up to scale still differ
            ([[1, 2], [2, 4], [Fraction(1, 2), 1]], [1, 2]),
        ],
        ids=["separation", "two-of-four", "scaled"],
    )
    def test_rejects_differing_rows(self, utilities, agents):
        with pytest.raises(InvariantError) as excinfo:
            find_ceei_disc_identical(Instance(utilities))
        assert [(v.kind, v.agent, v.object) for v in excinfo.value.violations] == [
            ("differing_row", i, None) for i in agents
        ]

    def test_rational_weights_are_scaled(self):
        inst = Instance([[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]] * 2)
        found = find_ceei_disc_identical(inst)
        assert found is not None
        sums = [sum((inst.utilities[0][j] for j in found.bundle(i)), Fraction(0)) for i in range(2)]
        assert sums[0] == sums[1] == Fraction(1, 2)

    def test_many_objects_do_not_exhaust_the_stack(self):
        inst = Instance([[1] * 1500 + [2]] * 2)
        found = find_ceei_disc_identical(inst)
        assert found is not None
        assert sum(inst.utilities[0][j] for j in found.bundle(0)) == 751
        assert sum(inst.utilities[0][j] for j in found.bundle(1)) == 751

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_subset_sum_oracle(self, seed):
        rng = random.Random(seed)
        values = [rng.randint(1, 20) for _ in range(rng.randint(1, 10))]
        inst = from_partition(values)
        assert (find_ceei_disc_identical(inst) is not None) == has_equal_bipartition(values)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("high", [9, 1000])
    def test_agrees_with_enumeration_oracle(self, seed, n, high):
        rng = random.Random(f"{seed}:{n}:{high}")
        m = rng.randint(1, {2: 9, 3: 8, 4: 7}[n])  # keeps the n^m oracle small
        while True:  # an indivisible total would settle the answer at once
            weights = [rng.randint(1, high) for _ in range(m)]
            if sum(weights) % n == 0:
                break
        found = find_ceei_disc_identical(Instance([weights] * n))
        assert (found is not None) == equal_split_exists(weights, n)
        if found is not None:
            sums = [sum(weights[j] for j in found.bundle(i)) for i in range(n)]
            assert len(set(sums)) == 1

    def test_large_distinct_weights_without_a_split(self):
        # the offsets 2^(i+1) sum to less than 2^40, so equal sums would need
        # equal counts and then equal offset sums, which two disjoint sets of
        # distinct powers of two never have
        weights = [2**40 + 2 ** (i + 1) for i in range(28)]
        assert find_ceei_disc_identical(Instance([weights] * 2)) is None

    def test_large_weights_each_used_twice_split(self):
        weights = [2**40 + 2 ** (i + 1) for i in range(14) for _ in range(2)]
        found = find_ceei_disc_identical(Instance([weights] * 2))
        assert found is not None
        assert sum(weights[j] for j in found.bundle(0)) == sum(weights[j] for j in found.bundle(1))

    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("engine", [search._first_fit, search._meet_in_the_middle], ids=["dfs", "mitm"])
    def test_each_search_alone_agrees_with_enumeration_oracle(self, engine, seed):
        # small weights with repeats and zeros, so runs of equal weight occur
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        m = rng.randint(1, {2: 9, 3: 8, 4: 7}[n])
        while True:
            weights = [rng.choice((0, 1, 2, 3, rng.randint(1, 12))) for _ in range(m)]
            if sum(weights) % n == 0:
                break
        target = sum(weights) // n
        owner = search._race(DEFAULT_ENUM_LIMIT, engine(search._largest_first(weights), weights, n, target))
        assert (owner is not None) == equal_split_exists(weights, n)
        if owner is not None:
            sums = [0] * n
            for j, b in enumerate(owner):
                sums[b] += weights[j]
            assert sums == [target] * n

    def test_many_small_weights_among_three_agents_split_at_once(self):
        start = time.perf_counter()
        found = find_ceei_disc_identical(Instance([[1] * 3000] * 3))
        assert time.perf_counter() - start < 10
        assert [len(found.bundle(i)) for i in range(3)] == [1000, 1000, 1000]

    def test_long_run_of_equal_weights_without_a_split(self):
        # each third needs 1001, which from 2s takes the one 3, so two of
        # them fall short
        start = time.perf_counter()
        assert find_ceei_disc_identical(Instance([[2] * 1500 + [3]] * 3)) is None
        assert time.perf_counter() - start < 10

    # the front half of these weights makes 31 load tuples and the back 32,
    # so a limit of 20 stops the front and one of 40 the back
    @pytest.mark.parametrize("room", [20, 40], ids=["front", "back"])
    def test_meet_in_the_middle_drops_out_past_its_tuple_limit(self, monkeypatch, room):
        weights = [2**40 + 2 ** (i + 1) for i in range(10)]
        instances = [Instance([weights] * 2), Instance([weights + weights] * 2)]
        answers = [find_ceei_disc_identical(inst) for inst in instances]
        assert answers[0] is None and answers[1] is not None
        monkeypatch.setattr(search, "IDENTICAL_TUPLE_LIMIT", room)
        target = sum(weights) // 2
        mitm = search._meet_in_the_middle(search._largest_first(weights), weights, 2, target)
        with pytest.raises(StopIteration) as finished:
            while True:
                next(mitm)
        assert finished.value.value is search._OUT_OF_ROOM
        # the depth-first search then decides alone
        assert [find_ceei_disc_identical(inst) for inst in instances] == answers


    def test_limit_counts_the_race_steps(self):
        # below the race's length every limit stops it on entering that
        # node; from there on every limit gives the unlimited answer
        inst = Instance([[3, 3, 4, 3, 3, 4, 0]] * 2)
        answers = []
        for limit in range(1, 60):
            try:
                answers.append(find_ceei_disc_identical(inst, limit))
            except InconclusiveSearch as exc:
                assert not answers
                assert (exc.nodes_explored, exc.best_welfare) == (limit, None)
        assert 1 < len(answers) < 59
        assert set(answers) == {find_ceei_disc_identical(inst)}


@pytest.mark.parametrize("seed", range(12))
def test_identical_rows_answers_match_the_owner_vector_walk(seed):
    # identical nonzero rows take the equal-split route in both existence
    # searches; each must find an answer exactly when a walk over every
    # owner vector finds one for its notion, and every answer passes both
    # verifiers, ceei-disc's with the CEEI-frac prices
    rng = random.Random(4400 + seed)
    for _ in range(6):
        n, m = rng.choice((1, 2, 2, 3, 3)), rng.randint(1, 8)
        row = [rng.choice((0, 0, 1, 2, 3, rng.randint(1, 12))) for _ in range(m)]
        row[rng.randrange(m)] += 1  # not all zero
        if rng.random() < 0.75:  # a total n divides, which no split is refused for
            row[rng.randrange(m)] += -sum(row) % n
        inst = Instance([row] * n)
        owners = list(all_discrete_assignments(n, m))
        frac, disc = exists_ceei_frac_discrete(inst), exists_ceei_disc_bruteforce(inst)
        assert (frac is not None) == any(verify_ceei_frac(inst, y).holds for y in owners)
        assert (disc is not None) == any(verify_ceei_disc(inst, y).holds for y in owners)
        if frac is not None:
            assert verify_ceei_frac(inst, frac).holds and verify_ceei_disc(inst, frac).holds
        if disc is not None:
            y, prices = disc
            assert verify_ceei_frac(inst, y) == Verdict(True, PriceSupport(prices))
            assert verify_ceei_disc(inst, y).holds
            assert checks.discrete_support_problem(inst.utilities, y.owner, list(prices)) is None


class TestExistsDiscreteSupport:
    def test_all_zero_identical_rows_keep_the_owner_vector_walk(self):
        # no split of all-zero rows has positive totals to price, so the walk
        # runs: the first owner vector is envy-free, and with no better bundle
        # agent 0's anchor takes the budget; the fractional test refuses
        inst = Instance([[0, 0], [0, 0]])
        assert exists_ceei_disc_bruteforce(inst) == (DiscreteAssignment([0, 0]), PriceVector([1, 0]))
        with pytest.raises(InvariantError):
            exists_ceei_frac_discrete(inst)

    def test_limit_stops_the_walk_before_a_leaf(self):
        # 3^20 owner vectors, but the walk counts only the nodes it enters:
        # below depth 20 no leaf, and so no bundle guard, is reached
        inst = gen_random(3, 20, 3, seed=1)
        with pytest.raises(InconclusiveSearch) as excinfo:
            exists_ceei_disc_bruteforce(inst, limit=20)
        assert (excinfo.value.nodes_explored, excinfo.value.best_welfare) == (20, None)

    def test_limit_counts_the_walk_nodes(self):
        # the first two envy-free owner vectors lack price support and the
        # third has it, off the fractional prices; below the walk's length
        # every limit stops it on entering that node, and from there on
        # every limit gives the unlimited answer
        inst = Instance([[3, 0, 3, 4, 4], [6, 4, 4, 3, 0], [2, 6, 3, 0, 1]])
        answers = []
        for limit in range(1, 40):
            try:
                answers.append(exists_ceei_disc_bruteforce(inst, limit))
            except InconclusiveSearch as exc:
                assert not answers
                assert (exc.nodes_explored, exc.best_welfare) == (limit, None)
        assert 1 < len(answers) < 39
        assert answers == [exists_ceei_disc_bruteforce(inst)] * len(answers)
        y, _ = answers[0]
        assert y == DiscreteAssignment([1, 2, 1, 0, 0]) and not verify_ceei_frac(inst, y).holds

    def test_walk_leaves_are_the_envy_free_owner_vectors(self):
        for seed in range(12):
            inst = mixed_instance(random.Random(6100 + seed), max_agents=4, max_objects=6, max_assignments=1024)
            envy_free = [y.owner for y in all_discrete_assignments(inst.n, inst.m) if is_envy_free(inst, y).holds]
            assert list(search._envy_free_owners(inst.int_rows, DEFAULT_ENUM_LIMIT)) == envy_free

    def test_a_leafs_bundle_walk_stops_the_search(self):
        # the first envy-free owner vector the walk reaches, 15 objects
        # each, is not CEEI-frac, and its minimal strictly better bundles, of
        # 16 or 17 objects out of 30, are far more than verify_ceei_disc's
        # default walk admits: the search is undecided, with that walk's count
        start = time.perf_counter()
        with pytest.raises(InconclusiveSearch) as excinfo:
            exists_ceei_disc_bruteforce(Instance([[2] + [1] * 29, [1] * 30]))
        assert time.perf_counter() - start < 1.0
        assert (excinfo.value.nodes_explored, excinfo.value.best_welfare) == (DEFAULT_BUNDLE_LIMIT, None)
        assert excinfo.value.undecided == "discrete price support"

    def test_ceei_frac_owner_past_16_objects_is_found(self):
        # 18 equal weights: every envy-free owner vector splits them nine and
        # nine, which is CEEI-frac, so the equal split is certified by its
        # prices, 1/9 an object, with no bundle walk
        inst = from_partition([1] * 18)
        y, prices = exists_ceei_disc_bruteforce(inst)
        assert verify_ceei_disc(inst, y).holds and verify_ceei_frac(inst, y).holds
        assert prices == PriceVector([Fraction(1, 9)] * 18)

    @pytest.mark.parametrize("seed", range(24))
    def test_envy_filter_matches_the_unfiltered_loop(self, seed):
        inst = mixed_instance(random.Random(6000 + seed), max_agents=4, max_objects=6, max_assignments=1024)
        unfiltered = None
        for y in all_discrete_assignments(inst.n, inst.m):
            verdict = verify_ceei_disc(inst, y)
            if verdict.holds:
                unfiltered = (y, verdict.certificate.prices)
                break
        assert exists_ceei_disc_bruteforce(inst) == unfiltered


def _rational_instance(seed):
    """A random valid instance whose entries are integers over random denominators."""
    rng = random.Random(900 + seed)
    n = rng.randint(2, 3)
    m = rng.randint(2, 6 if n == 2 else 5)
    base = gen_random(n, m, 12, seed=seed)
    return Instance([[v / rng.randint(1, 9) for v in row] for row in base.utilities]), rng


# every walk that raises at its `limit` (`max_nash_discrete` truncates
# instead): the error it raises at a limit of 1 on a 2x2 instance, and that
# error's fields
LIMITED = [
    pytest.param(
        lambda inst, limit: is_pareto_optimal_discrete(inst, DiscreteAssignment([1, 0]), limit=limit),
        "DEFAULT_ENUM_LIMIT",
        InconclusiveSearch,
        {"nodes_explored": 1, "best_welfare": None},
        id="is_pareto_optimal_discrete",
    ),
    pytest.param(
        # [1, 0] is CEEI-frac, which needs no bundle walk; agent 1 of this
        # instance values nothing, so no fractional test decides [0, 0]
        lambda inst, limit: verify_ceei_disc(Instance([[1, 2], [0, 0]]), DiscreteAssignment([0, 0]), limit=limit),
        "DEFAULT_BUNDLE_LIMIT",
        InconclusiveSearch,
        {"nodes_explored": 1, "best_welfare": None},
        id="verify_ceei_disc",
    ),
    pytest.param(
        brute_force_max_nash, "DEFAULT_ENUM_LIMIT", InstanceTooLarge, {"limit": 1, "required": 4},
        id="brute_force_max_nash",
    ),
    pytest.param(
        exists_ceei_disc_bruteforce, "DEFAULT_ENUM_LIMIT", InconclusiveSearch, {"nodes_explored": 1, "best_welfare": None},
        id="exists_ceei_disc_bruteforce",
    ),
    pytest.param(
        exists_ceei_frac_discrete, "DEFAULT_ENUM_LIMIT", InconclusiveSearch, {"nodes_explored": 1, "best_welfare": 4},
        id="exists_ceei_frac_discrete",
    ),
    # identical rows take the equal-split race in both existence searches
    *(
        pytest.param(
            lambda inst, limit, call=call: call(Instance([[1, 2, 3]] * 2), limit=limit),
            "DEFAULT_ENUM_LIMIT",
            InconclusiveSearch,
            {"nodes_explored": 1, "best_welfare": None},
            id=f"{call.__name__}-identical",
        )
        for call in (find_ceei_disc_identical, exists_ceei_frac_discrete, exists_ceei_disc_bruteforce)
    ),
]


@pytest.mark.parametrize("call, default, error, fields", LIMITED)
def test_limit_none_is_the_default_and_zero_is_rejected(call, default, error, fields, monkeypatch):
    assert (DEFAULT_ENUM_LIMIT, DEFAULT_BUNDLE_LIMIT) == (20_000_000, 1 << 16)
    # None is read as the default when the call is made, so a default of 1
    # stops every walk at once, as a numpy int of 1 does; the owners [1, 0]
    # and [0, 0] are envy-free
    monkeypatch.setattr(errors, default, 1)
    for limit in (None, numpy.int64(1)):
        with pytest.raises(error) as excinfo:
            call(Instance([[1, 2], [2, 1]]), limit=limit)
        assert {name: getattr(excinfo.value, name) for name in fields} == fields
    for limit in (0, -1):
        with pytest.raises(ValueError, match=f"enumeration limit must be at least 1, not {limit}"):
            call(Instance([[1, 2], [2, 1]]), limit=limit)
    # a limit is an int: nan and inf once lifted it, True read as 1 and 1.5 as 2
    for limit in (float("nan"), float("inf"), 1.5, True):
        with pytest.raises(TypeError, match=f"enumeration limit must be an int, not {type(limit).__name__}"):
            call(Instance([[1, 2], [2, 1]]), limit=limit)


@pytest.mark.parametrize("seed", range(16))
def test_answers_match_the_instance_with_int_rows(seed):
    # every answer reads the rows only through per-agent comparisons, price
    # ratios u_kj / v_k, or Nash welfare (which the scales multiply by their
    # product), so the instance with integer rows must give the same ones
    inst, rng = _rational_instance(seed)
    rows, scales = inst.int_rows, inst.scales
    assert any(s > 1 for s in scales)
    scaled = Instance(rows)
    scale = Fraction(math.prod(scales))
    for _ in range(4):
        y = DiscreteAssignment([rng.randrange(inst.n) for _ in range(inst.m)])
        for verifier in (is_envy_free, is_pareto_optimal_discrete, verify_ceei_frac, verify_ceei_disc):
            assert verifier(inst, y) == verifier(scaled, y)

    brute, brute_scaled = brute_force_max_nash(inst), brute_force_max_nash(scaled)
    assert brute.welfare == brute_scaled.welfare / scale
    assert (brute.best, brute.nodes_explored, brute.optimal) == (
        brute_scaled.best, brute_scaled.nodes_explored, brute_scaled.optimal
    )
    # branch and bound orders objects by their best utility across agents,
    # which row scaling may change, so only the canonical optimum is compared
    bnb, bnb_scaled = max_nash_discrete(inst), max_nash_discrete(scaled)
    assert (bnb.best, bnb.welfare, bnb.optimal) == (bnb_scaled.best, bnb_scaled.welfare / scale, True)
    # a truncated search still reports its incumbent's welfare on the
    # instance's own rows; at one node that incumbent is the greedy one.
    # A zero optimum is decided before the search, at any limit
    for k in (1, 2, 3):
        truncated = max_nash_discrete(inst, limit=k)
        assert truncated.welfare == nash_welfare(inst, truncated.best)
        if k == 1:
            assert truncated.optimal == (bnb.welfare == 0)
    assert exists_ceei_frac_discrete(inst) == exists_ceei_frac_discrete(scaled)
    assert exists_ceei_disc_bruteforce(inst) == exists_ceei_disc_bruteforce(scaled)

    identical = Instance([inst.utilities[0]] * inst.n)
    assert find_ceei_disc_identical(identical) == find_ceei_disc_identical(Instance([rows[0]] * inst.n))

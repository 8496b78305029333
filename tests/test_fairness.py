import random
from fractions import Fraction

import pytest

from ceei import (
    DimensionMismatch,
    DiscreteAssignment,
    DominatingAssignment,
    EnvyPair,
    Instance,
    InstanceTooLarge,
    InstanceViolation,
    InvalidAssignment,
    InvariantError,
    KktViolation,
    ViolatingBundle,
    bundle_utility,
    gen_random,
    is_envy_free,
    is_pareto_optimal_discrete,
    nash_welfare,
    verify_ceei_disc,
    verify_ceei_frac,
)
from ceei.fairness import _inclusion_minimal, assignments
from oracles import (
    all_discrete_assignments,
    first_dominating_assignment,
    inclusion_minimal_pairwise,
    mixed_instance,
    recheck_discrete_price_support,
    recheck_fractional_price_support,
)

LOPSIDED = DiscreteAssignment([0, 1, 1, 1])  # favourite object vs the rest
EVEN = DiscreteAssignment([0, 0, 1, 1])  # two and two


class TestEnvyFree:
    def test_lopsided_split_is_envy_free(self, separation):
        assert is_envy_free(separation, LOPSIDED).holds

    def test_even_split_is_envy_free(self, separation):
        assert is_envy_free(separation, EVEN).holds

    def test_empty_bundle_envies_everything(self):
        inst = Instance([[2, 1], [2, 1]])
        verdict = is_envy_free(inst, DiscreteAssignment([0, 0]))
        assert not verdict.holds
        assert verdict.certificate == EnvyPair(envious=1, envied=0)

    def test_certificate_rechecks(self, separation):
        verdict = is_envy_free(separation, DiscreteAssignment([1, 1, 1, 1]))
        assert not verdict.holds
        pair = verdict.certificate
        own = bundle_utility(separation, pair.envious, [0, 0, 0, 0])
        other = bundle_utility(separation, pair.envious, [1, 1, 1, 1])
        assert own < other


class TestParetoOptimal:
    def test_lopsided_split_is_pareto_optimal(self, separation):
        assert is_pareto_optimal_discrete(separation, LOPSIDED).holds

    def test_reversed_split_is_dominated(self, separation):
        verdict = is_pareto_optimal_discrete(separation, DiscreteAssignment([1, 1, 1, 0]))
        assert not verdict.holds
        dominating = verdict.certificate.assignment
        before = [bundle_utility(separation, i, [1 if o == i else 0 for o in (1, 1, 1, 0)]) for i in range(2)]
        after = [
            bundle_utility(separation, i, [1 if o == i else 0 for o in dominating.owner])
            for i in range(2)
        ]
        assert all(a >= b for a, b in zip(after, before))
        assert any(a > b for a, b in zip(after, before))

    def test_single_agent_is_always_optimal(self, single_agent):
        assert is_pareto_optimal_discrete(single_agent, DiscreteAssignment([0, 0])).holds

    def test_enumeration_guard(self, separation):
        with pytest.raises(InstanceTooLarge):
            is_pareto_optimal_discrete(separation, EVEN, limit=10)

    def test_many_objects_do_not_exhaust_the_stack(self):
        # 1^1500 = 1 passes the guard; the walk must not recurse per object
        inst = Instance([[1] * 1500])
        assert is_pareto_optimal_discrete(inst, DiscreteAssignment([0] * 1500)).holds

    @pytest.mark.parametrize("seed", range(8))
    def test_first_dominating_assignment_matches_enumeration(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(2, 3)
        m = rng.randint(1, 6 if n == 2 else 4)
        # odd seeds mix "p/q" utilities in, so the walk runs on scaled rows
        choices = [0, 1, 2, 5] + (["1/2", "2/3", "7/4"] if seed % 2 else [3])
        inst = Instance([[rng.choice(choices) for _ in range(m)] for _ in range(n)])

        def values(z):
            return [sum((inst.utilities[i][j] for j in z.bundle(i)), Fraction(0)) for i in range(n)]

        for y in all_discrete_assignments(n, m):
            base = values(y)
            first = next(
                (
                    z
                    for z in all_discrete_assignments(n, m)
                    if all(a >= b for a, b in zip(values(z), base)) and values(z) != base
                ),
                None,
            )
            verdict = is_pareto_optimal_discrete(inst, y)
            assert verdict.holds == (first is None)
            if first is not None:
                assert verdict.certificate.assignment == first


    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_enumeration_oracle(self, seed):
        rng = random.Random(4000 + seed)
        inst = mixed_instance(rng)
        for _ in range(3):
            y = DiscreteAssignment([rng.randrange(inst.n) for _ in range(inst.m)])
            first = first_dominating_assignment(inst, y)
            verdict = is_pareto_optimal_discrete(inst, y)
            assert verdict.holds == (first is None)
            assert verdict.certificate == (None if first is None else DominatingAssignment(first))

    def test_guard_comes_before_the_search(self):
        inst = gen_random(3, 15, 9, seed=0)
        with pytest.raises(InstanceTooLarge):
            is_pareto_optimal_discrete(inst, DiscreteAssignment([0] * 15), limit=3**15 - 1)

    def test_negative_utilities_are_rejected(self):
        with pytest.raises(InvariantError) as raised:
            is_pareto_optimal_discrete(Instance([[-3, -2, -2], [-3, 1, "-1/2"]]), DiscreteAssignment([0, 1, 1]))
        assert raised.value.violations == [
            InstanceViolation("negative_entry", agent=i, object=j) for i, j in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2))
        ]

    def test_zero_rows_and_columns_are_accepted(self):
        inst = Instance([[0, 0, 1], [0, 0, 0]])
        assert is_pareto_optimal_discrete(inst, DiscreteAssignment([1, 1, 0])).holds
        verdict = is_pareto_optimal_discrete(inst, DiscreteAssignment([1, 1, 1]))
        assert verdict.certificate == DominatingAssignment(DiscreteAssignment([0, 0, 0]))


VERIFIERS = [is_envy_free, is_pareto_optimal_discrete, verify_ceei_frac, verify_ceei_disc]


@pytest.mark.parametrize("verifier", VERIFIERS)
def test_assignment_of_the_wrong_length_is_rejected(verifier, separation):
    with pytest.raises(DimensionMismatch) as excinfo:
        verifier(separation, DiscreteAssignment([0, 1, 1]))
    assert (excinfo.value.what, excinfo.value.expected, excinfo.value.got) == ("assignment", 4, 3)


@pytest.mark.parametrize("verifier", VERIFIERS)
def test_owner_beyond_the_agents_is_rejected(verifier, separation):
    with pytest.raises(InvalidAssignment, match="out of range for 2 agents"):
        verifier(separation, DiscreteAssignment([0, 1, 2, 1]))


def test_assignments_walk_int_totals_on_rational_utilities():
    inst = Instance([["1/2", "3/4", 2], [1, "5/6", "7/9"]])
    scales = (4, 18)
    walked = 0
    for owner, totals in assignments(inst):
        walked += 1
        assert all(type(t) is int for t in totals)
        exact = [
            sum((inst.utilities[i][j] for j, o in enumerate(owner) if o == i), Fraction(0))
            for i in range(inst.n)
        ]
        assert [Fraction(t, s) for t, s in zip(totals, scales)] == exact
    assert walked == 2**3


class TestVerifyFractionalSupport:
    def test_even_split_supported_with_exact_prices(self, separation):
        verdict = verify_ceei_frac(separation, EVEN)
        assert verdict.holds
        assert verdict.certificate.prices.prices == (
            Fraction(19, 20),
            Fraction(1, 20),
            Fraction(1, 20),
            Fraction(19, 20),
        )
        assert recheck_fractional_price_support(
            separation, EVEN, verdict.certificate.prices
        )

    def test_lopsided_split_not_supported(self, separation):
        verdict = verify_ceei_frac(separation, LOPSIDED)
        assert not verdict.holds
        gap = verdict.certificate
        assert isinstance(gap, KktViolation)
        # agent 1 holds o2 at ratio 2/102 while the column maximum is 5/95
        assert gap == KktViolation(agent=1, object=1, ratio_gap=Fraction(32, 969))

    def test_single_agent_trivially_supported(self, single_agent):
        assert verify_ceei_frac(single_agent, DiscreteAssignment([0, 0])).holds

    def test_zero_utility_agent_rejected_with_better_bundle(self):
        inst = Instance([[1, 1], [1, 1]])
        verdict = verify_ceei_frac(inst, DiscreteAssignment([0, 0]))
        assert not verdict.holds
        assert verdict.certificate == ViolatingBundle(agent=1, objects=(0,))

    def test_agent_valuing_nothing_is_an_invariant_error(self):
        inst = Instance([[0, 0], [1, 1]])
        with pytest.raises(InvariantError) as excinfo:
            verify_ceei_frac(inst, DiscreteAssignment([1, 1]))
        assert [v.kind for v in excinfo.value.violations] == ["zero_row"]
        assert excinfo.value.violations[0].agent == 0


class TestVerifyDiscreteSupport:
    def test_equal_split_of_identical_utilities(self):
        inst = Instance([[2, 1, 1], [2, 1, 1]])
        verdict = verify_ceei_disc(inst, DiscreteAssignment([0, 1, 1]))
        assert verdict.holds
        assert recheck_discrete_price_support(inst, DiscreteAssignment([0, 1, 1]), verdict.certificate.prices)

    def test_unequal_split_of_identical_utilities(self):
        inst = Instance([[2, 1, 1], [2, 1, 1]])
        verdict = verify_ceei_disc(inst, DiscreteAssignment([0, 0, 1]))
        assert not verdict.holds
        assert isinstance(verdict.certificate, ViolatingBundle)
        # the witness is strictly better for its agent than what it owns
        agent = verdict.certificate.agent
        own = sum(inst.utilities[agent][j] for j in DiscreteAssignment([0, 0, 1]).bundle(agent))
        claimed = sum(inst.utilities[agent][j] for j in verdict.certificate.objects)
        assert claimed > own

    def test_single_agent_uniform_prices(self):
        inst = Instance([[3, 1, 2]])
        verdict = verify_ceei_disc(inst, DiscreteAssignment([0, 0, 0]))
        assert verdict.holds
        assert verdict.certificate.prices.prices == (Fraction(1, 3),) * 3

    # (agents, objects, max utility, seed, owner) -> certificate, recorded on
    # the textbook rational tableau; every verdict here is decided by the LP,
    # so a drift in the pivot rule changes the prices or the witness
    PINNED = [
        ((3, 10, 100, 0), [2, 0, 1, 2, 2, 0, 0, 0, 1, 0],
         [Fraction(3, 7), Fraction(2, 7), Fraction(3, 7), Fraction(1, 7), Fraction(3, 7),
          Fraction(1, 7), Fraction(2, 7), Fraction(1, 7), Fraction(4, 7), Fraction(1, 7)]),
        ((2, 8, 100, 3), [1, 0, 1, 0, 1, 0, 1, 0],
         [Fraction(1, 5), Fraction(3, 10), Fraction(3, 10), Fraction(1, 10), Fraction(3, 10),
          Fraction(3, 10), Fraction(1, 5), Fraction(3, 10)]),
        ((2, 6, 12, 2), [1, 1, 1, 0, 1, 0],
         [Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(1, 3)]),
        ((3, 7, 12, 3), [1, 1, 0, 2, 2, 0, 2],
         [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 6),
          Fraction(1, 2), Fraction(1, 2)]),
        ((2, 6, 12, 34), [1, 0, 0, 0, 1, 1], ViolatingBundle(0, (0, 2))),
        ((2, 6, 12, 94), [0, 0, 1, 1, 1, 0], ViolatingBundle(0, (0, 3, 5))),
        ((2, 6, 12, 122), [0, 1, 0, 1, 0, 1], ViolatingBundle(0, (0, 1, 2))),
    ]

    @pytest.mark.parametrize("shape, owner, expected", PINNED)
    def test_pinned_lp_certificates(self, shape, owner, expected):
        n, m, top, seed = shape
        inst = gen_random(n, m, top, seed=seed)
        verdict = verify_ceei_disc(inst, DiscreteAssignment(owner))
        if isinstance(expected, ViolatingBundle):
            assert not verdict.holds
            assert verdict.certificate == expected
        else:
            assert verdict.holds
            assert list(verdict.certificate.prices.prices) == expected

    def test_bundle_guard(self, separation):
        with pytest.raises(InstanceTooLarge):
            verify_ceei_disc(separation, EVEN, limit=8)

    def test_envy_is_refuted_with_the_envied_bundle(self):
        # an envied bundle is strictly better and affordable, so envy decides
        # the verdict before any LP, with is_envy_free's pair as the witness
        rng = random.Random(7000)
        envious = 0
        for _ in range(200):
            inst = mixed_instance(rng, max_agents=3, max_objects=8, max_assignments=6561)
            for _ in range(6):
                y = DiscreteAssignment([rng.randrange(inst.n) for _ in range(inst.m)])
                envy = is_envy_free(inst, y).certificate
                if envy is not None:
                    envious += 1
                    verdict = verify_ceei_disc(inst, y)
                    assert not verdict.holds
                    assert verdict.certificate == ViolatingBundle(envy.envious, y.bundle(envy.envied))
        assert envious > 300

    @pytest.mark.parametrize("seed", range(30))
    def test_inclusion_minimal_matches_pairwise_filter(self, seed):
        # the strictly-better bundles of nonnegative rows are closed under
        # supersets, so the DP sees only such families
        rng = random.Random(seed)
        m = rng.randint(1, 9)
        seeds = {rng.randrange(1, 1 << m) for _ in range(rng.randint(1, 3 * m))}
        masks = {mask for mask in range(1, 1 << m) if any(mask & s == s for s in seeds)}
        assert _inclusion_minimal(masks) == inclusion_minimal_pairwise(masks)


class TestNotionRelations:
    def test_separation_on_canonical_instance(self, separation):
        """An envy-free Pareto-optimal split need not be price-supported."""
        assert is_envy_free(separation, LOPSIDED).holds
        assert is_pareto_optimal_discrete(separation, LOPSIDED).holds
        assert not verify_ceei_frac(separation, LOPSIDED).holds

    @pytest.mark.parametrize("seed", range(6))
    def test_fractional_support_implies_everything_else(self, seed):
        rng = random.Random(seed)
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 5), 6, seed=seed)
        for y in all_discrete_assignments(inst.n, inst.m):
            if verify_ceei_frac(inst, y).holds:
                assert verify_ceei_disc(inst, y).holds
                assert is_envy_free(inst, y).holds
                assert is_pareto_optimal_discrete(inst, y).holds

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_rows_support_means_equal_utilities(self, seed):
        rng = random.Random(100 + seed)
        m = rng.randint(2, 5)
        row = [rng.randint(1, 6) for _ in range(m)]
        inst = Instance([row, row])
        for y in all_discrete_assignments(2, m):
            utilities = [
                sum(row[j] for j in y.bundle(0)),
                sum(row[j] for j in y.bundle(1)),
            ]
            assert verify_ceei_disc(inst, y).holds == (utilities[0] == utilities[1])

    def test_fractional_support_matches_welfare_optimum(self, separation, binary_gap):
        from ceei import solve_eg

        for inst in (separation, binary_gap):
            optimum = nash_welfare(inst, solve_eg(inst).x)
            for y in all_discrete_assignments(inst.n, inst.m):
                assert verify_ceei_frac(inst, y).holds == (nash_welfare(inst, y) == optimum)

    @pytest.mark.parametrize("seed", range(8))
    def test_fractional_support_matches_solver_welfare_numerically(self, seed):
        """holds(y) coincides with reaching the solver optimum to 1e-6 relative."""
        from ceei import solve_eg

        rng = random.Random(200 + seed)
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 7), 9, seed=seed)
        optimum = float(nash_welfare(inst, solve_eg(inst).x))
        for y in all_discrete_assignments(inst.n, inst.m):
            near_optimal = abs(float(nash_welfare(inst, y)) - optimum) <= 1e-6 * optimum
            assert verify_ceei_frac(inst, y).holds == near_optimal

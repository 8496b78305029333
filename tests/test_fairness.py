import random
import time
from fractions import Fraction
from itertools import product

import pytest

from ceei import (
    DimensionMismatch,
    DiscreteAssignment,
    DominatingAssignment,
    EnvyPair,
    InconclusiveSearch,
    Instance,
    InstanceViolation,
    InvalidAssignment,
    InvariantError,
    ThreePartitionInput,
    Verdict,
    ViolatingBundle,
    from_three_partition,
    gen_random,
    is_envy_free,
    is_pareto_optimal_discrete,
    max_nash_discrete,
    nash_welfare,
    verify_ceei_disc,
    verify_ceei_frac,
)
from ceei import simplex
from ceei.errors import DEFAULT_BUNDLE_LIMIT
from ceei.fairness import _minimal_better_bundles, bundle_values
from oracles import (
    all_discrete_assignments,
    bland_tableau,
    checks,
    first_dominating_assignment,
    minimal_better_bundles,
    mixed_instance,
    owner_values,
)

LOPSIDED = DiscreteAssignment([0, 1, 1, 1])  # favourite object vs the rest
EVEN = DiscreteAssignment([0, 0, 1, 1])  # two and two


def _slack_lp_holds(inst, y):
    """Discrete price support from its definition, with no shortcut: the most
    s with s <= p(B) for every inclusion-minimal strictly-better bundle B and
    p(y_i) <= 1 for every agent exceeds 1, or is unbounded (no such B)."""
    m = inst.m
    own = owner_values(inst, y.owner)
    minimal = minimal_better_bundles(inst.utilities, own)
    rows = [[-int(j in bundle) for j in range(m)] + [1] for _agent, bundle in minimal]
    rows += [[int(o == i) for o in y.owner] + [0] for i in range(inst.n)]
    solved = bland_tableau([0] * m + [1], rows, [0] * len(minimal) + [1] * inst.n)
    return solved is None or solved[0] > 1


def _recorded_lps(monkeypatch):
    """The list to which each (c, rows, rhs) that `simplex.maximize` solves
    from now on is appended."""
    solve, lps = simplex.maximize, []

    def recorded(c, rows, rhs):
        lps.append((c, rows, rhs))
        return solve(c, rows, rhs)

    monkeypatch.setattr(simplex, "maximize", recorded)
    return lps


class TestEnvyFree:
    def test_empty_bundle_envies_everything(self):
        inst = Instance([[2, 1], [2, 1]])
        verdict = is_envy_free(inst, DiscreteAssignment([0, 0]))
        assert not verdict.holds
        assert verdict.certificate == EnvyPair(envious=1, envied=0)

    def test_certificate_rechecks(self, separation):
        verdict = is_envy_free(separation, DiscreteAssignment([1, 1, 1, 1]))
        assert not verdict.holds
        pair = verdict.certificate
        values = owner_values(separation, [1, 1, 1, 1], pair.envious)
        assert values[pair.envious] < values[pair.envied]

    @pytest.mark.parametrize("seed", range(24))
    def test_both_verifiers_name_the_oracles_pair(self, seed):
        inst = mixed_instance(random.Random(7300 + seed), max_assignments=256)
        for y in all_discrete_assignments(inst.n, inst.m):
            pair = checks.envy_pair(inst.utilities, y.owner)
            verdict = is_envy_free(inst, y)
            if pair is None:
                assert verdict.holds and verdict.certificate is None
                continue
            assert not verdict.holds and verdict.certificate == EnvyPair(*pair)
            refuted = verify_ceei_disc(inst, y)
            assert not refuted.holds
            assert refuted.certificate == ViolatingBundle(pair[0], y.bundle(pair[1]))


class TestParetoOptimal:
    def test_reversed_split_is_dominated(self, separation):
        verdict = is_pareto_optimal_discrete(separation, DiscreteAssignment([1, 1, 1, 0]))
        assert not verdict.holds
        dominating = verdict.certificate.assignment
        before = owner_values(separation, (1, 1, 1, 0))
        after = owner_values(separation, dominating.owner)
        assert all(a >= b for a, b in zip(after, before))
        assert any(a > b for a, b in zip(after, before))

    def test_single_agent_is_always_optimal(self, single_agent):
        assert is_pareto_optimal_discrete(single_agent, DiscreteAssignment([0, 0])).holds

    def test_node_limit_counts_the_nodes_entered(self, separation):
        # 2^4 owner vectors, but the walk prunes every agent at its root
        assert is_pareto_optimal_discrete(separation, EVEN, limit=2) == Verdict(True, None)
        with pytest.raises(InconclusiveSearch) as excinfo:
            is_pareto_optimal_discrete(separation, EVEN, limit=1)
        assert (excinfo.value.nodes_explored, excinfo.value.best_welfare) == (1, None)

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
        for y in all_discrete_assignments(n, m):
            first = first_dominating_assignment(inst, y)
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

    def test_walk_stops_on_entering_node_limit(self):
        # 3^15 owner vectors; the walk reaches the first dominating one, a
        # leaf, as its 28th node, so a limit of 29 decides and 28 does not
        inst = gen_random(3, 15, 9, seed=0)
        verdict = is_pareto_optimal_discrete(inst, DiscreteAssignment([0] * 15), limit=29)
        assert verdict.certificate == DominatingAssignment(DiscreteAssignment([0, 0, 1] + [0] * 12))
        with pytest.raises(InconclusiveSearch) as excinfo:
            is_pareto_optimal_discrete(inst, DiscreteAssignment([0] * 15), limit=28)
        assert excinfo.value.nodes_explored == 28

    @pytest.mark.parametrize(
        "n, m, seed, owner",
        [
            (5, 20, 2, [1, 4, 1, 4, 1, 3, 0, 3, 2, 4, 3, 0, 1, 2, 0, 2, 3, 4, 3, 0]),
            (6, 22, 0, [5, 1, 1, 2, 3, 4, 1, 5, 0, 5, 2, 1, 5, 3, 0, 3, 4, 2, 0, 2, 0, 4]),
        ],
        ids=["5x20-seed-2", "6x22-seed-0"],
    )
    def test_max_nash_owner_past_n_to_the_m_is_decided(self, n, m, seed, owner):
        # max_nash_discrete's optimum of gen_random(n, m, 100, seed); n^m is
        # ~1e14 and ~1e17, past DEFAULT_ENUM_LIMIT, but the walk enters
        # 64,888 and 67,098 nodes
        inst = gen_random(n, m, 100, seed=seed)
        start = time.perf_counter()
        assert is_pareto_optimal_discrete(inst, DiscreteAssignment(owner)) == Verdict(True, None)
        assert time.perf_counter() - start < 2.0

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
    rows = inst.int_rows
    walked = 0
    for owner in product(range(inst.n), repeat=inst.m):
        walked += 1
        totals = bundle_values(rows, owner)
        assert all(type(t) is int for t in totals)
        assert [Fraction(t, s) for t, s in zip(totals, scales)] == owner_values(inst, owner)
    assert walked == 2**3


class TestVerifyFractionalSupport:
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
    def test_unequal_split_of_identical_utilities(self):
        inst = Instance([[2, 1, 1], [2, 1, 1]])
        verdict = verify_ceei_disc(inst, DiscreteAssignment([0, 0, 1]))
        assert not verdict.holds
        assert isinstance(verdict.certificate, ViolatingBundle)
        # the witness is strictly better for its agent than what it owns
        agent = verdict.certificate.agent
        own = owner_values(inst, [0, 0, 1])[agent]
        claimed = sum(inst.utilities[agent][j] for j in verdict.certificate.objects)
        assert claimed > own

    def test_single_agent_prices_its_values(self):
        # one agent owning everything is CEEI-frac, priced at u_j / 6
        inst = Instance([[3, 1, 2]])
        verdict = verify_ceei_disc(inst, DiscreteAssignment([0, 0, 0]))
        assert verdict.holds
        assert verdict.certificate.prices.prices == (Fraction(1, 2), Fraction(1, 6), Fraction(1, 3))

    def test_agent_valuing_nothing_skips_the_fractional_test(self, monkeypatch):
        # verify_ceei_frac raises on agent 0, which values nothing; the
        # discrete test goes on to the bundle walk, whose two nodes are the
        # agents' empty bundles, and finds no better bundle.  The LP then
        # holds agent 1's own row and the cap s <= 3 on one free object,
        # the second; its one pivot prices agent 1's bundle at 1 on its
        # anchor, the first object
        inst = Instance([[0, 0], [1, 1]])
        y = DiscreteAssignment([1, 1])
        with pytest.raises(InvariantError):
            verify_ceei_frac(inst, y)
        lps = _recorded_lps(monkeypatch)
        assert verify_ceei_disc(inst, y, limit=3).certificate.prices.prices == (1, 0)
        assert lps == [([0, 1], [[1, 0], [0, 1]], [1, 3])]
        with pytest.raises(InconclusiveSearch) as excinfo:
            verify_ceei_disc(inst, y, limit=2)
        assert excinfo.value.nodes_explored == 2

    def test_fractional_support_certifies_without_the_lp(self, separation, monkeypatch):
        # the CEEI-frac prices are discrete price support, so the even split
        # needs neither the bundle walk nor the LP, under any limit
        monkeypatch.setattr(simplex, "maximize", None)
        verdict = verify_ceei_disc(separation, EVEN, limit=1)
        assert verdict == verify_ceei_frac(separation, EVEN)
        assert checks.discrete_support_problem(separation.utilities, EVEN.owner, list(verdict.certificate.prices)) is None

    def test_planted_three_partition_split_past_16_objects(self):
        # six triples summing to 30: identical rows split equally are CEEI-frac,
        # so 2^18 bundles need no walk; prices are the weights over 30
        triples = [(9, 10, 11), (8, 10, 12), (8, 11, 11), (9, 9, 12), (10, 10, 10), (8, 9, 13)]
        inst = from_three_partition(ThreePartitionInput([w for t in triples for w in t], 30))
        y = DiscreteAssignment([g for g in range(6) for _ in range(3)])
        verdict = verify_ceei_disc(inst, y)
        assert verdict.holds
        assert verdict.certificate.prices.prices == tuple(Fraction(w, 30) for t in triples for w in t)

    # (agents, objects, max utility, seed, owner) -> certificate, recorded on
    # the textbook rational tableau of the anchored LP, in which each
    # nonempty own bundle costs exactly 1 and its anchor object has no
    # column.  Every verdict here but shape2's is decided by that LP, so a
    # drift in its build or in the pivot rule changes the prices or the
    # witness; shape2's owner is CEEI-frac, so its prices are
    # verify_ceei_frac's, u_kj / v_k for the owner k of object j
    PINNED = [
        ((3, 10, 100, 0), [2, 0, 1, 2, 2, 0, 0, 0, 1, 0],
         [Fraction(3, 7), Fraction(2, 7), Fraction(3, 7), Fraction(1, 7), Fraction(3, 7),
          Fraction(1, 7), Fraction(2, 7), Fraction(1, 7), Fraction(4, 7), Fraction(1, 7)]),
        ((2, 8, 100, 3), [1, 0, 1, 0, 1, 0, 1, 0],
         [Fraction(1, 5), Fraction(3, 10), Fraction(3, 10), Fraction(1, 10), Fraction(3, 10),
          Fraction(3, 10), Fraction(1, 5), Fraction(3, 10)]),
        ((2, 6, 12, 2), [1, 1, 1, 0, 1, 0],
         [Fraction(12, 35), Fraction(2, 7), Fraction(4, 35), Fraction(5, 16), Fraction(9, 35), Fraction(11, 16)]),
        ((3, 7, 12, 3), [1, 1, 0, 2, 2, 0, 2],
         [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 6),
          Fraction(1, 2), Fraction(1, 2)]),
        ((2, 6, 12, 34), [1, 0, 0, 0, 1, 1], ViolatingBundle(0, (0, 2))),
        ((2, 6, 12, 94), [0, 0, 1, 1, 1, 0], ViolatingBundle(0, (0, 2, 3, 4))),
        ((2, 6, 12, 122), [0, 1, 0, 1, 0, 1], ViolatingBundle(0, (0, 2, 3))),
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

    def test_lp_prices_own_bundles_through_their_anchors(self, monkeypatch):
        # the 2x15 max-Nash owner is envy-free but not CEEI-frac, so the LP
        # decides it; each own bundle's anchor leaves the LP, which keeps
        # m - 2 price columns and s, entries in {-1, 0, 1}, and a row for
        # each minimal bundle, each own bundle and the cap on s
        inst = gen_random(2, 15, 100, seed=0)
        y = max_nash_discrete(inst).best
        lps = _recorded_lps(monkeypatch)
        started = time.perf_counter()
        verdict = verify_ceei_disc(inst, y)
        elapsed = time.perf_counter() - started
        assert verdict.holds
        [(c, rows, rhs)] = lps
        assert len(c) == 15 - 2 + 1
        assert all(len(row) == len(c) and set(row) <= {-1, 0, 1} for row in rows)
        own = bundle_values(inst.int_rows, y.owner)
        assert len(rows) == len(_minimal_better_bundles(inst.int_rows, own, DEFAULT_BUNDLE_LIMIT)) + 3
        prices = verdict.certificate.prices.prices
        assert [sum(prices[j] for j in bundle) for bundle in map(y.bundle, range(2))] == [1, 1]
        assert elapsed < 0.3

    @pytest.mark.parametrize("seed", range(8))
    def test_verdicts_match_the_slack_lp_oracle(self, seed):
        # every verdict, by envy, by the CEEI-frac prices or by the LP, is the
        # slack LP's over all minimal better bundles; max-Nash and random
        # owners, n <= 3 and m <= 8, zero rows and columns included
        rng = random.Random(9000 + seed)
        routes = []
        for _ in range(12):
            inst = mixed_instance(rng, max_agents=3, max_objects=8, max_assignments=6561)
            owners = [max_nash_discrete(inst).best]
            owners += [DiscreteAssignment([rng.randrange(inst.n) for _ in range(inst.m)]) for _ in range(2)]
            for y in owners:
                verdict = verify_ceei_disc(inst, y)
                assert verdict.holds == _slack_lp_holds(inst, y)
                own = owner_values(inst, y.owner)
                if verdict.holds:
                    assert checks.discrete_support_problem(inst.utilities, y.owner, list(verdict.certificate.prices)) is None
                    if all(own) and verify_ceei_frac(inst, y).holds:
                        routes.append("frac")
                    elif not minimal_better_bundles(inst.utilities, own):
                        routes.append("no better bundle")
                    else:
                        routes.append("lp")
                    # the anchors and the LP fix every nonempty own bundle's cost at 1
                    prices = verdict.certificate.prices.prices
                    assert all(sum(prices[j] for j in bundle) == 1 for bundle in map(y.bundle, range(inst.n)) if bundle)
                else:
                    agent, objects = verdict.certificate.agent, verdict.certificate.objects
                    assert sum(inst.utilities[agent][j] for j in objects) > own[agent]
                    routes.append("fails")
        assert {"frac", "lp", "fails"} <= set(routes)

    @pytest.mark.parametrize("seed", range(8))
    def test_certificates_match_the_textbook_tableau(self, seed, monkeypatch):
        # the same verdict and certificate with the LP solved on the rational
        # tableau, for max-Nash and random owners alike
        rng = random.Random(seed)
        cases = []
        for _ in range(20):
            inst = gen_random(rng.randint(2, 3), rng.randint(3, 8), 12, seed=rng.randrange(10**6))
            cases.append((inst, max_nash_discrete(inst).best))
            cases += [(inst, DiscreteAssignment([rng.randrange(inst.n) for _ in range(inst.m)])) for _ in range(3)]
        verdicts = [verify_ceei_disc(inst, y) for inst, y in cases]
        solved = []

        def textbook(c, rows, rhs):
            solved.append(len(rows))
            return bland_tableau(c, rows, rhs)

        monkeypatch.setattr(simplex, "maximize", textbook)
        assert [verify_ceei_disc(inst, y) for inst, y in cases] == verdicts
        assert solved

    def test_padded_owner_past_16_objects_is_decided(self, separation):
        # the lopsided split is envy-free but not CEEI-frac, so only the
        # bundle walk decides it, in 10 nodes; the even split is CEEI-frac
        # and passes under any limit
        with pytest.raises(InconclusiveSearch) as excinfo:
            verify_ceei_disc(separation, LOPSIDED, limit=10)
        assert excinfo.value.nodes_explored == 10
        lopsided = verify_ceei_disc(separation, LOPSIDED, limit=11)
        assert lopsided.holds
        # 13 objects nobody values take 2^17 bundles, but the walk skips
        # objects its agent does not value: the same 10 nodes and the same
        # prices, with 0 on every padding object
        padded = Instance([list(row) + [0] * 13 for row in separation.int_rows])
        verdict = verify_ceei_disc(padded, DiscreteAssignment(LOPSIDED.owner + (0,) * 13), limit=11)
        assert verdict.certificate.prices.prices == lopsided.certificate.prices.prices + (0,) * 13
        assert verify_ceei_disc(padded, DiscreteAssignment(EVEN.owner + (0,) * 13)).holds

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
    def test_minimal_better_bundles_match_the_subset_scan(self, seed):
        # zeros and ties in every pool; every third seed copies one row to all
        # agents, so each bundle is claimed by several agents at once
        rng = random.Random(seed)
        n = seed % 4 + 1
        for _ in range(10):
            m = rng.randint(1, 8)
            pool = rng.choice([[0, 0, 1, 1, 2], [0, 3, 3, 5, 5, 8], list(range(10))])
            rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
            if seed % 3 == 0:
                rows = [rows[0]] * n
            owner = [rng.randrange(n) for _ in range(m)]
            own = bundle_values(rows, owner)
            assert _minimal_better_bundles(rows, own, DEFAULT_BUNDLE_LIMIT) == minimal_better_bundles(rows, own)

    def test_minimal_better_bundles_under_the_default_limit(self):
        # the 2x16 max-Nash owner's walk enters 7,658 nodes, far below the
        # default of 2^16, and records 2,604 minimal bundles
        inst = gen_random(2, 16, 100, seed=0)
        rows = inst.int_rows
        own = bundle_values(rows, max_nash_discrete(inst).best.owner)
        started = time.perf_counter()
        minimal = _minimal_better_bundles(rows, own, DEFAULT_BUNDLE_LIMIT)
        assert time.perf_counter() - started < 1
        assert len(minimal) == 2604
        assert _minimal_better_bundles(rows, own, 7659) == minimal
        with pytest.raises(InconclusiveSearch) as excinfo:
            _minimal_better_bundles(rows, own, 7658)
        assert excinfo.value.nodes_explored == 7658

    def test_limit_counts_the_bundle_walk_nodes(self):
        # the LP decides this 3x10 owner after a walk of 409 nodes; below
        # that every limit stops the walk on entering that node, and from
        # there on every limit gives the unlimited verdict and certificate
        inst = gen_random(3, 10, 100, seed=0)
        y = DiscreteAssignment([2, 0, 1, 2, 2, 0, 0, 0, 1, 0])
        verdict = verify_ceei_disc(inst, y)
        assert verdict.holds and not verify_ceei_frac(inst, y).holds
        stopped = []
        for limit in range(1, 420):
            try:
                assert verify_ceei_disc(inst, y, limit) == verdict
            except InconclusiveSearch as exc:
                assert exc.nodes_explored == limit
                stopped.append(limit)
        assert stopped == list(range(1, 410))


class TestNotionRelations:
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
            utilities = owner_values(inst, y.owner)
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

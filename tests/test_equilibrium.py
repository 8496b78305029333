import random
from fractions import Fraction

import pytest

from ceei import (
    DimensionMismatch,
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    InstanceViolation,
    InvariantError,
    NonConvergence,
    agent_utilities,
    gen_random,
    kkt_residual,
    nash_welfare,
    solve_eg,
)
from ceei.equilibrium import _certify_support
from oracles import mixed_instance, random_fractional_welfare


class TestSolveEg:
    def test_single_agent_buys_everything(self, single_agent):
        sol = solve_eg(single_agent)
        assert sol.u_star == (4,)
        assert sol.p_star.prices == (Fraction(3, 4), Fraction(1, 4))
        assert sol.x.rows == ((1, 1),)

    def test_contested_object_split_evenly(self, contested_object):
        sol = solve_eg(contested_object)
        assert sol.u_star == (Fraction(1, 2), Fraction(1, 2))
        assert sol.p_star.prices == (2,)
        assert sol.x.rows == ((Fraction(1, 2),), (Fraction(1, 2),))

    def test_binary_gap_instance(self, binary_gap):
        sol = solve_eg(binary_gap)
        assert sol.u_star == (Fraction(3, 2), Fraction(3, 2))
        assert sol.p_star.prices == (Fraction(2, 3),) * 3
        assert nash_welfare(binary_gap, sol.x) == Fraction(9, 4)

    def test_utilities_match_allocation_exactly(self, separation):
        sol = solve_eg(separation)
        assert sol.u_star == agent_utilities(separation, sol.x)

    def test_price_mass_equals_agent_count(self):
        for seed in range(5):
            inst = gen_random(3, 6, 9, seed=seed)
            sol = solve_eg(inst)
            assert sum(sol.p_star.prices) == inst.n

    def test_no_convergence_in_one_iteration(self, separation, monkeypatch):
        monkeypatch.setattr("ceei.equilibrium._MAX_STEPS", 1)
        with pytest.raises(NonConvergence) as excinfo:
            solve_eg(separation)
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual > 1e-8

    def test_no_convergence_once_the_gap_is_below_the_tolerance(self, monkeypatch):
        # no support guess certifies before the gap falls under a loose
        # tolerance, so the solver gives up after the step that got it there
        monkeypatch.setattr("ceei.equilibrium._GAP_FLOOR", 0.5)
        with pytest.raises(NonConvergence) as excinfo:
            solve_eg(gen_random(4, 8, 100, seed=1))
        assert excinfo.value.iterations == 4
        assert excinfo.value.residual == 0.1

    def test_zero_column_is_an_invariant_error(self):
        with pytest.raises(InvariantError) as excinfo:
            solve_eg(Instance([[1, 0, 2], [3, 0, 1]]))
        assert excinfo.value.violations == [InstanceViolation("zero_column", object=1)]

    def test_seeded_runs_agree(self, separation):
        utilities = {tuple(solve_eg(separation, seed=s).u_star) for s in range(6)}
        prices = {tuple(solve_eg(separation, seed=s).p_star.prices) for s in range(6)}
        assert len(utilities) == 1
        assert len(prices) == 1

    def test_rational_utilities_certify_exactly(self):
        inst = Instance([[Fraction(1, 2), 1, Fraction(1, 3)], [1, Fraction(1, 5), 2]])
        sol = solve_eg(inst)
        assert sol.certified
        assert sum(sol.p_star.prices) == 2
        assert sol.u_star == agent_utilities(inst, sol.x)

    def test_scaling_one_row_rescales_only_that_utility(self):
        inst = gen_random(3, 5, 9, seed=11)
        scaled = Instance(
            [
                [v * 7 if i == 1 else v for v in row]
                for i, row in enumerate(inst.utilities)
            ]
        )
        base = solve_eg(inst)
        bumped = solve_eg(scaled)
        assert bumped.u_star[0] == base.u_star[0]
        assert bumped.u_star[1] == base.u_star[1] * 7
        assert bumped.u_star[2] == base.u_star[2]
        assert bumped.p_star == base.p_star
        assert bumped.x == base.x
        assert nash_welfare(scaled, bumped.x) == nash_welfare(inst, base.x) * 7

    def test_huge_utility_does_not_overflow(self):
        inst = Instance([[10**400, 1], [1, 1]])
        sol = solve_eg(inst)
        assert sol.certified
        assert sol.u_star == (10**400, 1)
        assert sol.p_star.prices == (1, 1)

    def test_tiny_utility_row_converges(self):
        tiny = Fraction(1, 10**400)
        inst = Instance([[tiny, tiny], [1, 2]])
        sol = solve_eg(inst)
        assert sol.certified
        assert sol.u_star == (tiny, 2)
        assert sol.p_star.prices == (1, 1)

    @pytest.mark.parametrize(
        "n, m, seed", [(3, 6, 438), (4, 8, 158), (4, 8, 159), (6, 12, 18), (15, 30, 0)]
    )
    def test_bang_per_buck_support_certifies(self, n, m, seed):
        # share thresholds never separated these supports before convergence
        inst = gen_random(n, m, 100, seed=seed)
        sol = solve_eg(inst)
        assert sol.certified
        assert sum(sol.p_star.prices) == inst.n
        assert kkt_residual(inst, sol.x, sol.p_star).max_violation == 0

    @pytest.mark.parametrize("n, m", [(20, 40), (50, 100)])
    def test_large_random_instances_certify(self, n, m):
        inst = gen_random(n, m, 100, seed=0)
        sol = solve_eg(inst)
        assert sol.certified
        assert sum(sol.p_star.prices) == inst.n

    @pytest.mark.parametrize("big", [10**8, 10**400])
    def test_tiny_spending_edge_certifies(self, big):
        # agent 0 spends 2/(big + 1) on object 1, far below any spending
        # threshold; at 10**400 row scaling even rounds its utility to 0.0
        sol = solve_eg(Instance([[big, 1], [1, 0]]))
        assert sol.u_star == (Fraction(big + 1, 2), Fraction(big + 1, 2 * big))
        assert sol.p_star.prices == (Fraction(2 * big, big + 1), Fraction(2, big + 1))

    def test_object_valued_only_below_float_range_certifies(self):
        # both entries of object 1 round to 0.0 after row scaling, so both
        # agents tie as its top float spender; the exact bid picks agent 1
        big = 10**400
        inst = Instance([[big, 1, 0], [big, 2, 1]])
        sol = solve_eg(inst)
        assert sol.u_star == (Fraction(big + 3, 2),) * 2
        assert sol.p_star.prices == (
            Fraction(2 * big, big + 3),
            Fraction(4, big + 3),
            Fraction(2, big + 3),
        )
        assert kkt_residual(inst, sol.x, sol.p_star).max_violation == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_rational_rows_solve_like_their_int_rows(self, seed):
        # the solver reads the rows only as int_rows, and row scaling
        # rescales only that agent's utility
        rng = random.Random(700 + seed)
        n, m = rng.randint(2, 6), rng.randint(2, 12)
        base = gen_random(n, m, 30, seed=700 + seed)
        inst = Instance([[v / rng.randint(1, 12) for v in row] for row in base.utilities])
        rows, scales = inst.int_rows, inst.scales
        assert any(s > 1 for s in scales)
        sol, integral = solve_eg(inst, seed=seed), solve_eg(Instance(rows), seed=seed)
        assert sol.u_star == tuple(u / s for u, s in zip(integral.u_star, scales))
        assert (sol.p_star, sol.x, sol.iterations) == (integral.p_star, integral.x, integral.iterations)

    def test_singular_newton_system_is_nonconvergence(self, separation, monkeypatch):
        import numpy

        def singular(*_):
            raise numpy.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(numpy.linalg, "solve", singular)
        with pytest.raises(NonConvergence) as excinfo:
            solve_eg(separation)
        assert excinfo.value.iterations == 1

    def test_non_finite_newton_step_is_nonconvergence(self, separation, monkeypatch):
        import numpy

        monkeypatch.setattr(numpy.linalg, "solve", lambda a, b: numpy.full_like(b, numpy.nan))
        with pytest.raises(NonConvergence) as excinfo:
            solve_eg(separation)
        assert excinfo.value.iterations == 1

    def test_tie_heavy_instances_are_exact_equilibria(self):
        rng = random.Random(23)
        for k in range(45):
            n, m = rng.randint(1, 5), rng.randint(1, 8)
            if k % 3 == 0:
                inst = gen_random(n, m, rng.randint(1, 3), seed=900 + k)
            elif k % 3 == 1:
                row = gen_random(1, m, rng.randint(1, 3), seed=900 + k).utilities[0]
                inst = Instance([row] * n)
            else:
                inst = Instance(
                    [[f"{rng.randint(1, 3)}/{rng.randint(1, 3)}" for _ in range(m)] for _ in range(n)]
                )
            sol, *others = [solve_eg(inst, seed=s) for s in (None, 1, 2)]
            for other in others:
                assert (other.u_star, other.p_star, other.x) == (sol.u_star, sol.p_star, sol.x)
            u, x, p, v = inst.utilities, sol.x.rows, sol.p_star.prices, sol.u_star
            for j in range(m):
                assert sum(x[i][j] for i in range(n)) == 1
            for i in range(n):
                assert sum(x[i][j] * p[j] for j in range(m)) == 1
                assert sum(u[i][j] * x[i][j] for j in range(m)) == v[i]
                assert all(u[i][j] <= v[i] * p[j] for j in range(m))

    def test_mixed_draws_certify_but_for_at_most_83_near_ties(self):
        # Newton may give up only on the 10**400 pool, whose near-tied edges
        # round to one float (ROADMAP item 7): at most 83 of these 1,500 draws
        rng = random.Random(7)
        outcomes = {"certified": 0, "nonconvergence": 0, "invariant": 0}
        for _ in range(1500):
            inst = mixed_instance(rng, 5, 8, 10**9)
            try:
                sol = solve_eg(inst)
            except NonConvergence:
                outcomes["nonconvergence"] += 1
            except InvariantError:
                outcomes["invariant"] += 1
            else:
                assert sol.certified
                assert kkt_residual(inst, sol.x, sol.p_star).max_violation == 0
                outcomes["certified"] += 1
        assert outcomes["nonconvergence"] <= 83
        assert outcomes["invariant"] == 423

    def test_welfare_dominates_random_fractional_assignments(self):
        rng = random.Random(5)
        for seed in range(8):
            inst = gen_random(rng.randint(1, 3), rng.randint(1, 6), 9, seed=seed)
            optimum = float(nash_welfare(inst, solve_eg(inst).x))
            for _ in range(200):
                assert random_fractional_welfare(inst, rng) <= optimum * (1 + 1e-9)


class TestCertifySupport:
    """Each way a guessed support is rejected, and one it is accepted."""

    @staticmethod
    def certify(utilities, tight):
        inst = Instance(utilities)
        rows, scales = inst.int_rows, inst.scales
        return _certify_support(rows, scales, tight)

    def test_correct_guess_gives_the_exact_equilibrium(self):
        # row 0 has scale 2 and prices share the denominator 3
        sol = self.certify([["1/2", "1/2", 0], [0, 1, 1]], [[1, 1, 0], [0, 1, 1]])
        assert sol is not None
        x, u_star, p_star = sol
        assert u_star == (Fraction(3, 4), Fraction(3, 2))
        assert p_star.prices == (Fraction(2, 3),) * 3
        assert x.rows == ((1, Fraction(1, 2), 0), (0, Fraction(1, 2), 1))

    def test_agent_left_without_support(self):
        assert self.certify([[1, 1], [1, 1]], [[1, 1], [0, 0]]) is None

    def test_object_left_without_support(self):
        assert self.certify([[1, 1], [1, 1]], [[1, 0], [1, 0]]) is None

    def test_inconsistent_cycle_seen_from_an_agent(self):
        # agent 1 reaches object 0 at ratio 4 where agent 0 fixed it at 1
        assert self.certify([[1, 2], [2, 1]], [[1, 1], [1, 1]]) is None

    def test_inconsistent_cycle_seen_from_an_object(self):
        # object 1 is reached through agent 2 before agent 1 is expanded
        tight = [[1, 0], [1, 1], [1, 1]]
        assert self.certify([[1, 0], [1, 1], [1, 2]], tight) is None

    def test_better_ratio_off_the_support(self):
        # the swapped support prices both objects at 1, where agent 0 gets 2 from object 0
        assert self.certify([[2, 1], [1, 2]], [[0, 1], [1, 0]]) is None

    def test_infeasible_money_flow(self):
        # prices 3/2 pass every ratio check, but agents 0 and 1 can spend
        # their budgets only on object 0
        assert self.certify([[1, 0], [1, 0], [1, 1]], [[1, 0], [1, 0], [1, 1]]) is None


def _sweep_instance(rng):
    """A small instance with every row and column positive: int, "p/q" or
    tie-heavy entries, the last with at most two distinct rows."""
    n, m = rng.randint(1, 4), rng.randint(1, 6)
    pool = rng.choice(([0, 1, 2, 3, 5], [0, 1, "1/2", "2/3", "7/4"], [0, 1, 1, 2]))
    rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
    if pool[-1] == 2:
        rows = [list(rng.choice(rows[:2])) for _ in range(n)]
    for row in rows:
        if not any(row):
            row[rng.randrange(m)] = 1
    for j in range(m):
        if not any(row[j] for row in rows):
            rows[rng.randrange(n)][j] = 1
    return Instance(rows)


class TestCertifierSoundness:
    """The certifier against the solver's answer and against `kkt_residual`."""

    def test_support_of_the_solution_reproduces_it(self):
        rng = random.Random(31)
        for _ in range(150):
            inst = _sweep_instance(rng)
            sol = solve_eg(inst)
            rows, scales = inst.int_rows, inst.scales
            tight = [[share > 0 for share in row] for row in sol.x.rows]
            x, u_star, p_star = _certify_support(rows, scales, tight)
            assert (x, u_star, p_star) == (sol.x, sol.u_star, sol.p_star)

    def test_every_accepted_guess_is_an_exact_equilibrium(self):
        rng = random.Random(37)
        accepted = rejected = 0
        for _ in range(150):
            inst = _sweep_instance(rng)
            rows, scales = inst.int_rows, inst.scales
            for _ in range(20):
                tight = [[v > 0 and rng.random() < 0.6 for v in row] for row in rows]
                certified = _certify_support(rows, scales, tight)
                if certified is None:
                    rejected += 1
                    continue
                accepted += 1
                x, _, p_star = certified
                assert kkt_residual(inst, x, p_star).max_violation == 0
        assert accepted > 100 and rejected > 100

    def test_inconsistent_cycle_rejects_a_guess_whose_spanning_tree_certifies(self):
        # the walk prices both objects from agent 0 and reaches agent 1 through
        # object 0; edge (1, 1) then closes a cycle needing u_11 = 2, not 1
        inst = Instance([[2, 2], [2, 1]])
        rows, scales = inst.int_rows, inst.scales
        assert _certify_support(rows, scales, [[1, 1], [1, 0]]) is not None
        assert _certify_support(rows, scales, [[1, 1], [1, 1]]) is None


class TestKktResidual:
    def test_exact_equilibrium_has_zero_residuals(self, separation):
        sol = solve_eg(separation)
        report = kkt_residual(separation, sol.x, sol.p_star)
        assert report.market_clearing == 0
        assert report.budget == 0
        assert report.bang_per_buck == 0
        assert report.price_negativity == 0

    def test_lopsided_split_with_induced_prices(self, separation):
        y = DiscreteAssignment([0, 1, 1, 1])
        # p_j = max_k u_kj / v_k for the own utilities v = (95, 102)
        prices = [1, Fraction(1, 19), Fraction(5, 102), Fraction(95, 102)]
        report = kkt_residual(separation, y, prices)
        # agent 1 holds o2 at ratio 38 while its best ratio is 102
        assert report.bang_per_buck == Fraction(102 - 38, 102)
        assert report.budget == Fraction(32, 969)
        assert report.market_clearing == 0

    def test_short_column_shows_as_clearing_gap(self):
        inst = Instance([[1], [1]])
        report = kkt_residual(inst, [[Fraction(9, 20)], [Fraction(9, 20)]], [2])
        assert report.market_clearing == Fraction(1, 10)

    def test_negative_price_reported(self, contested_object):
        report = kkt_residual(
            contested_object,
            [[Fraction(1, 2)], [Fraction(1, 2)]],
            [Fraction(-1, 4)],
        )
        assert report.price_negativity == Fraction(1, 4)

    def test_valued_free_object_beats_every_priced_one(self):
        # each agent values object 1, which costs nothing, so holding the
        # priced object 0 misses the best ratio by all of it
        report = kkt_residual(Instance([[1, 1], [1, 1]]), [[1, 0], [0, 1]], [1, 0])
        assert report.bang_per_buck == 1


_SQUARE = Instance([[1, 1], [1, 1]])
_SHAPE_ERRORS = [
    (lambda: kkt_residual(_SQUARE, [[1, 0], [0, 1]], [1]), "price vector", 2, 1),
    (lambda: kkt_residual(_SQUARE, [[1, 1]], [1, 1]), "allocation rows", 2, 1),
    (lambda: kkt_residual(_SQUARE, [[1, 0], [0]], [1, 1]), "allocation row 1", 2, 1),
    (lambda: nash_welfare(_SQUARE, DiscreteAssignment([0, 1, 1])), "assignment", 2, 3),
    (lambda: nash_welfare(_SQUARE, FractionalAssignment([[1, 1]])), "assignment rows", 2, 1),
    (lambda: nash_welfare(_SQUARE, FractionalAssignment([[1], [0]])), "assignment columns", 2, 1),
]
# raw rows meet the same shape checks as a FractionalAssignment
_RAW_ROW_ERRORS = {
    "raw rows, one short": (lambda: nash_welfare(_SQUARE, [[1, 1]]), "assignment rows", 2, 1),
    "raw rows, one over": (lambda: nash_welfare(_SQUARE, [[1, 0], [0, 1], [0, 0]]), "assignment rows", 2, 3),
}


class TestRawIntake:
    # a str is iterable and its characters are digits, so "10" once read as (1, 0)
    @pytest.mark.parametrize(
        "call",
        [
            lambda: kkt_residual(_SQUARE, ["10", "01"], [1, 1]),
            lambda: kkt_residual(_SQUARE, [[1, 0], [0, 1]], "11"),
        ],
        ids=["allocation rows", "prices"],
    )
    def test_string_vectors_are_rejected(self, call):
        with pytest.raises(TypeError, match="not str"):
            call()

    @pytest.mark.parametrize(
        "call, what, expected, got",
        _SHAPE_ERRORS + list(_RAW_ROW_ERRORS.values()),
        ids=[case[1] for case in _SHAPE_ERRORS] + list(_RAW_ROW_ERRORS),
    )
    def test_wrong_shapes_name_what_mismatched(self, call, what, expected, got):
        with pytest.raises(DimensionMismatch) as excinfo:
            call()
        assert (excinfo.value.what, excinfo.value.expected, excinfo.value.got) == (what, expected, got)

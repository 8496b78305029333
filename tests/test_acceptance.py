"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import random
from fractions import Fraction

import pytest

from ceei import (
    DiscreteAssignment,
    Instance,
    binary_gap_example,
    binary_max_nash,
    brute_force_max_nash,
    exists_ceei_frac_discrete,
    find_ceei_disc_identical,
    from_partition,
    from_three_partition,
    gen_random,
    is_envy_free,
    is_pareto_optimal_discrete,
    kkt_residual,
    max_nash_discrete,
    nash_welfare,
    PartitionInput,
    separation_example,
    solve_eg,
    ThreePartitionInput,
    verify_ceei_disc,
    verify_ceei_frac,
)
from oracles import (
    all_discrete_assignments,
    equal_split_exists,
    has_equal_bipartition,
    random_fractional_welfare,
)

LOPSIDED = DiscreteAssignment([0, 1, 1, 1])
EVEN = DiscreteAssignment([0, 0, 1, 1])
EXPECTED_PRICES = (Fraction(19, 20), Fraction(1, 20), Fraction(1, 20), Fraction(19, 20))


def _report(criterion, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="module")
def solver_instances():
    """50 random instances, n <= 4, m <= 8, shared by criteria 3 and 4."""
    rng = random.Random(2024)
    return [
        gen_random(rng.randint(1, 4), rng.randint(1, 8), 12, seed=1000 + k)
        for k in range(50)
    ]


def test_criterion_1_separating_example_exact():
    inst = separation_example()
    ok = (
        is_envy_free(inst, LOPSIDED).holds
        and is_pareto_optimal_discrete(inst, LOPSIDED).holds
        and not verify_ceei_frac(inst, LOPSIDED).holds
    )
    verdict = verify_ceei_frac(inst, EVEN)
    ok = ok and verdict.holds and verdict.certificate.prices.prices == EXPECTED_PRICES
    _report(1, "EF+PO split lacks price support; even split supported exactly", ok)


def test_criterion_2_solver_certification():
    inst = separation_example()
    sol = solve_eg(inst)
    u = [float(v) for v in sol.u_star]
    p = [float(v) for v in sol.p_star]
    ok = (
        abs(u[0] - 100) < 1e-6
        and abs(u[1] - 100) < 1e-6
        and max(abs(a - b) for a, b in zip(p, [0.95, 0.05, 0.05, 0.95])) < 1e-6
        and kkt_residual(inst, sol.x, sol.p_star).max_violation == 0
    )
    _report(2, "solver reaches (100, 100) and (.95, .05, .05, .95) with zero exact residual", ok)


def test_criterion_3_equilibrium_uniqueness(solver_instances):
    worst = 0.0
    for inst in solver_instances:
        runs = [solve_eg(inst, seed=s) for s in range(20)]
        for other in runs[1:]:
            for a, b in zip(runs[0].u_star, other.u_star):
                worst = max(worst, abs(float(a) - float(b)))
            for a, b in zip(runs[0].p_star, other.p_star):
                worst = max(worst, abs(float(a) - float(b)))
    _report(3, f"u*, p* spread across 20 seeded runs x 50 instances = {worst:.2e} < 1e-8", worst < 1e-8)


def test_criterion_4_welfare_optimality(solver_instances):
    rng = random.Random(77)
    ok = True
    for inst in solver_instances:
        optimum = nash_welfare(inst, solve_eg(inst).x)
        target = float(optimum) * (1 + 1e-9)
        for _ in range(1000):
            if random_fractional_welfare(inst, rng) > target:
                ok = False
        if brute_force_max_nash(inst).welfare > optimum:
            ok = False
    _report(4, "equilibrium welfare dominates 1000 random fractional samples and the discrete optimum", ok)


def test_criterion_5_branch_and_bound_oracle_equivalence():
    rng = random.Random(31)
    ok = True
    for k in range(200):
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 7), 10, seed=2000 + k)
        if max_nash_discrete(inst).welfare != brute_force_max_nash(inst).welfare:
            ok = False
    _report(5, "branch-and-bound welfare equals enumeration on 200 random instances", ok)


def test_criterion_6_binary_maximizer_oracle_equivalence():
    rng = random.Random(59)
    ok = True
    for k in range(200):
        inst = gen_random(rng.randint(1, 4), rng.randint(1, 10), 1, seed=3000 + k)
        if binary_max_nash(inst).welfare != brute_force_max_nash(inst).welfare:
            ok = False
    _report(6, "polynomial binary maximizer equals enumeration on 200 random binary instances", ok)


def _planted_three_partition_fixtures():
    """20 fixtures: planted yes-instances and constructed no-instances."""
    rng = random.Random(4096)
    fixtures = []
    for k in range(12):  # planted yes: n groups of triples summing to the bound
        t = 9 + k
        bound = 3 * t
        groups = 2 + k % 2
        weights = []
        for g in range(groups):
            spread = g % 2 + 1  # t - 2 stays above bound/4 for every t >= 9
            weights.extend((t - spread, t, t + spread))
        rng.shuffle(weights)
        fixtures.append((ThreePartitionInput(weights, bound), True))
    for k in range(8):  # no-instances: five equal weights and one corrective
        a = 5 + k
        bound = 3 * a + 1  # 3a != bound, so no triple reaches the target
        b = 2 * bound - 5 * a
        fixtures.append((ThreePartitionInput([a, a, a, a, a, b], bound), False))
    return fixtures


def test_criterion_7_reduction_soundness():
    rng = random.Random(13)
    ok = True
    for k in range(50):
        values = [rng.randint(1, 30) for _ in range(rng.randint(1, 14))]
        inst = from_partition(PartitionInput(values))
        found = find_ceei_disc_identical(inst)
        if (found is not None) != has_equal_bipartition(values):
            ok = False
        if found is not None:
            utilities = [
                sum(inst.utilities[0][j] for j in found.bundle(i)) for i in range(2)
            ]
            if utilities[0] != utilities[1]:
                ok = False
    for tin, planted in _planted_three_partition_fixtures():
        if equal_split_exists(list(tin.weights), tin.groups) != planted:
            ok = False  # the fixture itself is mislabelled
        inst = from_three_partition(tin)
        found = find_ceei_disc_identical(inst)
        if (found is not None) != planted:
            ok = False
        if found is not None and not verify_ceei_disc(inst, found).holds:
            ok = False
    _report(7, "equal-split finder agrees with subset-sum DP and planted 3-way fixtures", ok)


def test_criterion_8_notion_hierarchy():
    rng = random.Random(83)
    instances = [gen_random(3, 6, 7, seed=3999)]  # pin the largest general shape
    for k in range(19):
        instances.append(gen_random(rng.randint(1, 3), rng.randint(1, 6), 7, seed=4000 + k))
    instances.append(Instance([[rng.randint(1, 9) for _ in range(6)]] * 3))  # largest identical shape
    for k in range(9):
        m = rng.randint(2, 6)
        row = [rng.randint(1, 9) for _ in range(m)]
        instances.append(Instance([row] * rng.randint(2, 3)))

    ok = True
    for inst in instances:
        identical = inst.has_identical_rows() and inst.n > 1
        for y in all_discrete_assignments(inst.n, inst.m):
            frac = verify_ceei_frac(inst, y).holds
            if frac:
                if not verify_ceei_disc(inst, y).holds:
                    ok = False
                if not is_envy_free(inst, y).holds:
                    ok = False
                if not is_pareto_optimal_discrete(inst, y).holds:
                    ok = False
            if identical:
                utilities = {
                    sum(inst.utilities[0][j] for j in y.bundle(i)) for i in range(inst.n)
                }
                if verify_ceei_disc(inst, y).holds != (len(utilities) == 1):
                    ok = False
    _report(8, "price-support hierarchy and identical-utilities characterization hold exhaustively", ok)


def test_criterion_9_existence_gap_witness():
    inst = binary_gap_example()
    none_exists = exists_ceei_frac_discrete(inst) is None
    discrete_best = brute_force_max_nash(inst).welfare
    fractional = nash_welfare(inst, solve_eg(inst).x)
    ok = (
        none_exists
        and discrete_best == 2
        and abs(float(fractional) - 2.25) < 1e-6
        and fractional > discrete_best
    )
    _report(9, "no discrete assignment reaches the fractional optimum 2.25 > 2", ok)

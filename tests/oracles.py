"""Independent test oracles.

Everything here deliberately avoids the implementations under test, and
takes nothing from `ceei` but its input types: the subset-sum check is a
bitset dynamic program, the equal-split and Pareto checks are plain
enumeration of owner vectors, LP optima come from vertex enumeration rather
than pivoting, LP solutions from a textbook rational tableau rather than
integer pivoting, and inclusion-minimal masks come from pairwise subset
tests over a scan of every subset.  Every bundle of an owner vector is
valued by `owner_values`, from `inst.utilities` and the owner vector alone.

The envy pair, the max-Nash optimum by enumeration and the CEEI-frac,
CEEI-disc and Fisher-equilibrium certificates are not restated here: the
tests take them from `checks`, the benchmark's `bench/checks.py`, which
imports nothing from `ceei` and reads raw rows, owner lists and price lists.
"""

import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from ceei import DiscreteAssignment, Instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checks  # noqa: E402

# entry pools for small random instances: many zeros, "p/q" entries, and
# entries too large for floats
ENTRY_KINDS = (
    [0, 0, 0, 1, 2, 3],
    [0, 1, "1/2", "2/3", "7/4", "5/3"],
    [0, 1, 10**400, 10**400 + 1, 3 * 10**400],
    list(range(10)),
)


def mixed_instance(rng, max_agents=4, max_objects=7, max_assignments=1024):
    """A random instance of one ENTRY_KINDS pool with n^m at most `max_assignments`."""
    n = rng.randint(1, max_agents)
    m = rng.randint(1, max_objects)
    while n**m > max_assignments:
        m -= 1
    kind = rng.choice(ENTRY_KINDS)
    return Instance([[rng.choice(kind) for _ in range(m)] for _ in range(n)])


def subset_sum_reachable(values, target):
    """Bitset DP: is some sub-multiset summing exactly to target?"""
    if target < 0:
        return False
    reachable = 1
    for v in values:
        reachable |= reachable << v
    return bool(reachable >> target & 1)


def has_equal_bipartition(values):
    total = sum(values)
    return total % 2 == 0 and subset_sum_reachable(values, total // 2)


def equal_split_exists(weights, parts):
    """Enumerate every owner vector and look for an all-equal-sum split."""
    target, remainder = divmod(sum(weights), parts)
    if remainder:
        return False
    for owner in product(range(parts), repeat=len(weights)):
        sums = [0] * parts
        for j, o in enumerate(owner):
            sums[o] += weights[j]
        if all(s == target for s in sums):
            return True
    return False


def owner_values(inst, owner, agent=None):
    """values[k]: the bundle `owner` gives agent k, in Fractions, as k values
    it, or as `agent` does when one is named."""
    values = [Fraction(0)] * inst.n
    for j, k in enumerate(owner):
        values[k] += inst.utilities[k if agent is None else agent][j]
    return values


def all_discrete_assignments(n, m):
    for owner in product(range(n), repeat=m):
        yield DiscreteAssignment(owner)


def first_ratio_gap(inst, y):
    """Agent by agent, ascending within an agent: the first (i, j, gap) with
    agent i holding object j at a ratio u_ij / v_i below the column's best
    max_k u_kj / v_k, by `gap`, or None.  Each own value v_k must be positive."""
    values = owner_values(inst, y.owner)
    for i, j in sorted((o, j) for j, o in enumerate(y.owner)):
        best = max(inst.utilities[k][j] / values[k] for k in range(inst.n))
        gap = best - inst.utilities[i][j] / values[i]
        if gap:
            return i, j, gap
    return None


def fractionally_supported(inst, owner):
    """CEEI-frac from its definition: every equilibrium utility is positive,
    and the only candidate prices put each object at its best ratio
    max_k u_kj / v_k, which they support iff every owner attains it."""
    return 0 not in owner_values(inst, owner) and first_ratio_gap(inst, DiscreteAssignment(owner)) is None


def first_dominating_assignment(inst, y):
    """Enumerate owner vectors lexicographically; the first Pareto-dominating y, or None."""
    base = owner_values(inst, y.owner)
    for owner in product(range(inst.n), repeat=inst.m):
        totals = owner_values(inst, owner)
        if totals != base and all(a >= b for a, b in zip(totals, base)):
            return DiscreteAssignment(owner)
    return None


def inclusion_minimal_pairwise(masks):
    """Members of a set of bitmasks with no other member inside them, ascending."""
    return sorted(a for a in masks if not any(b != a and b & a == b for b in masks))


def minimal_better_bundles(rows, own):
    """Scan all 2^m subsets: the inclusion-minimal ones that some agent values
    above its `own` total, as (first such agent, objects) pairs in that order."""
    m = len(rows[0])
    claimant = {}
    for mask in range(1, 1 << m):
        objects = [j for j in range(m) if mask >> j & 1]
        agent = next((i for i, row in enumerate(rows) if sum(row[j] for j in objects) > own[i]), None)
        if agent is not None:
            claimant[mask] = agent
    return sorted(
        (claimant[mask], tuple(j for j in range(m) if mask >> j & 1))
        for mask in inclusion_minimal_pairwise(claimant)
    )


def random_fractional_welfare(inst, rng):
    """Float Nash welfare of a random complete fractional assignment."""
    utilities = [[float(v) for v in row] for row in inst.utilities]
    totals = [0.0] * inst.n
    for j in range(inst.m):
        weights = [rng.random() + 1e-9 for _ in range(inst.n)]
        denom = sum(weights)
        for i in range(inst.n):
            totals[i] += weights[i] / denom * utilities[i][j]
    welfare = 1.0
    for t in totals:
        welfare *= t
    return welfare


def lp_vertex_optimum(c, rows, rhs):
    """Best c.z over the vertices of {rows z <= rhs, z >= 0}, or None if it has none.

    A vertex is the unique solution of N tight constraints chosen among the
    rows and the bounds z_j >= 0; every feasible one is a candidate.  Only
    meaningful when the region is bounded, so that some vertex is optimal.
    """
    num_vars = len(c)
    planes = [([Fraction(a) for a in row], Fraction(b)) for row, b in zip(rows, rhs)]
    planes += [([Fraction(-(j == k)) for k in range(num_vars)], Fraction(0)) for j in range(num_vars)]
    best = None
    for tight in combinations(planes, num_vars):
        point = _solve_square([a for a, _b in tight], [b for _a, b in tight])
        if point is None:
            continue
        if all(sum(x * z for x, z in zip(a, point)) <= b for a, b in planes):
            value = sum(Fraction(x) * z for x, z in zip(c, point))
            if best is None or value > best:
                best = value
    return best


def bland_tableau(c, rows, rhs):
    """(value, solution, pivot count) of max c.z over {rows z <= rhs, z >= 0},
    rhs >= 0, or None if the objective is unbounded.

    The textbook simplex: a full tableau of Fractions with one explicit slack
    column per row, started from the slack basis.  Bland's rule by original
    variable index (structural 0..n-1, then the slacks): the lowest-index
    variable with a negative reduced cost enters, and the ratio test breaks
    ties towards the lowest-index basic variable.
    """
    num_vars, num_cons = len(c), len(rows)
    width = num_vars + num_cons
    tableau = [
        [Fraction(a) for a in row] + [Fraction(int(r == s)) for s in range(num_cons)] + [Fraction(b)]
        for r, (row, b) in enumerate(zip(rows, rhs))
    ]
    cost = [-Fraction(v) for v in c] + [Fraction(0)] * (num_cons + 1)
    basis = list(range(num_vars, width))
    pivots = 0
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(row[-1] / row[enter], basis[r], r) for r, row in enumerate(tableau) if row[enter] > 0]
        if not ratios:
            return None
        leave = min(ratios)[2]
        pivot_row = [v / tableau[leave][enter] for v in tableau[leave]]
        tableau = [pivot_row if r == leave else _eliminate(row, pivot_row, enter) for r, row in enumerate(tableau)]
        cost = _eliminate(cost, pivot_row, enter)
        basis[leave] = enter
        pivots += 1
    solution = [Fraction(0)] * num_vars
    for r, var in enumerate(basis):
        if var < num_vars:
            solution[var] = tableau[r][-1]
    return cost[-1], solution, pivots


def _eliminate(row, pivot_row, enter):
    """row minus the multiple of pivot_row that zeroes its `enter` entry."""
    factor = row[enter]
    return [v - factor * w if w else v for v, w in zip(row, pivot_row)]


def _solve_square(matrix, vector):
    """The unique solution of matrix z = vector by Gaussian elimination, or None if singular."""
    size = len(vector)
    aug = [list(row) + [b] for row, b in zip(matrix, vector)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][-1] / aug[r][r] for r in range(size)]

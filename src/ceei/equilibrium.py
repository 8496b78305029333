"""Fractional competitive-equilibrium solver for linear utilities, unit budgets.

The equilibrium is the optimum of the Eisenberg-Gale program, and the solver
works on its dual (Cole et al., EC 2017): minimize sum_j p_j - sum_i log beta_i
subject to u_ij * beta_i <= p_j, where beta_i = 1/u_i is agent i's inverse utility
and p_j object j's price, over the edges with u_ij > 0.  With only n + m
variables, a log-barrier path-following Newton method in floating point
solves it in tens of steps.  Each beta_i starts at 0.9 of its largest feasible
value, so every slack s_ij = p_j - u_ij * beta_i starts at >= 10% of its price.
Each step solves one n x n Schur complement (the price block of the Hessian is
diagonal) and goes at most 0.9 of the way to where a slack or a beta_i would
reach zero; the barrier weight t grows tenfold once an iterate is centred,
with a Newton decrement of at most 2.  On the central path agent i spends
p_j / (t * s_ij) on object j.

The solver reads the utilities only as the int rows `Instance.int_rows`;
the float rows are each int row over its max, correctly rounded.  After each
centring the float iterate is used only to guess which agent-object edges
carry spending: those spending at least 1/sqrt(t), plus the top spender of
any object left without one (where rounding ties two spenders, the exact bid
u_ij * beta_i decides).  From that guess the unique equilibrium utilities and
prices are reconstructed and verified in integer arithmetic on one support
graph, agents as nodes 0..n-1 and objects as n..n+m-1.  One rule, the same
from either end of an edge, propagates ratios as int pairs: the far end's
is u_ij over the near end's.  Optimality is one cross-multiplied
comparison per entry over the prices' common denominator, and the money flow
runs on the same nodes with int capacities scaled by that denominator.  Every
returned solution is therefore exact, with a residual of literally zero; when
no guess certifies before the relative duality gap falls below 1e-10, or
within 100,000 Newton steps, the solver raises NonConvergence.

numpy is imported inside `solve_eg`, so importing this module (and the CLI)
does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._flow import max_flow
from .errors import (
    DimensionMismatch,
    InvariantError,
    NonConvergence,
)
from .model import (
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    PriceVector,
    _rational_row,
    as_fractional,
    validate_instance,
)

_CENTRED = 2.0  # Newton decrement up to which an iterate is centred: loose, the certificate decides
_GAP_FLOOR = 1e-10  # relative duality gap below which the solver gives up
_MAX_STEPS = 100_000  # Newton steps before the solver gives up


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium allocation, utilities, prices, and the Newton step count.

    Every solution is certified in exact integer arithmetic: `u_star`,
    `p_star` and `x` are exact, so their residual is zero and `certified` is
    always True.  `certified` stays because `bench/checks.py` and
    `bench/test_bench.py` read it, and the CLI echoes it as
    `certified_exact`.  The `kkt_residual()` function stays too: the tests
    use it as an exact, independent check of the solver's answer, and
    `bench/tracing.py` patches the module attribute (as it does
    `ceei.search.max_flow`) until the benchmark's per-layer counters come
    from the library.

    Unlike the value types of `ceei.model`, this and `ResidualReport` stay
    frozen dataclasses: `bench/test_bench.py` builds an uncertified copy
    with `dataclasses.replace`, and only `solve` loads this module, whose
    numpy imports `inspect` (most of the cost of `dataclasses`) anyway.
    """

    x: FractionalAssignment
    u_star: tuple
    p_star: PriceVector
    iterations: int
    certified: bool


@dataclass(frozen=True)
class ResidualReport:
    """Largest violation of each equilibrium condition, in exact arithmetic."""

    market_clearing: Fraction  # max_j |sum_i x_ij - 1|
    budget: Fraction  # max_i |sum_j x_ij p_j - 1|
    bang_per_buck: Fraction  # max relative gap to the agent's best ratio on held objects
    price_negativity: Fraction  # max_j max(0, -p_j)

    @property
    def max_violation(self) -> Fraction:
        return max(self.market_clearing, self.budget, self.bang_per_buck, self.price_negativity)


def kkt_residual(inst: Instance, allocation, prices) -> ResidualReport:
    """Report how far (allocation, prices) is from the equilibrium conditions.

    `allocation` may be a FractionalAssignment, a DiscreteAssignment, or raw
    rows (raw rows are deliberately not validated, so that incomplete
    candidates can be scored).  Bang-per-buck gaps are measured relative to
    the agent's best ratio, on every positive entry.
    """
    rows = _allocation_rows(inst, allocation)
    p = _rational_row(prices)
    if len(p) != inst.m:
        raise DimensionMismatch("price vector", inst.m, len(p))

    clearing = max(abs(sum(rows[i][j] for i in range(inst.n)) - 1) for j in range(inst.m))
    budget = max(
        abs(sum(rows[i][j] * p[j] for j in range(inst.m)) - 1) for i in range(inst.n)
    )
    negativity = max(Fraction(0), max(-pj for pj in p))

    worst_gap = Fraction(0)
    for i in range(inst.n):
        u = inst.utilities[i]
        best = Fraction(0)
        free_valued = False
        for j in range(inst.m):
            if p[j] > 0:
                ratio = u[j] / p[j]
                if ratio > best:
                    best = ratio
            elif u[j] > 0:
                free_valued = True  # a valued object priced at 0 beats any finite ratio
        for j in range(inst.m):
            if rows[i][j] <= 0:
                continue
            if free_valued and p[j] > 0:
                worst_gap = max(worst_gap, Fraction(1))
            elif p[j] > 0 and best > 0:
                gap = (best - u[j] / p[j]) / best
                worst_gap = max(worst_gap, gap)
    return ResidualReport(clearing, budget, worst_gap, negativity)


def solve_eg(inst: Instance, seed=None) -> EquilibriumSolution:
    """Maximize the sum of log utilities over fractional assignments.

    Returns the exact equilibrium allocation, the (unique) utility and price
    vectors, and the number of Newton steps taken.  `seed` switches the
    uniform starting prices to seeded random ones; the answer does not depend
    on it.  Raises NonConvergence if no support guess certifies before the
    duality gap falls below 1e-10 or within 100,000 Newton steps.
    """
    import numpy as np

    violations = validate_instance(inst)
    if violations:
        raise InvariantError(violations)

    n, m = inst.n, inst.m
    rows, scales = inst.int_rows, inst.scales
    tops = [max(row) for row in rows]
    # Scaling a row only rescales that agent's beta, so dividing each row by
    # its max keeps every float in range; int / int rounds correctly.
    u = np.array([[v / top for v in row] for row, top in zip(rows, tops)])
    edges = np.array([[v > 0 for v in row] for row in rows])  # exact, not rounded
    edge_count = int(edges.sum())  # one barrier term per edge; every object has one
    if seed is None:
        p = np.full((1, m), n / m)  # a (1, m) row; beta is an (n, 1) column
    else:
        p = np.random.default_rng(seed).uniform(0.5, 1.5, size=(1, m))
        p *= n / p.sum()

    gap = 0.1  # relative duality gap edges / (t * n) of the current central point
    # a float fault surfaces as a non-finite Newton step, which ends the solve
    with np.errstate(all="ignore"):
        # 0.9 of the largest dual-feasible beta: every slack starts at >= 10% of its price
        beta = 0.9 * np.min(p / u, where=edges, initial=np.inf, axis=1, keepdims=True)
        s = p - u * beta
        for iterations in range(1, _MAX_STEPS + 1):
            t = edge_count / (n * gap)
            w = edges / s  # 1/s on edges, 0 elsewhere
            wu = w * u
            w2u = wu * w
            g_beta = wu.sum(axis=1, keepdims=True) - t / beta
            g_p = t - w.sum(axis=0, keepdims=True)
            h_p = (w * w).sum(axis=0, keepdims=True)
            a = w2u / h_p
            # the Schur complement of the price block and its right-hand side, both negated
            schur = a @ w2u.T
            schur.flat[:: n + 1] -= (t / beta**2 + (wu * wu).sum(axis=1, keepdims=True)).ravel()
            try:
                d_beta = np.linalg.solve(schur, g_beta + a @ g_p.T)
            except np.linalg.LinAlgError:
                break
            d_p = (d_beta.T @ w2u - g_p) / h_p
            decrement = -(np.vdot(g_beta, d_beta) + np.vdot(g_p, d_p))
            if not math.isfinite(decrement):  # a NaN or infinite step makes it non-finite
                break
            # fraction to boundary: go at most 0.9 of the way to the nearest zero
            shrink = min(np.min((d_p - u * d_beta) / s, where=edges, initial=0.0), (d_beta / beta).min())
            step = min(1.0, -0.9 / shrink) if shrink < 0 else 1.0
            beta = beta + step * d_beta
            p = p + step * d_p
            s = p - u * beta
            if decrement > _CENTRED:
                continue
            # centred: edges spending at least 1/sqrt(t) form the support guess;
            # every object is sold, so one the guess misses gets its top spender
            tight = edges & (s * math.sqrt(t) <= p)
            sold = tight.any(axis=0)
            if not sold.all():
                spend = edges * p / s  # t times p_j * x_ij on the path
                top = edges & ~sold & (spend == spend.max(axis=0))
                for j in np.flatnonzero(top.sum(axis=0) > 1):
                    # rounding can tie distinct bids u_ij * beta_i: the exact bid decides
                    holders = np.flatnonzero(top[:, j])
                    bids = [Fraction(rows[i][j], tops[i]) * Fraction(beta[i, 0]) for i in holders]
                    best = max(bids)
                    top[holders, j] = [bid == best for bid in bids]
                tight |= top
            found = _certify_support(rows, scales, tight.tolist())
            if found is not None:
                return EquilibriumSolution(*found, iterations=iterations, certified=True)
            if gap < _GAP_FLOOR:
                break
            gap /= 10

    raise NonConvergence(iterations, gap)


def _allocation_rows(inst, allocation):
    x = allocation
    if isinstance(x, (DiscreteAssignment, FractionalAssignment)):
        return as_fractional(inst, x).rows
    rows = [_rational_row(row) for row in x]
    if len(rows) != inst.n:
        raise DimensionMismatch("allocation rows", inst.n, len(rows))
    for i, row in enumerate(rows):
        if len(row) != inst.m:
            raise DimensionMismatch(f"allocation row {i}", inst.m, len(row))
    return rows


def _certify_support(rows, scales, tight):
    """Reconstruct the exact equilibrium from a guessed spending support.

    `rows` and `scales` are `Instance.int_rows` and `Instance.scales`; the
    integer instance has the same prices and allocation, and agent i's utility
    times scales[i].  Edges marked in the nested boolean lists `tight` (all
    with u_ij > 0) are assumed to carry money.  On the support graph agent i
    is node i and object j node n + j.  An edge pins p_j = u_ij / u_i, so
    u_i = r_i * t and p_j = q_j / t with u_ij = r_i * q_j: from either end,
    the far end's ratio is u_ij over the near end's.  That fixes a component
    up to its scale t, which follows from its agents spending their whole
    budgets.  The reconstruction is then verified exactly: every node has an
    edge, ratios agree around every cycle, u_ij <= u_i * p_j holds globally,
    and a feasible money flow exists.  Any failure returns None.
    """
    n, m = len(rows), len(rows[0])
    links = [[] for _ in range(n + m)]  # (far node, u_ij) for each support edge
    for i, row in enumerate(tight):
        for j, held in enumerate(row):
            if held:
                links[i].append((n + j, rows[i][j]))
                links[n + j].append((i, rows[i][j]))
    if not all(links):
        return None

    # ratios r_i and q_j as int pairs (num, den), left unreduced since the
    # final Fractions reduce them, then u_i and p_j
    ratio = [None] * (n + m)
    value = [None] * (n + m)
    for seed in range(n):
        if ratio[seed] is not None:
            continue
        ratio[seed] = (1, 1)
        comp = [seed]
        for node in comp:  # the list grows as the walk reaches new nodes
            a, b = ratio[node]
            for far, v in links[node]:
                num = v * b  # the far end's ratio is num / a
                if ratio[far] is None:
                    ratio[far] = (num, a)
                    comp.append(far)
                else:
                    c, d = ratio[far]
                    if c * a != num * d:
                        return None  # inconsistent ratio cycle: support guess is wrong
        # the component's prices sum to its agent count: t_c = sum(q_j) / k
        objects = [ratio[node] for node in comp if node >= n]
        k = len(comp) - len(objects)
        lcd = math.lcm(*(d for _, d in objects))
        q_sum = sum(c * (lcd // d) for c, d in objects)  # sum(q_j) * lcd
        for node in comp:
            a, b = ratio[node]
            if node < n:
                value[node] = Fraction(a * q_sum, b * lcd * k)
            else:
                value[node] = Fraction(a * (lcd // b) * k, q_sum)
    u_star, p_star = value[:n], value[n:]

    # over the prices' common denominator D, p_j = P_j / D; with u_i = a_i / b_i,
    # u_ij <= u_i * p_j is u_ij * b_i * D <= a_i * P_j, and equality marks a tie edge
    denom = math.lcm(*(p.denominator for p in p_star))
    scaled_prices = [p.numerator * (denom // p.denominator) for p in p_star]
    tie_edges = []
    for i, row in enumerate(rows):
        a, bd = u_star[i].numerator, u_star[i].denominator * denom
        for j, v in enumerate(row):
            if v:
                lhs, rhs = v * bd, a * scaled_prices[j]
                if lhs > rhs:
                    return None  # agent i sees a better-than-equilibrium ratio at j
                if lhs == rhs:
                    tie_edges.append((i, j))

    # money flow on the maximal (tie-inclusive) support, every capacity times D:
    # D per agent budget and per tie edge, P_j per object; source and sink last
    source, sink = n + m, n + m + 1
    edges = {(source, i): denom for i in range(n)}
    edges |= {(n + j, sink): price for j, price in enumerate(scaled_prices)}
    edges |= {(i, n + j): denom for i, j in tie_edges}
    total, flow = max_flow(n + m + 2, edges, source, sink)
    if total != n * denom:
        return None

    zero = Fraction(0)  # shared: FractionalAssignment takes a Fraction as is
    x = [[zero] * m for _ in range(n)]
    for i, j in tie_edges:
        x[i][j] = Fraction(flow[(i, n + j)], scaled_prices[j])
    u_star = tuple(u / s for u, s in zip(u_star, scales))
    return FractionalAssignment(x), u_star, PriceVector(p_star)

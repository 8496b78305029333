"""Fractional competitive-equilibrium solver for linear utilities, unit budgets.

The solver runs proportional-response dynamics in floating point: each agent
splits its unit budget over objects in proportion to the utility each object
contributed last round, prices are per-object bid totals, and allocations are
bid shares.  Market clearing and budget exhaustion hold by construction at
every iterate, so only bang-per-buck optimality has to converge.

Once the utility vector is stable, the float iterate is used only to guess
which agent-object edges carry spending: those whose bang per buck u_ij/p_j
is within a relative 1e-4 of the agent's best.  From that guess the unique
equilibrium utilities and prices are reconstructed in exact rational
arithmetic and verified against the optimality conditions.  Every returned
solution is therefore exact, with a residual of literally zero; when no guess
certifies within the iteration budget the solver raises NonConvergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._flow import max_flow
from .errors import (
    DimensionMismatch,
    InvariantError,
    NonConvergence,
    ZeroUtility,
)
from .model import (
    FractionalAssignment,
    Instance,
    PriceVector,
    as_fractional,
    to_rational,
    validate_instance,
)

_TIGHT_RATIO = 1 - 1e-4  # float bang per buck this close to the best counts as tight


@dataclass(frozen=True)
class SolverConfig:
    convergence_tolerance: float = 1e-10  # relative utility change between rounds
    max_iterations: int = 100_000

    def __post_init__(self):
        if self.convergence_tolerance <= 0:
            raise ValueError("convergence_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium allocation, utilities, prices, and convergence diagnostics.

    Every solution is certified in exact rational arithmetic: `u_star`,
    `p_star` and `x` are exact, `certified` is always True and `kkt_residual`
    is always 0.0.  Both fields are kept for callers that read them.
    """

    x: FractionalAssignment
    u_star: tuple
    p_star: PriceVector
    iterations: int
    kkt_residual: float
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


def equilibrium_prices_from_utilities(inst: Instance, utilities: Sequence) -> PriceVector:
    """Closed-form dual prices p_j = max_i u_ij / u_i for candidate utilities.

    At equilibrium each agent turns its unit budget into utility at rate u_i,
    so an object's price is pinned by the agent extracting the most from it.
    Raises ZeroUtility if some u_i is zero.
    """
    u = [to_rational(v) for v in utilities]
    if len(u) != inst.n:
        raise DimensionMismatch("utility vector", inst.n, len(u))
    for i, v in enumerate(u):
        if v == 0:
            raise ZeroUtility(i)
    prices = []
    for j in range(inst.m):
        prices.append(max(inst.utilities[i][j] / u[i] for i in range(inst.n)))
    return PriceVector(prices)


def kkt_residual(inst: Instance, allocation, prices) -> ResidualReport:
    """Report how far (allocation, prices) is from the equilibrium conditions.

    `allocation` may be a FractionalAssignment, a DiscreteAssignment, or raw
    rows (raw rows are deliberately not validated, so that incomplete
    candidates can be scored).  Bang-per-buck gaps are measured relative to
    the agent's best ratio, on every positive entry.
    """
    rows = _allocation_rows(inst, allocation)
    p = [to_rational(v) for v in (prices.prices if isinstance(prices, PriceVector) else prices)]
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


def solve_eg(inst: Instance, config: Optional[SolverConfig] = None, seed=None) -> EquilibriumSolution:
    """Maximize the sum of log utilities over fractional assignments.

    Returns the exact equilibrium allocation, the (unique) utility and price
    vectors, and the iteration count.  `seed` switches the deterministic
    uniform-bid start to seeded random bids; the answer does not depend on it.
    Raises NonConvergence if no support guess certifies before the iterate
    converges or the iteration budget runs out.
    """
    cfg = config or SolverConfig()
    violations = validate_instance(inst)
    if violations:
        raise InvariantError(violations)

    n, m = inst.n, inst.m
    # Scaling a row only rescales that agent's utility, so dividing each row by
    # its max (exactly, before rounding) keeps every float in range.
    utilities = np.array([_row_over_max(row) for row in inst.utilities])
    if seed is None:
        bids = np.full((n, m), 1.0 / m)
    else:
        rng = np.random.default_rng(seed)
        bids = rng.uniform(0.5, 1.5, size=(n, m))
        bids /= bids.sum(axis=1, keepdims=True)

    # Certification only needs the spending support, which stabilizes long
    # before the utilities do, so attempt it periodically once the iterate is
    # near-stable; a successful attempt is exact and ends the solve early.
    trigger = max(cfg.convergence_tolerance, 1e-6)
    u_prev = None
    last_attempt = None
    for iterations in range(1, cfg.max_iterations + 1):
        prices = bids.sum(axis=0)
        shares = bids / np.maximum(prices, 1e-300)
        gains = shares * utilities
        u = gains.sum(axis=1)
        delta = (
            np.max(np.abs(u - u_prev) / np.maximum(u, 1e-300)) if u_prev is not None else np.inf
        )
        converged = delta < cfg.convergence_tolerance
        due = delta < trigger and (last_attempt is None or iterations - last_attempt >= 250)
        if converged or due or iterations == cfg.max_iterations:
            last_attempt = iterations
            certified = _certify(inst, utilities, prices)
            if certified is not None:
                x, u_star, p_star = certified
                return EquilibriumSolution(
                    x=x,
                    u_star=u_star,
                    p_star=p_star,
                    iterations=iterations,
                    kkt_residual=0.0,
                    certified=True,
                )
            if converged:
                break
        u_prev = u
        bids = gains / np.maximum(u[:, None], 1e-300)

    raise NonConvergence(iterations, float(delta))


def _allocation_rows(inst, allocation):
    x = allocation
    if hasattr(x, "to_fractional") or isinstance(x, FractionalAssignment):
        return as_fractional(inst, x).rows
    rows = [tuple(to_rational(v) for v in row) for row in x]
    if len(rows) != inst.n:
        raise DimensionMismatch("allocation rows", inst.n, len(rows))
    for i, row in enumerate(rows):
        if len(row) != inst.m:
            raise DimensionMismatch(f"allocation row {i}", inst.m, len(row))
    return rows


def _row_over_max(row):
    top = max(row)
    return [float(v / top) for v in row]


def _certify(inst, utilities, prices):
    """Guess the spending support from float bang-per-buck tightness and certify it."""
    ratios = utilities / np.maximum(prices, 1e-300)
    best = ratios.max(axis=1, keepdims=True)
    tight = (utilities > 0) & (ratios >= _TIGHT_RATIO * best)
    return _certify_support(inst, tight)


def _certify_support(inst, tight):
    """Reconstruct the exact equilibrium from a guessed spending support.

    Edges marked in the boolean matrix `tight` are assumed to carry money.
    Along any such edge the price is pinned to p_j = u_ij / u_i, which fixes
    every utility and price inside a connected component up to one scale; the
    scale follows from the component's agents spending their whole budgets.
    The reconstruction is then verified exactly: ratio consistency on the
    guessed edges, global optimality u_ij <= u_i * p_j, and existence of a
    feasible exact money flow.  Any failure returns None.
    """
    n, m = inst.n, inst.m
    utilities = inst.utilities
    support = [[j for j in range(m) if tight[i, j]] for i in range(n)]
    if any(not edges for edges in support):
        return None
    by_object = [[] for _ in range(m)]
    for i, edges in enumerate(support):
        for j in edges:
            by_object[j].append(i)
    if any(not holders for holders in by_object):
        return None

    # propagate scale-free ratios: u_i = r_i * t_c, p_j = q_j / t_c
    agent_scale = [None] * n
    object_scale = [None] * m
    comps = []
    for seed_agent in range(n):
        if agent_scale[seed_agent] is not None:
            continue
        comp = len(comps)
        comps.append({"agents": [], "objects": []})
        agent_scale[seed_agent] = Fraction(1)
        stack = [("agent", seed_agent)]
        while stack:
            kind, node = stack.pop()
            if kind == "agent":
                comps[comp]["agents"].append(node)
                for j in support[node]:
                    q = utilities[node][j] / agent_scale[node]
                    if object_scale[j] is None:
                        object_scale[j] = q
                        comps[comp]["objects"].append(j)
                        stack.append(("object", j))
                    elif object_scale[j] != q:
                        return None  # inconsistent ratio cycle: support guess is wrong
            else:
                for i in by_object[node]:
                    r = utilities[i][node] / object_scale[node]
                    if agent_scale[i] is None:
                        agent_scale[i] = r
                        stack.append(("agent", i))
                    elif agent_scale[i] != r:
                        return None

    u_star = [None] * n
    p_star = [None] * m
    for comp in comps:
        scale = sum(object_scale[j] for j in comp["objects"]) / len(comp["agents"])
        for i in comp["agents"]:
            u_star[i] = agent_scale[i] * scale
        for j in comp["objects"]:
            p_star[j] = object_scale[j] / scale
    if any(p is None for p in p_star):
        return None

    # global optimality: no agent sees a better-than-equilibrium ratio anywhere
    for i in range(n):
        for j in range(m):
            if utilities[i][j] > u_star[i] * p_star[j]:
                return None

    # exact money flow on the maximal (tie-inclusive) support
    tie_edges = [
        (i, j)
        for i in range(n)
        for j in range(m)
        if utilities[i][j] == u_star[i] * p_star[j] and utilities[i][j] > 0
    ]
    source, sink = 0, n + m + 1
    edges = {}
    for i in range(n):
        edges[(source, 1 + i)] = Fraction(1)
    for j in range(m):
        edges[(1 + n + j, sink)] = p_star[j]
    for i, j in tie_edges:
        edges[(1 + i, 1 + n + j)] = Fraction(1)
    total, flow = max_flow(n + m + 2, edges, source, sink)
    if total != n:
        return None

    rows = [[Fraction(0)] * m for _ in range(n)]
    for i, j in tie_edges:
        rows[i][j] = flow[(1 + i, 1 + n + j)] / p_star[j]
    x = FractionalAssignment(rows)
    return x, tuple(u_star), PriceVector(p_star)

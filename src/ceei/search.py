"""Exact desk-scale search over discrete assignments.

Welfare maximization comes in three flavours: plain enumeration (the oracle
everything else is measured against), branch and bound with an additive
optimistic bound, and a polynomial maximizer for 0/1 utilities built on
bipartite flows.  On top of those sit the existence deciders for the two
price-support notions and the equal-split finder for identical utilities.

Ties are broken lexicographically by owner vector wherever the search is
exhaustive, so optima are canonical and runs are reproducible.  Exhaustive
searches walk `fairness.assignments` (one n^m guard); branch and bound and the
partition search keep explicit stacks.  Nothing here recurses.  Every loop
runs on the int rows of `model.integer_rows`; reported welfare divides out
the product of their row scales.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Optional

from ._flow import max_flow
from .errors import (
    InconclusiveSearch,
    InstanceTooLarge,
    NotBinary,
    NotIdenticalUtilities,
)
from .fairness import (
    DEFAULT_ENUM_LIMIT,
    assignments,
    verify_ceei_disc,
    verify_ceei_frac,
)
from .model import DiscreteAssignment, Instance, integer_rows


@dataclass(frozen=True)
class SearchBudgets:
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclass(frozen=True)
class SearchResult:
    best: DiscreteAssignment
    welfare: Fraction
    nodes_explored: int
    optimal: bool  # False when a node or time budget truncated the search


def brute_force_max_nash(inst: Instance, limit=DEFAULT_ENUM_LIMIT) -> SearchResult:
    """Enumerate all n^m complete assignments and keep the welfare maximum.

    Enumeration is in lexicographic owner-vector order and ties keep the
    earlier vector, so the optimum is canonical.  This is the independent
    oracle for every other discrete-search claim in the package.
    """
    _rows, scales = integer_rows(inst)
    best_owner = None
    best_welfare = -1
    leaves = 0
    for owner, totals in assignments(inst, limit):
        leaves += 1
        welfare = math.prod(totals)
        if welfare > best_welfare:
            best_welfare = welfare
            best_owner = tuple(owner)
    return SearchResult(
        best=DiscreteAssignment(best_owner),
        welfare=Fraction(best_welfare, math.prod(scales)),
        nodes_explored=leaves,
        optimal=True,
    )


def max_nash_discrete(inst: Instance, budgets: Optional[SearchBudgets] = None) -> SearchResult:
    """Branch-and-bound welfare maximization over discrete assignments.

    Objects are assigned in decreasing order of their best single-agent
    utility; the bound at a node credits every agent with all utility mass
    still unassigned, which is loose but exact and cheap.  Welfare ties are
    resolved toward the lexicographically smaller owner vector, matching the
    enumeration oracle.  Exhausting a node or time budget truncates the
    search and sets `optimal = False` instead of raising.
    """
    budgets = budgets or SearchBudgets()
    n, m = inst.n, inst.m
    rows, scales = integer_rows(inst)
    # compares utilities across agents, so it reads the unscaled ones
    order = sorted(range(m), key=lambda j: (-max(row[j] for row in inst.utilities), j))
    # suffix[k][i]: utility mass agent i could still gain from objects order[k:]
    suffix = [[0] * n for _ in range(m + 1)]
    for k in range(m - 1, -1, -1):
        j = order[k]
        for i in range(n):
            suffix[k][i] = suffix[k + 1][i] + rows[i][j]

    owner = [0] * m
    totals = [0] * n
    # seed the incumbent with the all-to-agent-0 assignment (welfare 0 unless
    # n == 1) so truncated searches still return a complete result
    best_owner = tuple([0] * m)
    best_welfare = sum(rows[0]) if n == 1 else 0
    nodes = 0
    truncated = False
    deadline = time.monotonic() + budgets.max_seconds if budgets.max_seconds is not None else None

    # Depth-first over order[0..m-1] with the path kept in `owner`: entering a
    # node at depth k counts it, scores a leaf or descends into agent 0, and a
    # finished node backtracks to the deepest object with an untried agent.
    k = 0
    while True:
        nodes += 1
        if (budgets.max_nodes is not None and nodes >= budgets.max_nodes) or (
            deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline
        ):
            truncated = True
            break
        if k == m:
            welfare = math.prod(totals)
            if welfare > best_welfare or (welfare == best_welfare and tuple(owner) < best_owner):
                best_welfare = welfare
                best_owner = tuple(owner)
        else:
            bound = math.prod(map(add, totals, suffix[k]))
            if bound >= best_welfare and (bound or best_welfare):
                j = order[k]
                owner[j] = 0
                totals[0] += rows[0][j]
                k += 1
                continue
        while k:
            k -= 1
            j = order[k]
            i = owner[j]
            totals[i] -= rows[i][j]
            if i + 1 < n:
                owner[j] = i + 1
                totals[i + 1] += rows[i + 1][j]
                k += 1
                break
        else:
            break
    return SearchResult(
        best=DiscreteAssignment(best_owner),
        welfare=Fraction(best_welfare, math.prod(scales)),
        nodes_explored=nodes,
        optimal=not truncated,
    )


def exists_ceei_frac_discrete(inst: Instance, budgets: Optional[SearchBudgets] = None):
    """Return a discrete assignment with fractional price support, or None.

    A discrete assignment is supportable against fractional demand exactly
    when it reaches the welfare optimum of the fractional relaxation, so it
    suffices to test the discrete welfare maximizer.  Raises
    InconclusiveSearch if the inner search was truncated.
    """
    result = max_nash_discrete(inst, budgets)
    if not result.optimal:
        raise InconclusiveSearch(result.nodes_explored, result.welfare)
    if verify_ceei_frac(inst, result.best).holds:
        return result.best
    return None


def binary_max_nash(inst: Instance) -> SearchResult:
    """Polynomial welfare maximizer for instances with all utilities 0 or 1.

    With 0/1 utilities an agent's utility is just the number of owned objects
    it values, so maximizing the product over the bipartite agent-object
    graph is a concave separable maximization over a polymatroid: growing the
    currently poorest agent that can still be grown (checked by a bipartite
    matching feasibility flow) one valued object at a time is exact.  Agents
    stuck at zero make every assignment worthless, in which case everything
    goes to agent 0.
    """
    n, m = inst.n, inst.m
    valued = [[] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            v = inst.utilities[i][j]
            if v != 0 and v != 1:
                raise NotBinary(i, j, v)
            if v == 1:
                valued[i].append(j)

    source, sink = 0, n + m + 1
    flows_run = 0

    def feasible(counts):
        nonlocal flows_run
        flows_run += 1
        edges = {}
        for i in range(n):
            if counts[i]:
                edges[(source, 1 + i)] = counts[i]
                for j in valued[i]:
                    edges[(1 + i, 1 + n + j)] = 1
        for j in range(m):
            edges[(1 + n + j, sink)] = 1
        total, flow = max_flow(n + m + 2, edges, source, sink)
        return (total == sum(counts)), flow

    counts = [0] * n
    for _ in range(m):
        grown = False
        for i in sorted(range(n), key=lambda i: (counts[i], i)):
            counts[i] += 1
            ok, _flow = feasible(counts)
            if ok:
                grown = True
                break
            counts[i] -= 1
        if not grown:  # cannot happen: every object is valued by someone
            raise AssertionError("polymatroid greedy stalled before placing every object")

    if min(counts) == 0:
        return SearchResult(
            best=DiscreteAssignment([0] * m),
            welfare=Fraction(0),
            nodes_explored=flows_run,
            optimal=True,
        )

    _ok, flow = feasible(counts)
    owner = [None] * m
    for (u, v), amount in flow.items():
        if amount and u != source and v != sink:
            owner[v - 1 - n] = u - 1
    welfare = math.prod(counts)
    return SearchResult(
        best=DiscreteAssignment(owner),
        welfare=Fraction(welfare),
        nodes_explored=flows_run,
        optimal=True,
    )


def find_ceei_disc_identical(inst: Instance) -> Optional[DiscreteAssignment]:
    """Equal-utility complete assignment for identical utility rows, or None.

    With identical utilities, discrete price support holds exactly for the
    assignments splitting the weights into n equal-sum parts, so this is a
    number-partition search: largest weight first, capacity pruning, and
    equal-load bins collapsed as symmetric.  The weights are the shared
    integer row; a total not divisible by n settles the answer at once.
    """
    for i, row in enumerate(inst.utilities):
        if row != inst.utilities[0]:
            raise NotIdenticalUtilities(i)
    n, m = inst.n, inst.m
    rows, _scales = integer_rows(inst)
    weights = rows[0]

    total = sum(weights)
    if total % n:
        return None
    target = total // n

    order = sorted(range(m), key=lambda j: (-weights[j], j))
    loads = [0] * n
    owner = [None] * m

    # Place order[k] in the first bin from `start` on with room and a load no
    # earlier bin shares; with none left, take order[k-1] back out of its bin
    # (`owner` is the stack) and resume after that bin.
    k, start = 0, 0
    while k < m:
        w = weights[order[k]]
        for b in range(start, n):
            if loads[b] + w <= target and loads[b] not in loads[:b]:
                loads[b] += w
                owner[order[k]] = b
                k, start = k + 1, 0
                break
        else:
            if k == 0:
                return None
            k -= 1
            b = owner[order[k]]
            loads[b] -= weights[order[k]]
            start = b + 1
    return DiscreteAssignment(owner)


def exists_ceei_disc_bruteforce(inst: Instance, limit=DEFAULT_ENUM_LIMIT):
    """First discrete assignment with discrete price support, plus its prices.

    Enumerates owner vectors lexicographically and runs the exact slack test
    on each, so the cost is n^m price LPs; strictly a desk-scale instrument.
    Returns (assignment, prices) or None.
    """
    walk = assignments(inst, limit)
    if (1 << inst.m) > limit:
        raise InstanceTooLarge(inst.n, inst.m, limit, 1 << inst.m)
    for owner, _totals in walk:
        y = DiscreteAssignment(owner)
        verdict = verify_ceei_disc(inst, y, limit=limit)
        if verdict.holds:
            return y, verdict.certificate.prices
    return None

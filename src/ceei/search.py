"""Exact desk-scale search over discrete assignments.

Welfare maximization comes in three flavours: plain enumeration (the oracle
everything else is measured against), branch and bound from a greedy
incumbent under an additive and an integer AM-GM optimistic bound, and a
polynomial augmenting-path maximizer for 0/1 utilities.  On top of those
sit the existence deciders for the two price-support notions, the
fractional one polynomial on 0/1 utilities, and the equal-split finder for
identical utilities.

Ties are broken lexicographically by owner vector wherever the search is
exhaustive, so optima are canonical and runs are reproducible; the bounds
keep ties, so pruning changes only how many nodes are explored.  Exhaustive
searches walk `fairness.assignments` (one n^m guard); branch and bound keeps
an explicit stack, and the equal-split search races a depth-first search
against a meet in the middle over load tuples.  Nothing here recurses.
Every loop runs on the int rows of `model.integer_rows`; reported welfare
divides out the product of their row scales.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import add
from typing import Optional

from ._flow import max_flow  # noqa: F401  bench/tracing.py patches ceei.search.max_flow
from .errors import (
    InconclusiveSearch,
    NotBinary,
    NotIdenticalUtilities,
)
from .fairness import (
    DEFAULT_ENUM_LIMIT,
    assignments,
    bundle_values,
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
    utility, starting from a greedy incumbent (`_greedy`).  A node is kept
    while two exact bounds on every completion's welfare reach the
    incumbent's: the additive one credits every agent with all utility still
    unassigned, and the AM-GM one weighs each agent's total by the inverse
    of its row total, so that the objects left can add at most their best
    weighted value to the weighted sum, and the product is at most the
    n-th power of that sum's mean.  Ties are kept, so welfare ties resolve
    toward the lexicographically smaller owner vector, matching the
    enumeration oracle.  Exhausting a node or time budget truncates the
    search and sets `optimal = False` instead of raising; the result is then
    the greedy assignment or a better one.  Both bounds need the
    nonnegative utilities that `Instance` guarantees.
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
    # AM-GM: with c_i = max(1, row total), C = prod(c_i) and D_i = C / c_i,
    # prod(x_i) = C * prod(x_i / c_i) <= S^n / (n^n * C^(n-1)) for any
    # S >= sum(x_i * D_i); reach[k] bounds what objects order[k:] add to it.
    # A node is kept iff its S reaches the least integer whose n-th power is
    # at least best * n^n * C^(n-1), recomputed only when `best` improves.
    caps = [max(1, sum(row)) for row in rows]
    whole = math.prod(caps)
    weighted = [[v * (whole // c) for v in row] for row, c in zip(rows, caps)]
    reach = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        reach[k] = reach[k + 1] + max(row[order[k]] for row in weighted)
    amgm_scale = n**n * whole ** (n - 1)

    deadline = time.monotonic() + budgets.max_seconds if budgets.max_seconds is not None else None
    best_owner, best_welfare = _greedy(rows, order, weighted)
    amgm_floor = _root_ceil(best_welfare * amgm_scale, n)
    owner = [0] * m
    totals = [0] * n
    weighted_sum = 0  # sum(totals[i] * D_i)
    nodes = 0
    truncated = False

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
                amgm_floor = _root_ceil(best_welfare * amgm_scale, n)
        elif weighted_sum + reach[k] >= amgm_floor:
            bound = math.prod(map(add, totals, suffix[k]))
            if bound >= best_welfare and (bound or best_welfare):
                j = order[k]
                owner[j] = 0
                totals[0] += rows[0][j]
                weighted_sum += weighted[0][j]
                k += 1
                continue
        while k:
            k -= 1
            j = order[k]
            i = owner[j]
            totals[i] -= rows[i][j]
            weighted_sum -= weighted[i][j]
            if i + 1 < n:
                owner[j] = i + 1
                totals[i + 1] += rows[i + 1][j]
                weighted_sum += weighted[i + 1][j]
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


def _root_ceil(value, n):
    """The least integer s >= 0 with s**n >= value."""
    if value <= 0:
        return 0
    # Newton's step from above, exact in integers, falls to the floor of the
    # n-th root and then stops decreasing
    s = 1 << -(-value.bit_length() // n)
    while True:
        t = ((n - 1) * s + value // s ** (n - 1)) // n
        if t >= s:
            break
        s = t
    return s if s**n >= value else s + 1


def _greedy(rows, order, weighted):
    """A deterministic first incumbent: (owner tuple, integer welfare).

    Each object in `order` goes to the agent it raises most in proportion
    to its total so far: agents still at zero first, among them the one
    valuing it most against its row total (`weighted`), ties to the lowest
    index.  Then, if every agent got something, single objects move to
    another agent while that raises the welfare.  A zero welfare falls back
    to the all-zero owner vector, the lexicographically first assignment,
    which is worth 0 as well.
    """
    n, m = len(rows), len(rows[0])
    owner = [0] * m
    totals = [0] * n
    for j in order:
        a = 0
        for i in range(1, n):
            if totals[a] and not totals[i]:
                better = rows[i][j] > 0
            elif totals[i] and not totals[a]:
                better = not rows[a][j] and rows[i][j] > 0
            elif totals[i]:
                better = rows[i][j] * totals[a] > rows[a][j] * totals[i]
            else:
                better = weighted[i][j] > weighted[a][j]
            if better:
                a = i
        owner[j] = a
        totals[a] += rows[a][j]
    moved = all(totals)
    while moved:
        moved = False
        for j in range(m):
            a = owner[j]
            for b in range(n):
                # moving j from a to b changes only these two factors
                if b != a and (totals[a] - rows[a][j]) * (totals[b] + rows[b][j]) > totals[a] * totals[b]:
                    totals[a] -= rows[a][j]
                    totals[b] += rows[b][j]
                    owner[j], moved = b, True
                    break
    welfare = math.prod(totals)
    return tuple(owner if welfare else [0] * m), welfare


def exists_ceei_frac_discrete(inst: Instance, budgets: Optional[SearchBudgets] = None):
    """Return a discrete assignment with fractional price support, or None.

    A discrete assignment is supportable against fractional demand exactly
    when it reaches the welfare optimum of the fractional relaxation, so it
    suffices to test one discrete welfare maximizer: `binary_max_nash` (in
    polynomial time, `budgets` unused) when every integer row is 0/1, else
    branch and bound, raising InconclusiveSearch if a budget truncated it.
    """
    rows, _scales = integer_rows(inst)
    if all(v == 0 or v == 1 for row in rows for v in row):
        result = binary_max_nash(Instance(rows))
    else:
        result = max_nash_discrete(inst, budgets)
        if not result.optimal:
            raise InconclusiveSearch(result.nodes_explored, result.welfare)
    if verify_ceei_frac(inst, result.best).holds:
        return result.best
    return None


def binary_max_nash(inst: Instance) -> SearchResult:
    """Polynomial welfare maximizer for instances with all utilities 0 or 1.

    With 0/1 utilities an agent's utility is the number of owned objects it
    values, so maximizing the product is a concave separable maximization
    over a polymatroid: growing the poorest agent that can still grow (ties
    to the lowest index) one valued object at a time is exact.  One matching
    is kept throughout; as every other agent holds its count, agent i can
    grow exactly when an alternating path (agent, object it values, that
    object's owner, ...) reaches a free object, and flipping it changes no
    other count.  An agent with no path never gets one later.  Agents stuck
    at zero make every assignment worthless, so everything goes to agent 0,
    as do objects nobody values.  `nodes_explored` counts path searches.
    """
    n, m = inst.n, inst.m
    valued = [[] for _ in range(n)]
    for i, row in enumerate(inst.utilities):
        for j, v in enumerate(row):
            if v != 0 and v != 1:
                raise NotBinary(i, j, v)
            if v == 1:
                valued[i].append(j)

    owner = [None] * m
    counts = [0] * n
    free = len(set().union(*valued))  # valued objects nobody owns yet
    growing = list(range(n))  # ascending, so min() breaks ties to the lowest index
    searches = 0
    while free and growing:
        i = min(growing, key=counts.__getitem__)
        searches += 1
        if _augment(valued, owner, i):
            counts[i] += 1
            free -= 1
        elif counts[i]:
            growing.remove(i)
        else:  # the welfare stays 0
            break
    welfare = math.prod(counts)
    return SearchResult(
        best=DiscreteAssignment([o if welfare and o is not None else 0 for o in owner]),
        welfare=Fraction(welfare),
        nodes_explored=searches,
        optimal=True,
    )


def _augment(valued, owner, i) -> bool:
    """Give agent i one more valued object along an alternating path, if any."""
    via = {i: None}  # agent -> (the object it gives up, the agent taking it)
    queue = [i]  # breadth first: the loop reaches the agents appended to it
    for k in queue:
        for j in valued[k]:
            if owner[j] is None:
                owner[j] = k
                while via[k] is not None:
                    j, k = via[k]
                    owner[j] = k
                return True
            if owner[j] not in via:
                via[owner[j]] = (j, k)
                queue.append(owner[j])
    return False


# The meet in the middle of `find_ceei_disc_identical` drops out of its race
# once it would hold more load tuples than this, some 100-250 MB for up to a
# dozen agents; the depth-first search, O(m) in memory, then goes on alone.
IDENTICAL_TUPLE_LIMIT = 1 << 20
_OUT_OF_ROOM = object()


def find_ceei_disc_identical(inst: Instance) -> Optional[DiscreteAssignment]:
    """Equal-utility complete assignment for identical utility rows, or None.

    With identical utilities, discrete price support holds exactly for the
    assignments splitting the weights into n equal-sum parts, so this is a
    number-partition search.  The weights are the shared integer row; a
    total not divisible by n settles the answer at once.

    Two exact searches run in lockstep, one unit of work each in turn, and
    the first to finish answers.  The depth-first search places the weights
    largest first in the first bin with room, bins of equal load counting as
    one, in O(m) memory; it settles yes-instances with many small weights
    almost at once.  The meet in the middle cuts the weights, largest first,
    into a front and a back half and expands each half, one run of equal
    weights at a time, into the distinct ascending load tuples it can reach
    with no load above the target.  A split exists iff the mirror of some
    front tuple, the target minus each load, is a back tuple, since bins
    pair up in any order.  For fixed n this is pseudo-polynomial, at most
    (target + 1)^(n-1) tuples a run, and Horowitz-Sahni's 2^(m/2) a half on
    large distinct weights, where it settles no-instances that defeat the
    depth-first search.  It keeps one back-pointer per distinct tuple per
    run and drops out of the race past IDENTICAL_TUPLE_LIMIT of them.  The
    time is thus within about twice the faster search's, or the depth-first
    search's alone once the other has dropped out, and the memory within
    O(m) plus the smaller of the work done and the limit.  Objects of weight
    zero go to agent 0.
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

    order = _largest_first(weights)
    owner = _race(_first_fit(order, weights, n, target), _meet_in_the_middle(order, weights, n, target))
    return None if owner is None else DiscreteAssignment(owner)


def _largest_first(weights):
    """The objects of nonzero weight, largest first, ties by index."""
    return sorted((j for j in range(len(weights)) if weights[j]), key=lambda j: (-weights[j], j))


def _race(*searches):
    """Advance the generators one step each in turn and return the return
    value of the first to finish, unless that is _OUT_OF_ROOM: a search that
    returns it drops out, and the last one left must decide."""
    running = list(searches)
    while True:
        for search in running:
            try:
                next(search)
            except StopIteration as finished:
                if finished.value is not _OUT_OF_ROOM:
                    return finished.value
                running.remove(search)
                break


def _first_fit(order, weights, n, target):
    """Depth-first equal split of the objects in `order`: an owner vector
    (objects outside `order` with agent 0) or None, yielding once a node."""
    loads = [0] * n
    owner = [0] * len(weights)

    # Place order[k] in the first bin from `start` on with room and a load no
    # earlier bin shares; with none left, take order[k-1] back out of its bin
    # (`owner` is the stack) and resume after that bin.
    k, start = 0, 0
    while k < len(order):
        yield
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
    return owner


def _meet_in_the_middle(order, weights, n, target):
    """Equal split of the objects in `order` from the load tuples of its two
    halves: an owner vector (objects outside `order` with agent 0), None, or
    _OUT_OF_ROOM past IDENTICAL_TUPLE_LIMIT tuples, yielding once per tuple
    made or matched."""
    half = (len(order) + 1) // 2
    room = IDENTICAL_TUPLE_LIMIT
    front = yield from _load_runs(order[:half], weights, n, target, room)
    if front is None:
        return _OUT_OF_ROOM
    back = yield from _load_runs(order[half:], weights, n, target, room - sum(len(r) for _, r in front))
    if back is None:
        return _OUT_OF_ROOM
    for loads in front[-1][1]:
        yield
        mirror = [target - load for load in loads]
        if tuple(sorted(mirror)) in back[-1][1]:
            owner = [0] * len(weights)
            _place(front, weights, list(loads), owner)
            _place(back, weights, mirror, owner)
            return owner
    return None


def _load_runs(objects, weights, n, target, room):
    """Cut `objects` into runs of equal weight and return [(run, reached)],
    starting from ((), {empty bins: None}): `reached` maps each ascending
    tuple of n loads, none above target, that placing every object up to the
    end of the run can give, to one tuple reached before the run.  Yields
    once per tuple made; None once the runs would hold more than `room`."""
    runs = [((), {(0,) * n: None})]
    for w, run in groupby(objects, key=weights.__getitem__):
        run = tuple(run)
        reached = {}
        for before in runs[-1][1]:
            for after in _spreads(before, w, len(run), target):
                yield
                if after not in reached:
                    reached[after] = before
                    room -= 1
                    if room < 0:
                        return None
        runs.append((run, reached))
    return runs


def _spreads(loads, w, c, target):
    """Every ascending load tuple reached by adding c copies of w > 0 to the
    ascending bin `loads` with no load above target.  Bins of equal load take
    non-increasing counts, so no two ways differ by a swap of such bins, and
    every branch of the walk ends in a way."""
    n = len(loads)
    if c == 1:  # the common case, without the walk over counts
        for b, load in enumerate(loads):
            if load + w > target:
                return
            if b == 0 or load != loads[b - 1]:
                k = bisect_right(loads, load + w, b + 1)
                yield loads[:b] + loads[b + 1 : k] + (load + w,) + loads[k:]
        return
    caps = [min(c, (target - load) // w) for load in loads]
    if sum(caps) < c:
        return
    # ends[i]: one past the last bin with the load of bin i; after[i]: the
    # room in the bins from ends[i] on.  With counts[i] = v, bins i+1 ..
    # ends[i]-1 take at most v each, so v >= (rem - after[i]) / (ends[i] - i).
    ends, after = [n] * n, [0] * n
    for i in range(n - 2, -1, -1):
        ends[i] = ends[i + 1] if loads[i + 1] == loads[i] else i + 1
        after[i] = after[i + 1] if loads[i + 1] == loads[i] else after[i + 1] + caps[i + 1] * (ends[i + 1] - i - 1)
    counts, least = [0] * n, [0] * n
    i, rem = 0, c
    while True:
        while i < n:
            most = min(caps[i], rem) if i == 0 or loads[i] != loads[i - 1] else min(counts[i - 1], rem)
            least[i] = max(0, -((after[i] - rem) // (ends[i] - i)))
            counts[i] = most
            rem -= most
            i += 1
        yield tuple(sorted(load + k * w for load, k in zip(loads, counts)))
        rem = counts[-1]
        i = n - 2
        while i >= 0 and counts[i] == least[i]:
            rem += counts[i]
            i -= 1
        if i < 0:
            return
        counts[i] -= 1
        rem += 1
        i += 1


def _place(runs, weights, loads, owner):
    """Give each object of `runs` a bin, following the tuples of
    `_load_runs` back from the bins' final `loads`, which it empties."""
    for run, reached in reversed(runs[1:]):
        w = weights[run[0]]
        before = reached[tuple(sorted(loads))]
        # Each bin had a load of its residue mod w before the run; pairing
        # both sides in ascending order is valid whenever any pairing is.
        unpaired = {}
        for load in reversed(before):
            unpaired.setdefault(load % w, []).append(load)
        objects = iter(run)
        for b in sorted(range(len(loads)), key=loads.__getitem__):
            old = unpaired[loads[b] % w].pop()
            for _ in range((loads[b] - old) // w):
                owner[next(objects)] = b
            loads[b] = old


def exists_ceei_disc_bruteforce(inst: Instance, limit=DEFAULT_ENUM_LIMIT):
    """First discrete assignment with discrete price support, plus its prices.

    Enumerates owner vectors lexicographically and runs the exact slack test
    on each envy-free one, so the cost is up to n^m price LPs; strictly a
    desk-scale instrument.  Discrete price support implies envy-freeness (an
    envied bundle is a strictly better bundle inside someone's affordable
    one), so skipping the others changes no answer.  Returns (assignment,
    prices) or None.  `limit` guards the n^m walk only; the first envy-free
    owner vector meets `verify_ceei_disc`'s own 2^m bundle guard, which
    raises InstanceTooLarge past 16 objects.
    """
    walk = assignments(inst, limit)
    rows, _scales = integer_rows(inst)
    n = inst.n
    for owner, totals in walk:
        if any(max(bundle_values([row] * n, owner)) > total for row, total in zip(rows, totals)):
            continue
        y = DiscreteAssignment(owner)
        verdict = verify_ceei_disc(inst, y)
        if verdict.holds:
            return y, verdict.certificate.prices
    return None

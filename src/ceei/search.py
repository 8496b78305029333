"""Exact desk-scale search over discrete assignments.

Welfare maximization comes in three flavours: a brute force that meets in
the middle over the Pareto fronts of two object halves (the oracle
everything else is measured against), branch and bound from a greedy
incumbent under an additive and an integer AM-GM optimistic bound, and a
polynomial augmenting-path maximizer, which `max_nash_discrete` runs
instead on 0/1 int rows.  On top of those sit the existence deciders for
the two price-support notions and the equal-split finder for identical
utilities, which both deciders answer from when the rows are identical and
nonzero: the paper's 3-Partition family, on which both notions and an equal
split coincide.

Ties are broken lexicographically by owner vector wherever the search is
exhaustive, so optima are canonical and runs are reproducible; the bounds
keep ties, so pruning changes only how many nodes are explored.  Every
`limit` follows the one rule that `errors` states, None meaning
DEFAULT_ENUM_LIMIT.  Branch and bound, the CEEI-disc existence walk and
the equal-split race count their nodes and stop on entering node `limit`.
At each envy-free leaf of the existence walk, `verify_ceei_disc`'s bundle
walk counts its own nodes against DEFAULT_BUNDLE_LIMIT, and a leaf it
cannot finish leaves the search undecided.  The brute force cannot prune,
so it compares its n^m owner vectors with `limit` before any work, the
only walk that refuses by size (InstanceTooLarge), and then meets in the
middle over the Pareto fronts of two object halves.  The existence walk
drops every prefix already bound to envy.  The equal-split route answers
with the first split its race meets, not the lexicographically first.
Branch and bound and the existence walk keep an explicit stack, and the
equal-split search races a depth-first search against a meet in the
middle over load tuples.  Nothing here recurses.
Every loop runs on the int rows `Instance.int_rows`, and every welfare
engine returns through `_result`, which divides out the product of
`Instance.scales`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import groupby, repeat
from operator import add, indexOf, mul

from ._flow import max_flow  # noqa: F401  bench/tracing.py patches ceei.search.max_flow
from .errors import (
    InconclusiveSearch,
    InstanceTooLarge,
    InvariantError,
    _check_limit,
)
from .fairness import (
    _takers,
    verify_ceei_disc,
    verify_ceei_frac,
)
from .model import DiscreteAssignment, Instance, InstanceViolation, _Frozen, _set


class SearchResult(_Frozen):
    """The best assignment a welfare search found, its Nash welfare and the
    nodes the search entered."""

    __slots__ = _fields = ("best", "welfare", "nodes_explored", "optimal")

    def __init__(self, best: DiscreteAssignment, welfare: Fraction, nodes_explored: int, optimal: bool):
        _set(self, "best", best)
        _set(self, "welfare", welfare)
        _set(self, "nodes_explored", nodes_explored)
        _set(self, "optimal", optimal)  # False when the node budget truncated the search


def _result(inst, owner, welfare, nodes, optimal=True) -> SearchResult:
    """The result of a welfare engine from its int-row `welfare`, divided
    by the product of `Instance.scales` to give the instance's own."""
    return SearchResult(DiscreteAssignment(owner), Fraction(welfare, math.prod(inst.scales)), nodes, optimal)


def brute_force_max_nash(inst: Instance, limit=None) -> SearchResult:
    """The welfare maximum over all n^m complete assignments, exactly.

    Head totals (the first m - m//2 objects') a >= b with a != b give
    prod(a + c) >= prod(b + c) for all tail totals c, strictly when positive,
    so a positive optimum has halves on both `_pareto_front`s.  Head totals,
    in their owners' lexicographic order, each score the tail front in one
    chained `map` pass, and only a strictly higher score replaces the
    incumbent: the optimum is the lexicographically first, at welfare 0
    (always when n > m, which skips the fronts) the all-zero owner vector
    that the fronts may drop.  `nodes_explored` is n^m, and `_result`
    scales the welfare.  Raises InstanceTooLarge when n^m exceeds `limit`
    (None: DEFAULT_ENUM_LIMIT), before any work.
    This is the independent oracle for every other discrete-search claim.
    """
    n, m = inst.n, inst.m
    required, limit = n**m, _check_limit(limit)
    if required > limit:
        raise InstanceTooLarge(n, m, limit, required)
    if n > m:  # some agent gets nothing under every owner vector
        return _result(inst, (0,) * m, 0, required)
    rows = inst.int_rows
    head = _pareto_front(rows, range(m - m // 2))
    tail = _pareto_front(rows, range(m - m // 2, m))
    cols = list(zip(*tail))
    tail_owners = list(tail.values())

    def scores(totals):  # the welfare of each tail on the front after this head, lazily
        block = map(add, cols[0], repeat(totals[0]))
        for i in range(1, n):
            block = map(mul, block, map(add, cols[i], repeat(totals[i])))
        return block

    best_welfare, best_owner = 0, (0,) * m
    for totals, owner in head.items():
        welfare = max(scores(totals))
        if welfare > best_welfare:
            best_welfare = welfare
            best_owner = owner + tail_owners[indexOf(scores(totals), welfare)]
    return _result(inst, best_owner, best_welfare, required)


def _pareto_front(rows, objects):
    """{totals: lexicographically first owner tuple} over the owner vectors
    of `objects`, in owner order, minus totals another weakly exceeds for
    every agent.  Each object extends every kept owner by each agent; the
    extensions of dropped totals would be dominated too.  Only sums larger
    than a vector's can dominate it, so identical rows compare nothing."""
    front = {(0,) * len(rows): ()}
    for j in objects:
        candidates = {}
        for totals, owner in front.items():
            for i, row in enumerate(rows):
                candidates.setdefault(totals[:i] + (totals[i] + row[j],) + totals[i + 1 :], (*owner, i))
        kept = set()
        for _, group in groupby(sorted(candidates, key=sum, reverse=True), key=sum):
            kept |= {t for t in group if not _exceeded(kept, t)}
        front = {t: owner for t, owner in candidates.items() if t in kept}
    return front


def _exceeded(vectors, t):
    """Whether some of `vectors` is at least t everywhere; nothing is negative, so t's zeros hold."""
    for i, v in enumerate(t):
        if v and vectors:
            vectors = [k for k in vectors if k[i] >= v]
    return bool(vectors)


def max_nash_discrete(inst: Instance, limit=None) -> SearchResult:
    """Welfare maximization over discrete assignments.

    On 0/1 int rows (`Instance.is_binary`) `binary_max_nash` answers in
    polynomial time, optimal at any `limit`, with its own optimum;
    `nodes_explored` counts its path searches.  Every other instance runs
    branch and bound: objects are assigned in decreasing order of their best
    single-agent utility, starting from a greedy incumbent (`_greedy`).  A
    node is kept while two exact bounds on every completion's welfare reach
    the incumbent's: the additive one credits every agent with all utility
    still unassigned, and the AM-GM one weighs each agent's total by the
    inverse of its row total, so that the objects left can add at most their
    best weighted value to the weighted sum, and the product is at most the
    n-th power of that sum's mean.  Ties are kept, so on this route welfare
    ties resolve toward the lexicographically smaller owner vector, matching
    the enumeration oracle.  Entering node `limit` (None:
    DEFAULT_ENUM_LIMIT; below 1: a ValueError) truncates the search and sets
    `optimal = False` instead of raising; the result is then the greedy
    assignment or a better one.  Both bounds need the nonnegative utilities
    that `Instance` guarantees.  Before the search, one augmenting-path
    search per agent (`_augment`) looks for a distinct valued object for
    each; if some agent finds none, as always when n > m, every assignment
    is worth 0 and the all-zero owner vector answers at once, optimal at any
    `limit`, with `nodes_explored` counting those path searches.  Every
    route's welfare is scaled by `_result`.
    """
    limit = _check_limit(limit)
    if inst.is_binary():
        return binary_max_nash(inst)
    n, m = inst.n, inst.m
    rows = inst.int_rows
    valued = [[j for j, v in enumerate(row) if v] for row in rows]
    matched = [None] * m
    for i in range(n):
        if not _augment(valued, matched, i):
            return _result(inst, (0,) * m, 0, i + 1)
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
        if nodes >= limit:
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
    return _result(inst, best_owner, best_welfare, nodes, optimal=not truncated)


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


def _splits_equally(inst: Instance) -> bool:
    """Whether the rows are identical and not all zero.  Then an assignment
    has fractional or discrete price support exactly when it splits the row
    equally: support implies envy-freeness, which identical rows meet only
    at equal totals, and an equal positive split is priced by its ratios.
    All-zero rows leave no positive total to price."""
    return inst.has_identical_rows() and any(inst.int_rows[0])


def exists_ceei_frac_discrete(inst: Instance, limit=None):
    """Return a discrete assignment with fractional price support, or None.

    A discrete assignment is supportable against fractional demand exactly
    when it reaches the welfare optimum of the fractional relaxation, so it
    suffices to test one discrete welfare maximizer, `max_nash_discrete`'s
    (polynomial on 0/1 int rows), raising InconclusiveSearch when it is
    truncated on entering node `limit` (None: DEFAULT_ENUM_LIMIT).
    Identical nonzero rows take `find_ceei_disc_identical`'s equal split
    instead, under the same `limit`.
    """
    if _splits_equally(inst):
        return find_ceei_disc_identical(inst, limit)
    result = max_nash_discrete(inst, limit)
    if not result.optimal:
        raise InconclusiveSearch(result.nodes_explored, result.welfare)
    return result.best if verify_ceei_frac(inst, result.best).holds else None


def binary_max_nash(inst: Instance) -> SearchResult:
    """Polynomial welfare maximizer for 0/1 int rows (`Instance.is_binary`).

    With 0/1 utilities an agent's utility is the number of owned objects it
    values, so maximizing the product is a concave separable maximization
    over a polymatroid: growing the poorest agent that can still grow (ties
    to the lowest index) one valued object at a time is exact.  One matching
    is kept throughout; as every other agent holds its count, agent i can
    grow exactly when an alternating path (agent, object it values, that
    object's owner, ...) reaches a free object, and flipping it changes no
    other count.  An agent with no path never gets one later.  Agents stuck
    at zero make every assignment worthless, so everything goes to agent 0,
    as do objects nobody values.  `nodes_explored` counts path searches,
    and `_result` scales the welfare.  Raises InvariantError naming, in
    row-major order, every utility whose int entry is not 0/1.
    """
    n, m = inst.n, inst.m
    valued = [[] for _ in range(n)]
    offenders = []
    for i, row in enumerate(inst.int_rows):
        for j, v in enumerate(row):
            if v == 1:
                valued[i].append(j)
            elif v:
                offenders.append(InstanceViolation("non_binary_entry", agent=i, object=j))
    if offenders:
        raise InvariantError(offenders)

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
    return _result(inst, [o if welfare and o is not None else 0 for o in owner], welfare, searches)


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


def find_ceei_disc_identical(inst: Instance, limit=None) -> DiscreteAssignment | None:
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
    zero go to agent 0.  Each step of either search is a node; entering node
    `limit` (None: DEFAULT_ENUM_LIMIT; below 1: a ValueError) raises
    InconclusiveSearch.  Rows unlike row 0 raise InvariantError naming each
    one.  The answer is whichever split the race meets first, not the
    lexicographically first one.
    """
    limit = _check_limit(limit)
    first = inst.utilities[0]
    differing = [InstanceViolation("differing_row", agent=i) for i, row in enumerate(inst.utilities) if row != first]
    if differing:
        raise InvariantError(differing)
    n, m = inst.n, inst.m
    weights = inst.int_rows[0]

    total = sum(weights)
    if total % n:
        return None
    target = total // n

    order = _largest_first(weights)
    owner = _race(limit, _first_fit(order, weights, n, target), _meet_in_the_middle(order, weights, n, target))
    return None if owner is None else DiscreteAssignment(owner)


def _largest_first(weights):
    """The objects of nonzero weight, largest first, ties by index."""
    return sorted((j for j in range(len(weights)) if weights[j]), key=lambda j: (-weights[j], j))


def _race(limit, *searches):
    """Advance the generators one step each in turn and return the return
    value of the first to finish, unless that is _OUT_OF_ROOM: a search that
    returns it drops out, and the last one left must decide.  Each step is a
    node, and entering node `limit` raises InconclusiveSearch."""
    running = list(searches)
    nodes = 0
    while True:
        for search in running:
            nodes += 1
            if nodes >= limit:
                raise InconclusiveSearch(nodes)
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


def exists_ceei_disc_bruteforce(inst: Instance, limit=None):
    """First discrete assignment with discrete price support, plus its prices.

    Identical nonzero rows take `find_ceei_disc_identical`'s equal split
    under `limit`, priced by `verify_ceei_frac`: an equal positive split is
    CEEI-frac, and its ratio prices support it discretely.  Otherwise runs
    the exact slack test on each envy-free owner vector in lexicographic
    order, as `_envy_free_owners` reaches them, so the cost is up to n^m
    price LPs; strictly a desk-scale instrument.  Discrete price support
    implies envy-freeness (an envied bundle is a strictly better bundle
    inside someone's affordable one), so the owner vectors the walk drops
    change no answer.  Returns (assignment, prices) or None.  The walk
    counts the nodes it enters and raises InconclusiveSearch on entering
    node `limit` (None: DEFAULT_ENUM_LIMIT; below 1: a ValueError).  An
    envy-free owner vector with fractional price support is certified by
    those prices at any size.  Any other one goes to `verify_ceei_disc`'s bundle walk under its
    default, DEFAULT_BUNDLE_LIMIT nodes; a leaf that walk cannot finish
    raises its InconclusiveSearch, with the bundle walk's node count.
    """
    if _splits_equally(inst):
        y = find_ceei_disc_identical(inst, limit)
        return None if y is None else (y, verify_ceei_frac(inst, y).certificate.prices)
    for owner in _envy_free_owners(inst.int_rows, _check_limit(limit)):
        y = DiscreteAssignment(owner)
        verdict = verify_ceei_disc(inst, y)
        if verdict.holds:
            return y, verdict.certificate.prices
    return None


def _envy_free_owners(rows, limit):
    """Every owner vector under which no agent envies another, in
    lexicographic order; InconclusiveSearch on entering node `limit`.  The
    prune needs the nonnegative rows `Instance` guarantees."""
    n, m = len(rows), len(rows[0])
    cols = list(zip(*rows))
    # seen[i][k]: agent i's value of agent k's bundle so far, 0 for k = i.
    # room[i]: agent i's own total so far plus all it values among the
    # objects still unassigned, the most its own bundle can reach.  A prefix
    # is live while no seen[i][k] exceeds room[i]; below it seen only grows
    # and room only shrinks, and at a leaf room[i] is i's own total, so the
    # live leaves are exactly the envy-free owner vectors.
    seen = [[0] * n for _ in range(n)]
    room = [sum(row) for row in rows]
    owner = [0] * m
    nodes = 0

    # Depth-first with the path kept in `owner`: object j tries agents from
    # `start` on; giving it to agent a adds col[i] to seen[i][a] and takes it
    # from room[i] for every other agent i, so the child is live iff each
    # such i keeps max(seen[i]) + col[i] and seen[i][a] + 2 col[i] within
    # room[i].  The agents failing the first test are `short`, from which
    # `_takers` picks the agents to try.  With no agent left, take object j-1
    # back and resume after its agent.  A node is entered with start 0 and
    # resumed with start > 0; entering one counts it.
    j, start = 0, 0
    while True:
        if not start:
            nodes += 1
            if nodes >= limit:
                raise InconclusiveSearch(nodes)
            if j == m:
                yield tuple(owner)
        agents = ()
        if j < m:
            col = cols[j]
            short = [i for i in range(n) if max(seen[i]) + col[i] > room[i]]  # agents that cannot let j go
            agents = _takers(short, start, n)
        for a in agents:
            if all(seen[i][a] + 2 * col[i] <= room[i] for i in range(n) if i != a):
                for i in range(n):
                    if i != a:
                        seen[i][a] += col[i]
                        room[i] -= col[i]
                owner[j] = a
                j, start = j + 1, 0
                break
        else:
            if j == 0:
                return
            j -= 1
            col, a = cols[j], owner[j]
            for i in range(n):
                if i != a:
                    seen[i][a] -= col[i]
                    room[i] += col[i]
            start = a + 1

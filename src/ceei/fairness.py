"""Fairness verdicts for discrete assignments, each with a checkable certificate.

Four notions are decided here:

* envy-freeness, by direct pairwise comparison in `_first_envy`;
* Pareto optimality, by a depth-first search over discrete assignments,
  counted against a node limit, that drops every prefix after which, even
  with all objects still unassigned, some agent cannot reach its own total
  or the agents' summed total cannot rise above its own;
* price support over fractional demand (the strong notion), by an exact
  closed-form test in rational arithmetic, `_ratio_verdict`;
* price support over discrete demand (the weak notion): refuted by envy
  outright, certified by the fractional test's prices when that stronger
  notion holds, else decided by maximizing a uniform affordability slack
  over the inclusion-minimal strictly-better bundles (enumerated directly
  by a pruned walk per agent) with `simplex.maximize`, an integer-pivoting
  simplex on 0/±1 rows whose optimum and prices are exact rationals; every
  nonempty own bundle costs exactly 1 there, one anchor object per bundle
  taking the rest of the budget, so the anchors leave the LP.  A cap row
  keeps the slack bounded, so the same LP decides an owner with no
  strictly-better bundle.

Every verdict checks its assignment with `model.check_assignment`, then
reads the int rows `Instance.int_rows` and bundle values from
`model.bundle_values`.  `Instance` rejects negative utilities, so adding an
object never lowers a bundle's value; the Pareto prunes and the bundle walk
rely on it.  Every walk takes a `limit` under the one rule that `errors`
states and `errors._check_limit` applies; `verify_ceei_disc` walks its
bundles only after the envy and fractional tests have not decided.
The owner-vector walks here and in `search` visit owner vectors in
lexicographic order, with no recursion, and all of them prune.
`search.brute_force_max_nash`, the oracle, is no such walk: it refuses n^m
owner vectors over the limit before any work, then meets in the middle over
the Pareto fronts of two object halves.  Two of the walks, the Pareto walk
here and `search`'s envy-free walk, pick the agents that may take an object
by one rule, `_takers`.
"""

from __future__ import annotations

from fractions import Fraction

from . import simplex
from .errors import InconclusiveSearch, InvariantError, _check_limit
from .model import (
    Certificate,
    DiscreteAssignment,
    DominatingAssignment,
    EnvyPair,
    Instance,
    InstanceViolation,
    KktViolation,
    PriceSupport,
    PriceVector,
    ViolatingBundle,
    _Frozen,
    _set,
    bundle_values,
    check_assignment,
)


class Verdict(_Frozen):
    """Whether a notion holds, with the certificate that shows it (or None)."""

    __slots__ = _fields = ("holds", "certificate")

    def __init__(self, holds: bool, certificate: Certificate | None):
        _set(self, "holds", holds)
        _set(self, "certificate", certificate)


def is_envy_free(inst: Instance, y: DiscreteAssignment) -> Verdict:
    """No agent values another agent's bundle above its own.

    The certificate on failure is the lexicographically first envious pair.
    """
    check_assignment(inst, y)
    envy = _first_envy(inst.int_rows, y.owner)
    return Verdict(envy is None, None if envy is None else EnvyPair(*envy))


def _first_envy(rows, owner):
    """The lexicographically first (envious, envied) pair of agents under the
    owner vector, or None: agent i envies agent k when rows[i] values k's
    bundle above i's own."""
    for i, row in enumerate(rows):
        values = bundle_values([row] * len(rows), owner)
        own = values[i]
        if max(values) > own:
            return i, next(k for k, value in enumerate(values) if value > own)
    return None


def is_pareto_optimal_discrete(inst: Instance, y: DiscreteAssignment, limit=None) -> Verdict:
    """Exact Pareto test by a pruned search over the n^m discrete assignments.

    Objects 0..m-1 are assigned in turn, agent 0 first, so complete
    assignments come in lexicographic owner-vector order.  A prefix is
    dropped as soon as some agent could not reach its total under y even
    with every object still unassigned, or when the agents' summed total
    could not exceed its sum under y even with each object still unassigned
    going to the agent valuing it most (a dominating assignment exceeds it).
    Only prefixes without a dominating completion are dropped, so the
    certificate on failure is the lexicographically first dominating
    assignment, as a walk over all n^m would give.

    The search counts the nodes it enters, the root and the leaves
    included, and raises InconclusiveSearch on entering node `limit` (None:
    DEFAULT_ENUM_LIMIT); general discrete Pareto testing is intractable, so
    an undecided answer is part of the contract.  Zero rows and columns are
    fine.
    """
    check_assignment(inst, y)
    limit = _check_limit(limit)
    rows = inst.int_rows
    owner = _first_dominating(rows, bundle_values(rows, y.owner), limit)
    return Verdict(owner is None, None if owner is None else DominatingAssignment(DiscreteAssignment(owner)))


def _first_dominating(rows, base, limit):
    """The lexicographically first owner vector giving every agent at least
    its `base` total and some agent more, or None; InconclusiveSearch on
    entering node `limit`.  The prunes need the nonnegative rows `Instance`
    guarantees."""
    n, m = len(rows), len(rows[0])
    cols = list(zip(*rows))
    col_best = [max(col) for col in cols]
    # slack[i]: agent i's total so far plus all it values among the objects
    # still unassigned, minus base[i].  gain: the agents' summed total so far
    # plus the best value of each object still unassigned, minus sum(base),
    # which a dominating assignment exceeds.  A prefix is live while every
    # slack is >= 0 and gain is > 0; both hold at every leaf reached.
    slack = [sum(row) - b for row, b in zip(rows, base)]
    gain = sum(col_best) - sum(base)
    owner = [0] * m
    nodes = 0

    # Depth-first with the path kept in `owner`: object j tries the agents
    # `_takers` picks from `start` on; giving it to agent a costs every other
    # agent i col[i] of slack and costs gain col_best[j] - col[a].  With no
    # agent left, take object j-1 back and resume after its agent.  A node is
    # entered with start 0 and resumed with start > 0; entering one counts it.
    j, start = 0, 0
    while True:
        if not start:
            nodes += 1
            if nodes >= limit:
                raise InconclusiveSearch(nodes, undecided="existence of a dominating assignment")
            if j == m:
                return owner
        col = cols[j]
        short = [i for i in range(n) if slack[i] < col[i]]  # agents that cannot let j go
        for a in _takers(short, start, n):
            if gain + col[a] > col_best[j]:
                for i in range(n):
                    slack[i] -= col[i]
                slack[a] += col[a]
                gain -= col_best[j] - col[a]
                owner[j] = a
                j, start = j + 1, 0
                break
        else:
            if j == 0:
                return None
            j -= 1
            col, a = cols[j], owner[j]
            for i in range(n):
                slack[i] += col[i]
            slack[a] -= col[a]
            gain += col_best[j] - col[a]
            start = a + 1


def _takers(short, start, n):
    """The agents, from `start` on, that a pruned owner walk tries for an
    object, given `short`, the agents that cannot let it go: every agent
    when `short` is empty, the one agent in `short` when it is at or after
    `start`, and none otherwise, since an object has only one owner."""
    if not short:
        return range(start, n)
    return short if len(short) == 1 and short[0] >= start else ()


def verify_ceei_frac(inst: Instance, y: DiscreteAssignment) -> Verdict:
    """Exact test of price support against fractional demand.

    Takes the assignment's own utilities v as the equilibrium candidate,
    prices every object at p_j = max_k u_kj / v_k, and accepts iff every
    agent attains that maximum ratio on each object it owns.  Those are
    precisely the optimality conditions of the log-welfare program, so
    acceptance is equivalent to y achieving the unique equilibrium utilities;
    budget exhaustion then follows identically.  No tolerances anywhere.

    Certificates: the supporting prices on success; on failure either the
    first owned object missing its maximum ratio, or (for a zero-utility
    agent) a singleton bundle that agent strictly prefers to its own.
    Raises InvariantError if such an agent values no object at all.
    """
    check_assignment(inst, y)
    rows = inst.int_rows
    values = bundle_values(rows, y.owner)
    for i, (row, value) in enumerate(zip(rows, values)):
        if value == 0:
            wanted = next((j for j, v in enumerate(row) if v > 0), None)
            if wanted is None:
                raise InvariantError([InstanceViolation("zero_row", agent=i)])
            return Verdict(False, ViolatingBundle(i, (wanted,)))
    return _ratio_verdict(rows, y.owner, values)


def _ratio_verdict(rows, owner, values):
    """`verify_ceei_frac`'s verdict from the agents' own totals `values`, all
    positive: the prices p_j = max_k rows[k][j] / values[k] when every object
    is owned at its column's maximum ratio, else the KktViolation of the
    first object, agent by agent, owned below it.

    Those prices are discrete price support too: each own bundle costs
    exactly 1, and a bundle B costs at least rows[i](B) / values[i], so every
    bundle agent i strictly prefers costs more than 1.
    """
    # objects agent by agent, ascending within an agent; the ratio
    # rows[i][j] / values[i] is below rows[k][j] / values[k] iff the cross
    # products are, so only a violation or the prices build a Fraction
    for j in sorted(range(len(owner)), key=owner.__getitem__):
        i = owner[j]
        own = rows[i][j]
        if any(row[j] * values[i] > own * value for row, value in zip(rows, values)):
            top = max(Fraction(row[j], value) for row, value in zip(rows, values))
            return Verdict(False, KktViolation(i, j, top - Fraction(own, values[i])))
    prices = [Fraction(rows[i][j], values[i]) for j, i in enumerate(owner)]
    return Verdict(True, PriceSupport(PriceVector(prices)))


def verify_ceei_disc(inst: Instance, y: DiscreteAssignment, limit=None) -> Verdict:
    """Price-feasibility test against discrete demand, by exact slack LP.

    Searches for prices p >= 0 under which every agent can afford its own
    bundle while every strictly better bundle costs strictly more than the
    unit budget.  Bundles of equal value impose no constraint.  An envied
    bundle is strictly better and affordable, so `_first_envy`'s pair (i, k)
    refutes support at once, with k's whole bundle as i's witness.  When
    every agent's own total is positive and `verify_ceei_frac` holds, its
    prices are the certificate: the stronger notion implies this one
    exactly.  Otherwise strictness is decided by maximizing a uniform slack
    t over the inclusion-minimal strictly-better bundles (supersets cost at
    least as much, so they are implied); the notion holds iff the optimal
    slack is positive.  Raising a price lowers no bundle's cost, so the LP
    fixes every nonempty own bundle's cost at exactly 1, one anchor object
    per bundle taking what the rest of it leaves of the budget.  A cap row
    t <= n keeps the LP bounded.  It never binds while a strictly-better
    bundle exists, since every bundle costs at most n; with none, the LP's
    one pivot prices each anchor at 1 and every other object at 0.  So
    every holding verdict prices each nonempty own bundle at exactly 1.  On
    failure the witness is the first minimal bundle that those prices leave
    within its agent's budget.

    Rejects a bad `limit` first.  The envy and fractional tests are
    polynomial and take no limit.  The bundle walk after them counts the
    nodes it enters and raises InconclusiveSearch on entering node `limit`
    (None: DEFAULT_BUNDLE_LIMIT).  The LP has a row for each minimal bundle,
    each one a node of that walk, one for each nonempty own bundle and the
    cap row.
    """
    check_assignment(inst, y)
    limit = _check_limit(limit, bundles=True)
    n, m = inst.n, inst.m
    rows = inst.int_rows
    envy = _first_envy(rows, y.owner)
    if envy is not None:
        return Verdict(False, ViolatingBundle(envy[0], y.bundle(envy[1])))
    values = bundle_values(rows, y.owner)
    if all(values):
        frac = _ratio_verdict(rows, y.owner, values)
        if frac.holds:
            return frac
    minimal = _minimal_better_bundles(rows, values, limit)
    # variables p_1..p_m, s with s = 1 + t; maximize s subject to
    #   s - p(B) <= 0   for each minimal strictly-better bundle B
    #   p(y_i)   <= 1   for each agent
    # Raising a price lowers no p(B), so fixing p(y_i) = 1 for every nonempty
    # own bundle loses nothing.  Each such bundle's anchor a_i, its object in
    # the most minimal bundles (lowest index on ties), is priced
    # 1 - p(y_i - a_i) and leaves the LP; the other objects are free.  So
    #   s - p(B) = s - p(free objects in B) + sum of p(y_i - a_i) over anchors in B - #anchors in B:
    # a bundle row has rhs #anchors in B and entries -1 on a free object in
    # B, +1 on a free object whose anchor is in B, and 0 where both or
    # neither hold.  An own row p(y_i - a_i) <= 1 keeps a_i's price
    # nonnegative.  Rows holding an anchor start off the degenerate rhs 0.
    # A last row s <= n + 1 caps the slack.  While any bundle row exists it
    # never binds, since s <= p(B) <= n with every own bundle costing at most
    # 1; with none, its one pivot leaves free objects at 0 and each anchor
    # the whole budget.
    bundles = [bundle for bundle in y.bundles(n) if bundle]
    hits = [0] * m
    for _agent, bundle in minimal:
        for j in bundle:
            hits[j] += 1
    anchors = [max(bundle, key=lambda j: (hits[j], -j)) for bundle in bundles]
    anchor = {j: a for a, bundle in zip(anchors, bundles) for j in bundle}  # object -> its bundle's anchor
    free = [j for j in range(m) if anchor[j] != j]
    lp_rows = [[(anchor[j] in bundle) - (j in bundle) for j in free] + [1] for _agent, bundle in minimal]
    lp_rows += [[int(j in bundle) for j in free] + [0] for bundle in bundles]
    lp_rows.append([0] * len(free) + [1])
    rhs = [sum(anchor[j] == j for j in bundle) for _agent, bundle in minimal] + [1] * len(bundles) + [n + 1]
    value, solution = simplex.maximize([0] * len(free) + [1], lp_rows, rhs)
    prices = dict(zip(free, solution))
    for a, bundle in zip(anchors, bundles):
        prices[a] = 1 - sum(prices[j] for j in bundle if j != a)
    prices = [prices[j] for j in range(m)]
    if value > 1:
        return Verdict(True, PriceSupport(PriceVector(prices)))
    for agent, bundle in minimal:
        if sum(prices[j] for j in bundle) <= 1:
            return Verdict(False, ViolatingBundle(agent, bundle))
    # unreachable: the optimal slack is attained by some bundle constraint
    raise AssertionError("slack LP returned no binding bundle")


def _minimal_better_bundles(rows, own, limit):
    """The inclusion-minimal bundles some agent values above its `own` total,
    as (first such agent, objects ascending) pairs in that order;
    InconclusiveSearch on entering node `limit`.

    Rows are nonnegative, so a bundle minimal for one agent holds only
    objects it values.  A depth-first walk adds those largest first; a
    bundle ends at the object that lifts it above the agent's total, its
    least valued one, and a branch ends once the objects left cannot lift
    it.  A bundle so found is minimal among all agents' iff no agent values
    it, less its least valued object, above its own total; every agent that
    prefers such a bundle finds it, so the first walk to find it names the
    first agent.  The walks' nodes are each agent's empty bundle and every
    bundle a walk extends one to, whether it ends there or goes on.
    """
    found = {}
    nodes = 0
    for i, (row, total) in enumerate(zip(rows, own)):
        order = sorted((j for j, v in enumerate(row) if v), key=lambda j: -row[j])
        stack = [(0, 0, sum(row), ())]  # (position in order, value, value of order[position:], objects)
        nodes += 1
        if nodes >= limit:
            raise InconclusiveSearch(nodes, undecided="discrete price support")
        while stack:
            start, value, rest, chosen = stack.pop()
            for p, j in enumerate(order[start:], start + 1):
                if value + rest <= total:
                    break
                nodes += 1
                if nodes >= limit:
                    raise InconclusiveSearch(nodes, undecided="discrete price support")
                rest -= row[j]
                if value + row[j] > total:
                    found.setdefault(tuple(sorted(chosen + (j,))), i)
                else:
                    stack.append((p, value + row[j], rest, chosen + (j,)))
    minimal = []
    for bundle, agent in found.items():
        for row, total in zip(rows, own):
            values = [row[j] for j in bundle]
            if sum(values) - min(values) > total:
                break  # this agent strictly prefers a smaller bundle
        else:
            minimal.append((agent, bundle))
    return sorted(minimal)

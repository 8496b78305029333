"""Fairness verdicts for discrete assignments, each with a checkable certificate.

Four notions are decided here:

* envy-freeness, by direct pairwise comparison;
* Pareto optimality, by a guarded depth-first search over discrete
  assignments that drops every prefix after which, even with all objects
  still unassigned, some agent cannot reach its own total or the agents'
  summed total cannot rise above its own;
* price support over fractional demand (the strong notion), by an exact
  closed-form test in rational arithmetic;
* price support over discrete demand (the weak notion), by maximizing a
  uniform affordability slack over the inclusion-minimal strictly-better
  bundles (picked by a subset DP) with `simplex.maximize`, an
  integer-pivoting simplex on 0/±1 rows whose optimum and prices are exact
  rationals.

Every verdict reads the int rows of `model.integer_rows` and bundle values
from `bundle_values`.  `Instance` rejects negative utilities, so adding an
object never lowers a bundle's value; the Pareto prunes and the bundle DP
rely on it.  The exhaustive n^m searches, here and in `search`,
walk the owner vectors through `assignments`: one guard, one odometer, no
recursion.  The Pareto test visits the same order under the same limit but
prunes it, with an explicit stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import ge
from typing import Optional

from . import simplex
from .errors import DimensionMismatch, InstanceTooLarge, InvalidAssignment, InvariantError
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
    integer_rows,
)

DEFAULT_ENUM_LIMIT = 20_000_000
DEFAULT_BUNDLE_LIMIT = 1 << 16


@dataclass(frozen=True)
class Verdict:
    holds: bool
    certificate: Optional[Certificate]


def bundle_values(rows, owner):
    """values[k]: rows[k] summed over the objects `owner` gives agent k.

    Pass one row n times to value every bundle with that row.
    """
    values = [0] * len(rows)
    for j, k in enumerate(owner):
        values[k] += rows[k][j]
    return values


def assignments(inst: Instance, limit=DEFAULT_ENUM_LIMIT):
    """Every owner vector in lexicographic order, with each agent's own total.

    Raises InstanceTooLarge at once when n^m exceeds `limit`.  Yields
    (owner, totals) pairs; a flat odometer updates both lists in place at
    amortized O(1) per step, so copy them to keep them.  Totals are ints over
    `integer_rows(inst)`: agent k's true total times its row scale.
    """
    n, m = inst.n, inst.m
    required = n**m
    if required > limit:
        raise InstanceTooLarge(n, m, limit, required)
    rows, _scales = integer_rows(inst)
    return _odometer(rows, n, m)


def _odometer(rows, n, m):
    owner = [0] * m
    totals = bundle_values(rows, owner)
    last = n - 1
    while True:
        yield owner, totals
        j = m - 1
        while j >= 0 and owner[j] == last:
            owner[j] = 0
            totals[last] -= rows[last][j]
            totals[0] += rows[0][j]
            j -= 1
        if j < 0:
            return
        i = owner[j]
        owner[j] = i + 1
        totals[i] -= rows[i][j]
        totals[i + 1] += rows[i + 1][j]


def check_assignment(inst: Instance, y: DiscreteAssignment):
    """Raise unless y is a complete assignment of this instance's objects."""
    if y.m != inst.m:
        raise DimensionMismatch("assignment", inst.m, y.m)
    if any(o >= inst.n for o in y.owner):
        raise InvalidAssignment(f"owner index out of range for {inst.n} agents")


def is_envy_free(inst: Instance, y: DiscreteAssignment) -> Verdict:
    """No agent values another agent's bundle above its own.

    The certificate on failure is the lexicographically first envious pair.
    """
    check_assignment(inst, y)
    rows, _scales = integer_rows(inst)
    values = [bundle_values([row] * inst.n, y.owner) for row in rows]
    for i in range(inst.n):
        for k in range(inst.n):
            if i != k and values[i][i] < values[i][k]:
                return Verdict(False, EnvyPair(i, k))
    return Verdict(True, None)


def is_pareto_optimal_discrete(inst: Instance, y: DiscreteAssignment, limit=DEFAULT_ENUM_LIMIT) -> Verdict:
    """Exact Pareto test by a pruned search over all n^m discrete assignments.

    Objects 0..m-1 are assigned in turn, agent 0 first, so complete
    assignments come in lexicographic owner-vector order.  A prefix is
    dropped as soon as some agent could not reach its total under y even
    with every object still unassigned, or when the agents' summed total
    could not exceed its sum under y even with each object still unassigned
    going to the agent valuing it most (a dominating assignment exceeds it).
    Only prefixes without a dominating completion are dropped, so the
    certificate on failure is the lexicographically first dominating
    assignment, as a walk over all n^m would give.

    Raises InstanceTooLarge when n^m exceeds `limit`, before searching;
    general discrete Pareto testing is intractable, so the guard is part of
    the contract rather than a soft warning.  Zero rows and columns are fine.
    """
    check_assignment(inst, y)
    required = inst.n**inst.m
    if required > limit:
        raise InstanceTooLarge(inst.n, inst.m, limit, required)
    rows, _scales = integer_rows(inst)
    owner = _first_dominating(rows, bundle_values(rows, y.owner))
    if owner is None:
        return Verdict(True, None)
    return Verdict(False, DominatingAssignment(DiscreteAssignment(owner)))


def _first_dominating(rows, base):
    """The lexicographically first owner vector giving every agent at least
    its `base` total and some agent more, or None; the prunes need the
    nonnegative rows `Instance` guarantees."""
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

    # Depth-first with the path kept in `owner`: object j tries agents from
    # `start` on; giving it to agent a costs every other agent i col[i] of
    # slack and costs gain col_best[j] - col[a].  With no agent left, take
    # object j-1 back and resume after its agent.
    j, start = 0, 0
    while j < m:
        col = cols[j]
        short = [i for i in range(n) if slack[i] < col[i]]  # agents that cannot let j go
        if len(short) > 1:
            agents = ()
        elif short:
            agents = short if short[0] >= start else ()
        else:
            agents = range(start, n)
        for a in agents:
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
    return owner


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
    n = inst.n
    bundles = y.bundles(n)
    rows, _scales = integer_rows(inst)
    values = bundle_values(rows, y.owner)
    for i in range(n):
        if values[i] == 0:
            wanted = next((j for j in range(inst.m) if rows[i][j] > 0), None)
            if wanted is None:
                raise InvariantError([InstanceViolation("zero_row", agent=i)])
            return Verdict(False, ViolatingBundle(i, (wanted,)))
    prices = [max(Fraction(rows[k][j], values[k]) for k in range(n)) for j in range(inst.m)]
    for i in range(n):
        for j in bundles[i]:
            ratio = Fraction(rows[i][j], values[i])
            if ratio != prices[j]:
                return Verdict(False, KktViolation(i, j, prices[j] - ratio))
    return Verdict(True, PriceSupport(PriceVector(prices)))


def verify_ceei_disc(inst: Instance, y: DiscreteAssignment, limit=DEFAULT_BUNDLE_LIMIT) -> Verdict:
    """Price-feasibility test against discrete demand, by exact slack LP.

    Searches for prices p >= 0 under which every agent can afford its own
    bundle while every strictly better bundle costs strictly more than the
    unit budget.  Bundles of equal value impose no constraint.  Strictness is
    decided by maximizing a uniform slack t over the inclusion-minimal
    strictly-better bundles (supersets cost at least as much, so they are
    implied); the notion holds iff the optimal slack is positive.

    Raises InstanceTooLarge when 2^m bundle enumerations exceed `limit`.
    """
    check_assignment(inst, y)
    n, m = inst.n, inst.m
    num_masks = 1 << m
    if num_masks > limit:
        raise InstanceTooLarge(n, m, limit, num_masks)

    own_mask = [0] * n
    for j, o in enumerate(y.owner):
        own_mask[o] |= 1 << j

    # all bundles some agent strictly prefers to its own, recording the first
    # such agent per bundle for witness attribution
    claimant = {}
    rows, _scales = integer_rows(inst)
    for i in range(n):
        values = _mask_values(rows[i], m)
        threshold = values[own_mask[i]]
        for mask in range(1, num_masks):
            if values[mask] > threshold and mask not in claimant:
                claimant[mask] = i

    if not claimant:
        uniform = Fraction(1, m)
        return Verdict(True, PriceSupport(PriceVector([uniform] * m)))

    minimal = _inclusion_minimal(claimant)
    minimal.sort(key=lambda mask: (claimant[mask], _mask_objects(mask)))

    # a preferred bundle inside someone's bundle can never cost more than a
    # whole affordable bundle, so it refutes price support outright
    for mask in minimal:
        for k in range(n):
            if mask & ~own_mask[k] == 0:
                return Verdict(False, ViolatingBundle(claimant[mask], _mask_objects(mask)))

    # variables p_1..p_m, s with s = 1 + t; maximize s subject to
    #   s - p(B) <= 0   for each minimal strictly-better bundle B
    #   p(y_i)   <= 1   for each agent
    objective = [0] * m + [1]
    rows = []
    rhs = []
    for mask in minimal:
        rows.append([-(mask >> j & 1) for j in range(m)] + [1])
        rhs.append(0)
    for i in range(n):
        rows.append([own_mask[i] >> j & 1 for j in range(m)] + [0])
        rhs.append(1)

    value, solution = simplex.maximize(objective, rows, rhs)
    slack = value - 1
    prices = solution[:m]
    if slack > 0:
        return Verdict(True, PriceSupport(PriceVector(prices)))
    for mask in minimal:
        cost = sum(prices[j] for j in _mask_objects(mask))
        if cost <= 1:
            return Verdict(False, ViolatingBundle(claimant[mask], _mask_objects(mask)))
    # unreachable: the optimal slack is attained by some bundle constraint
    raise AssertionError("slack LP returned no binding bundle")


def _mask_values(row, m):
    """Utility of every object subset, as a table indexed by bitmask."""
    values = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        values[mask] = values[mask ^ low] + row[low.bit_length() - 1]
    return values


def _mask_objects(mask):
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _inclusion_minimal(masks):
    """The inclusion-minimal members of a set of bitmasks, ascending.

    Precondition: the set is closed under supersets among the masks as wide
    as its largest member, as the strictly-better bundles of nonnegative
    rows are.  A member is then minimal iff no mask with one bit removed is
    a member.  It runs bit-parallel, O(2^m * m) in all: byte s of each int
    flags mask s, and one shift per bit b moves every flag of a mask without
    b to the same mask with b.
    """
    width = 1 << max(masks).bit_length()
    flags = bytearray(width)
    for mask in masks:
        flags[mask] = 1
    members = int.from_bytes(flags, "little")
    steps = []  # (flags of the masks without bit b, shift to add bit b)
    for b in range(width.bit_length() - 1):
        run = 1 << b
        steps.append((int.from_bytes((b"\1" * run + b"\0" * run) * (width // (2 * run)), "little"), 8 * run))
    above = 0  # flags the masks with a member one bit below them
    for without, shift in steps:
        above |= (members & without) << shift
    flags = (members & ~above).to_bytes(width, "little")
    return [mask for mask in range(width) if flags[mask]]

"""Fairness verdicts for discrete assignments, each with a checkable certificate.

Four notions are decided here:

* envy-freeness, by direct pairwise comparison;
* Pareto optimality, by guarded brute force over all discrete assignments;
* price support over fractional demand (the strong notion), by an exact
  closed-form test in rational arithmetic;
* price support over discrete demand (the weak notion), by maximizing a
  uniform affordability slack with an exact simplex over the inclusion-minimal
  strictly-better bundles.

Every verdict reads the int rows of `model.integer_rows` and bundle values
from `bundle_values`.  Every n^m search, here and in `search`, walks the
owner vectors through `assignments`: one guard, one odometer, no recursion.
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
    """Brute-force Pareto test over all n^m discrete assignments.

    The certificate on failure is the lexicographically first dominating
    assignment.  Raises InstanceTooLarge when n^m exceeds `limit`; general
    discrete Pareto testing is intractable, so the guard is part of the
    contract rather than a soft warning.
    """
    check_assignment(inst, y)
    walk = assignments(inst, limit)
    rows, _scales = integer_rows(inst)
    base = bundle_values(rows, y.owner)
    for owner, totals in walk:
        if totals != base and all(map(ge, totals, base)):
            return Verdict(False, DominatingAssignment(DiscreteAssignment(owner)))
    return Verdict(True, None)


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
    objective = [Fraction(0)] * m + [Fraction(1)]
    rows = []
    rhs = []
    for mask in minimal:
        row = [Fraction(-1) if mask >> j & 1 else Fraction(0) for j in range(m)]
        row.append(Fraction(1))
        rows.append(row)
        rhs.append(Fraction(0))
    for i in range(n):
        row = [Fraction(1) if own_mask[i] >> j & 1 else Fraction(0) for j in range(m)]
        row.append(Fraction(0))
        rows.append(row)
        rhs.append(Fraction(1))

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
    """Filter a set of bitmasks down to its inclusion-minimal members."""
    kept = []
    for mask in sorted(masks, key=lambda v: (bin(v).count("1"), v)):
        if not any(kept_mask & mask == kept_mask for kept_mask in kept):
            kept.append(mask)
    return kept

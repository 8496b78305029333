"""Core data model: instances, assignments, prices, and welfare arithmetic.

All quantities are exact rationals (`fractions.Fraction`).  The verifiers in
this package decide equalities, so nothing in the model layer ever rounds;
floating point appears only inside the iterative equilibrium solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch, InvalidAssignment, InvariantError, bounded


def to_rational(value) -> Fraction:
    """Coerce ints, strings like '19/20', floats and Fractions to Fraction."""
    if type(value) is Fraction:
        return value  # immutable, so it can be shared
    if isinstance(value, bool):
        raise TypeError("booleans are not valid utilities")
    return Fraction(value)


def _is_index(value) -> bool:
    """Anything with __index__ (numpy ints too) but bool, which is an int."""
    return hasattr(value, "__index__") and not isinstance(value, bool)


@dataclass(frozen=True, init=False, repr=False)
class Instance:
    """An assignment problem: n agents, m objects, an n x m utility matrix.

    The matrix is a tuple of row tuples of Fractions.  Like the three value
    types below, this frozen dataclass compares, hashes, pickles and copies
    by value.  The objects are goods: construction raises InvariantError
    naming every negative entry, which every verdict, bound and prune
    downstream relies on.  The positivity invariants (a positive entry in
    every row and column) are left to `validate_instance`.
    """

    utilities: tuple

    def __init__(self, utilities: Sequence[Sequence]):
        rows = tuple(tuple(to_rational(v) for v in row) for row in utilities)
        if not rows:
            raise InvalidAssignment("an instance needs at least one agent")
        width = len(rows[0])
        if width == 0:
            raise InvalidAssignment("an instance needs at least one object")
        for i, row in enumerate(rows):
            if len(row) != width:
                raise DimensionMismatch(f"utility row {i}", width, len(row))
        # a Fraction's sign is its numerator's
        negative = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v.numerator < 0]
        if negative:
            raise InvariantError(InstanceViolation("negative_entry", agent=i, object=j) for i, j in negative)
        object.__setattr__(self, "utilities", rows)

    @property
    def n(self) -> int:
        return len(self.utilities)

    @property
    def m(self) -> int:
        return len(self.utilities[0])

    def is_binary(self) -> bool:
        return all(v == 0 or v == 1 for row in self.utilities for v in row)

    def has_identical_rows(self) -> bool:
        return all(row == self.utilities[0] for row in self.utilities)

    def __repr__(self):
        return f"Instance(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class InstanceViolation:
    """One violated instance invariant, naming the offending row or column."""

    kind: str  # "zero_row" | "zero_column" | "negative_entry"
    agent: Optional[int] = None
    object: Optional[int] = None

    def __str__(self):
        if self.kind == "zero_row":
            return f"agent {self.agent} values no object"
        if self.kind == "zero_column":
            return f"object {self.object} is valued by no agent"
        return f"utility of agent {self.agent} for object {self.object} is negative"


def integer_rows(inst: Instance):
    """Each utility row times the lcm of its denominators, as Python ints.

    Returns (rows, scales); an integer row has scale 1.  Row scales keep every
    bundle comparison and price ratio u_kj / v_k and multiply Nash welfare by
    prod(scales).
    """
    rows, scales = [], []
    for row in inst.utilities:
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
        scales.append(scale)
    return rows, scales


def validate_instance(inst: Instance) -> list:
    """Every zero row and zero column (empty list means valid); `Instance`
    already rejects negative entries."""
    violations = []
    for i, row in enumerate(inst.utilities):
        if not any(row):
            violations.append(InstanceViolation("zero_row", agent=i))
    for j in range(inst.m):
        if not any(row[j] for row in inst.utilities):
            violations.append(InstanceViolation("zero_column", object=j))
    return violations


@dataclass(frozen=True, init=False, repr=False)
class FractionalAssignment:
    """An n x m matrix of fractions in [0, 1] whose columns each sum to 1."""

    rows: tuple

    def __init__(self, rows: Sequence[Sequence]):
        mat = tuple(tuple(to_rational(v) for v in row) for row in rows)
        if not mat or not mat[0]:
            raise InvalidAssignment("an assignment needs at least one agent and object")
        m = len(mat[0])
        for i, row in enumerate(mat):
            if len(row) != m:
                raise DimensionMismatch(f"assignment row {i}", m, len(row))
        # a Fraction keeps its denominator positive, so 0 <= v <= 1 is
        # 0 <= num <= den, and a column sums to 1 over its common denominator
        ratios = [[(v.numerator, v.denominator) for v in row] for row in mat]
        for i, row in enumerate(ratios):
            for j, (num, den) in enumerate(row):
                if num < 0 or num > den:
                    raise InvalidAssignment(
                        f"share of object {j} for agent {i} is {mat[i][j]}, outside [0, 1]"
                    )
        for j in range(m):
            column = [row[j] for row in ratios]
            den = math.lcm(*(d for _, d in column))
            total = sum(num * (den // d) for num, d in column)
            if total != den:
                raise InvalidAssignment(
                    f"object {j} is allocated {Fraction(total, den)} in total, not 1"
                )
        object.__setattr__(self, "rows", mat)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def is_discrete(self) -> bool:
        return all(v == 0 or v == 1 for row in self.rows for v in row)

    def to_discrete(self) -> "DiscreteAssignment":
        if not self.is_discrete():
            raise InvalidAssignment("assignment has fractional entries")
        owner = []
        for j in range(self.m):
            owner.append(next(i for i in range(self.n) if self.rows[i][j] == 1))
        return DiscreteAssignment(owner)

    def __repr__(self):
        return f"FractionalAssignment(n={self.n}, m={self.m})"


@dataclass(frozen=True, init=False, repr=False)
class DiscreteAssignment:
    """A complete discrete assignment, stored as one owner per object."""

    owner: tuple

    def __init__(self, owner: Sequence[int]):
        owners = tuple(owner)
        bad = next((j for j, o in enumerate(owners) if not _is_index(o)), None)
        if bad is not None:
            raise InvalidAssignment(f"owner of object {bad} is {bounded(owners[bad])}, not an agent index")
        owners = tuple(o.__index__() for o in owners)
        if not owners:
            raise InvalidAssignment("an assignment needs at least one object")
        if any(o < 0 for o in owners):
            raise InvalidAssignment("owner indices must be nonnegative")
        object.__setattr__(self, "owner", owners)

    @property
    def m(self) -> int:
        return len(self.owner)

    def bundle(self, agent: int) -> tuple:
        return tuple(j for j, o in enumerate(self.owner) if o == agent)

    def bundles(self, n: int) -> list:
        out = [[] for _ in range(n)]
        for j, o in enumerate(self.owner):
            out[o].append(j)
        return [tuple(b) for b in out]

    def to_fractional(self, n: int) -> FractionalAssignment:
        if any(o >= n for o in self.owner):
            raise InvalidAssignment(f"owner index out of range for {n} agents")
        rows = [[1 if self.owner[j] == i else 0 for j in range(self.m)] for i in range(n)]
        return FractionalAssignment(rows)

    @classmethod
    def from_bundles(cls, m: int, bundles: Sequence[Sequence[int]]) -> "DiscreteAssignment":
        owner = [None] * m
        for i, bundle in enumerate(bundles):
            for j in bundle:
                if not 0 <= j < m:
                    raise InvalidAssignment(f"object index {bounded(j)} out of range for {m} objects")
                if owner[j] is not None:
                    raise InvalidAssignment(f"object {j} assigned twice")
                owner[j] = i
        if any(o is None for o in owner):
            missing = [j for j, o in enumerate(owner) if o is None]
            raise InvalidAssignment(f"objects {missing} are unassigned")
        return cls(owner)

    def __repr__(self):
        return f"DiscreteAssignment({list(self.owner)})"


@dataclass(frozen=True, init=False, repr=False)
class PriceVector:
    """One nonnegative price per object; every agent has budget 1."""

    prices: tuple

    def __init__(self, prices: Sequence):
        values = tuple(to_rational(p) for p in prices)
        if not values:
            raise InvalidAssignment("a price vector needs at least one object")
        for j, p in enumerate(values):
            if p < 0:
                raise InvalidAssignment(f"price of object {j} is {bounded(p)}, negative")
        object.__setattr__(self, "prices", values)

    @property
    def m(self) -> int:
        return len(self.prices)

    def __getitem__(self, j: int) -> Fraction:
        return self.prices[j]

    def __iter__(self):
        return iter(self.prices)

    def __repr__(self):
        return f"PriceVector({[str(p) for p in self.prices]})"


# ---------------------------------------------------------------------------
# Certificates: machine-checkable evidence attached to verifier verdicts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvyPair:
    """Agent `envious` strictly prefers the bundle of agent `envied`."""

    envious: int
    envied: int


@dataclass(frozen=True)
class DominatingAssignment:
    """An assignment weakly better for everyone and strictly better for one."""

    assignment: DiscreteAssignment


@dataclass(frozen=True)
class PriceSupport:
    """Prices under which the checked assignment is an equilibrium."""

    prices: PriceVector


@dataclass(frozen=True)
class ViolatingBundle:
    """A bundle strictly better for `agent` than its own bundle."""

    agent: int
    objects: tuple


@dataclass(frozen=True)
class KktViolation:
    """Agent `agent` owns object `object` without attaining the price ratio."""

    agent: int
    object: int
    ratio_gap: Fraction


Certificate = Union[EnvyPair, DominatingAssignment, PriceSupport, ViolatingBundle, KktViolation]


# ---------------------------------------------------------------------------
# Utility and welfare arithmetic.
# ---------------------------------------------------------------------------


def bundle_utility(inst: Instance, agent: int, row: Sequence) -> Fraction:
    """Additive utility of `agent` for an allocation row, exactly.

    `row` holds one share in [0, 1] per object; a discrete bundle is the
    special case of 0/1 shares.
    """
    shares = [to_rational(v) for v in row]
    if len(shares) != inst.m:
        raise DimensionMismatch("allocation row", inst.m, len(shares))
    if not 0 <= agent < inst.n:
        raise DimensionMismatch("agent index", inst.n, agent)
    u = inst.utilities[agent]
    return sum((s * u[j] for j, s in enumerate(shares)), Fraction(0))


def agent_utilities(inst: Instance, x) -> tuple:
    """Utility vector of an assignment (fractional or discrete), exactly."""
    x = as_fractional(inst, x)
    return tuple(bundle_utility(inst, i, x.rows[i]) for i in range(inst.n))


def nash_welfare(inst: Instance, x) -> Fraction:
    """Product of all agent utilities; 0 as soon as one agent gets nothing."""
    welfare = Fraction(1)
    for u in agent_utilities(inst, x):
        if u == 0:
            return Fraction(0)
        welfare *= u
    return welfare


def as_fractional(inst: Instance, x) -> FractionalAssignment:
    """Normalize discrete or fractional input to a FractionalAssignment."""
    if isinstance(x, DiscreteAssignment):
        if x.m != inst.m:
            raise DimensionMismatch("assignment", inst.m, x.m)
        return x.to_fractional(inst.n)
    if isinstance(x, FractionalAssignment):
        if x.n != inst.n:
            raise DimensionMismatch("assignment rows", inst.n, x.n)
        if x.m != inst.m:
            raise DimensionMismatch("assignment columns", inst.m, x.m)
        return x
    return FractionalAssignment(x)

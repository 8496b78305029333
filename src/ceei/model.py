"""Core data model: instances, assignments, prices, and welfare arithmetic.

All quantities are exact rationals (`fractions.Fraction`).  The verifiers in
this package decide equalities, so nothing in the model layer ever rounds;
floating point appears only inside the iterative equilibrium solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch, InvalidAssignment, InvariantError, bounded


def to_rational(value) -> Fraction:
    """Coerce ints, strings like '19/20', finite floats and Decimals, and Fractions to Fraction."""
    if type(value) is Fraction:
        return value  # immutable, so it can be shared
    if isinstance(value, bool):
        raise TypeError("booleans are not valid utilities")
    # Decimal.is_finite, since math.isfinite would round Decimal("1e400") to inf
    if (isinstance(value, float) and not math.isfinite(value)) or (
        isinstance(value, Decimal) and not value.is_finite()
    ):
        raise ValueError(f"{value} is not a finite number")
    return Fraction(value)


def _rational_row(row) -> tuple:
    """A row as Fractions; a str or bytes row, whose digits `to_rational` takes, is a TypeError."""
    if isinstance(row, (str, bytes)):
        raise TypeError(f"a row must be a sequence of numbers, not {type(row).__name__}")
    return tuple(to_rational(v) for v in row)


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
        rows = tuple(map(_rational_row, utilities))
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

    @cached_property
    def scales(self) -> tuple:
        """Per row, the lcm of its denominators.  Scaling a row keeps its bundle
        comparisons and price ratios and multiplies Nash welfare by the scale."""
        return tuple(math.lcm(*(v.denominator for v in row)) for row in self.utilities)

    @cached_property
    def int_rows(self) -> tuple:
        """Each utility row times its scale, as ints; the verifiers and searches run on these."""
        pairs = zip(self.utilities, self.scales)
        return tuple(tuple(v.numerator * (s // v.denominator) for v in row) for row, s in pairs)

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
        mat = tuple(map(_rational_row, rows))
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
        """The 0/1 matrix of n agents; an owner of n or more leaves its object's
        column empty, which `FractionalAssignment` rejects."""
        rows = [[1 if self.owner[j] == i else 0 for j in range(self.m)] for i in range(n)]
        return FractionalAssignment(rows)

    @classmethod
    def from_bundles(cls, m: int, bundles: Sequence[Sequence[int]]) -> "DiscreteAssignment":
        owner = [None] * m
        for i, bundle in enumerate(bundles):
            for j in bundle:
                if not _is_index(j):
                    raise InvalidAssignment(f"entry {bounded(j)} of bundle {i} is not an object index")
                j = j.__index__()
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
        values = _rational_row(prices)
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


def check_assignment(inst: Instance, y: DiscreteAssignment):
    """Raise unless y is a complete assignment of this instance's objects."""
    if y.m != inst.m:
        raise DimensionMismatch("assignment", inst.m, y.m)
    if any(o >= inst.n for o in y.owner):
        raise InvalidAssignment(f"owner index out of range for {inst.n} agents")


def bundle_values(rows, owner):
    """values[k]: rows[k] summed over the objects `owner` gives agent k.

    Pass one row n times to value every bundle with that row (`fairness._first_envy`).
    """
    values = [0] * len(rows)
    for j, k in enumerate(owner):
        values[k] += rows[k][j]
    return values


def bundle_utility(inst: Instance, agent: int, row: Sequence) -> Fraction:
    """Additive utility of `agent` for an allocation row, exactly.

    `row` holds one share in [0, 1] per object; a discrete bundle is the
    special case of 0/1 shares.
    """
    shares = _rational_row(row)
    if len(shares) != inst.m:
        raise DimensionMismatch("allocation row", inst.m, len(shares))
    if not 0 <= agent < inst.n:
        raise InvalidAssignment(f"agent index {bounded(agent)} out of range for {inst.n} agents")
    u = inst.utilities[agent]
    return sum((s * u[j] for j, s in enumerate(shares)), Fraction(0))


def agent_utilities(inst: Instance, x) -> tuple:
    """Utility vector of an assignment (fractional or discrete), exactly."""
    if isinstance(x, DiscreteAssignment):
        check_assignment(inst, x)
        return tuple(map(Fraction, bundle_values(inst.utilities, x.owner)))
    x = as_fractional(inst, x)
    return tuple(bundle_utility(inst, i, x.rows[i]) for i in range(inst.n))


def nash_welfare(inst: Instance, x) -> Fraction:
    """Product of all agent utilities; 0 when some agent gets nothing."""
    return math.prod(agent_utilities(inst, x))


def as_fractional(inst: Instance, x) -> FractionalAssignment:
    """Normalize discrete or fractional input, or raw rows, to a FractionalAssignment."""
    if isinstance(x, DiscreteAssignment):
        check_assignment(inst, x)
        return x.to_fractional(inst.n)
    x = x if isinstance(x, FractionalAssignment) else FractionalAssignment(x)
    if x.n != inst.n:
        raise DimensionMismatch("assignment rows", inst.n, x.n)
    if x.m != inst.m:
        raise DimensionMismatch("assignment columns", inst.m, x.m)
    return x

"""Core data model: instances, assignments, prices, and welfare arithmetic.

All quantities are exact rationals (`fractions.Fraction`).  The verifiers in
this package decide equalities, so nothing in the model layer ever rounds;
floating point appears only inside the iterative equilibrium solver.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import DimensionMismatch, InvalidAssignment, InvariantError, _is_index, bounded

# sets a field past the frozen `__setattr__`; a name, since a field called
# `object` shadows the builtin in its `__init__`
_set = object.__setattr__


class _Frozen:
    """Base of the value types: immutable, and compared, hashed, printed,
    pickled and copied by the values of the fields named in `_fields`.

    Each subclass names its fields once, as `__slots__ = _fields = (...)`
    (`Instance` keeps a `__dict__` for its cached properties), and sets
    them in its own `__init__` with `_set`.  Values of different classes
    are never equal.  Pickling and copying rebuild a value from its fields
    without calling its validating `__init__`.  Assigning or deleting an
    attribute raises `dataclasses.FrozenInstanceError`, as on a frozen
    dataclass; `dataclasses` is imported only then.
    """

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (type(self), self._values())


def _shown(value, show=repr) -> str:
    """show(value), and a tuple's items each shown so; past Python's
    int-to-str limit, where str() and repr() raise ValueError, an int or
    Fraction shows `bounded`'s digits instead."""
    if type(value) is tuple:
        text = ", ".join(_shown(v, show) for v in value)
        return f"({text},)" if len(value) == 1 else f"({text})"
    try:
        return show(value)
    except ValueError:
        if show is repr and isinstance(value, Fraction):
            return f"Fraction({bounded(value.numerator)}, {bounded(value.denominator)})"
        return bounded(value)


def _rebuild(cls, values):
    """The value of class `cls` with these field values, as pickle and copy
    rebuild it: its `__init__` already validated them."""
    value = object.__new__(cls)
    for name, field in zip(cls._fields, values):
        _set(value, name, field)
    return value


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


class Instance(_Frozen):
    """An assignment problem: n agents, m objects, an n x m utility matrix.

    The matrix is a tuple of row tuples of Fractions.  Like every value
    type of the package, an instance is immutable and compares, hashes,
    pickles and copies by value.  The objects are goods: construction
    raises InvariantError naming every negative entry, which every verdict,
    bound and prune downstream relies on.  The positivity invariants (a
    positive entry in every row and column) are left to `validate_instance`.
    """

    _fields = ("utilities",)

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
        _set(self, "utilities", rows)

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
        """Whether every int row is 0/1: each row is 0/1 up to its own scale."""
        return all(v == 0 or v == 1 for row in self.int_rows for v in row)

    def has_identical_rows(self) -> bool:
        return all(row == self.utilities[0] for row in self.utilities)

    def __repr__(self):
        return f"Instance(n={self.n}, m={self.m})"


class InstanceViolation(_Frozen):
    """One violated instance invariant or engine requirement, naming the
    offending entry, row or column."""

    __slots__ = _fields = ("kind", "agent", "object")

    def __init__(self, kind: str, agent: int | None = None, object: int | None = None):
        # "zero_row" | "zero_column" | "negative_entry" | "non_binary_entry" | "differing_row"
        _set(self, "kind", kind)
        _set(self, "agent", agent)
        _set(self, "object", object)

    def __str__(self):
        if self.kind == "zero_row":
            return f"agent {self.agent} values no object"
        if self.kind == "zero_column":
            return f"object {self.object} is valued by no agent"
        if self.kind == "differing_row":
            return f"utility row of agent {self.agent} differs from row 0"
        if self.kind == "non_binary_entry":
            return f"utility of agent {self.agent} for object {self.object} is not 0/1 up to its row's scale"
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


class FractionalAssignment(_Frozen):
    """An n x m matrix of fractions in [0, 1] whose columns each sum to 1."""

    __slots__ = _fields = ("rows",)

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
        _set(self, "rows", mat)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def __repr__(self):
        return f"FractionalAssignment(n={self.n}, m={self.m})"


class DiscreteAssignment(_Frozen):
    """A complete discrete assignment, stored as one owner per object."""

    __slots__ = _fields = ("owner",)

    def __init__(self, owner: Sequence[int]):
        owners = tuple(owner)
        bad = next((j for j, o in enumerate(owners) if not _is_index(o) or o.__index__() < 0), None)
        if bad is not None:
            raise InvalidAssignment(f"owner of object {bad} is {bounded(owners[bad])}, not an agent index")
        if not owners:
            raise InvalidAssignment("an assignment needs at least one object")
        _set(self, "owner", tuple(o.__index__() for o in owners))

    @property
    def m(self) -> int:
        return len(self.owner)

    def bundle(self, agent: int) -> tuple:
        return tuple(j for j, o in enumerate(self.owner) if o == agent)

    def __repr__(self):
        return f"DiscreteAssignment({list(self.owner)})"


class PriceVector(_Frozen):
    """One nonnegative price per object; every agent has budget 1."""

    __slots__ = _fields = ("prices",)

    def __init__(self, prices: Sequence):
        values = _rational_row(prices)
        if not values:
            raise InvalidAssignment("a price vector needs at least one object")
        for j, p in enumerate(values):
            if p < 0:
                raise InvalidAssignment(f"price of object {j} is {bounded(p)}, negative")
        _set(self, "prices", values)

    def __getitem__(self, j: int) -> Fraction:
        return self.prices[j]

    def __iter__(self):
        return iter(self.prices)

    def __repr__(self):
        return f"PriceVector({[_shown(p, str) for p in self.prices]})"


# ---------------------------------------------------------------------------
# Certificates: machine-checkable evidence attached to verifier verdicts.
# ---------------------------------------------------------------------------


class EnvyPair(_Frozen):
    """Agent `envious` strictly prefers the bundle of agent `envied`."""

    __slots__ = _fields = ("envious", "envied")

    def __init__(self, envious: int, envied: int):
        _set(self, "envious", envious)
        _set(self, "envied", envied)


class DominatingAssignment(_Frozen):
    """An assignment weakly better for everyone and strictly better for one."""

    __slots__ = _fields = ("assignment",)

    def __init__(self, assignment: DiscreteAssignment):
        _set(self, "assignment", assignment)


class PriceSupport(_Frozen):
    """Prices under which the checked assignment is an equilibrium."""

    __slots__ = _fields = ("prices",)

    def __init__(self, prices: PriceVector):
        _set(self, "prices", prices)


class ViolatingBundle(_Frozen):
    """A bundle strictly better for `agent` than its own bundle."""

    __slots__ = _fields = ("agent", "objects")

    def __init__(self, agent: int, objects: tuple):
        _set(self, "agent", agent)
        _set(self, "objects", objects)


class KktViolation(_Frozen):
    """Agent `agent` owns object `object` without attaining the price ratio."""

    __slots__ = _fields = ("agent", "object", "ratio_gap")

    def __init__(self, agent: int, object: int, ratio_gap: Fraction):
        _set(self, "agent", agent)
        _set(self, "object", object)
        _set(self, "ratio_gap", ratio_gap)


Certificate = EnvyPair | DominatingAssignment | PriceSupport | ViolatingBundle | KktViolation


# ---------------------------------------------------------------------------
# Utility and welfare arithmetic.
# ---------------------------------------------------------------------------


def check_assignment(inst: Instance, y: DiscreteAssignment):
    """Raise unless y is a complete assignment of this instance's objects."""
    if y.m != inst.m:
        raise DimensionMismatch("assignment", inst.m, y.m)
    bad = next((j for j, o in enumerate(y.owner) if o >= inst.n), None)
    if bad is not None:
        raise InvalidAssignment(f"owner of object {bad} is {bounded(y.owner[bad])}, out of range for {inst.n} agents")


def bundle_values(rows, owner):
    """values[k]: rows[k] summed over the objects `owner` gives agent k.

    Pass one row n times to value every bundle with that row (`fairness._first_envy`).
    """
    values = [0] * len(rows)
    for j, k in enumerate(owner):
        values[k] += rows[k][j]
    return values


def agent_utilities(inst: Instance, x) -> tuple:
    """Utility vector of an assignment (fractional or discrete), exactly.

    Owner vectors are valued by `bundle_values` and rows of shares here;
    nothing else in the library values a bundle.
    """
    if isinstance(x, DiscreteAssignment):
        check_assignment(inst, x)
        return tuple(map(Fraction, bundle_values(inst.utilities, x.owner)))
    rows = as_fractional(inst, x).rows
    return tuple(sum(map(mul, shares, utilities), Fraction(0)) for shares, utilities in zip(rows, inst.utilities))


def nash_welfare(inst: Instance, x) -> Fraction:
    """Product of all agent utilities; 0 when some agent gets nothing."""
    return math.prod(agent_utilities(inst, x))


def as_fractional(inst: Instance, x) -> FractionalAssignment:
    """Normalize discrete or fractional input, or raw rows, to a FractionalAssignment."""
    if isinstance(x, DiscreteAssignment):
        check_assignment(inst, x)
        return FractionalAssignment([[int(o == i) for o in x.owner] for i in range(inst.n)])
    x = x if isinstance(x, FractionalAssignment) else FractionalAssignment(x)
    if x.n != inst.n:
        raise DimensionMismatch("assignment rows", inst.n, x.n)
    if x.m != inst.m:
        raise DimensionMismatch("assignment columns", inst.m, x.m)
    return x

"""Exception types shared across the toolkit, and the one node-limit rule.

A `limit` is the most nodes a walk may visit.  Every walk that prunes, over
owner vectors or over bundles, counts the nodes it enters and raises
InconclusiveSearch on entering node `limit`; the enumeration oracle
`search.brute_force_max_nash` instead raises InstanceTooLarge when its n^m
owner vectors exceed it.  `_check_limit` rejects a limit that is not an int
(TypeError) or is below 1 (ValueError), and reads None, when the call is
made, as DEFAULT_BUNDLE_LIMIT for `fairness.verify_ceei_disc`'s bundle walk
and as DEFAULT_ENUM_LIMIT for every other walk.  A polynomial test takes no
limit.
"""

import copyreg
from fractions import Fraction

DEFAULT_ENUM_LIMIT = 20_000_000
DEFAULT_BUNDLE_LIMIT = 1 << 16


def _is_index(value) -> bool:
    """Anything with __index__ (numpy ints too) but bool, which is an int."""
    return hasattr(value, "__index__") and not isinstance(value, bool)


def _check_limit(limit, bundles=False):
    """`limit`, or for None DEFAULT_BUNDLE_LIMIT if `bundles` else
    DEFAULT_ENUM_LIMIT; TypeError if not an int, ValueError below 1."""
    if limit is None:
        return DEFAULT_BUNDLE_LIMIT if bundles else DEFAULT_ENUM_LIMIT
    if not _is_index(limit):
        raise TypeError(f"an enumeration limit must be an int, not {type(limit).__name__}")
    if limit < 1:
        raise ValueError(f"an enumeration limit must be at least 1, not {limit}")
    return limit


def bounded(value):
    """`value` as short message text: an int of 30 or more digits, alone or in
    a Fraction, shows its leading digits and digit count (`67910...(4335
    digits)` for 2**14400), since str() raises ValueError past 4300 digits."""
    if isinstance(value, Fraction):
        text = bounded(value.numerator)
        return text if value.denominator == 1 else f"{text}/{bounded(value.denominator)}"
    if not isinstance(value, int) or abs(value) < 10**29:
        return str(value)
    shift = int(abs(value).bit_length() * 0.30103) - 20  # at least 9, below the digit count
    lead = str(abs(value) // 10**shift)
    return f"{'-' if value < 0 else ''}{lead[:5]}...({shift + len(lead)} digits)"


class CeeiError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # rebuilt from args and fields without __init__, whose parameters differ
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DimensionMismatch(CeeiError):
    """A vector or matrix has the wrong length for the instance at hand."""

    def __init__(self, what, expected, got):
        self.what = what
        self.expected = expected
        self.got = got
        super().__init__(f"{what}: expected length {expected}, got {got}")


class InvalidAssignment(CeeiError):
    """An assignment matrix violates completeness or range constraints."""


class InstanceTooLarge(CeeiError):
    """An enumeration guard was exceeded."""

    def __init__(self, agents, objects, limit, required):
        self.agents = agents
        self.objects = objects
        self.limit = limit
        self.required = required
        super().__init__(
            f"instance with {agents} agents and {objects} objects needs "
            f"{bounded(required)} enumeration steps, above the limit of {bounded(limit)}"
        )


class NonConvergence(CeeiError):
    """The equilibrium solver stopped without an exactly certified equilibrium.

    `iterations` counts the Newton steps taken and `residual` is the last
    relative duality gap of the barrier method.
    """

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no equilibrium after {iterations} iterations "
            f"(relative duality gap {residual:.3e})"
        )


class InconclusiveSearch(CeeiError):
    """A search that reached its node limit cannot answer an existence
    question, which `undecided` names.  `best_welfare` is the incumbent of a
    welfare search, else None."""

    def __init__(self, nodes_explored, best_welfare=None, undecided="existence"):
        self.nodes_explored = nodes_explored
        self.best_welfare = best_welfare
        self.undecided = undecided
        nodes = "1 node" if nodes_explored == 1 else f"{nodes_explored} nodes"
        super().__init__(f"search truncated after {nodes}; {undecided} undecided")


class DocumentSyntaxError(CeeiError):
    """An instance or assignment document is not well-formed."""

    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class SchemaError(CeeiError):
    """A document is well-formed but violates the schema."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"field '{field}': {message}")


class InvariantError(CeeiError):
    """Utilities violate the model invariants, or rows break an engine's
    requirement.  `Instance` raises it for negative entries, naming every
    one, whoever builds it, `parse_instance` included; the callers that need
    positive rows or columns (`parse_instance`, `solve_eg`,
    `verify_ceei_frac`) raise it for zero ones, `binary_max_nash` for int
    entries other than 0 and 1, and `find_ceei_disc_identical` for rows
    unlike row 0.  `violations` holds one `InstanceViolation` per offender."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"instance invariants violated: {detail}")

"""Instance documents, random generation, and number-partition reductions.

The wire format is a single JSON document with exact values only:

    {"agents": 2, "objects": 3, "utilities": [[2, 1, "1/2"], [1, 1, 1]]}

Utilities are integers or "numerator/denominator" strings; decimal floats are
rejected so that values survive round trips unchanged.  Serialization is
canonical (row-major, no whitespace, fractions in lowest terms), which makes
document digests and golden tests byte-stable.

The number-partition reductions take the integers themselves and raise
SchemaError, naming "integers", "weights" or "bound", on input that is not
a Partition or 3-Partition instance.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from fractions import Fraction

from .errors import DocumentSyntaxError, InvariantError, SchemaError, _is_index, bounded
from .model import DiscreteAssignment, Instance, check_assignment, validate_instance

_RATIONAL_RE = re.compile(r"^(0|[1-9][0-9]*)/([1-9][0-9]*)$")


# ---------------------------------------------------------------------------
# Number-partition reductions.
# ---------------------------------------------------------------------------


def from_partition(integers) -> Instance:
    """Two agents with identical utilities equal to a nonempty multiset of
    positive ints (numpy ints too), else SchemaError on "integers".

    The instance admits an equal-utility complete split exactly when the
    multiset admits an equal-sum bipartition; an odd total is a valid input
    that simply yields a no-instance.
    """
    row = _ints(integers, "integers")
    if not row:
        raise SchemaError("integers", "a partition input needs at least one integer")
    if min(row) < 1:
        raise SchemaError("integers", "partition inputs must be positive")
    return Instance([row, row])


def from_three_partition(weights, bound) -> Instance:
    """n agents with identical utilities equal to 3n int weights (numpy ints
    too), each strictly between bound/4 and bound/2, summing to n·bound;
    else SchemaError on "weights" or "bound"."""
    row = _ints(weights, "weights")
    bound = _int(bound, "bound")
    if not row or len(row) % 3:
        raise SchemaError("weights", "need a positive multiple of 3 weights")
    for j, w in enumerate(row):
        if 4 * w <= bound or 2 * w >= bound:
            shown = bounded(bound)
            raise SchemaError("weights", f"weight {bounded(w)} at position {j} violates {shown}/4 < w < {shown}/2")
    groups = len(row) // 3
    if sum(row) != groups * bound:
        raise SchemaError("weights", f"weights sum to {bounded(sum(row))}, expected {bounded(groups * bound)}")
    return Instance([row] * groups)


def _ints(values, field):
    return [_int(v, field, f"entry {j}: ") for j, v in enumerate(values)]


def _int(value, field, where=""):
    """`value` as an int if `errors._is_index`; int() truncates 1.5 and takes True."""
    if not _is_index(value):
        raise SchemaError(field, f"{where}{bounded(value)} is not an integer")
    return value.__index__()


def gen_random(n: int, m: int, max_util: int, seed=None) -> Instance:
    """Seeded random instance with integer utilities in [0, max_util]; 0/1 rows for max_util 1.

    Whole rows and columns are resampled until every agent values something
    and every object is valued, so the result always passes validation.
    """
    if n < 1 or m < 1:
        raise SchemaError("size", "need at least one agent and one object")
    if max_util < 1:
        raise SchemaError("max_util", "need max_util >= 1")
    rng = random.Random(seed)
    rows = [[rng.randint(0, max_util) for _ in range(m)] for _ in range(n)]
    while True:
        clean = True
        for i in range(n):
            if not any(rows[i]):
                rows[i] = [rng.randint(0, max_util) for _ in range(m)]
                clean = False
        for j in range(m):
            if not any(rows[i][j] for i in range(n)):
                for i in range(n):
                    rows[i][j] = rng.randint(0, max_util)
                clean = False
        if clean:
            return Instance(rows)


# ---------------------------------------------------------------------------
# Canonical example instances.
# ---------------------------------------------------------------------------


def separation_example() -> Instance:
    """2x4 instance separating envy-freeness + Pareto from price support.

    Giving agent 0 only its favourite object and agent 1 the rest is
    envy-free and Pareto optimal, yet admits no supporting prices; splitting
    the objects two and two does.
    """
    return Instance([[95, 5, 2, 1], [1, 2, 5, 95]])


def binary_gap_example() -> Instance:
    """Binary 2x3 instance whose best discrete welfare trails the fractional one.

    Every discrete split reaches Nash welfare at most 2 while sharing the
    contested middle object reaches 9/4, so no discrete assignment is
    supportable against fractional demand.
    """
    return Instance([[1, 1, 0], [0, 1, 1]])


# ---------------------------------------------------------------------------
# Documents.
# ---------------------------------------------------------------------------


def serialize_instance(inst: Instance) -> str:
    """Canonical single-line JSON document for an instance."""
    doc = {
        "agents": inst.n,
        "objects": inst.m,
        "utilities": [[int(v) if v.denominator == 1 else str(v) for v in row] for row in inst.utilities],
    }
    return json.dumps(doc, separators=(",", ":"))


def parse_instance(text: str) -> Instance:
    """Parse and fully validate an instance document.

    Raises DocumentSyntaxError for malformed JSON, SchemaError for wrong
    shapes, float literals or numbers past Python's int-to-str digit limit,
    and InvariantError when `Instance` finds negative entries or the matrix
    has a zero row or column.
    """
    doc = _load_document(text)
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    extra = set(doc) - {"agents", "objects", "utilities"}
    if extra:
        raise SchemaError(sorted(extra)[0], "unknown field")
    for field in ("agents", "objects", "utilities"):
        if field not in doc:
            raise SchemaError(field, "missing")
    n = _expect_count(doc["agents"], "agents")
    m = _expect_count(doc["objects"], "objects")
    utilities = doc["utilities"]
    if not isinstance(utilities, list) or len(utilities) != n:
        raise SchemaError("utilities", f"expected {n} rows")
    rows = []
    for i, row in enumerate(utilities):
        if not isinstance(row, list) or len(row) != m:
            raise SchemaError("utilities", f"row {i}: expected {m} entries")
        rows.append([_parse_value(v, i, j) for j, v in enumerate(row)])
    inst = Instance(rows)
    violations = validate_instance(inst)
    if violations:
        raise InvariantError(violations)
    return inst


def parse_assignment(text: str, inst: Instance) -> DiscreteAssignment:
    """Parse an {"owner": [...]} document against a specific instance.

    Raises DocumentSyntaxError for malformed JSON and SchemaError unless the
    document is an object whose one field "owner" is a list.  The entries
    are the model's to check: `DiscreteAssignment` raises InvalidAssignment
    for one that is not a nonnegative int, and `check_assignment`
    DimensionMismatch for a list of the wrong length and InvalidAssignment
    for an agent index out of range.  An InvalidAssignment names the first
    object at fault.
    """
    doc = _load_document(text)
    if not isinstance(doc, dict) or set(doc) != {"owner"} or not isinstance(doc["owner"], list):
        raise SchemaError("owner", "expected an object with a single 'owner' list")
    y = DiscreteAssignment(doc["owner"])
    check_assignment(inst, y)
    return y


def instance_digest(inst: Instance) -> str:
    """sha256 of the canonical serialization."""
    return hashlib.sha256(serialize_instance(inst).encode("utf-8")).hexdigest()


def _load_document(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.lineno, exc.colno, exc.msg) from exc
    except ValueError as exc:  # an int literal past the int-to-str limit
        raise SchemaError("document", _too_many_digits()) from exc
    except RecursionError as exc:
        raise DocumentSyntaxError(1, 1, "document nests too deeply") from exc


def _expect_count(value, field):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(field, "expected a positive integer")
    return value


def _parse_value(value, i, j):
    where = f"utilities[{i}][{j}]"
    if isinstance(value, bool):
        raise SchemaError(where, "booleans are not utilities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(where, "decimal floats are not exact; use 'num/den'")
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise SchemaError(where, "expected 'numerator/denominator' with positive denominator")
        try:
            return Fraction(value)
        except ValueError as exc:
            raise SchemaError(where, _too_many_digits()) from exc
    raise SchemaError(where, f"unsupported value {value!r}")


def _too_many_digits():
    return f"a number has more than {sys.get_int_max_str_digits()} digits, Python's int-to-str limit"

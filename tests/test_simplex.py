import random
from fractions import Fraction

import pytest

from ceei.simplex import Unbounded, maximize
from oracles import bland_tableau, lp_vertex_optimum


def _random_lp(rng):
    """A small LP with degenerate rows through the origin and a bounding row."""
    num_vars = rng.randint(1, 3)
    c = [rng.randint(-5, 5) for _ in range(num_vars)]
    rows, rhs = [], []
    for _ in range(rng.randint(0, 3)):
        rows.append([rng.randint(-5, 5) for _ in range(num_vars)])
        rhs.append(0 if rng.random() < 0.4 else rng.randint(0, 5))
    if rows and rng.random() < 0.5:
        rows.append(list(rows[0]))
        rhs.append(0)
        rhs[0] = 0
    rows.append([rng.randint(1, 3) for _ in range(num_vars)])
    rhs.append(rng.randint(0, 6))
    return c, rows, rhs


def _verifier_lp(rng):
    """The CEEI-disc slack LP's shape: variables p_1..p_m, s; a degenerate row
    s - p(B) <= 0 per bundle B and a row p(y_i) <= 1 per agent's bundle."""
    m, n = rng.randint(1, 8), rng.randint(1, 3)
    owner = [rng.randrange(n) for _ in range(m)]
    rows = []
    for _ in range(rng.randint(1, 12)):
        bundle = {j for j in range(m) if rng.random() < 0.4} or {rng.randrange(m)}
        rows.append([-(j in bundle) for j in range(m)] + [1])
    rhs = [0] * len(rows)
    for i in range(n):
        rows.append([int(o == i) for o in owner] + [0])
        rhs.append(1)
    return [0] * m + [1], rows, rhs


def _wide_lp(rng):
    """A bounded LP of 10**400-sized and small int entries, so pivots leave
    the common denominator."""
    big = 10**400

    def entry():
        return rng.choice([0, 1, -1, big, big + 1, -3 * big, rng.randint(-7, 7)])

    num_vars = rng.randint(1, 4)
    rows = [[entry() for _ in range(num_vars)] for _ in range(rng.randint(0, 4))]
    rhs = [rng.choice([0, 1, big, rng.randint(0, 9)]) for _ in rows]
    rows.append([rng.choice([1, big, rng.randint(1, 9)]) for _ in range(num_vars)])
    rhs.append(rng.choice([1, big, rng.randint(1, 9)]))
    return [entry() for _ in range(num_vars)], rows, rhs


def test_textbook_two_variable_problem():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    value, solution, _ = maximize(
        [3, 5],
        [[1, 0], [0, 2], [3, 2]],
        [4, 12, 18],
    )
    assert value == 36
    assert solution == [2, 6]


def test_exact_fractions_survive():
    # max 2x + y s.t. 3x + y <= 1, x + 3y <= 1: the vertex (1/4, 1/4)
    value, solution, _ = maximize(
        [2, 1],
        [[3, 1], [1, 3]],
        [1, 1],
    )
    assert value == Fraction(3, 4)
    assert solution == [Fraction(1, 4), Fraction(1, 4)]


def test_degenerate_constraints_terminate():
    # several redundant rows through the origin; Bland must not cycle
    value, solution, _ = maximize(
        [1, 1],
        [[1, -1], [1, -1], [2, -2], [1, 1]],
        [0, 0, 0, 1],
    )
    assert value == 1
    assert solution[0] == Fraction(1, 2)


def test_zero_objective_is_fine():
    assert maximize([0, 0], [[1, 1]], [5]) == (0, [0, 0], 0)


def test_unbounded_detected():
    with pytest.raises(Unbounded):
        maximize([1, 0], [[0, 1]], [1])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        maximize([1], [[1]], [-1])


def test_rhs_length_must_match_rows():
    with pytest.raises(ValueError, match="right-hand sides"):
        maximize([1], [[1], [1]], [1])
    with pytest.raises(ValueError, match="right-hand sides"):
        maximize([1], [[1]], [1, 5])


def test_row_length_must_match_the_objective():
    with pytest.raises(ValueError, match="constraint 1 has 1 coefficients, expected 2"):
        maximize([1, 1], [[1, 1], [1]], [1, 1])


@pytest.mark.parametrize("seed", range(6))
def test_optimum_matches_vertex_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(50):
        c, rows, rhs = _random_lp(rng)
        value, solution, _ = maximize(c, rows, rhs)
        assert all(z >= 0 for z in solution)
        for row, b in zip(rows, rhs):
            assert sum(a * z for a, z in zip(row, solution)) <= b
        assert sum(ci * z for ci, z in zip(c, solution)) == value
        assert value == lp_vertex_optimum(c, rows, rhs)


@pytest.mark.parametrize("seed", range(4))
def test_column_without_positive_entry_is_unbounded(seed):
    rng = random.Random(100 + seed)
    for _ in range(25):
        c, rows, rhs = _random_lp(rng)
        j = rng.randrange(len(c))
        c[j] = abs(c[j]) + 1
        for row in rows:
            row[j] = -abs(row[j])
        with pytest.raises(Unbounded):
            maximize(c, rows, rhs)


LP_SHAPES = {
    "ints": _random_lp,
    "verifier": _verifier_lp,
    "huge": _wide_lp,
}


# the integer tableau pivots as the rational one does, so the whole solution
# vector and the pivot count, not just the optimum, are the textbook tableau's
@pytest.mark.parametrize("shape", LP_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_solution_matches_the_textbook_tableau(shape, seed):
    rng = random.Random(200 + seed)
    for _ in range(40):
        lp = LP_SHAPES[shape](rng)
        assert maximize(*lp) == bland_tableau(*lp)


# the tableau steps by floor division, which is exact only on ints, so any
# other entry is refused, even one equal to an int
@pytest.mark.parametrize("entry", [Fraction(2), "2", 2.0, True], ids=["Fraction", "str", "float", "bool"])
@pytest.mark.parametrize("where", ["c", "rows", "rhs"])
def test_entries_that_are_not_ints_raise_type_error(where, entry):
    lp = {"c": [3, 5], "rows": [[1, 0], [0, 2], [3, 2]], "rhs": [4, 12, 18]}
    if where == "rows":
        lp["rows"][1][1] = entry
    else:
        lp[where][0] = entry
    with pytest.raises(TypeError, match="must be an int"):
        maximize(**lp)

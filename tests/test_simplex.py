import random
from fractions import Fraction

import pytest

from ceei.simplex import Unbounded, maximize
from oracles import lp_vertex_optimum


def _random_entry(rng, fractions):
    value = rng.randint(-5, 5)
    if fractions and rng.random() < 0.5:
        return Fraction(value, rng.randint(1, 6))
    return value


def _random_lp(rng, fractions):
    """A small LP with degenerate rows through the origin and a bounding row."""
    num_vars = rng.randint(1, 3)
    c = [_random_entry(rng, fractions) for _ in range(num_vars)]
    rows, rhs = [], []
    for _ in range(rng.randint(0, 3)):
        rows.append([_random_entry(rng, fractions) for _ in range(num_vars)])
        rhs.append(0 if rng.random() < 0.4 else abs(_random_entry(rng, fractions)))
    if rows and rng.random() < 0.5:
        rows.append(list(rows[0]))
        rhs.append(0)
        rhs[0] = 0
    rows.append([rng.randint(1, 3) for _ in range(num_vars)])
    rhs.append(rng.randint(0, 6))
    return c, rows, rhs


def test_textbook_two_variable_problem():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    value, solution = maximize(
        [3, 5],
        [[1, 0], [0, 2], [3, 2]],
        [4, 12, 18],
    )
    assert value == 36
    assert solution == [2, 6]


def test_exact_fractions_survive():
    value, solution = maximize(
        [1],
        [[Fraction(3, 7)]],
        [Fraction(1, 2)],
    )
    assert value == Fraction(7, 6)
    assert solution == [Fraction(7, 6)]


def test_degenerate_constraints_terminate():
    # several redundant rows through the origin; Bland must not cycle
    value, solution = maximize(
        [1, 1],
        [[1, -1], [1, -1], [2, -2], [1, 1]],
        [0, 0, 0, 1],
    )
    assert value == 1
    assert solution[0] == Fraction(1, 2)


def test_zero_objective_is_fine():
    value, solution = maximize([0, 0], [[1, 1]], [5])
    assert value == 0
    assert solution == [0, 0]


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


@pytest.mark.parametrize("seed", range(6))
def test_optimum_matches_vertex_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(50):
        c, rows, rhs = _random_lp(rng, fractions=seed % 2 == 1)
        value, solution = maximize(c, rows, rhs)
        assert all(z >= 0 for z in solution)
        for row, b in zip(rows, rhs):
            assert sum(a * z for a, z in zip(row, solution)) <= b
        assert sum(ci * z for ci, z in zip(c, solution)) == value
        assert value == lp_vertex_optimum(c, rows, rhs)


@pytest.mark.parametrize("seed", range(4))
def test_column_without_positive_entry_is_unbounded(seed):
    rng = random.Random(100 + seed)
    for _ in range(25):
        c, rows, rhs = _random_lp(rng, fractions=seed % 2 == 1)
        j = rng.randrange(len(c))
        c[j] = abs(c[j]) + 1
        for row in rows:
            row[j] = -abs(row[j])
        with pytest.raises(Unbounded):
            maximize(c, rows, rhs)

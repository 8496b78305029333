"""Self-contained exact simplex with integer pivoting.

Solves  max c.z  subject to  A z <= b,  z >= 0  with b >= 0 and every
entry an int, so the slack basis is feasible and no phase-1 is needed.  The
tableau is condensed (one column per nonbasic variable, none for slacks) and
held as Python ints over one common denominator d, which starts at 1: a
pivot replaces every entry by a 2x2 determinant divided exactly by d
(fraction-free pivoting, Edmonds 1967).  Bland's rule keeps the pivot
sequence finite and deterministic despite degenerate rows: the CEEI-DISC
verifier's bundle rows without an anchor object start at rhs 0; d is
positive and changes no sign and no ratio comparison, so the pivots, basis,
value and solution are those of the rational tableau.

On the verifier's 0/±1 rows most pivot elements equal d.  A pivot equal to
d leaves d as it is, and the step of an entry v of a row with entering
entry f against the pivot row's w reduces exactly to v - f*w // d: d
divides v*d and the whole numerator v*d - f*w, so it divides f*w.  A row
with f = 0 is then left alone, and a row with f = ±d subtracts or adds the
pivot row.  That is the general step with the pivot equal to d, not a
different one, so the tableau holds the same ints after every pivot, and
the pivots, value and solution stay those of the rational tableau.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub


class Unbounded(Exception):
    """The LP has feasible points of arbitrarily large objective value."""


def maximize(c, rows, rhs):
    """Return (optimal value, solution list) for max c.z, A z <= b, z >= 0.

    `c` is the objective vector, `rows` the constraint matrix A, `rhs` the
    vector b with every entry >= 0.  Every entry must be an int (TypeError
    otherwise, bools included).
    """
    num_vars = len(c)
    num_cons = len(rows)
    if len(rhs) != num_cons:
        raise ValueError(f"{num_cons} constraints but {len(rhs)} right-hand sides")
    for r, row in enumerate(rows):
        if len(row) != num_vars:
            raise ValueError(f"constraint {r} has {len(row)} coefficients, expected {num_vars}")
    if any(type(v) is not int for vector in (c, rhs, *rows) for v in vector):
        raise TypeError("every entry of c, rows and rhs must be an int")
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be nonnegative for a slack start")

    # tableau: constraint rows [A_r | b_r], then the objective row [-c | 0];
    # entry / d is the rational tableau entry
    tableau = [[*row, b] for row, b in zip(rows, rhs)]
    objective = [-v for v in c] + [0]
    tableau.append(objective)
    d = 1
    # original variable indices: structural 0..num_vars-1, slack num_vars+r
    column_var = list(range(num_vars))
    basis = [num_vars + r for r in range(num_cons)]

    while True:
        # Bland: entering variable = lowest index with a negative reduced cost
        negative = [j for j in range(num_vars) if objective[j] < 0]
        if not negative:
            break
        enter = min(negative, key=column_var.__getitem__)
        # ratio test rhs/a by cross-multiplication; Bland tie-break on the
        # leaving basic variable index
        leave = None
        for r, row in enumerate(tableau[:num_cons]):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    here = row[-1] * leave_a
                    best = leave_b * a
                    if here > best or (here == best and basis[r] > basis[leave]):
                        continue
                leave, leave_a, leave_b = r, a, row[-1]
        if leave is None:
            raise Unbounded()

        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        # pivot == d: (v*pivot - factor*w) // d == v - factor*w // d exactly
        # (d divides v*d and the numerator, hence factor*w), and d stays
        unit = pivot == d
        for r, row in enumerate(tableau):
            factor = row[enter]
            if r == leave or (unit and not factor):
                continue
            if not unit:
                new_row = [(v * pivot - factor * w) // d for v, w in zip(row, pivot_row)]
            elif factor == d:
                new_row = list(map(sub, row, pivot_row))
            elif factor == -d:
                new_row = list(map(add, row, pivot_row))
            else:
                new_row = [v - factor * w // d for v, w in zip(row, pivot_row)]
            new_row[enter] = -factor
            tableau[r] = new_row
        pivot_row[enter] = d
        d = pivot
        objective = tableau[-1]
        column_var[enter], basis[leave] = basis[leave], column_var[enter]

    solution = [Fraction(0)] * num_vars
    for r, var in enumerate(basis):
        if var < num_vars:
            solution[var] = Fraction(tableau[r][-1], d)
    value = Fraction(objective[-1], d)
    return value, solution

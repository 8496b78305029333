"""Answer checks that do not use the code under test.

Each certificate is re-checked from its defining inequalities, in exact
rational arithmetic, on the benchmark's own copy of the utility matrix.
None of `ceei`'s verifiers, searches or solvers is called here; only the
result objects they return are read.

Every check returns a `Checked`:

* `exact` tells whether the call returned an exact, decided answer;
* `problem` names the first inequality the answer breaks, or is None;
* `answer` is a canonical text of the mathematically unique part of the
  answer, compared with the reference table, or None when the answer is
  not unique (the reference then has no entry to compare with).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional


@dataclass(frozen=True)
class Checked:
    exact: bool
    problem: Optional[str] = None
    answer: Optional[str] = None


def text(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def digest(parts) -> str:
    return "sha256:" + hashlib.sha256(";".join(parts).encode("ascii")).hexdigest()[:24]


def bundle_values(rows, owner):
    """values[i][k]: agent i's utility for agent k's bundle."""
    n = len(rows)
    values = [[0] * n for _ in range(n)]
    for j, k in enumerate(owner):
        for i in range(n):
            values[i][k] += rows[i][j]
    return values


def nash_product(rows, owner):
    values = bundle_values(rows, owner)
    welfare = 1
    for i in range(len(rows)):
        welfare *= values[i][i]
    return welfare


def max_nash_owner(rows):
    """Lexicographically first owner vector of largest Nash product, by enumeration."""
    n, m = len(rows), len(rows[0])
    best, best_owner = -1, None
    for owner in product(range(n), repeat=m):
        totals = [0] * n
        for j, k in enumerate(owner):
            totals[k] += rows[k][j]
        welfare = 1
        for t in totals:
            welfare *= t
        if welfare > best:
            best, best_owner = welfare, list(owner)
    return best_owner


def has_equal_bipartition(weights):
    """Meet in the middle: can the weights be split into two equal-sum halves?"""
    total = sum(weights)
    if total % 2:
        return False
    target = total // 2
    half = len(weights) // 2

    def subset_sums(part):
        sums = {0}
        for w in part:
            sums |= {s + w for s in sums}
        return sums

    right = subset_sums(weights[half:])
    return any(target - s in right for s in subset_sums(weights[:half]))


# ---------------------------------------------------------------------------
# Equilibrium.
# ---------------------------------------------------------------------------


def equilibrium_problem(rows, x, u, p) -> Optional[str]:
    """First violated Fisher-market equilibrium condition for unit budgets, or None.

    Checks: x >= 0, every object fully allocated, u_i = sum_j u_ij x_ij > 0,
    every budget spent exactly, no agent sees a better bang per buck than
    u_i (u_ij <= u_i p_j), and money only on bang-per-buck-optimal objects.
    """
    n, m = len(rows), len(rows[0])
    if len(x) != n or any(len(r) != m for r in x) or len(u) != n or len(p) != m:
        return "shape"
    if any(v < 0 for r in x for v in r) or any(pj < 0 for pj in p):
        return "negative allocation or price"
    for j in range(m):
        if sum(x[i][j] for i in range(n)) != 1:
            return f"object {j} not fully allocated"
    for i in range(n):
        if u[i] <= 0 or sum(rows[i][j] * x[i][j] for j in range(m)) != u[i]:
            return f"utility of agent {i}"
        if sum(x[i][j] * p[j] for j in range(m)) != 1:
            return f"budget of agent {i}"
        for j in range(m):
            if rows[i][j] > u[i] * p[j]:
                return f"agent {i} prefers object {j} at these prices"
            if x[i][j] > 0 and rows[i][j] != u[i] * p[j]:
                return f"agent {i} spends on a suboptimal object {j}"
    return None


def check_solution(rows, solution) -> Checked:
    if not solution.certified:
        return Checked(False)
    u, p = list(solution.u_star), list(solution.p_star)
    problem = equilibrium_problem(rows, [list(r) for r in solution.x.rows], u, p)
    return Checked(True, problem, digest([text(v) for v in u] + [text(v) for v in p]))


# ---------------------------------------------------------------------------
# Fairness verdicts.
# ---------------------------------------------------------------------------


def envy_pair(rows, owner):
    values = bundle_values(rows, owner)
    n = len(rows)
    for i in range(n):
        for k in range(n):
            if i != k and values[i][i] < values[i][k]:
                return i, k
    return None


def dominates(rows, owner, other):
    own = bundle_values(rows, owner)
    alt = bundle_values(rows, other)
    n = len(rows)
    weakly = all(alt[i][i] >= own[i][i] for i in range(n))
    return weakly and any(alt[i][i] > own[i][i] for i in range(n))


def fractional_support_problem(rows, owner, prices) -> Optional[str]:
    """Owners attain each object's best utility-per-value ratio, at that price; budgets spent."""
    n, m = len(rows), len(rows[0])
    values = bundle_values(rows, owner)
    own = [values[i][i] for i in range(n)]
    if any(v == 0 for v in own) or len(prices) != m:
        return "zero utility or wrong price count"
    for j, k in enumerate(owner):
        best = max(Fraction(rows[i][j], own[i]) for i in range(n))
        if Fraction(rows[k][j], own[k]) != best or prices[j] != best:
            return f"object {j} not priced at its best ratio"
    spent = [Fraction(0)] * n
    for j, k in enumerate(owner):
        spent[k] += prices[j]
    if any(s != 1 for s in spent):
        return "budget not spent exactly"
    return None


def discrete_support_problem(rows, owner, prices) -> Optional[str]:
    """Own bundles affordable; every strictly better bundle costs more than 1."""
    n, m = len(rows), len(rows[0])
    if len(prices) != m or any(p < 0 for p in prices):
        return "wrong price count or negative price"
    cost = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        cost[mask] = cost[mask ^ low] + prices[low.bit_length() - 1]
    own_mask = [0] * n
    for j, k in enumerate(owner):
        own_mask[k] |= 1 << j
    for i in range(n):
        if cost[own_mask[i]] > 1:
            return f"agent {i} cannot afford its bundle"
        value = [0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            value[mask] = value[mask ^ low] + rows[i][low.bit_length() - 1]
        own = value[own_mask[i]]
        for mask in range(1, 1 << m):
            if value[mask] > own and cost[mask] <= 1:
                return f"agent {i} can afford a better bundle"
    return None


def prefers_bundle(rows, owner, agent, objects) -> bool:
    own = bundle_values(rows, owner)[agent][agent]
    return sum(rows[agent][j] for j in objects) > own


def _verdict(holds, problem=None) -> Checked:
    return Checked(True, problem, "holds" if holds else "fails")


def check_envy_free(rows, owner, verdict) -> Checked:
    pair = envy_pair(rows, owner)
    if verdict.holds != (pair is None):
        return _verdict(verdict.holds, "verdict differs from direct comparison")
    if not verdict.holds:
        cert = verdict.certificate
        values = bundle_values(rows, owner)
        if values[cert.envious][cert.envious] >= values[cert.envious][cert.envied]:
            return _verdict(False, "envy pair shows no envy")
    return _verdict(verdict.holds)


def check_pareto(rows, owner, verdict) -> Checked:
    if not verdict.holds and not dominates(rows, owner, list(verdict.certificate.assignment.owner)):
        return _verdict(False, "certificate does not dominate")
    return _verdict(verdict.holds)


def check_ceei_frac(rows, owner, verdict) -> Checked:
    cert = verdict.certificate
    if verdict.holds:
        return _verdict(True, fractional_support_problem(rows, owner, list(cert.prices)))
    n = len(rows)
    values = bundle_values(rows, owner)
    if hasattr(cert, "ratio_gap"):
        i, j = cert.agent, cert.object
        best = max(Fraction(rows[k][j], values[k][k]) for k in range(n) if values[k][k])
        if owner[j] != i or values[i][i] == 0 or Fraction(rows[i][j], values[i][i]) >= best:
            return _verdict(False, "ratio gap does not hold")
        return _verdict(False)
    if values[cert.agent][cert.agent] != 0 or not prefers_bundle(rows, owner, cert.agent, cert.objects):
        return _verdict(False, "violating bundle is not preferred")
    return _verdict(False)


def check_ceei_disc(rows, owner, verdict) -> Checked:
    cert = verdict.certificate
    if verdict.holds:
        return _verdict(True, discrete_support_problem(rows, owner, list(cert.prices)))
    if not prefers_bundle(rows, owner, cert.agent, cert.objects):
        return _verdict(False, "violating bundle is not preferred")
    return _verdict(False)


# ---------------------------------------------------------------------------
# Searches.
# ---------------------------------------------------------------------------


def check_welfare_result(rows, result) -> Checked:
    owner = list(result.best.owner)
    if len(owner) != len(rows[0]) or nash_product(rows, owner) != result.welfare:
        return Checked(result.optimal, "welfare differs from the assignment's Nash product")
    return Checked(result.optimal, None, text(result.welfare) if result.optimal else None)


def supporting_fractional_prices(rows, owner):
    n, m = len(rows), len(rows[0])
    values = bundle_values(rows, owner)
    own = [values[i][i] for i in range(n)]
    if any(v == 0 for v in own):
        return None
    return [max(Fraction(rows[i][j], own[i]) for i in range(n)) for j in range(m)]


def check_frac_exists(rows, found) -> Checked:
    if found is None:
        return Checked(True, None, "none")
    owner = list(found.owner)
    prices = supporting_fractional_prices(rows, owner)
    problem = "no supporting prices" if prices is None else fractional_support_problem(rows, owner, prices)
    return Checked(True, problem, "exists")


def check_disc_exists(rows, found) -> Checked:
    if found is None:
        return Checked(True, None, "none")
    y, prices = found
    return Checked(True, discrete_support_problem(rows, list(y.owner), list(prices)), "exists")


def check_identical_split(rows, found) -> Checked:
    weights = rows[0]
    if found is None:
        problem = "an equal split exists" if len(rows) == 2 and has_equal_bipartition(weights) else None
        return Checked(True, problem, "none")
    sums = [0] * len(rows)
    for j, k in enumerate(found.owner):
        sums[k] += weights[j]
    return Checked(True, None if len(set(sums)) == 1 else "bundle sums differ", "exists")


# ---------------------------------------------------------------------------
# CLI reports.
# ---------------------------------------------------------------------------


def _exact(value):
    return Fraction(value["exact"])


def check_cli(command, rows, owner, gen_path, result) -> Checked:
    """Exit code 0/1 with one JSON report on stdout, and the report re-checked."""
    code = result.code
    try:
        report = json.loads(result.stdout)
    except ValueError:
        report = None
    answer = f"exit {code}"
    if code not in (0, 1) or not isinstance(report, dict):
        return Checked(False, None, answer)
    body = report.get("result", {})
    problem = None
    if command == "gen":
        # `gen random --seed s` on 2x4 must write exactly the seeded matrix the other commands read
        with open(gen_path, encoding="utf-8") as handle:
            if json.load(handle).get("utilities") != rows:
                problem = "generated document differs from the seeded matrix"
    elif command == "check-ef":
        if body.get("holds") != (code == 0) or body.get("holds") != (envy_pair(rows, owner) is None):
            problem = "envy verdict differs from direct comparison"
    elif command.startswith("check-"):
        if body.get("holds") != (code == 0):
            problem = "exit code disagrees with the verdict"
        elif body["holds"]:
            prices = [_exact(p) for p in body["certificate"]["prices"]]
            support = fractional_support_problem if command == "check-ceei-frac" else discrete_support_problem
            problem = support(rows, owner, prices)
    elif command == "solve":
        if not body.get("certified_exact"):
            return Checked(False, None, answer)
        x = [[_exact(v) for v in r] for r in body["x"]]
        problem = equilibrium_problem(rows, x, [_exact(v) for v in body["u_star"]], [_exact(v) for v in body["p_star"]])
    elif command == "search-mnw":
        if _exact(body["welfare"]) != nash_product(rows, body["owner"]):
            problem = "welfare differs from the assignment's Nash product"
    return Checked(True, problem, answer)

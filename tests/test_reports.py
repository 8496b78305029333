"""Every command of the report corpus still prints what `tests/reports/` records.

The corpus records behaviour, it is not an oracle: a change that means to
alter a report rewrites that case with `tests/report_corpus.py`, which this
module never calls.  So each recorded answer small enough to enumerate, and
each recorded equilibrium, is also checked against `tests/oracles.py`, which
shares no code with the verifiers, searches and solver that printed it; and
each record run under `--limit-nodes` is checked against the record of the
same command without it.
"""

import json
import math
from fractions import Fraction
from itertools import product

import pytest

from ceei import DiscreteAssignment, parse_instance
from oracles import (
    first_dominating_assignment,
    first_envy_pair,
    first_ratio_gap,
    max_nash_by_product,
    owner_values,
    recheck_discrete_price_support,
    recheck_fractional_price_support,
    recheck_market_equilibrium,
)
from report_corpus import CASES, DOCUMENTS, REPORTS, render, run_case


def test_every_case_has_one_file_and_every_file_a_case():
    assert sorted(path.name for path in REPORTS.iterdir()) == sorted(f"{name}.json" for name in CASES)


def _records():
    return [json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8")) for name in CASES]


def test_no_record_exits_4():
    # exit 4 is retired: every walk counts its nodes and stops with exit 5
    assert [record["argv"] for record in _records() if record["exit"] == 4] == []


def test_records_cover_every_command_and_exit():
    # CI checks the installed `ceei` with this corpus, not with commands of its own
    records = _records()
    assert {"gen", "check", "search", "solve"} <= {record["argv"][0] for record in records}
    assert {0, 1, 2, 3, 5} <= {record["exit"] for record in records}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_unchanged(name):
    recorded = (REPORTS / f"{name}.json").read_text(encoding="utf-8")
    record = run_case(CASES[name])
    assert record == json.loads(recorded)
    assert render(record) == recorded  # key order and layout too


def _fractionally_supported(inst, owner):
    """CEEI-frac from its definition: every equilibrium utility is positive,
    and the only candidate prices put each object at its best ratio
    max_k u_kj / v_k, which they support iff every owner attains it."""
    return 0 not in owner_values(inst, owner) and first_ratio_gap(inst, DiscreteAssignment(owner)) is None


def _prices(certificate):
    return [Fraction(p["exact"]) for p in certificate["prices"]]


def _answered(path):
    """A record whose answer an oracle can decide: a solved equilibrium, or a
    check or search verdict, owner vector or "none" over at most 4096 owner
    vectors, or a ratio gap, which takes O(n·m) at any size."""
    record = json.loads(path.read_text(encoding="utf-8"))
    if record["report"] is None:
        return False
    if record["argv"][0] == "solve":
        return True
    result, size = record["report"]["result"], record["report"]["instance"]
    if (result.get("certificate") or {}).get("type") == "ratio_gap":
        return True
    answered = "owner" in result or result.get("status") == "none"
    return answered and size["agents"] ** size["objects"] <= 4096


@pytest.mark.parametrize("name", sorted(path.stem for path in REPORTS.glob("*.json") if _answered(path)))
def test_recorded_answer_agrees_with_the_oracles(name):
    record = json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8"))
    command, document, *rest = record["argv"]
    inst = parse_instance(DOCUMENTS[document])
    result = record["report"]["result"]
    owner = result.get("owner")
    if command == "solve":
        x = [[Fraction(share["exact"]) for share in row] for row in result["x"]]
        assert result["certified_exact"]
        utilities = [Fraction(u["exact"]) for u in result["u_star"]]
        assert recheck_market_equilibrium(inst, [Fraction(p["exact"]) for p in result["p_star"]], x, utilities)
        return
    if command == "check":
        notion, y, certificate = rest[1], DiscreteAssignment(owner), result["certificate"]
        if notion == "ef":
            pair = first_envy_pair(inst, y)
            assert result["holds"] == (pair is None)
            assert certificate is None or (certificate["envious"], certificate["envied"]) == pair
        elif notion == "po":
            better = first_dominating_assignment(inst, y)
            assert result["holds"] == (better is None)
            assert certificate is None or tuple(certificate["owner"]) == better.owner
        elif notion == "ceei-frac":
            assert result["holds"] == _fractionally_supported(inst, owner)
            if result["holds"]:
                assert recheck_fractional_price_support(inst, y, _prices(certificate))
            elif certificate["type"] == "ratio_gap":
                gap = certificate["agent"], certificate["object"], Fraction(certificate["gap"]["exact"])
                assert gap == first_ratio_gap(inst, y)
        elif result["holds"]:  # ceei-disc, which implies envy-freeness
            assert recheck_discrete_price_support(inst, y, _prices(certificate))
            assert first_envy_pair(inst, y) is None
        else:  # not ceei-disc, so not ceei-frac, with a bundle its agent prefers
            assert not _fractionally_supported(inst, owner)
            agent, objects = certificate["agent"], certificate["objects"]
            assert sum(inst.utilities[agent][j] for j in objects) > owner_values(inst, owner)[agent]
        return
    target, status = rest[0], result["status"]
    if target == "mnw":
        welfare = Fraction(result["welfare"]["exact"])
        assert welfare == math.prod(owner_values(inst, owner))
        optimum = max_nash_by_product(inst)[1]
        assert welfare == optimum if status == "optimal" else welfare <= optimum
    elif status == "found":
        if target == "ceei-frac":
            assert _fractionally_supported(inst, owner)
        else:
            assert recheck_discrete_price_support(inst, DiscreteAssignment(owner), _prices(result))
    else:  # "none": no owner vector is ceei-frac, since that would make it ceei-disc too
        assert not any(_fractionally_supported(inst, o) for o in product(range(inst.n), repeat=inst.m))


_LIMITED = sorted(name for name, argv in CASES.items() if argv[-2:-1] == ["--limit-nodes"] and int(argv[-1]) >= 1)


@pytest.mark.parametrize("name", _LIMITED)
def test_a_node_limit_only_stops_the_walk(name):
    # a limited run answers as the unlimited one does, or exits 5 after its
    # `limit` nodes; a truncated welfare is at most the unlimited optimum
    record = json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8"))
    argv, limit = record["argv"], int(record["argv"][-1])
    full = next(r for r in _records() if r["argv"] == argv[:-2])
    result, answer = record["report"]["result"], full["report"]["result"]
    if record["exit"] == 0:
        assert (full["exit"], answer) == (0, result)
        return
    assert record["exit"] == 5 and result["nodes_explored"] == limit
    assert answer.get("nodes_explored", limit + 1) > limit
    if result["status"] == "truncated":
        assert Fraction(result["welfare"]["exact"]) <= Fraction(answer["welfare"]["exact"])

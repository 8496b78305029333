"""Every command of the report corpus still prints what `tests/reports/` records.

The corpus records behaviour, it is not an oracle: a change that means to
alter a report rewrites that case with `tests/report_corpus.py`, which this
module never calls.
"""

import json

import pytest

from report_corpus import CASES, REPORTS, render, run_case


def test_every_case_has_one_file_and_every_file_a_case():
    assert sorted(path.name for path in REPORTS.iterdir()) == sorted(f"{name}.json" for name in CASES)


def test_no_record_exits_4():
    # exit 4 is retired: every walk counts its nodes and stops with exit 5
    records = [json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8")) for name in CASES]
    assert [record["argv"] for record in records if record["exit"] == 4] == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_unchanged(name):
    recorded = (REPORTS / f"{name}.json").read_text(encoding="utf-8")
    record = run_case(CASES[name])
    assert record == json.loads(recorded)
    assert render(record) == recorded  # key order and layout too

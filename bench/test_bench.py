"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ceei  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90  # ranks 91..100 lie beyond it
    assert run.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        run.percentile(values[:99], 90)  # only 9 beyond


def test_times_scale_to_the_faster_probe():
    ref = run.PROBE_REFERENCE_S
    assert run.scaled(1.0, ref, 3 * ref) == 1.0
    assert run.scaled(1.0, 2 * ref, 2 * ref) == 0.5  # a host at half speed: half the seconds


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, op=0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0, 100, -1),
        _span("child", 10, 40, 0),
        _span("grandchild", 15, 25, 1),
        _span("child", 50, 70, 0),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_layer_metrics_aggregate_by_name():
    spans = [
        _span("fairness.verify_ceei_disc", 0, 100, -1),
        _span("simplex.maximize", 10, 90, 0),
        _span("fairness.verify_ceei_disc", 100, 110, -1),
    ]
    spans[1].attrs.update(rows=30, cols=9)
    layers = tracing.layer_metrics(spans, 0.01)
    assert layers["fairness.verify_ceei_disc.calls"] == (2, "count")
    assert layers["fairness.verify_ceei_disc.self_s"][0] == pytest.approx(30e-9)
    assert layers["fairness.verify_ceei_disc.lp_ratio"][0] == 0.5
    assert layers["simplex.maximize.rows"][0] == 30
    assert list(layers) == [name for name, _ in tracing.PER_LAYER]


def test_install_nests_spans_and_restores_call_sites():
    import ceei.equilibrium

    original = ceei.equilibrium.max_flow
    tracer = tracing.Tracer()
    root = tracer.begin("equilibrium.solve_eg")
    with tracing.install(tracer):
        ceei.solve_eg(ceei.Instance([[95, 5, 2, 1], [1, 2, 5, 95]]))
    tracer.end(root)
    assert ceei.equilibrium.max_flow is original
    flows = [s for s in tracer.spans if s.name == "flow.max_flow.from_equilibrium"]
    assert flows and all(s.parent == root for s in flows)
    assert flows[-1].attrs["saturated"]


ROWS = [[95, 5, 2, 1], [1, 2, 5, 95]]
OWNER = [0, 0, 1, 1]


def test_discrete_price_recheck_rejects_tampered_prices():
    verdict = ceei.verify_ceei_disc(ceei.Instance(ROWS), ceei.DiscreteAssignment(OWNER))
    prices = list(verdict.certificate.prices)
    assert verdict.holds and checks.discrete_support_problem(ROWS, OWNER, prices) is None
    prices[1] -= Fraction(1, 2)  # agent 0 can now afford a better bundle
    assert checks.discrete_support_problem(ROWS, OWNER, prices) is not None


def test_fractional_price_recheck_rejects_tampered_prices():
    verdict = ceei.verify_ceei_frac(ceei.Instance(ROWS), ceei.DiscreteAssignment(OWNER))
    prices = list(verdict.certificate.prices)
    assert checks.fractional_support_problem(ROWS, OWNER, prices) is None
    prices[0] += Fraction(1, 100)
    assert checks.fractional_support_problem(ROWS, OWNER, prices) is not None


def test_equilibrium_recheck_rejects_tampered_prices():
    solution = ceei.solve_eg(ceei.Instance(ROWS))
    x = [list(r) for r in solution.x.rows]
    u, p = list(solution.u_star), list(solution.p_star)
    assert checks.equilibrium_problem(ROWS, x, u, p) is None
    p[0], p[3] = p[3] + Fraction(1, 10), p[0] - Fraction(1, 10)
    assert checks.equilibrium_problem(ROWS, x, u, p) is not None


class _Op:
    key = "search/brute/2x12/0:brute"

    def __init__(self, answer):
        self.check = lambda result: checks.Checked(True, None, answer)


def test_reference_mismatch_counts_as_failed_call():
    tally = run.Tally({_Op.key: "42"})
    tally.add(run.Record(_Op("42"), 0.1, result=object()))
    tally.add(run.Record(_Op("41"), 0.1, result=object()))
    tally.add(run.Record(_Op("42"), 0.1, exc=ceei.NonConvergence(3, 1.0)))
    assert (tally.attempted, tally.exact, tally.failed, tally.wrong) == (3, 1, 2, 1)
    assert tally.failures == {"reference": 1, "raised:NonConvergence": 1}


class _Uncertified:
    key = "solve/20x40/1:solve_eg"

    def check(self, solution):
        return checks.check_solution(ROWS, solution)


def test_inexact_answer_to_a_referenced_op_counts_as_wrong():
    solution = ceei.solve_eg(ceei.Instance(ROWS))
    uncertified = dataclasses.replace(solution, certified=False)
    tally = run.Tally({_Uncertified.key: "sha256:0"})
    tally.add(run.Record(_Uncertified(), 0.1, result=uncertified))
    assert (tally.attempted, tally.exact, tally.failed, tally.wrong) == (1, 0, 1, 1)
    assert tally.failures == {"inexact": 1}
    unreferenced = run.Tally({})
    unreferenced.add(run.Record(_Uncertified(), 0.1, result=uncertified))
    assert (unreferenced.exact, unreferenced.failed, unreferenced.unreferenced) == (0, 0, 1)


def test_verify_inputs_use_the_recorded_max_nash_owner():
    reference = run.load_reference()
    owners = reference["nash_owners"]
    family = workloads.VERIFY[0][0]
    key = f"{family.name}/0"
    assert owners[key] == checks.max_nash_owner(workloads.family_rows(family, 0))
    assert set(owners) == {f"{f.name}/{s}" for f, _calls in workloads.VERIFY for s in f.every_seed()}


def test_generator_matches_gen_random():
    for seed in (0, 5, 17):
        expected = ceei.gen_random(20, 40, 100, seed=seed).utilities
        assert ceei.Instance(workloads.random_rows(20, 40, 100, seed)).utilities == expected


def test_same_seed_same_inputs_and_strata_cover_pools():
    reference = run.load_reference()
    strata = reference["strata"]
    first = [op.key for op in workloads.build("search", 7, reference).ops]
    assert first == [op.key for op in workloads.build("search", 7, reference).ops]
    assert first != [op.key for op in workloads.build("search", 8, reference).ops]
    for table in workloads.TABLES.values():
        for family, _calls in table:
            if family.pool:
                assert sorted(strata[family.name]) == list(range(family.pool))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0 and result.stdout == ""

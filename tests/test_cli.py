import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ceei import Instance, cli, gen_random, serialize_instance
from ceei.cli import main
from ceei.errors import DEFAULT_BUNDLE_LIMIT, DEFAULT_ENUM_LIMIT
from oracles import checks
from report_corpus import DOCUMENTS


@pytest.fixture
def workdir(tmp_path):
    """A directory holding every document of the report corpus."""
    for name, text in DOCUMENTS.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def _uniform_doc(n, m, value=1):
    return json.dumps({"agents": n, "objects": m, "utilities": [[value] * m] * n})


NON_SOLVER_PROBE = """
import contextlib, io, sys
from ceei import (
    DiscreteAssignment, Instance, binary_max_nash, brute_force_max_nash, exists_ceei_disc_bruteforce,
    exists_ceei_frac_discrete, find_ceei_disc_identical, is_envy_free, is_pareto_optimal_discrete,
    max_nash_discrete, verify_ceei_disc, verify_ceei_frac,
)
from ceei.cli import main

inst, binary = Instance([[95, 5, 2, 1], [1, 2, 5, 95]]), Instance([[1, 1, 0], [0, 1, 1]])
for verifier in (is_envy_free, is_pareto_optimal_discrete, verify_ceei_frac, verify_ceei_disc):
    verifier(inst, DiscreteAssignment([0, 0, 1, 1]))
for search in (brute_force_max_nash, max_nash_discrete, exists_ceei_frac_discrete, exists_ceei_disc_bruteforce):
    search(inst)
binary_max_nash(binary)
exists_ceei_frac_discrete(binary)
find_ceei_disc_identical(Instance([[2, 1, 1], [2, 1, 1]]))
separation, even, binary_gap, ident, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["check", separation, even, notion]) for notion in ("ef", "po", "ceei-frac", "ceei-disc")]
    codes += [main(["search", separation, target]) for target in ("mnw", "ceei-frac", "ceei-disc")]
    codes += [main(["search", binary_gap, "mnw"]), main(["search", ident, "ceei-disc"])]
    codes += [main(["gen", "random", "--out", out]), main(["gen", "partition", "--set", "2,1,1", "--out", out])]
print(codes, "numpy" in sys.modules)
"""

# the exit code of `ceei <argv>` (none for a bare `import ceei`) and the
# `ceei` modules loaded once it returns
LOADED_PROBE = """
import contextlib, io, json, sys
import ceei
code = None
if sys.argv[1:]:
    from ceei.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
watched = ("ceei", "dataclasses", "inspect")
print(json.dumps([code, sorted(name for name in sys.modules if name.partition(".")[0] in watched)]))
"""


def _loaded(workdir, *argv):
    """Exit code and set of `ceei`, `dataclasses` and `inspect` modules of one
    command, run in a new interpreter."""
    paths = [workdir / arg if arg.endswith(".json") else arg for arg in argv]
    code, modules = json.loads(_fresh_python(LOADED_PROBE, *paths))
    return code, set(modules)


def _fresh_python(probe, *args, flags=()):
    """stdout of `probe` run in a new interpreter that imports ceei from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", probe, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def run_invalid(capsys, *argv):
    """Exit code, stdout and stderr of arguments on which the parser exits."""
    with pytest.raises(SystemExit) as exit_info:
        main([str(a) for a in argv])
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


class TestSolve:
    def test_single_agent_prices_sum_to_one(self, workdir, capsys):
        (workdir / "solo.json").write_text('{"agents":1,"objects":2,"utilities":[[3,1]]}')
        code, report, _ = run(capsys, "solve", workdir / "solo.json")
        assert code == 0
        decimals = [p["decimal"] for p in report["result"]["p_star"]]
        assert sum(decimals) == 1.0

    def test_iteration_starved_solver_exits_3(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr("ceei.equilibrium._MAX_STEPS", 1)
        code, report, err = run(capsys, "solve", workdir / "separation.json")
        assert code == 3
        assert report is None
        assert "no equilibrium" in err

    def test_loose_tolerance_exits_3(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr("ceei.equilibrium._GAP_FLOOR", 0.5)
        (workdir / "r4x8.json").write_text(serialize_instance(gen_random(4, 8, 100, seed=1)))
        code, report, err = run(capsys, "solve", workdir / "r4x8.json")
        assert code == 3
        assert report is None
        assert "no equilibrium" in err

    def test_utility_beyond_float_range_solves(self, workdir, capsys):
        huge = 10**400
        (workdir / "huge.json").write_text(
            f'{{"agents":2,"objects":2,"utilities":[[{huge},1],[1,1]]}}'
        )
        code, report, _ = run(capsys, "solve", workdir / "huge.json")
        assert code == 0
        assert report["result"]["certified_exact"]
        assert report["result"]["u_star"][0] == {"exact": str(huge), "decimal": None}

    def test_large_random_instance_solves(self, workdir, capsys):
        rows = [[int(v) for v in row] for row in gen_random(20, 40, 100, seed=0).utilities]
        document = {"agents": 20, "objects": 40, "utilities": rows}
        (workdir / "r20x40.json").write_text(json.dumps(document))
        code, report, _ = run(capsys, "solve", workdir / "r20x40.json")
        assert code == 0
        assert report["result"]["certified_exact"]

    def test_utility_lost_to_float_rounding_solves(self, workdir, capsys):
        (workdir / "lost.json").write_text(
            f'{{"agents":2,"objects":2,"utilities":[[{10**400},1],[1,0]]}}'
        )
        code, report, _ = run(capsys, "solve", workdir / "lost.json")
        assert code == 0
        assert report["result"]["p_star"][1]["decimal"] == 0.0

    def test_object_valued_only_below_float_range_solves(self, workdir, capsys):
        huge = 10**400
        (workdir / "tied.json").write_text(
            f'{{"agents":2,"objects":3,"utilities":[[{huge},1,0],[{huge},2,1]]}}'
        )
        code, report, _ = run(capsys, "solve", workdir / "tied.json")
        assert code == 0
        assert report["result"]["certified_exact"]
        assert report["result"]["p_star"][2]["exact"] == f"2/{huge + 3}"

    def test_singular_newton_system_exits_3(self, workdir, capsys, monkeypatch):
        import numpy

        def singular(*_):
            raise numpy.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(numpy.linalg, "solve", singular)
        code, report, err = run(capsys, "solve", workdir / "separation.json")
        assert code == 3
        assert report is None
        assert "no equilibrium" in err

    def test_importing_the_cli_does_not_load_numpy(self):
        assert _fresh_python("import sys, ceei.cli; print('numpy' in sys.modules)") == "False"

    def test_non_solver_entry_points_do_not_load_numpy(self, workdir):
        # numpy costs ~11 MB of resident memory; only solve_eg may load it
        args = [workdir / name for name in ("separation.json", "even.json", "binary-gap.json", "identical.json")]
        assert _fresh_python(NON_SOLVER_PROBE, *args, workdir / "gen.json") == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] False"

    def test_importing_the_package_loads_no_submodule(self, workdir):
        assert _loaded(workdir) == (None, {"ceei"})

    def test_the_answer_checker_loads_no_ceei_module(self):
        # the tests' envy, max-Nash and certificate references stay
        # independent of the code under test only while this holds
        probe = "import sys; sys.path.insert(0, sys.argv[1]); import checks; print('ceei' in sys.modules)"
        assert _fresh_python(probe, Path(checks.__file__).parent) == "False"

    def test_gen_loads_only_what_every_command_uses(self, workdir):
        # neither `dataclasses` nor `inspect`, which it imports
        assert _loaded(workdir, "gen", "random", "--out", "gen.json") == (
            0,
            {"ceei", "ceei.cli", "ceei.errors", "ceei.model", "ceei.instances"},
        )

    @pytest.mark.parametrize(
        "argv, engine, absent",
        [
            (
                ("check", "separation.json", "even.json", "ef"),
                "fairness",
                {"ceei.equilibrium", "ceei.search", "ceei._flow", "dataclasses", "inspect"},
            ),
            # the solver's result types are dataclasses, and numpy imports `inspect`
            (("solve", "separation.json"), "equilibrium", {"ceei.search", "ceei.fairness", "ceei.simplex"}),
            (("search", "separation.json", "mnw"), "search", {"ceei.equilibrium", "dataclasses", "inspect"}),
        ],
        ids=["check-ef", "solve", "search-mnw"],
    )
    def test_each_command_loads_its_engine_and_not_the_others(self, workdir, argv, engine, absent):
        code, modules = _loaded(workdir, *argv)
        assert code == 0
        assert f"ceei.{engine}" in modules
        assert modules.isdisjoint(absent)

    def test_check_loads_no_typing(self, workdir):
        # -S skips `site`, whose .pth files may import `typing` before ceei does
        argv = ["check", workdir / "separation.json", workdir / "even.json", "ef"]
        probe = "import sys; from ceei.cli import main; code = main(sys.argv[1:]); print(code, 'typing' in sys.modules)"
        assert _fresh_python(probe, *argv, flags=["-S"]).splitlines()[-1] == "0 False"


# every command that takes --limit-nodes, up to that option
@pytest.mark.parametrize(
    "prefix",
    [("check", "separation.json", "even.json", notion) for notion in ("ef", "po", "ceei-frac", "ceei-disc")]
    + [("search", "separation.json", target) for target in ("mnw", "ceei-frac", "ceei-disc")],
    ids=lambda prefix: f"{prefix[0]}-{prefix[-1]}",
)
@pytest.mark.parametrize("limit", ["0", "-1"])
def test_limit_nodes_below_one_exits_2(workdir, capsys, prefix, limit):
    command, *rest = prefix
    paths = [workdir / arg if arg.endswith(".json") else arg for arg in rest]
    code, out, err = run_invalid(capsys, command, *paths, "--limit-nodes", limit)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"ceei {command}: error: argument --limit-nodes: must be an int of at least 1, not '{limit}'"
    )


class TestCheck:
    def test_po_limit_counts_nodes_not_owner_vectors(self, workdir, capsys):
        # 2^4 owner vectors, but the walk decides at its root: one node
        code, report, _ = run(
            capsys,
            "check", workdir / "separation.json", workdir / "even.json", "po",
            "--limit-nodes", 2,
        )
        assert code == 0
        assert report["config"]["limit_nodes"] == 2
        assert (report["result"]["holds"], report["result"]["certificate"]) == (True, None)

    def test_po_on_many_objects_gets_a_report(self, workdir, capsys):
        (workdir / "wide.json").write_text(_uniform_doc(1, 1500))
        (workdir / "all_zero.json").write_text(json.dumps({"owner": [0] * 1500}))
        code, report, _ = run(
            capsys, "check", workdir / "wide.json", workdir / "all_zero.json", "po"
        )
        assert code == 0
        assert report["result"]["holds"] is True

    def test_malformed_assignment_exits_2(self, workdir, capsys):
        (workdir / "short.json").write_text('{"owner":[0,1]}')
        code, _, _ = run(
            capsys, "check", workdir / "separation.json", workdir / "short.json", "ef"
        )
        assert code == 2

    def test_deeply_nested_document_exits_2(self, workdir, capsys):
        (workdir / "deep.json").write_text("[" * 100000 + "]" * 100000)
        code, report, err = run(
            capsys, "check", workdir / "deep.json", workdir / "even.json", "ef"
        )
        assert code == 2
        assert report is None
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "owner, notion, certificate",
        [
            ([1, 1, 1, 1], "ef", {"type": "envy_pair", "envious": 0, "envied": 1}),
            ([1, 0, 0, 0], "po", {"type": "dominating_assignment", "owner": [0, 0, 0, 1]}),
            ([1, 1, 1, 1], "ceei-disc", {"type": "violating_bundle", "agent": 0, "objects": [0, 1, 2, 3]}),
        ],
        ids=["ef", "po", "ceei-disc"],
    )
    def test_failing_verdict_reports_its_certificate(self, workdir, capsys, owner, notion, certificate):
        (workdir / "owner.json").write_text(json.dumps({"owner": owner}))
        code, report, _ = run(
            capsys, "check", workdir / "separation.json", workdir / "owner.json", notion
        )
        assert code == 1
        assert report["result"] == {"owner": owner, "holds": False, "certificate": certificate}

class TestSearch:
    @pytest.mark.parametrize("target", ["ceei-frac", "ceei-disc"])
    def test_identical_rows_take_the_equal_split_race(self, workdir, capsys, target):
        # a planted 3-Partition yes-instance of six groups: 6^18 owner vectors,
        # far past any walk over them
        doc = workdir / "three-partition-6.json"
        start = time.perf_counter()
        code, report, _ = run(capsys, "search", doc, target)
        assert time.perf_counter() - start < 2
        assert code == 0
        owner = report["result"]["owner"]
        weights = json.loads(doc.read_text())["utilities"][0]
        assert [sum(w for w, o in zip(weights, owner) if o == i) for i in range(6)] == [100] * 6
        code, report, _ = run(capsys, "search", doc, target, "--limit-nodes", 1)
        assert code == 5
        assert report["result"] == {"status": "inconclusive", "nodes_explored": 1, "best_welfare": None}

    def test_cli_exits_5_at_a_leafs_bundle_walk(self, workdir, capsys):
        path = workdir / "tilted2x30.json"
        path.write_text(serialize_instance(Instance([[2] + [1] * 29, [1] * 30])))
        code, report, err = run(capsys, "search", path, "ceei-disc")
        assert (code, err) == (5, "")
        assert report["result"] == {
            "status": "inconclusive", "nodes_explored": DEFAULT_BUNDLE_LIMIT, "best_welfare": None,
        }

    def test_cli_exits_1_past_16_objects_without_an_envy_free_owner_vector(self, workdir, capsys):
        # both agents value object 0 above everything else together, so
        # whoever lacks it envies; the walk drops both one-object prefixes,
        # and no owner vector reaches the verifier or its bundle walk
        start = time.perf_counter()
        code, report, _ = run(capsys, "search", workdir / "envious-2x17.json", "ceei-disc")
        assert time.perf_counter() - start < 0.1
        assert code == 1
        assert report["result"] == {"status": "none"}

    def test_welfare_past_the_int_to_str_limit_gets_a_report(self, workdir, capsys):
        huge = 10**4000  # 4001 digits parse under Python's 4300-digit limit
        (workdir / "huge.json").write_text(
            f'{{"agents":2,"objects":2,"utilities":[[{huge},1],[1,{huge}]]}}'
        )
        code, report, _ = run(capsys, "search", workdir / "huge.json", "mnw")
        assert code == 0
        welfare = report["result"]["welfare"]
        assert welfare["decimal"] is None
        assert welfare["exact"] == "1" + "0" * 8000  # 8001 digits

    def test_node_limit_must_be_an_int(self, workdir, capsys):
        code, _, err = run_invalid(
            capsys, "search", workdir / "separation.json", "mnw", "--limit-nodes", "1.5"
        )
        assert code == 2
        assert err.endswith("must be an int of at least 1, not '1.5'\n")

    def test_truncated_search_exits_5(self, workdir, capsys):
        code, report, _ = run(
            capsys, "search", workdir / "separation.json", "ceei-frac", "--limit-nodes", 2
        )
        assert code == 5
        assert report["result"]["status"] == "inconclusive"

    def test_many_objects_get_a_report(self, workdir, capsys):
        (workdir / "wide.json").write_text(_uniform_doc(1, 1500))
        code, report, _ = run(capsys, "search", workdir / "wide.json", "ceei-frac")
        assert code == 0
        assert report["result"] == {"status": "found", "owner": [0] * 1500}

    def test_budget_on_a_deep_search_exits_5(self, workdir, capsys):
        (workdir / "deep.json").write_text(_uniform_doc(2, 1200, 2))  # not 0/1, so branch and bound
        code, report, _ = run(
            capsys, "search", workdir / "deep.json", "mnw", "--limit-nodes", 5000
        )
        assert code == 5
        assert report["result"]["status"] == "truncated"
        assert report["result"]["nodes_explored"] == 5000


def _write_wide(workdir):
    # 2^14400 owner vectors and bundles: a count of 4335 digits
    (workdir / "wide.json").write_text(
        json.dumps({"agents": 2, "objects": 14400, "utilities": [[1] * 14400, [2] * 14400]})
    )
    (workdir / "all_zero.json").write_text(json.dumps({"owner": [0] * 14400}))


def test_bundle_walk_past_the_int_to_str_limit_exits_5(workdir, capsys):
    # agent 0 owns the first half and values it at 7201 against 7200, so
    # nobody envies, and agent 1's higher ratio on objects 1..7199 is no
    # CEEI-frac: only the bundle walk is left to decide it, and it stops on
    # entering its default 2^16th node
    (workdir / "tilted.json").write_text(
        json.dumps({"agents": 2, "objects": 14400, "utilities": [[2] + [1] * 14399, [1] * 14400]})
    )
    (workdir / "halves.json").write_text(json.dumps({"owner": [0] * 7200 + [1] * 7200}))
    start = time.perf_counter()
    code, report, err = run(capsys, "check", workdir / "tilted.json", workdir / "halves.json", "ceei-disc")
    assert time.perf_counter() - start < 3.0
    assert (code, err) == (5, "")
    assert report["result"] == {"status": "inconclusive", "nodes_explored": 65536, "best_welfare": None}


def test_search_past_the_int_to_str_limit_finds_the_even_split(workdir, capsys):
    # the owner-vector walk drops every prefix giving either agent more than
    # half, so it reaches the 7200/7200 split, CEEI-frac at 1/7200 an object,
    # in about 1.5 nodes an object
    _write_wide(workdir)
    start = time.perf_counter()
    code, report, err = run(capsys, "search", workdir / "wide.json", "ceei-disc")
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert report["result"]["owner"] == [0] * 7200 + [1] * 7200
    assert {p["exact"] for p in report["result"]["prices"]} == {"1/7200"}


@pytest.mark.parametrize(
    "notion, exit_code, certificate",
    [
        # the Pareto walk prunes to 14,400 nodes
        ("po", 0, None),
        # envy refutes price support before any bundle walk
        ("ceei-disc", 1, {"type": "violating_bundle", "agent": 1, "objects": list(range(14400))}),
    ],
    ids=["po", "ceei-disc"],
)
def test_check_past_the_int_to_str_limit_gets_a_report(workdir, capsys, notion, exit_code, certificate):
    _write_wide(workdir)
    code, report, err = run(capsys, "check", workdir / "wide.json", workdir / "all_zero.json", notion)
    assert (code, err) == (exit_code, "")
    assert report["result"]["certificate"] == certificate


class TestGen:
    # the documents `gen random -n 3 -m 5 --binary --seed s` wrote before `--binary` was retired
    @pytest.mark.parametrize(
        "seed, document",
        [
            (0, '{"agents":3,"objects":5,"utilities":[[1,1,0,1,1],[1,1,1,1,0],[0,1,0,0,1]]}'),
            (1, '{"agents":3,"objects":5,"utilities":[[0,0,1,0,1],[1,1,1,0,0],[1,0,1,1,0]]}'),
            (2, '{"agents":3,"objects":5,"utilities":[[0,0,0,1,0],[1,1,0,0,0],[1,1,1,1,1]]}'),
            (3, '{"agents":3,"objects":5,"utilities":[[0,0,1,1,0],[0,1,1,0,1],[1,1,1,0,0]]}'),
            (4, '{"agents":3,"objects":5,"utilities":[[0,1,0,1,1],[0,0,0,0,1],[1,0,1,1,1]]}'),
        ],
    )
    def test_max_util_1_writes_the_old_binary_documents(self, workdir, capsys, seed, document):
        out = workdir / "b.json"
        code, report, _ = run(capsys, "gen", "random", "-n", 3, "-m", 5, "--max-util", 1, "--seed", seed, "--out", out)
        assert code == 0
        assert out.read_text() == document + "\n"
        assert "binary" not in report["config"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["partition"], "field 'set'"),
            (
                ["3partition", "--weights", "3,3,4"],
                "field 'weights': 3partition generation needs --weights and --bound",
            ),
            (
                ["3partition", "--weights", "3,x", "--bound", "10"],
                "field 'weights': expected comma-separated integers",
            ),
        ],
        ids=["no-set", "no-bound", "bad-weights"],
    )
    def test_missing_or_malformed_integers_exit_2(self, workdir, capsys, args, message):
        code, report, err = run(capsys, "gen", *args, "--out", workdir / "x.json")
        assert code == 2
        assert report is None
        assert message in err
        assert not (workdir / "x.json").exists()

    # int() refuses 4,301 digits; a record would hold the argument in its name
    @pytest.mark.parametrize(
        "field, args",
        [("set", ["partition", "--set", "1," + "9" * 4301]), ("weights", ["3partition", "--weights", "3,3,-" + "9" * 4301, "--bound", "10"])],
        ids=["set", "weights"],
    )
    def test_integer_past_the_digit_limit_names_the_limit(self, workdir, capsys, field, args):
        code, report, err = run(capsys, "gen", *args, "--out", workdir / "x.json")
        assert (code, report) == (2, None)
        assert f"field '{field}': a number has more than 4300 digits, Python's int-to-str limit" in err

    def test_generated_instances_are_readable_by_solve(self, workdir, capsys):
        out = workdir / "g.json"
        run(capsys, "gen", "random", "-n", 3, "-m", 5, "--max-util", 9, "--seed", 3, "--out", out)
        code, report, _ = run(capsys, "solve", out)
        assert code == 0
        assert report["result"]["certified_exact"]


class TestReportShape:
    # every walk that stops undecided gets the one "inconclusive" report,
    # whether a verdict or a search asked
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "separation.json", "even.json", "po"),
            ("check", "separation.json", "lopsided.json", "ceei-disc"),
            ("search", "separation.json", "ceei-frac"),
            ("search", "separation.json", "ceei-disc"),
        ],
        ids=["check-po", "check-ceei-disc", "search-ceei-frac", "search-ceei-disc"],
    )
    def test_every_exit_5_prints_one_inconclusive_report(self, workdir, capsys, monkeypatch, argv):
        monkeypatch.chdir(workdir)
        code, report, err = run(capsys, *argv, "--limit-nodes", 1)
        assert (code, err) == (5, "")
        assert list(report) == ["command", "instance", "config", "result", "timings"]
        assert report["result"]["status"] == "inconclusive"
        assert set(report["result"]) == {"status", "nodes_explored", "best_welfare"}

    def test_unexpected_exception_exits_6_with_one_error_line(self, workdir, capsys, monkeypatch):
        def broken(args, report):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_search", broken)
        code, report, err = run(capsys, "search", workdir / "separation.json", "mnw")
        assert code == 6
        assert report is None
        assert err.splitlines() == ["error: internal error: RuntimeError('boom')"]

    def test_closed_stdout_exits_141_without_a_traceback(self, workdir):
        # the read end closes before the child writes, so its report meets a
        # broken pipe, as behind `| head -1` once head has exited
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "ceei", "search", str(workdir / "identical.json"), "ceei-disc"],
                env=dict(os.environ, PYTHONPATH=path),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == cli.EXIT_CLOSED_PIPE == 141
        assert done.stderr == ""


@pytest.mark.parametrize(
    "command, phrases",
    [
        ("check", (f"default {DEFAULT_ENUM_LIMIT}", f"default {DEFAULT_BUNDLE_LIMIT}")),
        ("search", (f"default {DEFAULT_ENUM_LIMIT}", f"at most {DEFAULT_BUNDLE_LIMIT} nodes")),
    ],
    ids=["check", "search"],
)
def test_help_prints_the_limits_that_apply(capsys, command, phrases):
    code, out, _ = run_invalid(capsys, command, "--help")
    text = " ".join(out.split())  # argparse wraps the help to the terminal's width
    assert code == 0
    assert all(phrase in text for phrase in phrases), text

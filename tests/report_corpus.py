"""The report corpus: a fixed list of CLI commands and what each one printed.

`tests/reports/<case>.json` holds, for every case in `CASES`, the argv, the
exit code, the JSON report without its "timings", stderr and, for `gen`, the
document written.  Each command runs in process through `ceei.cli.main`, in a
fresh directory holding every document of `DOCUMENTS`, with `gen` writing to
`out.json`, so no path of the machine reaches a record.

Each check has one home.  The acceptance criteria in
`tests/test_acceptance.py` are the spec.  The records here are every CLI
answer: `tests/test_reports.py` compares each command's output with its
record, and proves each answer small enough to enumerate, every ratio gap
and every solved equilibrium against `tests/oracles.py` and
`bench/checks.py`, which use nothing from `ceei` but its input types.  The
module tests hold what neither can: Python exceptions and their fields,
private engines, monkeypatched faults, wall-clock bounds and seeded sweeps
of the Python API against the oracles.  `tests/test_cli.py`
reads `DOCUMENTS` as well and leaves every report recorded here to this
corpus; it checks exits forced by monkeypatching, fresh interpreters,
wall-clock bounds, help text, documents too large to record and one
seeded sweep of random commands against the exit contract.

CI runs the whole suite once against the installed package (`pip install .`,
then pytest with `-o pythonpath=`), so the records check the installed
package.

A change that means to alter reports rewrites the cases it names, from the
root of the checkout:

    PYTHONPATH=src python tests/report_corpus.py 'solve-*' 'gen-random-*'

Each argument is a case name or an `fnmatch` pattern; `'*'` rewrites all.
"""

from __future__ import annotations

import argparse
import fnmatch
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from ceei.cli import main

REPORTS = Path(__file__).resolve().parent / "reports"
OUT = "out.json"

_B = 10**400  # 10**400 and 10**400 + 1 round to one float, so Newton cannot tell the tied edges apart


def _doc(*rows):
    return json.dumps({"agents": len(rows), "objects": len(rows[0]), "utilities": rows}, separators=(",", ":"))


DOCUMENTS = {
    "separation.json": '{"agents":2,"objects":4,"utilities":[[95,5,2,1],[1,2,5,95]]}',
    "binary-gap.json": '{"agents":2,"objects":3,"utilities":[[1,1,0],[0,1,1]]}',
    "identical.json": '{"agents":2,"objects":3,"utilities":[[2,1,1],[2,1,1]]}',
    "three-partition.json": '{"agents":2,"objects":6,"utilities":[[3,3,4,3,3,4],[3,3,4,3,3,4]]}',
    "odd-partition.json": '{"agents":2,"objects":3,"utilities":[[3,1,1],[3,1,1]]}',
    "rational.json": '{"agents":2,"objects":3,"utilities":[["1/2","1/3",1],["2/3",1,"1/4"]]}',
    # rational utilities whose int rows, each row times its scale, are 0/1
    "binary-rational.json": '{"agents":2,"objects":3,"utilities":[["1/3","1/3",0],[0,"1/2","1/2"]]}',
    # `gen random -n 2 -m 4 --max-util 100 --seed 7` and `-n 3 -m 5 --max-util 9 --seed 3`
    "random-2x4.json": '{"agents":2,"objects":4,"utilities":[[41,19,50,83],[6,9,68,12]]}',
    "random-3x5.json": '{"agents":3,"objects":5,"utilities":[[3,9,8,2,5],[9,7,9,1,9],[0,7,4,8,3]]}',
    "zero-column.json": '{"agents":2,"objects":2,"utilities":[[1,0],[1,0]]}',
    # a 5,001-digit utility, past Python's default int-to-str limit of 4,300
    "past-digit-limit.json": '{"agents":1,"objects":1,"utilities":[[1' + "0" * 5000 + "]]}",
    "near-tie.json": _doc([1, 3 * _B, 1, 1], [_B + 1, 1, 1, 3 * _B], [_B + 1, _B, 0, 0]),
    # 10**6 and 10**6 + 1 differ in floats, so Newton can tell the tied edges apart
    "million-tie.json": _doc([10**6, 10**6], [10**6, 10**6 + 1]),
    # 10**15 + 1 against 10**15 is a tie the 1/sqrt(t) cut cannot see, but
    # its edges' float slacks still order them, so their spanning tree prices it
    "quadrillion-tie.json": _doc([10**15] * 3 + [10**15 + 1], [10**15 + 1] * 4),
    # `gen random -n 5 -m 20 --max-util 100 --seed 2` and `-n 6 -m 22 --max-util 100 --seed 0`
    "random-5x20.json": _doc(
        [7, 11, 10, 46, 21, 94, 85, 39, 32, 77, 27, 77, 4, 74, 87, 20, 55, 81, 50, 92],
        [65, 47, 69, 56, 64, 34, 4, 3, 46, 59, 40, 48, 54, 67, 21, 71, 22, 30, 29, 3],
        [22, 41, 22, 17, 65, 65, 46, 65, 86, 71, 23, 57, 53, 94, 67, 97, 46, 75, 45, 46],
        [57, 20, 96, 51, 91, 94, 59, 83, 67, 31, 62, 35, 63, 64, 65, 45, 84, 58, 59, 44],
        [72, 92, 71, 92, 58, 62, 84, 28, 41, 89, 21, 78, 34, 98, 61, 39, 38, 90, 64, 71],
    ),
    "random-6x22.json": _doc(
        [49, 97, 53, 5, 33, 65, 62, 51, 100, 38, 61, 45, 74, 27, 64, 17, 36, 17, 96, 12, 79, 32],
        [68, 90, 77, 18, 39, 12, 93, 9, 87, 42, 60, 71, 12, 45, 55, 40, 78, 81, 26, 70, 61, 56],
        [66, 33, 7, 70, 1, 11, 92, 51, 90, 100, 85, 80, 0, 78, 63, 42, 31, 93, 41, 90, 8, 24],
        [72, 28, 30, 18, 69, 57, 11, 10, 40, 65, 62, 13, 38, 70, 37, 90, 15, 70, 42, 69, 26, 77],
        [70, 75, 36, 56, 11, 76, 49, 40, 73, 30, 37, 23, 24, 23, 4, 78, 84, 33, 60, 8, 11, 86],
        [96, 16, 19, 4, 10, 89, 69, 87, 50, 90, 67, 35, 66, 30, 27, 86, 75, 53, 74, 35, 57, 63],
    ),
    # `gen random -n 3 -m 10 --max-util 100 --seed 0`
    "random-3x10.json": _doc(
        [49, 97, 53, 5, 33, 65, 62, 51, 100, 38],
        [61, 45, 74, 27, 64, 17, 36, 17, 96, 12],
        [79, 32, 68, 90, 77, 18, 39, 12, 93, 9],
    ),
    # `gen 3partition --bound 100` on a planted yes-instance of six groups:
    # 6^18 owner vectors, but the equal-split race decides it at once
    "three-partition-6.json": _doc(
        *[[34, 45, 26, 29, 26, 41, 28, 29, 26, 29, 39, 30, 38, 44, 32, 41, 30, 33]] * 6
    ),
    # whoever lacks object 0 envies, so the existence walk drops both of its
    # one-object prefixes: no answer, and no bundle walk
    "envious-2x17.json": _doc([100] + [1] * 16, [100] + [0] * 16),
    # separation.json with 13 more objects, each worth 1 to agent 1 only (a
    # document may not hold an object nobody values)
    "padded-2x17.json": _doc([95, 5, 2, 1] + [0] * 13, [1, 2, 5, 95] + [1] * 13),
    # more agents than objects: every assignment leaves an agent with nothing
    "crowded-3x2.json": _doc([2, 1], [1, 2], [1, 1]),
    "even.json": '{"owner":[0,0,1,1]}',
    "lopsided.json": '{"owner":[0,1,1,1]}',
    "lopsided-17.json": '{"owner":[0,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]}',
    "split-3.json": '{"owner":[0,1,1]}',
    "split-6.json": '{"owner":[0,0,0,1,1,1]}',
    "spread-3.json": '{"owner":[0,1,0]}',
    "spread-5.json": '{"owner":[0,1,2,2,1]}',
    # the max-Nash owners of random-3x10, random-5x20 and random-6x22 (`search … mnw`)
    "mnw-3x10.json": '{"owner":[2,0,1,2,2,0,0,0,1,0]}',
    "mnw-5x20.json": '{"owner":[1,4,1,4,1,3,0,3,2,4,3,0,1,2,0,2,3,4,3,0]}',
    "mnw-6x22.json": '{"owner":[5,1,1,2,3,4,1,5,0,5,2,1,5,3,0,3,4,2,0,2,0,4]}',
}

# every instance document that parses, each with one owner vector to check
_CHECKED = {
    "separation": ("even", "lopsided"),
    "binary-gap": ("split-3",),
    "identical": ("split-3",),
    "three-partition": ("split-6",),
    "odd-partition": ("split-3",),
    "rational": ("spread-3",),
    "random-2x4": ("even",),
    "random-3x5": ("spread-5",),
}
_NOTIONS = ("ef", "po", "ceei-frac", "ceei-disc")
_TARGETS = ("mnw", "ceei-frac", "ceei-disc")


def _argvs():
    yield ["check", "separation.json", "even.json", "po", "--limit-nodes", "0"]  # argparse: exit 2
    for doc, owners in _CHECKED.items():
        for owner in owners:
            for notion in _NOTIONS:
                yield ["check", f"{doc}.json", f"{owner}.json", notion]
    yield ["check", "zero-column.json", "even.json", "ef"]
    for notion in ("ef", "po", "ceei-disc"):
        for limit in ("1", "3"):
            yield ["check", "separation.json", "even.json", notion, "--limit-nodes", limit]
    # the even split is CEEI-frac, which takes no limit; the lopsided one is
    # not, so its bundle walk stops on entering its first node
    yield ["check", "separation.json", "lopsided.json", "ceei-disc", "--limit-nodes", "1"]
    # envy-free, not CEEI-frac and 2^17 bundles, but the bundle walk ends
    # once the objects left cannot lift a bundle above its agent's total
    yield ["check", "padded-2x17.json", "lopsided-17.json", "ceei-disc"]
    # envy-free and not CEEI-frac (exit 1), so the LP decides it (exit 0): its
    # prices cost every bundle exactly 1
    for notion in ("ceei-frac", "ceei-disc"):
        yield ["check", "random-3x10.json", "mnw-3x10.json", notion]
    # n^m is past 20M, but the Pareto walk decides each in ~65K nodes
    for shape in ("5x20", "6x22"):
        yield ["check", f"random-{shape}.json", f"mnw-{shape}.json", "po"]
    yield ["check", "random-5x20.json", "mnw-5x20.json", "po", "--limit-nodes", "1"]
    for doc in _CHECKED:
        for target in _TARGETS:
            yield ["search", f"{doc}.json", target]
    for doc in ("separation", "random-3x5", "rational"):
        for target in ("mnw", "ceei-frac", "ceei-disc"):
            for limit in ("1", "3"):
                yield ["search", f"{doc}.json", target, "--limit-nodes", limit]
    yield ["search", "envious-2x17.json", "ceei-disc"]
    # identical rows take the equal-split race, which counts its steps
    for target in ("ceei-frac", "ceei-disc"):
        yield ["search", "identical.json", target, "--limit-nodes", "1"]
    yield ["search", "three-partition-6.json", "ceei-disc"]
    # a zero optimum, decided before branch and bound and so at any limit
    for target in ("mnw", "ceei-frac"):
        yield ["search", "crowded-3x2.json", target]
    yield ["search", "crowded-3x2.json", "mnw", "--limit-nodes", "1"]
    # 0/1 int rows take the polynomial maximizer, which no limit truncates
    yield ["search", "binary-gap.json", "mnw", "--limit-nodes", "1"]
    yield ["search", "binary-rational.json", "mnw"]
    yield ["search", "separation.json", "binary-mnw"]  # argparse: exit 2
    yield ["search", "zero-column.json", "identical-ceei-disc"]  # argparse: exit 2
    for doc in (*_CHECKED, "zero-column", "near-tie", "million-tie", "quadrillion-tie", "absent", "past-digit-limit"):
        yield ["solve", f"{doc}.json"]
    for n, m, top, seed in ((2, 4, 100, 7), (3, 5, 9, 3), (2, 4, 1, 7)):
        yield ["gen", "random", "-n", str(n), "-m", str(m), "--max-util", str(top), "--seed", str(seed)]
    # a split, an odd total, no integers and a non-positive one
    for integers in ("2,1,1", "3,1,1", "", "2,0,1"):
        yield ["gen", "partition", "--set", integers]
    # a split, a weight outside its window, no weights and a sum short of 2 * 10
    for weights in ("3,3,4,3,3,4", "2,4,4,3,3,4", "", "3,3,4,3,3,3"):
        yield ["gen", "3partition", "--weights", weights, "--bound", "10"]


def _name(argv):
    words = [word.removesuffix(".json").lstrip("-").replace(",", "_") or "empty" for word in argv]
    return "-".join(words)


CASES = {_name(argv): argv + (["--out", OUT] if argv[0] == "gen" else []) for argv in _argvs()}


def run_case(argv) -> dict:
    """The record of one `ceei` run: argv, exit code, report, stderr, document."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in DOCUMENTS.items():
            Path(workdir, name).write_text(text, encoding="utf-8")
        os.chdir(workdir)
        try:
            # argparse wraps its usage line to the terminal's width
            with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            written = Path(OUT).read_text(encoding="utf-8") if Path(OUT).exists() else None
        finally:
            os.chdir(home)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        del report["timings"]
    record = {"argv": list(argv), "exit": code, "report": report, "stderr": err.getvalue()}
    if argv[0] == "gen":
        record["document"] = written
    return record


def render(record) -> str:
    return json.dumps(record, indent=2) + "\n"


def _record(patterns):
    names = [name for name in CASES if any(fnmatch.fnmatchcase(name, p) for p in patterns)]
    if not names:
        raise SystemExit(f"no case matches {patterns}")
    REPORTS.mkdir(exist_ok=True)
    for name in names:
        path = REPORTS / f"{name}.json"
        text = render(run_case(CASES[name]))
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if text != old:
            path.write_text(text, encoding="utf-8")
            print(f"{'new' if old is None else 'rewrote'} {path.name}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the report corpus for the cases named.")
    parser.add_argument("patterns", nargs="+", help="case names or fnmatch patterns; '*' for all")
    _record(parser.parse_args().patterns)

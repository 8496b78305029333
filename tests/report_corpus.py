"""The report corpus: a fixed list of CLI commands and what each one printed.

`tests/reports/<case>.json` holds, for every case in `CASES`, the argv, the
exit code, the JSON report without its "timings", stderr and, for `gen`, the
document written.  Each command runs in process through `ceei.cli.main`, in a
fresh directory holding every document of `DOCUMENTS`, with `gen` writing to
`out.json`, so no path of the machine reaches a record.

`tests/test_reports.py` only compares.  A change that means to alter reports
rewrites the cases it names, from the root of the checkout:

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

DOCUMENTS = {
    "separation.json": '{"agents":2,"objects":4,"utilities":[[95,5,2,1],[1,2,5,95]]}',
    "binary-gap.json": '{"agents":2,"objects":3,"utilities":[[1,1,0],[0,1,1]]}',
    "identical.json": '{"agents":2,"objects":3,"utilities":[[2,1,1],[2,1,1]]}',
    "three-partition.json": '{"agents":2,"objects":6,"utilities":[[3,3,4,3,3,4],[3,3,4,3,3,4]]}',
    "odd-partition.json": '{"agents":2,"objects":3,"utilities":[[3,1,1],[3,1,1]]}',
    "rational.json": '{"agents":2,"objects":3,"utilities":[["1/2","1/3",1],["2/3",1,"1/4"]]}',
    # `gen random -n 2 -m 4 --max-util 100 --seed 7` and `-n 3 -m 5 --max-util 9 --seed 3`
    "random-2x4.json": '{"agents":2,"objects":4,"utilities":[[41,19,50,83],[6,9,68,12]]}',
    "random-3x5.json": '{"agents":3,"objects":5,"utilities":[[3,9,8,2,5],[9,7,9,1,9],[0,7,4,8,3]]}',
    "zero-column.json": '{"agents":2,"objects":2,"utilities":[[1,0],[1,0]]}',
    "near-tie.json": json.dumps(
        {"agents": 3, "objects": 4, "utilities": [[1, 3 * _B, 1, 1], [_B + 1, 1, 1, 3 * _B], [_B + 1, _B, 0, 0]]},
        separators=(",", ":"),
    ),
    "even.json": '{"owner":[0,0,1,1]}',
    "lopsided.json": '{"owner":[0,1,1,1]}',
    "split-3.json": '{"owner":[0,1,1]}',
    "split-6.json": '{"owner":[0,0,0,1,1,1]}',
    "spread-3.json": '{"owner":[0,1,0]}',
    "spread-5.json": '{"owner":[0,1,2,2,1]}',
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
_TARGETS = ("mnw", "binary-mnw", "ceei-frac", "ceei-disc", "identical-ceei-disc")


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
    for doc in _CHECKED:
        for target in _TARGETS:
            yield ["search", f"{doc}.json", target]
    for doc in ("separation", "random-3x5"):
        for target in ("mnw", "ceei-frac", "ceei-disc"):
            for limit in ("1", "3"):
                yield ["search", f"{doc}.json", target, "--limit-nodes", limit]
    for doc in (*_CHECKED, "zero-column", "near-tie", "absent"):
        yield ["solve", f"{doc}.json"]
    for n, m, top, seed in ((2, 4, 100, 7), (3, 5, 9, 3), (2, 4, 1, 7)):
        yield ["gen", "random", "-n", str(n), "-m", str(m), "--max-util", str(top), "--seed", str(seed)]
    for integers in ("2,1,1", "3,1,1", ""):
        yield ["gen", "partition", "--set", integers]
    for weights in ("3,3,4,3,3,4", "2,4,4,3,3,4"):
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

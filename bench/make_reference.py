"""Record reference.json: the answer to every op that any seed can draw.

    python3 bench/make_reference.py

Runs the whole pool of every workload through the `ceei` under `src/`,
re-checks each answer with `checks.py`, and stores the mathematically unique
part of every answer that passes (u*/p* digest, verdict, optimal welfare,
existence, CLI exit code).  Calls that raise, such as a `NonConvergence`,
and answers that are not exact get no entry.  It also stores, per family, the pool's seeds ordered by the
time their calls took, which `workloads.build` cuts into strata, and the
max-Nash assignment of every `verify` instance.  CLI ops run through
`run.run_cli`, the same child process the measured runs start.  Re-run it
on an idle machine, and only when the benchmark's inputs change: the table
is meant to stay fixed while the library changes under it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import BENCH, SRC, WORKLOADS, make_work_dir, run_cli


def record(workload, nash_owners, answers, strata):
    """Answer every op of every pool; order each pool's seeds by the time their ops took."""
    import workloads

    work_dir = make_work_dir(f"reference-{workload}")
    started = time.perf_counter()
    skipped = 0
    try:
        for family, instances in workloads.every_op(workload, nash_owners, str(work_dir), run_cli).items():
            cost = {}
            for seed, ops in instances:
                t0 = time.perf_counter()
                for op in ops:
                    try:
                        answer = op.call()
                    except Exception as exc:
                        print(f"  {op.key}: raised {type(exc).__name__}", file=sys.stderr)
                        skipped += 1
                        continue
                    checked = op.check(answer)
                    if checked.problem is not None:
                        raise SystemExit(f"{op.key}: answer fails its recheck ({checked.problem})")
                    if checked.exact and checked.answer is not None:
                        answers[op.key] = checked.answer
                cost[seed] = time.perf_counter() - t0
            if family.pool and workload != "cli":  # cli cost is process start-up, the same for every document
                strata[family.name] = sorted(range(family.pool), key=cost.__getitem__)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{workload}: {len(answers)} answers so far, {skipped} calls raised, "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)


def main():
    sys.path.insert(0, str(SRC))
    import workloads

    nash_owners = workloads.every_nash_owner()
    answers, strata = {}, {}
    for workload in WORKLOADS:
        record(workload, nash_owners, answers, strata)
    with open(BENCH / "reference.json", "w", encoding="utf-8") as handle:
        json.dump({"answers": dict(sorted(answers.items())), "strata": dict(sorted(strata.items())),
                   "nash_owners": dict(sorted(nash_owners.items()))}, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    main()

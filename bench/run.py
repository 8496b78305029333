"""Benchmark runner for the `ceei` toolkit.

    python3 bench/run.py --workload {solve,verify,search,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; `ceei` is imported from `src/`.
Each workload is a closed loop with one client: one process, no threads,
each call sent only after the previous one returned (the `cli` workload
runs one child process at a time).  A run builds the workload's operation
set from the seed, makes one untimed warm-up call, then times complete
passes over the set filling about `--seconds` (always at least one).
Each call's time is scaled to a reference host speed, measured by an
untimed probe loop on each side of the call (see `scaled`).  Every answer
is checked right after its call, untimed (see `checks.py`), compared with
`reference.json`, and dropped.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` each op is called twice, untraced and traced, and the last
line carries the per-layer metrics; the spans are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
CLI_PROBES = 5
CHILD_TIMEOUT_S = 120
PROBE_LOOPS = 3000
PROBE_REFERENCE_S = 400e-6  # about speed_probe() on a quiet 2-vCPU 2.1 GHz Xeon VM; fixes the unit only
WORKLOADS = ("solve", "verify", "search", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("exact_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def percentile(values, q, min_beyond=10):
    """Nearest-rank q-th percentile, refused unless `min_beyond` samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise ValueError(f"p{q} of {len(ordered)} samples has only {len(ordered) - rank} beyond it")
    return ordered[rank - 1]


def speed_probe():
    """Seconds a fixed pure-Python workload takes now: the host's current speed, with no `ceei` code.

    A tight integer loop alone tracks the long calls but not the short ones,
    whose time goes to allocating objects; Fraction and dict work tracks
    those.  The probe does both.
    """
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    value, table = Fraction(0), {}
    for i in range(1, PROBE_LOOPS // 50):
        value += Fraction(i, i + 7)
        table[i, i % 5] = [value.numerator % 11]
    return time.perf_counter() - started


def scaled(seconds, probe_before, probe_after):
    """`seconds` measured between two speed probes, scaled to the host speed of PROBE_REFERENCE_S.

    The host's speed swings by up to 2x for seconds to minutes at a time
    when other tenants load it, and every timing moves with it.  The untimed
    probes on each side of a measurement give the speed at that moment; the
    faster of the two is kept, since a probe can only be slowed.
    """
    return seconds * PROBE_REFERENCE_S / min(probe_before, probe_after)


# ---------------------------------------------------------------------------
# Calls and passes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv) -> CliResult:
    """Run one child process to completion; kill it and raise if it hangs."""
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return CliResult(proc.returncode, stdout, stderr)


def run_cli(argv) -> CliResult:
    return run_child([sys.executable, "-m", "ceei", *argv])


@dataclass
class Record:
    op: object
    seconds: float
    result: object = None
    exc: BaseException = None


def call(op, tracer=None) -> Record:
    """Make one call and time it; with a tracer, as a root span carrying the op's counters."""
    from tracing import op_attrs

    if tracer is not None:
        tracer.op = op.id
        span = tracer.begin(op.name)
    t0 = time.perf_counter()
    try:
        result, exc = op.call(), None
    except Exception as error:  # counted as a failed call, never aborts the run
        result, exc = None, error
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
        tracer.spans[span].attrs.update(op_attrs(op.name, result, exc))
    return Record(op, seconds, result, exc)


def run_pass(ops, tally):
    """Call every op once, in order, each answer checked untimed right after its call.

    Each record's `seconds` are scaled to the reference host speed (see `scaled`).
    """
    records = []
    for op in ops:
        before = speed_probe()
        record = call(op)
        record.seconds = scaled(record.seconds, before, speed_probe())
        tally.add(record)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Answer checking.
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Classifies each call against `reference`: raised, broke a recheck, differed, or passed.

    An inexact answer (uncertified, truncated, no JSON report) to an op whose
    reference entry exists differs from the reference: the exact answer was
    given when the table was recorded.
    """

    reference: dict
    attempted: int = 0
    exact: int = 0
    wrong: int = 0
    unreferenced: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add(self, record):
        """Check one call's answer, then drop it, so answers do not pile up in memory.

        CLI results are kept: they are small, and their reports give `cli.handler_s`.
        """
        try:
            self._classify(record)
        finally:
            if not isinstance(record.result, CliResult):
                record.result = None

    def _classify(self, record):
        self.attempted += 1
        if record.exc is not None:
            self.failures[f"raised:{type(record.exc).__name__}"] += 1
            return
        try:
            checked = record.op.check(record.result)
        except Exception as error:  # a malformed answer is a failed recheck, not a crash
            self.failures[f"recheck:{type(error).__name__}"] += 1
            self.wrong += 1
            return
        expected = self.reference.get(record.op.key)
        if checked.problem is not None:
            self.failures["recheck"] += 1
            self.wrong += 1
        elif expected is None:
            self.unreferenced += 1
            self.exact += checked.exact
        elif not checked.exact:
            self.failures["inexact"] += 1
            self.wrong += 1
        elif checked.answer != expected:
            self.failures["reference"] += 1
            self.wrong += 1
        else:
            self.exact += 1


def load_reference():
    """The table of reference.json: "answers" by op key, "strata" (pool seeds by
    family from easiest to hardest) and "nash_owners" by verify instance key."""
    with open(BENCH / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def setup_probe(workload, seed):
    """In this fresh process: import ceei, build the inputs, make the warm-up call."""
    started = time.perf_counter()
    import workloads

    work_dir = make_work_dir(f"probe-{workload}")
    try:
        workloads.build(workload, seed, load_reference(), str(work_dir), run_cli).warmup.call()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(repr(time.perf_counter() - started))
    return 0


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed_probe()
        probe = run_child([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"])
        if probe.code != 0:
            raise RuntimeError(f"setup probe failed: {probe.stderr.strip()}")
        samples.append(scaled(float(probe.stdout.split()[-1]), before, speed_probe()))
    return statistics.median(samples)


def make_work_dir(label):
    path = OUT / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def latencies_ms(record_passes):
    """Per-op latency: each op's fastest call over the passes, in ms, at the reference host speed.

    `wall_s` is the sum of these latencies: the time the operation set takes.
    """
    return [min(r.seconds for r in records) * 1e3 for records in zip(*record_passes)]


def end_to_end(workload, seed, seconds):
    import workloads

    reference = load_reference()
    work_dir = make_work_dir(f"run-{workload}")
    try:
        opset = workloads.build(workload, seed, reference, str(work_dir), run_cli)
        opset.warmup.call()
        counts = Tally(reference["answers"])
        passes = max(1, round(seconds / workloads.PASS_SECONDS[workload]))
        record_passes = [run_pass(opset.ops, counts) for _ in range(passes)]
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup_s = measure_setup(workload, seed)
    latency = latencies_ms(record_passes)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(latency) / 1e3,
        "op_p50_ms": percentile(latency, 50),
        "op_p90_ms": percentile(latency, 90),
        "exact_ratio": counts.exact / counts.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {workload}, seed {seed}: {len(opset.ops)} calls per pass, {passes} pass(es), "
          f"closed loop, one client")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {values[name]:>12.6g} {unit}")
    print(f"  latency samples: {len(latency)} ops, {len(latency) - math.ceil(0.9 * len(latency))} beyond p90")
    print(f"  fail_ratio   {counts.failed / counts.attempted:>12.6g}  ({counts.failed}/{counts.attempted}"
          f"{'; ' if counts.failures else ''}{', '.join(f'{k}={v}' for k, v in sorted(counts.failures.items()))})")
    print(f"  answers compared with reference.json: {counts.attempted - counts.unreferenced}/{counts.attempted}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return counts, metrics


def cli_layers(records):
    """Bare interpreter start, `import ceei`, and the handler time the pass's reports give."""
    interpreter = [timed_child([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES)]
    importing = [timed_child([sys.executable, "-c", "import ceei"]) for _ in range(CLI_PROBES)]
    handler = 0.0
    for record in records:
        try:
            handler += json.loads(record.result.stdout)["timings"]["total_seconds"]
        except (AttributeError, ValueError, KeyError, TypeError):
            pass  # no report: the call is already counted as failed or inexact
    return {"interpreter_s": statistics.median(interpreter), "import_s": statistics.median(importing),
            "handler_s": handler}


def timed_child(argv):
    started = time.perf_counter()
    result = run_child(argv)
    if result.code != 0:
        raise RuntimeError(f"{argv[1:]} failed: {result.stderr.strip()}")
    return time.perf_counter() - started


def traced(workload, seed):
    """Each op twice, untraced and traced, back to back so both see the same machine speed."""
    import tracing
    import workloads

    reference = load_reference()
    work_dir = make_work_dir(f"trace-{workload}")
    tracer = tracing.Tracer()
    counts = Tally(reference["answers"])
    plain, spanned = [], []
    try:
        opset = workloads.build(workload, seed, reference, str(work_dir), run_cli)
        opset.warmup.call()
        for op in opset.ops:
            if op.id % 2:  # alternate the order, so neither side always runs on warm caches
                plain.append(call(op))
            with tracing.install(tracer):
                spanned.append(call(op, tracer))
            if not op.id % 2:
                plain.append(call(op))
            counts.add(plain[-1])
            counts.add(spanned[-1])
        cli = cli_layers(spanned) if workload == "cli" else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in spanned)
    layers = tracing.layer_metrics(tracer.spans, traced_s / untraced_s - 1, cli)
    span_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracing.write_spans(span_path, tracer.spans)
    print(f"workload {workload}, seed {seed}: {len(plain)} calls, {untraced_s:.3f} s untraced, "
          f"{traced_s:.3f} s traced, {len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    return counts, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ceei" / "__init__.py").is_file():
        print(f"error: no ceei sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.trace:
        counts, metrics = traced(args.workload, args.seed)
    else:
        counts, metrics = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": counts.wrong == 0, "attempted": counts.attempted,
                      "failed": counts.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

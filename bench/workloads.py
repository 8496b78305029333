"""Inputs and operation sets of the four benchmark workloads.

Every instance is generated here, by the benchmark, and handed to `ceei`
only as an `Instance` object or a JSON document.  An instance is named by a
key such as ``"verify/3x9/17"``: family ``verify/3x9`` (3 agents, 9
objects), generator seed 17.  Random families draw in the same order as
`ceei.gen_random`, so ``"solve/20x40/5"`` is exactly
``gen_random(20, 40, 100, seed=5)``.  An op key adds the call:
``"verify/3x9/17:nash/po"``.

A workload run consists of

* a *pinned* part: the heaviest cases, the same in every run.  One of them
  costs up to 6 s, so drawing them per seed would let a single instance
  decide the run's wall time;
* a *seeded* part: each family's pool of `pool` generator seeds is cut into
  `per_run` strata of equally hard instances (hardness = time taken when
  `reference.json` was recorded), and the run's ``--seed`` picks one
  instance from each stratum.  Every run thus gets the same mix of easy and
  hard instances, but not the same instances.

Every key of every pool has an entry in ``reference.json``, so each answer
is compared with the answer recorded there.  The max-Nash assignment of
each ``verify`` instance is read from there too, so that building the
inputs does not time the benchmark's own enumeration.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import ceei

import checks


@dataclass(frozen=True)
class Family:
    """Instances of one shape: `pinned` seeds always, `per_run` more drawn from `pool` seeds."""

    name: str
    kind: str  # "random", "binary", "partition_no" or "hard_partition"
    n: int
    m: int
    per_run: int = 0
    pool: int = 0
    pinned: tuple = ()

    def draw(self, rng, order=None) -> list:
        """Pinned seeds, then one seed from each of `per_run` consecutive slices of `order`."""
        order = list(order or range(self.pool))
        picks = [
            rng.choice(order[i * self.pool // self.per_run:(i + 1) * self.pool // self.per_run])
            for i in range(self.per_run)
        ]
        return list(self.pinned) + sorted(picks)

    def every_seed(self) -> list:
        return list(self.pinned) + list(range(self.pool))


@dataclass(frozen=True)
class Call:
    label: str  # last part of the op key
    name: str  # the API entry point, also the span name in traced runs
    run: Callable  # (instance[, assignment]) -> answer
    check: Callable  # (rows[, owner], answer) -> checks.Checked


SOLVE_CALLS = (Call("solve_eg", "equilibrium.solve_eg", ceei.solve_eg, checks.check_solution),)
VERIFY_CALLS = (
    Call("ef", "fairness.is_envy_free", ceei.is_envy_free, checks.check_envy_free),
    Call("po", "fairness.is_pareto_optimal_discrete", ceei.is_pareto_optimal_discrete, checks.check_pareto),
    Call("ceei_frac", "fairness.verify_ceei_frac", ceei.verify_ceei_frac, checks.check_ceei_frac),
    Call("ceei_disc", "fairness.verify_ceei_disc", ceei.verify_ceei_disc, checks.check_ceei_disc),
)
MNW_CALLS = (
    Call("mnw", "search.max_nash_discrete", ceei.max_nash_discrete, checks.check_welfare_result),
    Call("frac_exists", "search.exists_ceei_frac_discrete", ceei.exists_ceei_frac_discrete, checks.check_frac_exists),
)
BRUTE_CALLS = (Call("brute", "search.brute_force_max_nash", ceei.brute_force_max_nash, checks.check_welfare_result),)
BINARY_CALLS = (Call("binary", "search.binary_max_nash", ceei.binary_max_nash, checks.check_welfare_result),)
DISC_EXISTS_CALLS = (
    Call("disc_exists", "search.exists_ceei_disc_bruteforce", ceei.exists_ceei_disc_bruteforce, checks.check_disc_exists),
)
IDENTICAL_CALLS = (
    Call("identical", "search.find_ceei_disc_identical", ceei.find_ceei_disc_identical, checks.check_identical_split),
)

# (family, calls made on each of its instances), per workload.
SOLVE = (
    (Family("solve/3x6", "random", 3, 6, per_run=480, pool=960), SOLVE_CALLS),
    (Family("solve/4x8", "random", 4, 8, per_run=200, pool=400), SOLVE_CALLS),
    (Family("solve/5x10", "random", 5, 10, per_run=80, pool=160), SOLVE_CALLS),
    (Family("solve/6x12", "random", 6, 12, per_run=32, pool=64), SOLVE_CALLS),
    (Family("solve/8x16", "random", 8, 16, per_run=16, pool=32), SOLVE_CALLS),
    (Family("solve/10x20", "random", 10, 20, per_run=8, pool=16), SOLVE_CALLS),
    (Family("solve/15x30", "random", 15, 30, pinned=tuple(range(6))), SOLVE_CALLS),
    (Family("solve/20x40", "random", 20, 40, pinned=tuple(range(6))), SOLVE_CALLS),
)
VERIFY = (
    (Family("verify/2x8", "random", 2, 8, per_run=48, pool=96), VERIFY_CALLS),
    (Family("verify/3x8", "random", 3, 8, per_run=48, pool=96), VERIFY_CALLS),
    (Family("verify/2x9", "random", 2, 9, per_run=8, pool=24), VERIFY_CALLS),
    (Family("verify/3x9", "random", 3, 9, per_run=4, pool=12), VERIFY_CALLS),
    (Family("verify/2x11", "random", 2, 11, pinned=(1,)), VERIFY_CALLS),
    (Family("verify/3x10", "random", 3, 10, pinned=(0,)), VERIFY_CALLS),
)
SEARCH = (
    (Family("search/mnw/2x16", "random", 2, 16, per_run=16, pool=32), MNW_CALLS),
    (Family("search/mnw/3x12", "random", 3, 12, per_run=8, pool=16), MNW_CALLS),
    (Family("search/mnw/4x10", "random", 4, 10, pinned=(0, 1)), MNW_CALLS),
    (Family("search/mnw/5x9", "random", 5, 9, pinned=(0, 1)), MNW_CALLS),
    (Family("search/brute/2x12", "random", 2, 12, per_run=192, pool=384), BRUTE_CALLS),
    (Family("search/brute/3x8", "random", 3, 8, per_run=192, pool=384), BRUTE_CALLS),
    (Family("search/brute/4x8", "random", 4, 8, per_run=48, pool=96), BRUTE_CALLS),
    (Family("search/binary/20x100", "binary", 20, 100, per_run=8, pool=16), BINARY_CALLS),
    (Family("search/binary/40x200", "binary", 40, 200, pinned=(0,)), BINARY_CALLS),
    (Family("search/disc_exists/2x5", "random", 2, 5, per_run=8, pool=16), DISC_EXISTS_CALLS),
    (Family("search/disc_exists/3x4", "random", 3, 4, per_run=8, pool=16), DISC_EXISTS_CALLS),
    (Family("search/disc_exists/3x5", "random", 3, 5, per_run=4, pool=8), DISC_EXISTS_CALLS),
    (Family("search/disc_exists/partition_no_2x6", "partition_no", 2, 6, per_run=4, pool=8), DISC_EXISTS_CALLS),
    (Family("search/identical/2x16", "hard_partition", 2, 16, per_run=4, pool=8), IDENTICAL_CALLS),
    (Family("search/identical/2x18", "hard_partition", 2, 18, per_run=4, pool=8), IDENTICAL_CALLS),
    (Family("search/identical/2x20", "hard_partition", 2, 20, per_run=4, pool=8), IDENTICAL_CALLS),
    (Family("search/identical/2x22", "hard_partition", 2, 22, pinned=(0,)), IDENTICAL_CALLS),
    (Family("search/identical/2x24", "hard_partition", 2, 24, pinned=(0,)), IDENTICAL_CALLS),
)
CLI = Family("cli/2x4", "random", 2, 4, per_run=17, pool=68)
CLI_COMMANDS = ("gen", "check-ef", "check-ceei-frac", "check-ceei-disc", "solve", "search-mnw")

TABLES = {"solve": SOLVE, "verify": VERIFY, "search": SEARCH}

# Seconds one pass takes, roughly, on a 2-vCPU 2.1 GHz Xeon VM.  A run makes
# round(--seconds / PASS_SECONDS) passes, at least one, so the pass count
# never depends on how fast the machine happens to be; the 16 seconds in
# BENCHMARK.json give one pass on every workload.  More passes lower each
# op's latency to its fastest call, but with each call scaled to the host's
# speed (`run.scaled`) one pass was as steady as two, at half the time.
# `cli` needs its 102 calls for a p90.
PASS_SECONDS = {"solve": 24, "verify": 18, "search": 14, "cli": 25}


# ---------------------------------------------------------------------------
# Instance generation.
# ---------------------------------------------------------------------------


def random_rows(n, m, top, seed):
    """Uniform integer utilities in [0, top], redrawn until no row or column is all zero.

    Draws in the same order as `ceei.gen_random`, so both give the same
    matrix for the same arguments.
    """
    rng = random.Random(seed)
    rows = [[rng.randint(0, top) for _ in range(m)] for _ in range(n)]
    while True:
        clean = True
        for i in range(n):
            if not any(rows[i]):
                rows[i] = [rng.randint(0, top) for _ in range(m)]
                clean = False
        for j in range(m):
            if not any(rows[i][j] for i in range(n)):
                for i in range(n):
                    rows[i][j] = rng.randint(0, top)
                clean = False
        if clean:
            return rows


def partition_no_weights(k, seed):
    """k small positive integers (1..9) with no equal-sum bipartition."""
    rng = random.Random(f"partition-no:{k}:{seed}")
    while True:
        weights = [rng.randint(1, 9) for _ in range(k)]
        if not checks.has_equal_bipartition(weights):
            return weights


def hard_partition_weights(k, seed):
    """k weights in [2^40, 2^40 + 2^30) with an even total and no equal-sum bipartition.

    Near-equal weights defeat capacity pruning, and an even total defeats
    the parity shortcut, so a partition search must explore the tree.
    """
    rng = random.Random(f"hard-partition:{k}:{seed}")
    while True:
        weights = [(1 << 40) + rng.randrange(1 << 30) for _ in range(k)]
        if sum(weights) % 2:
            weights[-1] += 1
        if not checks.has_equal_bipartition(weights):
            return weights


def family_rows(family, seed):
    if family.kind == "random":
        return random_rows(family.n, family.m, 100, seed)
    if family.kind == "binary":
        return random_rows(family.n, family.m, 1, seed)
    if family.kind == "partition_no":
        return [partition_no_weights(family.m, seed)] * family.n
    return [hard_partition_weights(family.m, seed)] * family.n


def random_owner(n, m, key):
    rng = random.Random(f"assignment:{key}")
    return [rng.randrange(n) for _ in range(m)]


def instance_document(rows):
    return json.dumps({"agents": len(rows), "objects": len(rows[0]), "utilities": rows}, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One call into `ceei`: what to run, how to check its answer, and its reference key."""

    name: str
    key: str
    call: Callable[[], object]
    check: Callable[[object], checks.Checked]
    id: int = 0


@dataclass
class OpSet:
    ops: list
    warmup: Op


def instance_ops(family, seed, calls, nash_owners):
    """The ops `calls` make on one instance; verifier calls run once per assignment.

    `nash_owners` maps an instance key to its max-Nash owner vector.
    """
    rows = family_rows(family, seed)
    inst = ceei.Instance(rows)
    key = f"{family.name}/{seed}"
    if calls is not VERIFY_CALLS:
        return [
            Op(c.name, f"{key}:{c.label}", lambda c=c: c.run(inst), lambda answer, c=c: c.check(rows, answer))
            for c in calls
        ]
    ops = []
    for label, owner in (("nash", nash_owners[key]), ("random", random_owner(family.n, family.m, key))):
        y = ceei.DiscreteAssignment(owner)
        ops += [
            Op(c.name, f"{key}:{label}/{c.label}", lambda c=c, y=y: c.run(inst, y),
               lambda answer, c=c, owner=owner: c.check(rows, owner, answer))
            for c in calls
        ]
    return ops


def cli_instance_ops(seed, work_dir, run_cli):
    """Six one-shot `python -m ceei` calls on one 2x4 document and a random assignment."""
    key = f"{CLI.name}/{seed}"
    rows = family_rows(CLI, seed)
    owner = random_owner(CLI.n, CLI.m, key)
    inst_path, asg_path, gen_path = (f"{work_dir}/{what}-{seed}.json" for what in ("inst", "asg", "gen"))
    with open(inst_path, "w", encoding="utf-8") as handle:
        handle.write(instance_document(rows) + "\n")
    with open(asg_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"owner": owner}) + "\n")
    argvs = {
        "gen": ["gen", "random", "-n", "2", "-m", "4", "--max-util", "100", "--seed", str(seed), "--out", gen_path],
        "check-ef": ["check", inst_path, asg_path, "ef"],
        "check-ceei-frac": ["check", inst_path, asg_path, "ceei-frac"],
        "check-ceei-disc": ["check", inst_path, asg_path, "ceei-disc"],
        "solve": ["solve", inst_path],
        "search-mnw": ["search", inst_path, "mnw"],
    }
    return [
        Op(f"cli.{command}", f"{key}:{command}", lambda argv=argvs[command]: run_cli(argv),
           lambda answer, command=command: checks.check_cli(command, rows, owner, gen_path, answer))
        for command in CLI_COMMANDS
    ]


def build(workload, seed, reference, work_dir=None, run_cli=None) -> OpSet:
    """The operation set of one run, in a seeded order, plus an untimed warm-up call.

    `reference` is the table of ``reference.json``: its "strata" map a
    family name to its pool seeds from easiest to hardest, its "nash_owners"
    an instance key to its max-Nash owner vector.
    """
    strata, nash_owners = reference["strata"], reference["nash_owners"]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        ops = [op for s in CLI.draw(rng, strata.get(CLI.name)) for op in cli_instance_ops(s, work_dir, run_cli)]
        warmup = ops[1]
    else:
        ops = [
            op
            for family, calls in TABLES[workload]
            for s in family.draw(rng, strata.get(family.name))
            for op in instance_ops(family, s, calls, nash_owners)
        ]
        family, calls = TABLES[workload][0]
        warmup = instance_ops(family, family.every_seed()[0], calls, nash_owners)[0]
    rng.shuffle(ops)
    for index, op in enumerate(ops):
        op.id = index
    return OpSet(ops, warmup)


def every_nash_owner():
    """The max-Nash owner vector of every `verify` instance any seed can draw, by enumeration."""
    return {f"{family.name}/{s}": checks.max_nash_owner(family_rows(family, s))
            for family, _calls in VERIFY for s in family.every_seed()}


def every_op(workload, nash_owners, work_dir=None, run_cli=None):
    """Every op any seed can draw, as {family: [(seed, ops)]}, for the reference table."""
    if workload == "cli":
        return {CLI: [(s, cli_instance_ops(s, work_dir, run_cli)) for s in CLI.every_seed()]}
    return {family: [(s, instance_ops(family, s, calls, nash_owners)) for s in family.every_seed()]
            for family, calls in TABLES[workload]}

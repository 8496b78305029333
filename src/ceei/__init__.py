"""Solver and verifiers for competitive equilibrium with equal incomes.

Computes fractional market equilibria for additive utilities with unit
budgets, certifies them exactly, decides price-support and fairness notions
for discrete assignments, and searches for welfare-optimal discrete
assignments at desk scale.

`import ceei` loads no submodule.  Each public name is imported from its
home module on first access (PEP 562), so a program pays only for the
modules whose names it uses: `ceei.Instance` loads `model`, `ceei.solve_eg`
loads `equilibrium` (and numpy only once the solver runs), and
`ceei.max_nash_discrete` loads `search` with the modules it imports.
"""

import importlib

# the home module of each public name; `__all__` is read from this table
_EXPORTS = {
    "equilibrium": (
        "EquilibriumSolution",
        "ResidualReport",
        "kkt_residual",
        "solve_eg",
    ),
    "errors": (
        "CeeiError",
        "DimensionMismatch",
        "DocumentSyntaxError",
        "EmptyMultiset",
        "InconclusiveSearch",
        "InstanceTooLarge",
        "InvalidAssignment",
        "InvariantError",
        "NonConvergence",
        "NotBinary",
        "NotIdenticalUtilities",
        "SchemaError",
        "SumMismatch",
        "WindowViolation",
    ),
    "fairness": (
        "Verdict",
        "is_envy_free",
        "is_pareto_optimal_discrete",
        "verify_ceei_disc",
        "verify_ceei_frac",
    ),
    "instances": (
        "PartitionInput",
        "ThreePartitionInput",
        "binary_gap_example",
        "from_partition",
        "from_three_partition",
        "gen_random",
        "instance_digest",
        "parse_assignment",
        "parse_instance",
        "separation_example",
        "serialize_assignment",
        "serialize_instance",
    ),
    "model": (
        "Certificate",
        "DiscreteAssignment",
        "DominatingAssignment",
        "EnvyPair",
        "FractionalAssignment",
        "Instance",
        "InstanceViolation",
        "KktViolation",
        "PriceSupport",
        "PriceVector",
        "ViolatingBundle",
        "agent_utilities",
        "bundle_utility",
        "nash_welfare",
        "validate_instance",
    ),
    "search": (
        "SearchResult",
        "binary_max_nash",
        "brute_force_max_nash",
        "exists_ceei_disc_bruteforce",
        "exists_ceei_frac_discrete",
        "find_ceei_disc_identical",
        "max_nash_discrete",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

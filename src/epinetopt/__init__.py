"""Optimal vaccination and treatment scheduling on heterogeneous networks.

The package models SIR epidemics on networks through a degree-based
mean-field description, compresses the degree classes into a small
number of groups with matched infection pressure, and computes optimal
time-varying vaccination/treatment rates by direct transcription of the
resulting control problem (Heun integration, exact discrete gradients,
projected quasi-Newton descent).

Typical flow: build a :class:`DegreeDistribution`, group it with
:func:`partition_equal_mass` + :func:`grouped_stats`, pick control
groups via :func:`amass_control_groups`, then hand everything to
:class:`OptimizationProblem` and :func:`optimize`, whose result holds
the optimal schedule with its trajectory and cost breakdown. Any other
schedule is priced by :func:`simulate_grouped` followed by
:func:`evaluate_cost`, the one cost formula the optimizer uses too.
:func:`grouping_error` checks a range of group counts against the full
model, integrating them together in batched sweeps. The ``epinetopt``
command line drives the same pipeline from a config file.
"""

from .control import (
    ControlSchedule,
    CostBreakdown,
    CostParams,
    ResourceAllocation,
    constant_strategy,
    evaluate_cost,
    resource_allocation,
    zero_strategy,
)
from .dynamics import (
    DEFAULT_GRID_POINTS,
    EpidemicParams,
    TimeGrid,
    Trajectory,
    cumulative_infected,
    grouping_error,
    simulate_full,
    simulate_grouped,
)
from .errors import (
    ConfigError,
    DegenerateDistributionError,
    EpinetoptError,
    IngestionError,
    NumericalFailureError,
    ParameterError,
)
from .grouping import (
    ControlGroups,
    GroupedDistribution,
    Grouping,
    amass_control_groups,
    grouped_stats,
    partition_equal_mass,
)
from .network import (
    DegreeDistribution,
    EdgeListStats,
    format_distribution,
    from_edge_list,
    load_edge_list,
    poisson_distribution,
    power_law_distribution,
    read_distribution,
)
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    SweepPoint,
    improvement_percent,
    objective_and_gradient,
    optimize,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "EpinetoptError",
    "ParameterError",
    "DegenerateDistributionError",
    "IngestionError",
    "NumericalFailureError",
    "ConfigError",
    # network
    "DegreeDistribution",
    "EdgeListStats",
    "poisson_distribution",
    "power_law_distribution",
    "from_edge_list",
    "load_edge_list",
    "read_distribution",
    "format_distribution",
    # grouping
    "Grouping",
    "GroupedDistribution",
    "ControlGroups",
    "partition_equal_mass",
    "grouped_stats",
    "amass_control_groups",
    # dynamics
    "DEFAULT_GRID_POINTS",
    "EpidemicParams",
    "TimeGrid",
    "Trajectory",
    "simulate_full",
    "simulate_grouped",
    "grouping_error",
    "cumulative_infected",
    # control
    "CostParams",
    "ControlSchedule",
    "CostBreakdown",
    "ResourceAllocation",
    "constant_strategy",
    "zero_strategy",
    "evaluate_cost",
    "resource_allocation",
    # optimizer
    "OptimizationProblem",
    "OptimizationResult",
    "SweepPoint",
    "objective_and_gradient",
    "optimize",
    "sweep",
    "improvement_percent",
]

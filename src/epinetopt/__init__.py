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

# Each module's __all__ is its public API; the package re-exports them in
# layer order. The command line (cli) stays unexported.
from . import errors, network, grouping, dynamics, control, optimizer
from .errors import *
from .network import *
from .grouping import *
from .dynamics import *
from .control import *
from .optimizer import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__, *network.__all__, *grouping.__all__,
    *dynamics.__all__, *control.__all__, *optimizer.__all__,
]

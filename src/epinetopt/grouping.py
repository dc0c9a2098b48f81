"""Equal-mass compression of degree classes.

Degree classes are merged into Z contiguous groups of roughly equal
probability mass, shrinking the ODE system from 2|K| to 2Z equations;
the Z groups are further amassed into M control groups (one vaccination
and one treatment signal each). How much the compression distorts the
aggregate epidemic trajectories is measured by
:func:`~epinetopt.dynamics.grouping_error`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistributionError, ParameterError
from .network import DegreeDistribution

__all__ = [
    "Grouping",
    "GroupedDistribution",
    "ControlGroups",
    "partition_equal_mass",
    "grouped_stats",
    "amass_control_groups",
]


@dataclass(frozen=True)
class Grouping:
    """Contiguous partition of degree-class indices into groups.

    ``boundaries`` holds Z+1 offsets into the ascending degree-class
    array; group ``z`` spans classes ``boundaries[z] .. boundaries[z+1]-1``.
    """

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=int)
        object.__setattr__(self, "boundaries", b)
        if b.ndim != 1 or len(b) < 2 or b[0] != 0:
            raise ParameterError("boundaries must start at 0 and define >= 1 group")
        if np.any(np.diff(b) < 1):
            raise ParameterError("every group must contain at least one degree class")

    @property
    def n_groups(self) -> int:
        return len(self.boundaries) - 1


@dataclass(frozen=True)
class GroupedDistribution:
    """Per-group statistics of a grouped degree distribution.

    ``p_hat`` is the group probability mass, ``q_hat`` the infection-pressure
    weights, ``k_hat`` the mass-weighted mean degree within the group.
    ``q_hat`` is the fraction of edge ends attached to the group, or with
    ``excess_degree`` the fraction of edge ends that lead on to a further
    contact, which sums to 1 - 1/<k> (see :func:`grouped_stats`).
    """

    p_hat: np.ndarray
    q_hat: np.ndarray
    k_hat: np.ndarray
    grouping: Grouping
    excess_degree: bool = False

    def __post_init__(self):
        p, q, k = (np.asarray(a, float) for a in (self.p_hat, self.q_hat, self.k_hat))
        z = self.grouping.n_groups
        if not (p.shape == q.shape == k.shape == (z,)):
            raise ParameterError("p_hat, q_hat, k_hat must have one entry per group")
        q_total = 1 - 1 / (p @ k) if self.excess_degree else 1
        # written so that nan fails every check
        if not (abs(p.sum() - 1) <= 1e-12 and abs(q.sum() - q_total) <= 1e-12):
            raise ParameterError("group masses must sum to 1 and edge-end weights to their total")
        if not (k[0] > 0 and np.all(np.diff(k) > 0)):
            raise ParameterError("weighted mean degrees must be positive and increase across groups")

    @property
    def n_groups(self) -> int:
        return self.grouping.n_groups


@dataclass(frozen=True)
class ControlGroups:
    """Assignment of the Z groups to M control groups.

    ``assignment[z]`` is the control-group index of group ``z`` (monotone
    nondecreasing, so control groups are Low/Medium/High blocks of degree);
    ``x[m]`` is the population fraction covered by control group ``m``.
    """

    assignment: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "x", x)
        if a[0] != 0 or np.any(np.diff(a) < 0) or np.any(np.diff(a) > 1):
            raise ParameterError("assignment must step through 0..M-1 without gaps")
        if a[-1] != len(x) - 1:
            raise ParameterError("every control group must receive at least one group")
        if np.any(x <= 0) or abs(x.sum() - 1) > 1e-12:
            raise ParameterError("population fractions must be positive and sum to 1")

    @property
    def n_control(self) -> int:
        return len(self.x)

    @property
    def starts(self) -> np.ndarray:
        """Index of the first group of each control group (for ``reduceat``)."""
        return np.r_[0, 1 + np.flatnonzero(np.diff(self.assignment))]


def _greedy_boundaries(masses: np.ndarray, n_groups: int) -> np.ndarray:
    """Close group z at the smallest index where cumulative mass >= z/n_groups.

    A feasibility guard caps each closing index so that every remaining
    group still receives at least one class; with n_groups == len(masses)
    the guard forces the identity partition.
    """
    n = len(masses)
    cum = np.cumsum(masses)
    boundaries = [0]
    for z in range(1, n_groups):
        lo = boundaries[-1]  # group must keep at least one class
        hi = n - (n_groups - z)  # leave one class for each group still open
        cut = int(np.searchsorted(cum, z / n_groups * cum[-1], side="left")) + 1
        boundaries.append(min(max(cut, lo + 1), hi))
    boundaries.append(n)
    return np.asarray(boundaries, dtype=int)


def _merge_zero_mass(boundaries: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Drop boundaries of zero-mass groups (merging them into a neighbor)."""
    keep = [0]
    for z in range(len(boundaries) - 1):
        if masses[boundaries[z] : boundaries[z + 1]].sum() > 0:
            keep.append(boundaries[z + 1])
        else:
            # merge into the following group; a trailing empty group folds back
            if z == len(boundaries) - 2:
                keep[-1] = boundaries[z + 1]
    return np.asarray(sorted(set(keep)), dtype=int)


def partition_equal_mass(dist: DegreeDistribution, n_groups: int) -> Grouping:
    """Split the degree classes into ``n_groups`` contiguous equal-mass groups.

    Parameters
    ----------
    dist : DegreeDistribution
    n_groups : int
        Requested group count, ``1 <= n_groups <= dist.n_classes``.

    Returns
    -------
    Grouping
        Greedy partition: each group is closed at the smallest degree
        where the cumulative mass reaches z/n_groups, while guaranteeing
        every group at least one class. ``n_groups == dist.n_classes``
        yields the identity grouping. If zero-mass classes force some
        groups to carry no probability at all, those groups are merged
        into their neighbors and the achieved (smaller) count is returned
        with a warning.
    """
    if not 1 <= n_groups <= dist.n_classes:
        raise ParameterError(
            f"group count must be in [1, {dist.n_classes}], got {n_groups}", "z"
        )
    boundaries = _greedy_boundaries(dist.pmf, n_groups)
    merged = _merge_zero_mass(boundaries, dist.pmf)
    if len(merged) < len(boundaries):
        warnings.warn(
            f"mass concentration: only {len(merged) - 1} of {n_groups} "
            "requested groups carry probability; empty groups were merged",
            stacklevel=2,
        )
        boundaries = merged
    return Grouping(boundaries)


def grouped_stats(
    dist: DegreeDistribution, grouping: Grouping, excess_degree: bool = False
) -> GroupedDistribution:
    """Aggregate per-group mass, edge-end mass, and mean degree.

    For group z over degree classes K_z:
    ``p_hat = sum p_k``, ``q_hat = sum k p_k / <k>`` (fraction of edge
    ends in the group), ``k_hat = sum k p_k / sum p_k``.

    With ``excess_degree`` the infection-pressure weights count a node's
    edges other than the one it was reached along, ``q_hat = sum (k - 1)
    p_k / <k>``: the SIR form of the degree-based mean field, in which an
    infected node cannot pass the infection back along the edge it caught
    it from (Barthelemy et al., J. Theor. Biol. 235, 275, 2005). The
    default is the SIS form, in which every edge end counts.
    """
    if grouping.boundaries[-1] != dist.n_classes:
        raise ParameterError(
            f"grouping covers {grouping.boundaries[-1]} classes, "
            f"distribution has {dist.n_classes}"
        )
    edges = grouping.boundaries
    p = dist.pmf
    kp = dist.degrees * p
    p_hat = np.add.reduceat(p, edges[:-1])
    kp_hat = np.add.reduceat(kp, edges[:-1])
    if np.any(p_hat <= 0):
        raise DegenerateDistributionError("a group carries no probability mass")
    q_hat = (kp_hat - p_hat if excess_degree else kp_hat) / dist.mean_degree
    return GroupedDistribution(
        p_hat=p_hat,
        q_hat=q_hat,
        k_hat=kp_hat / p_hat,
        grouping=grouping,
        excess_degree=excess_degree,
    )


def amass_control_groups(gd: GroupedDistribution, n_control: int) -> ControlGroups:
    """Amass the Z groups into ``n_control`` equal-mass control groups.

    Applies the same greedy rule as :func:`partition_equal_mass` to the
    group masses ``p_hat``; each control group receives one vaccination
    and one treatment signal.
    """
    z = gd.n_groups
    if not 1 <= n_control <= z:
        raise ParameterError(f"control-group count must be in [1, {z}], got {n_control}", "m")
    boundaries = _greedy_boundaries(gd.p_hat, n_control)
    assignment = np.repeat(np.arange(n_control), np.diff(boundaries))
    x = np.add.reduceat(gd.p_hat, boundaries[:-1])
    return ControlGroups(assignment=assignment, x=x)

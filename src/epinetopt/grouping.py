"""Equal-mass compression of degree classes.

Degree classes are merged into Z contiguous groups of roughly equal
probability mass, shrinking the ODE system from 2|K| to 2Z equations, and
the groups into M control groups (one vaccination and one treatment signal
each): a :class:`Grouping` at both levels. Every partition is made here,
the full model's (Z = number of classes) too. How much the compression
distorts the aggregate trajectories is measured by
:func:`~epinetopt.dynamics.grouping_error`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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
    """Contiguous partition of an ordered index range into groups.

    ``boundaries`` holds Z+1 integer offsets into the ordered members (degree
    classes, or groups); group ``z`` spans ``boundaries[z] .. boundaries[z+1]-1``.
    """

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries)
        if b.dtype.kind not in "iu" or b.ndim != 1 or len(b) < 2 or b[0] != 0:
            raise ParameterError("boundaries must be integers, start at 0 and define >= 1 group")
        object.__setattr__(self, "boundaries", b.astype(int))
        if np.any(np.diff(self.boundaries) < 1):
            raise ParameterError("every group must contain at least one member")

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
    """The Z groups amassed into M control groups, each a contiguous block of degree.

    ``blocks`` is a :class:`Grouping` of the groups; ``x[m]`` is the population
    fraction of control group ``m``, and the derived ``assignment[z]`` is the
    control group of group ``z``.
    """

    blocks: Grouping
    x: np.ndarray
    assignment: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if not (x.shape == (self.blocks.n_groups,) and np.all(x > 0) and abs(x.sum() - 1) <= 1e-12):
            raise ParameterError("need one positive population fraction per block, summing to 1")
        a = np.repeat(np.arange(len(x)), np.diff(self.blocks.boundaries))
        object.__setattr__(self, "assignment", a)

    @property
    def n_control(self) -> int:
        return len(self.x)

    @property
    def starts(self) -> np.ndarray:
        """Index of the first group of each control group (for ``reduceat``)."""
        return self.blocks.boundaries[:-1]


def _greedy_boundaries(masses: np.ndarray, n_groups: int) -> np.ndarray:
    """Close group z at the smallest index where cumulative mass >= z/n_groups.

    A guard keeps each group nonempty and leaves a class per open group:
    b_z = min(max(cut_z, b_(z-1) + 1), K - Z + z) for K classes, Z groups
    and b_0 = 0. So b_z - z is the running maximum of min(cut_z - z, K - Z),
    floored at 0: exact in integers. With Z == K it forces the identity.
    """
    n = len(masses)
    cum = np.cumsum(masses)
    z = np.arange(n_groups)
    cuts = np.searchsorted(cum, z[1:] / n_groups * cum[-1], side="left") + 1
    lifted = np.maximum.accumulate(np.r_[0, np.minimum(cuts - z[1:], n - n_groups)])
    return np.r_[lifted + z, n]


def _merge_zero_mass(boundaries: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Merge each zero-mass group into the next; the last carries mass, as the last class does."""
    carries = np.add.reduceat(masses, boundaries[:-1]) > 0
    return np.r_[0, boundaries[1:][carries]]


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
        groups to carry no probability at all, each such group is merged
        into the group that follows it and the achieved (smaller) count
        is returned with a warning.
    """
    grouping = _partition_equal_mass(dist, n_groups)
    if grouping.n_groups < n_groups:
        warnings.warn(
            f"mass concentration: only {grouping.n_groups} of {n_groups} "
            "requested groups carry probability; empty groups were merged",
            stacklevel=2,
        )
    return grouping


def _equal_mass_partitions(dist: DegreeDistribution, group_counts) -> list[Grouping]:
    """:func:`partition_equal_mass` of each count, with one warning for all.

    The warning lists every count whose empty groups were merged, runs of
    consecutive counts as ranges, at the line that called ``grouping_error``.
    """
    groupings = [_partition_equal_mass(dist, z) for z in group_counts]
    short = np.unique([z for z, g in zip(group_counts, groupings) if g.n_groups < z])
    if short.size:
        cut = np.diff(short) > 1
        runs = zip(short[np.r_[True, cut]], short[np.r_[cut, True]])
        warnings.warn(
            "mass concentration: fewer groups than requested carry probability for z = "
            + ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)
            + "; empty groups were merged",
            stacklevel=3,  # past grouping_error
        )
    return groupings


def _partition_equal_mass(dist: DegreeDistribution, n_groups: int) -> Grouping:
    """:func:`partition_equal_mass` without the warning when groups are merged."""
    if not (isinstance(n_groups, (int, np.integer)) and 1 <= n_groups <= dist.n_classes):
        raise ParameterError(
            f"group count must be an integer in [1, {dist.n_classes}], got {n_groups}", "z"
        )
    return Grouping(_merge_zero_mass(_greedy_boundaries(dist.pmf, n_groups), dist.pmf))


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

    Applies the greedy rule of :func:`partition_equal_mass` to the group
    masses ``p_hat``, making a :class:`Grouping` of the groups; each control
    group receives one vaccination and one treatment signal.
    """
    z = gd.n_groups
    if not (isinstance(n_control, (int, np.integer)) and 1 <= n_control <= z):
        raise ParameterError(
            f"control-group count must be an integer in [1, {z}], got {n_control}", "m"
        )
    blocks = Grouping(_greedy_boundaries(gd.p_hat, n_control))
    return ControlGroups(blocks, np.add.reduceat(gd.p_hat, blocks.boundaries[:-1]))

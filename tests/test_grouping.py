"""Tests for equal-mass grouping, control-group amassing, and grouping error.

Boundary positions and group statistics were frozen from an independent
straight-loop implementation of the greedy rule plus exact summation.
"""

import numpy as np
import numpy.testing as npt
import pytest

from epinetopt.dynamics import EpidemicParams, TimeGrid, grouping_error
from epinetopt.errors import ParameterError
from epinetopt.grouping import (
    ControlGroups,
    GroupedDistribution,
    Grouping,
    amass_control_groups,
    grouped_stats,
    partition_equal_mass,
)
from epinetopt.network import (
    DegreeDistribution,
    poisson_distribution,
    power_law_distribution,
)

PL2 = power_law_distribution(2.0, 6, 105)
ER = poisson_distribution(17.5, 1, 45)

DEFAULTS = EpidemicParams(beta=0.5, gamma=0.25, i0=0.01, duration=20.0)
GRID = TimeGrid(1001, 20.0)


def reference_greedy(masses, n_groups):
    """Plain-loop version of the greedy rule: close group z at the first
    index where cumulative mass reaches z/n_groups of the total, leaving
    at least one class for every group still open."""
    n = len(masses)
    total = float(np.sum(masses))
    cum = np.cumsum(masses)
    b = [0]
    for z in range(1, n_groups):
        cut = n
        for j in range(n):
            if cum[j] >= z / n_groups * total:
                cut = j + 1
                break
        b.append(min(max(cut, b[-1] + 1), n - (n_groups - z)))
    b.append(n)
    return np.array(b)


class TestPartition:
    def test_single_group(self):
        g = partition_equal_mass(PL2, 1)
        npt.assert_array_equal(g.boundaries, [0, PL2.n_classes])
        assert g.n_groups == 1

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_identity_when_groups_equal_classes(self, dist):
        g = partition_equal_mass(dist, dist.n_classes)
        npt.assert_array_equal(g.boundaries, np.arange(dist.n_classes + 1))

    def test_pl2_21_groups_frozen(self):
        g = partition_equal_mass(PL2, 21)
        expected = list(range(17)) + [19, 24, 34, 52, 100]
        npt.assert_array_equal(g.boundaries, expected)

    def test_er_21_groups_frozen(self):
        g = partition_equal_mass(ER, 21)
        expected = [0] + list(range(11, 31)) + [45]
        npt.assert_array_equal(g.boundaries, expected)

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_greedy_rule_against_reference_loop(self, dist):
        for z in (2, 3, 7, 21, dist.n_classes - 1):
            got = partition_equal_mass(dist, z).boundaries
            npt.assert_array_equal(got, reference_greedy(dist.pmf, z))

    def test_greedy_rule_random_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 50))
            raw = rng.random(n) + 1e-6
            dist = DegreeDistribution(1, n, raw / raw.sum())
            z = int(rng.integers(1, n + 1))
            npt.assert_array_equal(
                partition_equal_mass(dist, z).boundaries,
                reference_greedy(dist.pmf, z),
            )

    def test_group_count_out_of_range(self):
        with pytest.raises(ParameterError):
            partition_equal_mass(PL2, 0)
        with pytest.raises(ParameterError):
            partition_equal_mass(PL2, PL2.n_classes + 1)

    def test_zero_mass_groups_merged_with_warning(self):
        # interior zero-mass classes force empty groups at full resolution
        dist = DegreeDistribution(1, 4, np.array([0.5, 0.0, 0.0, 0.5]))
        with pytest.warns(UserWarning, match="merged"):
            g = partition_equal_mass(dist, 4)
        assert g.n_groups < 4
        stats = grouped_stats(dist, g)
        assert np.all(stats.p_hat > 0)

    def test_group_of_inverts_partition(self):
        # the group spans tile the degree classes: each class in exactly one group
        g = partition_equal_mass(PL2, 21)
        spans = [np.arange(g.boundaries[z], g.boundaries[z + 1]) for z in range(21)]
        npt.assert_array_equal(np.concatenate(spans), np.arange(PL2.n_classes))

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ParameterError):
            Grouping(np.array([0, 3, 3, 5]))  # empty group
        with pytest.raises(ParameterError):
            Grouping(np.array([1, 3, 5]))  # does not start at 0


class TestGroupedStats:
    def test_identity_is_lossless(self):
        g = Grouping(np.arange(PL2.n_classes + 1))
        gd = grouped_stats(PL2, g)
        npt.assert_allclose(gd.p_hat, PL2.pmf, rtol=1e-15)
        npt.assert_allclose(gd.k_hat, PL2.degrees, rtol=1e-13)
        npt.assert_allclose(gd.q_hat, PL2.edge_end_weights(), rtol=1e-15)

    def test_single_group_gives_global_aggregates(self):
        gd = grouped_stats(PL2, Grouping(np.array([0, PL2.n_classes])))
        npt.assert_allclose(gd.p_hat, [1.0], atol=1e-15)
        npt.assert_allclose(gd.q_hat, [1.0], atol=1e-12)
        npt.assert_allclose(gd.k_hat, [PL2.mean_degree], rtol=1e-14)

    def test_two_class_hand_case(self):
        # equal mass on degrees 1 and 2, one group each
        dist = DegreeDistribution(1, 2, np.array([0.5, 0.5]))
        gd = grouped_stats(dist, Grouping(np.array([0, 1, 2])))
        npt.assert_allclose(gd.p_hat, [0.5, 0.5])
        npt.assert_allclose(gd.k_hat, [1.0, 2.0])

    def test_excess_degree_pressure_hand_case(self):
        # <k> = 1.5; the SIR weights drop the edge a node was reached along,
        # so a degree-1 node passes nothing on: q = (k - 1) p / <k>
        dist = DegreeDistribution(1, 2, np.array([0.5, 0.5]))
        grouping = Grouping(np.array([0, 1, 2]))
        npt.assert_allclose(grouped_stats(dist, grouping).q_hat, [1 / 3, 2 / 3])
        gd = grouped_stats(dist, grouping, excess_degree=True)
        assert gd.excess_degree
        npt.assert_allclose(gd.q_hat, [0.0, 1 / 3], atol=1e-15)
        npt.assert_allclose(gd.p_hat, [0.5, 0.5])
        npt.assert_allclose(gd.k_hat, [1.0, 2.0])
        with pytest.raises(ParameterError):  # weights that do not match the flag
            GroupedDistribution(gd.p_hat, gd.q_hat, gd.k_hat, grouping)
        nan = np.full(2, np.nan)
        for p_hat, q_hat, k_hat in [(nan, gd.q_hat, gd.k_hat), (gd.p_hat, nan, gd.k_hat),
                                    (gd.p_hat, gd.q_hat, nan)]:
            with pytest.raises(ParameterError):
                GroupedDistribution(p_hat, q_hat, k_hat, grouping, excess_degree=True)
        with pytest.raises(ParameterError):  # one group: no difference to compare
            GroupedDistribution([1.0], [1.0], [np.nan], Grouping(np.array([0, 2])))

    def test_pl2_frozen_stats(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        npt.assert_allclose(gd.p_hat[16], 0.033126406883349, rtol=1e-12)
        npt.assert_allclose(gd.q_hat[0], 0.056447481687282, rtol=1e-12)
        npt.assert_allclose(gd.q_hat[-1], 0.205553667204620, rtol=1e-12)
        npt.assert_allclose(gd.k_hat[0], 6.0, rtol=1e-14)
        npt.assert_allclose(gd.k_hat[-1], 76.705876420215063, rtol=1e-12)

    def test_er_frozen_stats(self):
        gd = grouped_stats(ER, partition_equal_mass(ER, 21))
        npt.assert_allclose(gd.p_hat[16], 0.008411841984278, rtol=1e-11)
        npt.assert_allclose(gd.q_hat[0], 0.038745054176298, rtol=1e-11)
        npt.assert_allclose(gd.k_hat[-1], 32.065186637186947, rtol=1e-12)

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_mass_and_mean_conserved(self, dist):
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = int(rng.integers(1, dist.n_classes + 1))
            gd = grouped_stats(dist, partition_equal_mass(dist, z))
            npt.assert_allclose(gd.p_hat.sum(), 1.0, atol=1e-12)
            npt.assert_allclose(gd.q_hat.sum(), 1.0, atol=1e-12)
            npt.assert_allclose(gd.p_hat @ gd.k_hat, dist.mean_degree, rtol=1e-12)

    def test_k_hat_within_group_degree_range(self):
        g = partition_equal_mass(PL2, 21)
        gd = grouped_stats(PL2, g)
        for z in range(21):
            lo = PL2.degrees[g.boundaries[z]]
            hi = PL2.degrees[g.boundaries[z + 1] - 1]
            assert lo - 1e-9 <= gd.k_hat[z] <= hi + 1e-9

    def test_mismatched_grouping_rejected(self):
        g = Grouping(np.array([0, 5, 10]))
        with pytest.raises(ParameterError):
            grouped_stats(PL2, g)


class TestControlGroups:
    def test_single_control_group(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 1)
        npt.assert_allclose(cg.x, [1.0], atol=1e-12)
        assert np.all(cg.assignment == 0)

    def test_identity_control_groups(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 21)
        npt.assert_array_equal(cg.assignment, np.arange(21))
        npt.assert_allclose(cg.x, gd.p_hat, rtol=1e-15)

    def test_pl2_three_groups_frozen(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 3)
        npt.assert_array_equal(cg.assignment, [0] * 3 + [1] * 7 + [2] * 11)
        npt.assert_array_equal(cg.starts, [0, 3, 10])
        npt.assert_allclose(
            cg.x,
            [0.371329867190194, 0.308524721028269, 0.320145411781536],
            rtol=1e-12,
        )

    def test_er_three_groups_frozen(self):
        gd = grouped_stats(ER, partition_equal_mass(ER, 21))
        cg = amass_control_groups(gd, 3)
        npt.assert_array_equal(cg.assignment, [0] * 6 + [1] * 3 + [2] * 12)
        npt.assert_allclose(
            cg.x,
            [0.420403893703066, 0.274130340546331, 0.305465765750602],
            rtol=1e-12,
        )

    def test_assignment_monotone_for_random_cases(self):
        rng = np.random.default_rng(5)
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        for _ in range(10):
            m = int(rng.integers(1, 22))
            cg = amass_control_groups(gd, m)
            assert np.all(np.diff(cg.assignment) >= 0)
            npt.assert_allclose(cg.x.sum(), 1.0, atol=1e-12)

    def test_count_out_of_range(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        with pytest.raises(ParameterError):
            amass_control_groups(gd, 0)
        with pytest.raises(ParameterError):
            amass_control_groups(gd, 22)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ControlGroups(np.array([0, 2]), np.array([0.5, 0.5]))  # skips group 1
        with pytest.raises(ParameterError):
            ControlGroups(np.array([0, 0]), np.array([0.5, 0.5]))  # group 1 empty
        with pytest.raises(ParameterError):
            ControlGroups(np.array([0, 1]), np.array([0.7, 0.7]))  # not normalized


class TestGroupingError:
    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_identity_grouping_is_exact(self, dist):
        [err] = grouping_error(dist, [dist.n_classes], DEFAULTS, GRID)
        assert err <= 1e-12

    def test_pl2_21_below_threshold(self):
        [err] = grouping_error(PL2, [21], DEFAULTS, GRID)
        assert err < 1e-3
        npt.assert_allclose(err, 9.020792854333870e-04, rtol=1e-9)

    def test_er_21_below_threshold(self):
        [err] = grouping_error(ER, [21], DEFAULTS, GRID)
        assert err < 1e-3
        npt.assert_allclose(err, 1.015171982630926e-04, rtol=1e-9)

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_error_sweep_nonincreasing(self, dist):
        # full sweep over Z against one full simulation; one error per Z,
        # each the same as a call for that Z alone
        zs = np.arange(2, dist.n_classes + 1)
        errs = np.array(grouping_error(dist, zs, DEFAULTS, GRID))
        assert errs.shape == zs.shape
        assert errs[zs == 21][0] == grouping_error(dist, [21], DEFAULTS, GRID)[0]
        # monotone within a 1% noise allowance and a roundoff floor
        assert np.all(errs[1:] <= errs[:-1] * 1.01 + 1e-12)
        assert errs[-1] <= 1e-12

"""Tests for equal-mass grouping, control-group amassing, and grouping error.

Boundary positions and group statistics were frozen from an independent
straight-loop implementation of the greedy rule plus exact summation.
"""

import os
import pickle
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from epinetopt import dynamics
from epinetopt.dynamics import (
    EpidemicParams,
    TimeGrid,
    grouping_error,
    simulate_full,
    simulate_grouped,
)
from epinetopt.errors import DegenerateDistributionError, NumericalFailureError, ParameterError
from epinetopt.grouping import (
    ControlGroups,
    GroupedDistribution,
    Grouping,
    _greedy_boundaries,
    _partition_equal_mass,
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


def loop_greedy_boundaries(masses, n_groups):
    """Reference for ``_greedy_boundaries``: the guard applied one group at a time."""
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


def loop_merge_zero_mass(boundaries, masses):
    """Reference for the merge of empty groups, one group at a time: each
    zero-mass group joins the following group, a trailing one folds back."""
    keep = [0]
    for z in range(len(boundaries) - 1):
        if masses[boundaries[z] : boundaries[z + 1]].sum() > 0:
            keep.append(boundaries[z + 1])
        elif z == len(boundaries) - 2:
            keep[-1] = boundaries[z + 1]
    return np.asarray(sorted(set(keep)), dtype=int)


def zero_mass_distribution(rng, n_classes):
    """Random pmf with positive end classes and about half its interior classes empty."""
    raw = rng.random(n_classes) * (rng.random(n_classes) < 0.5)
    raw[[0, -1]] = rng.random(2) + 0.01
    return DegreeDistribution(1, n_classes, raw / raw.sum())


def per_z_grouping_error(dist, group_counts, params, grid):
    """Reference loop: one full-model simulation, then one grouped simulation
    per Z, each with its own aggregates ``p_hat @ state``."""
    full = simulate_full(dist, params, grid)
    errors = []
    for n_groups in group_counts:
        gd = grouped_stats(dist, partition_equal_mass(dist, n_groups))
        grouped = simulate_grouped(gd, None, None, params, grid)
        num, den = 0.0, 0.0
        for a, b in zip((grouped.s, grouped.i, grouped.r), (full.s, full.i, full.r)):
            num += np.sum((a - b) ** 2)
            den += np.sum(b**2)
        errors.append(float(np.sqrt(num / den)))
    return errors


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
        for count in (0, PL2.n_classes + 1, 2.5):
            with pytest.raises(ParameterError) as info:
                partition_equal_mass(PL2, count)
            assert info.value.field == "z"

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
        with pytest.raises(ParameterError):
            Grouping(np.array([0, 2.7]))  # not an index


class TestPartitionRule:
    """The vectorized greedy rule and merge against their group-by-group loops."""

    def test_every_count_matches_the_loops(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            dist = zero_mass_distribution(rng, int(rng.integers(2, 80)))
            for z in range(1, dist.n_classes + 1):
                greedy = loop_greedy_boundaries(dist.pmf, z)
                assert np.array_equal(_greedy_boundaries(dist.pmf, z), greedy)
                b = _partition_equal_mass(dist, z).boundaries
                assert np.array_equal(b, loop_merge_zero_mass(greedy, dist.pmf))
                assert np.all(np.add.reduceat(dist.pmf, b[:-1]) > 0)

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_control_groups_match_the_loop(self, dist):
        gd = grouped_stats(dist, partition_equal_mass(dist, 21))
        for m in range(1, 22):
            cg = amass_control_groups(gd, m)
            assert np.array_equal(np.r_[cg.starts, 21], loop_greedy_boundaries(gd.p_hat, m))
            assert np.all(cg.x > 0)

    def test_full_model_is_the_partition_at_every_class(self):
        dist = zero_mass_distribution(np.random.default_rng(5), 40)
        assert np.any(dist.pmf == 0)
        with pytest.warns(UserWarning, match="merged"):
            grouping = partition_equal_mass(dist, dist.n_classes)
        full = simulate_full(dist, DEFAULTS, GRID)
        grouped = simulate_grouped(grouped_stats(dist, grouping), None, None, DEFAULTS, GRID)
        for name in ("s_hat", "i_hat", "s", "i", "r", "p_hat"):
            assert np.array_equal(getattr(full, name), getattr(grouped, name)), name
        with pytest.warns(UserWarning, match="merged"):
            assert grouping_error(dist, [dist.n_classes], DEFAULTS, GRID) == [0.0]


class TestGroupedStats:
    def test_identity_is_lossless(self):
        g = Grouping(np.arange(PL2.n_classes + 1))
        gd = grouped_stats(PL2, g)
        npt.assert_allclose(gd.p_hat, PL2.pmf, rtol=1e-15)
        npt.assert_allclose(gd.k_hat, PL2.degrees, rtol=1e-13)
        npt.assert_allclose(gd.q_hat, PL2.degrees * PL2.pmf / PL2.mean_degree, rtol=1e-15)

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
        with pytest.raises(ParameterError, match="q_hat, k_hat must have one entry per group"):
            GroupedDistribution(gd.p_hat, gd.q_hat[:1], gd.k_hat, grouping, excess_degree=True)

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
        # the middle group holds only the two empty degrees 2 and 3
        dist = DegreeDistribution(1, 4, np.array([0.5, 0.0, 0.0, 0.5]))
        with pytest.raises(DegenerateDistributionError, match="a group carries no probability"):
            grouped_stats(dist, Grouping(np.array([0, 1, 3, 4])))


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
        for count in (0, 22, 2.5):
            with pytest.raises(ParameterError) as info:
                amass_control_groups(gd, count)
            assert info.value.field == "m"

    def test_validation(self):
        with pytest.raises(ParameterError):
            ControlGroups(Grouping(np.array([0, 2])), np.array([0.5, 0.5]))  # 1 block, 2 fractions
        with pytest.raises(ParameterError):
            ControlGroups(Grouping(np.array([0, 2, 2])), np.array([0.5, 0.5]))  # block 1 empty
        with pytest.raises(ParameterError):
            ControlGroups(Grouping(np.array([0, 1, 2])), np.array([0.7, 0.7]))  # not normalized
        with pytest.raises(ParameterError):
            ControlGroups(Grouping(np.array([0, 1, 2])), np.array([np.nan, 0.5]))
        with pytest.raises(ParameterError):
            ControlGroups(Grouping(np.array([], dtype=int)), np.array([]))  # no block


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

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_batch_matches_per_z_loop(self, dist):
        # The batch sums Theta and the aggregates over the reference width
        # instead of over Z groups, which moves each error at roundoff only.
        # The largest relative change measured is 1.5e-10 (PL2, Z = 99, where
        # the error is 2e-8; ER: 3.5e-11), so rtol 1e-8 leaves ~70x of room.
        zs = np.arange(1, dist.n_classes + 1)
        npt.assert_allclose(
            grouping_error(dist, zs, DEFAULTS, GRID),
            per_z_grouping_error(dist, zs, DEFAULTS, GRID),
            rtol=1e-8, atol=0,
        )

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_each_error_is_invariant_to_the_batch(self, dist):
        zs = list(range(1, dist.n_classes + 1))
        by_z = dict(zip(zs, grouping_error(dist, zs, DEFAULTS, GRID)))
        subset = np.random.default_rng(2).choice(zs, size=7, replace=False).tolist()
        for batch in (zs[::-1], subset, [21, 3, 21, 21]):
            assert grouping_error(dist, batch, DEFAULTS, GRID) == [by_z[z] for z in batch]

    def test_blocking_leaves_each_error_unchanged(self, monkeypatch):
        zs = list(range(1, PL2.n_classes + 1))
        whole = grouping_error(PL2, zs, DEFAULTS, GRID)
        # blocks of 7 rows, the reference model alone in the first one's row 0
        monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", 7 * (PL2.n_classes + 2 * GRID.n_points))
        assert grouping_error(PL2, zs, DEFAULTS, GRID) == whole

    def test_clamp_in_a_later_block_names_its_row(self, monkeypatch):
        # blocks of 7 rows: the reference and z = 1..6, then z = 7..10, whose
        # last row is pushed above 1 at grid step 30; a one-pass iterable of
        # counts names its rows too
        state_set_in_second_block(monkeypatch, 30, 1.5)
        for counts in (list(range(1, 11)), iter(range(1, 11))):
            with pytest.raises(NumericalFailureError, match=r"^z=10 left \[0, 1\] at grid step 30$"):
                grouping_error(PL2, counts, DEFAULTS, GRID)

    def test_non_finite_row_in_a_later_block_names_its_row_and_step(self, monkeypatch):
        # blocks of 7 rows as above; the state of z = 10, the last row of the
        # second block, is made non-finite at grid step 25
        state_set_in_second_block(monkeypatch, 25, np.nan)
        with pytest.raises(NumericalFailureError, match=r"^z=10 left \[0, 1\] at grid step 25$"):
            grouping_error(PL2, range(1, 11), DEFAULTS, GRID)

    @pytest.mark.parametrize("n", [126, 201, 251])
    def test_clamped_sweep_fails_naming_the_row(self, n):
        # the full model leaves [0, 1] on these grids, at the step simulate_full names
        grid = TimeGrid(n, 20.0)
        with pytest.raises(NumericalFailureError, match=r"^state left \[0, 1\] at grid step") as failed:
            simulate_full(PL2, DEFAULTS, grid)
        step = str(failed.value).rsplit(" ", 1)[1]
        with pytest.raises(NumericalFailureError,
                           match=rf"^the reference model left \[0, 1\] at grid step {step}$"):
            grouping_error(PL2, [21], DEFAULTS, grid)

    def test_zero_mass_class_is_left_out_of_the_reference(self):
        # an interior zero-mass class contributes nothing to the model
        dist = DegreeDistribution(6, 9, np.array([0.4, 0.0, 0.3, 0.3]))
        with pytest.warns(UserWarning, match="merged"):
            errs = grouping_error(dist, [1, 2, 3, 4], DEFAULTS, GRID)
        assert errs[0] > errs[1] > 0
        assert errs[2] == errs[3] == 0.0  # three positive classes, three groups

    @pytest.mark.parametrize("zs, listed", [
        ([6, 1, 2, 3, 4, 5, 6], "4-6"), ([5], "5"), ([6, 3, 4], "4, 6"),
    ])
    def test_one_warning_names_every_merged_z(self, zs, listed):
        # three positive classes among six: Z = 4, 5 and 6 must merge groups,
        # whether the counts come as a list or as a one-pass iterator
        dist = DegreeDistribution(6, 11, np.array([0.4, 0.0, 0.3, 0.0, 0.0, 0.3]))
        for counts in (zs, iter(zs)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                errs = grouping_error(dist, counts, DEFAULTS, GRID)
            assert [(w.category, str(w.message)) for w in caught] == [(
                UserWarning,
                "mass concentration: fewer groups than requested carry probability "
                f"for z = {listed}; empty groups were merged",
            )]
            assert caught[0].filename == __file__  # the caller, not the library
            assert all(err == 0.0 for z, err in zip(zs, errs) if z >= 3)

    def test_grid_must_span_the_horizon(self):
        short = TimeGrid(GRID.n_points, 10.0)  # 10 days of the 20-day epidemic
        message = "epidemic duration 20.0 does not match grid duration 10.0"
        with pytest.raises(ParameterError, match=message):
            simulate_full(PL2, DEFAULTS, short)
        with pytest.raises(ParameterError, match=message):
            grouping_error(PL2, [21], DEFAULTS, short)

    def test_full_model_accepts_zero_mass_class(self):
        dist = DegreeDistribution(6, 9, np.array([0.4, 0.0, 0.3, 0.3]))
        traj = simulate_full(dist, DEFAULTS, GRID)
        assert traj.s_hat.shape == (3, GRID.n_points)
        assert grouping_error(dist, [3], DEFAULTS, GRID) == [0.0]
        gd = grouped_stats(dist, partition_equal_mass(dist, 3))
        npt.assert_allclose(simulate_grouped(gd, None, None, DEFAULTS, GRID).i, traj.i, atol=1e-12)


def state_set_in_second_block(monkeypatch, at, value):
    """Make ``grouping_error`` of PL2 integrate its rows in blocks of 7 and set
    the state of the last row of the second block, of four, to ``value`` at
    grid step ``at``."""
    monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", 7 * (PL2.n_classes + 2 * GRID.n_points))
    heun = dynamics._heun

    def set_second_block(k, q, x, *args):
        for step, _ in enumerate(heun(k, q, x, *args), 1):
            if x.shape[2] == 4 and step == at:
                x[0, :, 3] = value
            yield

    monkeypatch.setattr(dynamics, "_heun", set_second_block)


def errors_in(processes, monkeypatch, dist, counts, grid=GRID):
    """``grouping_error(dist, counts, DEFAULTS, grid)`` shared by ``processes`` processes."""
    monkeypatch.setattr(dynamics, "_error_processes", lambda n_rows, width: processes)
    return grouping_error(dist, counts, DEFAULTS, grid)


def heun_with_zero_controls(k, q, s, i, grid):
    """Uncontrolled Heun steps from the states ``s``, ``i`` that multiply by
    explicit zero controls, one step at a time, with no clip or check and
    with overflow ignored. ``k``, ``q`` and the states have the shapes the
    program uses: (Z,) vectors for one system, (B, W, 1) columns and
    (B, 1, W) rows for a padded batch. Returns the states at every node,
    (N, *shape) each, and ``(step, system)``: the first step at which a
    state leaves [0, 1] or is NaN and the first system whose state does
    there, or None."""
    beta, gamma, dt, half = DEFAULTS.beta, DEFAULTS.gamma, grid.dt, 0.5 * grid.dt
    u = v = np.zeros(np.shape(s))

    def rhs(s, i):
        infect = (beta * (q @ i)) * (k * s)
        return -infect - u * s, infect - gamma * i - v * i

    ss, ii = [s], [i]
    with np.errstate(all="ignore"):
        for _ in range(grid.n_points - 1):
            ds0, di0 = rhs(s, i)
            ds1, di1 = rhs(s + dt * ds0, i + dt * di0)
            s, i = s + half * (ds0 + ds1), i + half * (di0 + di1)
            ss.append(s)
            ii.append(i)
    ss, ii = np.array(ss), np.array(ii)
    systems = len(s) if np.ndim(s) == 3 else 1
    inside = ((0 <= ss) & (ss <= 1) & (0 <= ii) & (ii <= 1)).reshape(len(ss), systems, -1)
    inside = inside.all(axis=2)  # (N, systems)
    if inside.all():
        return ss, ii, None
    step = int(np.argmin(inside.all(axis=1)))
    return ss, ii, (step, int(np.argmin(inside[step])))


class TestUncontrolledBits:
    """An uncontrolled sweep leaves out the control terms: x - 0.0 is x, so its
    bits are those of a loop that multiplies by zero controls."""

    @pytest.mark.parametrize("n", [126, 201, 1001])
    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_simulate_full(self, dist, n):
        grid = TimeGrid(n, 20.0)
        gd = grouped_stats(dist, _partition_equal_mass(dist, dist.n_classes))
        z = gd.n_groups
        s, i, outside = heun_with_zero_controls(
            gd.k_hat, gd.q_hat, np.full(z, 1.0 - DEFAULTS.i0), np.full(z, DEFAULTS.i0), grid
        )
        assert n > 126 or outside is not None  # the coarsest grid leaves [0, 1]
        if outside is not None:
            with pytest.raises(NumericalFailureError,
                               match=rf"^state left \[0, 1\] at grid step {outside[0]}$"):
                simulate_full(dist, DEFAULTS, grid)
            return
        traj = simulate_full(dist, DEFAULTS, grid)
        assert np.array_equal(traj.s_hat, s.T) and np.array_equal(traj.i_hat, i.T)

    @pytest.mark.parametrize("n", [126, 201, 1001])
    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_grouping_error_rows(self, dist, n, monkeypatch):
        grid, counts = TimeGrid(n, 20.0), range(1, dist.n_classes + 1)
        rows = [_partition_equal_mass(dist, z) for z in [dist.n_classes, *counts]]
        width = rows[0].n_groups
        p, q = np.zeros((len(rows), 1, width)), np.zeros((len(rows), 1, width))
        k, s0, i0 = (np.zeros((len(rows), width, 1)) for _ in range(3))
        for row, grouping in enumerate(rows):
            gd = grouped_stats(dist, grouping)
            z = gd.n_groups
            p[row, 0, :z], q[row, 0, :z], k[row, :z, 0] = gd.p_hat, gd.q_hat, gd.k_hat
            s0[row, :z], i0[row, :z] = 1.0 - DEFAULTS.i0, DEFAULTS.i0
        s, i, outside = heun_with_zero_controls(k, q, s0, i0, grid)
        if outside is not None:
            # in one process, whose one block holds every row, the first step
            # at which a row leaves [0, 1] names that row
            step, row = outside
            name = "the reference model" if row == 0 else f"z={row}"
            with pytest.raises(NumericalFailureError,
                               match=rf"^{name} left \[0, 1\] at grid step {step}$"):
                errors_in(1, monkeypatch, dist, counts, grid)
            return
        s_agg, i_agg = np.empty((len(rows), n)), np.empty((len(rows), n))
        for step in range(n):
            s_agg[:, step:step + 1], i_agg[:, step:step + 1] = (p @ s[step])[:, 0], (p @ i[step])[:, 0]
        full = s_agg[0], i_agg[0], 1.0 - s_agg[0] - i_agg[0]
        expected = []
        for s_row, i_row in zip(s_agg[1:], i_agg[1:]):
            num, den = 0.0, 0.0
            for a, b in zip((s_row, i_row, 1.0 - s_row - i_row), full):
                num += np.sum((a - b) ** 2)
                den += np.sum(b**2)
            expected.append(float(np.sqrt(num / den)))
        assert grouping_error(dist, counts, DEFAULTS, grid) == expected


def row_with_groups(k, groups):
    """The row of a padded batch ``k`` whose model has ``groups`` groups, or None."""
    found = np.flatnonzero((k[:, :, 0] > 0).sum(axis=1) == groups)
    return int(found[0]) if found.size else None


class TestErrorProcesses:
    @pytest.mark.parametrize("cpus, rows, width, expected", [
        (2, 0, 100, 1), (2, 29, 100, 1), (2, 30, 100, 1), (2, 60, 100, 2), (2, 100, 100, 2),
        (1, 100, 100, 1), (8, 100, 100, 3), (8, 45, 45, 1), (8, 302, 302, 8),
    ])
    def test_one_process_per_cpu_with_enough_entries(self, cpus, rows, width, expected,
                                                      monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert dynamics._error_processes(rows, width) == expected
        monkeypatch.delattr(os, "fork", raising=False)
        assert dynamics._error_processes(rows, width) == 1

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_errors_do_not_depend_on_the_process_count(self, dist, monkeypatch):
        counts = range(1, dist.n_classes + 1)
        one, two, three = (errors_in(p, monkeypatch, dist, counts) for p in (1, 2, 3))
        assert two == one and three == one

    @pytest.mark.parametrize("fault", [None, "child exits", "fork fails", "truncated answer"])
    def test_every_fallback_gives_the_same_errors(self, fault, monkeypatch):
        counts = range(1, PL2.n_classes + 1)
        expected = errors_in(1, monkeypatch, PL2, counts)
        parent = os.getpid()
        errors, dumps = dynamics._errors, pickle.dumps

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return errors(*args)

        def no_fork():
            raise OSError("fork failed")

        if fault == "child exits":
            monkeypatch.setattr(dynamics, "_errors", dying)
        elif fault == "fork fails":
            monkeypatch.setattr(os, "fork", no_fork)
        elif fault == "truncated answer":
            monkeypatch.setattr(pickle, "dump", lambda answer, out: out.write(dumps(answer)[:-9]))
        assert errors_in(2, monkeypatch, PL2, counts) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("value, at", [(1.5, 1), (np.nan, 25)], ids=["above one", "non-finite"])
    def test_failure_in_a_child_share_names_its_row(self, value, at, monkeypatch):
        # z = 80 lies in the second of two shares, z = 51..100; its state is
        # pushed above 1 at grid step 1, or made non-finite at grid step 25,
        # in whichever process integrates it
        heun = dynamics._heun

        def failing(k, q, x, *args):
            row = row_with_groups(k, 80)
            for step, _ in enumerate(heun(k, q, x, *args), 1):
                if row is not None and step == at:
                    x[0, :, row] = value
                yield

        monkeypatch.setattr(dynamics, "_heun", failing)
        for processes in (1, 2):
            with pytest.raises(NumericalFailureError, match=rf"^z=80 left \[0, 1\] at grid step {at}$"):
                errors_in(processes, monkeypatch, PL2, range(1, 101))

    def test_one_merge_warning_with_two_processes(self, monkeypatch):
        # three positive classes among six: Z = 4, 5 and 6 must merge groups;
        # they lie in both shares, z = 6, 1, 2 and z = 3, 4, 5, 6
        dist = DegreeDistribution(6, 11, np.array([0.4, 0.0, 0.3, 0.0, 0.0, 0.3]))
        counts = [6, 1, 2, 3, 4, 5, 6]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            errs = errors_in(2, monkeypatch, dist, counts)
        assert [str(w.message) for w in caught] == [
            "mass concentration: fewer groups than requested carry probability "
            "for z = 4-6; empty groups were merged"
        ]
        with pytest.warns(UserWarning, match="4-6"):
            assert errs == errors_in(1, monkeypatch, dist, counts)

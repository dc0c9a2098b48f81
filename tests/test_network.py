"""Tests for degree-distribution construction, ingestion, and serialization.

Reference numbers were computed independently with exact rational
arithmetic (fractions.Fraction) over the unnormalized weights.
"""

import re

import numpy as np
import numpy.testing as npt
import pytest

from epinetopt.errors import (
    DegenerateDistributionError,
    IngestionError,
    ParameterError,
)
from epinetopt.grouping import _partition_equal_mass, grouped_stats
from epinetopt.network import (
    DegreeDistribution,
    EdgeListStats,
    from_edge_list,
    load_edge_list,
    poisson_distribution,
    power_law_distribution,
    format_distribution,
    read_distribution,
)


def edge_end_weights(dist):
    """Fraction of edge ends at each positive-mass degree class, k p_k / <k>:
    ``grouped_stats``' weights on the full partition (a zero-mass class
    joins the group after it)."""
    return grouped_stats(dist, _partition_equal_mass(dist, dist.n_classes)).q_hat


class TestPoisson:
    def test_truncated_mean_matches_rational_oracle(self):
        dist = poisson_distribution(17.5, 1, 45)
        npt.assert_allclose(dist.mean_degree, 17.500000121894725, rtol=1e-12)

    def test_pointwise_against_rational_oracle(self):
        dist = poisson_distribution(17.5, 1, 45)
        assert dist.k_min == 1 and dist.k_max == 45
        npt.assert_allclose(dist.pmf[0], 4.394248680886278e-07, rtol=1e-12)
        npt.assert_allclose(dist.pmf[16], 0.09559273664730591, rtol=1e-12)
        npt.assert_allclose(dist.pmf[44], 1.814457967616857e-08, rtol=1e-12)

    def test_normalized(self):
        dist = poisson_distribution(17.5, 1, 45)
        npt.assert_allclose(dist.pmf.sum(), 1.0, atol=1e-15)

    def test_large_lambda_does_not_overflow(self):
        # lam**k and k! overflow floats well before k=400; the log-space
        # evaluation must survive and stay normalized.
        dist = poisson_distribution(300.0, 200, 400)
        npt.assert_allclose(dist.pmf.sum(), 1.0, atol=1e-12)
        assert abs(dist.mean_degree - 300.0) < 1.0

    def test_degenerate_truncation_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            poisson_distribution(2.0, 300, 320)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_lambda(self, lam):
        with pytest.raises(ParameterError):
            poisson_distribution(lam, 1, 10)


class TestPowerLaw:
    def test_mean_matches_rational_oracle(self):
        dist = power_law_distribution(2.0, 6, 105)
        npt.assert_allclose(dist.mean_degree, 17.181809958337315, rtol=1e-12)

    def test_pointwise_against_rational_oracle(self):
        dist = power_law_distribution(2.0, 6, 105)
        npt.assert_allclose(dist.pmf[0], 0.16164498382960146, rtol=1e-12)
        npt.assert_allclose(dist.pmf[-1], 0.000527820355361964, rtol=1e-12)

    def test_alpha_zero_is_uniform(self):
        dist = power_law_distribution(0.0, 3, 7)
        npt.assert_allclose(dist.pmf, 0.2)
        npt.assert_allclose(dist.mean_degree, 5.0, rtol=1e-15)

    def test_heavier_tail_for_smaller_alpha(self):
        tail3 = power_law_distribution(3.0, 2, 50).pmf[-1]
        tail2 = power_law_distribution(2.0, 2, 50).pmf[-1]
        assert tail2 > tail3

    def test_negative_alpha_rejected(self):
        with pytest.raises(ParameterError):
            power_law_distribution(-0.5, 2, 10)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ParameterError):
            power_law_distribution(2.0, 0, 10)
        with pytest.raises(ParameterError):
            power_law_distribution(2.0, 10, 5)
        for make, bounds in ((power_law_distribution, (1.5, 10)), (poisson_distribution, (1, 45.0))):
            with pytest.raises(ParameterError, match="^degree bounds must be integers$"):
                make(2.0, *bounds)


class TestDegreeDistribution:
    def test_validation_rejects_unnormalized(self):
        with pytest.raises(ParameterError):
            DegreeDistribution(1, 3, np.array([0.5, 0.2, 0.2]))

    def test_validation_rejects_negative_mass(self):
        with pytest.raises(ParameterError):
            DegreeDistribution(1, 3, np.array([0.6, -0.1, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validation_rejects_non_finite_mass(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            DegreeDistribution(1, 3, np.array([0.5, bad, 0.5]))

    def test_unnormalized_message_prints_a_plain_float(self):
        with pytest.raises(ParameterError, match=r"^probabilities sum to 0\.9, not 1$"):
            DegreeDistribution(1, 2, np.array([0.5, 0.4]))

    def test_validation_rejects_loose_support(self):
        with pytest.raises(ParameterError):
            DegreeDistribution(1, 3, np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ParameterError, match="^k_min must be >= 1, got 0$") as failed:
            DegreeDistribution(0, 1, np.array([0.5, 0.5]))
        assert failed.value.field == "k_min"
        with pytest.raises(ParameterError, match="^k_max=2 < k_min=3$") as failed:
            DegreeDistribution(3, 2, np.array([1.0]))
        assert failed.value.field == "k_max"
        with pytest.raises(ParameterError, match=r"^pmf length \(2,\) does not match .*\[1, 3\]$"):
            DegreeDistribution(1, 3, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bounds", [(1.5, 3.5), (1, 3.0), (np.float64(1.0), 3)])
    def test_non_integer_bounds_rejected(self, bounds):
        with pytest.raises(ParameterError, match="^degree bounds must be integers$"):
            DegreeDistribution(*bounds, np.array([0.2, 0.3, 0.5]))

    def test_interior_zeros_allowed(self):
        dist = DegreeDistribution(2, 4, np.array([0.5, 0.0, 0.5]))
        npt.assert_allclose(dist.mean_degree, 3.0)

    def test_edge_end_weights_sum_to_one(self):
        dist = power_law_distribution(2.0, 6, 105)
        w = edge_end_weights(dist)
        npt.assert_allclose(w.sum(), 1.0, atol=1e-12)
        # degree-weighted: high-degree classes are over-represented
        assert w[-1] / dist.pmf[-1] > w[0] / dist.pmf[0]


class TestEdgeList:
    def test_star_graph(self):
        # hub of degree 4 plus four leaves of degree 1
        edges = [("hub", f"leaf{i}") for i in range(4)]
        dist, stats = from_edge_list(edges)
        assert stats.n_nodes == 5 and stats.n_edges == 4
        npt.assert_allclose(stats.mean_degree, 8 / 5)
        assert dist.k_min == 1 and dist.k_max == 4
        npt.assert_allclose(dist.pmf, [0.8, 0.0, 0.0, 0.2])

    def test_triangle(self):
        dist, stats = from_edge_list([(1, 2), (2, 3), (3, 1)])
        assert (stats.n_nodes, stats.n_edges) == (3, 3)
        assert dist.k_min == dist.k_max == 2
        npt.assert_allclose(dist.pmf, [1.0])

    def test_dedupe_counts_loops_and_duplicates(self):
        edges = [(1, 2), (2, 1), (1, 1), (2, 3)]
        dist, stats = from_edge_list(edges, dedupe=True)
        assert stats.n_self_loops == 1
        assert stats.n_duplicates == 1
        assert stats.n_edges == 2
        npt.assert_allclose(dist.mean_degree, 4 / 3)

    def test_strict_mode_raises(self):
        with pytest.raises(IngestionError):
            from_edge_list([(1, 2), (2, 1)], dedupe=False)
        with pytest.raises(IngestionError):
            from_edge_list([(1, 1)], dedupe=False)

    def test_only_loops_is_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            from_edge_list([(1, 1), (2, 2)])

    def test_load_edge_list(self, tmp_path):
        p = tmp_path / "net.txt"
        p.write_text("# comment\n1 2\n2 3   # trailing\n\n3 1\n")
        edges = load_edge_list(p)
        assert edges.dtype.kind == "S" and edges.shape == (3, 2)
        assert edges.tolist() == [[b"1", b"2"], [b"2", b"3"], [b"3", b"1"]]

    def test_load_edge_list_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n3 4 5\n")
        with pytest.raises(IngestionError, match="2"):
            load_edge_list(p)

    def test_mean_degree_agrees_with_distribution(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(n, 3 * n))
            edges = [tuple(rng.integers(0, n, 2)) for _ in range(m)]
            try:
                dist, stats = from_edge_list(edges)
            except DegenerateDistributionError:
                continue
            npt.assert_allclose(dist.mean_degree, stats.mean_degree, rtol=1e-12)



def oracle_edge_list(edges, dedupe=True):
    """Pure-Python ingest with a set of frozensets and a degree dict."""
    seen, degree = set(), {}
    n_self = n_dup = 0
    for a, b in edges:
        if a == b:
            if not dedupe:
                raise IngestionError(f"self-loop at node {a!r}")
            n_self += 1
            continue
        if frozenset((a, b)) in seen:
            if not dedupe:
                raise IngestionError(f"duplicate edge ({a!r}, {b!r})")
            n_dup += 1
            continue
        seen.add(frozenset((a, b)))
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    if not degree:
        raise DegenerateDistributionError("no edges left after filtering")
    counts = np.bincount(list(degree.values()))
    k_min = int(np.nonzero(counts)[0][0])
    weights = counts[k_min:].astype(float)
    dist = DegreeDistribution(k_min, len(counts) - 1, weights / weights.sum())
    stats = EdgeListStats(len(degree), len(seen), 2 * len(seen) / len(degree),
                          dist.n_classes, n_self, n_dup)
    return dist, stats


# ids that a byte-wise interning could confuse: a leading zero, more than
# 8 bytes, a shared first 8 bytes, and multi-byte UTF-8
STR_IDS = ["1", "01", "10", "abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefghij12345",
           "node-with-a-rather-long-identifier", "ñodo", "节点", "Ωμέγα", "x"]


def random_edges(rng, ids, n_edges):
    """Random pairs over ``ids`` with self-loops and repeats in both orientations."""
    edges = []
    for _ in range(n_edges):
        roll = rng.random()
        if roll < 0.1:
            a = ids[rng.integers(len(ids))]
            edges.append((a, a))
        elif roll < 0.35 and edges:
            a, b = edges[rng.integers(len(edges))]
            edges.append((b, a) if rng.random() < 0.5 else (a, b))
        else:
            edges.append((ids[rng.integers(len(ids))], ids[rng.integers(len(ids))]))
    return edges


def assert_same_ingest(edges, dedupe=True, loaded=None):
    try:
        expected = oracle_edge_list(edges, dedupe)
    except (IngestionError, DegenerateDistributionError) as exc:
        with pytest.raises(type(exc)) as info:
            from_edge_list(edges if loaded is None else loaded, dedupe)
        assert str(info.value) == str(exc)
        return
    dist, stats = from_edge_list(edges if loaded is None else loaded, dedupe)
    assert stats == expected[1]
    assert (dist.k_min, dist.k_max) == (expected[0].k_min, expected[0].k_max)
    assert dist.pmf.tobytes() == expected[0].pmf.tobytes()


class TestIngestEquivalence:
    """The vectorized ingest agrees with a pure-Python set/dict oracle."""

    @pytest.mark.parametrize("dedupe", [True, False])
    def test_int_ids(self, dedupe):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ids = [int(x) for x in rng.integers(-5, 10**12, int(rng.integers(2, 30)))]
            assert_same_ingest(random_edges(rng, ids, int(rng.integers(1, 80))), dedupe)

    @pytest.mark.parametrize("dedupe", [True, False])
    def test_str_ids(self, dedupe):
        rng = np.random.default_rng(12)
        for _ in range(40):
            ids = list(rng.choice(STR_IDS, int(rng.integers(2, len(STR_IDS) + 1)), replace=False))
            assert_same_ingest(random_edges(rng, [str(x) for x in ids], int(rng.integers(1, 80))),
                               dedupe)

    @pytest.mark.parametrize("dedupe", [True, False])
    def test_through_file(self, tmp_path, dedupe):
        rng = np.random.default_rng(13)
        path = tmp_path / "edges.txt"
        for _ in range(20):
            edges = random_edges(rng, STR_IDS, int(rng.integers(1, 60)))
            path.write_text("".join(f"{a}\t{b}\r\n" for a, b in edges), encoding="utf-8")
            assert_same_ingest(edges, dedupe, loaded=load_edge_list(path))

    def test_leading_zero_names_another_node(self):
        _, stats = from_edge_list([("1", "01"), ("01", "1"), ("1", "1")])
        assert (stats.n_nodes, stats.n_edges) == (2, 1)
        assert (stats.n_duplicates, stats.n_self_loops) == (1, 1)

    def test_strict_mode_names_str_tokens(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("5 7\n7 5\n")
        with pytest.raises(IngestionError, match=r"^duplicate edge \('7', '5'\)$"):
            from_edge_list(load_edge_list(path), dedupe=False)

    def test_rejects_non_pairs(self):
        with pytest.raises(ParameterError):
            from_edge_list([(1, 2, 3), (4, 5, 6)])


class TestEdgeListTokenizer:
    @staticmethod
    def load(tmp_path, data: bytes):
        path = tmp_path / "edges.txt"
        path.write_bytes(data)
        return load_edge_list(path)

    def test_crlf_and_tabs(self, tmp_path):
        edges = self.load(tmp_path, b"1\t2\r\n\t2  3 \r\n# note\r\n3\t1\t# back\r\n")
        assert edges.tolist() == [[b"1", b"2"], [b"2", b"3"], [b"3", b"1"]]

    def test_no_final_newline(self, tmp_path):
        assert self.load(tmp_path, b"1 2\n3 4").tolist() == [[b"1", b"2"], [b"3", b"4"]]

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
    def test_bad_line_number_counts_blank_and_comment_lines(self, tmp_path, eol):
        lines = [b"# header", b"", b"   ", b"1 2 # ok", b"# 3 4 5", b"\t", b"6 7 8", b"9 10"]
        message = r"edges\.txt:7: expected two node ids, got 3 fields"
        with pytest.raises(IngestionError, match=message):
            self.load(tmp_path, eol.join(lines))

    def test_one_token_line(self, tmp_path):
        with pytest.raises(IngestionError, match=r":2: expected two node ids, got 1 fields"):
            self.load(tmp_path, b"1 2\n3\n4 5\n")

    @pytest.mark.parametrize("data", [b"", b"\n\n", b"# only a comment\n", b"  # a\r\n#b"])
    def test_no_edges_found(self, tmp_path, data):
        with pytest.raises(IngestionError, match="no edges found"):
            self.load(tmp_path, data)

    def test_nul_byte_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="NUL"):
            self.load(tmp_path, b"1 2\n3\x00 4\n")

    def test_utf8_ids_kept_as_bytes(self, tmp_path):
        edges = self.load(tmp_path, "ñodo 节点\n".encode())
        assert edges.tolist() == [["ñodo".encode(), "节点".encode()]]

    def test_only_self_loops(self, tmp_path):
        edges = self.load(tmp_path, b"1 1\n2 2\n")
        with pytest.raises(DegenerateDistributionError):
            from_edge_list(edges, dedupe=True)
        with pytest.raises(IngestionError, match=r"^self-loop at node '1'$"):
            from_edge_list(edges, dedupe=False)

class TestExcess:
    """A neighbor reached along a random edge has degree k, that is excess
    degree k - 1, with probability ``edge_end_weights(dist)`` at k."""

    def test_pl2_endpoints_from_rational_oracle(self):
        q = edge_end_weights(power_law_distribution(2.0, 6, 105))
        npt.assert_allclose(q[0], 0.05644748168728221, rtol=1e-12)
        npt.assert_allclose(q[-1], 0.003225570382130412, rtol=1e-12)

    def test_hand_computed_two_class_case(self):
        # degrees 2 and 4 with probabilities 0.5/0.5: mean 3,
        # q(excess 1) = 2*0.5/3 = 1/3, q(excess 3) = 4*0.5/3 = 2/3; the
        # empty degree 3 adds nothing to the group of degree 4
        dist = DegreeDistribution(2, 4, np.array([0.5, 0.0, 0.5]))
        npt.assert_allclose(edge_end_weights(dist), [1 / 3, 2 / 3], atol=1e-15)

    def test_normalized_for_random_distributions(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k_min = int(rng.integers(1, 5))
            width = int(rng.integers(1, 60))
            raw = rng.random(width) + 1e-3
            dist = DegreeDistribution(k_min, k_min + width - 1, raw / raw.sum())
            q = edge_end_weights(dist)
            npt.assert_allclose(q.sum(), 1.0, atol=1e-12)
            # mean excess degree is <k^2>/<k> - 1
            m2 = (dist.degrees**2 * dist.pmf).sum()
            npt.assert_allclose(
                ((dist.degrees - 1) * q).sum(), m2 / dist.mean_degree - 1, rtol=1e-10
            )


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        dist = power_law_distribution(2.0, 6, 105)
        path = tmp_path / "dist.txt"
        path.write_text(format_distribution(dist))
        back = read_distribution(path)
        assert back.k_min == dist.k_min and back.k_max == dist.k_max
        npt.assert_array_equal(back.pmf, dist.pmf)

    def test_round_trip_with_interior_zeros(self, tmp_path):
        dist = DegreeDistribution(2, 5, np.array([0.25, 0.0, 0.0, 0.75]))
        path = tmp_path / "dist.txt"
        path.write_text(format_distribution(dist))
        back = read_distribution(path)
        npt.assert_array_equal(back.pmf, dist.pmf)

    def test_rejects_unsorted_degrees(self, tmp_path):
        p = tmp_path / "bad.txt"
        for text, line, got in [
            ("3 0.5\n2 0.5\n", 2, "2 after 3"),
            ("# d p\n5 0.5\n3 0.5\n", 3, "3 after 5"),
            ("4 0.25\n5 0.25\n\n5 0.5\n", 4, "5 after 5"),
        ]:
            p.write_text(text)
            want = rf"^{re.escape(str(p))}:{line}: degrees must be strictly increasing, got {got}$"
            with pytest.raises(IngestionError, match=want):
                read_distribution(p)

    def test_rejects_unnormalized(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 0.5\n2 0.4\n")
        with pytest.raises(IngestionError):
            read_distribution(p)
        # off by 5e-10: inside the 1e-9 tolerance, so renormalised rather than rejected
        p.write_text("3 0.5\n4 0.5000000005\n")
        dist = read_distribution(p)
        assert (dist.k_min, dist.k_max) == (3, 4)
        assert abs(dist.pmf.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "text, line",
        [
            ("6 nan\n7 nan\n", 1),
            ("6 0.5\n7 nan\n8 0.5\n", 2),
            ("6 -0.5\n7 1.5\n", 1),
            ("6 inf\n7 0.5\n", 1),
            ("# degree probability\n6 0.5\n7 -inf\n", 3),
        ],
        ids=["all-nan", "nan", "negative", "inf", "-inf"],
    )
    def test_rejects_bad_probability_with_line_number(self, tmp_path, text, line):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(IngestionError, match=rf"^{re.escape(str(p))}:{line}: probability must be finite"):
            read_distribution(p)

    @pytest.mark.parametrize(
        "text, line, degree",
        [("0 0.5\n1 0.5\n", 1, "0"), ("# degree probability\n-2 0.5\n1 0.5\n", 2, "-2")],
        ids=["zero", "negative"],
    )
    def test_rejects_degree_below_one_with_line_number(self, tmp_path, text, line, degree):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        want = rf"^{re.escape(str(p))}:{line}: degree must be >= 1, got {degree}$"
        with pytest.raises(IngestionError, match=want):
            read_distribution(p)

    def test_unnormalized_message_prints_a_plain_float(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 0.5\n2 0.25\n")
        with pytest.raises(IngestionError, match=r"probabilities sum to 0\.75, not 1$"):
            read_distribution(p)

    def test_rejects_garbage_with_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 0.5\ntwo 0.5\n")
        with pytest.raises(IngestionError, match="2"):
            read_distribution(p)
        path = re.escape(str(p))
        p.write_text("# degree probability\n1 0.5\n2 0.25 0.25\n")
        with pytest.raises(IngestionError, match=f"^{path}:3: expected 'degree probability'$"):
            read_distribution(p)
        p.write_text("# degree probability\n\n# no rows\n")
        with pytest.raises(IngestionError, match=f"^{path}: empty distribution file$"):
            read_distribution(p)

"""Degree distributions of contact networks.

Provides the synthetic generators (truncated Poisson for Erdos-Renyi-like
networks, truncated power law for scale-free ones), ingestion of empirical
edge lists, and a plain-text serialization format (`degree probability`
per line).

Edge-list files hold one undirected edge per line: two node ids separated
by ASCII whitespace (spaces or tabs; LF or CRLF line endings). ``#``
starts a comment that runs to the end of the line, and blank lines are
skipped. Ids are compared as raw byte tokens, so ``01`` and ``1`` are
two nodes and UTF-8 ids are taken as they are. NUL bytes are rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistributionError, IngestionError, ParameterError

__all__ = [
    "DegreeDistribution",
    "EdgeListStats",
    "poisson_distribution",
    "power_law_distribution",
    "from_edge_list",
    "load_edge_list",
    "format_distribution",
    "read_distribution",
]

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability mass over the integer degrees of a network.

    The support is the contiguous range ``k_min..k_max``; interior degrees
    may carry zero mass (sparse empirical histograms) but the bounds are
    tight: ``pmf[0] > 0`` and ``pmf[-1] > 0``.
    """

    k_min: int
    k_max: int
    pmf: np.ndarray

    def __post_init__(self):
        if self.k_min < 1:
            raise ParameterError(f"k_min must be >= 1, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ParameterError(f"k_max={self.k_max} < k_min={self.k_min}")
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        if pmf.shape != (self.k_max - self.k_min + 1,):
            raise ParameterError(
                f"pmf length {pmf.shape} does not match degree range "
                f"[{self.k_min}, {self.k_max}]"
            )
        if not np.isfinite(pmf).all():
            raise ParameterError("probabilities must be finite")
        if np.any(pmf < 0):
            raise ParameterError("probabilities must be nonnegative")
        if abs(pmf.sum() - 1.0) > _MASS_TOL:
            raise ParameterError(f"probabilities sum to {float(pmf.sum())!r}, not 1")
        if pmf[0] <= 0 or pmf[-1] <= 0:
            raise ParameterError("support bounds must carry positive mass")

    @property
    def degrees(self) -> np.ndarray:
        """Integer degrees ``k_min..k_max``."""
        return np.arange(self.k_min, self.k_max + 1)

    @property
    def n_classes(self) -> int:
        """Number of degree classes, ``k_max - k_min + 1``."""
        return self.k_max - self.k_min + 1

    @property
    def mean_degree(self) -> float:
        """Average number of contacts per node."""
        return float(self.degrees @ self.pmf)

    def edge_end_weights(self) -> np.ndarray:
        """Fraction of edge ends attached to each degree class.

        Entry ``k`` is ``k * pmf_k / mean_degree``: the probability that a
        uniformly random edge end lands on a node of degree ``k``. These
        weights drive the infection-pressure sum of the mean-field model
        and sum to one.
        """
        return self.degrees * self.pmf / self.mean_degree


@dataclass(frozen=True)
class EdgeListStats:
    """Summary of an ingested edge list (after filtering)."""

    n_nodes: int
    n_edges: int
    mean_degree: float
    n_classes: int
    n_self_loops: int = 0
    n_duplicates: int = 0


def _normalized(k_min: int, k_max: int, weights: np.ndarray) -> DegreeDistribution:
    """Trim zero-mass tails and normalize raw weights into a distribution."""
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise DegenerateDistributionError("no probability mass on the requested support")
    nz = np.nonzero(weights)[0]
    lo, hi = nz[0], nz[-1]
    pmf = weights[lo : hi + 1] / weights[lo : hi + 1].sum()
    return DegreeDistribution(k_min + int(lo), k_min + int(hi), pmf)


def poisson_distribution(lam: float, k_min: int, k_max: int) -> DegreeDistribution:
    """Poisson degree distribution truncated to ``[k_min, k_max]``.

    Parameters
    ----------
    lam : float
        Rate of the untruncated Poisson law; for wide supports this is
        essentially the mean degree of the network.
    k_min, k_max : int
        Inclusive support bounds; ``k_min >= 1`` since isolated nodes do
        not take part in the epidemic.

    The probabilities are evaluated in log space so large degrees do not
    overflow ``lam**k / k!``. If the Poisson law leaves less than 1e-12 of
    its mass on the requested support the truncation is meaningless and a
    :class:`DegenerateDistributionError` is raised.
    """
    if not (lam > 0 and np.isfinite(lam)):
        raise ParameterError(f"lambda must be positive and finite, got {lam}", "lambda")
    _check_bounds(k_min, k_max)
    ks = np.arange(k_min, k_max + 1)
    log_pmf = -lam + ks * math.log(lam) - np.array([math.lgamma(k + 1) for k in ks])
    # Mass retained by the truncation, evaluated without over/underflow.
    shift = log_pmf.max()
    retained = math.exp(shift) * np.exp(log_pmf - shift).sum()
    if retained < 1e-12:
        raise DegenerateDistributionError(
            f"Poisson(lambda={lam}) keeps only {retained:.3e} mass on "
            f"[{k_min}, {k_max}]"
        )
    return _normalized(k_min, k_max, np.exp(log_pmf - shift))


def power_law_distribution(alpha: float, k_min: int, k_max: int) -> DegreeDistribution:
    """Power-law degree distribution ``pmf_k ~ k**-alpha`` on ``[k_min, k_max]``.

    ``alpha = 0`` degenerates to the uniform distribution over the support.
    """
    if not (alpha >= 0 and np.isfinite(alpha)):
        raise ParameterError(f"alpha must be nonnegative and finite, got {alpha}", "alpha")
    _check_bounds(k_min, k_max)
    ks = np.arange(k_min, k_max + 1, dtype=float)
    return _normalized(k_min, k_max, ks**-alpha if alpha else np.ones_like(ks))


def _check_bounds(k_min, k_max):
    if not (isinstance(k_min, (int, np.integer)) and isinstance(k_max, (int, np.integer))):
        raise ParameterError("degree bounds must be integers")
    if k_min < 1:
        raise ParameterError(f"k_min must be >= 1, got {k_min}", "k_min")
    if k_max < k_min:
        raise ParameterError(f"k_max={k_max} < k_min={k_min}", "k_max")


def from_edge_list(edges, dedupe: bool = True) -> tuple[DegreeDistribution, EdgeListStats]:
    """Build the empirical degree distribution of an undirected edge list.

    Parameters
    ----------
    edges : (E, 2) array-like of node ids
        Ids are compared after ``np.asarray``, by their bytes, so a list
        that mixes ``1`` and ``"1"`` names one node while ``"01"`` and
        ``"1"`` name two.
    dedupe : bool
        When True (default), self-loops are dropped and repeated edges
        (in either orientation) are counted once. When False the first
        one in list order is an error.

    Returns
    -------
    (DegreeDistribution, EdgeListStats)
        The normalized degree histogram (degree-0 nodes excluded, so the
        epidemic model sees only connected nodes) and ingestion counters.
    """
    edges = np.asarray(edges)
    if edges.dtype.hasobject or (edges.size and edges.shape[1:] != (2,)):
        raise ParameterError(f"edges must be (E, 2) numbers or strings, got {edges.shape}")
    # intern: sort ids as 8-byte words (np.unique on strings is slower), number equal runs
    flat = np.ascontiguousarray(edges).reshape(-1)
    raw = flat.view(np.uint8).reshape(flat.size, flat.itemsize)
    words = np.pad(raw, ((0, 0), (0, -raw.shape[1] % 8))).view("<u8")
    order = np.lexsort(words.T) if words.shape[1] > 1 else np.argsort(words[:, 0])
    new = np.concatenate([[True], np.diff(words[order], axis=0).any(axis=1)])
    ids = np.empty(flat.size, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    a, b, n = ids[0::2], ids[1::2], int(new.sum())
    loop = a == b
    key = np.minimum(a, b) * n + np.maximum(a, b)
    if not dedupe:
        order = np.argsort(key, kind="stable")
        bad = np.concatenate([np.flatnonzero(loop), order[1:][np.diff(key[order]) == 0]])
        if bad.size:
            i = bad.min()
            x, y = (t.decode(errors="replace") if isinstance(t, bytes) else t
                    for t in edges[i].tolist())  # bytes tokens print as str
            raise IngestionError(f"duplicate edge ({x!r}, {y!r})" if not loop[i]
                                 else f"self-loop at node {x!r}")
    pairs = np.sort(key[~loop])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    if not pairs.size:
        raise DegenerateDistributionError("no edges left after filtering")
    degree = np.bincount(np.concatenate(np.divmod(pairs, n)))
    degree = degree[degree > 0]
    counts = np.bincount(degree)
    k_min = int(np.nonzero(counts)[0][0])  # >= 1: every counted node has an edge
    dist = _normalized(k_min, len(counts) - 1, counts[k_min:].astype(float))
    stats = EdgeListStats(
        n_nodes=len(degree),
        n_edges=len(pairs),
        mean_degree=2 * len(pairs) / len(degree),
        n_classes=dist.n_classes,
        n_self_loops=int(loop.sum()),
        n_duplicates=int(len(key) - loop.sum() - len(pairs)),
    )
    return dist, stats


def load_edge_list(path) -> np.ndarray:
    """(E, 2) bytes array of an edge-list file's id tokens (format above), in file order."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\0" in data:
        raise IngestionError(f"{path}: NUL byte in edge list")
    if b"#" in data:
        data = re.sub(rb"#[^\n]*", b"", data)
    buf = np.frombuffer(data, dtype=np.uint8)
    word = ~((buf == 32) | ((buf >= 9) & (buf <= 13)))  # not ASCII whitespace, as in bytes.split()
    starts, ends = np.flatnonzero(np.diff(word, prepend=False, append=False)).reshape(-1, 2).T
    fields = np.bincount(np.searchsorted(np.flatnonzero(buf == ord("\n")), starts))
    bad = np.flatnonzero((fields != 0) & (fields != 2))
    if bad.size:
        raise IngestionError(
            f"{path}:{bad[0] + 1}: expected two node ids, got {fields[bad[0]]} fields"
        )
    if not starts.size:
        raise IngestionError(f"{path}: no edges found")
    return np.array(data.split(), dtype=f"S{(ends - starts).max()}").reshape(-1, 2)


def format_distribution(dist: DegreeDistribution) -> str:
    """``degree probability`` lines, full precision for exact round trips."""
    return "# degree probability\n" + "".join(
        f"{k} {float(p)!r}\n" for k, p in zip(dist.degrees, dist.pmf)
    )


def read_distribution(path) -> DegreeDistribution:
    """Read the two-column UTF-8 text format of :func:`format_distribution`."""
    degrees, probs = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise IngestionError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise IngestionError(f"{path}:{lineno}: expected 'degree probability'")
        try:
            degrees.append(int(parts[0]))
            probs.append(float(parts[1]))
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: {exc}") from exc
        if not (probs[-1] >= 0 and math.isfinite(probs[-1])):  # also rejects nan
            raise IngestionError(
                f"{path}:{lineno}: probability must be finite and >= 0, got {parts[1]}"
            )
    if not degrees:
        raise IngestionError(f"{path}: empty distribution file")
    k = np.asarray(degrees)
    if np.any(np.diff(k) <= 0):
        raise IngestionError(f"{path}: degrees must be strictly increasing")
    pmf = np.zeros(k[-1] - k[0] + 1)
    pmf[k - k[0]] = probs
    total = pmf.sum()
    if abs(total - 1.0) > 1e-9:
        raise IngestionError(f"{path}: probabilities sum to {float(total)!r}, not 1")
    if abs(total - 1.0) > _MASS_TOL:
        return _normalized(int(k[0]), int(k[-1]), pmf)
    # already normalized: build directly so exact values round-trip untouched
    nz = np.nonzero(pmf)[0]
    lo, hi = int(nz[0]), int(nz[-1])
    return DegreeDistribution(int(k[0]) + lo, int(k[0]) + hi, pmf[lo : hi + 1])

"""Seeded configuration-model edge list for the ``edge_list_compare`` workload.

Node degrees are drawn from a truncated power law over 3..1000 and the edge
stubs are paired uniformly at random, which leaves some self-loops and
repeated edges for ingestion to drop. That wiring is drawn once, from
``WIRING_SEED``; the benchmark seed draws the node labels, the order of the
lines and the orientation of each edge. Every seed thus gives a different
file with the same degree distribution, so the solve after ingestion does the
same work for every seed and the timings of different seeds compare.

:func:`expected_counts` derives what ``epinetopt ingest`` must report with
NumPy alone, so the benchmark checks the ``network`` layer against a
computation that does not use it.
"""

from __future__ import annotations

import numpy as np

N_NODES = 100_000
K_MIN, K_MAX = 3, 1000
ALPHA = 2.45  # gives ~380k edges, mean degree ~7.6, ~930 degree classes
WIRING_SEED = 20211206


def generate(seed: int, n_nodes: int = N_NODES) -> np.ndarray:
    """(E, 2) array of node ids; the same seed gives the same edges."""
    rng = np.random.default_rng(WIRING_SEED)
    k = np.arange(K_MIN, K_MAX + 1)
    weights = k.astype(float) ** -ALPHA
    degrees = rng.choice(k, size=n_nodes, p=weights / weights.sum())
    if degrees.sum() % 2:
        degrees[rng.integers(n_nodes)] += 1
    stubs = np.repeat(np.arange(n_nodes), degrees)
    rng.shuffle(stubs)
    edges = stubs.reshape(-1, 2)

    rng = np.random.default_rng(seed)
    edges = rng.permutation(n_nodes)[edges]
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges


def write(edges: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{a} {b}" for a, b in edges.tolist()))
        fh.write("\n")


def expected_counts(edges: np.ndarray) -> dict:
    """Counts that ingesting ``edges`` with de-duplication must report."""
    a, b = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    loop = a == b
    lo, hi = np.minimum(a, b)[~loop], np.maximum(a, b)[~loop]
    span = int(edges.max()) + 1
    pairs = np.unique(lo * span + hi)
    degree = np.bincount(np.concatenate([pairs // span, pairs % span]))
    degree = degree[degree > 0]
    return {
        "nodes": int(len(degree)),
        "edges": int(len(pairs)),
        "self_loops_dropped": int(loop.sum()),
        "duplicates_dropped": int((~loop).sum() - len(pairs)),
        "mean_degree": 2 * len(pairs) / len(degree),
        "k_min": int(degree.min()),
        "k_max": int(degree.max()),
    }

"""How many degree groups are enough?

The grouped epidemic model replaces one ODE pair per degree class with
one pair per group. This script prints the combined relative error of
the grouped aggregates against the full per-class model as the number
of groups grows, for both a power-law and a Poisson network — the error
drops fast and hits machine precision once every class gets its own
group.

Run from the repository root:  python demos/grouping_accuracy.py
"""

from epinetopt import (
    EpidemicParams,
    TimeGrid,
    grouping_error,
    poisson_distribution,
    power_law_distribution,
)

params = EpidemicParams(beta=0.5, gamma=0.25, i0=0.01, duration=20.0)
grid = TimeGrid(1001, params.duration)

networks = {
    "power law (alpha=2, degrees 6..105)": power_law_distribution(2.0, 6, 105),
    "poisson (lambda=17.5, degrees 1..45)": poisson_distribution(17.5, 1, 45),
}

for name, dist in networks.items():
    print(name)
    group_counts = [z for z in (1, 2, 4, 8, 16, 21, 32, 64) if z < dist.n_classes]
    group_counts.append(dist.n_classes)
    for z, err in zip(group_counts, grouping_error(dist, group_counts, params, grid)):
        print(f"  Z={z:>3}: combined relative error {err:.3e}")
    print()
print("Z=21 keeps the error below 1e-3 for both networks at a fraction")
print("of the full model's size; identical class counts are exact.")

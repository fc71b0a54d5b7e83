"""How fast do networked agents agree, and what do link failures cost?

Consensus averaging with Metropolis weights: each agent repeatedly replaces
its value by a degree-weighted average of its neighbors'.  The weights are
doubly stochastic by construction, so the network-wide mean is preserved
while disagreement contracts geometrically — the contraction rate is the
spectral norm of E[C^T (I - 11^T/n) C], which this script computes exactly
(in closed form, no sampling) for several topologies, with and without random
link failures.

Run:  python3 demos/consensus_mixing.py      (under 1 s)
"""

import numpy as np

from netdac import network


def disagreement_curve(process, x0, steps):
    x = x0.copy()
    out = []
    for _ in range(steps):
        x = process.sample_weights() @ x
        out.append(float(np.max(np.abs(x - x.mean()))))
    return out


def main() -> None:
    print(__doc__)
    n = 8
    topologies = {
        "path": network.path_graph(n),
        "ring": network.ring_graph(n),
        "star": network.star_graph(n),
        "complete": network.complete_graph(n),
    }

    print(f"{'topology':>20} {'mixing norm':>12} {'rounds to 1e-6':>16}")
    x0 = np.random.default_rng(0).standard_normal(n)
    for name, g in topologies.items():
        process = network.GraphProcess(g)
        report = network.check_assumption_random_matrices(process)
        curve = disagreement_curve(process, x0, 400)
        rounds = next((k + 1 for k, d in enumerate(curve) if d < 1e-6), ">400")
        print(f"{name:>20} {report.mixing_norm:>12.4f} {rounds:>16}")

    print("\nWith each link failing independently per round (p = 0.3):")
    print(f"{'topology':>20} {'mixing norm':>12} {'rounds to 1e-6':>16}")
    for name, g in topologies.items():
        process = network.GraphProcess(
            g, failure_prob=0.3, rng=np.random.default_rng(42)
        )
        report = network.check_assumption_random_matrices(process)
        curve = disagreement_curve(process, x0, 400)
        rounds = next((k + 1 for k, d in enumerate(curve) if d < 1e-6), ">400")
        print(f"{name:>20} {report.mixing_norm:>12.4f} {rounds:>16}")

    print(
        "\nEvery case keeps the mixing norm strictly below 1, so disagreement"
        "\ndies geometrically even on the flakiest graph; failures only slow"
        "\nthe rate.  Row sums stay exactly 1 (each draw is a valid averaging"
        "\nmatrix) and the mean weight matrix stays column-stochastic, which"
        "\nis what lets every agent's critic converge to the same fixed point."
    )


if __name__ == "__main__":
    main()

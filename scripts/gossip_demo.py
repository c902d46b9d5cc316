"""Two-agent asynchronous exchange: oscillation versus its time average.

With one agent active per step the raw trajectory never settles, but its
Cesaro average converges to the mean equilibrium
(I - Gamma_bar)^-1 b_bar = [2/3, 1/3], for beta = activation size / n.
With --activation-size 2 both agents update every step and the
trajectory itself converges there. Writes the running average of agent 0
for a few seeds as plot-ready rows.
"""

import argparse
import csv

import numpy as np

import opinionkit as ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=20_000)
    parser.add_argument("--activation-size", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--stride", type=int, default=100)
    parser.add_argument("--out", default="gossip_demo.csv")
    args = parser.parse_args()

    net = ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.array([0.5, 0.5])
    )
    x0 = np.array([1.0, 0.0])
    beta = args.activation_size / net.n
    gamma_bar, b_bar, x_mean = ok.expected_gossip_dynamics(net, beta=beta, x0=x0)
    print("expected dynamics matrix:")
    print(gamma_bar)
    print(f"drift term {b_bar}, mean equilibrium {x_mean}")

    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "series"])
        for sd in range(args.seeds):
            traj = ok.simulate_gossip_fj(
                net, x0, steps=args.steps, activation_size=args.activation_size, seed=sd
            )
            running = ok.cesaro_average(traj)[:, 0, 0]
            for k in range(0, args.steps + 1, args.stride):
                writer.writerow([k, format(float(running[k]), ".17g"), f"seed_{sd}"])
            print(
                f"seed {sd}: final average {running[-1]:.4f} "
                f"(target {x_mean[0]:.4f})"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

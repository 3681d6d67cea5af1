#!/usr/bin/env python3
"""ASCII map of the (rho, eps) violation region.

'#' marks grid cells whose closed-form CHSH value exceeds 2, '.' the rest,
'+' cells on the boundary eps = sqrt(2)*rho. Optionally cross-checks each
printed cell against a Monte Carlo estimate."""

import argparse

from bellpoly import sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument("--trials", type=int, default=None,
                        help="Monte Carlo cross-check per cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    grid = [i / (args.steps - 1) for i in range(args.steps)]
    rows = list(sweep(grid, grid, trials=args.trials, seed=args.seed))  # read twice below
    by_cell = {(r.rho, r.epsilon): r for r in rows}

    print("eps")
    for eps in reversed(grid):
        line = []
        for rho in grid:
            row = by_cell[(rho, eps)]
            mark = "+" if row.regime == "boundary" else ("#" if row.violates else ".")
            line.append(mark)
        print(f"{eps:5.2f} " + " ".join(line))
    print("      " + " ".join(f"{rho:3.1f}"[-1] for rho in grid) + "   rho ->")

    if args.trials:
        worst = max(
            (abs(r.mc_chsh - r.chsh), r) for r in rows if r.mc_stderr is not None
        )
        gap, row = worst
        print(f"\nlargest |mc_chsh - chsh| = {gap:.5f} at "
              f"(rho={row.rho:.2f}, eps={row.epsilon:.2f}), "
              f"mc stderr {row.mc_stderr:.5f}")


if __name__ == "__main__":
    main()

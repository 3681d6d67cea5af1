"""Command-line front end.

Subcommands: evaluate, membership, distinguish, sweep, simulate. Exit codes
are a stable contract: 0 success (membership: inside), 1 outside the
polytope, 2 input error, 3 capacity exceeded, 4 output I/O failure.
The commands raise; `main` alone maps exceptions to codes: CapacityError to
3; an OSError or UnicodeEncodeError, which can only come from writing stdout
or `--out`, to 4; and any other ValueError to 2 (an unreadable input file
included). Anything else propagates; membership itself raises nothing else,
because both of its modes end in a certified verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Optional

from .core import (
    CH_BY_NAME,
    CH_SHAPE,
    CapacityError,
    Prob,
    Scenario,
    chsh_statistic,
)
from .epsrho import (
    SWEEP_BLOCK,
    EpsRhoParams,
    MeasurementDirections,
    closed_form_expectation,
    monte_carlo_expectation,
    sweep,
)
from .models import (
    SingletConfig,
    concept_scenario,
    distinguish_events,
    singlet_scenario,
    vessels_scenario,
)
from .pitowsky import ch_inequality_set, membership
from .scenario_io import dumps_scenario, load_scenario, save_scenario

EXIT_OK = 0
EXIT_OUTSIDE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_IO = 4

DEFAULT_ANGLES = "0,90,45,135"

CSV_HEADER = "rho,epsilon,e_ab,e_ab2,e_a2b,e_a2b2,chsh,violates,regime"


def _show(value: Prob) -> str:
    """Human-report format: floats at full precision."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_angles(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated angles, got {text!r}")
    return [float(p) for p in parts]


def _load_input(args) -> Scenario:
    if getattr(args, "builtin", None):
        if args.builtin == "singlet":
            degs = _parse_angles(args.angles or DEFAULT_ANGLES)
            cfg = SingletConfig(*(math.radians(d) for d in degs))
            return singlet_scenario(cfg)
        if args.angles:
            raise ValueError("--angles only applies to the singlet scenario")
        if args.builtin == "vessels":
            return vessels_scenario()
        return concept_scenario()
    if getattr(args, "path", None):
        return load_scenario(args.path)
    raise ValueError("provide a scenario file or --builtin NAME")


def cmd_evaluate(args) -> int:
    scenario = _load_input(args)
    print(f"scenario: {scenario.name} (kind {scenario.kind})")
    if scenario.expectations is not None:
        e = scenario.expectations
        print(
            f"expectations: E13={_show(e.e13)} E14={_show(e.e14)} "
            f"E23={_show(e.e23)} E24={_show(e.e24)}"
        )
        print(f"CHSH |E13-E14|+|E23+E24| = {_show(chsh_statistic(e))}")
    else:
        print("CHSH: not available (no expectations)")
    v = scenario.vector
    if v.n == 4 and v.pairs == CH_SHAPE:
        print("Clauser-Horne combinations (classical range [-1, 0]):")
        for res in ch_inequality_set(v):
            if not res.facet:
                continue
            flag = "satisfied" if res.satisfied else "VIOLATED"
            formula = CH_BY_NAME[res.name].formula
            print(f"  {res.name}  {formula} = {_show(res.value)}  {flag}")
    else:
        print("Clauser-Horne combinations: not applicable to this shape")
    print(f"vector: n={v.n}, pairs={[list(p) for p in v.pairs]}")
    print("  singles: " + "  ".join(f"p{i}={_show(v.singles[i])}" for i in range(1, v.n + 1)))
    print("  joints:  " + "  ".join(f"p{i}{j}={_show(v.joints[(i, j)])}" for i, j in v.pairs))
    return EXIT_OK


def cmd_membership(args) -> int:
    v = load_scenario(args.path).vector
    result = membership(v, mode="exact" if args.exact else None)
    print(f"n = {v.n}, pairs = {[list(p) for p in v.pairs]}, mode = {result.mode}")
    if result.inside:
        support = sum(1 for w in result.certificate if w > 1e-12)
        err = result.reconstruction_error(v)
        print(f"result: inside C({v.n},S)")
        print(f"certificate: {support} vertices with positive weight; "
              f"max reconstruction error = {_show(err)}")
        return EXIT_OK
    print(f"result: outside C({v.n},S) (no convex combination of the "
          f"{2 ** v.n} vertices reproduces the vector)")
    facet = result.violated_facet
    if facet is not None:
        bounds = f"[{_show(facet.lower) if facet.lower is not None else '-inf'}, " \
                 f"{_show(facet.upper) if facet.upper is not None else 'inf'}]"
        print(f"violated facet: {facet.name} = {_show(facet.value)} (allowed {bounds})")
    else:
        print("violated facet: no named inequality list for this shape")
    return EXIT_OUTSIDE


def cmd_distinguish(args) -> int:
    scenario = _load_input(args)
    vector = distinguish_events(scenario)
    out = Scenario(f"{scenario.name}-distinguished", "explicit", vector=vector)
    if args.out:
        save_scenario(out, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dumps_scenario(out))
    return EXIT_OK


def _uniform_grid(steps: int) -> list[float]:
    return [i / (steps - 1) for i in range(steps)]


def cmd_sweep(args) -> int:
    if args.rho_steps < 2 or args.eps_steps < 2:
        raise ValueError("step counts must be at least 2")
    if args.trials is not None and args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    rho_grid, eps_grid = _uniform_grid(args.rho_steps), _uniform_grid(args.eps_steps)
    # sweep() checks its arguments on this call, before --out is created; rows come later
    rows = sweep(rho_grid, eps_grid, trials=args.trials, seed=args.seed)
    # the grid values and the saturated constants (-1, 0, 1, 4) are formatted once
    grid_text = {value: f"{value:.12g}" for value in (*rho_grid, *eps_grid, -1.0, 4.0)}
    text = grid_text.get
    block = min(len(eps_grid), SWEEP_BLOCK)  # rows per write: a grid row, or a block of a wide one
    with (open(args.out, "w", encoding="utf-8", newline="\n") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(CSV_HEADER + (",mc_chsh,mc_stderr\n" if args.trials else "\n"))
        lines = []
        # sweep() passes e_ab itself as e_a2b and e_a2b2, so it is formatted once
        for rho, eps, e_ab, e_ab2, _, _, chsh, violates, regime, mc_chsh, mc_stderr in rows:
            ab = text(e_ab) or f"{e_ab:.12g}"
            # at the CHSH angles e_ab2 is -e_ab, whose text is ab without its sign
            ab2 = ab[1:] if e_ab < 0.0 and e_ab2 == -e_ab else text(e_ab2) or f"{e_ab2:.12g}"
            lines.append(f"{grid_text[rho]},{grid_text[eps]},{ab},{ab2},{ab},{ab},"
                         f"{text(chsh) or f'{chsh:.12g}'},{violates},{regime}"
                         + (f",{mc_chsh:.12g},{mc_stderr:.12g}\n" if args.trials else "\n"))
            if len(lines) == block:
                fh.write("".join(lines))
                lines.clear()
        fh.write("".join(lines))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    params = EpsRhoParams(args.rho, args.eps)
    dirs = MeasurementDirections.from_angle(math.radians(args.angle_deg))
    estimate, stderr = monte_carlo_expectation(params, dirs, args.trials, args.seed)
    closed = closed_form_expectation(params, dirs.cos_ab)
    if stderr > 0.0:
        z = (estimate - closed) / stderr
    else:
        z = 0.0 if estimate == closed else math.inf
    print(f"rho = {_show(args.rho)}, eps = {_show(args.eps)}, "
          f"angle = {_show(args.angle_deg)} deg, trials = {args.trials}, seed = {args.seed}")
    print(f"monte carlo estimate = {_show(estimate)}")
    print(f"standard error       = {_show(stderr)}")
    print(f"closed form          = {_show(closed)}")
    print(f"z-score              = {_show(z)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellpoly",
        description="Bell-type inequality statistics, correlation-polytope "
                    "membership, and the rho-eps measurement model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate CHSH and Clauser-Horne statistics")
    p_eval.add_argument("path", nargs="?", help="scenario file (JSON)")
    p_eval.add_argument("--builtin", choices=("singlet", "vessels", "concept"))
    p_eval.add_argument("--angles", help="singlet directions in degrees: a1,a2,a3,a4")
    p_eval.set_defaults(func=cmd_evaluate)

    p_mem = sub.add_parser("membership", help="decide classical representability")
    p_mem.add_argument("path", help="scenario file (JSON)")
    p_mem.add_argument("--exact", action="store_true", help="force exact rational arithmetic")
    p_mem.set_defaults(func=cmd_membership)

    p_dis = sub.add_parser("distinguish", help="split events per pairing (n=8 output)")
    p_dis.add_argument("path", nargs="?", help="scenario file (JSON)")
    p_dis.add_argument("--builtin", choices=("singlet", "vessels", "concept"))
    p_dis.add_argument("--angles", help="singlet directions in degrees: a1,a2,a3,a4")
    p_dis.add_argument("--out", help="output scenario file (default: stdout)")
    p_dis.set_defaults(func=cmd_distinguish)

    p_sweep = sub.add_parser("sweep", help="scan the (rho, eps) violation region to CSV")
    p_sweep.add_argument("--rho-steps", type=int, default=21)
    p_sweep.add_argument("--eps-steps", type=int, default=21)
    p_sweep.add_argument("--trials", type=int, default=None,
                         help="Monte Carlo coincidences per cell and angle")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", help="CSV path (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate vs closed form")
    p_sim.add_argument("--rho", type=float, required=True)
    p_sim.add_argument("--eps", type=float, required=True)
    p_sim.add_argument("--angle-deg", type=float, default=45.0)
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failure to write stdout's buffered tail shows here, not at exit
        return code
    except CapacityError as exc:  # a ValueError too, so it comes first
        return _fail(str(exc), EXIT_CAPACITY)
    except (OSError, UnicodeEncodeError) as exc:  # output failures; the second is a ValueError
        try:
            sys.stdout.flush()
        except OSError:  # stdout failed, and the interpreter's flush at exit would fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(str(exc), EXIT_IO)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    raise SystemExit(main())

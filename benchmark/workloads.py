"""The four workloads: seeded set-up, the operations of one round, and the
checks that run once the timed rounds are over.

Every operation is one in-process call of `bellpoly.cli.main(argv)` with the
argv of the README's shell commands. Rounds are whole: a run always attempts
every operation of a round, so the share of failed operations is the same in
every run. Checks and input generation never run between timed operations,
because an operation's time depends on what the process allocated before it.
"""

from __future__ import annotations

import hashlib
import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import inputs

WORK = Path(__file__).resolve().parent / "_work"


def call_cli(argv: list[str]):
    """(exit code, stdout) of one in-process CLI call; exceptions propagate."""
    import bellpoly.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = bellpoly.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue()


def warm_up(workdir: Path) -> None:
    """Exercise the membership and sweep paths once on tiny inputs."""
    rng = np.random.default_rng(0)
    pairs = ((1, 3), (1, 4), (2, 3), (2, 4))
    path = workdir / "warm.json"
    path.write_text(inputs.scenario_text(
        "warm", 4, pairs, inputs.inside_vector(rng, 4, pairs, 4)), encoding="utf-8")
    call_cli(["membership", str(path)])
    call_cli(["sweep", "--rho-steps", "3", "--eps-steps", "3", "--trials", "8",
              "--out", str(workdir / "warm.csv")])


class Workload:
    """Set-up writes the inputs; `ops(r)` lists round r as (argv, key)."""

    #: the operation that fails on every run, if any (by key)
    known_failure = None

    def __init__(self, seed: int):
        self.seed = seed
        self.dir = WORK / self.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def ops(self, r: int) -> list[tuple[list[str], object]]:
        raise NotImplementedError

    def record(self, key, code, stdout: str) -> None:
        """Untimed bookkeeping right after an operation."""

    def check(self) -> list[str]:
        raise NotImplementedError


class Membership(Workload):
    """Rounds of `membership FILE` over inside and outside vectors; round r
    uses input set r modulo the pool, so a run sees many distinct inputs."""

    #: (input family, groups of it per round)
    families: tuple = ()
    pool = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rounds = [[] for _ in range(self.pool)]
        for family, per_round in self.families:
            groups = inputs.make_membership_inputs(self.dir, seed, family, per_round * self.pool)
            for idx, group in enumerate(groups):
                self.rounds[idx // per_round].extend(group)
        self.results = []

    def ops(self, r):
        return [(["membership", str(inp.path)], inp) for inp in self.rounds[r % self.pool]]

    def record(self, key, code, stdout):
        self.results.append((key, code, stdout))

    def check(self):
        problems = []
        for inp, code, stdout in self.results:
            problems += checks.check_membership(inp, code, stdout)
        for inps in self.rounds:
            for inp in inps:
                if not inp.inside:
                    problems += checks.check_inequality(inp)
        return problems


class MembershipExact(Membership):
    """n = 7 and 8: the default mode is the dense Fraction tableau."""

    name = "membership-exact"
    families = ((inputs.Family(7, 14, 2, 1, "in+out"), 1),)
    pool = 64


class MembershipFloat(Membership):
    """n = 11 and 12: the default mode is the float tableau over all 2^n
    columns. Weighted combinations keep the float simplex off the degenerate
    plateaus that plain vertex means run into, except for the one fixed
    vector that is known to stall."""

    name = "membership-float"
    families = ((inputs.Family(11, 11, 64, 16, "in+out"), 2),
                (inputs.Family(11, 11, 64, 16, "in"), 2),
                (inputs.Family(12, 12, 64, 16, "in+out"), 1))
    pool = 12

    def __init__(self, seed: int):
        super().__init__(seed)
        self.known_failure = inputs.make_degenerate_input(self.dir)
        for inps in self.rounds:
            inps.append(self.known_failure)


class McSweep(Workload):
    """`sweep 21x21 --trials 100000`: round r runs with --seed seed*64 + r."""

    name = "mc-sweep"
    steps = 21
    trials = 100_000
    sampled_cells = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.outputs = []

    def ops(self, r):
        sweep_seed = self.seed * 64 + r
        out = self.dir / f"mc{r}.csv"
        argv = ["sweep", "--rho-steps", str(self.steps), "--eps-steps", str(self.steps),
                "--trials", str(self.trials), "--seed", str(sweep_seed), "--out", str(out)]
        return [(argv, (sweep_seed, out))]

    def record(self, key, code, stdout):
        self.outputs.append((key, code))

    def check(self):
        problems = []
        cells = self.steps * self.steps
        for (sweep_seed, out), code in self.outputs:
            if code != 0:
                problems.append(f"{out.name}: exit {code!r}")
                continue
            text = out.read_text(encoding="utf-8")
            problems += checks.check_sweep_csv(text, self.steps, self.steps, self.trials)
            pick = np.random.default_rng([self.seed, sweep_seed]).choice(
                cells, size=self.sampled_cells, replace=False)
            problems += checks.check_mc_cells(
                text, self.steps, self.steps, self.trials, sweep_seed, sorted(int(c) for c in pick))
        return problems


class SweepClosed(Workload):
    """`sweep 401x401` without trials. The argv is fixed, so the seed does not
    enter; every operation must write the same bytes."""

    name = "sweep-closed"
    steps = 401

    def __init__(self, seed: int):
        super().__init__(seed)
        self.out = self.dir / "closed.csv"
        self.digests = []

    def ops(self, r):
        argv = ["sweep", "--rho-steps", str(self.steps), "--eps-steps", str(self.steps),
                "--out", str(self.out)]
        return [(argv, None)]

    def record(self, key, code, stdout):
        with open(self.out, "rb") as fh:
            self.digests.append((code, hashlib.file_digest(fh, "sha256").hexdigest()))

    def check(self):
        codes = {code for code, _ in self.digests}
        if codes != {0}:
            return [f"exit codes {sorted(map(repr, codes))}"]
        if len({digest for _, digest in self.digests}) != 1:
            return ["operations wrote different bytes"]
        text = self.out.read_text(encoding="utf-8")
        return checks.check_sweep_csv(text, self.steps, self.steps)


WORKLOADS = {w.name: w for w in (MembershipExact, MembershipFloat, McSweep, SweepClosed)}

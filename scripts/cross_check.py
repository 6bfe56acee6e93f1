#!/usr/bin/env python3
"""Randomized agreement check between the closed forms and the grid oracle.

Draws random hierarchies and takes both routes' answers on each from
`infochain.cli.routes`, as ``infochain compare`` does: the closed-form
engine's, and the brute force's that reproduces it.  The binary mode asks
for the closed support among the grid equilibria on the game's breakpoints
(`breakpoint_grid`, exact, so any mismatch is real) and for each player's
closed-form value to equal the oracle's from-definition value of the closed
outcome, the uniform mode for the closed support among the surviving mean
pairs of the pair search on the game's breakpoint means
(`breakpoint_means`, exact as well), and both for the pass-through verifier
to accept the closed-form report.  Any disagreement or rejection is printed
with the full hierarchy and both answers, and the exit code is nonzero so
the script can gate a long soak run.  No mode takes a grid.

With ``--digest`` nothing is compared: the script prints both routes'
answers, one line per drawn game and no timings, so that the output of two
versions of the package can be diffed.  Each line holds the closed form's
answer (kind, support, no-information cause or condition trace, the pivotal
agents and every player's exact value), then the oracle's (for a binary game
the breakpoint-grid SPE supports, for a uniform game the supports of the pair
search on the breakpoint means) and the pass-through verdict on the
closed-form report.

Example:
    python3 scripts/cross_check.py --mode both --games 100 --seed 7
    python3 scripts/cross_check.py --digest --mode uniform --games 286 --seed 3003
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from infochain import (
    AgentSpec,
    BinaryPrior,
    GeneralEquilibriumReport,
    HierarchySpec,
    UniformPrior,
    conformist_table,
    contrarian_table,
    hierarchy,
    linear_utility,
    one_extremist_table,
    outcome_value,
    verify_simple_equilibrium,
    zero_extremist_table,
)
from infochain.cli import hierarchy_doc, routes
from infochain.oracle import action_rule

HUNDREDTHS = [F(k, 100) for k in range(1, 100)]
SMALL_DENOMINATORS = sorted({F(k, d) for d in range(2, 51) for k in range(1, d)})
OFF_LATTICE_MEANS = sorted({F(k, d) for d in (3, 4, 5, 6, 8, 10, 12) for k in range(1, d)})


def random_binary_game(rng: random.Random, points=HUNDREDTHS) -> HierarchySpec:
    pool = list(points)
    rng.shuffle(pool)
    p = pool.pop()
    senders = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.1:
            senders.append(AgentSpec(zero_extremist_table()))
        elif roll < 0.2:
            senders.append(AgentSpec(one_extremist_table()))
        elif roll < 0.6:
            senders.append(AgentSpec(conformist_table(pool.pop())))
        else:
            senders.append(AgentSpec(contrarian_table(pool.pop())))
    table = conformist_table if rng.random() < 0.7 else contrarian_table
    return hierarchy(senders, AgentSpec(table(pool.pop())), BinaryPrior(p))


def random_off_lattice_game(rng: random.Random) -> HierarchySpec:
    """`random_binary_game` with a prior and thresholds of denominators 2..50,
    most of them off the 1/100 lattice."""
    return random_binary_game(rng, SMALL_DENOMINATORS)


def random_uniform_game(rng: random.Random, points=HUNDREDTHS) -> HierarchySpec:
    pool = [t for t in points if t != F(1, 2)]
    rng.shuffle(pool)
    senders = []
    for _ in range(rng.randint(1, 4)):
        slope = 1 if rng.random() < 0.75 else -1
        senders.append(AgentSpec(linear_utility(slope, -slope * pool.pop())))
    return hierarchy(senders, AgentSpec(linear_utility(1, -pool.pop())), UniformPrior())


def random_off_lattice_uniform_game(rng: random.Random) -> HierarchySpec:
    """`random_uniform_game` with crossings of denominators 3, 4, 5, 6, 8, 10
    and 12, many of them off the 1/100 and 1/200 lattices."""
    return random_uniform_game(rng, OFF_LATTICE_MEANS)


DRAWS = {"binary": random_binary_game, "uniform": random_uniform_game}


def check(family: str, games: int, seed: int) -> int:
    """Both routes on `games` draws of one family: the closed support among
    the oracle's, the binary values equal to the oracle's from-definition
    values, and the closed report past the verifier."""
    rng = random.Random(seed)
    failures = 0
    for i in range(games):
        h = DRAWS[family](rng)
        report, support, found, _ = routes(h)
        where = f"[{family} {i}]"
        if support not in found:
            failures += 1
            print(f"{where} closed support {show_pair(support)} not among {show(found)}\n"
                  f"  hierarchy: {hierarchy_doc(h)}")
        if h.is_binary:
            act = action_rule(h)
            values = tuple(outcome_value(spec.utility, report.outcome, act)
                           for spec in (*h.senders, h.receiver))
            if report.values != values:
                failures += 1
                print(f"{where} closed values {show_pair(report.values)} differ from "
                      f"the oracle's {show_pair(values)}\n  hierarchy: {hierarchy_doc(h)}")
        if not verify_simple_equilibrium(h, report):
            failures += 1
            print(f"{where} pass-through verifier rejects closed support "
                  f"{show_pair(report.support)}\n  hierarchy: {hierarchy_doc(h)}")
    return failures


def show_pair(pair) -> str:
    return "(" + ", ".join(map(str, pair)) + ")"


def show(pairs) -> str:
    return "[" + ", ".join(show_pair(pair) for pair in pairs) + "]"


def describe(report) -> str:
    """The closed form's answer: kind, support, cause or trace, every pivotal
    field that is set, and every player's value."""
    if isinstance(report, GeneralEquilibriumReport):
        why = f"trace {report.condition_trace}"
    else:
        why = f"cause {report.no_info_cause.value if report.no_info_cause else None}"
    piv = report.pivotal
    agents = "none" if piv is None else " ".join(
        f"{f.name}={getattr(piv, f.name)}" for f in fields(piv)
        if getattr(piv, f.name) is not None
    )
    return (f"{report.kind.value} {show_pair(report.support)} {why} pivotal {agents} "
            f"values {show_pair(report.values)}")


def digest(family: str, games: int, seed: int) -> None:
    rng = random.Random(seed)
    for i in range(games):
        h = DRAWS[family](rng)
        report, _, found, _ = routes(h)
        oracle = "spe" if h.is_binary else "pairs"
        print(f"{family} {i}: closed {describe(report)} {oracle} {show(found)} "
              f"verified {verify_simple_equilibrium(h, report)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("binary", "uniform", "both"), default="both")
    ap.add_argument("--games", type=int, default=50,
                    help="games per mode (default 50)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--digest", action="store_true",
                    help="print both routes' answers per drawn game instead of "
                         "checking them, with no timings")
    args = ap.parse_args(argv)
    families = list(DRAWS) if args.mode == "both" else [args.mode]
    if args.digest:
        for family in families:
            digest(family, args.games, args.seed)
        return 0

    start = time.perf_counter()
    failures = sum(check(family, args.games, args.seed) for family in families)
    elapsed = time.perf_counter() - start
    verdict = "OK" if failures == 0 else f"{failures} MISMATCHES"
    print(f"{verdict} ({args.mode}, {args.games} games/mode, {elapsed:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

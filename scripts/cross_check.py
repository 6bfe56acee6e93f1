#!/usr/bin/env python3
"""Randomized agreement check between the closed forms and the grid oracle.

Draws random hierarchies, solves each with the closed-form engine, and then
reproduces the answer by brute force: the binary mode asks for the closed
support among the grid equilibria, the uniform mode for a surviving mean pair
within one grid step of the closed support, and both for the pass-through
verifier to accept the closed-form report.  Any disagreement or rejection is
printed with the full hierarchy and both answers, and the exit code is
nonzero so the script can gate a long soak run.

With ``--digest`` nothing is compared: the script prints the oracle's answers,
one line per drawn game and no timings (for a binary game the grid SPE
supports and the pass-through verdict on the closed-form support, for a
uniform game the pair search's supports, games outside the closed forms'
region included, and the verdict on the closed-form report, or
``not-covered``), so that the output of two versions of the package can be
diffed.

Example:
    python3 scripts/cross_check.py --mode both --games 50 --seed 7
    python3 scripts/cross_check.py --digest --mode uniform --games 286 --seed 3003
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from infochain import (
    AgentSpec,
    BinaryPrior,
    GeneralKind,
    HierarchySpec,
    NotCovered,
    UniformPrior,
    build_grid,
    conformist_table,
    contrarian_table,
    hierarchy,
    linear_utility,
    one_extremist_table,
    solve_binary,
    solve_general_grid,
    solve_general_uniform,
    solve_spe_grid,
    verify_simple_equilibrium,
    zero_extremist_table,
)
from infochain.cli import hierarchy_doc

HUNDREDTHS = [F(k, 100) for k in range(1, 100)]


def random_binary_game(rng: random.Random) -> HierarchySpec:
    pool = list(HUNDREDTHS)
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


def random_uniform_game(rng: random.Random) -> HierarchySpec:
    pool = [t for t in HUNDREDTHS if t != F(1, 2)]
    rng.shuffle(pool)
    senders = []
    for _ in range(rng.randint(1, 4)):
        slope = 1 if rng.random() < 0.75 else -1
        senders.append(AgentSpec(linear_utility(slope, -slope * pool.pop())))
    return hierarchy(senders, AgentSpec(linear_utility(1, -pool.pop())), UniformPrior())


def check_binary(games: int, seed: int, resolution: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for i in range(games):
        h = random_binary_game(rng)
        report = solve_binary(h)
        grid = build_grid(h.prior, resolution)
        supports = [o.support() for o in solve_spe_grid(h, grid)]
        if report.support not in supports:
            failures += 1
            print(f"[binary {i}] closed support {report.support} not among "
                  f"{supports}\n  hierarchy: {hierarchy_doc(h)}")
        if not verify_simple_equilibrium(h, report, grid):
            failures += 1
            print(f"[binary {i}] pass-through verifier rejects closed support "
                  f"{report.support}\n  hierarchy: {hierarchy_doc(h)}")
    return failures


def check_uniform(games: int, seed: int, resolution: int) -> int:
    rng = random.Random(seed)
    tol = F(1, resolution)
    failures = skipped = solved = 0
    while solved < games:
        h = random_uniform_game(rng)
        try:
            report = solve_general_uniform(h)
        except NotCovered:
            skipped += 1
            continue
        solved += 1
        if report.kind is GeneralKind.NO_INFO:
            target = (F(1, 2), F(1, 2))
        else:
            target = report.support
        pairs = solve_general_grid(h, resolution)
        if not any(abs(a - target[0]) <= tol and abs(b - target[1]) <= tol
                   for a, b in pairs):
            failures += 1
            print(f"[uniform {solved - 1}] closed support {target} not within "
                  f"{tol} of any of {pairs}\n  hierarchy: {hierarchy_doc(h)}")
        if not verify_simple_equilibrium(h, report):
            failures += 1
            print(f"[uniform {solved - 1}] subgame verifier rejects closed support "
                  f"{report.support}\n  hierarchy: {hierarchy_doc(h)}")
    if skipped:
        print(f"uniform: skipped {skipped} games outside the characterized region",
              file=sys.stderr)
    return failures


def show(pairs) -> str:
    return "[" + ", ".join("(" + ", ".join(map(str, pair)) + ")" for pair in pairs) + "]"


def digest_binary(games: int, seed: int, resolution: int) -> None:
    rng = random.Random(seed)
    for i in range(games):
        h = random_binary_game(rng)
        grid = build_grid(h.prior, resolution)
        supports = [o.support() for o in solve_spe_grid(h, grid)]
        verdict = verify_simple_equilibrium(h, solve_binary(h), grid)
        print(f"binary {i}: spe {show(supports)} verified {verdict}")


def digest_uniform(games: int, seed: int, resolution: int) -> None:
    rng = random.Random(seed)
    for i in range(games):
        h = random_uniform_game(rng)
        try:
            verdict = verify_simple_equilibrium(h, solve_general_uniform(h))
        except NotCovered:
            verdict = "not-covered"
        print(f"uniform {i}: pairs {show(solve_general_grid(h, resolution))} verified {verdict}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("binary", "uniform", "both"), default="both")
    ap.add_argument("--games", type=int, default=50,
                    help="games per mode (default 50)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--binary-grid", type=int, default=100,
                    help="belief grid resolution for the binary oracle; must be a "
                         "multiple of 100 so the sampled thresholds lie on the grid "
                         "and the support comparison stays exact; any resolution "
                         "with --digest (default 100)")
    ap.add_argument("--uniform-grid", type=int, default=200,
                    help="mean grid resolution for the uniform oracle (default 200)")
    ap.add_argument("--digest", action="store_true",
                    help="print the oracle's answers per drawn game instead of "
                         "checking them, with no timings")
    args = ap.parse_args(argv)
    binary, uniform = args.mode in ("binary", "both"), args.mode in ("uniform", "both")
    if args.digest:
        if binary:
            digest_binary(args.games, args.seed, args.binary_grid)
        if uniform:
            digest_uniform(args.games, args.seed, args.uniform_grid)
        return 0
    if binary and args.binary_grid % 100:
        ap.error("--binary-grid must be a multiple of 100")

    failures = 0
    start = time.perf_counter()
    if binary:
        failures += check_binary(args.games, args.seed, args.binary_grid)
    if uniform:
        failures += check_uniform(args.games, args.seed, args.uniform_grid)
    elapsed = time.perf_counter() - start
    verdict = "OK" if failures == 0 else f"{failures} MISMATCHES"
    print(f"{verdict} ({args.mode}, {args.games} games/mode, {elapsed:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Sweep one agent's indifference mean across (0, 1) and track the equilibrium.

Holds the rest of the hierarchy fixed, moves a single seat's threshold through
a grid of positions, and writes one CSV row per position: the equilibrium kind,
condition trace, support, and the receiver's expected value.  Positions where
the moving threshold collides with another agent or the prior are kept as rows
with the reason in the kind column so the phase boundaries stay visible.

Example:
    python3 scripts/sweep_threshold.py configs/uniform_interior.json \
        --agent 2 --steps 99 --out sweep.csv
"""
from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from infochain import (
    AgentSpec,
    BinaryPrior,
    HierarchySpec,
    LinearUtility,
    TableUtility,
    ThresholdCollision,
    ValidationError,
    classify_spec,
    conformist_table,
    contrarian_table,
    hierarchy,
    linear_utility,
    solve_binary,
    solve_general_uniform,
)
from infochain.cli import ingest


def reseat(h: HierarchySpec, seat: str, threshold: Fraction) -> HierarchySpec:
    """Copy of the hierarchy with one agent's indifference mean moved."""
    if seat == "receiver":
        spec, is_receiver = h.receiver, True
    else:
        spec, is_receiver = h.senders[int(seat) - 1], False
    u = spec.utility
    if isinstance(u, LinearUtility):
        replacement = AgentSpec(linear_utility(u.alpha, -u.alpha * threshold), spec.label)
    elif isinstance(u, TableUtility):
        kind = classify_spec(spec, h.prior).kind
        if kind.is_extremist:
            raise SystemExit(f"seat {seat} is an extremist; it has no threshold to sweep")
        build = conformist_table if kind.value == "conformist" else contrarian_table
        replacement = AgentSpec(build(threshold), spec.label)
    else:
        raise SystemExit(f"seat {seat} has an unrecognized utility model")
    if is_receiver:
        return hierarchy(list(h.senders), replacement, h.prior)
    senders = list(h.senders)
    senders[int(seat) - 1] = replacement
    return hierarchy(senders, h.receiver, h.prior)


def solve_row(h: HierarchySpec, threshold: Fraction, seat: str) -> list[str]:
    try:
        moved = reseat(h, seat, threshold)
    except (ThresholdCollision, ValidationError) as e:
        return [str(threshold), "collision", "", "", "", str(e)]
    if isinstance(moved.prior, BinaryPrior):
        r = solve_binary(moved)
        trace = r.no_info_cause.value if r.no_info_cause else ""
    else:
        r = solve_general_uniform(moved)
        trace = r.condition_trace
    lo, hi = r.support[0], r.support[-1]
    return [str(threshold), r.kind.value, trace, str(lo), str(hi), str(r.values[-1])]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="hierarchy JSON file")
    ap.add_argument("--agent", default="1",
                    help="1-based sender seat to sweep, or 'receiver' (default 1)")
    ap.add_argument("--steps", type=int, default=99,
                    help="number of interior grid positions (default 99)")
    ap.add_argument("--out", default="-", help="CSV destination (default stdout)")
    args = ap.parse_args(argv)

    h = ingest(args.config)
    rows = [
        solve_row(h, Fraction(k, args.steps + 1), args.agent)
        for k in range(1, args.steps + 1)
    ]

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.writer(sink)
        writer.writerow(["threshold", "kind", "trace", "support_lo", "support_hi",
                         "receiver_value"])
        writer.writerows(rows)
    finally:
        if sink is not sys.stdout:
            sink.close()
    solved = sum(1 for row in rows if row[1] != "collision")
    print(f"{solved}/{len(rows)} positions solved", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

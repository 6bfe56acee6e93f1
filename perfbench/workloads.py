"""The four workloads: how their inputs are drawn from a seed, what one
operation does, and how its output is checked.

An operation returns ``OK`` or ``REFUSED`` (the engine declined the input
with ``NotCovered``) and raises on anything else; a raised `Mismatch` is a
wrong answer.  Every call into the package goes through a module attribute
(``oracle.build_grid``, not a bare ``build_grid``) so that a traced run can
put a span around it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import selectors
import subprocess
import sys
import time
from collections import Counter, defaultdict, deque
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from infochain import advisor, binary_solver, cli, general_solver, oracle
from infochain.advisor import NoImprovement
from infochain.agents import (
    AgentSpec,
    Relabeling,
    conformist_table,
    contrarian_table,
    hierarchy,
    linear_utility,
    one_extremist_table,
    relabel_hierarchy,
    zero_extremist_table,
)
from infochain.core import HALF, BinaryPrior, UniformPrior, experiment_of_outcome, identity_experiment
from infochain.general_solver import GeneralKind, NotCovered

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

OK, REFUSED = "ok", "refused"

BINARY_GRID = 100      # criterion 1's resolution: every hundredth is on the lattice
PAIR_GRID = 200        # criterion 3's pair search, matched within 1/200
VERIFY_GRID = 100      # criterion 7's subgame grid for uniform games
MC_TRIALS = 10_000     # the CLI's simulate default
MC_STDERRS = 5
CLI_TIMEOUT_S = 120

HUNDREDTHS = [F(k, 100) for k in range(1, 100)]

UNIFORM_SEED_SHIFT = 2002   # design draws uniform games at seed + 2002: 3003 by default


class Mismatch(AssertionError):
    """An operation's output failed its correctness check."""


def check(ok, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def show(points) -> str:
    return "(" + ", ".join(str(x) for x in points) + ")"


# ---------------------------------------------------------------------------
# generators: the acceptance suite's random games, seeded by the caller
# ---------------------------------------------------------------------------

def random_binary_game(rng: random.Random):
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
    receiver = AgentSpec(table(pool.pop()))
    return hierarchy(senders, receiver, BinaryPrior(p))


def random_uniform_game(rng: random.Random):
    pool = [t for t in HUNDREDTHS if t != F(1, 2)]
    rng.shuffle(pool)
    senders = []
    for _ in range(rng.randint(1, 4)):
        slope = 1 if rng.random() < 0.75 else -1
        senders.append(AgentSpec(linear_utility(slope, -slope * pool.pop())))
    receiver = AgentSpec(linear_utility(1, -pool.pop()))
    return hierarchy(senders, receiver, UniformPrior())


def binary_games(seed: int = 1001) -> Iterator:
    """The binary acceptance suite's draws (tests/test_acceptance.py, seed 1001)."""
    rng = random.Random(seed)
    while True:
        yield random_binary_game(rng)


def uniform_games(seed: int = 3003) -> Iterator:
    """The uniform acceptance suite's draws before it drops `NotCovered` games."""
    rng = random.Random(seed)
    while True:
        yield random_uniform_game(rng)


def balanced(games: Iterator, key: Callable, axes: tuple, length: int) -> list:
    """`length` games taken from `games` in draw order, sorted into a schedule
    in which game k has ``key(game) == (axes[0][k % len0], axes[1][k % len1])``.

    The axes have coprime lengths, so every stretch of consecutive games holds
    the generator's mix of both properties.  Their cost varies twentyfold with
    them, and a run only gets through a few dozen games, so the mix of a run
    must not depend on where it stops.
    """
    order = [tuple(axis[k % len(axis)] for axis in axes) for k in range(length)]
    need = Counter(order)
    picked: dict = defaultdict(deque)
    for game in games:
        stratum = key(game)
        if need[stratum] > 0:
            picked[stratum].append(game)
            need[stratum] -= 1
            if not +need:
                break
    return [picked[stratum].popleft() for stratum in order]


def distance_band(x: F, bands: int) -> int:
    """Which of `bands` equal bands of |x - 1/2| (on [0, 1/2]) x falls in."""
    return min(int(abs(x - HALF) * 2 * bands), bands - 1)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Context:
    """Per-phase state: the grid cache of binary-verify, the largest CLI
    process of cli-session and, in a traced phase, the tracer."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.grids: dict = {}
        self.grid_hits = 0
        self.child_peak_kb = 0

    def grid(self, prior: BinaryPrior, resolution: int):
        key = (prior.p, resolution)
        if key in self.grids:
            self.grid_hits += 1
        else:
            self.grids[key] = oracle.build_grid(prior, resolution)
        return self.grids[key]


def binary_verify(h, ctx: Context, resolution: int = BINARY_GRID) -> str:
    """Closed form against the grid oracle (criterion 1) and the pass-through
    verifier (criterion 7)."""
    report = binary_solver.solve_binary(h)
    grid = ctx.grid(h.prior, resolution)
    chain = oracle.ic_chain(h, grid)
    supports = [o.support() for o in oracle.solve_spe_grid(h, grid, chain)]
    check(report.support in supports, f"closed-form support {show(report.support)} not in the "
          f"G={resolution} oracle set {', '.join(map(show, supports))}")
    check(oracle.verify_simple_equilibrium(h, report, grid),
          f"pass-through verifier rejected support {show(report.support)} at G={resolution}")
    return OK


def uniform_verify(h, ctx: Context) -> str:
    """Closed form against the pair search (criterion 3) and the subgame
    verifier (criterion 7)."""
    try:
        report = general_solver.solve_general_uniform(h)
    except NotCovered:
        return REFUSED
    supported = len(report.support) == 2
    check(report.kind is (GeneralKind.SUPPORTED if supported else GeneralKind.NO_INFO),
          f"kind {report.kind.value} disagrees with support {show(report.support)}")
    target = report.support if supported else (HALF, HALF)
    tol = F(1, PAIR_GRID)
    matched = [pair for pair in oracle.solve_general_grid(h, PAIR_GRID)
               if abs(pair[0] - target[0]) <= tol and abs(pair[1] - target[1]) <= tol]
    check(matched, f"support {show(report.support)} not within 1/{PAIR_GRID} of the pair search")
    check(not supported or any(lo != hi for lo, hi in matched),
          f"informative support {show(report.support)} matched only silent pairs")
    check(oracle.verify_simple_equilibrium(h, report, VERIFY_GRID),
          f"subgame verifier rejected support {show(report.support)}")
    return OK


def _advice(recommend: Callable, h):
    try:
        rec = recommend(h)
    except NoImprovement:
        return
    check(rec.receiver_gain > 0
          and rec.after.values[-1] - rec.before.values[-1] == rec.receiver_gain,
          f"{recommend.__name__} recommended a non-improving appointment")


def design(item, ctx: Context) -> str:
    """Closed form, appointment advice, then a Monte Carlo run of the
    equilibrium profile checked against the analytic values."""
    h, mc_seed = item
    if h.is_binary:
        report = binary_solver.solve_binary(h)
        _advice(advisor.optimal_vp_binary, h)
        first = experiment_of_outcome(report.outcome)
    else:
        report = general_solver.solve_general_uniform(h)
        try:
            _advice(advisor.optimal_vp_general, h)
            _advice(advisor.optimal_two_vps, h)
        except NotCovered:
            return REFUSED
        first = oracle.IntervalCut(report.cut if report.cut is not None else F(0))
    profile = [first] + [identity_experiment(2)] * (h.n - 1)
    mc = oracle.monte_carlo(h, profile, MC_TRIALS, seed=mc_seed)
    for label, analytic, mean, err in zip(mc.labels, report.values, mc.means, mc.stderrs):
        gap = abs(float(analytic) - mean)
        check(gap <= MC_STDERRS * err + 1e-9,
              f"Monte Carlo {label}: {mean} vs analytic {float(analytic)} (stderr {err})")
    return OK


CLI_ENV = {**os.environ, "PYTHONPATH": "src"}


def run_child(command: list[str], timeout: float, **popen) -> tuple[int, str, str, int]:
    """Run `command` to its end, like ``subprocess.run(capture_output=True)``,
    and return (exit code, stdout, stderr, peak RSS in KiB).  The RSS is the
    child's own, from the rusage it is reaped with."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    timed_out = False
    with proc.stdout, proc.stderr, selectors.DefaultSelector() as selector:
        for pipe in chunks:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            ready = selector.select(deadline - time.monotonic())
            if not ready:
                proc.kill()
                timed_out = True
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        raise subprocess.TimeoutExpired(command, timeout)
    out, err = (b"".join(chunks[pipe]).decode() for pipe in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, usage.ru_maxrss


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_session(item, ctx: Context) -> str:
    """One ``python -m infochain.cli`` process, checked against the answer the
    same command gave in process.  Traced, the process is the
    ``cli_child.py`` stand-in, which reports its own spans."""
    argv, expected = item
    if ctx.tracer is None:
        command = [sys.executable, "-m", "infochain.cli", *argv]
    else:
        command = [sys.executable, str(Path(__file__).with_name("cli_child.py")), *argv]
    started = time.perf_counter()
    code, out, err, peak_kb = run_child(command, CLI_TIMEOUT_S, cwd=ROOT, env=CLI_ENV)
    ctx.child_peak_kb = max(ctx.child_peak_kb, peak_kb)
    check(code == 0, f"{' '.join(argv)} exited {code}: {err.strip()}")
    if ctx.tracer is not None:
        child = json.loads(err.strip().splitlines()[-1])
        ctx.tracer.add("cli.python_start", started, child["t0"])
        ctx.tracer.adopt(child["spans"])
    check(json.loads(out) == expected, f"{' '.join(argv)}: output differs from in-process run")
    return OK


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload(NamedTuple):
    prepare: Callable[[int], list]   # seed -> the inputs, cycled in order
    op: Callable[[object, Context], str]
    round: int | None   # the inputs repeat their mix every `round` operations (None: len(inputs))


def relabeled(schedule: list, seed: int) -> list:
    """Each game under a seeded choice of the frame symmetries (swap the
    action labels, reflect the state): other numbers on each seed, the same
    oracle work.

    The verify workloads run the acceptance suite's own games through this,
    from the start of their schedule.  A run gets through only a few dozen of
    them and their cost varies twentyfold, so a run that started at a seeded
    place in the schedule would make the run-to-run spread mostly a matter of
    which games it reached (see README.md).
    """
    rng = random.Random(seed)
    return [relabel_hierarchy(h, Relabeling(rng.random() < 0.5, rng.random() < 0.5))
            for h in schedule]


def _binary_verify_inputs(seed):
    schedule = balanced(binary_games(), lambda h: (h.n, distance_band(h.prior.p, 4)),
                        ((1, 2, 3, 4, 5), (0, 1, 2, 3)), 200)
    return relabeled(schedule, seed)


def _uniform_verify_inputs(seed):
    def key(h):
        contrarian = any(s.utility.alpha < 0 for s in h.senders)
        return contrarian, distance_band(h.receiver.utility.crossing, 3)

    schedule = balanced(uniform_games(), key, ((False, True), (0, 1, 2)), 360)
    return relabeled(schedule, seed)


def _covered(games: Iterator) -> Iterator:
    for h in games:
        try:
            general_solver.solve_general_uniform(h)
        except NotCovered:
            continue
        yield h


def _design_inputs(seed, size: int = 200):
    rng = random.Random(seed)
    binary = binary_games(seed)
    uniform = _covered(uniform_games(seed + UNIFORM_SEED_SHIFT))
    return [(next(uniform if k % 2 else binary), rng.randrange(2**32)) for k in range(size)]


def _cli_commands(seed) -> list[list[str]]:
    """The four shipped configs times classify, solve, vp, simulate and (for
    uniform games) curve, in a seeded order with seeded simulate seeds."""
    rng = random.Random(seed)
    commands = []
    for path in sorted(CONFIGS.glob("*.json")):
        config = ["--config", str(path)]
        names = ["classify", "solve", "vp", "simulate"]
        if path.name.startswith("uniform"):
            names.append("curve")
        for name in names:
            extra = ["--seed", str(rng.randrange(2**31))] if name == "simulate" else []
            commands.append([name, *config, *extra])
    rng.shuffle(commands)
    return commands


def _cli_inputs(seed):
    items = []
    for argv in _cli_commands(seed):
        code, out = cli_in_process(argv)
        check(code == 0, f"{' '.join(argv)} exited {code} in process")
        items.append((argv, json.loads(out)))
    return items


WORKLOADS = {
    "binary-verify": Workload(_binary_verify_inputs, binary_verify, 5 * 4),
    "uniform-verify": Workload(_uniform_verify_inputs, uniform_verify, 2 * 3),
    "design": Workload(_design_inputs, design, None),
    "cli-session": Workload(_cli_inputs, cli_session, None),
}


def census_inputs() -> list[tuple[str, object]]:
    """One input per workload from the shipped configs.  A traced run runs
    them first, so that a layer its own operations never reach still reads a
    measured time (from these spans only)."""
    binary = cli.ingest(CONFIGS / "binary_partial.json")
    uniform = cli.ingest(CONFIGS / "uniform_interior.json")
    argv = ["solve", "--config", str(CONFIGS / "binary_partial.json")]
    return [
        ("binary-verify", binary),
        ("uniform-verify", uniform),
        ("design", (binary, 1)),
        ("design", (uniform, 1)),
        ("cli-session", (argv, json.loads(cli_in_process(argv)[1]))),
    ]

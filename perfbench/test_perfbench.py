"""Checks on the benchmark itself; run with

    python -m pytest perfbench/test_perfbench.py

from the root of the repository.
"""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from infochain import cli  # noqa: E402
from infochain.general_solver import NotCovered, solve_general_uniform  # noqa: E402


@pytest.fixture(scope="module")
def acceptance():
    spec = importlib.util.spec_from_file_location(
        "acceptance_generators", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checker_fails_the_off_lattice_false_mismatch():
    # G=30 puts the threshold 1/4 off the lattice: the oracle answers
    # (7/30, 1) against the closed form's (1/4, 1).  The grid is at fault, but
    # the benchmark counts what the engine reports, so the operation fails.
    h = cli.ingest(ROOT / "configs" / "binary_partial.json")
    with pytest.raises(workloads.Mismatch, match="7/30"):
        workloads.binary_verify(h, workloads.Context(), resolution=30)
    off_lattice = lambda game, ctx: workloads.binary_verify(game, ctx, resolution=30)  # noqa: E731
    results, _ = run.run_ops(off_lattice, [h], workloads.Context(), count=1)
    assert [status for _, status in results] == ["failed"]
    assert workloads.binary_verify(h, workloads.Context()) == workloads.OK


def test_generators_draw_the_acceptance_suites(acceptance):
    for seed in (1001, 7):
        rng = random.Random(seed)
        expected = [acceptance._random_binary_game(rng) for _ in range(20)]
        games = workloads.binary_games() if seed == 1001 else workloads.binary_games(seed)
        assert [next(games) for _ in range(20)] == expected
    for seed in (3003, 7):
        rng = random.Random(seed)
        expected = [acceptance._random_uniform_game(rng) for _ in range(20)]
        games = workloads.uniform_games() if seed == 3003 else workloads.uniform_games(seed)
        assert [next(games) for _ in range(20)] == expected


def test_not_covered_is_a_refusal_not_a_failure():
    for h in workloads.uniform_games():
        try:
            solve_general_uniform(h)
        except NotCovered:
            break
    results, _ = run.run_ops(workloads.uniform_verify, [h], workloads.Context(), count=1)
    assert [status for _, status in results] == [workloads.REFUSED]


def test_balanced_schedule_keeps_draw_order_within_strata():
    games = iter(range(1000))
    picked = workloads.balanced(games, lambda x: (x % 3, x % 2), ((0, 1, 2), (0, 1)), 12)
    assert [(x % 3, x % 2) for x in picked] == [(k % 3, k % 2) for k in range(12)]
    for stratum in {(x % 3, x % 2) for x in picked}:
        members = [x for x in picked if (x % 3, x % 2) == stratum]
        assert members == sorted(members)


def test_run_child_reports_the_childs_own_peak_rss():
    code, out, err, peak_kb = workloads.run_child(
        [sys.executable, "-c", "import sys; b = bytearray(64 << 20); print(len(b)); "
         "print('note', file=sys.stderr)"], timeout=60)
    assert (code, out, err) == (0, f"{64 << 20}\n", "note\n")
    assert peak_kb >= 64 << 10

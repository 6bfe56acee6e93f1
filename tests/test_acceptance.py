"""Acceptance gate: one test (and one pass/fail line) per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py``; each test name identifies the
criterion and the verbose line is its verdict.  Details (counts, timings)
print to captured stdout.
"""
from __future__ import annotations

import importlib.util
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from scipy.integrate import quad

from infochain import (
    AgentSpec,
    BinaryPrior,
    Kind,
    NoConformist,
    UniformPrior,
    canonicalize_receiver,
    conformist_table,
    experiment_of_outcome,
    hierarchy,
    linear_utility,
    make_outcome,
    pivotal_binary,
    pivotal_general,
    sender_classes,
    solve_binary,
)
from infochain.agents import zero_extremist_table
from infochain.advisor import (
    NoImprovement,
    optimal_two_vps,
    optimal_vp_binary,
    optimal_vp_general,
)
from infochain.binary_solver import EquilibriumKind, NoInfoCause
from infochain.general_solver import (
    GeneralKind,
    NotCovered,
    player1_value,
    solve_general_uniform,
)
from infochain.oracle import (
    IntervalCut,
    build_grid,
    ic_chain,
    identity_experiment,
    monte_carlo,
    solve_general_grid,
    solve_spe_grid,
    verify_simple_equilibrium,
)

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    """Load ``scripts/<name>.py`` by path; the script puts the source tree on
    sys.path when loaded, so restore it after."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


# ---------------------------------------------------------------------------
# randomized suites (closed-form side; the oracle runs inside the criteria),
# drawn by the generators of scripts/cross_check.py
# ---------------------------------------------------------------------------

_cross_check = _load_script("cross_check")
_random_binary_game = _cross_check.random_binary_game
_random_uniform_game = _cross_check.random_uniform_game


@pytest.fixture(scope="module")
def binary_suite():
    rng = random.Random(1001)
    suite = []
    while len(suite) < 500:
        h = _random_binary_game(rng)
        suite.append((h, solve_binary(h)))
    return suite


@pytest.fixture(scope="module")
def uniform_suite():
    rng = random.Random(3003)
    suite, skipped = [], 0
    while len(suite) < 200:
        h = _random_uniform_game(rng)
        try:
            suite.append((h, solve_general_uniform(h)))
        except NotCovered:
            skipped += 1
    print(f"uniform suite: 200 solved, {skipped} outside the characterized region")
    return suite


@pytest.fixture
def announce(capsys):
    """Print a verdict line past pytest's capture so it lands in the log."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


@pytest.fixture(scope="module")
def grid_cache():
    cache = {}

    def get(prior: BinaryPrior, resolution: int = 100):
        key = (prior.p, resolution)
        if key not in cache:
            cache[key] = build_grid(prior, resolution)
        return cache[key]

    return get


# ---------------------------------------------------------------------------
# the reports carry the pivotal structure their verdicts were read from
# ---------------------------------------------------------------------------

def test_binary_reports_carry_the_pivotal_structure(binary_suite, announce):
    partial = 0
    for h, report in binary_suite:
        assert report.pivotal == pivotal_binary(h)
        if report.kind is EquilibriumKind.PARTIAL:
            partial += 1
            low = min(report.relabeling.support_back(report.support))
            assert low == report.pivotal.a_star_threshold
            assert report.pivotal.a_star_e == report.pivotal.a_star
    assert partial > 0
    announce(f"binary pivotal structure: PASS - 500/500 reports carry pivotal_binary, "
             f"{partial} partial splits at A*'s threshold")


def test_uniform_reports_carry_the_pivotal_structure(uniform_suite, announce):
    for h, report in uniform_suite:
        canon, _ = canonicalize_receiver(h)
        try:
            expected = pivotal_general(canon)
        except NoConformist:
            expected = None
        assert report.pivotal == expected
    announce("uniform pivotal structure: PASS - 200/200 reports carry pivotal_general")


# ---------------------------------------------------------------------------
# criterion 1: binary closed form vs the grid oracle, 500 games, < 5 minutes
# ---------------------------------------------------------------------------

def test_criterion_1_binary_closed_form_matches_oracle(binary_suite, grid_cache, announce):
    start = time.perf_counter()
    kinds_seen = set()
    for h, report in binary_suite:
        kinds_seen.update(c.kind for c in sender_classes(h))
        grid = grid_cache(h.prior)
        supports = [o.support() for o in solve_spe_grid(h, grid)]
        assert report.support in supports, (h, report.support, supports)
    elapsed = time.perf_counter() - start
    assert kinds_seen == {
        Kind.CONFORMIST, Kind.CONTRARIAN, Kind.ZERO_EXTREMIST, Kind.ONE_EXTREMIST,
    }
    assert elapsed < 300.0
    announce(f"criterion 1: PASS - 500/500 supports found in the G=100 oracle "
          f"set, all four sender kinds drawn ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: the level-set chain is strictly finer than garble-proofness
# ---------------------------------------------------------------------------

def test_criterion_2_level_sets_separate_from_garble_proof(announce):
    h = hierarchy(
        [AgentSpec(conformist_table(F(9, 10))),
         AgentSpec(zero_extremist_table()),
         AgentSpec(conformist_table(F(2, 10)))],
        AgentSpec(conformist_table(F(4, 10))),
        BinaryPrior(F(6, 10)),
    )
    grid = build_grid(h.prior, 20)
    chain = ic_chain(h, grid)

    def cuts(q0s):
        outs = {make_outcome(h.prior.p, h.prior.p, h.prior)}
        for q0 in q0s:
            for k1 in range(13, 21):
                outs.add(make_outcome(q0, F(k1, 20), h.prior))
        return outs

    inert = [F(k, 20) for k in range(8, 12)]  # low cells the receiver acts on
    expected_level2 = cuts([F(1, 5), *inert])
    expected_proof = cuts(inert)
    assert set(chain.levels[2]) == expected_level2
    assert set(chain.garble_proof) == expected_proof
    assert expected_proof < expected_level2
    announce("criterion 2: PASS - level-2 = {q0=1/5} u {2/5<=q0<=3/5} and the "
          "garble-proof set drops the q0=1/5 column (G=20, exact)")


# ---------------------------------------------------------------------------
# criterion 3: uniform closed form vs exhaustive pair search, < 10 minutes
# ---------------------------------------------------------------------------

def test_criterion_3_uniform_closed_form_matches_oracle(uniform_suite, announce):
    start = time.perf_counter()
    tol = F(1, 200)
    for h, report in uniform_suite:
        pairs = solve_general_grid(h, 200)
        if len(report.support) == 1:
            target = (F(1, 2), F(1, 2))
            assert report.kind is GeneralKind.NO_INFO
        else:
            target = report.support
            assert report.kind is GeneralKind.SUPPORTED
        matched = [
            pair for pair in pairs
            if abs(pair[0] - target[0]) <= tol and abs(pair[1] - target[1]) <= tol
        ]
        assert matched, (h, report.support, report.condition_trace, pairs)
        if report.kind is GeneralKind.SUPPORTED:
            assert any(pair[0] != pair[1] for pair in matched)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    announce(f"criterion 3: PASS - 200/200 supports within 1/200 of the G=200 "
          f"pair search, kinds consistent ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: first-mover value curve against independent quadrature
# ---------------------------------------------------------------------------

def test_criterion_4_value_curve_against_quadrature(announce):
    points = 1000
    worst = 0.0
    for crossing in (F(8, 25), F(1, 2), F(83, 100)):
        u1 = linear_utility(1, -crossing)
        grid = [F(k, 2 * points) for k in range(points + 1)]  # [0, 1/2]

        def integrated(m0: F) -> float:
            # state uniform on [0,1], split at 2*m0; the receiver acts on the
            # high cell (its mean clears any threshold below 1/2)
            val, _ = quad(lambda x: x - float(crossing), 2 * float(m0), 1.0)
            return val

        values = [player1_value(m0, u1) for m0 in grid]
        for m0, exact in zip(grid, values):
            gap = abs(float(exact) - integrated(m0))
            worst = max(worst, gap)
            assert gap <= 1e-9, (crossing, m0, gap)
        argmax = max(range(len(grid)), key=lambda k: values[k])
        assert abs(grid[argmax] - crossing / 2) <= F(1, 2 * points)
    announce(f"criterion 4: PASS - quadrature gap <= {worst:.2e} at 1000 points "
          f"per curve, argmax within one step of half the crossing")


# ---------------------------------------------------------------------------
# criterion 5: Monte Carlo agreement and bit-exact determinism
# ---------------------------------------------------------------------------

def _profile_for(h, report):
    if h.is_binary:
        first = experiment_of_outcome(report.outcome)
    else:
        first = IntervalCut(report.cut if report.cut is not None else F(0))
    return [first] + [identity_experiment(2)] * (h.n - 1)


def test_criterion_5_monte_carlo_within_three_stderr(binary_suite, uniform_suite, announce):
    games = [*binary_suite[:10], *uniform_suite[:10]]
    trials = 1_000_000
    worst_z = 0.0
    for h, report in games:
        mc = monte_carlo(h, _profile_for(h, report), trials, seed=60657)
        for label, analytic, mean, err in zip(
            mc.labels, report.values, mc.means, mc.stderrs
        ):
            gap = abs(float(analytic) - mean)
            if err == 0:
                assert gap == 0.0, (label, analytic, mean)
            else:
                worst_z = max(worst_z, gap / err)
                assert gap <= 3 * err, (label, analytic, mean, err)
    h, report = games[0]
    again = monte_carlo(h, _profile_for(h, report), trials, seed=60657)
    assert again.means == monte_carlo(h, _profile_for(h, report), trials, seed=60657).means
    assert again.means == monte_carlo(h, _profile_for(h, report), trials, seed=60657).means
    announce(f"criterion 5: PASS - 20 games x 1e6 trials, worst |z| = "
          f"{worst_z:.2f} <= 3, reruns bit-identical")


# ---------------------------------------------------------------------------
# criterion 6: appointment recommendations
# ---------------------------------------------------------------------------

def test_criterion_6_appointments_repair_and_stay_stable(binary_suite, uniform_suite, announce):
    emitted = 0
    # every fixable silent binary game must be repaired, efficiently
    for h, before in binary_suite:
        if before.no_info_cause is not NoInfoCause.ORDERING:
            continue
        rec = optimal_vp_binary(h)
        emitted += 1
        assert rec.after.efficient
        assert rec.after.kind is EquilibriumKind.PARTIAL
        assert rec.receiver_gain > 0
        assert rec.after.values[-1] - before.values[-1] == rec.receiver_gain
    assert emitted >= 5
    singles = pairs = 0
    for h, before in uniform_suite:
        try:
            rec = optimal_vp_general(h)
            singles += 1
        except NoImprovement:
            continue
        assert rec.after.efficient and rec.receiver_gain > 0
        if not before.efficient:
            assert rec.after.kind is GeneralKind.SUPPORTED
    for h, before in uniform_suite:
        try:
            rec = optimal_two_vps(h)
        except NoImprovement:
            continue
        pairs += 1
        assert rec.after.efficient and rec.receiver_gain > 0
        # external order-independence and idempotence re-checks
        swapped = hierarchy(
            [*h.senders, *reversed(rec.specs)], h.receiver, h.prior, strict=False
        )
        assert solve_general_uniform(swapped).values[-1] == rec.after.values[-1]
        tripled = hierarchy(
            [*h.senders, *rec.specs, rec.specs[0]], h.receiver, h.prior, strict=False
        )
        assert solve_general_uniform(tripled).values[-1] == rec.after.values[-1]
    assert singles >= 10 and pairs >= 10
    announce(f"criterion 6: PASS - {emitted} silent binary games repaired, "
          f"{singles} single and {pairs} paired appointments all efficient "
          f"with strict receiver gain, order-independent, third copy inert")


# ---------------------------------------------------------------------------
# criterion 7: the pass-through verifier accepts truth, rejects corruption
# ---------------------------------------------------------------------------

def test_criterion_7_verifier_separates_truth_from_corruption(
    binary_suite, uniform_suite, grid_cache, announce
):
    for h, report in binary_suite:
        assert verify_simple_equilibrium(h, report, grid_cache(h.prior))
    for h, report in uniform_suite:
        assert verify_simple_equilibrium(h, report, 100)

    rejected = 0
    step = F(1, 100)
    for h, report in binary_suite:
        if rejected >= 8:
            break
        if report.kind is not EquilibriumKind.PARTIAL:
            continue
        if not (isinstance(report.pivotal.a_star, int) and report.pivotal.a_star >= 2):
            continue
        if not (report.pivotal.e_star and report.pivotal.e_star >= 2):
            # a seat-1 blocker is the proposer here, not a responder, so a
            # widened pair can legitimately pass through everyone after her
            continue
        lo, hi = report.support
        widened = (lo - step, hi) if lo >= step else (lo, hi + step)
        assert not verify_simple_equilibrium(h, widened, grid_cache(h.prior))
        rejected += 1
    for h, report in uniform_suite:
        if rejected >= 16:
            break
        if report.kind is not GeneralKind.SUPPORTED:
            continue
        m0, m1 = report.support
        if m0 < F(1, 200):
            continue
        assert not verify_simple_equilibrium(h, (m0 - F(1, 200), m1), 100)
        rejected += 1
    assert rejected >= 10
    announce(f"criterion 7: PASS - 700/700 true equilibria verified, "
          f"{rejected} widened supports rejected")


# ---------------------------------------------------------------------------
# criterion 8: structural laws (condensed; tests/test_properties.py has the
# randomized search versions)
# ---------------------------------------------------------------------------

def test_criterion_8_structural_laws_hold(announce):
    # (a) level nesting and silence survival on a random chain
    rng = random.Random(88)
    h = _random_binary_game(rng)
    grid = build_grid(h.prior, 20)
    chain = ic_chain(h, grid)
    keys = sorted(chain.levels)
    for lo, hi in zip(keys, keys[1:]):
        assert set(chain.levels[lo]) <= set(chain.levels[hi])
    silence = make_outcome(h.prior.p, h.prior.p, h.prior)
    assert all(silence in level for level in chain.levels.values())

    # (b) contraction laws
    from infochain import full_information, is_mpc, no_information
    prior = BinaryPrior(F(3, 5))
    mid = make_outcome(F(1, 4), F(4, 5), prior)
    assert is_mpc(no_information(prior), mid)
    assert is_mpc(mid, full_information(prior))
    assert not is_mpc(full_information(prior), mid)

    # (c) affine invariance of the indifference point
    from infochain import indifference_belief, table_utility
    u = conformist_table(F(7, 20))
    moved = table_utility(*(5 * x - F(2, 3) for x in (u.u00, u.u10, u.u01, u.u11)))
    assert indifference_belief(moved) == indifference_belief(u) == F(7, 20)

    # (d) finite-difference signs around the first-mover peak
    u1 = linear_utility(1, -F(2, 5))
    peak = F(1, 5)
    for eps in (F(1, 50), F(1, 500)):
        assert player1_value(peak, u1) > player1_value(peak - eps, u1)
        assert player1_value(peak, u1) > player1_value(peak + eps, u1)

    # (e) continuity across the interior/far-conformist junction
    def family(tb):
        senders = [AgentSpec(linear_utility(1, -t))
                   for t in (F(2, 10), tb, F(12, 100))]
        return hierarchy(senders, AgentSpec(linear_utility(1, -F(45, 100))),
                         UniformPrior())

    eps = F(1, 10_000)
    left = solve_general_uniform(family(F(62, 100) - eps))
    right = solve_general_uniform(family(F(62, 100) + eps))
    assert left.condition_trace == "c" and right.condition_trace == "b"
    assert right.support[0] - left.support[0] == eps
    announce("criterion 8: PASS - nesting, contraction order, affine invariance, "
          "peak signs, and junction continuity all hold")

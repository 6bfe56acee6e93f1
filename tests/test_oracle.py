"""Brute-force engine: grids, level-set chains, grid equilibria, pass-through
verification, and Monte Carlo.  Expected values here were produced by running
the engine once and hand-checking the mechanics (set shapes, exclusion of
non-credible garbles, collapse of receiver-constant outcomes)."""
from __future__ import annotations

import random
from dataclasses import fields
from functools import cache
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infochain import (
    AgentSpec,
    BinaryOutcome,
    BinaryPrior,
    ChainError,
    IntervalCut,
    OutcomeGrid,
    ResolutionTooCoarse,
    SeedRequired,
    UniformPrior,
    blackwell_maximal,
    build_grid,
    conformist_table,
    contrarian_table,
    experiment,
    experiment_of_outcome,
    grid_pairs,
    hierarchy,
    ic_chain,
    identity_experiment,
    linear_utility,
    make_outcome,
    monte_carlo,
    no_information,
    one_extremist_table,
    solve_binary,
    solve_general_grid,
    solve_general_uniform,
    solve_spe_grid,
    verify_simple_equilibrium,
    zero_extremist_table,
)
from infochain import oracle
from infochain.cli import ingest
from infochain.oracle import action_rule, outcome_value

P = BinaryPrior(F(3, 5))
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def support_set(outcomes):
    return sorted((o.q0, o.q1) for o in outcomes)


@pytest.fixture(scope="module")
def grid20():
    return build_grid(P, 20)


@pytest.fixture(scope="module")
def chain(grid20):
    """Three-sender chain: probe conformist 0.35, then an always-action-0
    extremist, then a conformist at 0.2; receiver conformist at 0.4."""
    h = hierarchy(
        [conformist_table(F(7, 20)), zero_extremist_table(), conformist_table(F(1, 5))],
        conformist_table(F(2, 5)), P,
    )
    return h, ic_chain(h, grid20)


class TestGrid:
    def test_pair_count_small(self):
        # helper enumeration at a deliberately coarse step: 4 low x 3 high
        assert len(grid_pairs(F(3, 5), 5)) == 12

    def test_minimum_resolution(self):
        with pytest.raises(ResolutionTooCoarse):
            build_grid(P, 5)

    def test_prior_always_a_coordinate(self):
        g = build_grid(BinaryPrior(F(1, 3)), 10)
        assert F(1, 3) in g.q0s and F(1, 3) in g.q1s
        assert make_outcome(F(1, 3), F(1, 3), g.prior) in g.outcomes

    def test_degenerate_present(self, grid20):
        assert make_outcome(P.p, P.p, P) in grid20.outcomes

    @pytest.mark.parametrize("p", [F(1, 3), F(2, 7), F(77, 100)])
    @pytest.mark.parametrize("resolution", [10, 17, 37])
    def test_outcomes_are_the_distinct_pair_outcomes(self, p, resolution):
        prior = BinaryPrior(p)
        grid = build_grid(prior, resolution)
        want = sorted(
            {make_outcome(a, b, prior) for a, b in grid_pairs(p, resolution)},
            key=lambda o: (o.q0, o.q1),
        )
        assert list(grid.outcomes) == want
        assert [grid.cell_of(o) for o in grid.outcomes] == grid.cells()

    def test_grid_holds_only_coordinates(self):
        assert [f.name for f in fields(OutcomeGrid)] == ["resolution", "prior", "q0s", "q1s"]


class TestLevelSets:
    def test_last_level(self, grid20, chain):
        _, ch = chain
        want = {o for o in grid20.outcomes if o.q0 <= F(1, 5) or F(2, 5) <= o.q0}
        assert set(ch.levels[3]) == want

    def test_middle_level_excludes_non_credible_garbles(self, grid20, chain):
        _, ch = chain
        want = {o for o in grid20.outcomes if o.q0 == F(1, 5) or F(2, 5) <= o.q0}
        assert set(ch.levels[2]) == want

    def test_garble_proof_strictly_smaller(self, grid20, chain):
        _, ch = chain
        want = {o for o in grid20.outcomes if F(2, 5) <= o.q0}
        assert set(ch.garble_proof) == want
        assert set(ch.garble_proof) < set(ch.levels[2])

    def test_nesting(self, chain):
        _, ch = chain
        assert set(ch.levels[2]) <= set(ch.levels[3])

    def test_equilibrium_of_this_chain(self, grid20, chain):
        h, ch = chain
        assert support_set(solve_spe_grid(h, grid20, ch)) == [(F(1, 5), F(1))]

    def test_single_intermediary_at_receiver_threshold(self, grid20):
        h = hierarchy(
            [conformist_table(F(7, 20)), conformist_table(F(2, 5))],
            conformist_table(F(2, 5)), P, strict=False,
        )
        ch = ic_chain(h, grid20)
        assert set(ch.levels[2]) == set(grid20.outcomes)
        assert set(ch.garble_proof) <= set(ch.levels[2])


class TestGridEquilibria:
    def test_all_conformists_reveal_everything(self, grid20):
        h = hierarchy(
            [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert support_set(solve_spe_grid(h, grid20)) == [(F(0), F(1))]

    def test_front_contrarian_splits_at_best_conformist(self, grid20):
        h = hierarchy(
            [contrarian_table(F(1, 10)), conformist_table(F(1, 4)), conformist_table(F(3, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert support_set(solve_spe_grid(h, grid20)) == [(F(1, 4), F(1))]

    def test_blocked_ordering_collapses_to_no_information(self, grid20):
        h = hierarchy(
            [conformist_table(F(1, 4)), contrarian_table(F(1, 10)), conformist_table(F(3, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert support_set(solve_spe_grid(h, grid20)) == [(P.p, P.p)]

    def test_matches_the_definition(self):
        # player 1's argmax of outcome_value over level 2 (every grid outcome
        # when she moves alone), outcomes the receiver answers with one action
        # read as silence, then the Blackwell filter; most priors here are
        # off the 1/G lattice
        rng = random.Random(29)
        kinds = [conformist_table, contrarian_table, zero_extremist_table, one_extremist_table]
        for n in [1, 2, 3, 4] * 6:
            pool = [F(k, 100) for k in range(1, 100)]
            rng.shuffle(pool)
            p = BinaryPrior(pool.pop())
            senders = []
            for _ in range(n):
                kind = rng.choice(kinds)
                senders.append(kind(pool.pop()) if kind in kinds[:2] else kind())
            h = hierarchy(senders, rng.choice(kinds[:2])(pool.pop()), p)
            grid = build_grid(p, rng.randint(10, 23))
            act = action_rule(h)
            candidates = ic_chain(h, grid).levels[2] if n > 1 else grid.outcomes
            value = {o: outcome_value(h.senders[0].utility, o, act) for o in candidates}
            best = max(value.values())
            arg = [
                no_information(p) if act(o.q0) == act(o.q1) == act(o.p) else o
                for o in candidates if value[o] == best
            ]
            assert solve_spe_grid(h, grid) == blackwell_maximal(arg), (h, grid.resolution)

    def test_blackwell_filter(self):
        wide = make_outcome(F(1, 4), 1, P)
        narrow = make_outcome(F(2, 5), F(4, 5), P)
        assert blackwell_maximal([narrow, wide]) == [wide]


def pairwise_maximal(outcomes):
    """Reference: an outcome survives unless another, different outcome in
    the list contains its support interval."""
    keep = [
        o for o in outcomes
        if not any(other != o and other.q0 <= o.q0 and o.q1 <= other.q1 for other in outcomes)
    ]
    return sorted(set(keep), key=lambda o: (o.q0, o.q1))


class TestOutcomesOnlyAtTheBoundary:
    @pytest.mark.parametrize("senders", [
        [conformist_table(F(7, 20)), zero_extremist_table(), conformist_table(F(1, 5))],
        [conformist_table(F(1, 4)), contrarian_table(F(1, 10)), conformist_table(F(3, 10))],
        [contrarian_table(F(1, 10))],
    ], ids=["partial", "blocked", "alone"])
    def test_cells_until_the_result(self, monkeypatch, grid20, senders):
        # the level sets stay cell masks: ic_chain builds no outcome, and
        # solve_spe_grid builds one per outcome it returns, never mapping an
        # outcome back to its cell
        h = hierarchy(senders, conformist_table(F(2, 5)), P)
        made = []

        def counted(*args):
            made.append(args)
            return make_outcome(*args)

        def no_cell_of(grid, outcome):
            raise AssertionError("solve_spe_grid mapped an outcome back to its cell")

        monkeypatch.setattr(oracle, "make_outcome", counted)
        monkeypatch.setattr(OutcomeGrid, "cell_of", no_cell_of)
        chain = ic_chain(h, grid20)
        assert made == []
        spe = solve_spe_grid(h, grid20, chain)
        assert 1 <= len(made) <= len(spe)


class TestBlackwellFilter:
    def test_matches_the_pairwise_definition(self):
        rng = random.Random(20)
        lows = [F(k, 20) for k in range(13)]       # up to the prior 3/5
        highs = [F(k, 20) for k in range(12, 21)]  # from the prior up
        silent = make_outcome(P.p, P.p, P)
        for _ in range(500):
            picks = [make_outcome(rng.choice(lows), rng.choice(highs), P)
                     for _ in range(rng.randint(0, 8))]
            picks += rng.sample(picks, rng.randint(0, len(picks)))
            if rng.random() < 0.5:
                picks.append(silent)
            rng.shuffle(picks)
            assert blackwell_maximal(picks) == pairwise_maximal(picks)


UNIFORM = UniformPrior()


class TestUniformGrid:
    def test_three_conformist_interior_optimum(self):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        assert solve_general_grid(h, 100) == [(F(4, 25), F(33, 50))]

    def test_contrarian_between_conformists_blocks(self):
        h = hierarchy(
            [linear_utility(1, F(-1, 5)), linear_utility(-1, F(1, 10)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        assert solve_general_grid(h, 100) == [(F(1, 2), F(1, 2))]

    def test_distant_zero_biased_conformist_blocks(self):
        # intermediary wants to match only above 0.9; pivotal threshold 0.25
        h = hierarchy(
            [linear_utility(1, F(-1, 4)), linear_utility(1, F(-9, 10))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        assert solve_general_grid(h, 100) == [(F(1, 2), F(1, 2))]

    def test_zero_biased_conformist_anchors_low_cell(self):
        # B*'s threshold 0.62 pins m0 at 0.12 (= 0.62 - 1/2 > half of 0.15)
        h = hierarchy(
            [linear_utility(1, F(-3, 20)), linear_utility(1, F(-31, 50))],
            linear_utility(1, F(-1, 4)), UNIFORM,
        )
        assert solve_general_grid(h, 100) == [(F(3, 25), F(31, 50))]

    def test_resolution_floor(self):
        h = hierarchy([linear_utility(1, F(-1, 5))], linear_utility(1, F(-3, 10)), UNIFORM)
        with pytest.raises(ResolutionTooCoarse):
            solve_general_grid(h, 4)

    @staticmethod
    def per_pair_search(h, resolution):
        """The search by its definition: every lattice pair m0 <= 1/2 <= m1
        with m1 - m0 <= 1/2 answered by its own subgame, then the argmax
        supports that lie inside no other."""
        half = F(1, 2)
        means = [F(k, resolution) for k in range(resolution + 1)]
        values = {}
        for m0 in means:
            for m1 in means:
                if m0 <= half <= m1 and m1 - m0 <= half:
                    cells = oracle._respond_to_means(h, m0, m1)
                    key = (half, half) if len(cells) == 1 else (cells[0][0], cells[1][0])
                    values[key] = oracle._means_value(h.senders[0].utility, cells)
        best = max(values.values())
        arg = [key for key, v in values.items() if v == best]
        return sorted(key for key in arg
                      if not any(o != key and o[0] <= key[0] and key[1] <= o[1] for o in arg))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_per_pair_search(self, data):
        # crossings in thirds and sevenths fall between lattice means, those
        # in G-ths or 2G-ths on or halfway between them; some fall outside
        # [0, 1] (extremists), and some repeat (a relaxed chain)
        resolution = data.draw(st.integers(10, 27), label="G")
        dens = st.sampled_from([3, 6, 7, 14, 21, resolution, 2 * resolution])

        def crossing(label):
            den = data.draw(dens, label=f"{label} denominator")
            c = F(data.draw(st.integers(-den // 3, den + den // 3), label=label), den)
            assume(c not in (0, F(1, 2), 1))
            return c

        def agent(label, slope):
            return AgentSpec(linear_utility(slope, -slope * crossing(label)))

        senders = [agent(f"sender {k}", data.draw(st.sampled_from([1, 1, -1])))
                   for k in range(data.draw(st.integers(1, 4), label="n"))]
        receiver = agent("receiver", data.draw(st.sampled_from([1, -1])))
        h = hierarchy(senders, receiver, UNIFORM, strict=False)
        assert solve_general_grid(h, resolution) == self.per_pair_search(h, resolution)

    def test_off_breakpoint_answer_is_refused(self, monkeypatch):
        # every delivered mean must be m0, m1 or a crossing; an answer off
        # them would not carry over to the other pairs of its order type
        h = hierarchy([linear_utility(1, F(-1, 5)), linear_utility(1, F(-2, 5))],
                      linear_utility(1, F(-3, 10)), UNIFORM)
        monkeypatch.setattr(oracle, "_respond_to_means", lambda h, m0, m1: [
            (m0 + F(1, 997), F(1, 2), 1), (m1, F(1, 2), 1),
        ])
        with pytest.raises(ChainError, match="not among"):
            solve_general_grid(h, 20)


class TestVerifySimple:
    def test_full_information_all_conformists(self, grid20):
        h = hierarchy(
            [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert verify_simple_equilibrium(h, make_outcome(0, 1, P), grid20)

    def test_partial_split_holds(self, grid20):
        h = hierarchy(
            [contrarian_table(F(1, 10)), conformist_table(F(1, 4)), conformist_table(F(3, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert verify_simple_equilibrium(h, make_outcome(F(1, 4), 1, P), grid20)

    def test_blocker_tolerates_the_partial_split(self, grid20):
        # middle contrarian passes {0.25, 1} (all alternatives the last
        # conformist would accept are worse for him) ...
        h = hierarchy(
            [conformist_table(F(3, 10)), contrarian_table(F(1, 10)), conformist_table(F(1, 4))],
            conformist_table(F(2, 5)), P,
        )
        assert verify_simple_equilibrium(h, make_outcome(F(1, 4), 1, P), grid20)

    def test_injected_full_information_fails(self, grid20):
        # ... but would profitably coarsen injected full revelation
        h = hierarchy(
            [conformist_table(F(3, 10)), contrarian_table(F(1, 10)), conformist_table(F(1, 4))],
            conformist_table(F(2, 5)), P,
        )
        assert not verify_simple_equilibrium(h, make_outcome(0, 1, P), grid20)

    def test_off_grid_outcome_rejected(self, grid20):
        h = hierarchy(
            [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
            conformist_table(F(2, 5)), P,
        )
        off = make_outcome(F(1, 7), 1, P)
        assert grid20.cell_of(off) is None
        assert not verify_simple_equilibrium(h, off, grid20)
        assert verify_simple_equilibrium(h, off, build_grid(P, 35))

    def test_outcome_over_another_prior_rejected(self, grid20, chain):
        h, _ = chain
        other = make_outcome(F(1, 4), 1, BinaryPrior(F(1, 2)))
        assert grid20.cell_of(other) is None
        assert not verify_simple_equilibrium(h, other, grid20)

    def test_silence_passes(self, grid20, chain):
        h, _ = chain
        silent = make_outcome(P.p, P.p, P)
        assert grid20.cell_of(silent) == (len(grid20.q0s) - 1, 0)
        assert verify_simple_equilibrium(h, silent, grid20)

    def test_verdicts_match_a_naive_best_response_scan(self, chain):
        # every grid outcome of small chains, against the definition: seat k
        # keeps c unless some contraction of c pays it strictly more once the
        # later seats best-respond (ties resolved optimistically).  The
        # module's chain comes first: its level 2 is wider than its
        # garble-proof set, which random draws rarely produce.
        def naive(h, grid, c):
            act = action_rule(h)
            outs = grid.outcomes

            def cone(o):
                return [d for d in outs if d.q0 >= o.q0 and d.q1 <= o.q1]

            @cache
            def value(k, o):
                return outcome_value(h.senders[k - 1].utility, o, act)

            @cache
            def reach(k, o):
                """What seats k..n may deliver from o, every tie kept."""
                if k > h.n:
                    return frozenset([o])
                pool = {x for d in cone(o) for x in reach(k + 1, d)}
                best = max(value(k, x) for x in pool)
                return frozenset(x for x in pool if value(k, x) == best)

            return all(
                value(k, c) >= max(value(k, x) for d in cone(c) for x in reach(k + 1, d))
                for k in range(2, h.n + 1)
            )

        rng = random.Random(4)
        kinds = [conformist_table, contrarian_table, zero_extremist_table, one_extremist_table]
        games = [(chain[0], 10)]
        for _ in range(24):
            pool = [F(k, 100) for k in range(1, 100)]
            rng.shuffle(pool)
            p = BinaryPrior(pool.pop())
            senders = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(kinds)
                senders.append(kind(pool.pop()) if kind in kinds[:2] else kind())
            receiver = rng.choice(kinds[:2])(pool.pop())
            games.append((hierarchy(senders, receiver, p), rng.randint(10, 12)))
        verdicts = set()
        for h, resolution in games:
            grid = build_grid(h.prior, resolution)
            for c in grid.outcomes:
                verdict = verify_simple_equilibrium(h, c, grid)
                assert verdict == naive(h, grid, c), (h, c)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_weights_must_match_the_support(self):
        # the closed-form outcome of the shipped config passes; the same
        # support with hand-set weights is no outcome player 1 can realize
        h = ingest(CONFIGS / "binary_partial.json")
        assert verify_simple_equilibrium(h, make_outcome(F(1, 4), 1, F(3, 5)))
        forged = BinaryOutcome(F(1, 4), F(1), F(3, 5), F(1, 2), F(1, 2))
        assert not verify_simple_equilibrium(h, forged)

    def test_weights_no_experiment_has_are_refused(self):
        # the second seed-1001 acceptance game; full information with weights
        # (1/2, 1/2) would need pi(high | state 1) = 50/39
        p = F(39, 100)
        h = hierarchy(
            [zero_extremist_table(), zero_extremist_table(), conformist_table(F(13, 20))],
            contrarian_table(F(7, 10)), BinaryPrior(p),
        )
        forged = BinaryOutcome(F(0), F(1), p, F(1, 2), F(1, 2))
        assert verify_simple_equilibrium(h, forged, 20) is False

    def test_uniform_equilibrium_passes(self):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        assert verify_simple_equilibrium(h, (F(4, 25), F(33, 50)), 100)

    def test_uniform_injected_wide_pair_fails(self):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        assert not verify_simple_equilibrium(h, (F(1, 10), F(9, 10)), 100)


class TestMonteCarlo:
    def test_seed_mandatory(self):
        h = hierarchy([conformist_table(F(1, 4))], conformist_table(F(2, 5)), P)
        with pytest.raises(SeedRequired):
            monte_carlo(h, [identity_experiment()], 100)

    def test_no_information_baseline(self):
        h = hierarchy(
            [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
            conformist_table(F(2, 5)), P,
        )
        babble = experiment([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        rep = monte_carlo(h, [babble, identity_experiment(), identity_experiment()],
                          10**5, seed=11)
        mean, se = rep.row("receiver")
        ru = h.receiver.utility
        target = float(P.p * ru.u11 + (1 - P.p) * ru.u01)
        assert abs(mean - target) <= 3 * se

    def test_bit_exact_determinism(self):
        h = hierarchy([conformist_table(F(1, 4))], conformist_table(F(2, 5)), P)
        runs = [
            monte_carlo(h, [identity_experiment()], 10**4, seed=3)
            for _ in range(2)
        ]
        assert runs[0].means == runs[1].means
        assert runs[0].stderrs == runs[1].stderrs

    def test_uniform_chain_with_cut(self):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        rep = monte_carlo(
            h,
            [IntervalCut(F(8, 25)), identity_experiment(), identity_experiment()],
            10**5, seed=5,
        )
        # receiver sees means 0.16 / 0.66, acts on the high cell only:
        # expected premium = P(high) * (E[w | high] - 0.3) = 0.68 * 0.36
        mean, se = rep.row("receiver")
        assert abs(mean - 0.68 * 0.36) <= 3 * se

    @pytest.mark.parametrize("name", ["binary_partial", "uniform_interior"])
    def test_labels_match_the_solver_report(self, name):
        h = ingest(CONFIGS / f"{name}.json")
        if h.is_binary:
            report = solve_binary(h)
            first = experiment_of_outcome(report.outcome)
        else:
            report = solve_general_uniform(h)
            first = IntervalCut(report.cut)
        rep = monte_carlo(h, [first] + [identity_experiment()] * (h.n - 1), 100, seed=1)
        assert rep.labels == report.labels
        assert rep.labels[-1] == h.receiver.label

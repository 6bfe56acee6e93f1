"""Closed-form equilibria of the uniform-state linear chain, player 1's value
of a mean pair, and the two-state companion game whose silence carries over.

The companion game is built here, not by the package: `solve_general_uniform`
reads its verdict straight off the linear agents' classes, and the tests below
pin that those classes and that verdict are the companion's."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from infochain import (
    AgentSpec,
    BinaryPrior,
    GeneralKind,
    HierarchySpec,
    Kind,
    OrderViolation,
    Relabeling,
    TableUtility,
    UniformPrior,
    ValidationError,
    canonicalize_receiver,
    hierarchy,
    linear_utility,
    make_outcome,
    player1_value,
    relabel_hierarchy,
    sender_classes,
    solve_binary,
    solve_general_uniform,
    solve_subgame_given_support,
    split_value,
)
from infochain.binary_solver import EquilibriumKind
from infochain.core import HALF
from infochain.general_solver import _report
from infochain.oracle import (
    _means_value,
    _respond_to_means,
    breakpoint_means,
    solve_general_grid,
)
from test_acceptance import _random_uniform_game

U = UniformPrior()


def conf(w):
    return linear_utility(1, -F(str(w)))


def contr(w):
    return linear_utility(-1, F(str(w)))


def chain(senders, receiver=None, strict=True):
    return hierarchy(senders, receiver or conf("0.3"), U, strict=strict)


CASE_C = [conf("0.32"), conf("0.2"), conf("0.58")]


def companion(h, senders=None):
    """The two-state companion game of a uniform chain over ``senders`` (all of
    them by default): each linear agent becomes the table with state-0 premium
    beta, state-1 premium alpha + beta and zero action-0 payoffs, and the
    prior becomes 1/2.  Indifference means become beliefs."""
    def spec(s):
        u = s.utility
        return AgentSpec(TableUtility(0, 0, u.beta, u.alpha + u.beta), s.label)

    senders = h.senders if senders is None else senders
    return HierarchySpec(senders=tuple(spec(s) for s in senders),
                         receiver=spec(h.receiver), prior=BinaryPrior(HALF))


def companion_silent(h):
    return solve_binary(companion(h)).kind is EquilibriumKind.NO_INFO


class TestCompanionGames:
    def test_reduced_keeps_thresholds(self):
        h = chain(CASE_C)
        red = companion(h, h.senders[1:])
        assert [c.threshold for c in sender_classes(red)] == [F(1, 5), F(29, 50)]
        assert red.prior.p == HALF

    def test_corresponding_includes_player1(self):
        corr = companion(chain(CASE_C))
        assert [c.threshold for c in sender_classes(corr)] == [
            F(8, 25), F(1, 5), F(29, 50)]

    def test_absolute_extremist_maps_to_extremist(self):
        h = chain([conf("0.32"), linear_utility(1, F(-6, 5)), conf("0.2")])
        kinds = [c.kind for c in sender_classes(companion(h, h.senders[1:]))]
        assert kinds[0] is Kind.ZERO_EXTREMIST

    def test_contrarian_passes_through(self):
        h = chain([conf("0.32"), contr("0.35"), conf("0.2")])
        c = sender_classes(companion(h, h.senders[1:]))[0]
        assert c.kind is Kind.CONTRARIAN and c.threshold == F(7, 20)

    def test_classes_match_the_linear_agents(self):
        # solve_general_uniform reads the companion's verdict off the linear
        # agents' own classes, which the tables keep: every threshold and slot
        rng = random.Random(29)
        crossings = [F(k, 100) for k in range(-60, 161) if k not in (0, 50, 100)]
        for _ in range(200):
            slope = rng.choice([1, -1, 2, F(-1, 3)])
            u = linear_utility(slope, -slope * rng.choice(crossings))
            h = HierarchySpec(senders=(AgentSpec(u),), receiver=AgentSpec(u), prior=U)
            assert sender_classes(companion(h)) == sender_classes(h)


class TestNoInfoReduction:
    def test_one_extremist_first_mover_blocks(self):
        h = chain([linear_utility(1, F(1, 10)), conf("0.2"), conf("0.58")])
        assert companion_silent(h)

    def test_ordering_collapse_carries_over(self):
        h = chain([conf("0.2"), contr("0.1"), conf("0.58")])
        assert companion_silent(h)

    def test_all_conformists_flow(self):
        assert not companion_silent(chain(CASE_C))


class TestSubgame:
    def test_pass_through(self):
        out = solve_subgame_given_support(chain(CASE_C), F(4, 25), F(33, 50))
        assert out.support() == (F(4, 25), F(33, 50))
        assert out.p == HALF

    def test_reanchors_at_surviving_conformist(self):
        # the 0.58 conformist turns 0-extremist on [0.1, 0.55]; the 0.2
        # conformist behind it re-anchors the low cell at its own crossing
        h = chain([conf("0.32"), conf("0.58"), conf("0.2")])
        out = solve_subgame_given_support(h, F(1, 10), F(11, 20))
        assert out.support() == (F(1, 5), F(11, 20))
        assert (out.w0, out.w1) == (F(1, 7), F(6, 7))

    def test_collapses_past_best_conformist(self):
        assert solve_subgame_given_support(chain(CASE_C), F(1, 4), F(3, 4)) is None

    def test_receiver_outside_range_is_silence(self):
        assert solve_subgame_given_support(chain(CASE_C), F(7, 20), F(17, 20)) is None

    def test_order_and_feasibility_checks(self):
        h = chain(CASE_C)
        with pytest.raises(OrderViolation):
            solve_subgame_given_support(h, F(2, 5), F(1, 5))
        with pytest.raises(OrderViolation):
            solve_subgame_given_support(h, F(1, 10), F(9, 10))  # spread > 1/2

    def test_non_canonical_receiver_rejected(self):
        h = chain(CASE_C, receiver=contr("0.3"))
        with pytest.raises(ValidationError):
            solve_subgame_given_support(h, F(4, 25), F(33, 50))


class TestPlayer1Value:
    U1 = linear_utility(1, F(-8, 25))  # crossing 0.32

    def test_worked_point(self):
        assert player1_value(F(4, 25), self.U1) == F(289, 1250)

    def test_degenerate_spread_is_worthless(self):
        assert player1_value(HALF, self.U1) == 0

    def test_argmax_at_half_crossing(self):
        grid = [F(k, 1000) for k in range(501)]
        assert max(grid, key=lambda m: player1_value(m, self.U1)) == F(4, 25)

    def test_stationary_exactly(self):
        rng = random.Random(11)
        h = F(1, 10**6)
        for _ in range(50):
            w1 = F(rng.randint(1, 999), 1000)
            u1 = linear_utility(1, -w1)
            m = w1 / 2
            diff = player1_value(m + h, u1) - player1_value(m - h, u1)
            assert diff == 0  # quadratic: the central difference is exact

    def test_domain_check(self):
        with pytest.raises(OrderViolation):
            player1_value(F(3, 5), self.U1)


def pair_value(u, pair, w_r):
    """Value of the mean pair (or of silence, a single mean) when the receiver
    acts on every mean at or past her indifference mean ``w_r``."""
    return split_value(u, make_outcome(pair[0], pair[-1], HALF), lambda m: m >= w_r)


class TestPlayer1Prefers:
    def test_contrarian_prefers_silence_to_any_split(self):
        u = contr("0.6")
        for pair in [(F(1, 5), F(7, 10)), (F(1, 4), F(3, 4)), (F(1, 20), F(11, 20))]:
            assert pair_value(u, (HALF,), F(3, 10)) > pair_value(u, pair, F(3, 10))

    def test_conformist_wants_lower_m0_higher_m1(self):
        u = conf("0.4")
        base = pair_value(u, (F(1, 5), F(3, 5)), F(3, 10))
        assert pair_value(u, (F(1, 10), F(3, 5)), F(3, 10)) > base
        assert pair_value(u, (F(1, 5), F(7, 10)), F(3, 10)) > base

    def test_zero_extremist_wants_higher_pair(self):
        u = linear_utility(1, F(-6, 5))
        assert (pair_value(u, (F(3, 10), F(4, 5)), F(7, 20))
                > pair_value(u, (F(1, 5), F(7, 10)), F(7, 20)))

    def test_plateau_pairs_tie(self):
        u = conf("0.4")
        assert pair_value(u, (F(3, 10), F(4, 5)), F(3, 10)) == pair_value(u, (HALF,), F(3, 10))


class TestSolveGeneralUniform:
    def test_interior_optimum(self):
        r = solve_general_uniform(chain(CASE_C))
        assert r.kind is GeneralKind.SUPPORTED
        assert r.support == (F(4, 25), F(33, 50))
        assert r.condition_trace == "c"
        assert r.cut == F(8, 25)
        assert r.efficient

    def test_interior_optimum_values(self):
        r = solve_general_uniform(chain(CASE_C))
        assert r.values[0] == player1_value(F(4, 25), CASE_C[0])
        w1 = (HALF - F(4, 25)) / HALF
        assert r.value_of("receiver") == w1 * (F(33, 50) - F(3, 10))

    def test_ordering_collapse(self):
        r = solve_general_uniform(chain([conf("0.2"), contr("0.1"), conf("0.58")]))
        assert r.kind is GeneralKind.NO_INFO
        assert r.support == (HALF,)
        assert r.condition_trace == "1c"
        assert not r.efficient
        assert r.cut is None

    def test_distant_zero_biased_conformist(self):
        r = solve_general_uniform(chain([conf("0.1"), conf("0.7")]))
        assert r.kind is GeneralKind.NO_INFO
        assert r.condition_trace == "2"
        assert not r.efficient

    def test_mixed_chain_sits_at_pivot(self):
        r = solve_general_uniform(chain([contr("0.1"), conf("0.25")]))
        assert r.support == (F(1, 4), F(3, 4))
        assert r.condition_trace == "a"
        assert r.efficient

    def test_distant_zero_bias_before_pivot(self):
        r = solve_general_uniform(chain([conf("0.45"), conf("0.7"), conf("0.1")]))
        assert r.support == (F(1, 10), F(3, 5))
        assert r.condition_trace == "b"

    def test_case_boundary_is_continuous(self):
        # at pivot-to-B* distance exactly 1/2, the interior formula lands on
        # the pivot, matching the distant-conformist case
        r = solve_general_uniform(chain([conf("0.2"), conf("0.7")]))
        assert r.support == (F(1, 5), F(7, 10))
        assert r.condition_trace == "c"

    def test_pivot_past_receiver_pins_the_cut(self):
        # the pivot's crossing 0.32 is past the receiver's 0.3: the low mean
        # is pinned at the receiver's indifference mean
        r = solve_general_uniform(chain([conf("0.32"), contr("0.2"), conf("0.58")]))
        assert r.kind is GeneralKind.SUPPORTED
        assert (r.support, r.cut, r.condition_trace) == ((F(3, 10), F(4, 5)), F(3, 5), "r")
        assert r.pivotal.p_threshold == F(8, 25) and r.efficient

    def test_no_conformist_pins_the_cut(self):
        h = chain([contr("0.1"), contr("0.2")])
        r = solve_general_uniform(h)
        assert r.kind is GeneralKind.SUPPORTED
        assert (r.support, r.condition_trace, r.pivotal) == ((F(3, 10), F(4, 5)), "r", None)
        assert r.support in solve_general_grid(h, breakpoint_means(h))

    def test_extremist_receiver_gets_silence(self):
        # a receiver who never reacts makes every split worth silence, and
        # the exhaustive search answers silence too
        h = chain(CASE_C, receiver=linear_utility(1, F(1, 10)))
        r = solve_general_uniform(h)
        assert r.kind is GeneralKind.NO_INFO
        assert (r.support, r.cut, r.condition_trace) == ((HALF,), None, "1a")
        assert r.pivotal is None and r.relabeling.identity and r.efficient
        assert r.values == tuple(s.utility.gain_of_action1(HALF) for s in (*h.senders, h.receiver))
        assert solve_general_grid(h, breakpoint_means(h)) == [(HALF, HALF)]

    def test_supported_spread_is_half(self):
        for senders in ([contr("0.1"), conf("0.25")], CASE_C,
                        [conf("0.45"), conf("0.7"), conf("0.1")]):
            r = solve_general_uniform(chain(senders))
            m0, m1 = r.support
            assert m1 - m0 == HALF


class TestReportValues:
    def test_values_follow_the_tie_rule_under_a_relabeling(self):
        # on the seed-3003 draws answered with the cut pinned at the
        # receiver's indifference mean, the exhaustive search answers that
        # cut; where the receiver is relabeled, the report must value it,
        # tie included, as the oracle does
        rng = random.Random(3003)
        relabeled = 0
        for _ in range(286):
            h = _random_uniform_game(rng)
            if solve_general_uniform(h).condition_trace != "r":
                continue
            rel = canonicalize_receiver(h)[1]
            if rel.identity:
                continue
            relabeled += 1
            for m0, m1 in solve_general_grid(h, breakpoint_means(h)):
                support = (m0,) if m0 == m1 else (m0, m1)
                r = _report(h, GeneralKind.SUPPORTED, support, "a", None, rel)
                cells = _respond_to_means(h, m0, m1)
                assert r.values == tuple(
                    _means_value(s.utility, cells) for s in (*h.senders, h.receiver)
                ), (h, m0, m1)
        assert relabeled == 40


class TestRelabelingEquivariance:
    @pytest.mark.parametrize("flip_action,flip_state", [
        (True, False), (False, True), (True, True),
    ])
    def test_flipped_frames_agree(self, flip_action, flip_state):
        h = chain(CASE_C)
        rel = Relabeling(flip_action=flip_action, flip_state=flip_state)
        r0 = solve_general_uniform(h)
        r1 = solve_general_uniform(relabel_hierarchy(h, rel))
        assert r1.support == rel.support_back(r0.support)
        assert r1.condition_trace == r0.condition_trace
        # an action flip renormalizes the zero action-0 baseline, shifting
        # each agent's value by its premium at the prior mean; a state flip
        # shifts nothing
        utilities = [*(s.utility for s in h.senders), h.receiver.utility]
        for v1, v0, u in zip(r1.values, r0.values, utilities):
            shift = u.gain_of_action1(HALF) if flip_action else 0
            assert v1 == v0 - shift


class TestGridAgreement:
    def test_random_instances_match_oracle(self):
        rng = random.Random(23)
        grid = 100
        for _ in range(20):
            n = rng.randint(1, 4)
            pool = [F(k, 50) for k in range(1, 50) if F(k, 50) != HALF]
            rng.shuffle(pool)
            ws = pool[: n + 1]
            senders = [conf(w) if rng.random() < 0.7 else contr(w) for w in ws[:n]]
            receiver = conf(ws[n]) if rng.random() < 0.8 else contr(ws[n])
            h = hierarchy(senders, receiver, U)
            companion_quiet = companion_silent(h)
            mine = solve_general_uniform(h)
            if companion_quiet:
                assert mine.kind is GeneralKind.NO_INFO
            sup = (HALF, HALF) if len(mine.support) == 1 else mine.support
            candidates = solve_general_grid(h, grid)
            assert any(
                all(abs(a - b) <= F(1, grid) for a, b in zip(sup, cand))
                for cand in candidates
            ), (senders, receiver, mine.support, candidates)

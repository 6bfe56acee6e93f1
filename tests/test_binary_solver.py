"""Closed-form binary-state equilibria, the value of a split, and efficiency
verdicts."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from infochain import (
    BinaryPrior,
    EquilibriumKind,
    NoInfoCause,
    Relabeling,
    conformist_table,
    contrarian_table,
    hierarchy,
    make_outcome,
    no_information,
    one_extremist_table,
    quadratic_loss_table,
    receiver_rule,
    relabel_hierarchy,
    solve_binary,
    split_value,
    zero_extremist_table,
)
from infochain.agents import RECEIVER
from infochain.oracle import action_rule, outcome_value

P = BinaryPrior(F(3, 5))
MU_R = F(2, 5)


def out(q0, q1):
    return make_outcome(q0, q1, P)


def acts(tie_action=0, threshold=MU_R):
    """The canonical receiver: action 1 above her threshold, and at it when
    the tie action is 1."""
    return lambda q: q > threshold or (q == threshold and tie_action == 1)


def value(agent, outcome, tie_action=0):
    return split_value(agent, outcome, acts(tie_action))


class TestExpectedValue:
    def test_zero_extremist_partial_split(self):
        # low cell below the threshold: both actions occur, weighted by Bayes
        agent = zero_extremist_table()  # payoffs (2,1) for action 0, 0 for 1
        assert value(agent, out(F(1, 4), 1)) == F(14, 15)

    def test_plateau_ignores_coordinates(self):
        agent = zero_extremist_table()
        plateau = value(agent, no_information(P))
        for pair in [(F(2, 5), 1), (F(9, 20), 1), (F(1, 2), F(7, 10)), (F(2, 5), F(3, 5))]:
            assert value(agent, out(*pair), tie_action=1) == plateau
        # the plateau is the constant-action-1 value
        assert plateau == P.p * agent.u11 + (1 - P.p) * agent.u01

    def test_perfect_matching_costs_nothing(self):
        # unbiased state-matcher seeing full revelation: zero loss
        agent = quadratic_loss_table(0)
        assert split_value(agent, out(0, 1), acts(threshold=F(1, 2))) == 0

    def test_tie_action_picks_the_branch(self):
        agent = zero_extremist_table()
        split = out(MU_R, 1)  # low cell exactly on the receiver's threshold
        assert value(agent, split, tie_action=0) == F(16, 15)
        assert value(agent, split, tie_action=1) == 0


class TestPreferences:
    def test_one_extremist_wants_silence(self):
        agent = one_extremist_table()
        silence = no_information(P)
        for pair in [(F(1, 10), 1), (F(1, 4), F(9, 10)), (0, 1), (F(3, 10), F(7, 10))]:
            assert value(agent, silence) > value(agent, out(*pair))

    def test_zero_extremist_wants_higher_low_cell(self):
        agent = zero_extremist_table()
        assert value(agent, out(F(3, 10), 1)) > value(agent, out(F(1, 5), 1))

    def test_conformist_wants_lower_low_cell(self):
        agent = conformist_table(F(1, 5))
        assert value(agent, out(F(1, 10), 1)) > value(agent, out(F(3, 20), 1))

    def test_plateau_outcomes_tie(self):
        agent = conformist_table(F(1, 5))
        a, b = out(F(9, 20), 1), out(F(1, 2), F(7, 10))
        assert value(agent, a) == value(agent, b)


def chain(senders, receiver=None):
    return hierarchy(senders, receiver or conformist_table(MU_R), P)


class TestSolveBinary:
    def test_all_conformists_full_info(self):
        r = solve_binary(chain([conformist_table(F(1, 4)), conformist_table(F(3, 10)),
                                conformist_table(F(7, 10))]))
        assert r.kind is EquilibriumKind.FULL_INFO
        assert r.support == (F(0), F(1))
        assert r.efficient and r.no_info_cause is None

    def test_blocker_then_conformists_partial(self):
        r = solve_binary(chain([contrarian_table(F(1, 10)), conformist_table(F(1, 4)),
                                conformist_table(F(3, 10))]))
        assert r.kind is EquilibriumKind.PARTIAL
        assert r.support == (F(1, 4), F(1))
        assert r.pivotal.a_star == 2
        assert r.pivotal.e_star == 1
        assert r.efficient

    def test_conformist_then_blocker_no_info(self):
        r = solve_binary(chain([conformist_table(F(1, 4)), contrarian_table(F(1, 10)),
                                conformist_table(F(3, 10))]))
        assert r.kind is EquilibriumKind.NO_INFO
        assert r.support == (P.p,)
        assert r.no_info_cause is NoInfoCause.ORDERING

    def test_zero_extremist_relay_reanchors(self):
        # the extremist coarsens, and only the conformist behind it can rescue
        # a split -- anchored at that conformist's own threshold
        r = solve_binary(chain([conformist_table(F(7, 20)), zero_extremist_table(),
                                conformist_table(F(1, 5))]))
        assert r.kind is EquilibriumKind.PARTIAL
        assert r.support == (F(1, 5), F(1))

    def test_opposed_contrarian_no_info(self):
        r = solve_binary(chain([conformist_table(F(1, 4)), contrarian_table(F(9, 20))]))
        assert r.kind is EquilibriumKind.NO_INFO
        assert r.no_info_cause is NoInfoCause.OPPOSED

    def test_extremist_receiver_full_info_constant_action(self):
        senders = [conformist_table(F(1, 4)), contrarian_table(F(1, 10))]
        h = hierarchy(senders, one_extremist_table(), P)
        r = solve_binary(h)
        assert r.kind is EquilibriumKind.NO_INFO
        assert r.support == (P.p,)
        assert r.no_info_cause is NoInfoCause.OPPOSED
        assert r.pivotal is None and r.witness is None
        assert r.relabeling == Relabeling() and r.efficient
        assert r.outcome == make_outcome(P.p, P.p, h.prior)
        assert r.tie_action == int(receiver_rule(h)(P.p))
        # the receiver always acts 1, so everyone earns the constant-action value
        for u, v in zip([*senders, one_extremist_table()], r.values):
            assert v == P.p * u.u11 + (1 - P.p) * u.u01

    def test_values_match_raw_definition(self):
        h = chain([contrarian_table(F(1, 10)), conformist_table(F(1, 4)),
                   conformist_table(F(3, 10))])
        r = solve_binary(h)
        act = action_rule(h)
        tables = [s.utility for s in h.senders] + [h.receiver.utility]
        assert list(r.values) == [outcome_value(u, r.outcome, act) for u in tables]

    def test_no_info_values_match_raw_definition(self):
        h = chain([conformist_table(F(1, 4)), contrarian_table(F(1, 10)),
                   conformist_table(F(3, 10))])
        r = solve_binary(h)
        act = action_rule(h)
        tables = [s.utility for s in h.senders] + [h.receiver.utility]
        assert list(r.values) == [outcome_value(u, r.outcome, act) for u in tables]


class TestRelabelingEquivariance:
    def base(self):
        return chain([contrarian_table(F(1, 10)), conformist_table(F(1, 4)),
                      conformist_table(F(3, 10))])

    @pytest.mark.parametrize("flip_action,flip_state", [
        (True, False), (False, True), (True, True),
    ])
    def test_flipped_frames_agree(self, flip_action, flip_state):
        h = self.base()
        rel = Relabeling(flip_action=flip_action, flip_state=flip_state)
        flipped = relabel_hierarchy(h, rel)
        r0 = solve_binary(h)
        r1 = solve_binary(flipped)
        # renaming actions/states moves the support by reflection at most and
        # never changes anyone's realized payoff
        assert r1.support == rel.support_back(r0.support)
        assert r1.values == r0.values
        assert r1.kind is r0.kind


class TestEfficiency:
    def test_ordering_collapse_is_dominated(self):
        h = chain([conformist_table(F(1, 4)), contrarian_table(F(1, 10)),
                   conformist_table(F(3, 10))])
        r = solve_binary(h)
        assert not r.efficient
        assert r.witness == (F(1, 10), F(1, 4))

    def test_witness_outcomes_beat_silence_for_everyone(self):
        h = chain([conformist_table(F(1, 4)), contrarian_table(F(1, 10)),
                   conformist_table(F(3, 10))])
        r = solve_binary(h)
        lo, hi = r.witness
        tables = [s.utility for s in h.senders] + [h.receiver.utility]
        silence = no_information(P)
        # strict Pareto improvement in the interior; at each endpoint the agent
        # whose threshold defines it is exactly indifferent
        for q0 in [lo, (lo + 3 * hi) / 4, (lo + hi) / 2, hi]:
            better = make_outcome(q0, 1, P)
            deltas = [
                value(u, better, r.tie_action) - value(u, silence, r.tie_action)
                for u in tables
            ]
            assert all(d >= 0 for d in deltas)
            assert any(d > 0 for d in deltas)
            if lo < q0 < hi:
                assert all(d > 0 for d in deltas)

    def test_full_info_efficient(self):
        h = chain([conformist_table(F(1, 4))])
        r = solve_binary(h)
        assert r.efficient and r.witness is None

    def test_opposed_no_info_efficient(self):
        h = chain([conformist_table(F(1, 4)), one_extremist_table()])
        r = solve_binary(h)
        assert r.kind is EquilibriumKind.NO_INFO
        assert r.no_info_cause is NoInfoCause.OPPOSED
        assert r.efficient and r.witness is None

    def test_more_biased_pivot_means_more_information(self):
        # sliding the pivotal conformist's threshold down benefits the receiver
        values = []
        for x in [F(7, 20), F(3, 10), F(1, 4), F(3, 20)]:
            h = chain([contrarian_table(F(1, 10)), conformist_table(x)])
            r = solve_binary(h)
            assert r.support == (x, F(1))
            values.append(r.value_of("receiver"))
        assert values == sorted(values)
        assert len(set(values)) == len(values)


class TestRelaxedChains:
    def test_receiver_pivot_splits_answer_the_low_cell_with_action_0(self):
        # With the receiver as pivot, a partial verdict leaves no sender
        # opposed or conforming below her threshold, so the last sender gains
        # nothing from action 1 at it.  Thresholds drawn from tenths collide.
        rng = random.Random(11)
        tenths = [F(k, 10) for k in range(1, 10)]

        def agent(pool):
            if rng.random() < 0.2:
                return rng.choice([zero_extremist_table, one_extremist_table])()
            return rng.choice([conformist_table, contrarian_table])(rng.choice(pool))

        seen = 0
        for _ in range(2000):
            p = rng.choice(tenths)
            pool = [t for t in tenths if t != p]
            senders = [agent(pool) for _ in range(rng.randint(1, 5))]
            receiver = rng.choice([conformist_table, contrarian_table])(rng.choice(pool))
            r = solve_binary(hierarchy(senders, receiver, BinaryPrior(p), strict=False))
            if r.kind is EquilibriumKind.PARTIAL and r.pivotal.a_star == RECEIVER:
                seen += 1
                assert r.tie_action == 0
        assert seen > 0

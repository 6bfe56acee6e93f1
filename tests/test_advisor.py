"""Receiver-optimal appointments appended to the end of a chain."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from infochain import (
    BinaryPrior,
    ChainError,
    NoImprovement,
    Relabeling,
    UniformPrior,
    breakpoint_means,
    conformist_table,
    contrarian_table,
    hierarchy,
    linear_utility,
    one_extremist_table,
    relabel_hierarchy,
    solve_binary,
    solve_general_grid,
    solve_general_uniform,
    zero_extremist_table,
)
from infochain.advisor import (
    GAIN_INCREASES_WITH_BIAS,
    RULE_ANCHOR,
    RULE_BRIDGE,
    RULE_PIN,
    RULE_TIGHTEN,
    optimal_two_vps,
    optimal_vp_binary,
    optimal_vp_general,
)
from infochain.binary_solver import EquilibriumKind
from infochain.general_solver import GeneralKind
from infochain.oracle import _means_value, _respond_to_means
from test_acceptance import _load_script, _random_uniform_game

P = BinaryPrior(F(3, 5))
U = UniformPrior()


def bchain(senders, receiver=None):
    return hierarchy(senders, receiver or conformist_table(F(2, 5)), P)


def conf(w):
    return linear_utility(1, -F(str(w)))


def contr(w):
    return linear_utility(-1, F(str(w)))


def gchain(senders, receiver=None):
    return hierarchy(senders, receiver or conf("0.3"), U)


# a chain silenced purely by seating order: the mildest conformist sits in
# front of the contrarian who would tolerate her split
ORDERING = [conformist_table(F(1, 4)), contrarian_table(F(1, 10)), conformist_table(F(3, 10))]

CASE_C = [conf("0.32"), conf("0.2"), conf("0.58")]


class TestBinaryAppointment:
    def test_ordering_chain_fixed(self):
        rec = optimal_vp_binary(bchain(ORDERING))
        assert rec.rule_fired == RULE_BRIDGE
        assert rec.interval == (F(1, 10), F(1, 4))
        assert rec.monotonicity == GAIN_INCREASES_WITH_BIAS
        assert rec.specs[0].utility == conformist_table(F(115, 1000))
        assert rec.before.kind is EquilibriumKind.NO_INFO
        assert rec.after.kind is EquilibriumKind.PARTIAL
        assert rec.after.support == (F(115, 1000), F(1))
        assert rec.after.efficient
        assert rec.receiver_gain == rec.after.values[-1] - rec.before.values[-1] > 0

    def test_delta_moves_the_point(self):
        rec = optimal_vp_binary(bchain(ORDERING), delta=F(1, 2))
        assert rec.specs[0].utility == conformist_table(F(7, 40))
        assert rec.after.support == (F(7, 40), F(1))

    def test_delta_domain(self):
        for bad in (0, 1, F(3, 2), -F(1, 10)):
            with pytest.raises(ChainError):
                optimal_vp_binary(bchain(ORDERING), delta=bad)

    def test_recommendation_is_reproducible(self):
        rec = optimal_vp_binary(bchain(ORDERING))
        h = bchain(ORDERING)
        redo = solve_binary(
            hierarchy([*h.senders, *rec.specs], h.receiver, h.prior, strict=False)
        )
        assert redo.support == rec.after.support
        assert redo.values == rec.after.values

    def test_full_info_chain_gains_nothing(self):
        all_conf = [conformist_table(F(1, 4)), conformist_table(F(3, 10))]
        with pytest.raises(NoImprovement):
            optimal_vp_binary(bchain(all_conf))

    def test_opposed_chain_gains_nothing(self):
        opposed = [conformist_table(F(1, 4)), one_extremist_table()]
        with pytest.raises(NoImprovement):
            optimal_vp_binary(bchain(opposed))

    def test_blocker_above_pivot_gains_nothing(self):
        blocked = [conformist_table(F(1, 4)), contrarian_table(F(3, 10))]
        assert solve_binary(bchain(blocked)).kind is EquilibriumKind.NO_INFO
        with pytest.raises(NoImprovement):
            optimal_vp_binary(bchain(blocked))

    def test_extremist_receiver_gains_nothing(self):
        h = bchain(ORDERING, receiver=one_extremist_table())
        with pytest.raises(NoImprovement):
            optimal_vp_binary(h)

    def test_partial_chain_still_improvable(self):
        # an informative chain re-anchors at the appointee's lower threshold
        probe = [conformist_table(F(7, 20)), zero_extremist_table(), conformist_table(F(1, 5))]
        rec = optimal_vp_binary(bchain(probe))
        assert rec.before.kind is EquilibriumKind.PARTIAL
        assert rec.interval == (F(0), F(1, 5))
        assert rec.after.support == (F(1, 50), F(1))
        assert rec.receiver_gain > 0

    def test_gain_decreases_as_threshold_rises(self):
        # inside the workable interval, less biased appointees buy strictly less
        values = []
        for delta in (F(1, 100), F(1, 4), F(1, 2), F(3, 4), F(99, 100)):
            rec = optimal_vp_binary(bchain(ORDERING), delta=delta)
            values.append(rec.after.values[-1])
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("flip_action,flip_state", [(True, False), (False, True), (True, True)])
    def test_relabeling_equivariance(self, flip_action, flip_state):
        base = optimal_vp_binary(bchain(ORDERING))
        flipped = relabel_hierarchy(bchain(ORDERING), Relabeling(flip_action, flip_state))
        rec = optimal_vp_binary(flipped)
        assert rec.interval == base.interval
        assert rec.receiver_gain == base.receiver_gain
        canonical = rec.after.relabeling.support_back(rec.after.support)
        assert canonical == (F(115, 1000), F(1))


class TestGeneralAppointment:
    def test_case_c_tightens_the_pivot(self):
        rec = optimal_vp_general(gchain(CASE_C))
        assert rec.rule_fired == RULE_TIGHTEN
        assert rec.specs[0].utility == conf("0.15")
        assert rec.after.support == (F(3, 20), F(13, 20))
        assert rec.after.efficient
        assert rec.interval is None
        assert rec.receiver_gain == F(1, 5000)

    def test_after_matches_full_revelation_value(self):
        # the appointee lands the cut on the receiver's stationary point, so
        # the garbled chain is worth exactly as much as full revelation
        rec = optimal_vp_general(gchain(CASE_C))
        full_info_value = F(7, 10) ** 2 / 2
        assert rec.after.values[-1] == full_info_value

    def test_ordering_silence_fixed(self):
        rec = optimal_vp_general(gchain([conf("0.2"), contr("0.1"), conf("0.58")]))
        assert rec.before.kind is GeneralKind.NO_INFO
        assert rec.before.condition_trace == "1c"
        assert rec.rule_fired == RULE_TIGHTEN
        assert rec.specs[0].utility == conf("0.15")
        assert rec.after.support == (F(3, 20), F(13, 20))
        assert rec.receiver_gain == F(9, 200)

    def test_distant_anchor_silence_fixed(self):
        rec = optimal_vp_general(gchain([conf("0.1"), conf("0.7")]))
        assert rec.before.condition_trace == "2"
        # the appointee duplicates the pivot's crossing: the closest copy to
        # the receiver takes over and unhooks the distant anchor
        assert rec.specs[0].utility == conf("0.1")
        assert rec.after.support == (F(1, 10), F(3, 5))
        assert rec.receiver_gain == F(1, 25)

    def test_low_cut_anchored_up(self):
        h = gchain([conf("0.1"), conf("0.3")], receiver=conf("0.4"))
        assert solve_general_uniform(h).support == (F(1, 20), F(11, 20))
        rec = optimal_vp_general(h)
        assert rec.rule_fired == RULE_ANCHOR
        assert rec.specs[0].utility == conf("0.6")
        assert rec.after.support == (F(1, 10), F(3, 5))
        assert rec.receiver_gain == F(1, 40)

    def test_already_optimal_chain(self):
        h = gchain([conf("0.2"), conf("0.65")])
        assert solve_general_uniform(h).support == (F(3, 20), F(13, 20))
        with pytest.raises(NoImprovement):
            optimal_vp_general(h)

    def test_opposed_chain(self):
        with pytest.raises(NoImprovement):
            optimal_vp_general(gchain([conf("0.2"), contr("0.45")]))

    def test_contrarian_first_mover_caps_the_single_appointee(self):
        # an appointee aiming below the first mover's crossing would turn her
        # into a blocker, so the single appointee aims at that crossing, as
        # the pair's downward appointee does, and buys what the pair buys
        h = gchain([contr("0.18"), conf("0.25")])
        rec = optimal_vp_general(h)
        assert rec.rule_fired == RULE_TIGHTEN
        assert rec.specs[0].utility == conf("0.18")
        assert rec.after.support == (F(9, 50), F(17, 25))
        assert rec.receiver_gain == optimal_two_vps(h).receiver_gain == F(91, 5000)

    def test_intermediary_contrarian_caps_the_single_appointee(self):
        rec = optimal_vp_general(gchain([conf("0.25"), contr("0.18"), conf("0.58")]))
        assert rec.before.condition_trace == "1c"
        assert rec.specs[0].utility == conf("0.18")
        assert rec.after.support == (F(9, 50), F(17, 25))
        assert rec.receiver_gain > 0

    def test_chain_with_no_conformist_gains_from_a_pair(self):
        # seed 3003's draw 106: one contrarian sender, so the chain transmits
        # the cut pinned at the receiver's crossing, 31/100 in the canonical
        # frame, and has no pivot; that crossing stands in for the pivot's.
        # The single appointee and the pair's downward one both aim at the
        # sender's canonical crossing 19/100, which caps the cut there
        h = gchain([contr("0.81")], receiver=conf("0.69"))
        before = solve_general_uniform(h)
        assert (before.condition_trace, before.pivotal) == ("r", None)
        single, pair = optimal_vp_general(h), optimal_two_vps(h)
        assert single.rule_fired == RULE_TIGHTEN
        for rec in (single, pair):
            canonical = rec.after.relabeling.support_back(rec.after.support)
            assert canonical == (F(19, 100), F(69, 100))
            assert rec.receiver_gain == F(57, 1250)

    def test_extremist_receiver_gains_nothing(self):
        h = gchain(CASE_C, receiver=linear_utility(1, F(1, 10)))
        with pytest.raises(NoImprovement):
            optimal_vp_general(h)

    def test_relabeling_equivariance(self):
        base = optimal_vp_general(gchain(CASE_C))
        flipped = relabel_hierarchy(gchain(CASE_C), Relabeling(True, True))
        rec = optimal_vp_general(flipped)
        assert rec.rule_fired == base.rule_fired
        canonical = rec.after.relabeling.support_back(rec.after.support)
        assert canonical == (F(3, 20), F(13, 20))


class TestTwoAppointments:
    def test_case_c_pair(self):
        rec = optimal_two_vps(gchain(CASE_C))
        assert rec.rule_fired == RULE_PIN
        assert tuple(s.utility for s in rec.specs) == (conf("0.15"), conf("0.65"))
        assert rec.after.support == (F(3, 20), F(13, 20))
        assert rec.receiver_gain == F(1, 5000)

    def test_contrarian_first_mover_pair(self):
        # the downward cap folds in the first mover's own crossing: below it
        # she strictly prefers silence, at it she conforms
        rec = optimal_two_vps(gchain([contr("0.18"), conf("0.25")]))
        assert tuple(s.utility for s in rec.specs) == (conf("0.18"), conf("0.65"))
        assert rec.after.support == (F(9, 50), F(17, 25))
        assert rec.receiver_gain == F(91, 5000)

    def test_order_independence(self):
        h = gchain(CASE_C)
        rec = optimal_two_vps(h)
        swapped = solve_general_uniform(
            hierarchy([*h.senders, rec.specs[1], rec.specs[0]], h.receiver, U, strict=False)
        )
        assert swapped.support == rec.after.support

    def test_third_copy_buys_nothing(self):
        h = gchain(CASE_C)
        rec = optimal_two_vps(h)
        for extra in rec.specs:
            third = solve_general_uniform(
                hierarchy([*h.senders, *rec.specs, extra], h.receiver, U, strict=False)
            )
            assert third.values[-1] == rec.after.values[-1]

    def test_already_optimal_chain(self):
        with pytest.raises(NoImprovement):
            optimal_two_vps(gchain([conf("0.2"), conf("0.65")]))

    def test_pair_matches_single_when_both_work(self):
        for senders in (CASE_C, [conf("0.2"), contr("0.1"), conf("0.58")], [conf("0.1"), conf("0.7")]):
            single = optimal_vp_general(gchain(senders))
            pair = optimal_two_vps(gchain(senders))
            assert pair.after.support == single.after.support


class TestRandomizedInvariants:
    def test_binary_gap_is_never_empty(self):
        # pivotal_rule puts the blocker end strictly below the pivot's
        # threshold, or at 0, so optimal_vp_binary's interval is never empty
        draw = _load_script("cross_check").random_binary_game
        rng = random.Random(1001)
        pivotal = recommended = 0
        for _ in range(500):
            h = draw(rng)
            reports = [solve_binary(h)]
            try:
                reports.append(optimal_vp_binary(h).after)
                recommended += 1
            except NoImprovement:
                pass
            for report in reports:
                if report.pivotal is not None:
                    pivotal += 1
                    assert report.pivotal.d_star_threshold < report.pivotal.a_star_threshold
        assert (pivotal, recommended) == (564, 64)

    def test_binary_appointments(self):
        rng = random.Random(20260823)
        grid = [F(k, 100) for k in range(1, 100)]
        emitted = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            senders = []
            for _ in range(n):
                roll = rng.random()
                if roll < 0.1:
                    senders.append(one_extremist_table() if rng.random() < 0.5 else zero_extremist_table())
                elif roll < 0.5:
                    senders.append(contrarian_table(rng.choice(grid)))
                else:
                    senders.append(conformist_table(rng.choice(grid)))
            receiver = conformist_table(rng.choice([t for t in grid if t < P.p]))
            try:
                h = bchain(senders, receiver=receiver)
            except ChainError:
                continue
            try:
                rec = optimal_vp_binary(h)
            except NoImprovement:
                continue
            emitted += 1
            assert rec.receiver_gain > 0
            assert rec.after.efficient
            lo, hi = rec.interval
            point = lo + (hi - lo) / 10
            canonical = rec.after.relabeling.support_back(rec.after.support)
            assert canonical == (point, F(1))
        assert emitted >= 10

    def test_pinned_chains_agree_with_the_oracle(self):
        # on every seed-3003 draw answered with the cut pinned at the
        # receiver's crossing, each recommendation's receiver value is the
        # pair search's on the extended chain, for every answer it gives
        rng = random.Random(3003)
        pinned = recommended = 0
        for _ in range(286):
            h = _random_uniform_game(rng)
            if solve_general_uniform(h).condition_trace != "r":
                continue
            pinned += 1
            for recommend in (optimal_vp_general, optimal_two_vps):
                try:
                    rec = recommend(h)
                except NoImprovement:
                    continue
                recommended += 1
                extended = hierarchy([*h.senders, *rec.specs], h.receiver, U, strict=False)
                pairs = solve_general_grid(extended, breakpoint_means(extended))
                assert {
                    _means_value(h.receiver.utility, _respond_to_means(extended, *pair))
                    for pair in pairs
                } == {rec.after.values[-1]}, (h, recommend.__name__)
        assert (pinned, recommended) == (86, 172)

    def test_general_appointments(self):
        rng = random.Random(8235)
        grid = [F(k, 50) for k in range(1, 50) if F(k, 50) != F(1, 2)]
        emitted = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            senders = []
            for _ in range(n):
                w = rng.choice(grid)
                senders.append(linear_utility(1, -w) if rng.random() < 0.7 else linear_utility(-1, w))
            receiver = linear_utility(1, -rng.choice(grid))
            try:
                h = hierarchy(senders, receiver, U)
                rec = optimal_vp_general(h)
            except ChainError:
                continue
            emitted += 1
            assert rec.receiver_gain > 0
            assert rec.after.efficient
            assert rec.after.kind is GeneralKind.SUPPORTED
        assert emitted >= 10

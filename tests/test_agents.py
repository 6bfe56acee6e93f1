"""Agent taxonomy: indifference beliefs, classification, reclassification,
frame normalization, and pivotal-player identification."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from infochain import (
    AgentClass,
    AgentSpec,
    BinaryPrior,
    DegenerateAgent,
    ExtremistReceiver,
    Kind,
    NoConformist,
    ThresholdCollision,
    UniformPrior,
    ValidationError,
    canonicalize_receiver,
    classify_binary,
    classify_linear,
    conformist_table,
    contrarian_table,
    hierarchy,
    indifference_belief,
    linear_utility,
    pivotal_binary,
    pivotal_general,
    quadratic_loss_table,
    reclassify_under_support,
    relabel_hierarchy,
    table_utility,
    zero_extremist_table,
)


P = BinaryPrior(F(3, 5))


class TestIndifferenceBelief:
    def test_quadratic_bias(self):
        assert indifference_belief(quadratic_loss_table(F(1, 5))) == F(3, 5)

    def test_zero_threshold(self):
        u = table_utility(1, 0, 1, 2)  # u00 == u01, action 1 better in state 1
        assert indifference_belief(u) == 0

    def test_outside_unit_interval(self):
        assert indifference_belief(table_utility(2, 1, 0, 0)) == 2

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateAgent):
            indifference_belief(table_utility(1, 1, 2, 2))


class TestClassifyBinary:
    def test_always_action_zero(self):
        c = classify_binary(quadratic_loss_table(F(3, 2)), P)
        assert c.kind is Kind.ZERO_EXTREMIST

    def test_conformist_with_bias(self):
        c = classify_binary(quadratic_loss_table(F(-3, 5)), P)
        assert (c.kind, c.threshold) == (Kind.CONFORMIST, F(1, 5))

    def test_contrarian(self):
        c = classify_binary(contrarian_table(F(1, 2)), P)
        assert (c.kind, c.threshold) == (Kind.CONTRARIAN, F(1, 2))

    def test_collision_with_prior(self):
        with pytest.raises(ThresholdCollision):
            classify_binary(conformist_table(P.p), P)


class TestClassifyLinear:
    def test_conformist(self):
        c = classify_linear(linear_utility(1, F(-1, 5)))
        assert (c.kind, c.threshold) == (Kind.CONFORMIST, F(1, 5))

    def test_contrarian(self):
        c = classify_linear(linear_utility(-1, F(3, 10)))
        assert (c.kind, c.threshold) == (Kind.CONTRARIAN, F(3, 10))

    def test_absolute_extremist(self):
        c = classify_linear(linear_utility(1, F(-6, 5)))
        assert c.kind is Kind.ZERO_EXTREMIST

    def test_midpoint_collision(self):
        with pytest.raises(ThresholdCollision):
            classify_linear(linear_utility(1, F(-1, 2)))

    def test_quadratic_and_linear_agree(self):
        for t in (F(1, 5), F(3, 10), F(7, 10)):
            ct = classify_binary(quadratic_loss_table(2 * t - 1), P)
            cl = classify_linear(linear_utility(1, -t))
            assert (ct.kind, ct.threshold) == (cl.kind, cl.threshold)


class TestReclassify:
    def test_interior_stays(self):
        c = classify_linear(linear_utility(1, F(-1, 5)))
        r = reclassify_under_support(c, F(1, 10), F(3, 5))
        assert (r.kind, r.threshold) == (Kind.CONFORMIST, F(1, 5))

    def test_conformist_below_support(self):
        c = classify_linear(linear_utility(1, F(-1, 5)))
        r = reclassify_under_support(c, F(3, 10), F(4, 5))
        assert r.kind is Kind.ONE_EXTREMIST

    def test_conformist_above_support(self):
        c = classify_linear(linear_utility(1, F(-29, 50)))
        r = reclassify_under_support(c, F(1, 10), F(1, 2))
        assert r.kind is Kind.ZERO_EXTREMIST

    def test_contrarian_conversion_reversed(self):
        c = classify_linear(linear_utility(-1, F(1, 5)))
        below = reclassify_under_support(c, F(3, 10), F(4, 5))
        above = reclassify_under_support(c, F(1, 100), F(1, 10))
        assert below.kind is Kind.ZERO_EXTREMIST
        assert above.kind is Kind.ONE_EXTREMIST

    def test_full_support_is_identity(self):
        for u in (linear_utility(1, F(-1, 5)), linear_utility(-1, F(3, 10))):
            c = classify_linear(u)
            r = reclassify_under_support(c, 0, 1)
            assert (r.kind, r.threshold) == (c.kind, c.threshold)

    def test_boundary_keeps_degenerate_threshold(self):
        c = classify_linear(linear_utility(1, F(-1, 5)))
        r = reclassify_under_support(c, F(1, 5), F(7, 10))
        assert (r.kind, r.threshold) == (Kind.CONFORMIST, F(0))

    @pytest.mark.parametrize("kind", [Kind.ZERO_EXTREMIST, Kind.ONE_EXTREMIST])
    def test_extremist_is_unchanged(self, kind):
        c = AgentClass(kind=kind)
        assert reclassify_under_support(c, F(1, 10), F(3, 5)) is c


class TestHierarchy:
    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ValidationError):
            hierarchy([conformist_table(F(1, 4)), conformist_table(F(1, 4))],
                      conformist_table(F(2, 5)), P)

    def test_relaxed_mode_allows_duplicates(self):
        h = hierarchy([conformist_table(F(1, 4)), conformist_table(F(1, 4))],
                      conformist_table(F(2, 5)), P, strict=False)
        assert h.n == 2

    def test_duplicate_labels_rejected(self):
        senders = [AgentSpec(conformist_table(F(1, 4)), "desk"),
                   AgentSpec(conformist_table(F(3, 10)), "desk")]
        with pytest.raises(ValidationError, match="agents 0 and 1 share 'desk'"):
            hierarchy(senders, conformist_table(F(2, 5)), P)
        relaxed = hierarchy(senders, conformist_table(F(2, 5)), P, strict=False)
        assert relaxed.labels == ("desk", "desk", "receiver")

    def test_label_colliding_with_a_fallback_rejected(self):
        with pytest.raises(ValidationError, match="agents 0 and 1 share 'receiver'"):
            hierarchy([AgentSpec(conformist_table(F(1, 4)), "receiver")],
                      conformist_table(F(2, 5)), P)
        with pytest.raises(ValidationError, match="agents 0 and 1 share 'sender2'"):
            hierarchy([AgentSpec(conformist_table(F(1, 4)), "sender2"),
                       conformist_table(F(3, 10))],
                      conformist_table(F(2, 5)), P)

    def test_mixed_models_rejected(self):
        with pytest.raises(ValidationError):
            hierarchy([conformist_table(F(1, 4)), linear_utility(1, F(-1, 5))],
                      conformist_table(F(2, 5)), P)


class TestCanonicalFrame:
    def test_already_canonical(self):
        h = hierarchy([conformist_table(F(1, 4))], conformist_table(F(2, 5)), P)
        canon, rel = canonicalize_receiver(h)
        assert rel.identity
        assert canon is h

    def test_conformist_above_prior_flips_both(self):
        h = hierarchy([conformist_table(F(1, 4))], conformist_table(F(7, 10)), P)
        canon, rel = canonicalize_receiver(h)
        assert rel.flip_action and rel.flip_state
        rc = classify_binary(canon.receiver.utility, canon.prior)
        assert rc.kind is Kind.CONFORMIST and rc.threshold < canon.prior.p

    def test_contrarian_flip(self):
        h = hierarchy([conformist_table(F(1, 4))], contrarian_table(F(2, 5)), P)
        canon, rel = canonicalize_receiver(h)
        rc = classify_binary(canon.receiver.utility, canon.prior)
        assert rc.kind is Kind.CONFORMIST

    def test_round_trip_support(self):
        h = hierarchy([conformist_table(F(1, 4))], conformist_table(F(7, 10)), P)
        canon, rel = canonicalize_receiver(h)
        # a support pair in the canonical frame maps back exactly
        pair = (F(1, 5), F(9, 10))
        back = rel.support_back(pair)
        assert back == tuple(sorted(1 - q for q in pair))
        assert rel.support_back(back) == pair

    def test_extremist_receiver_rejected(self):
        h = hierarchy([conformist_table(F(1, 4))], zero_extremist_table(), P)
        with pytest.raises(ExtremistReceiver):
            canonicalize_receiver(h)

    def test_relabel_round_trip_is_identity(self):
        h = hierarchy([conformist_table(F(1, 4)), contrarian_table(F(1, 10))],
                      conformist_table(F(7, 10)), P)
        canon, rel = canonicalize_receiver(h)
        again = relabel_hierarchy(canon, rel)
        assert again.prior == h.prior
        for a, b in zip(again.senders, h.senders):
            assert a.utility == b.utility


class TestPivotalBinary:
    def test_blocked_ordering_instance(self):
        h = hierarchy([conformist_table(F(1, 4)), contrarian_table(F(1, 10)),
                       conformist_table(F(3, 10))],
                      conformist_table(F(2, 5)), P)
        r = pivotal_binary(h)
        assert r.a_star == 1
        assert r.e_star == 2
        assert r.d_star_threshold == F(1, 10)

    def test_no_aligned_conformist_defaults_to_receiver(self):
        h = hierarchy([contrarian_table(F(1, 10)), conformist_table(F(7, 10))],
                      conformist_table(F(2, 5)), P)
        r = pivotal_binary(h)
        assert r.a_star == "receiver"
        assert r.a_star_threshold == F(2, 5)


class TestPivotalGeneral:
    def test_case_c_instance(self):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)),
             linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)),
            UniformPrior(),
        )
        r = pivotal_general(h)
        assert r.p_pivot == 2
        assert r.b_star_threshold == F(29, 50)
        assert r.b_star_p_threshold == F(29, 50)
        assert r.d_dstar_threshold == 0
        assert r.d_star_general == 0

    def test_no_conformist_raises(self):
        h = hierarchy([linear_utility(-1, F(3, 10))],
                      linear_utility(1, F(-2, 5)), UniformPrior())
        with pytest.raises(NoConformist):
            pivotal_general(h)

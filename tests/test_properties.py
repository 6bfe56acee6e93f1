"""Structural laws of the engine, checked by randomized search.

Everything here is exact rational arithmetic: hypothesis draws Fractions and
the assertions are equalities or orderings, never float tolerances.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from infochain import (
    AgentSpec,
    BinaryPrior,
    UniformPrior,
    classify,
    compose,
    conformist_table,
    contrarian_table,
    experiment,
    experiment_of_outcome,
    full_information,
    hierarchy,
    identity_experiment,
    is_mpc,
    linear_utility,
    make_outcome,
    no_information,
    outcome_of_experiment,
    solve_binary,
    split_value,
    table_utility,
)
from infochain.agents import relabel_utility
from infochain.core import ZeroProbabilitySignal
from infochain.binary_solver import EquilibriumKind
from infochain.general_solver import player1_value, solve_general_uniform
from infochain.oracle import build_grid, ic_chain, solve_spe_grid

ratios = st.fractions(min_value=0, max_value=1, max_denominator=24)
interior = st.fractions(min_value=F(1, 24), max_value=F(23, 24), max_denominator=24)


def outcome_for(p):
    """Strategy for a canonical outcome straddling the prior p."""
    return st.tuples(
        st.fractions(min_value=0, max_value=p, max_denominator=24),
        st.fractions(min_value=p, max_value=1, max_denominator=24),
    ).map(lambda pair: make_outcome(pair[0], pair[1], p))


class TestOutcomeAlgebra:
    @given(interior, ratios, ratios)
    def test_bayes_plausibility(self, p, a, b):
        q0, q1 = min(a, p), max(b, p)
        out = make_outcome(q0, q1, p)
        assert out.w0 + out.w1 == 1
        assert out.w0 * out.q0 + out.w1 * out.q1 == p
        assert out.w0 >= 0 and out.w1 >= 0

    @given(interior, ratios)
    def test_zero_weight_supports_collapse(self, p, q):
        low = make_outcome(min(q, p), p, p)
        high = make_outcome(p, max(q, p), p)
        assert low.degenerate and high.degenerate
        assert low.support() == high.support() == (p,)

    @given(interior, st.data())
    def test_contraction_is_a_partial_order(self, p, data):
        a = data.draw(outcome_for(p))
        b = data.draw(outcome_for(p))
        c = data.draw(outcome_for(p))
        assert is_mpc(a, a)
        if is_mpc(a, b) and is_mpc(b, a):
            assert a == b
        if is_mpc(a, b) and is_mpc(b, c):
            assert is_mpc(a, c)

    @given(interior, st.data())
    def test_extreme_elements(self, p, data):
        out = data.draw(outcome_for(p))
        assert is_mpc(no_information(BinaryPrior(p)), out)
        assert is_mpc(out, full_information(BinaryPrior(p)))
        if is_mpc(full_information(BinaryPrior(p)), out):
            assert out == full_information(BinaryPrior(p))


class TestExperimentCalculus:
    @given(interior, st.data())
    def test_outcome_experiment_round_trip(self, p, data):
        out = data.draw(outcome_for(p))
        pi = experiment_of_outcome(out)
        assert outcome_of_experiment(BinaryPrior(p), pi) == out

    @given(interior, ratios, ratios, ratios, ratios)
    def test_composition_never_adds_information(self, p, s0, s1, g0, g1):
        first = experiment([[1 - s0, s0], [1 - s1, s1]])
        second = experiment([[1 - g0, g0], [1 - g1, g1]])
        prior = BinaryPrior(p)

        def outcome(pi):
            # an experiment whose signals collapse to one column is silence
            try:
                return outcome_of_experiment(prior, pi)
            except ZeroProbabilitySignal:
                return no_information(prior)

        assert is_mpc(outcome(compose(first, second)), outcome(first))

    @given(ratios, ratios)
    def test_identity_is_neutral_for_composition(self, s0, s1):
        pi = experiment([[1 - s0, s0], [1 - s1, s1]])
        ident = identity_experiment(2)
        assert compose(pi, ident).rows == pi.rows
        assert compose(ident, pi).rows == pi.rows


class TestUtilityGeometry:
    @given(interior, st.booleans(),
           st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16),
           st.fractions(min_value=-4, max_value=4, max_denominator=16))
    def test_threshold_is_affine_invariant(self, t, conform, scale, shift):
        prior = BinaryPrior(F(1, 25))  # t has a denominator of at most 24
        u = conformist_table(t) if conform else contrarian_table(t)
        moved = table_utility(*(scale * x + shift for x in
                                (u.u00, u.u10, u.u01, u.u11)))
        assert classify(moved, prior).threshold == classify(u, prior).threshold == t

    @given(interior, interior, st.booleans())
    def test_classification_is_affine_invariant(self, t, p, conform):
        assume(t != p)
        u = conformist_table(t) if conform else contrarian_table(t)
        moved = table_utility(*(3 * x + F(1, 7) for x in
                                (u.u00, u.u10, u.u01, u.u11)))
        assert classify(moved, BinaryPrior(p)) == classify(u, BinaryPrior(p))

    @given(interior, st.booleans(), st.booleans(), st.booleans())
    def test_relabeling_is_an_involution(self, t, conform, fa, fs):
        u = conformist_table(t) if conform else contrarian_table(t)
        once = relabel_utility(u, fa, fs)
        assert relabel_utility(once, fa, fs) == u
        via_action_first = relabel_utility(relabel_utility(u, fa, False), False, fs)
        via_state_first = relabel_utility(relabel_utility(u, False, fs), fa, False)
        assert via_action_first == via_state_first


class TestValueMonotonicity:
    @given(st.fractions(min_value=F(1, 24), max_value=F(11, 24), max_denominator=24),
           st.fractions(min_value=F(12, 24), max_value=F(23, 24), max_denominator=24),
           st.data())
    def test_receiver_gains_from_refinement(self, w_r, p, data):
        outer = data.draw(outcome_for(p))
        inner = data.draw(outcome_for(p))
        assume(is_mpc(inner, outer))
        receiver = conformist_table(w_r)

        def acts(q):
            return q > w_r

        assert split_value(receiver, outer, acts) >= split_value(receiver, inner, acts)

    @given(interior,
           st.fractions(min_value=0, max_value=F(1, 2), max_denominator=48),
           st.fractions(min_value=0, max_value=F(1, 2), max_denominator=48))
    def test_first_mover_curve_is_unimodal(self, crossing, a, b):
        u1 = linear_utility(1, -crossing)
        lo, hi = min(a, b), max(a, b)
        assume(lo != hi)
        peak = crossing / 2
        if hi <= peak:
            assert player1_value(lo, u1) < player1_value(hi, u1)
        elif lo >= peak:
            assert player1_value(lo, u1) > player1_value(hi, u1)
        else:
            assert player1_value(peak, u1) >= max(
                player1_value(lo, u1), player1_value(hi, u1)
            )

    @given(st.fractions(min_value=F(1, 48), max_value=F(23, 48), max_denominator=48))
    def test_first_mover_curve_peaks_at_half_the_crossing(self, crossing):
        u1 = linear_utility(1, -crossing)
        peak = crossing / 2
        step = F(1, 97)
        for probe in (peak - step, peak + step):
            if 0 <= probe <= F(1, 2):
                assert player1_value(peak, u1) > player1_value(probe, u1)


class TestBoundaryContinuity:
    """The interior rule and the far-conformist rule meet without a jump.

    Family: senders with crossings (1/5, tb, 3/25), receiver at 9/20.  The
    low mean follows tb - 1/2 until tb reaches the pivot's crossing plus a
    half, then pins at the pivot.  The trace label flips c -> b there.
    """

    W_R = F(45, 100)
    JUNCTION = F(62, 100)

    def family(self, tb):
        senders = [AgentSpec(linear_utility(1, -t)) for t in (F(2, 10), tb, F(12, 100))]
        return hierarchy(senders, AgentSpec(linear_utility(1, -self.W_R)), UniformPrior())

    @pytest.mark.parametrize("eps", [F(1, 1000), F(1, 10_000), F(1, 100_000)])
    def test_low_mean_is_continuous_across_the_junction(self, eps):
        left = solve_general_uniform(self.family(self.JUNCTION - eps))
        at = solve_general_uniform(self.family(self.JUNCTION))
        right = solve_general_uniform(self.family(self.JUNCTION + eps))
        assert left.condition_trace == "c" and at.condition_trace == "c"
        assert right.condition_trace == "b"
        assert at.support[0] == right.support[0] == F(12, 100)
        assert at.support[0] - left.support[0] == eps

    def test_far_side_stays_pinned(self):
        for tb in (F(63, 100), F(3, 4), F(19, 20)):
            report = solve_general_uniform(self.family(tb))
            assert report.condition_trace == "b"
            assert report.support == (F(12, 100), F(62, 100))


GRID_DENOM = 20


def random_binary_chain(rng: random.Random):
    pool = [F(k, GRID_DENOM) for k in range(1, GRID_DENOM)]
    rng.shuffle(pool)
    p, w_r, *rest = pool
    n = rng.randint(1, 3)
    senders = []
    for t in rest[:n]:
        table = conformist_table(t) if rng.random() < 0.6 else contrarian_table(t)
        senders.append(AgentSpec(table))
    return hierarchy(senders, AgentSpec(conformist_table(w_r)), BinaryPrior(p))


class TestGridRefinement:
    def test_closed_form_support_survives_every_refinement(self):
        rng = random.Random(412)
        checked = 0
        while checked < 12:
            h = random_binary_chain(rng)
            report = solve_binary(h)
            for resolution in (GRID_DENOM, 2 * GRID_DENOM, 5 * GRID_DENOM):
                grid = build_grid(h.prior, resolution)
                supports = [o.support() for o in solve_spe_grid(h, grid)]
                assert report.support in supports, (h, resolution, supports)
            checked += 1

    def test_partial_reports_survive_refinement_too(self):
        rng = random.Random(97)
        seen_partial = 0
        for _ in range(200):
            h = random_binary_chain(rng)
            report = solve_binary(h)
            if report.kind is not EquilibriumKind.PARTIAL:
                continue
            seen_partial += 1
            for resolution in (GRID_DENOM, 5 * GRID_DENOM):
                grid = build_grid(h.prior, resolution)
                assert report.support in [o.support() for o in solve_spe_grid(h, grid)]
            if seen_partial >= 6:
                break
        assert seen_partial >= 6


class TestLevelSets:
    def chains(self):
        rng = random.Random(2024)
        for _ in range(10):
            yield random_binary_chain(rng)

    def test_levels_nest_toward_the_front(self):
        for h in self.chains():
            grid = build_grid(h.prior, GRID_DENOM)
            chain = ic_chain(h, grid)
            keys = sorted(chain.levels)
            assert keys == list(range(2, h.n + 1))
            for lo, hi in zip(keys, keys[1:]):
                assert set(chain.levels[lo]) <= set(chain.levels[hi])

    def test_silence_survives_every_level(self):
        for h in self.chains():
            grid = build_grid(h.prior, GRID_DENOM)
            chain = ic_chain(h, grid)
            silence = no_information(h.prior)
            for level in chain.levels.values():
                assert silence in level
            assert silence in chain.garble_proof

    def test_garble_proof_set_is_the_stricter_one(self):
        for h in self.chains():
            grid = build_grid(h.prior, GRID_DENOM)
            chain = ic_chain(h, grid)
            if chain.levels:
                front = set(chain.levels[2])
                assert set(chain.garble_proof) <= front

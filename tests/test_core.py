"""Outcome algebra, experiments, and the contraction order."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

import infochain
from infochain import (
    BinaryPrior,
    DimensionMismatch,
    OrderViolation,
    PriorMismatch,
    UniformPrior,
    ZeroProbabilitySignal,
    as_ratio,
    compose,
    experiment,
    experiment_of_outcome,
    full_information,
    identity_experiment,
    is_mpc,
    make_outcome,
    mpc_feasible_uniform,
    no_information,
    outcome_of_experiment,
)


P = BinaryPrior(F(3, 5))


class TestAsRatio:
    def test_fraction_passthrough(self):
        assert as_ratio(F(1, 3)) == F(1, 3)

    def test_float_uses_decimal_reading(self):
        assert as_ratio(0.1) == F(1, 10)
        assert as_ratio(0.25) == F(1, 4)

    def test_strings(self):
        assert as_ratio("1/3") == F(1, 3)
        assert as_ratio("0.25") == F(1, 4)
        assert as_ratio("2e-3") == F(1, 500)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_ratio(True)


class TestOutcomes:
    def test_weights(self):
        out = make_outcome(F(1, 4), 1, P)
        assert out.w0 == F(8, 15)
        assert out.w1 == F(7, 15)
        assert out.w0 + out.w1 == 1
        assert out.w0 * out.q0 + out.w1 * out.q1 == P.p

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            make_outcome(F(7, 10), 1, P)  # q0 above the prior
        with pytest.raises(OrderViolation):
            make_outcome(F(1, 4), F(1, 2), P)  # q1 below the prior

    def test_degenerate_collapse(self):
        out = make_outcome(P.p, F(9, 10), P)
        assert out.degenerate
        assert out.support() == (P.p,)
        assert out == no_information(P)

    def test_full_information(self):
        out = full_information(P)
        assert out.support() == (F(0), F(1))
        assert out.w1 == P.p

    def test_mpc_is_interval_containment(self):
        wide = make_outcome(F(1, 10), 1, P)
        narrow = make_outcome(F(1, 4), F(4, 5), P)
        assert is_mpc(narrow, wide)
        assert not is_mpc(wide, narrow)
        assert is_mpc(no_information(P), wide)
        assert is_mpc(wide, wide)

    def test_mpc_prior_mismatch(self):
        other = BinaryPrior(F(1, 2))
        with pytest.raises(PriorMismatch):
            is_mpc(no_information(other), full_information(P))


class TestExperiments:
    def test_posteriors_from_matrix(self):
        pi = experiment([[F(7, 8), F(1, 8)], [F(1, 4), F(3, 4)]])
        out = outcome_of_experiment(P, pi)
        assert (out.q0, out.q1) == (F(3, 10), F(9, 10))

    def test_round_trip_exact(self):
        out = make_outcome(F(1, 4), 1, P)
        assert outcome_of_experiment(P, experiment_of_outcome(out)) == out

    def test_degenerate_round_trip(self):
        out = no_information(P)
        assert outcome_of_experiment(P, experiment_of_outcome(out)) == out

    def test_identity_reveals(self):
        assert outcome_of_experiment(P, identity_experiment()) == full_information(P)

    def test_compose_with_identity_is_noop(self):
        pi = experiment([[F(7, 8), F(1, 8)], [F(1, 4), F(3, 4)]])
        assert compose(pi, identity_experiment()).rows == pi.rows

    def test_compose_garbles(self):
        pi = identity_experiment()
        blur = experiment([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        out = outcome_of_experiment(P, compose(pi, blur))
        assert out.degenerate

    def test_dead_signal_rejected(self):
        pi = experiment([[1, 0], [1, 0]])
        with pytest.raises(ZeroProbabilitySignal):
            outcome_of_experiment(P, pi)

    @pytest.mark.parametrize("rows", [
        [],
        [[F(1, 2), F(1, 2)], [1]],
        [[1, 0], [F(1, 3), F(1, 3), F(1, 3)]],
    ], ids=["empty", "ragged", "ragged-wide"])
    def test_malformed_shape_rejected(self, rows):
        with pytest.raises(DimensionMismatch):
            experiment(rows)

    def test_row_sum_validated(self):
        with pytest.raises(Exception):
            experiment([[F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)]])
        # exact rows get no slack: 10^-13 off is off
        with pytest.raises(OrderViolation, match="does not sum to 1"):
            experiment([[F(1, 2), F(1, 2) + F(1, 10**13)], [F(1, 3), F(2, 3)]])


class TestUniformFeasibility:
    def test_half_spread_at_half(self):
        assert mpc_feasible_uniform(F(1, 4), F(3, 4))
        assert mpc_feasible_uniform(F(0), F(1, 2))
        assert mpc_feasible_uniform(F(1, 2), F(1))

    def test_mean_must_be_straddled(self):
        assert not mpc_feasible_uniform(F(1, 10), F(2, 5))
        assert not mpc_feasible_uniform(F(3, 5), F(9, 10))

    def test_spread_capped(self):
        assert not mpc_feasible_uniform(F(1, 10), F(9, 10))

    def test_uniform_prior_mean(self):
        assert UniformPrior().mean == F(1, 2)


def test_all_leaves_out_the_future_import():
    assert "annotations" not in infochain.__all__

"""Closed-form equilibrium for binary-state chains.

The solver normalizes the receiver into the canonical frame (conformist,
threshold below the prior), reads the equilibrium off the pivotal structure,
and maps the support back to the original labels:

* everything collapses to no information when some intermediary prefers the
  receiver's default action outright, or when the best-aligned conformist
  sits in front of the last blocker;
* all-conformist chains reveal everything;
* otherwise the chain splits exactly at the best-aligned conformist's
  threshold.

Expected utilities use the two-branch posterior-weighting formula (split
outcomes below the receiver's threshold versus the constant-action plateau),
which the brute-force engine re-derives independently from raw definitions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import BinaryOutcome, PriorMismatch, make_outcome
from .agents import (
    EquilibriumKind,
    ExtremistReceiver,
    HierarchySpec,
    Kind,
    NoInfoCause,
    PivotalReport,
    Relabeling,
    TableUtility,
    ValidationError,
    canonicalize_receiver,
    pivotal_rule,
    receiver_class,
    sender_classes,
)


@dataclass(eq=False)
class EquilibriumReport:
    """Solved equilibrium, reported in the hierarchy's original labels.

    ``support`` and ``outcome`` are original-frame; ``witness`` (present only
    for inefficient verdicts) is the canonical-frame interval of low-cell
    posteriors that every player weakly prefers — interpret it through
    ``relabeling``.  ``values`` aligns with ``labels`` (senders then receiver).
    """

    kind: EquilibriumKind
    support: tuple[Fraction, ...]
    outcome: BinaryOutcome
    pivotal: Optional[PivotalReport]
    efficient: bool
    witness: Optional[tuple[Fraction, Fraction]]
    labels: tuple[str, ...]
    values: tuple[Fraction, ...]
    no_info_cause: Optional[NoInfoCause]
    relabeling: Relabeling
    tie_action: int

    def value_of(self, label: str) -> Fraction:
        return self.values[self.labels.index(label)]


# ---------------------------------------------------------------------------
# expected utility calculus (canonical frame)
# ---------------------------------------------------------------------------

def expected_value(
    agent: TableUtility,
    out: BinaryOutcome,
    receiver_threshold: Fraction,
    tie_action: int = 0,
) -> Fraction:
    """Expected utility of a table agent in the canonical frame, where the
    receiver plays 1 above her threshold and at the prior.

    A split with its low cell under the threshold mixes both actions;
    anything else earns the constant-action (no-information) value.
    """
    informative = (not out.degenerate) and (
        out.q0 < receiver_threshold
        or (out.q0 == receiver_threshold and tie_action == 0)
    )
    if informative:
        return out.w1 * (out.q1 * agent.u11 + (1 - out.q1) * agent.u01) + out.w0 * (
            out.q0 * agent.u10 + (1 - out.q0) * agent.u00
        )
    return out.p * agent.u11 + (1 - out.p) * agent.u01


def compare_outcomes(
    agent: TableUtility,
    out_a: BinaryOutcome,
    out_b: BinaryOutcome,
    receiver_threshold: Fraction,
    tie_action: int = 0,
) -> int:
    """Sign of the agent's preference between two outcomes: +1 if out_a is
    strictly better, -1 if strictly worse, 0 on an exact tie (so callers can
    apply informativeness tie-breaking)."""
    if out_a.p != out_b.p:
        raise PriorMismatch(f"outcomes priors differ: {out_a.p} vs {out_b.p}")
    va = expected_value(agent, out_a, receiver_threshold, tie_action)
    vb = expected_value(agent, out_b, receiver_threshold, tie_action)
    if va > vb:
        return 1
    if va < vb:
        return -1
    return 0


def prefers(
    agent: TableUtility,
    out_a: BinaryOutcome,
    out_b: BinaryOutcome,
    receiver_threshold: Fraction,
    tie_action: int = 0,
) -> bool:
    """Strict preference for out_a over out_b."""
    return compare_outcomes(agent, out_a, out_b, receiver_threshold, tie_action) == 1


# ---------------------------------------------------------------------------
# the equilibrium decision
# ---------------------------------------------------------------------------

def _tie_action(canon: HierarchySpec, mu_r: Fraction) -> int:
    g = canon.senders[-1].utility.gain_of_action1(mu_r)
    return 1 if g > 0 else 0


def solve_binary(h: HierarchySpec) -> EquilibriumReport:
    """Closed-form equilibrium of a binary-state chain.

    An extremist receiver never reacts, so nothing a sender transmits changes
    her action; the outcome is reported as silence, cause opposed.
    """
    if not h.is_binary:
        raise ValidationError("solve_binary needs a binary-state hierarchy")
    labels = h.labels
    try:
        canon, rel = canonicalize_receiver(h)
    except ExtremistReceiver:
        p = h.prior.p
        action = 1 if receiver_class(h).kind is Kind.ONE_EXTREMIST else 0
        values = tuple(
            p * spec.utility.value(1, action) + (1 - p) * spec.utility.value(0, action)
            for spec in (*h.senders, h.receiver)
        )
        return EquilibriumReport(
            kind=EquilibriumKind.NO_INFO,
            support=(p,),
            outcome=make_outcome(p, p, h.prior),
            pivotal=None,
            efficient=True,
            witness=None,
            labels=labels,
            values=values,
            no_info_cause=NoInfoCause.OPPOSED,
            relabeling=Relabeling(),
            tie_action=action,
        )

    p = canon.prior.p
    mu_r = receiver_class(canon).threshold
    pivotal, kind, cause, split = pivotal_rule(sender_classes(canon), mu_r)
    tie = _tie_action(canon, mu_r)

    if kind is EquilibriumKind.FULL_INFO:
        canon_outcome = make_outcome(0, 1, canon.prior)
    elif kind is EquilibriumKind.PARTIAL:
        canon_outcome = make_outcome(split, 1, canon.prior)
    else:
        canon_outcome = make_outcome(p, p, canon.prior)

    values = tuple(
        expected_value(spec.utility, canon_outcome, mu_r, tie)
        for spec in (*canon.senders, canon.receiver)
    )

    support = rel.support_back(canon_outcome.support())
    outcome = make_outcome(support[0], support[-1], h.prior)
    efficient = cause is not NoInfoCause.ORDERING
    witness = None
    if not efficient:
        witness = (pivotal.d_star_threshold, pivotal.a_star_threshold)
    return EquilibriumReport(
        kind=kind,
        support=support,
        outcome=outcome,
        pivotal=pivotal,
        efficient=efficient,
        witness=witness,
        labels=labels,
        values=values,
        no_info_cause=cause,
        relabeling=rel,
        tie_action=tie,
    )

"""Closed-form equilibrium for binary-state chains.

The solver normalizes the receiver into the canonical frame (conformist,
threshold below the prior), reads the equilibrium off the pivotal structure,
and maps the support back to the original labels:

* everything collapses to no information when some intermediary favours the
  receiver's default action outright, or when the best-aligned conformist
  sits in front of the last blocker;
* all-conformist chains reveal everything;
* otherwise the chain splits exactly at the best-aligned conformist's
  threshold.

Each player's value is `split_value` of the outcome, which the brute-force
engine re-derives independently from raw definitions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import BinaryOutcome, make_outcome
from .agents import (
    EquilibriumKind,
    ExtremistReceiver,
    HierarchySpec,
    Kind,
    NoInfoCause,
    PivotalReport,
    Relabeling,
    ValidationError,
    canonicalize_receiver,
    pivotal_rule,
    receiver_class,
    sender_classes,
    split_value,
)


@dataclass(eq=False)
class EquilibriumReport:
    """Solved equilibrium, reported in the hierarchy's original labels.

    ``support`` and ``outcome`` are original-frame; ``witness`` (present only
    for inefficient verdicts) is the canonical-frame interval of low-cell
    posteriors that every player weakly favours — interpret it through
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
        silence = make_outcome(p, p, h.prior)
        values = tuple(
            split_value(spec.utility, silence, lambda q: action)
            for spec in (*h.senders, h.receiver)
        )
        return EquilibriumReport(
            kind=EquilibriumKind.NO_INFO,
            support=(p,),
            outcome=silence,
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

    def act(q: Fraction) -> bool:
        return q > mu_r or (q == mu_r and tie == 1)

    values = tuple(
        split_value(spec.utility, canon_outcome, act)
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

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

The receiver's action, her tie at the threshold included, is
`agents.receiver_rule`, and each player's value is `agents.seat_values` of the
outcome; the brute-force engine re-derives both independently from raw
definitions.
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
    NoInfoCause,
    PivotalReport,
    Relabeling,
    ValidationError,
    canonicalize_receiver,
    pivotal_rule,
    receiver_class,
    receiver_rule,
    seat_values,
    sender_classes,
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

def solve_binary(h: HierarchySpec) -> EquilibriumReport:
    """Closed-form equilibrium of a binary-state chain.

    An extremist receiver never reacts, so nothing a sender transmits changes
    her action; the outcome is reported as silence, cause opposed.
    ``tie_action`` is the receiver's action under `receiver_rule` at her
    threshold, or at the prior for an extremist receiver.
    """
    if not h.is_binary:
        raise ValidationError("solve_binary needs a binary-state hierarchy")
    try:
        canon, rel = canonicalize_receiver(h)
    except ExtremistReceiver:
        canon, rel, mu_r = h, Relabeling(), h.prior.p
        pivotal, kind, cause = None, EquilibriumKind.NO_INFO, NoInfoCause.OPPOSED
    else:
        mu_r = receiver_class(canon).threshold
        pivotal, kind, cause, split = pivotal_rule(sender_classes(canon), mu_r)
    p = canon.prior.p

    if kind is EquilibriumKind.FULL_INFO:
        canon_outcome = make_outcome(0, 1, canon.prior)
    elif kind is EquilibriumKind.PARTIAL:
        canon_outcome = make_outcome(split, 1, canon.prior)
    else:
        canon_outcome = make_outcome(p, p, canon.prior)

    support = rel.support_back(canon_outcome.support())
    outcome = make_outcome(support[0], support[-1], h.prior)
    efficient = cause is not NoInfoCause.ORDERING
    witness = None if efficient else (pivotal.d_star_threshold, pivotal.a_star_threshold)
    return EquilibriumReport(
        kind=kind,
        support=support,
        outcome=outcome,
        pivotal=pivotal,
        efficient=efficient,
        witness=witness,
        labels=h.labels,
        values=seat_values(canon, canon_outcome),
        no_info_cause=cause,
        relabeling=rel,
        tie_action=int(receiver_rule(canon)(mu_r)),
    )

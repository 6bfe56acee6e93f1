"""Receiver-side chain surgery: where to append an extra intermediary.

A receiver stuck with a garbled or silent chain can sometimes fix it by
hiring one more intermediary — same kind and bias direction as himself —
seated at the end of the chain (right before the receiver).  This module
computes the receiver-optimal such appointment:

* binary-state chains: a conformist whose threshold lands strictly between
  the strongest blocker and the pivotal conformist re-anchors the equilibrium
  split at its own, more informative, threshold;
* uniform-state chains: a conformist biased toward the receiver's default
  action pulls the interval cut down toward the receiver's ideal, or one
  biased the other way pushes it up; a pair of them pins the cut exactly.

Every recommendation is verified by re-solving the extended chain; when the
re-solve does not strictly raise the receiver's expected utility the module
raises NoImprovement instead of recommending decoration.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import HALF, ChainError, NumberLike, as_ratio
from .agents import (
    AgentSpec,
    HierarchySpec,
    LinearUtility,
    PivotalReport,
    Relabeling,
    Utility,
    conformist_table,
    hierarchy,
    pivotal_general,
    relabel_utility,
)
from .binary_solver import EquilibriumReport, solve_binary
from .general_solver import GeneralEquilibriumReport, GeneralKind, solve_general_uniform


class NoImprovement(ChainError):
    """No appended intermediary can raise the receiver's expected utility."""


#: which appointment rule produced the recommendation
RULE_BRIDGE = "bridge-blocker-gap"
RULE_TIGHTEN = "tighten-pivot"
RULE_ANCHOR = "anchor-high-cell"
RULE_PIN = "pin-both-sides"

#: machine-readable hint attached to open-interval recommendations
GAIN_INCREASES_WITH_BIAS = "receiver-gain-increases-with-vp-bias"

Report = Union[EquilibriumReport, GeneralEquilibriumReport]


@dataclass(frozen=True)
class VpRecommendation:
    """A verified appointment: the agent(s) to append and what they buy.

    ``specs`` are original-frame utilities ready to append after the last
    sender.  ``interval`` (binary rule only) is the canonical-frame open
    interval of thresholds that all work, reported because the rule's optimum
    is a supremum, not a maximum: inside the interval, the more biased the
    appointee the better (see ``monotonicity``); interpret the interval
    through the before-report's relabeling.
    """

    specs: tuple[AgentSpec, ...]
    rule_fired: str
    before: Report
    after: Report
    receiver_gain: Fraction
    interval: Optional[tuple[Fraction, Fraction]] = None
    monotonicity: Optional[str] = None


def _append(h: HierarchySpec, specs: tuple[AgentSpec, ...]) -> HierarchySpec:
    # appointments may duplicate an existing threshold on purpose; position
    # breaks those ties, so validation runs relaxed
    return hierarchy([*h.senders, *specs], h.receiver, h.prior, strict=False)


def _appointee(canonical: Utility, rel: Relabeling) -> AgentSpec:
    """The appointee whose utility is ``canonical`` in the chain's canonical
    frame, written in the chain's own labels."""
    return AgentSpec(
        utility=relabel_utility(canonical, rel.flip_action, rel.flip_state),
        label="vp",
    )


def _close(
    before: Report,
    after: Report,
    specs: tuple[AgentSpec, ...],
    rule: str,
    interval: Optional[tuple[Fraction, Fraction]] = None,
    monotonicity: Optional[str] = None,
) -> VpRecommendation:
    """The recommendation verified by the re-solve ``after``; NoImprovement
    unless it strictly raises the receiver's expected utility."""
    gain = after.values[-1] - before.values[-1]
    if gain <= 0:
        whom = "an appointee" if len(specs) == 1 else "appointees"
        raise NoImprovement(f"appending {whom} cannot raise the receiver's value here")
    return VpRecommendation(specs, rule, before, after, gain, interval, monotonicity)


# ---------------------------------------------------------------------------
# binary-state chains
# ---------------------------------------------------------------------------

def optimal_vp_binary(
    h: HierarchySpec, delta: NumberLike = Fraction(1, 10)
) -> VpRecommendation:
    """Receiver-optimal single appointment for a binary-state chain.

    The workable thresholds form the canonical-frame open interval between
    the strongest surviving blocker and the pivotal conformist; the receiver's
    gain grows as the appointee's threshold approaches the blocker end, which
    is never attained.  ``delta`` picks the recommended point as a fraction of
    the interval measured from the blocker end.  The interval is never empty:
    `pivotal_rule` puts the blocker end strictly below the pivot's threshold,
    or at 0.

    Raises NoImprovement when the chain already attains the receiver's
    supremum (full revelation) or when its silence is structural (an opposed
    intermediary, or a blocker tolerating only less informative splits than
    the pivot's).
    """
    delta = as_ratio(delta)
    if not 0 < delta < 1:
        raise ChainError(f"delta must sit strictly inside (0, 1), got {delta}")
    before = solve_binary(h)
    if before.pivotal is None:
        raise NoImprovement("the receiver ignores information; nothing to gain")
    lo = before.pivotal.d_star_threshold
    hi = before.pivotal.a_star_threshold
    vp = _appointee(conformist_table(lo + delta * (hi - lo)), before.relabeling)
    after = solve_binary(_append(h, (vp,)))
    return _close(before, after, (vp,), RULE_BRIDGE, (lo, hi), GAIN_INCREASES_WITH_BIAS)


# ---------------------------------------------------------------------------
# uniform-state chains
# ---------------------------------------------------------------------------

def _canonical_low_mean(report: GeneralEquilibriumReport) -> Fraction:
    return min(report.relabeling.support_back(report.support))


def _general_templates(
    h: HierarchySpec,
) -> tuple[GeneralEquilibriumReport, PivotalReport, Fraction, Fraction, Fraction]:
    """The incumbent chain's report and the canonical ingredients for
    appointments: (pivotal report, receiver crossing, single-appointee
    toward-1 crossing, toward-0 crossing).  A state flip reflects the
    receiver's crossing through 1/2; an action flip keeps it.  A chain with
    no conformist sender transmits the cut pinned at the receiver's
    crossing, which then stands in for the pivot's: the pivotal report is
    that of the chain with a conformist appended there.

    Raises NoImprovement when the incumbent is silent with no conformist
    anywhere: an opposed intermediary is already in place and an appointee
    cannot unseat it."""
    before = solve_general_uniform(h)
    piv = before.pivotal
    if piv is None and before.kind is GeneralKind.NO_INFO:
        raise NoImprovement("structurally opposed chain; appending cannot help")
    w_r = h.receiver.utility.crossing
    if before.relabeling.flip_state:
        w_r = 1 - w_r
    if piv is None:
        stand_in = _appointee(LinearUtility(Fraction(1), -w_r), before.relabeling)
        piv = pivotal_general(_append(h, (stand_in,)))
    w_p = piv.p_threshold
    # the downward aim folds in a contrarian first mover: pushing the cut
    # below her own crossing would leave her preferring the cap itself
    toward1 = min(w_p, max(w_r / 2, piv.d_star_general))
    toward0 = min(w_r / 2, w_p) + HALF
    return before, piv, w_r, toward1, toward0


def optimal_vp_general(h: HierarchySpec) -> VpRecommendation:
    """Receiver-optimal single appointment for a uniform-state chain.

    If the equilibrium cut sits above the receiver's ideal (or exactly at the
    pivot), a conformist biased toward the receiver's default action becomes
    the new pivot and drags the cut down (rule "tighten-pivot").  If the cut
    sits below the ideal, a conformist biased the other way anchors the high
    cell and pushes the cut up (rule "anchor-high-cell").  Verified by
    re-solving; structural silence raises NoImprovement.
    """
    before, piv, w_r, toward1, toward0 = _general_templates(h)
    m0 = _canonical_low_mean(before)
    if m0 > w_r / 2 or m0 == piv.p_threshold:
        rule, t = RULE_TIGHTEN, toward1
    else:
        rule, t = RULE_ANCHOR, toward0
    vp = _appointee(LinearUtility(Fraction(1), -t), before.relabeling)
    after = solve_general_uniform(_append(h, (vp,)))
    return _close(before, after, (vp,), rule)


def optimal_two_vps(h: HierarchySpec) -> VpRecommendation:
    """Receiver-optimal pair of appointments for a uniform-state chain.

    One appointee biased toward the receiver's default action caps the cut
    from above; one biased the other way props it from below; together they
    pin the cut at the best level the incumbent chain tolerates.  The solve
    confirms that the two may be appended in either order and that a third
    copy of either template buys nothing further.
    """
    before, _, _, toward1, toward0 = _general_templates(h)
    vp_down = _appointee(LinearUtility(Fraction(1), -toward1), before.relabeling)
    vp_up = _appointee(LinearUtility(Fraction(1), -toward0), before.relabeling)
    after = solve_general_uniform(_append(h, (vp_down, vp_up)))
    swapped = solve_general_uniform(_append(h, (vp_up, vp_down)))
    if after.support != swapped.support:
        raise ChainError(
            f"appointment order changed the equilibrium: {after.support} "
            f"vs {swapped.support}"
        )
    for extra in (vp_down, vp_up):
        third = solve_general_uniform(_append(h, (vp_down, vp_up, extra)))
        if third.values[-1] != after.values[-1]:
            raise ChainError("a third appointee changed the receiver's value")
    return _close(before, after, (vp_down, vp_up), RULE_PIN)

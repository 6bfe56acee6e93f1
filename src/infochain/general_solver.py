"""Closed-form equilibrium for the continuous-state game.

States are uniform on [0,1], every agent's action-1 premium is linear in the
state, player 1's action-0 payoff is identically zero, and the receiver reacts
to the posterior mean.  Equilibrium play is an interval cut by player 1
(posterior means {m0, m0 + 1/2}) passed intact down the chain, so the whole
game reduces to placing m0:

* a companion two-state game built from the agents' indifference means decides
  whether anything can flow at all;
* the most 1-biased conformist anywhere in the chain (the pivot) caps m0 from
  above;
* a 0-biased conformist intermediary far from the pivot forces m0 upward, or,
  beyond distance 1/2, kills transmission entirely;
* within those constraints player 1 parks m0 at her own stationary point;
* the receiver's indifference mean caps m0: with no conformist sender below
  it, the cut is pinned there.

An extremist receiver never reacts, so every split is worth silence to every
seat (Kamenica & Gentzkow) and the solver answers silence, as `solve_binary`
does.  The receiver's action, tie included, is `agents.receiver_rule`, and
every player's value is `agents.seat_values` of the delivered means.

Supports here are posterior *means*, not posteriors.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import (
    HALF,
    BinaryOutcome,
    ChainError,
    NumberLike,
    OrderViolation,
    UniformPrior,
    as_ratio,
    make_outcome,
    mpc_feasible_uniform,
)
from .agents import (
    EquilibriumKind,
    ExtremistReceiver,
    HierarchySpec,
    Kind,
    LinearUtility,
    NoConformist,
    NoInfoCause as BinaryCause,
    PivotalReport,
    Relabeling,
    ValidationError,
    canonicalize_receiver,
    classify_linear,
    pivotal_rule,
    receiver_class,
    receiver_rule,
    reclassify_under_support,
    seat_values,
    sender_classes,
    split_value,
    with_general_pivots,
)


class NotCovered(ChainError):
    """Once raised where the closed form did not extend.  Nothing raises it
    now: `solve_general_uniform` answers every chain.  It stays exported for
    code that still catches it."""


class GeneralKind(Enum):
    NO_INFO = "no-info"
    SUPPORTED = "supported"


# condition_trace tokens name the gate that decided the outcome: the four
# no-information causes, then the four supported cases
TRACE_OPPOSED = "1a"
TRACE_BLOCKER_ABOVE_PIVOT = "1b"
TRACE_ORDERING = "1c"
TRACE_DISTANT_ZERO_BIAS = "2"
TRACE_MIXED = "a"
TRACE_FAR_CONFORMISTS = "b"
TRACE_INTERIOR = "c"
TRACE_RECEIVER_PINNED = "r"

_CAUSE_TO_TRACE = {
    BinaryCause.OPPOSED: TRACE_OPPOSED,
    BinaryCause.BLOCKER_ABOVE_PIVOT: TRACE_BLOCKER_ABOVE_PIVOT,
    BinaryCause.ORDERING: TRACE_ORDERING,
}

#: traces whose no-information verdict some feasible split would Pareto-improve
INEFFICIENT_TRACES = (TRACE_ORDERING, TRACE_DISTANT_ZERO_BIAS)


@dataclass(frozen=True)
class GeneralEquilibriumReport:
    """Solved equilibrium of the uniform-state game, in original labels.

    ``support`` holds posterior means ((1/2,) when nothing flows); ``cut`` is
    the physical split point of [0,1], twice the low mean.  ``condition_trace``
    is "1a"/"1b"/"1c"/"2" for the no-information causes and "a"/"b"/"c"/"r"
    for the supported cases (non-conformist senders present / all conformists
    with a distant 0-biased intermediary / all conformists, interior optimum /
    the cut pinned at the receiver's indifference mean).
    ``values`` aligns with ``labels`` (senders first, receiver last).
    """

    kind: GeneralKind
    support: tuple[Fraction, ...]
    cut: Optional[Fraction]
    condition_trace: str
    pivotal: Optional[PivotalReport]
    efficient: bool
    labels: tuple[str, ...]
    values: tuple[Fraction, ...]
    relabeling: Relabeling

    def value_of(self, label: str) -> Fraction:
        return self.values[self.labels.index(label)]


def _require_uniform_linear(h: HierarchySpec) -> None:
    if not isinstance(h.prior, UniformPrior):
        raise ValidationError("this solver needs the uniform continuous prior")
    for spec in (*h.senders, h.receiver):
        if not isinstance(spec.utility, LinearUtility):
            raise ValidationError("this solver needs linear action premia throughout")


# ---------------------------------------------------------------------------
# induced subgame: intermediaries facing a fixed pair of means
# ---------------------------------------------------------------------------

def solve_subgame_given_support(
    h: HierarchySpec, m0: NumberLike, m1: NumberLike
) -> Optional[BinaryOutcome]:
    """What reaches the receiver when player 1 induces means (m0, m1).

    Returns the outcome over mean-coordinates (around the prior mean 1/2):
    the pair itself when every reclassified intermediary plays along, a pair
    re-anchored at the best surviving conformist's indifference mean when the
    0-extremists it outranks sit earlier in the chain, and None when play
    collapses to no information.  The receiver must be a conformist biased
    toward action 1 in the original labels (canonicalize first if not).
    The receiver's action is `receiver_rule`: at m0 = w_r, her indifference
    mean, she acts on the low cell exactly when the last sender gains from
    action 1 there, and then acts on both cells: no information.
    """
    _require_uniform_linear(h)
    m0, m1 = as_ratio(m0), as_ratio(m1)
    if m0 >= m1:
        raise OrderViolation(f"need m0 < m1, got ({m0}, {m1})")
    if not mpc_feasible_uniform(m0, m1):
        raise OrderViolation(f"({m0}, {m1}) is not inducible from the uniform prior")
    r_cls = receiver_class(h)
    if r_cls.kind is not Kind.CONFORMIST or r_cls.threshold >= HALF:
        raise ValidationError(
            "subgame analysis assumes a receiver conforming toward action 1; "
            "canonicalize the hierarchy first"
        )
    w_r = r_cls.threshold
    rule = receiver_rule(h)
    if rule(m0) or not rule(m1):
        return None  # the receiver cannot split on this range
    classes = [
        reclassify_under_support(classify_linear(s.utility), m0, m1)
        for s in h.senders[1:]
    ]
    _, kind, _, split = pivotal_rule(classes, (w_r - m0) / (m1 - m0))
    if kind is EquilibriumKind.NO_INFO:
        return None
    lo = split if kind is EquilibriumKind.PARTIAL else Fraction(0)
    d0 = m0 + lo * (m1 - m0)
    d1 = m1
    if not d0 < HALF < d1:
        return None  # all weight on one cell: no information after all
    return make_outcome(d0, d1, HALF)


# ---------------------------------------------------------------------------
# player 1's objective
# ---------------------------------------------------------------------------

def player1_value(m0: NumberLike, u1: LinearUtility) -> Fraction:
    """Player 1's expected premium from the pair {m0, m0 + 1/2} when the
    receiver acts only on the high cell: weight 2(1/2 - m0) on that cell times
    the premium at its mean.  Stationary at half player 1's indifference
    mean; raises OrderViolation unless 0 <= m0 <= 1/2."""
    m0 = as_ratio(m0)
    return split_value(u1, make_outcome(m0, m0 + HALF, HALF), lambda m: m > m0)


# ---------------------------------------------------------------------------
# the full solve
# ---------------------------------------------------------------------------

def _report(
    h: HierarchySpec,
    kind: GeneralKind,
    support: tuple[Fraction, ...],
    trace: str,
    pivotal: Optional[PivotalReport],
    rel: Relabeling,
) -> GeneralEquilibriumReport:
    out = make_outcome(support[0], support[-1], HALF)
    return GeneralEquilibriumReport(
        kind=kind,
        support=support,
        cut=None if len(support) == 1 else 2 * support[0],
        condition_trace=trace,
        pivotal=pivotal,
        efficient=trace not in INEFFICIENT_TRACES,
        labels=h.labels,
        values=seat_values(h, out),
        relabeling=rel,
    )


def solve_general_uniform(h: HierarchySpec) -> GeneralEquilibriumReport:
    """Closed-form equilibrium of the uniform-state linear chain.  It
    answers every chain.

    An extremist receiver gets silence, trace "1a", with no pivotal report
    and the identity relabeling.  Otherwise the chain's classes decide, in
    the canonical frame, with w_r the receiver's indifference mean and w_p
    the pivot's crossing.  A distant 0-biased conformist (B*_P more than 1/2
    past the pivot) silences the chain, trace "2", when w_p < w_r: the
    collapse needs a conformist below w_r.

    Where the pivot would place the low mean at or past w_r, or no sender is
    a conformist at all, the answer is the cut (w_r, w_r + 1/2), trace "r",
    pinned at the receiver's indifference mean as in one-sender persuasion
    (Kamenica & Gentzkow, 2011).  In each such chain no conformist sender
    sits below w_r: with one there, w_p < w_r bounds every low mean the
    pivot places.  A contrarian at or past w_r has already silenced the
    chain as "1a", so on [w_r, w_r + 1/2] `reclassify_under_support` leaves
    every intermediary a zero-extremist or a conformist at or past the
    receiver's subgame threshold 0.  Neither is ever pivotal, and
    `pivotal_rule` on the subgame passes the cut intact.  At w_r the last
    sender loses from action 1 (a conformist past w_r, a contrarian below
    it, or a zero-extremist), so `receiver_rule` sends the tie to action 0.
    Player 1 loses from action 1 there too, so the cut beats silence for
    her by -2 w_r g1(w_r) > 0, g1 being her gain.  That no other pair beats
    it is checked, not proved: criterion 10 requires the answer among
    `solve_general_grid`'s on 586 draws.

    Every placed cut must pass its induced subgame intact; a cut that does
    not raises ChainError, an internal fault.
    """
    _require_uniform_linear(h)
    try:
        canon, rel = canonicalize_receiver(h)
    except ExtremistReceiver:
        return _report(h, GeneralKind.NO_INFO, (HALF,), TRACE_OPPOSED, None, Relabeling())
    classes = sender_classes(canon)
    w_r = receiver_class(canon).threshold

    # The companion two-state game over the whole chain (each linear agent as
    # the table (0, 0, beta, alpha + beta), prior 1/2) has exactly these
    # classes, so its verdict is read off them without building it;
    # tests/test_general_solver.py::TestCompanionGames pins those classes.
    base, kind, cause, _ = pivotal_rule(classes, w_r)
    try:
        pivotal = with_general_pivots(base, classes, w_r)
    except NoConformist:
        pivotal = None
    if kind is EquilibriumKind.NO_INFO:
        trace = _CAUSE_TO_TRACE[cause]
        return _report(h, GeneralKind.NO_INFO, (HALF,), trace, pivotal, rel)
    # with no conformist anywhere, some sender is not one, and the mixed
    # case below places the low mean at w_r
    w_p = w_r if pivotal is None else pivotal.p_threshold
    if w_p < w_r and pivotal.b_star_p_threshold - w_p > HALF:
        return _report(
            h, GeneralKind.NO_INFO, (HALF,), TRACE_DISTANT_ZERO_BIAS, pivotal, rel
        )

    if any(c.kind is not Kind.CONFORMIST for c in classes):
        m0, trace = w_p, TRACE_MIXED
    elif pivotal.b_star_threshold - w_p > HALF:
        m0, trace = w_p, TRACE_FAR_CONFORMISTS
    else:
        stationary = classes[0].threshold / 2
        m0 = min(w_p, max(pivotal.b_star_threshold - HALF, stationary))
        trace = TRACE_INTERIOR
    if m0 >= w_r:
        m0, trace = w_r, TRACE_RECEIVER_PINNED

    delivered = solve_subgame_given_support(canon, m0, m0 + HALF)
    if delivered is None or delivered.support() != (m0, m0 + HALF):
        raise ChainError(
            f"the support ({m0}, {m0 + HALF}) did not survive the induced "
            f"subgame (delivered: {delivered})"
        )
    support = rel.support_back((m0, m0 + HALF))
    return _report(h, GeneralKind.SUPPORTED, support, trace, pivotal, rel)

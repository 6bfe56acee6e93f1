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
* within those constraints player 1 parks m0 at her own stationary point.

Supports here are posterior *means*, not posteriors; the binary machinery is
reused by mapping each linear agent onto an equivalent payoff table.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

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
    AgentSpec,
    BinaryPrior,
    EquilibriumKind,
    ExtremistReceiver,
    HierarchySpec,
    Kind,
    LinearUtility,
    NoConformist,
    NoInfoCause as BinaryCause,
    PivotalReport,
    Relabeling,
    TableUtility,
    ValidationError,
    canonicalize_receiver,
    classify_linear,
    pivotal_rule,
    receiver_class,
    reclassify_under_support,
    sender_classes,
    with_general_pivots,
)
from .binary_solver import solve_binary


class NotCovered(ChainError):
    """The closed form does not extend to this configuration; use the
    exhaustive grid search instead of a guess."""


class GeneralKind(Enum):
    NO_INFO = "no-info"
    SUPPORTED = "supported"


# condition_trace tokens name the gate that decided the outcome: the four
# no-information causes, then the three supported cases
TRACE_OPPOSED = "1a"
TRACE_BLOCKER_ABOVE_PIVOT = "1b"
TRACE_ORDERING = "1c"
TRACE_DISTANT_ZERO_BIAS = "2"
TRACE_MIXED = "a"
TRACE_FAR_CONFORMISTS = "b"
TRACE_INTERIOR = "c"

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
    is "1a"/"1b"/"1c"/"2" for the no-information causes and "a"/"b"/"c" for
    the supported cases (non-conformist senders present / all conformists with
    a distant 0-biased intermediary / all conformists, interior optimum).
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


# ---------------------------------------------------------------------------
# companion binary games
# ---------------------------------------------------------------------------

def _as_table(u: LinearUtility) -> TableUtility:
    """Equivalent two-state payoff table: state-1 premium alpha + beta,
    state-0 premium beta, action-0 payoffs zero.  Preserves the indifference
    point and the taxonomy slot exactly, extremists included."""
    zero = Fraction(0)
    return TableUtility(zero, zero, u.beta, u.alpha + u.beta)


def _tableized(h: HierarchySpec, senders: tuple[AgentSpec, ...]) -> HierarchySpec:
    receiver = AgentSpec(utility=_as_table(h.receiver.utility), label=h.receiver.label)
    return HierarchySpec(
        senders=tuple(
            AgentSpec(utility=_as_table(s.utility), label=s.label) for s in senders
        ),
        receiver=receiver,
        prior=BinaryPrior(HALF),
    )


def _require_uniform_linear(h: HierarchySpec) -> None:
    if not isinstance(h.prior, UniformPrior):
        raise ValidationError("this solver needs the uniform continuous prior")
    for spec in (*h.senders, h.receiver):
        if not isinstance(spec.utility, LinearUtility):
            raise ValidationError("this solver needs linear action premia throughout")


def reduced_binary_game(h: HierarchySpec) -> HierarchySpec:
    """Two-state companion game over the intermediaries (senders 2..n):
    indifference means become beliefs, the prior becomes 1/2."""
    _require_uniform_linear(h)
    if h.n < 2:
        raise ValidationError("no intermediaries to reduce")
    return _tableized(h, h.senders[1:])


def corresponding_binary_game(h: HierarchySpec) -> HierarchySpec:
    """Two-state companion game over the whole chain (senders 1..n)."""
    _require_uniform_linear(h)
    return _tableized(h, h.senders)


def no_info_reduction(h: HierarchySpec) -> bool:
    """True when the companion game over the whole chain transmits nothing,
    which carries over verbatim to the continuous game."""
    return solve_binary(corresponding_binary_game(h)).kind is EquilibriumKind.NO_INFO


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
    if not m0 < w_r < m1:
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
    mean."""
    m0 = as_ratio(m0)
    if not 0 <= m0 <= HALF:
        raise OrderViolation(f"m0 must lie in [0, 1/2], got {m0}")
    return 2 * (HALF - m0) * (u1.alpha * m0 + u1.alpha / 2 + u1.beta)


PairLike = Union[BinaryOutcome, "tuple[NumberLike, ...]"]


def _as_pair(out: PairLike) -> tuple[Fraction, Fraction]:
    if isinstance(out, BinaryOutcome):
        return (out.q0, out.q1)
    pts = tuple(as_ratio(x) for x in out)
    if len(pts) == 1:
        return (pts[0], pts[0])
    if len(pts) != 2 or pts[0] > pts[1]:
        raise OrderViolation(f"not a mean pair: {out!r}")
    return (pts[0], pts[1])


def _pair_value(u1: LinearUtility, pair: tuple[Fraction, Fraction], w_r: Fraction) -> Fraction:
    m0, m1 = pair
    if m0 >= w_r:  # receiver acts on both cells; plateau at the prior mean
        return u1.gain_of_action1(HALF)
    if m1 <= w_r:  # receiver never acts; the zero action-0 baseline remains
        return Fraction(0)
    w1 = (HALF - m0) / (m1 - m0)
    return w1 * u1.gain_of_action1(m1)


def player1_prefers(
    u1: LinearUtility, out_a: PairLike, out_b: PairLike, receiver_threshold: NumberLike
) -> bool:
    """Strict preference of player 1 between two mean-pair outcomes, with the
    receiver splitting at her indifference mean and the no-information plateau
    for pairs entirely at or past it."""
    w_r = as_ratio(receiver_threshold)
    return _pair_value(u1, _as_pair(out_a), w_r) > _pair_value(u1, _as_pair(out_b), w_r)


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
    # values in the original frame: each agent's premium accrues on the cells
    # where the original receiver strictly prefers action 1 (delivered means
    # never sit on her indifference point)
    ru = h.receiver.utility
    if len(support) == 1:
        cells = [(support[0], Fraction(1))]
    else:
        m0, m1 = support
        cells = [(m0, (m1 - HALF) / (m1 - m0)), (m1, (HALF - m0) / (m1 - m0))]
    values = tuple(
        sum((w * spec.utility.gain_of_action1(m) for m, w in cells
             if ru.gain_of_action1(m) > 0), Fraction(0))
        for spec in (*h.senders, h.receiver)
    )
    return GeneralEquilibriumReport(
        kind=kind,
        support=support,
        cut=None if len(support) == 1 else 2 * support[0],
        condition_trace=trace,
        pivotal=pivotal,
        efficient=trace not in INEFFICIENT_TRACES,
        labels=h.labels,
        values=values,
        relabeling=rel,
    )


def solve_general_uniform(h: HierarchySpec) -> GeneralEquilibriumReport:
    """Closed-form equilibrium of the uniform-state linear chain.

    Raises NotCovered rather than guessing outside the characterized region:
    extremist receivers, chains with no conformist anywhere, and parameter
    corners where the pivot-placed support would not actually survive the
    induced subgame.
    """
    _require_uniform_linear(h)
    try:
        canon, rel = canonicalize_receiver(h)
    except ExtremistReceiver as exc:
        raise NotCovered(
            "the receiver ignores information; no support is selected"
        ) from exc
    classes = sender_classes(canon)
    w_r = receiver_class(canon).threshold

    # The companion game over the whole chain has exactly these classes
    # (`_as_table` keeps every threshold and slot), so its verdict is read off
    # them without building it.
    base, kind, cause, _ = pivotal_rule(classes, w_r)
    try:
        pivotal = with_general_pivots(base, classes, w_r)
    except NoConformist:
        pivotal = None
    if kind is EquilibriumKind.NO_INFO:
        trace = _CAUSE_TO_TRACE[cause]
        return _report(h, GeneralKind.NO_INFO, (HALF,), trace, pivotal, rel)
    if pivotal is None:
        raise NotCovered(
            "no conformist anywhere in the chain; the pivot-based "
            "characterization does not apply"
        )
    w_p = pivotal.p_threshold

    if pivotal.b_star_p_threshold - w_p > HALF:
        # The collapse argument presumes a conformist intermediary sits ahead
        # of the receiver's indifference mean.  Without one, a cut pinned at
        # that mean is garbled no lower than the mean itself, the receiver's
        # tie-break leaves its low cell unacted, and whenever player 1 weakly
        # dislikes action there the surviving pair beats silence for her.
        conformist_before_receiver = any(
            c.kind is Kind.CONFORMIST and c.threshold < w_r for c in classes[1:]
        )
        if (
            not conformist_before_receiver
            and canon.senders[-1].utility.gain_of_action1(w_r) <= 0
            and canon.senders[0].utility.gain_of_action1(w_r) <= 0
        ):
            raise NotCovered(
                "no conformist intermediary ahead of the receiver's "
                f"indifference mean {w_r}: a cut pinned there escapes the "
                "distant-conformist collapse; outside the characterized region"
            )
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

    if not 0 < m0 < w_r:
        raise NotCovered(
            f"the pivot places the low mean at {m0}, at or past the receiver's "
            f"indifference mean {w_r}; outside the characterized region"
        )
    delivered = solve_subgame_given_support(canon, m0, m0 + HALF)
    if delivered is None or delivered.support() != (m0, m0 + HALF):
        raise NotCovered(
            f"the support ({m0}, {m0 + HALF}) would not survive the induced "
            f"subgame (delivered: {delivered}); outside the characterized region"
        )
    support = rel.support_back((m0, m0 + HALF))
    return _report(h, GeneralKind.SUPPORTED, support, trace, pivotal, rel)


"""Agent utilities, the conformist/contrarian/extremist taxonomy, and the
pivotal-agent structure of a sender chain.

Solvers work in a canonical frame where the receiver is a conformist biased
toward action 1 (threshold below the prior).  `canonicalize_receiver` maps any
non-extremist receiver into that frame by relabeling actions and/or states;
the returned descriptor maps computed supports back.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Union

from .core import (
    HALF,
    BinaryOutcome,
    BinaryPrior,
    ChainError,
    NumberLike,
    OrderViolation,
    UniformPrior,
    as_ratio,
)

RECEIVER = "receiver"


class DegenerateAgent(ChainError):
    """Action preference never switches and no threshold exists."""


class ThresholdCollision(ChainError):
    """A threshold coincides with {0, prior, 1} or with another agent's."""


class ExtremistReceiver(ChainError):
    """The receiver ignores information entirely; nothing to canonicalize."""


class NoConformist(ChainError):
    """The general game's pivotal conformist P does not exist."""


class ValidationError(ChainError):
    """A hierarchy violates an ingestion assumption."""


class Kind(Enum):
    CONFORMIST = "conformist"
    CONTRARIAN = "contrarian"
    ZERO_EXTREMIST = "zero-extremist"
    ONE_EXTREMIST = "one-extremist"

    @property
    def is_extremist(self) -> bool:
        return self in (Kind.ZERO_EXTREMIST, Kind.ONE_EXTREMIST)


# ---------------------------------------------------------------------------
# utility models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableUtility:
    """Payoffs u(state, action) of the two-state two-action game."""

    u00: Fraction
    u10: Fraction
    u01: Fraction
    u11: Fraction

    def __post_init__(self) -> None:
        for name in ("u00", "u10", "u01", "u11"):
            object.__setattr__(self, name, as_ratio(getattr(self, name)))

    def value(self, state: int, action: int) -> Fraction:
        return getattr(self, f"u{state}{action}")

    def gain_of_action1(self, q: Fraction) -> Fraction:
        """Expected gain from playing 1 instead of 0 at posterior q."""
        return q * (self.u11 - self.u10) + (1 - q) * (self.u01 - self.u00)


@dataclass(frozen=True)
class LinearUtility:
    """Linear action-1 premium over [0,1]: gain(w) = alpha*w + beta, with the
    action-0 payoff normalized to zero."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_ratio(self.alpha))
        object.__setattr__(self, "beta", as_ratio(self.beta))
        if self.alpha == 0:
            raise DegenerateAgent("linear agent needs a sloped action premium")

    @property
    def crossing(self) -> Fraction:
        """The state at which the agent flips action preference."""
        return -self.beta / self.alpha

    def gain_of_action1(self, w: Fraction) -> Fraction:
        return self.alpha * w + self.beta


Utility = Union[TableUtility, LinearUtility]


def split_value(u: Utility, out: BinaryOutcome, act: Callable[[Fraction], object]) -> Fraction:
    """Value to ``u`` of the split ``out`` when the receiver plays action 1 at
    each point x with ``act(x)`` true and action 0 elsewhere.

    This is the value of a distribution of posteriors (Kamenica & Gentzkow):
    the action-0 value at the centre, p * u10 + (1 - p) * u00 for a table
    agent and 0 for a linear one, plus each acted point's weight times the
    agent's premium there.  Points are posteriors in the binary game and
    posterior means in the uniform one; both premia are affine in them.
    """
    p = out.p
    total = p * u.u10 + (1 - p) * u.u00 if isinstance(u, TableUtility) else Fraction(0)
    for x, w in ((out.q0, out.w0), (out.q1, out.w1)):
        if w and act(x):
            total += w * u.gain_of_action1(x)
    return total


def receiver_rule(h: HierarchySpec) -> Callable[[Fraction], bool]:
    """The closed forms' one receiver rule: whether the receiver of ``h``
    plays action 1 at a posterior (binary game) or posterior mean (uniform
    game).  She plays it where her gain from it is positive; where she is
    exactly indifferent, the last sender's preference decides, and she plays
    action 1 when that sender gains from it there."""
    receiver = h.receiver.utility
    last = h.senders[-1].utility

    def rule(x: Fraction) -> bool:
        g = receiver.gain_of_action1(x)
        return g > 0 or (g == 0 and last.gain_of_action1(x) > 0)

    return rule


def seat_values(h: HierarchySpec, out: BinaryOutcome) -> tuple[Fraction, ...]:
    """Every seat's `split_value` of ``out`` under `receiver_rule`, senders
    first, receiver last."""
    rule = receiver_rule(h)
    acts = {x: rule(x) for x in (out.q0, out.q1)}  # decided once, not per seat
    return tuple(split_value(s.utility, out, acts.__getitem__) for s in (*h.senders, h.receiver))


def table_utility(u00: NumberLike, u10: NumberLike, u01: NumberLike, u11: NumberLike) -> TableUtility:
    return TableUtility(as_ratio(u00), as_ratio(u10), as_ratio(u01), as_ratio(u11))


def linear_utility(alpha: NumberLike, beta: NumberLike) -> LinearUtility:
    return LinearUtility(as_ratio(alpha), as_ratio(beta))


def quadratic_loss_table(bias: NumberLike) -> TableUtility:
    """State-matching loss -(a-w)^2 - bias*a; threshold (1+bias)/2."""
    b = as_ratio(bias)
    return TableUtility(Fraction(0), Fraction(-1), -1 - b, -b)


def conformist_table(threshold: NumberLike) -> TableUtility:
    """A conformist with the given interior threshold (quadratic-loss family)."""
    t = as_ratio(threshold)
    if not 0 < t < 1:
        raise ThresholdCollision(f"conformist threshold must be interior, got {t}")
    return quadratic_loss_table(2 * t - 1)


def contrarian_table(threshold: NumberLike) -> TableUtility:
    """A contrarian (mismatch-rewarded) agent with the given threshold."""
    t = as_ratio(threshold)
    if not 0 < t < 1:
        raise ThresholdCollision(f"contrarian threshold must be interior, got {t}")
    return TableUtility(Fraction(0), 1 - t, t, Fraction(0))


def zero_extremist_table() -> TableUtility:
    return TableUtility(Fraction(2), Fraction(1), Fraction(0), Fraction(0))


def one_extremist_table() -> TableUtility:
    return TableUtility(Fraction(0), Fraction(0), Fraction(2), Fraction(1))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentClass:
    """Where an agent sits in the taxonomy.

    ``threshold`` is the indifference belief (binary game) or indifference
    mean (general game) and is None for extremists.
    """

    kind: Kind
    threshold: Optional[Fraction] = None


def indifference_belief(u: TableUtility) -> Fraction:
    """Belief at which the agent is indifferent between actions; may fall
    outside [0,1], which flags an extremist."""
    d0 = u.u00 - u.u01
    d1 = u.u11 - u.u10
    if d0 + d1 == 0:
        raise DegenerateAgent("action preference never switches (d0 + d1 = 0)")
    return d0 / (d0 + d1)


def classify_binary(u: TableUtility, prior: BinaryPrior) -> AgentClass:
    """Taxonomy slot of a table agent under a binary prior.

    Non-extremists must have a threshold strictly inside (0,1) and away from
    the prior; collisions are ingestion errors, not silently perturbed.
    """
    p = prior.p
    d1 = u.u11 - u.u10
    mu = indifference_belief(u)
    if mu <= 0 or mu >= 1:
        if mu in (Fraction(0), Fraction(1)):
            raise ThresholdCollision(f"threshold sits on the boundary: {mu}")
        kind = Kind.ONE_EXTREMIST if d1 > 0 else Kind.ZERO_EXTREMIST
        return AgentClass(kind=kind)
    if mu == p:
        raise ThresholdCollision(f"threshold collides with prior {p}")
    kind = Kind.CONFORMIST if d1 > 0 else Kind.CONTRARIAN
    return AgentClass(kind=kind, threshold=mu)


def classify_linear(u: LinearUtility) -> AgentClass:
    """Taxonomy slot of a linear agent under the uniform prior."""
    w = u.crossing
    if w in (Fraction(0), HALF, Fraction(1)):
        raise ThresholdCollision(f"indifference mean collides with {{0, 1/2, 1}}: {w}")
    if w < 0 or w > 1:
        # the action premium keeps one sign on all of [0,1]
        sign = u.gain_of_action1(HALF)
        kind = Kind.ONE_EXTREMIST if sign > 0 else Kind.ZERO_EXTREMIST
        return AgentClass(kind=kind)
    kind = Kind.CONFORMIST if u.alpha > 0 else Kind.CONTRARIAN
    return AgentClass(kind=kind, threshold=w)


def reclassify_under_support(agent: AgentClass, m0: NumberLike, m1: NumberLike) -> AgentClass:
    """Re-slot a linear agent inside the subgame spanned by means (m0, m1).

    The subgame threshold is (w - m0)/(m1 - m0); an agent whose crossing falls
    strictly outside [m0, m1] keeps one preferred action throughout and turns
    into the matching extremist.  Crossings exactly on the edge keep a
    degenerate threshold of 0 or 1 rather than being forced extremist.
    """
    m0, m1 = as_ratio(m0), as_ratio(m1)
    if m0 >= m1:
        raise OrderViolation(f"need m0 < m1, got ({m0}, {m1})")
    if agent.kind.is_extremist:
        return agent
    w = agent.threshold
    conformist = agent.kind is Kind.CONFORMIST
    if w < m0:
        # favours 1 everywhere on [m0, m1] if conformist, 0 if contrarian
        return AgentClass(kind=Kind.ONE_EXTREMIST if conformist else Kind.ZERO_EXTREMIST)
    if w > m1:
        return AgentClass(kind=Kind.ZERO_EXTREMIST if conformist else Kind.ONE_EXTREMIST)
    return AgentClass(kind=agent.kind, threshold=(w - m0) / (m1 - m0))


# ---------------------------------------------------------------------------
# hierarchies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentSpec:
    utility: Utility
    label: str = ""


@dataclass(frozen=True)
class HierarchySpec:
    """A sender chain.  senders[0] is player 1, the agent farthest from the
    receiver; the receiver sits after senders[-1]."""

    senders: tuple[AgentSpec, ...]
    receiver: AgentSpec
    prior: Union[BinaryPrior, UniformPrior]

    @property
    def n(self) -> int:
        return len(self.senders)

    @property
    def is_binary(self) -> bool:
        return isinstance(self.prior, BinaryPrior)

    @property
    def labels(self) -> tuple[str, ...]:
        """Report names, senders first: each agent's own label, else
        ``sender{i}`` (1-based) or ``receiver``."""
        return tuple(
            (s.label or f"sender{i}") for i, s in enumerate(self.senders, start=1)
        ) + (self.receiver.label or RECEIVER,)


def classify_spec(spec: AgentSpec, prior: Union[BinaryPrior, UniformPrior]) -> AgentClass:
    if isinstance(spec.utility, TableUtility):
        if not isinstance(prior, BinaryPrior):
            raise ValidationError("table utilities need a binary prior")
        return classify_binary(spec.utility, prior)
    if not isinstance(prior, UniformPrior):
        raise ValidationError("linear utilities need the uniform prior")
    return classify_linear(spec.utility)


def hierarchy(
    senders,
    receiver,
    prior: Union[BinaryPrior, UniformPrior],
    *,
    strict: bool = True,
) -> HierarchySpec:
    """Validated constructor.  Wraps bare utilities into AgentSpecs, classifies
    everyone (surfacing DegenerateAgent / ThresholdCollision), and in strict
    mode enforces pairwise-distinct thresholds and report labels (own or
    fallback, see `HierarchySpec.labels`) across senders and receiver.
    Relaxed mode (strict=False) is for machine-built chains such as appended
    advisors, where a duplicate threshold is resolved by position.
    """

    def wrap(x) -> AgentSpec:
        if isinstance(x, AgentSpec):
            return x
        if isinstance(x, (TableUtility, LinearUtility)):
            return AgentSpec(utility=x)
        raise ValidationError(f"not an agent: {x!r}")

    sender_specs = tuple(wrap(s) for s in senders)
    if not sender_specs:
        raise ValidationError("a chain needs at least one sender")
    receiver_spec = wrap(receiver)
    h = HierarchySpec(senders=sender_specs, receiver=receiver_spec, prior=prior)
    classes = [classify_spec(s, prior) for s in sender_specs]
    classes.append(classify_spec(receiver_spec, prior))
    if strict:
        _require_distinct("thresholds", [cls.threshold for cls in classes], str)
        _require_distinct("labels", h.labels, repr)
    return h


def _require_distinct(what: str, values, show: Callable) -> None:
    """Raise ValidationError naming the first two agents that share a value;
    None values are skipped."""
    seen: dict = {}
    for idx, value in enumerate(values):
        if value is None:
            continue
        if value in seen:
            raise ValidationError(
                f"{what} must be pairwise distinct: "
                f"agents {seen[value]} and {idx} share {show(value)}"
            )
        seen[value] = idx


def sender_classes(h: HierarchySpec) -> list[AgentClass]:
    return [classify_spec(s, h.prior) for s in h.senders]


def receiver_class(h: HierarchySpec) -> AgentClass:
    return classify_spec(h.receiver, h.prior)


# ---------------------------------------------------------------------------
# canonical frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Relabeling:
    """Action/state renaming that turned a hierarchy canonical.

    Supports of equilibria computed in the canonical frame map back through
    `support_back`; an action flip leaves posteriors untouched, a state flip
    reflects them through 1/2 and swaps the pair order.
    """

    flip_action: bool = False
    flip_state: bool = False

    @property
    def identity(self) -> bool:
        return not (self.flip_action or self.flip_state)

    def support_back(self, pair: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        if not self.flip_state:
            return pair
        return tuple(sorted(1 - q for q in pair))


def relabel_utility(u: Utility, flip_action: bool, flip_state: bool) -> Utility:
    if isinstance(u, TableUtility):
        if flip_action:
            u = TableUtility(u.u01, u.u11, u.u00, u.u10)
        if flip_state:
            u = TableUtility(u.u10, u.u00, u.u11, u.u01)
        return u
    if flip_action:
        # negating the premium and restoring the zero action-0 baseline shifts
        # every outcome's value by a constant, so preferences are untouched
        u = LinearUtility(-u.alpha, -u.beta)
    if flip_state:
        u = LinearUtility(-u.alpha, u.alpha + u.beta)
    return u


def relabel_hierarchy(h: HierarchySpec, rel: Relabeling) -> HierarchySpec:
    if rel.identity:
        return h
    prior = h.prior
    if isinstance(prior, BinaryPrior) and rel.flip_state:
        prior = BinaryPrior(1 - prior.p)

    def go(spec: AgentSpec) -> AgentSpec:
        return replace(spec, utility=relabel_utility(spec.utility, rel.flip_action, rel.flip_state))

    return HierarchySpec(
        senders=tuple(go(s) for s in h.senders),
        receiver=go(h.receiver),
        prior=prior,
    )


def canonicalize_receiver(h: HierarchySpec) -> tuple[HierarchySpec, Relabeling]:
    """Relabel actions/states so the receiver is a conformist biased toward
    action 1 (threshold strictly below the prior)."""
    cls = receiver_class(h)
    if cls.kind.is_extremist:
        raise ExtremistReceiver("the receiver never responds to information")
    prior_point = h.prior.p if isinstance(h.prior, BinaryPrior) else HALF
    below = cls.threshold < prior_point
    if cls.kind is Kind.CONFORMIST:
        rel = Relabeling() if below else Relabeling(flip_action=True, flip_state=True)
    else:
        rel = Relabeling(flip_action=True) if below else Relabeling(flip_state=True)
    return relabel_hierarchy(h, rel), rel


# ---------------------------------------------------------------------------
# pivotal structure
# ---------------------------------------------------------------------------

class EquilibriumKind(Enum):
    NO_INFO = "no-info"
    FULL_INFO = "full-info"
    PARTIAL = "partial"


class NoInfoCause(Enum):
    """Why a chain transmits nothing.

    OPPOSED: an intermediary always favours the receiver's default action
    (a contrarian past the receiver's threshold, or an extremist for the
    biased action), or the receiver never reacts — no insertion of extra
    players can fix this.
    BLOCKER_ABOVE_PIVOT: a contrarian blocker tolerates splits only above the
    best conformist's threshold, emptying the intersection — also unfixable.
    ORDERING: every blocker sits behind the best-aligned conformist, who
    therefore coarsens first; fixable by inserting a later conformist, and the
    one case where everyone would rather have some information flow.
    """

    OPPOSED = "opposed"
    BLOCKER_ABOVE_PIVOT = "blocker-above-pivot"
    ORDERING = "ordering"


@dataclass(frozen=True)
class PivotalReport:
    """The handful of agents whose thresholds decide the equilibrium.

    Binary-game fields: a_star (1-based sender index, or RECEIVER when no
    sender out-bids the receiver), its threshold, e_star (last non-conformist
    blocking the pipe, None if all senders conform), d_star_threshold, and
    a_star_e (best conformist strictly after e_star, or RECEIVER).

    General-game fields (None in the binary case): p_pivot / p_threshold for
    the most 1-biased conformist including player 1, b_star_threshold and
    b_star_p_threshold for the most 0-biased conformists among intermediaries
    (the latter restricted to seats after P), d_dstar_threshold, and
    d_star_general which folds in a contrarian player 1.
    """

    a_star: Union[int, str]
    a_star_threshold: Fraction
    e_star: Optional[int]
    d_star_threshold: Fraction
    a_star_e: Union[int, str]
    p_pivot: Optional[int] = None
    p_threshold: Optional[Fraction] = None
    b_star_threshold: Optional[Fraction] = None
    b_star_p_threshold: Optional[Fraction] = None
    d_dstar_threshold: Optional[Fraction] = None
    d_star_general: Optional[Fraction] = None


def _argmin_threshold(entries: list[tuple[int, Fraction]]) -> tuple[int, Fraction]:
    # ties resolved toward the receiver (later position), per the convention
    # that among equally-biased agents the one closest to the receiver is
    # pivotal
    best = entries[0]
    for entry in entries[1:]:
        if entry[1] < best[1] or (entry[1] == best[1] and entry[0] > best[0]):
            best = entry
    return best


def pivotal_rule(
    classes: list[AgentClass], mu_r: Fraction
) -> tuple[PivotalReport, EquilibriumKind, Optional[NoInfoCause], Optional[Fraction]]:
    """The closed forms' one copy of the pivotal rule.

    ``classes`` are the senders' classes in the canonical frame and ``mu_r``
    is the receiver's threshold.  Returns the pivotal agents, the equilibrium
    kind they decide, the no-information cause, and the low-cell threshold of
    a partial split.  Both game families and the uniform solver's induced
    subgames read their verdicts off it.
    """
    # A: conformists below the receiver's threshold; D: contrarians below it;
    # E0: zero-extremists.  A contrarian at or past the threshold or a
    # one-extremist opposes every split; conformists at or past it are never
    # pivotal.
    a, d, e0 = [], [], []
    opposed = False
    for pos, cls in enumerate(classes, start=1):
        if cls.kind is Kind.ZERO_EXTREMIST:
            e0.append(pos)
        elif cls.kind is Kind.ONE_EXTREMIST:
            opposed = True
        elif cls.threshold < mu_r:
            (a if cls.kind is Kind.CONFORMIST else d).append((pos, cls.threshold))
        elif cls.kind is Kind.CONTRARIAN:
            opposed = True

    if a:
        a_star, a_thr = _argmin_threshold(a)
    else:
        a_star, a_thr = RECEIVER, mu_r
    e_star = max([pos for pos, _ in d] + e0, default=None)
    d_thr = max((thr for _, thr in d if thr < a_thr), default=Fraction(0))
    if e_star is None:
        a_star_e: Union[int, str] = a_star
    else:
        tail = [(pos, thr) for pos, thr in a if pos > e_star]
        a_star_e = _argmin_threshold(tail)[0] if tail else RECEIVER
    report = PivotalReport(
        a_star=a_star,
        a_star_threshold=a_thr,
        e_star=e_star,
        d_star_threshold=d_thr,
        a_star_e=a_star_e,
    )

    if opposed:
        return report, EquilibriumKind.NO_INFO, NoInfoCause.OPPOSED, None
    if any(thr > a_thr for _, thr in d):
        return report, EquilibriumKind.NO_INFO, NoInfoCause.BLOCKER_ABOVE_PIVOT, None
    if e_star is None:
        return report, EquilibriumKind.FULL_INFO, None, None
    if a_star == RECEIVER or a_star > e_star:
        return report, EquilibriumKind.PARTIAL, None, a_thr
    return report, EquilibriumKind.NO_INFO, NoInfoCause.ORDERING, None


def pivotal_binary(h: HierarchySpec) -> PivotalReport:
    """Pivotal agents of a binary-state chain, reported in the canonical frame.

    Apply the hierarchy's relabeling (`canonicalize_receiver`) first if you
    need to interpret thresholds in the original labels.
    """
    canon, _ = canonicalize_receiver(h)
    return pivotal_rule(sender_classes(canon), receiver_class(canon).threshold)[0]


def with_general_pivots(
    base: PivotalReport, classes: list[AgentClass], w_r: Fraction
) -> PivotalReport:
    """``base``, the `pivotal_rule` report of a canonical uniform chain with
    sender classes ``classes`` and receiver crossing ``w_r``, with the
    general-game fields filled in.

    P ranges over every player 1..n; B*, B*_P, D** range over intermediaries
    2..n only.  Raises NoConformist when no player has an interior crossing
    with a positive slope.
    """
    p_candidates = [
        (pos, cls.threshold)
        for pos, cls in enumerate(classes, start=1)
        if cls.kind is Kind.CONFORMIST
    ]
    if not p_candidates:
        raise NoConformist("no player wants to match the state on any interior mean")
    p_pivot, w_p = _argmin_threshold(p_candidates)

    b = [
        (pos, cls.threshold)
        for pos, cls in enumerate(classes, start=1)
        if pos >= 2 and cls.kind is Kind.CONFORMIST and cls.threshold > HALF
    ]
    w_bstar = max((thr for _, thr in b), default=HALF)
    w_bstar_p = max((thr for pos, thr in b if pos > p_pivot), default=HALF)

    d = [
        (pos, cls.threshold)
        for pos, cls in enumerate(classes, start=1)
        if pos >= 2 and cls.kind is Kind.CONTRARIAN and cls.threshold < w_r
    ]
    w_ddstar = max((thr for _, thr in d if thr < w_p), default=Fraction(0))
    first = classes[0]
    if first.kind is Kind.CONTRARIAN and 0 < first.threshold < w_p:
        w_dstar = max(w_ddstar, first.threshold)
    else:
        w_dstar = w_ddstar

    return replace(
        base,
        p_pivot=p_pivot,
        p_threshold=w_p,
        b_star_threshold=w_bstar,
        b_star_p_threshold=w_bstar_p,
        d_dstar_threshold=w_ddstar,
        d_star_general=w_dstar,
    )


def pivotal_general(h: HierarchySpec) -> PivotalReport:
    """Pivotal agents of the uniform-prior linear chain (canonical frame):
    the A*/E* fields of `pivotal_binary` and the general-game fields of
    `with_general_pivots`, which raises NoConformist."""
    canon, _ = canonicalize_receiver(h)
    classes = sender_classes(canon)
    w_r = receiver_class(canon).threshold
    return with_general_pivots(pivotal_rule(classes, w_r)[0], classes, w_r)

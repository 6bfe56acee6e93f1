"""Brute-force verification engine.

Everything here works from raw utilities and exhaustive enumeration — no
pivotal-agent shortcuts — so closed-form solvers can be checked against an
independent route:

* a discretized outcome grid, held as its two coordinate axes, and the chain
  of incentive-compatibility level sets (which outcomes each intermediary
  would pass along, given what later intermediaries will pass), computed on
  cell indices (i, j) into those axes with one value table per seat,
* grid subgame-perfect equilibrium for the binary game,
* exhaustive mean-pair search for the uniform-state game,
* a pass-through (simple-equilibrium) check, read off the same level sets, and
* seeded Monte-Carlo signal propagation.

Values are exact rationals end to end; only Monte Carlo uses floats.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from .core import (
    HALF,
    BinaryOutcome,
    BinaryPrior,
    ChainError,
    Experiment,
    OrderViolation,
    UniformPrior,
    as_ratio,
    compose,
    experiment_of_outcome,
    identity_experiment,
    make_outcome,
    mpc_feasible_uniform,
    outcome_of_experiment,
)
from .agents import (
    AgentClass,
    HierarchySpec,
    Kind,
    LinearUtility,
    TableUtility,
    classify_linear,
    reclassify_under_support,
)

if TYPE_CHECKING:
    import numpy as np  # for annotations; Monte Carlo imports it when it runs


class ResolutionTooCoarse(ChainError):
    """Grid step too large for the requested computation."""


class SeedRequired(ChainError):
    """Monte Carlo runs must be reproducible; pass an explicit seed."""


class EmptyLevelSet(ChainError):
    """A level set came out empty; cannot happen (the no-information outcome
    is always passable) unless the chain construction itself is broken."""


# ---------------------------------------------------------------------------
# outcome grid
# ---------------------------------------------------------------------------

def _axes(p: Fraction, resolution: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Lattice points at or below p and at or above p, each ascending, with p
    itself closing the first and opening the second when it is off-lattice."""
    step = Fraction(1, resolution)
    q0s = [k * step for k in range(resolution + 1) if k * step <= p]
    if q0s[-1] != p:
        q0s.append(p)
    q1s = [k * step for k in range(resolution + 1) if k * step >= p]
    if q1s[0] != p:
        q1s.insert(0, p)
    return tuple(q0s), tuple(q1s)


def grid_pairs(p: Fraction, resolution: int) -> list[tuple[Fraction, Fraction]]:
    """All coordinate pairs (q0, q1) with q0 <= p <= q1 on the 1/G lattice,
    with p itself inserted as a coordinate when it is off-lattice."""
    q0s, q1s = _axes(as_ratio(p), resolution)
    return [(a, b) for a in q0s for b in q1s]


Cell = tuple[int, int]


@dataclass(eq=False)
class OutcomeGrid:
    """Discretized Bayes-plausible outcome set, held as its two axes.

    Cell (i, j) is the pair (q0s[i], q1s[j]).  The prior closes ``q0s`` and
    opens ``q1s``, so every cell in the last row or the first column is the
    silent (degenerate) outcome; its cell is the corner (len(q0s)-1, 0).
    ``cells()`` lists one cell per distinct outcome in (q0, q1) order: the
    informative cells row-major, then the silent corner.
    """

    resolution: int
    prior: BinaryPrior
    q0s: tuple[Fraction, ...]
    q1s: tuple[Fraction, ...]

    def cells(self) -> list[Cell]:
        ni, nj = len(self.q0s), len(self.q1s)
        return [(i, j) for i in range(ni - 1) for j in range(1, nj)] + [(ni - 1, 0)]

    @property
    def outcomes(self) -> tuple[BinaryOutcome, ...]:
        """The outcome of each of ``cells()``, built on every call."""
        return self.outcomes_at(self.cells())

    def outcomes_at(self, cells: Sequence[Cell]) -> tuple[BinaryOutcome, ...]:
        """The outcome of each of the given cells, built on every call."""
        return tuple(make_outcome(self.q0s[i], self.q1s[j], self.prior) for i, j in cells)

    def cell_of(self, outcome: BinaryOutcome) -> Optional[Cell]:
        """The cell of an outcome over this grid's prior, None when off-grid."""
        if outcome.p != self.prior.p:
            return None
        ni, nj = len(self.q0s), len(self.q1s)
        if outcome.degenerate:
            return (ni - 1, 0)
        i = bisect_left(self.q0s, outcome.q0, 0, ni - 1)
        j = bisect_left(self.q1s, outcome.q1, 1, nj)
        if i < ni - 1 and j < nj and (self.q0s[i], self.q1s[j]) == (outcome.q0, outcome.q1):
            return (i, j)
        return None


def build_grid(prior: BinaryPrior, resolution: int) -> OutcomeGrid:
    if resolution < 10:
        raise ResolutionTooCoarse(f"need at least 10 grid steps, got {resolution}")
    q0s, q1s = _axes(prior.p, resolution)
    return OutcomeGrid(resolution=resolution, prior=prior, q0s=q0s, q1s=q1s)


# ---------------------------------------------------------------------------
# receiver behavior and raw outcome values
# ---------------------------------------------------------------------------

def tie_rule(h: HierarchySpec) -> Callable[[Fraction], int]:
    """Action the receiver takes when exactly indifferent: the last sender's
    preferred action there (falling back to 0 if that sender is indifferent
    too, which is the information-preserving direction in the canonical
    frame)."""
    last = h.senders[-1].utility

    def tie(q: Fraction) -> int:
        g = last.gain_of_action1(q)
        return 1 if g > 0 else 0

    return tie


def action_rule(h: HierarchySpec) -> Callable[[Fraction], int]:
    """Receiver's action as a function of the posterior (binary game) or the
    posterior mean (uniform game), ties resolved by `tie_rule`."""
    ru = h.receiver.utility
    tie = tie_rule(h)

    def act(q: Fraction) -> int:
        g = ru.gain_of_action1(q)
        if g > 0:
            return 1
        if g < 0:
            return 0
        return tie(q)

    return act


def outcome_cells(out: BinaryOutcome) -> list[tuple[Fraction, Fraction]]:
    if out.degenerate:
        return [(out.p, Fraction(1))]
    return [(out.q0, out.w0), (out.q1, out.w1)]


def outcome_value(u: TableUtility, out: BinaryOutcome, act: Callable[[Fraction], int]) -> Fraction:
    """Expected utility of a table agent given an outcome, straight from the
    definition (no rearrangement): weight each posterior cell by the payoff of
    the receiver's action there."""
    total = Fraction(0)
    for q, w in outcome_cells(out):
        a = act(q)
        total += w * (q * u.value(1, a) + (1 - q) * u.value(0, a))
    return total


def _value_table(
    u: TableUtility, act: Callable[[Fraction], int], grid: OutcomeGrid
) -> list[list[Fraction]]:
    """`outcome_value` of every cell, with each posterior's payoff computed
    once (a grid has ~2R posteriors against R^2/4 cells)."""
    p = grid.prior.p

    def payoff(q: Fraction) -> Fraction:
        a = act(q)
        return q * u.value(1, a) + (1 - q) * u.value(0, a)

    silent = payoff(p)
    highs = [(q1 - p, payoff(q1)) for q1 in grid.q1s[1:]]
    table = []
    for q0 in grid.q0s[:-1]:
        below, low = p - q0, payoff(q0)
        table.append(
            [silent] + [(above * low + below * high) / (above + below) for above, high in highs]
        )
    table.append([silent] * len(grid.q1s))
    return table


# ---------------------------------------------------------------------------
# incentive-compatibility chain
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class IcChain:
    """Level sets of outcomes each intermediary passes along, held as cell
    masks over the grid.

    ``levels[i]`` holds the outcomes sender i would deliver unchanged given
    that senders i+1..n behave likewise (computed back from the receiver);
    level sets shrink toward the front of the chain.  ``garble_proof`` is the
    stricter set no intermediary would garble *regardless* of what later
    players tolerate — a strict subset in general, which is exactly why the
    recursion matters.  Both are built from ``masks`` and ``proof_mask`` on
    first access, in the grid's ``cells()`` order.
    """

    grid: OutcomeGrid
    masks: dict[int, list[list[bool]]]
    proof_mask: list[list[bool]]

    def _outcomes(self, mask: list[list[bool]]) -> tuple[BinaryOutcome, ...]:
        return self.grid.outcomes_at([(i, j) for i, j in self.grid.cells() if mask[i][j]])

    @cached_property
    def levels(self) -> dict[int, tuple[BinaryOutcome, ...]]:
        return {idx: self._outcomes(mask) for idx, mask in self.masks.items()}

    @cached_property
    def garble_proof(self) -> tuple[BinaryOutcome, ...]:
        return self._outcomes(self.proof_mask)


def _cone_max(table: list[list[Optional[Fraction]]]) -> list[list[Optional[Fraction]]]:
    """M[i][j] = largest non-None entry over the contraction cone of cell
    (i, j): cells with weakly higher q0 index and weakly lower q1 index."""
    below: list[Optional[Fraction]] = [None] * len(table[0])
    m: list = [None] * len(table)
    for i in range(len(table) - 1, -1, -1):
        best: Optional[Fraction] = None
        row = []
        for v, down in zip(table[i], below):
            for c in (v, down):
                if c is not None and (best is None or c > best):
                    best = c
            row.append(best)
        m[i] = below = row
    return m


def _level_sets(
    h: HierarchySpec, grid: OutcomeGrid, first_seat: int
) -> Iterator[tuple[int, list[list[Fraction]], list[list[bool]]]]:
    """The level-set recursion, seat n down to first_seat: yields each seat,
    its value table and the member mask of its level.  A cell stays in level k
    when it is in level k+1 and seat k values it at least as much as every
    cell of level k+1 in its contraction cone, so the masks only shrink."""
    seats = range(h.n, first_seat - 1, -1)
    if not seats:
        return  # a chain without senders has no tie rule to build
    act = action_rule(h)
    member = [[True] * len(grid.q1s) for _ in grid.q0s]
    for idx in seats:
        table = _value_table(h.senders[idx - 1].utility, act, grid)
        ceiling = _cone_max(
            [[v if m else None for v, m in zip(*rows)] for rows in zip(table, member)]
        )
        member = [
            [m and v == c for v, m, c in zip(*rows)] for rows in zip(table, member, ceiling)
        ]
        yield idx, table, member


def ic_chain(h: HierarchySpec, grid: OutcomeGrid) -> IcChain:
    """Build the level-set chain for a binary-state hierarchy on the grid."""
    proof = [[True] * len(grid.q1s) for _ in grid.q0s]
    masks: dict[int, list[list[bool]]] = {}
    for idx, table, member in _level_sets(h, grid, 2):
        # garble-proof set: no intermediary strictly prefers any contraction,
        # credible or not, over the outcome itself
        proof = [
            [ok and v == c for v, ok, c in zip(*rows)]
            for rows in zip(table, proof, _cone_max(table))
        ]
        if not any(map(any, member)):
            raise EmptyLevelSet(f"level {idx} is empty")
        masks[idx] = member
    return IcChain(grid=grid, masks=masks, proof_mask=proof)


def solve_spe_grid(
    h: HierarchySpec,
    grid: OutcomeGrid,
    chain: Optional[IcChain] = None,
) -> list[BinaryOutcome]:
    """Equilibrium outcomes of the grid game: player 1's best pick among what
    the rest of the chain will pass, keeping only the Blackwell-maximal
    elements of the argmax (less informative payoff-ties are discarded).
    ``chain``, when given, must be ``ic_chain(h, grid)``."""
    if chain is None:
        chain = ic_chain(h, grid)
    cells = grid.cells()
    if 2 in chain.masks:
        member = chain.masks[2]
        cells = [(i, j) for i, j in cells if member[i][j]]
    if not cells:
        raise EmptyLevelSet("no passable outcome for player 1")
    act = action_rule(h)
    value = _value_table(h.senders[0].utility, act, grid)
    best = max(value[i][j] for i, j in cells)
    # cells the receiver answers with one constant action are informative in
    # name only; report them as the silent corner they are worth
    low, high = [act(q) for q in grid.q0s], [act(q) for q in grid.q1s]
    silent = (len(grid.q0s) - 1, 0)
    arg = [silent if low[i] == high[j] == low[-1] else (i, j)
           for i, j in cells if value[i][j] == best]
    # cells are ordered like their coordinates, so the staircase runs on them
    return list(grid.outcomes_at(_staircase(arg)))


def _staircase(items, interval=lambda item: item) -> list:
    """The items whose (lo, hi) interval lies inside no other item's, one per
    interval, in increasing order.  Sorted by (lo, -hi), an item survives when
    its hi beats every hi before it."""
    keep, top = [], None
    for item in sorted(items, key=lambda item: (interval(item)[0], -interval(item)[1])):
        hi = interval(item)[1]
        if top is None or hi > top:
            keep.append(item)
            top = hi
    return keep


def blackwell_maximal(outcomes: Sequence[BinaryOutcome]) -> list[BinaryOutcome]:
    """Drop every outcome that is a contraction of another in the list (all
    over one prior), and duplicates; the rest sorted by (q0, q1)."""
    return _staircase(outcomes, lambda o: (o.q0, o.q1))


# ---------------------------------------------------------------------------
# pass-through (simple-equilibrium) verification
# ---------------------------------------------------------------------------

def _passed_unchanged(h: HierarchySpec, grid: OutcomeGrid, first_seat: int, cell: Cell) -> bool:
    """Whether seats first_seat..n, best-responding on the grid, deliver the
    cell unchanged: what they deliver from c is the Blackwell-maximal argmax of
    seat first_seat's value over level first_seat+1 within c's contraction
    cone, so c comes out unchanged exactly when it lies in level first_seat.
    The masks only shrink, so the scan stops at the first seat that drops c."""
    i, j = cell
    return all(member[i][j] for _, _, member in _level_sets(h, grid, first_seat))


def _verify_binary_pass_through(
    h: HierarchySpec,
    outcome: BinaryOutcome,
    grid: OutcomeGrid,
) -> bool:
    if outcome.p != grid.prior.p:
        return False
    # (i) the outcome is realizable as player 1's experiment (identity
    # pass-through composes to the same experiment); weights off the support's
    # Bayes-plausible ones can invert to no experiment at all
    try:
        if outcome_of_experiment(grid.prior, experiment_of_outcome(outcome)) != outcome:
            return False
    except OrderViolation:
        return False
    # (ii) no intermediary strictly gains by garbling, given that successors
    # best-respond on the grid
    cell = grid.cell_of(outcome)
    return cell is not None and _passed_unchanged(h, grid, 2, cell)


def _uniform_subgame_tables(h: HierarchySpec, m0: Fraction, m1: Fraction) -> HierarchySpec:
    """Binary-state stand-in for the subgame after player 1 induces means
    (m0, m1): state s is the cell with mean m_s, and each later agent's payoff
    is its action-1 premium at that mean (action-0 payoff normalized away)."""
    zero = Fraction(0)

    def as_table(u: LinearUtility) -> TableUtility:
        return TableUtility(zero, zero, u.gain_of_action1(m0), u.gain_of_action1(m1))

    p_sub = BinaryPrior((HALF - m0) / (m1 - m0))
    senders = tuple(
        type(s)(utility=as_table(s.utility), label=s.label) for s in h.senders[1:]
    )
    receiver = type(h.receiver)(utility=as_table(h.receiver.utility), label=h.receiver.label)
    return HierarchySpec(senders=senders, receiver=receiver, prior=p_sub)


def verify_simple_equilibrium(
    h: HierarchySpec,
    eq,
    grid: Union[OutcomeGrid, int, None] = None,
) -> bool:
    """Check that an equilibrium outcome really is a pass-through equilibrium:
    player 1 can realize it alone, and no intermediary would garble it given
    grid best responses downstream.

    ``eq`` may be a solver report (anything with .outcome or .support) or a
    raw outcome.  For uniform-state hierarchies pass a grid resolution (int);
    the scan runs in the induced subgame.
    """
    outcome = getattr(eq, "outcome", eq)
    if h.is_binary:
        if isinstance(outcome, BinaryOutcome):
            pass
        else:
            support = tuple(as_ratio(x) for x in outcome)
            lo, hi = (support[0], support[-1])
            outcome = make_outcome(lo, hi, h.prior)
        if grid is None or isinstance(grid, int):
            grid = build_grid(h.prior, grid or 100)
        return _verify_binary_pass_through(h, outcome, grid)

    # uniform-state game: outcome is a pair of means (or a degenerate mean)
    if isinstance(outcome, BinaryOutcome):
        support = outcome.support()
    else:
        support = tuple(as_ratio(x) for x in getattr(outcome, "support", outcome))
    if len(support) == 1 or support[0] == support[-1]:
        return True  # nothing to garble
    m0, m1 = support[0], support[-1]
    if not mpc_feasible_uniform(m0, m1):
        return False
    if not (m0 < HALF < m1):
        return False
    sub = _uniform_subgame_tables(h, m0, m1)
    resolution = grid if isinstance(grid, int) else (grid.resolution if grid else 100)
    sub_grid = build_grid(sub.prior, resolution)
    # full information is cell (0, 1); scan every intermediary of the original
    # chain (all senders of the stand-in); the cut itself is always realizable
    return _passed_unchanged(sub, sub_grid, 1, (0, len(sub_grid.q1s) - 1))


# ---------------------------------------------------------------------------
# exhaustive search for the uniform-state game
# ---------------------------------------------------------------------------

def _flip_class_action(c: AgentClass) -> AgentClass:
    swap = {
        Kind.CONFORMIST: Kind.CONTRARIAN,
        Kind.CONTRARIAN: Kind.CONFORMIST,
        Kind.ZERO_EXTREMIST: Kind.ONE_EXTREMIST,
        Kind.ONE_EXTREMIST: Kind.ZERO_EXTREMIST,
    }
    return AgentClass(kind=swap[c.kind], threshold=c.threshold)

def _flip_class_state(c: AgentClass) -> AgentClass:
    if c.kind.is_extremist:
        return AgentClass(kind=c.kind)
    swap = {Kind.CONFORMIST: Kind.CONTRARIAN, Kind.CONTRARIAN: Kind.CONFORMIST}
    return AgentClass(kind=swap[c.kind], threshold=1 - c.threshold)


def _prop_decide(
    classes: Sequence[AgentClass], mu_r: Fraction, p: Fraction
) -> Optional[tuple[Fraction, Fraction]]:
    """Equilibrium outcome delivered by a chain of intermediaries holding the
    given (canonical-frame) classes, in posterior coordinates: None means the
    pipe collapses to no information; otherwise the delivered pair."""
    a: list[tuple[int, Fraction]] = []
    blockers: list[tuple[int, Optional[Fraction]]] = []
    for pos, c in enumerate(classes, start=1):
        if c.kind is Kind.ONE_EXTREMIST:
            return None
        if c.kind is Kind.CONTRARIAN:
            if c.threshold >= mu_r:
                return None
            blockers.append((pos, c.threshold))
        elif c.kind is Kind.ZERO_EXTREMIST:
            blockers.append((pos, None))
        elif c.threshold < mu_r:
            a.append((pos, c.threshold))
    if a:
        a_pos, a_thr = a[0]
        for pos, thr in a[1:]:
            if thr < a_thr or (thr == a_thr and pos > a_pos):
                a_pos, a_thr = pos, thr
    else:
        a_pos, a_thr = len(classes) + 1, mu_r  # the receiver herself
    for _, thr in blockers:
        if thr is not None and thr > a_thr:
            return None
    if not blockers:
        return (Fraction(0), Fraction(1))
    e_pos = max(pos for pos, _ in blockers)
    if a_pos > e_pos:
        return (a_thr, Fraction(1))
    return None


def _respond_to_means(
    h: HierarchySpec,
    m0: Fraction,
    m1: Fraction,
) -> list[tuple[Fraction, Fraction, int]]:
    """What the receiver ends up seeing and doing if player 1 induces means
    (m0, m1): a list of (cell mean, weight, receiver action).  Intermediaries
    2..n respond per their subgame classes."""
    act = action_rule(h)
    if m0 == m1:
        return [(HALF, Fraction(1), act(HALF))]
    sub_mu_r = (h.receiver.utility.crossing - m0) / (m1 - m0)
    sub_p = (HALF - m0) / (m1 - m0)
    receiver_conformist = h.receiver.utility.alpha > 0

    if not 0 < sub_mu_r < 1 or not 0 < sub_p < 1:
        # the receiver cannot split on [m0, m1]; information is moot
        return [(HALF, Fraction(1), act(HALF))]

    classes = [
        reclassify_under_support(classify_linear(s.utility), m0, m1)
        for s in h.senders[1:]
    ]
    mu_r, p = sub_mu_r, sub_p
    if not receiver_conformist:
        classes = [_flip_class_action(c) for c in classes]
    if mu_r > p:
        # a bare state reflection would leave the receiver acting downward, so
        # pair it with an action swap to restore the upward-acting convention
        classes = [_flip_class_action(_flip_class_state(c)) for c in classes]
        mu_r, p = 1 - mu_r, 1 - p
    if mu_r == p:
        return [(HALF, Fraction(1), act(HALF))]

    sub = _prop_decide(classes, mu_r, p) if classes else (Fraction(0), Fraction(1))
    if sub is None:
        return [(HALF, Fraction(1), act(HALF))]
    if mu_r != sub_mu_r:  # undo the state reflection
        sub = tuple(sorted(1 - q for q in sub))
    d0 = m0 + sub[0] * (m1 - m0)
    d1 = m0 + sub[1] * (m1 - m0)
    if d0 == d1 or not d0 < HALF < d1:
        return [(HALF, Fraction(1), act(HALF))]
    a0, a1 = act(d0), act(d1)
    if a0 == a1 and a0 == act(HALF):
        return [(HALF, Fraction(1), act(HALF))]
    w1 = (HALF - d0) / (d1 - d0)
    w0 = (d1 - HALF) / (d1 - d0)
    return [(d0, w0, a0), (d1, w1, a1)]


def _means_value(u: LinearUtility, cells: list[tuple[Fraction, Fraction, int]]) -> Fraction:
    return sum((w * u.gain_of_action1(m) for m, w, a in cells if a == 1), Fraction(0))


def _delivered(
    cells: list[tuple[Fraction, Fraction, int]], points: Sequence[Fraction]
) -> Optional[tuple[int, int]]:
    """The positions in ``points`` of a two-cell answer's two means, or None
    when the answer is silence."""
    if len(cells) == 1:
        return None
    try:
        return points.index(cells[0][0]), points.index(cells[1][0])
    except ValueError:
        raise ChainError(
            f"subgame delivered {cells[0][0]}, {cells[1][0]}, not among {list(points)}"
        ) from None


def solve_general_grid(h: HierarchySpec, resolution: int) -> list[tuple[Fraction, Fraction]]:
    """Exhaustive search over player 1's grid mean pairs, each answered by the
    induced subgame; returns the Blackwell-maximal argmax supports (a
    degenerate result is reported as (1/2, 1/2)).

    The subgame is answered once per *order type*, not once per pair.  Let
    w range over the crossings of seats 2..n and of the receiver (w_r).  The
    order type of (m0, m1) is the sign of m0 - w and of m1 - w for every w,
    with the sign of m0 - 1/2 and of m1 - 1/2.  Claim: over the pairs of one
    order type, ``_respond_to_means`` is either always silence or always two
    cells whose means are the same two of {m0, m1, the crossings}, each with
    the same receiver action; only the weights depend on the pair.

    Proof.  The search keeps m0 <= 1/2 <= m1, so m0 = m1 holds only where both
    signs against 1/2 are zero.  Otherwise m0 < m1, so phi(x) =
    (x - m0)/(m1 - m0) is increasing and affine.  The guard 0 < phi(w_r) < 1
    reads m0 < w_r < m1 and 0 < phi(1/2) < 1 reads m0 < 1/2 < m1: signs of the
    type.  ``classify_linear`` reads the utility alone;
    ``reclassify_under_support`` makes a crossing w extremist when w < m0 or
    w > m1 (signs of the type) and otherwise keeps its kind with threshold
    phi(w).  The action flip reads the receiver's slope; the reflection
    x -> 1 - x is taken iff phi(w_r) > phi(1/2), i.e. iff w_r > 1/2, and
    mu_r = p iff w_r = 1/2: fixed by the game.  So every kind reaching
    ``_prop_decide`` is fixed by the type, and every threshold, mu_r included,
    is chi(w) for one map chi (phi, or phi then the reflection) that is
    monotone in a direction fixed by the game.  ``_prop_decide`` branches on
    kinds and on comparisons between two such thresholds; each has the outcome
    of the comparison between their crossings, read in chi's direction, so the
    branch is fixed by the type.  It returns None, (0, 1) or (chi(w), 1) for
    one crossing w fixed by the type.  Undoing the reflection and mapping back
    by q -> m0 + q (m1 - m0) sends {0, 1} to {m0, m1} and chi(w) to w exactly.
    The remaining tests compare two delivered means, or one with 1/2: m0 or m1
    against a crossing or 1/2 is a sign of the type, and two crossings, or a
    crossing and 1/2, compare the same way in every pair.  The receiver's
    action at a mean d is the sign of its gain at d, which is the sign of
    d - w_r times its slope, or the tie rule at w_r when d = w_r; fixed by the
    type, and so is the silence test on the two actions.  QED

    So each order type calls ``_respond_to_means`` on its first pair only and
    keeps the delivered means as positions among (m0, m1, crossings...); a
    delivered mean outside these raises ``ChainError``, so the claim is
    checked, not assumed.  Every other pair rebuilds its two cells from those
    positions, and player 1's value is computed once per pair of delivered
    means.
    """
    if not isinstance(h.prior, UniformPrior):
        raise ChainError("exhaustive mean search needs the uniform prior")
    if resolution < 10:
        raise ResolutionTooCoarse(f"need at least 10 grid steps, got {resolution}")
    u1 = h.senders[0].utility
    act = action_rule(h)
    crossings = tuple(a.utility.crossing for a in (*h.senders[1:], h.receiver))
    # the lattice means k/G, then the crossings: every delivered mean is one
    means = [Fraction(k, resolution) for k in range(resolution + 1)] + list(crossings)
    acts = [act(m) for m in means]
    places = [tuple((m > w) - (m < w) for w in (*crossings, HALF))
              for m in means[:resolution + 1]]
    at_crossings = tuple(range(resolution + 1, len(means)))
    # silence is worth the same after every pair: what (1/2, 1/2) is worth
    silent = _means_value(u1, _respond_to_means(h, HALF, HALF))
    answers: dict[tuple, Optional[tuple[int, int]]] = {}
    values: dict[tuple[int, int], Fraction] = {}

    best: Optional[Fraction] = None
    arg: dict[tuple[Fraction, Fraction], None] = {}
    for k0 in range(resolution // 2 + 1):
        # m1 >= 1/2 and m1 - m0 <= 1/2
        for k1 in range(-(-resolution // 2), min(resolution // 2 + k0, resolution) + 1):
            order = (places[k0], places[k1])
            if order not in answers:
                m0, m1 = means[k0], means[k1]
                answers[order] = _delivered(_respond_to_means(h, m0, m1), (m0, m1, *crossings))
            delivered = answers[order]
            if delivered is None:
                v, key = silent, (HALF, HALF)
            else:
                slots = (k0, k1, *at_crossings)
                ends = slots[delivered[0]], slots[delivered[1]]
                d0, d1 = key = means[ends[0]], means[ends[1]]
                if ends not in values:
                    values[ends] = _means_value(u1, [
                        (d0, (d1 - HALF) / (d1 - d0), acts[ends[0]]),
                        (d1, (HALF - d0) / (d1 - d0), acts[ends[1]]),
                    ])
                v = values[ends]
            if best is None or v > best:
                best, arg = v, {key: None}
            elif v == best:
                arg[key] = None

    return _staircase(arg)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalCut:
    """Player 1's move in the uniform game: reveal which side of x the state
    fell on (signal 1 for the high side)."""

    x: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_ratio(self.x))
        if not 0 <= self.x <= 1:
            raise ChainError(f"cut must lie in [0,1], got {self.x}")


@dataclass(eq=False)
class McReport:
    trials: int
    seed: int
    labels: tuple[str, ...]           # HierarchySpec.labels: senders, then receiver
    means: tuple[float, ...]
    stderrs: tuple[float, ...]

    def row(self, label: str) -> tuple[float, float]:
        i = self.labels.index(label)
        return self.means[i], self.stderrs[i]


def _propagate(rng, signals: np.ndarray, matrix: Experiment) -> np.ndarray:
    import numpy as np

    to_one = np.array([float(row[1]) for row in matrix.rows])
    return (rng.random(signals.shape[0]) < to_one[signals]).astype(np.int8)


def monte_carlo(
    h: HierarchySpec,
    experiments: Sequence[Union[Experiment, IntervalCut]],
    trials: int,
    seed: Optional[int] = None,
) -> McReport:
    """Simulate the chain: draw states, push signals through the experiment
    profile, apply the receiver's threshold behavior, and average realized
    utilities per agent (with standard errors)."""
    import numpy as np

    if seed is None:
        raise SeedRequired("pass an integer seed; runs must be reproducible")
    if len(experiments) != h.n:
        raise ChainError(f"need one experiment per sender ({h.n}), got {len(experiments)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    act = action_rule(h)

    if h.is_binary:
        for e in experiments:
            if not isinstance(e, Experiment):
                raise ChainError("binary chains take 2x2 experiments only")
        p = h.prior.p
        states = (rng.random(trials) < float(p)).astype(np.int8)
        signals = states
        for e in experiments:
            signals = _propagate(rng, signals, e)
        composed = experiments[0]
        for e in experiments[1:]:
            composed = compose(composed, e)
        # equilibrium posterior (and hence the action) attached to each final signal
        actions_by_signal = []
        for s in range(2):
            lik1, lik0 = composed.rows[1][s], composed.rows[0][s]
            total = p * lik1 + (1 - p) * lik0
            if total == 0:
                actions_by_signal.append(0)
                continue
            actions_by_signal.append(act(p * lik1 / total))
        actions = np.array(actions_by_signal, dtype=np.int8)[signals]

        rows = []
        agents = [s.utility for s in h.senders] + [h.receiver.utility]
        for u in agents:
            table = np.array(
                [[float(u.u00), float(u.u01)], [float(u.u10), float(u.u11)]]
            )
            rows.append(table[states, actions])
    else:
        cut, garbles = experiments[0], experiments[1:]
        if not isinstance(cut, IntervalCut):
            raise ChainError("uniform chains start with an IntervalCut")
        for e in garbles:
            if not isinstance(e, Experiment):
                raise ChainError("intermediaries garble with 2x2 experiments")
        states = rng.random(trials)
        signals = (states >= float(cut.x)).astype(np.int8)
        for e in garbles:
            signals = _propagate(rng, signals, e)
        # posterior mean for each final signal, exactly
        x = cut.x
        cell_prob = [x, 1 - x]
        cell_mean = [x / 2, (x + 1) / 2]
        composed = identity_experiment(2)
        for e in garbles:
            composed = compose(composed, e)
        actions_by_signal = []
        for s in range(2):
            num = sum(cell_prob[c] * composed.rows[c][s] * cell_mean[c] for c in range(2))
            den = sum(cell_prob[c] * composed.rows[c][s] for c in range(2))
            if den == 0:
                actions_by_signal.append(0)
                continue
            actions_by_signal.append(act(num / den))
        actions = np.array(actions_by_signal, dtype=np.int8)[signals]

        rows = []
        agents = [s.utility for s in h.senders] + [h.receiver.utility]
        for u in agents:
            premium = float(u.alpha) * states + float(u.beta)
            rows.append(premium * actions)

    means, errs = [], []
    for sample in rows:
        means.append(float(np.mean(sample)))
        errs.append(float(np.std(sample, ddof=1) / np.sqrt(trials)))
    return McReport(trials=trials, seed=seed, labels=h.labels,
                    means=tuple(means), stderrs=tuple(errs))

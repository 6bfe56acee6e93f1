"""Brute-force verification engine.

Everything here works from raw utilities and exhaustive enumeration — no
pivotal-agent shortcuts — so closed-form solvers can be checked against an
independent route:

* a discretized outcome grid, held as its two coordinate axes: a lattice
  (`build_grid`) or the game's breakpoints (`breakpoint_grid`, on which the
  answers are the continuum's), and the chain of incentive-compatibility
  level sets (which outcomes each intermediary would pass along, given what
  later intermediaries will pass), computed on cell indices (i, j) into
  those axes with one integer value table per seat, over the grid's
  informative core (`_core`, which drops the cells whose posteriors the
  receiver answers as she would the prior),
* grid subgame-perfect equilibrium for the binary game,
* exhaustive mean-pair search for the uniform-state game, over a lattice or
  the game's breakpoint means (`breakpoint_means`), each induced subgame
  answered by the grid equilibrium of a binary stand-in chain,
* a pass-through (simple-equilibrium) check, the same level-set recursion
  run on the outcome's contraction cone, and
* seeded Monte-Carlo signal propagation.

Values are exact: a value table, and the pair search's candidates, hold
exact integer multiples of the rational values (one positive scale per table
or search, see `_value_table` and `solve_general_grid`), and everything else
is an exact rational.  Only Monte Carlo uses floats.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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
from .agents import HierarchySpec, LinearUtility, TableUtility, Utility


class SeedRequired(ChainError):
    """Monte Carlo runs must be reproducible; pass an explicit seed."""


class EmptyLevelSet(ChainError):
    """A level set came out empty; cannot happen (the no-information outcome
    is always passable) unless the chain construction itself is broken."""


# ---------------------------------------------------------------------------
# outcome grid
# ---------------------------------------------------------------------------

def _axes(p: Fraction, points: Iterable[Fraction]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The distinct points at or below p and at or above p, each ascending,
    with p itself closing the first and opening the second."""
    ordered = sorted({*points, p})
    cut = ordered.index(p)
    return tuple(ordered[:cut + 1]), tuple(ordered[cut:])


Cell = tuple[int, int]
Mask = list[list[bool]]
#: the receiver's action at each ``q0s`` and at each ``q1s`` coordinate
Actions = tuple[list[int], list[int]]


@dataclass(eq=False)
class OutcomeGrid:
    """Discretized Bayes-plausible outcome set, held as its two axes.

    Cell (i, j) is the pair (q0s[i], q1s[j]).  The prior closes ``q0s`` and
    opens ``q1s``, so every cell in the last row or the first column is the
    silent (degenerate) outcome; its cell is the corner (len(q0s)-1, 0).
    ``cells()`` lists one cell per distinct outcome in (q0, q1) order: the
    informative cells row-major, then the silent corner.
    """

    prior: BinaryPrior
    q0s: tuple[Fraction, ...]
    q1s: tuple[Fraction, ...]

    def cells(self) -> list[Cell]:
        ni, nj = len(self.q0s), len(self.q1s)
        return [(i, j) for i in range(ni - 1) for j in range(1, nj)] + [(ni - 1, 0)]

    @property
    def outcomes(self) -> Outcomes:
        """The outcome of each of ``cells()``, as a fresh `Outcomes` view."""
        return Outcomes(self, [[True] * len(self.q1s) for _ in self.q0s])

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

    @cached_property
    def geometry(self) -> Geometry:
        """The integer geometry every `_value_table` of this grid shares,
        built on first read.  Only the grids the recursion runs on (`_core`'s)
        are ever read, so it lives as long as one chain or one verdict."""
        p = self.prior.p
        q0s, q1s = self.q0s[:-1], self.q1s[1:]
        clear = lcm(p.denominator, *(q.denominator for q in (*q0s, *q1s)))

        def times(q: Fraction) -> int:
            return q.numerator * (clear // q.denominator)

        at_p = times(p)
        belows, aboves = [at_p - times(q) for q in q0s], [times(q) - at_p for q in q1s]
        widths = {below + above for below in belows for above in aboves}
        span = lcm(*widths)
        scale = {w: span // w for w in widths}
        scales = [[scale[below + above] for above in aboves] for below in belows]
        return Geometry(clear, at_p, belows, aboves, span, scales)


class Geometry(NamedTuple):
    """A grid's offsets from the prior over one common denominator, and the
    scale of each informative cell's chord (`_value_table`).

    ``clear`` is the lcm of the denominators of p and every coordinate, and
    ``at_p`` is p * clear.  ``belows`` holds (p - q0) * clear for each q0 of
    ``q0s[:-1]`` and ``aboves`` (q1 - p) * clear for each q1 of ``q1s[1:]``.
    The cell of row i and column j + 1 has width belows[i] + aboves[j];
    ``span`` is the lcm of the widths that occur, and ``scales[i][j]`` is
    span // width."""

    clear: int
    at_p: int
    belows: list[int]
    aboves: list[int]
    span: int
    scales: list[list[int]]


class Outcomes(Sequence[BinaryOutcome]):
    """The outcomes of the cells of ``grid`` that ``mask``, a mask over the
    whole grid, holds, one per distinct outcome in ``cells()`` order.

    ``len`` counts the mask, which holds each distinct outcome once outside
    its last row and first column and the silent one at the corner, and
    builds nothing.  The outcomes are built on first iteration or indexing,
    once per view."""

    def __init__(self, grid: OutcomeGrid, mask: Mask) -> None:
        self.grid, self.mask = grid, mask

    def __len__(self) -> int:
        return sum(sum(row) - row[0] for row in self.mask[:-1]) + self.mask[-1][0]

    @cached_property
    def _built(self) -> tuple[BinaryOutcome, ...]:
        return self.grid.outcomes_at([(i, j) for i, j in self.grid.cells() if self.mask[i][j]])

    def __getitem__(self, k):
        return self._built[k]

    def __iter__(self) -> Iterator[BinaryOutcome]:
        return iter(self._built)


def build_grid(prior: BinaryPrior, resolution: int) -> OutcomeGrid:
    """The grid whose axes are the lattice k/resolution and the prior.
    Raises ChainError for a resolution below 1."""
    if resolution < 1:
        raise ChainError(f"a lattice needs a resolution of at least 1, got {resolution}")
    lattice = (Fraction(k, resolution) for k in range(resolution + 1))
    return OutcomeGrid(prior, *_axes(prior.p, lattice))


def breakpoint_grid(h: HierarchySpec, *extra: Fraction) -> OutcomeGrid:
    """The grid of a binary chain whose axes are its *breakpoints*: 0, the
    prior, 1 and every agent's indifference belief inside (0, 1), the zero
    -a/b of its gain line a + b q (`_gain_line`); then the points ``extra``.
    No lattice.

    Claim: on any axes that hold the breakpoints, every level set is the
    continuum's (all cells 0 <= q0 <= p <= q1 <= 1) restricted to the grid,
    and player 1's argmax, with the flat cells standing in as silence as in
    `solve_spe_grid`, has the continuum's Blackwell-maximal elements, which
    are breakpoint cells.  It needs seat n's indifference belief to differ
    from the receiver's, which a strict `hierarchy` guarantees.

    (i) Setting.  The receiver's action is a step in q (`_core`), so it
    differs from a(p), her action at the prior, on one side of p only;
    mirroring q -> 1 - q, which maps cones to cones and breakpoints to
    breakpoints, puts that side above p.  There it differs on M = (t, 1] or
    [t, 1], t her indifference belief, closed when the tie rule gives t the
    other action.  A cell is flat unless q0 < p and q1 is in M; flat cells
    are worth the silent value to every seat and are in every level
    (`_core`).  Relative to silence, seat k values a cell c = (x0, x1) that
    is not flat at D(c) = w1 h(x1), where w0, w1 are its weights and h = h_k
    is k's gain from the receiver leaving a(p): plus or minus k's gain line,
    affine, of one sign between consecutive breakpoints.

    (ii) Identity.  With a = 1/(p - x0) and b = 1/(x1 - p), D = (h(p) b +
    h') / (a + b), h' the slope of h, and h(p) = w0 h(x0) + w1 h(x1).  So for
    c' in c's cone, a' = a + da and b' = b + db with da, db >= 0, and
    (a' + b') (D(c') - D(c)) = w0 h(x0) db - w1 h(x1) da.

    (iii) Rows.  For x0 < p let Z_{n+1}(x0) = M and, for k = n..2,
    Z_k = Z_{k+1} & {h_k >= 0} when h_k(x0) <= 0, and otherwise the least
    element of Z_{k+1} if it is in {h_k >= 0} (else empty).  By induction
    from level n+1, which holds every cell: (R_k) a cell (x0, x1) that is
    not flat is in level k iff x1 is in Z_k(x0); (S_k) if two such cells
    c = (x0, x1) and c' = (y0, y1) in its cone are in level k, so is
    (x0, y1).  Step: let c, not flat, be in level k+1.  The silent corner is
    in level k+1 and in c's cone, so c is out if h_k(x1) < 0.  Otherwise no
    flat cell beats c, and by (ii) a c' of level k+1 that is not flat beats
    c only if h_k(x0) > 0 and db > 0, i.e. y1 < x1; then (x0, y1), in level
    k+1 by S_{k+1}, beats c too (da = 0).  That is R_k.  For S_k, (x0, y1) is in
    level k+1 by S_{k+1} and h_k(y1) >= 0 as c' is in level k; so it is in
    level k by R_k when h_k(x0) <= 0, and otherwise y1 = x1, the least
    element of Z_{k+1}(x0).  The proof reads only cells and cones, so it
    holds on any grid as well, with M and the least elements taken there.

    (iv) Levels.  Each Z_k is an interval, and from Z_n down it is closed
    with breakpoint ends: {h_k >= 0} is empty, [0, 1] or a closed interval
    ending at k's belief, and if t is not in M the tie rule gives h_n(t) <= 0, so h_n(t)
    < 0 with the beliefs apart, which keeps {h_n >= 0} off t, while
    h_n(x0) > 0 > h_n(t) puts h_n below 0 on all of M.  So on axes X that
    hold the breakpoints each least element is the continuum's and the
    grid's Z_k is Z_k & X: its levels are the continuum's, restricted.

    (v) Argmax.  Player 1 (h = h_1) takes silence or a cell (x0, z) with z
    in Z_2(x0).  By (ii) with da = 0 or db = 0, D moves in z with the sign
    of -h(x0) and in x0 with that of -h(z), continuously in x0.  For x0 in a
    gap (t_a, t_b) between breakpoints, each h_k(t_a) is h_k(x0)'s sign or
    0, so the recursion at t_a intersects where the gap's takes a least
    element, and by induction Z_2(t_a) holds Z_2(x0), with the same least
    element when that is not empty.  Z_2(x0) is closed with breakpoint ends
    (for n = 1 it is M, and an open end t has h(t) < 0, so no z near t is
    worth silence).  So a cell (x0, z) worth at least silence, h(z) >= 0, is
    beaten or tied by (t_a, z) if x0 is in a gap, tied only when h(z) = 0,
    and by an end of z's gap if z is in one, tied (by the upper end) only
    when h(x0) = 0; a tie holds (x0, z) in its cone.  So the maximum is
    attained on breakpoint cells, every argmax cell lies in the cone of one
    of them, and the Blackwell-maximal ones are breakpoint cells, on every
    grid that holds them."""
    lines = [_gain_line(agent.utility) for agent in (*h.senders, h.receiver)]
    beliefs = [w for a, b in lines if b and 0 < (w := -a / b) < 1]
    return OutcomeGrid(h.prior, *_axes(h.prior.p, (Fraction(0), Fraction(1), *beliefs, *extra)))


# ---------------------------------------------------------------------------
# receiver behavior and raw outcome values
# ---------------------------------------------------------------------------

def _gain_line(u: Utility) -> tuple[Fraction, Fraction]:
    """(a, b) such that u's gain from action 1 at a posterior or mean q is
    a + b * q, read off u's fields."""
    if isinstance(u, LinearUtility):
        return u.beta, u.alpha
    a = u.u01 - u.u00
    return a, (u.u11 - u.u10) - a


def _gain_sign(u: Utility) -> Callable[[Fraction], int]:
    """The sign of u's gain from action 1 at a posterior or mean q, decided on
    integers: with the gain a + b * q (`_gain_line`), at q = n/d (d > 0) it
    has the sign of an * d + bn * n, where an = a.num * b.den and
    bn = b.num * a.den."""
    a, b = _gain_line(u)
    an, bn = a.numerator * b.denominator, b.numerator * a.denominator

    def sign(q: Fraction) -> int:
        g = an * q.denominator + bn * q.numerator
        return (g > 0) - (g < 0)

    return sign


def action_rule(h: HierarchySpec) -> Callable[[Fraction], int]:
    """Receiver's action as a function of the posterior (binary game) or the
    posterior mean (uniform game).  When she is exactly indifferent she takes
    the last sender's preferred action there, falling back to 0 if that
    sender is indifferent too, which is the information-preserving direction
    in the canonical frame."""
    sign = _gain_sign(h.receiver.utility)
    tie = _gain_sign(h.senders[-1].utility)

    def act(q: Fraction) -> int:
        return 1 if (sign(q) or tie(q)) > 0 else 0

    return act


def outcome_value(u: TableUtility, out: BinaryOutcome, act: Callable[[Fraction], int]) -> Fraction:
    """Expected utility of a table agent given an outcome, straight from the
    definition (no rearrangement): weight each posterior cell by the payoff of
    the receiver's action there."""
    cells = [(out.p, Fraction(1))] if out.degenerate else [(out.q0, out.w0), (out.q1, out.w1)]
    total = Fraction(0)
    for q, w in cells:
        a = act(q)
        total += w * (q * u.value(1, a) + (1 - q) * u.value(0, a))
    return total


def _receiver_actions(h: HierarchySpec, grid: OutcomeGrid) -> Actions:
    """The receiver's action at each ``q0s`` and at each ``q1s`` coordinate,
    each decided once per chain."""
    act = action_rule(h)
    return [act(q) for q in grid.q0s], [act(q) for q in grid.q1s]


def _value_table(u: TableUtility, actions: Actions, grid: OutcomeGrid) -> list[list[int]]:
    """c * `outcome_value` of every cell, as exact integers, for one constant
    c > 0 per table; ``actions`` is `_receiver_actions` of the grid.

    Cell (i, j) is worth (above * low + below * high) / w, where below = p - q0,
    above = q1 - p, w = below + above and low, high are the payoffs at q0 and
    q1 (the concavification chord).  Everything but the payoffs is the
    grid's `Geometry`, built once and shared by every seat: the offsets
    below and above over the common denominator C of p and the coordinates,
    and each cell's scale L // w, with L the lcm of the widths w in those
    units.  A table adds only the seat's payoffs, over d = C * U, U the
    common denominator of the four entries of u's table: with s(a) =
    (u(1, a) - u(0, a)) * U, payoff(p, a) * d = u(0, a) * U * C + (p * C) *
    s(a), and low = payoff(p, a) * d - below * s(a), high = payoff(p, a) * d
    + above * s(a), so no payoff is built as a `Fraction`.  The cell is
    (above * low + below * high) * (L // w) = d * L * value, and a silent
    cell is payoff(p) * d * L.  Every reader compares entries of one table
    only, so the scale never shows.

    On `build_grid`'s lattices every informative cell has lattice endpoints,
    so its width is k/G (cells with p as a coordinate are silent) and L is at
    most (C/G) * lcm(1..G).  lcm(1..G) has 136 bits at G = 100; on the 200
    binary-verify benchmark games, whose payoffs and prior are hundredths, L
    reaches 136 bits and an entry 149.  On a `breakpoint_grid` of a chain
    with n senders and e extra points each axis holds at most n + 3 + e
    coordinates (0, p, 1, the n + 1 indifference beliefs and the extra
    points), so at most (n + 2 + e)^2 widths occur, each a positive integer
    at most C, and L <= C^((n+2+e)^2).  On the seed-3003 uniform draws at
    G = 200 no stand-in entry exceeds 57 bits.
    """
    geometry = grid.geometry
    lows, highs = actions
    unit = lcm(*(u.value(s, a).denominator for s in (0, 1) for a in (0, 1)))

    def times(x: Fraction) -> int:
        """x * unit, for an x whose denominator divides unit."""
        return x.numerator * (unit // x.denominator)

    slope = [times(u.value(1, a) - u.value(0, a)) for a in (0, 1)]
    pay_at_p = [times(u.value(0, a)) * geometry.clear + geometry.at_p * slope[a] for a in (0, 1)]
    low_pay = [pay_at_p[a] - below * slope[a] for below, a in zip(geometry.belows, lows)]
    aboves = geometry.aboves
    high_pay = [pay_at_p[a] + above * slope[a] for above, a in zip(aboves, highs[1:])]
    silent = pay_at_p[lows[-1]] * geometry.span
    table = [
        [silent] + [(above * low + below * high) * scale
                    for above, high, scale in zip(aboves, high_pay, scales)]
        for below, low, scales in zip(geometry.belows, low_pay, geometry.scales)
    ]
    table.append([silent] * len(grid.q1s))
    return table


# ---------------------------------------------------------------------------
# incentive-compatibility chain
# ---------------------------------------------------------------------------

def _core(
    grid: OutcomeGrid, actions: Actions
) -> tuple[OutcomeGrid, Actions, Callable[[Mask], Mask]]:
    """The grid's informative core, the receiver's actions on it, and the map
    from a level or garble-proof mask over the core to the same mask over the
    grid.  ``actions`` is `_receiver_actions` of the grid.

    Call a coordinate *prior-like* when the receiver answers it with her
    action at the prior, a(p), and a cell *flat* when both its coordinates
    are.  The core drops every prior-like coordinate but p.  When some
    ``q1s`` coordinate is not prior-like it keeps every row, and the columns
    of p and of those coordinates; otherwise it keeps every column, and the
    rows of p and of the ``q0s`` coordinates that are not prior-like (p
    alone on a grid the receiver answers with one action).  Exact:

    * The receiver's action is a step in q: her gain is affine, so its sign
      moves one way only along q, and the tie rule picks one action at the
      crossing.  So the coordinates that are not prior-like lie on one side
      of p only, a prefix of ``q0s`` or a suffix of ``q1s``, and every cell
      the core drops is flat.  The core keeps the prior, and the kept
      coordinates keep their order, so its silent cells are the grid's.
    * For a flat cell (q0, q1), a(q) = a(p) for every q0 <= q <= q1: a step
      that agrees at both ends agrees between them.  Payoffs are linear in
      q, so every seat values the cell at its payoff at p under a(p), which
      is the silent value table[-1][0], the floor.
    * Every cell in a flat cell's contraction cone has its coordinates
      between the flat cell's, so it is flat and worth the floor too.  A flat
      cell is thus worth its cone's maximum over any subset of the cone that
      holds it, so by induction from seat n it is in every level, and it is
      garble-proof: the dropped cells are True in every mask.
    * The core keeps the prior and each kept coordinate's action, so, by
      `_passed_unchanged`'s argument, each of its value tables is the grid's
      restricted to the core, times one positive constant.
    * A kept cell's cone in the grid is its cone in the core plus dropped
      cells, which are in every level and worth the floor.  Its cone in the
      core holds the silent corner, which is in every level and worth the
      floor as well, so the dropped cells raise no cone maximum, over a
      level or over the whole cone.  So every kept cell's member and
      garble-proof masks are the grid's.

    The expansion thus copies the core's masks and fills the dropped cells
    with True: a ``[True] * len(q1s)`` row per dropped row, or each core row
    with the dropped columns put after its first entry (the silent column,
    True in every mask)."""
    lows, highs = actions
    at_p = lows[-1]
    ni, nj = len(grid.q0s), len(grid.q1s)
    top = nj - highs[::-1].index(at_p)  # q1s[top:] are not prior-like
    if top < nj:
        core = OutcomeGrid(grid.prior, grid.q0s, grid.q1s[:1] + grid.q1s[top:])

        def expand(mask: Mask) -> Mask:
            return [[True] * top + row[1:] for row in mask]

        return core, (lows, highs[:1] + highs[top:]), expand
    k = lows.index(at_p)  # q0s[:k] are not prior-like
    core = OutcomeGrid(grid.prior, grid.q0s[:k] + grid.q0s[-1:], grid.q1s)

    def expand(mask: Mask) -> Mask:
        return mask[:-1] + [[True] * nj for _ in range(ni - 1 - k)] + mask[-1:]

    return core, (lows[:k] + lows[-1:], highs), expand


@dataclass(eq=False)
class IcChain:
    """Level sets of outcomes each intermediary passes along, held as cell
    masks over the grid's informative core (`_core`).

    ``levels[i]`` holds the outcomes sender i would deliver unchanged given
    that senders i+1..n behave likewise (computed back from the receiver);
    level sets shrink toward the front of the chain.  ``garble_proof`` is the
    stricter set no intermediary would garble *regardless* of what later
    players tolerate — a strict subset in general, which is exactly why the
    recursion matters.  Both are `Outcomes` views, in the grid's ``cells()``
    order, whose ``mask`` is the set's mask over the whole grid, expanded
    from the core's on first read.  ``garble_proof`` is itself built on
    first read, from a fresh value table of each of seats n..2 of ``h`` on
    the core: the equilibrium and the verifier never read it, so a chain
    that is only solved pays for the levels alone.  ``core_masks`` are the
    level masks over ``core``, ``actions`` is `_receiver_actions` of the
    core, decided once per chain, and ``expand`` is `_core`'s expansion.
    """

    h: HierarchySpec
    grid: OutcomeGrid
    core: OutcomeGrid
    actions: Actions
    core_masks: dict[int, Mask]
    expand: Callable[[Mask], Mask]

    @cached_property
    def levels(self) -> dict[int, Outcomes]:
        return {idx: Outcomes(self.grid, self.expand(mask))
                for idx, mask in self.core_masks.items()}

    @cached_property
    def garble_proof(self) -> Outcomes:
        """The garble-proof cells: no intermediary strictly favours any
        contraction, credible or not, over the cell itself."""
        every = proof = [[True] * len(self.core.q1s) for _ in self.core.q0s]
        for idx in range(self.h.n, 1, -1):
            table = _value_table(self.h.senders[idx - 1].utility, self.actions, self.core)
            proof = _cone_sweep(table, every, proof)
        return Outcomes(self.grid, self.expand(proof))


def _cone_sweep(table: list[list[int]], within: Mask, keep: Mask) -> Mask:
    """The cells (i, j) that ``keep`` holds and whose entry is the largest
    over the ``within`` cells of their contraction cone: cells with weakly
    higher q0 index and weakly lower q1 index.  One bottom-up sweep.

    The running maximum starts from the silent corner's entry table[-1][0],
    the floor, and the cells outside ``within`` count as the floor.  That is
    exact when ``within`` holds every silent cell (last row and first
    column): the corner lies in every cone, so the maximum over the
    ``within`` cells is at least the floor and the floor never raises it.
    `_level_sets` passes level k+1 as both masks, which holds every silent
    cell because a silent cell's cone holds only silent cells, all worth the
    same; the garble-proof set passes every cell as ``within``."""
    floor = table[-1][0]
    below = [floor] * len(table[0])
    out = []
    for values, inside, kept in zip(reversed(table), reversed(within), reversed(keep)):
        best = floor
        row, flags = [], []
        for v, down, w, k in zip(values, below, inside, kept):
            if down > best:
                best = down
            if w and v > best:
                best = v
            row.append(best)
            flags.append(k and v == best)
        out.append(flags)
        below = row
    out.reverse()
    return out


def _level_sets(
    h: HierarchySpec, grid: OutcomeGrid, actions: Actions, first_seat: int
) -> Iterator[tuple[int, Mask]]:
    """The level-set recursion, seat n down to first_seat: yields each seat
    and the member mask of its level.  A cell stays in level k when it is in
    level k+1 and seat k values it at least as much as every cell of level
    k+1 in its contraction cone, so the masks only shrink.  ``actions`` is
    `_receiver_actions` of the grid.  One value table and one `_cone_sweep`
    per seat."""
    member = [[True] * len(grid.q1s) for _ in grid.q0s]
    for idx in range(h.n, first_seat - 1, -1):
        table = _value_table(h.senders[idx - 1].utility, actions, grid)
        member = _cone_sweep(table, member, member)
        yield idx, member


def ic_chain(h: HierarchySpec, grid: OutcomeGrid) -> IcChain:
    """Build the level-set chain for a binary-state hierarchy on the grid:
    one value table per seat n..2, each over the grid's informative core
    (`_core`); the garble-proof set waits until read."""
    core, actions, expand = _core(grid, _receiver_actions(h, grid))
    masks: dict[int, Mask] = {}
    for idx, member in _level_sets(h, core, actions, 2):
        if not any(map(any, member)):
            raise EmptyLevelSet(f"level {idx} is empty")
        masks[idx] = member
    return IcChain(h=h, grid=grid, core=core, actions=actions, core_masks=masks, expand=expand)


def solve_spe_grid(
    h: HierarchySpec,
    grid: OutcomeGrid,
    chain: Optional[IcChain] = None,
) -> list[BinaryOutcome]:
    """Equilibrium outcomes of the grid game: player 1's best pick among what
    the rest of the chain will pass, keeping only the Blackwell-maximal
    elements of the argmax (less informative payoff-ties are discarded).
    ``chain``, when given, must be ``ic_chain(h, grid)``.

    The argmax runs over the level-2 cells of the chain's core (`_core`).
    The cells the core drops are those whose two posteriors the receiver
    answers with her action at the prior: informative in name only, each is
    worth the silent value to player 1 too, so the silent corner, which the
    core keeps, stands for them all, and every kept informative cell really
    moves her action."""
    if chain is None:
        chain = ic_chain(h, grid)
    core = chain.core
    cells = core.cells()
    if 2 in chain.core_masks:
        member = chain.core_masks[2]
        cells = [(i, j) for i, j in cells if member[i][j]]
    if not cells:
        raise EmptyLevelSet("no passable outcome for player 1")
    value = _value_table(h.senders[0].utility, chain.actions, core)
    best = max(value[i][j] for i, j in cells)
    arg = [(i, j) for i, j in cells if value[i][j] == best]
    # cells are ordered like their coordinates, so the staircase runs on them
    return list(core.outcomes_at(_staircase(arg)))


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
    The masks only shrink, so the scan stops at the first seat that drops c.

    The recursion runs on c's cone alone: the sub-grid with axes
    q0s[i:] and q1s[:j + 1], in which c = (i, j) is cell (0, j).  Exact:

    * The cone of (i, j) is rows i.. times columns ..j, and the cone of any
      cell inside it stays inside it.  Whether a cell is in level k depends
      on its membership in level k+1 and on the cells of level k+1 in its
      cone, so by induction from seat n, c's membership in every level
      depends only on the cells of c's cone.
    * The sub-grid keeps the prior (it closes q0s[i:] and opens q1s[:j + 1]),
      so its silent cells are the cone's silent cells.  The receiver's action
      is decided per coordinate, so each coordinate keeps its action.
    * Each `_value_table` entry is d * L * (the cell's value), where d and L
      depend on which coordinates occur, so a sub-grid table is the full
      table restricted to the cone, times one positive constant.  Every
      comparison the recursion makes is between entries of one table.

    So every comparison, and every member mask, is the full grid's one
    restricted to the cone.  The uniform verifier asks about (0, last) of
    the whole stand-in grid, whose cone is the grid itself.

    Within the cone the recursion runs on the cone's core (`_core`).  A cell
    the receiver answers with one action is flat (her action is a step, so
    that action is a(p)): it is in every level and passes at once.  Any other cell is in the core, which keeps every
    coordinate that is not prior-like and the whole other axis, so c is the
    core's cell (0, last column), and its masks are the cone's."""
    if first_seat > h.n:
        return True  # no seat is left to garble c, and no tie rule to build
    i, j = cell
    cone = OutcomeGrid(grid.prior, grid.q0s[i:], grid.q1s[:j + 1])
    lows, highs = actions = _receiver_actions(h, cone)
    if lows[0] == highs[-1]:
        return True
    core, actions, _ = _core(cone, actions)
    last = len(core.q1s) - 1
    return all(member[0][last] for _, member in _level_sets(h, core, actions, first_seat))


def _stand_in(h: HierarchySpec, m0: Fraction, m1: Fraction) -> tuple[HierarchySpec, OutcomeGrid]:
    """Binary-state stand-in for the subgame after player 1 induces means
    m0 < 1/2 < m1, and its `breakpoint_grid`.  In the stand-in, state s is
    the cell with mean m_s, and each later agent's payoff is its action-1
    premium at that mean (action-0 payoff normalized away).  An agent with
    crossing w has the gain line g(m0) + (g(m1) - g(m0)) q there, so the
    axes hold 0, the stand-in's prior, 1 and each crossing of seats 2..n and
    the receiver inside (m0, m1), mapped to (w - m0)/(m1 - m0).  The proof
    there makes the stand-in's answer its continuum answer."""
    zero = Fraction(0)

    def as_table(u: LinearUtility) -> TableUtility:
        return TableUtility(zero, zero, u.gain_of_action1(m0), u.gain_of_action1(m1))

    p_sub = BinaryPrior((HALF - m0) / (m1 - m0))
    senders = tuple(type(s)(utility=as_table(s.utility), label=s.label) for s in h.senders[1:])
    receiver = type(h.receiver)(utility=as_table(h.receiver.utility), label=h.receiver.label)
    sub = HierarchySpec(senders=senders, receiver=receiver, prior=p_sub)
    return sub, breakpoint_grid(sub)


def verify_simple_equilibrium(
    h: HierarchySpec,
    eq,
    grid: Optional[OutcomeGrid] = None,
) -> bool:
    """Check that an equilibrium outcome really is a pass-through equilibrium:
    player 1 can realize it alone, and no intermediary would garble it given
    grid best responses downstream.

    ``eq`` may be a solver report (anything with .outcome or .support) or a
    raw outcome.  ``grid`` is a binary game's grid; when it is omitted, a
    binary outcome is checked on `breakpoint_grid` with its own posteriors
    added, which gives its cell the continuum's verdict.  For uniform-state
    hierarchies a support no cut induces fails, one with a mean at 1/2 is
    silence and passes, and any other is scanned in the induced subgame on
    the stand-in's breakpoint grid (`_stand_in`), whatever ``grid`` is.
    """
    outcome = getattr(eq, "outcome", eq)
    if isinstance(outcome, BinaryOutcome):
        support = outcome.support()
    else:
        support = tuple(as_ratio(x) for x in getattr(outcome, "support", outcome))
    if h.is_binary:
        if not isinstance(outcome, BinaryOutcome):
            outcome = make_outcome(support[0], support[-1], h.prior)
        if grid is None:
            grid = breakpoint_grid(h, outcome.q0, outcome.q1)
        if outcome.p != grid.prior.p:
            return False
        # (i) the outcome is realizable as player 1's experiment (identity
        # pass-through composes to the same experiment); weights off the
        # support's Bayes-plausible ones can invert to no experiment at all
        try:
            if outcome_of_experiment(grid.prior, experiment_of_outcome(outcome)) != outcome:
                return False
        except OrderViolation:
            return False
        # (ii) no intermediary strictly gains by garbling, given that
        # successors best-respond on the grid
        cell = grid.cell_of(outcome)
        return cell is not None and _passed_unchanged(h, grid, 2, cell)

    # uniform-state game: outcome is a pair of means (or a degenerate mean)
    m0, m1 = support[0], support[-1]
    if not mpc_feasible_uniform(m0, m1):
        return False
    if HALF in (m0, m1):
        return True  # all weight on 1/2: silence, which no one can garble
    sub, sub_grid = _stand_in(h, m0, m1)
    # full information is cell (0, len(q1s) - 1); scan every intermediary of
    # the original chain (all senders of the stand-in); the cut itself is
    # always realizable
    return _passed_unchanged(sub, sub_grid, 1, (0, len(sub_grid.q1s) - 1))


# ---------------------------------------------------------------------------
# exhaustive search for the uniform-state game
# ---------------------------------------------------------------------------

def _respond_to_means(
    h: HierarchySpec,
    m0: Fraction,
    m1: Fraction,
) -> list[tuple[Fraction, Fraction, int]]:
    """What the receiver ends up seeing and doing if player 1 induces means
    (m0, m1): a list of (cell mean, weight, receiver action).  Intermediaries
    2..n respond with the grid equilibrium of the binary stand-in on its
    breakpoint grid (`_stand_in`), mapped back by d = m0 + q (m1 - m0)."""
    act = action_rule(h)
    at_prior = act(HALF)
    silence = [(HALF, Fraction(1), at_prior)]
    if not m0 < HALF < m1 or not m0 <= h.receiver.utility.crossing <= m1:
        # all weight on one mean, or one action at every mean of [m0, m1]
        return silence
    d0, d1 = m0, m1  # a lone sender's cut reaches the receiver as it is
    if h.n > 1:
        sub, grid = _stand_in(h, m0, m1)
        spe = solve_spe_grid(sub, grid)
        if len(spe) != 1:
            raise ChainError(f"the stand-in for ({m0}, {m1}) has {len(spe)} equilibria: {spe}")
        out = spe[0]
        if out.degenerate:
            return silence
        d0, d1 = m0 + out.q0 * (m1 - m0), m0 + out.q1 * (m1 - m0)
    a0, a1 = act(d0), act(d1)
    if a0 == a1 == at_prior:
        return silence
    return [(d0, (d1 - HALF) / (d1 - d0), a0), (d1, (HALF - d0) / (d1 - d0), a1)]


def _means_value(u: LinearUtility, cells: list[tuple[Fraction, Fraction, int]]) -> Fraction:
    """A sender's value of a `_respond_to_means` answer, as a `Fraction`: the
    reference for the integer values of `solve_general_grid`."""
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


def breakpoint_means(h: HierarchySpec) -> tuple[Fraction, ...]:
    """The mean axis on which `solve_general_grid` answers a uniform chain
    with no lattice.  Its *points* are the means in [0, 1] among 0, 1/2 and
    1; each crossing w of seats 2..n and of the receiver, w - 1/2 and
    w + 1/2; and v, half of player 1's crossing, and v + 1/2.  The axis is
    the points in order with one midpoint between each two neighbours, so
    the points are ``means[::2]``.

    Call the crossings and 1/2 the *marks*: a mean's place (its signs
    against the marks, `solve_general_grid`) is a mark, or an open gap
    between neighbouring marks, closed at 0 or 1 where those end it.

    (a) Every order type of a feasible pair m0 <= 1/2 <= m1 <= m0 + 1/2 has
    a pair of axis means.  Let x0 be the largest axis mean in m0's place and
    x1 the smallest in m1's: each place holds a point or a midpoint.  For an
    axis mean t, t <= m0 gives t <= x0, and t >= m1 gives t >= x1.  The
    marks are points, and every mark b's shifts b - 1/2, b + 1/2 inside
    [0, 1] are points too.  If m1 is a mark, m1 - 1/2 <= m0 is a point, so
    x1 = m1 <= x0 + 1/2; if m0 is, m0 + 1/2 >= m1 is a point, so
    x1 <= m0 + 1/2 = x0 + 1/2.  Otherwise m0 lies in a gap ending at a mark
    b <= 1/2 and m1 in one starting at a mark c >= 1/2, so x0 = (p + b)/2
    for p the last point below b and x1 = (c + q)/2 for q the first point
    above c.  Since c - 1/2 < m0 < b and b + 1/2 > m1 > c, both shifts are
    points between, so p >= c - 1/2, q <= b + 1/2 and x1 - x0 <= 1/2: the
    midpoints of the gaps line up on the cut edge m1 = m0 + 1/2.

    (b) On each block (`solve_general_grid`) the supremum of player 1's
    value lies on a pair of points of the block's closure.  The block fixes
    which means are delivered and their actions, so one formula V gives the
    value on all of it: a constant, or, by (iii) there with player 1's gain
    g, monotone in each delivered mean while the other stays put.  In the
    closure m0 runs between the ends a <= b of its place and above
    m1 - 1/2, and m1 between the ends c <= d of its place and below
    m0 + 1/2; the ends are marks, 0 or 1.  A mean that is not delivered
    moves V not at all, so put such an m0 at b and such an m1 at c, which
    keeps the pair feasible.  Then move a delivered m0 the way V rises: it
    stops at a, b or m1 - 1/2.  If that is a point t (so always when m1
    sits at c), move a delivered m1 the same way: it stops at c, d or
    t + 1/2, all points.  Otherwise both means are delivered and the pair
    is on the cut edge m1 = m0 + 1/2, where V is 2 (1/2 - m0) g(m0 + 1/2)
    for actions (0, 1) and 2 m0 g(m0) for (1, 0): either way a quadratic in
    m0 with its vertex at v.  On the edge's segment, whose ends are among
    a, b, c - 1/2 and d - 1/2, it peaks at an end or at v, each the m0 of a
    pair (t, t + 1/2) of points.  No move lowers V.

    (c) Attainment is checked, not proved.  The pair found in (b) may lie
    on an open face of the block's closure, in a block with another answer,
    so the block approaches its supremum without attaining it, and the
    continuum has no best pair there.  A lattice search would then find its
    best pair in that block one lattice step off an axis point, and the
    search at 1/L, L the lcm of the points' denominators, would differ from
    the one at 1/(2L); the acceptance suite checks that they agree with the
    search on this axis on off-lattice draws.  The step `solve_general_grid`
    leaves open (seat 2's argmax within an order type) is open here too."""
    crossings = [a.utility.crossing for a in (*h.senders[1:], h.receiver)]
    vertex = h.senders[0].utility.crossing / 2
    candidates = {Fraction(0), HALF, Fraction(1), vertex, vertex + HALF,
                  *(w + shift for w in crossings for shift in (-HALF, 0, HALF))}
    points = sorted(m for m in candidates if 0 <= m <= 1)
    return tuple(sorted((*points, *((a + b) / 2 for a, b in zip(points, points[1:])))))


def solve_general_grid(
    h: HierarchySpec, means: Union[int, Sequence[Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Exhaustive search over player 1's mean pairs on one axis, each
    answered by the induced subgame; returns the Blackwell-maximal argmax
    supports (a degenerate result is reported as (1/2, 1/2)).  ``means`` is
    an int G >= 2, for the lattice k/G (the dense reference; a smaller G
    raises ChainError), or a sorted axis of means in [0, 1] such as
    ``breakpoint_means(h)``, on which the answer is the continuum's.

    The subgame is answered once per *order type*, not once per pair.  Let
    w range over the crossings of seats 2..n and of the receiver (w_r).  The
    order type of (m0, m1) is the sign of m0 - w and of m1 - w for every w,
    with the sign of m0 - 1/2 and of m1 - 1/2.  Claim: over the pairs of one
    order type, ``_respond_to_means`` is either always silence or always two
    cells whose means are the same two of {m0, m1, the crossings}, each with
    the same receiver action; only the weights depend on the pair.

    Proof.  The search keeps m0 <= 1/2 <= m1.  ``_respond_to_means`` answers
    silence unless m0 < 1/2 < m1 and m0 <= w_r <= m1, signs of the type, and
    delivers (m0, m1) itself when n = 1.  Otherwise phi(x) = (x - m0)/(m1 - m0)
    is increasing and affine, and the answer is the grid equilibrium of the
    stand-in (`_stand_in`), in which an agent's gain at belief q is its gain g
    at the mean phi^-1(q), g being affine.  Three things are fixed by the type:

    (i) The stand-in's axes and their order.  They hold phi of m0, m1, 1/2 and
    of each crossing w with m0 < w < m1; which crossings enter is a sign of
    the type, and since phi is increasing two coordinates compare as their
    preimages do: a sign of the type, or fixed by the game.  So the cells,
    labelled by those preimages, are the same for every pair of the type, and
    d = m0 + q (m1 - m0) maps each coordinate back to its label exactly.

    (ii) The receiver's action at each coordinate, tie rule included.  At
    phi(x) it is the sign of the receiver's g at x, or where that is zero the
    sign of seat n's g at x (the stand-in's last sender is seat n).  The sign
    of an affine g at x = m0 or m1 is the sign of x - w times g's slope, for w
    its crossing: a sign of the type; at 1/2 or a crossing it is fixed by the
    game.  The same holds for the actions at the delivered means and at 1/2
    that the silence test reads.

    (iii) The direction in which each seat's chord value moves along each
    coordinate within an action block.  The receiver's gain is affine, so her
    action is monotone in the mean, and every cell she does not answer with
    one action has the same action pattern.  With pattern (0, 1) seat k values
    cell (x0, x1) at V = (1/2 - x0) g(x1) / (x1 - x0); dV/dx0 has the sign of
    -g(x1) and dV/dx1 that of -g(x0).  With pattern (1, 0), V = (x1 - 1/2)
    g(x0) / (x1 - x0), and the signs are those of g(x1) and g(x0).  Each is
    the sign of g at a coordinate, fixed by the type as in (ii).  A cell the
    receiver answers with one action a is worth a * g(1/2), by linearity.

    What (i)-(iii) do not close.  The level masks and the argmax compare a
    seat's values of two cells.  Such a comparison is fixed by the type when
    both cells are made of crossings and 1/2 alone; when one is answered with
    one action (the other's value minus a * g(1/2) is minus its weight times
    g at one coordinate); and when the two share a coordinate (the other moves
    within one pattern, in the direction of (iii)).  Two informative cells
    with no coordinate in common, one holding m0 or m1, are ordered by
    magnitudes that move with the pair, and nothing here shows that such a
    comparison never decides the argmax differently within one type.  It
    never decides a level: by (iii) of `breakpoint_grid`, each level is read
    off the signs of gains at coordinates and the coordinates' order, which
    (i) and (ii) fix.  The argmax step is checked, not proved:
    `test_matches_the_per_pair_search` answers every pair of a lattice, and
    of a lattice with uneven means added, with its own stand-in and requires
    the same supports.

    The pairs of one order type form a *block*.  The place of an axis mean
    is its tuple of signs against every crossing and against 1/2, so the
    order type of a pair of axis means is their two places.  Runs lemma: on
    any sorted axis the means of one place are a run of consecutive indices.
    Each sign of m - w only moves from -1 to 0 (at m = w, if w is on the
    axis) to 1 as m grows, so the place is nondecreasing entrywise along the
    axis, and a mean between two means of one place has that place too.  So
    an order type is a run R0 of m0 indices (all at or below 1/2, since 1/2
    is a mark) times a run R1 of m1 indices (all at or above 1/2), cut by
    m1 <= m0 + 1/2; the block is empty when min R1's mean exceeds max R0's
    by more than 1/2.  By the claim, within a block the positions of the two
    delivered means among (m0, m1, crossings...) and their actions are fixed:
    a delivered m0 moves with its own index alone, a delivered m1 with its
    own, and a delivered crossing not at all.  So player 1's value and the
    reported support depend on m0 only if it is delivered, and on m1 only
    if it is.  A block that delivers neither (silence included) gives one
    candidate.  When only m0 is delivered, each m0 of R0 from the first that
    min R1 can reach pairs with min R1; when only m1 is, each m1 of R1 that
    max R0 reaches pairs with max R0, the m0 with the widest feasible range.
    Only a block that delivers both is visited pair by pair.  Reach is a
    `bisect` of the axis at m0 + 1/2 or m1 - 1/2.

    Values are exact integers compared by cross-multiplication.  With
    C = lcm(2, the axis's denominators (G for a lattice), the crossings'
    denominators), every mean m here is held as the int X = C * m, and 1/2
    as H = C/2; a lattice is the ints ``range(0, C + 1, C // G)``.  Player
    1's gain alpha * m + beta is held as
    gain(X) = (A * alpha) * X + (A * beta) * C = C * A times it,
    for A the lcm of alpha's and beta's denominators, and as 0 where the
    receiver acts 0.  A pair delivering X0 < X1 is worth
    ((X1 - H) * gain(X0) + (H - X0) * gain(X1)) / (X1 - X0) over C * A,
    silence gain(H) / 1 over C * A; so num_a * den_b against num_b * den_a
    orders two candidates exactly as their values, with no Fraction per pair
    and no common denominator whose size would need a bound.
    """
    if not isinstance(h.prior, UniformPrior):
        raise ChainError("exhaustive mean search needs the uniform prior")
    crossings = tuple(a.utility.crossing for a in (*h.senders[1:], h.receiver))
    # every mean m below is the int scale * m
    if isinstance(means, int):
        if means < 2:
            raise ChainError(f"the mean lattice needs a resolution of at least 2, got {means}")
        scale = lcm(2, means, *(w.denominator for w in crossings))
        xs: Sequence[int] = range(0, scale + 1, scale // means)
    else:
        scale = lcm(2, *(m.denominator for m in (*crossings, *means)))
        xs = [m.numerator * (scale // m.denominator) for m in means]
    half = scale // 2
    walls = [w.numerator * (scale // w.denominator) for w in crossings]
    places = [tuple((x > w) - (x < w) for w in (*walls, half)) for x in xs]
    cuts = [k for k in range(1, len(xs)) if places[k] != places[k - 1]]
    runs = list(zip([0, *cuts], [k - 1 for k in cuts] + [len(xs) - 1]))
    alpha, beta = h.senders[0].utility.alpha, h.senders[0].utility.beta
    unit = lcm(alpha.denominator, beta.denominator)
    slope = alpha.numerator * (unit // alpha.denominator)
    offset = beta.numerator * (unit // beta.denominator) * scale

    def gain(x: int, a: int) -> int:
        return slope * x + offset if a else 0

    def candidates() -> Iterator[tuple[int, int, tuple[int, int]]]:
        """(num, den, support) of player 1's candidates, block by block."""
        for lo0, hi0 in runs:
            if xs[lo0] > half:
                break
            for lo1, hi1 in runs:
                if xs[lo1] > xs[hi0] + half:
                    break
                if xs[hi1] < half:
                    continue
                first = max(lo0, bisect_left(xs, xs[lo1] - half))
                m0, m1 = Fraction(xs[first], scale), Fraction(xs[lo1], scale)
                cells = _respond_to_means(h, m0, m1)
                delivered = _delivered(cells, (m0, m1, *crossings))
                if delivered is None:
                    yield gain(half, cells[0][2]), 1, (half, half)
                    continue
                i0, i1 = delivered
                a0, a1 = cells[0][2], cells[1][2]
                for k0 in range(first, hi0 + 1) if 0 in delivered else (hi0,):
                    top = min(hi1, bisect_right(xs, xs[k0] + half) - 1) if 1 in delivered else lo1
                    for k1 in range(lo1, top + 1):
                        at = (xs[k0], xs[k1], *walls)
                        x0, x1 = at[i0], at[i1]
                        num = (x1 - half) * gain(x0, a0) + (half - x0) * gain(x1, a1)
                        yield num, x1 - x0, (x0, x1)

    best: Optional[tuple[int, int]] = None
    arg: dict[tuple[int, int], None] = {}
    for num, den, key in candidates():
        if best is None or num * best[1] > best[0] * den:
            best, arg = (num, den), {key: None}
        elif num * best[1] == best[0] * den:
            arg[key] = None
    return [(Fraction(x0, scale), Fraction(x1, scale)) for x0, x1 in _staircase(arg)]


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


def monte_carlo(
    h: HierarchySpec,
    experiments: Sequence[Union[Experiment, IntervalCut]],
    trials: int,
    seed: Optional[int] = None,
) -> McReport:
    """Simulate the chain: draw states, push signals through the experiment
    profile, apply the receiver's threshold behavior, and average realized
    utilities per agent (with standard errors).

    Both families run one path.  The state falls in one of two cells, each
    with a probability and a mean of the state: in the binary game the two
    states, (1 - p, 0) and (p, 1); in the uniform game the two sides of
    player 1's cut x, (x, x/2) and (1 - x, (x + 1)/2).  The cell is the first
    signal, and every later experiment garbles it (in the binary game every
    experiment, in the uniform game every one after the `IntervalCut`), so
    one loop propagates the signals and composes the garblings into pi.  The
    receiver acts on the mean of the state given the final signal s, one
    exact Bayes step: sum_c P(c) pi(s|c) m_c / sum_c P(c) pi(s|c).  A signal
    that is never sent gets action 0; it is never realized."""
    import numpy as np

    if seed is None:
        raise SeedRequired("pass an integer seed; runs must be reproducible")
    if len(experiments) != h.n:
        raise ChainError(f"need one experiment per sender ({h.n}), got {len(experiments)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if h.is_binary:
        p, garbles = h.prior.p, experiments
        cells = ((1 - p, Fraction(0)), (p, Fraction(1)))
        states = signals = (rng.random(trials) < float(p)).astype(np.int8)
    else:
        cut, garbles = experiments[0], experiments[1:]
        if not isinstance(cut, IntervalCut):
            raise ChainError("uniform chains start with an IntervalCut")
        x = cut.x
        cells = ((x, x / 2), (1 - x, (x + 1) / 2))
        states = rng.random(trials)
        signals = (states >= float(x)).astype(np.int8)
    composed = identity_experiment(2)
    for e in garbles:
        if not isinstance(e, Experiment):
            raise ChainError("each garbling must be a 2x2 Experiment")
        to_one = np.array([float(row[1]) for row in e.rows])
        signals = (rng.random(trials) < to_one[signals]).astype(np.int8)
        composed = compose(composed, e)
    act = action_rule(h)
    by_signal = []
    for s in range(2):
        weights = [prob * row[s] for (prob, _), row in zip(cells, composed.rows)]
        total = sum(weights)
        by_signal.append(act(sum(w * m for w, (_, m) in zip(weights, cells)) / total) if total else 0)
    actions = np.array(by_signal, dtype=np.int8)[signals]

    means, errs = [], []
    for u in (*(s.utility for s in h.senders), h.receiver.utility):
        if isinstance(u, TableUtility):
            table = np.array([[float(u.u00), float(u.u01)], [float(u.u10), float(u.u11)]])
            sample = table[states, actions]
        else:
            sample = (float(u.alpha) * states + float(u.beta)) * actions
        means.append(float(np.mean(sample)))
        errs.append(float(np.std(sample, ddof=1) / np.sqrt(trials)))
    return McReport(trials=trials, seed=seed, labels=h.labels,
                    means=tuple(means), stderrs=tuple(errs))

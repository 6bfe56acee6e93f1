"""Brute-force verification engine.

Everything here works from raw utilities and exhaustive enumeration — no
pivotal-agent shortcuts — so closed-form solvers can be checked against an
independent route:

* a discretized outcome grid, held as its two coordinate axes, and the chain
  of incentive-compatibility level sets (which outcomes each intermediary
  would pass along, given what later intermediaries will pass), computed on
  cell indices (i, j) into those axes with one integer value table per seat,
  over the grid's informative core (`_core`, which drops the cells whose
  posteriors the receiver answers as she would the prior),
* grid subgame-perfect equilibrium for the binary game,
* exhaustive mean-pair search for the uniform-state game, each induced
  subgame answered by the grid equilibrium of a binary stand-in chain,
* a pass-through (simple-equilibrium) check, the same level-set recursion
  run on the outcome's contraction cone, and
* seeded Monte-Carlo signal propagation.

Values are exact: a value table, and the pair search's candidates, hold
exact integer multiples of the rational values (one positive scale per table
or search, see `_value_table` and `solve_general_grid`), and everything else
is an exact rational.  Only Monte Carlo uses floats.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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

def _check_resolution(resolution: int) -> None:
    if resolution < 10:
        raise ResolutionTooCoarse(f"need at least 10 grid steps, got {resolution}")


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
        return Outcomes(self)

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


class Outcomes(Sequence[BinaryOutcome]):
    """The outcomes of the cells of ``grid`` that ``mask`` holds (every cell
    when there is no mask), one per distinct outcome in ``cells()`` order.

    ``len`` counts the mask, which holds each distinct outcome once outside
    its last row and first column and the silent one at the corner, and
    builds nothing.  The outcomes are built on first iteration or indexing,
    once per view."""

    def __init__(self, grid: OutcomeGrid, mask: Optional[Mask] = None) -> None:
        self.grid, self.mask = grid, mask

    def __len__(self) -> int:
        if self.mask is None:
            return (len(self.grid.q0s) - 1) * (len(self.grid.q1s) - 1) + 1
        return sum(sum(row) - row[0] for row in self.mask[:-1]) + self.mask[-1][0]

    @cached_property
    def _built(self) -> tuple[BinaryOutcome, ...]:
        cells = self.grid.cells()
        if self.mask is not None:
            cells = [(i, j) for i, j in cells if self.mask[i][j]]
        return self.grid.outcomes_at(cells)

    def __getitem__(self, k):
        return self._built[k]

    def __iter__(self) -> Iterator[BinaryOutcome]:
        return iter(self._built)


def build_grid(prior: BinaryPrior, resolution: int) -> OutcomeGrid:
    """The grid whose axes are the lattice k/resolution and the prior."""
    _check_resolution(resolution)
    lattice = (Fraction(k, resolution) for k in range(resolution + 1))
    return OutcomeGrid(prior, *_axes(prior.p, lattice))


# ---------------------------------------------------------------------------
# receiver behavior and raw outcome values
# ---------------------------------------------------------------------------

def _gain_sign(u: Utility) -> Callable[[Fraction], int]:
    """The sign of u's gain from action 1 at a posterior or mean q, decided on
    integers.  Both utility types have the gain a + b * q, read off u's
    fields; at q = n/d (d > 0) it has the sign of an * d + bn * n, where
    an = a.num * b.den and bn = b.num * a.den."""
    if isinstance(u, LinearUtility):
        a, b = u.beta, u.alpha
    else:
        a = u.u01 - u.u00
        b = u.u11 - u.u10 - a
    an, bn = a.numerator * b.denominator, b.numerator * a.denominator

    def sign(q: Fraction) -> int:
        g = an * q.denominator + bn * q.numerator
        return (g > 0) - (g < 0)

    return sign


def tie_rule(h: HierarchySpec) -> Callable[[Fraction], int]:
    """Action the receiver takes when exactly indifferent: the last sender's
    preferred action there (falling back to 0 if that sender is indifferent
    too, which is the information-preserving direction in the canonical
    frame)."""
    sign = _gain_sign(h.senders[-1].utility)

    def tie(q: Fraction) -> int:
        return 1 if sign(q) > 0 else 0

    return tie


def action_rule(h: HierarchySpec) -> Callable[[Fraction], int]:
    """Receiver's action as a function of the posterior (binary game) or the
    posterior mean (uniform game), ties resolved by `tie_rule`."""
    sign = _gain_sign(h.receiver.utility)
    tie = tie_rule(h)

    def act(q: Fraction) -> int:
        s = sign(q)
        if s:
            return 1 if s > 0 else 0
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
    q1 (the concavification chord).  The offsets and payoffs are brought to
    one common denominator d = C * U and held as ints, where C clears p and
    every coordinate and U the four entries of u's table: payoff(q, a) * d =
    u(0, a) * U * C + (q * C) * (u(1, a) - u(0, a)) * U, so no payoff is built
    as a `Fraction`.  With L the lcm of the widths w that occur, in those
    units, the cell is (above * low + below * high) * (L // w) = d * L *
    value, and a silent cell is payoff(p) * d * L.  Every reader compares
    entries of one table only, so the scale never shows.

    On `build_grid`'s lattices every informative cell has lattice endpoints,
    so its width is k/G (cells with p as a coordinate are silent) and L is at
    most (d/G) * lcm(1..G).  lcm(1..G) has 136 bits at G = 100 and 1438 bits
    at the CLI's ``MAX_GRID`` = 1000; on games with hundredths for payoffs
    and prior, L reaches about 144 and 1443 bits.  On a breakpoint grid
    (`_stand_in`) of a chain with n senders each axis holds at most n + 3
    coordinates (0, p, 1 and the n + 1 crossings), so at most (n + 2)^2
    widths occur, each a positive integer at most d, and L <= d^((n+2)^2).
    On the seed-3003 uniform draws at G = 200 no stand-in entry exceeds 65
    bits.
    """
    p = grid.prior.p
    lows, highs = actions
    q0s, q1s = grid.q0s[:-1], grid.q1s[1:]
    clear = lcm(p.denominator, *(q.denominator for q in (*q0s, *q1s)))
    unit = lcm(*(u.value(s, a).denominator for s in (0, 1) for a in (0, 1)))

    def times(x: Fraction, m: int) -> int:
        """x * m, for an m that x's denominator divides."""
        return x.numerator * (m // x.denominator)

    base = [times(u.value(0, a), unit) * clear for a in (0, 1)]
    slope = [times(u.value(1, a) - u.value(0, a), unit) for a in (0, 1)]

    def payoff(q: Fraction, a: int) -> int:
        return base[a] + times(q, clear) * slope[a]

    at_p = times(p, clear)
    belows = [(at_p - times(q0, clear)) * unit for q0 in q0s]
    aboves = [(times(q1, clear) - at_p) * unit for q1 in q1s]
    low_pay = [payoff(q0, a) for q0, a in zip(q0s, lows)]
    high_pay = [payoff(q1, a) for q1, a in zip(q1s, highs[1:])]
    silent = payoff(p, lows[-1])
    widths = {below + above for below in belows for above in aboves}
    span = lcm(*widths)
    scale = {w: span // w for w in widths}
    silent *= span
    table = [
        [silent] + [(above * low + below * high) * scale[below + above]
                    for above, high in zip(aboves, high_pay)]
        for below, low in zip(belows, low_pay)
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
    order, of ``masks`` and ``proof_mask``: the masks over the whole grid,
    expanded from the core's on first read.  ``proof_mask`` is itself built
    on first read, from a fresh value table of each of seats n..2 of ``h``
    on the core: the equilibrium and the verifier never read it, so a chain
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
    def masks(self) -> dict[int, Mask]:
        return {idx: self.expand(mask) for idx, mask in self.core_masks.items()}

    @cached_property
    def levels(self) -> dict[int, Outcomes]:
        return {idx: Outcomes(self.grid, mask) for idx, mask in self.masks.items()}

    @cached_property
    def proof_mask(self) -> Mask:
        """The garble-proof cells: no intermediary strictly prefers any
        contraction, credible or not, over the cell itself."""
        proof = [[True] * len(self.core.q1s) for _ in self.core.q0s]
        for idx in range(self.h.n, 1, -1):
            table = _value_table(self.h.senders[idx - 1].utility, self.actions, self.core)
            proof = [
                [ok and v == c for v, ok, c in zip(*rows)]
                for rows in zip(table, proof, _cone_max(table))
            ]
        return self.expand(proof)

    @cached_property
    def garble_proof(self) -> Outcomes:
        return Outcomes(self.grid, self.proof_mask)


def _cone_max(table: list[list[int]]) -> list[list[int]]:
    """M[i][j] = largest entry over the contraction cone of cell (i, j):
    cells with weakly higher q0 index and weakly lower q1 index.

    The running maximum starts from the silent corner's entry table[-1][0],
    the floor.  That corner lies in every cone, so the floor never exceeds a
    cone's true maximum and every M[i][j] is exact.  `_level_sets` fills the
    cells outside a level with the floor, which is just as exact: every
    silent cell (last row or first column) is in every level, because its
    cone holds only silent cells, all worth the same.  So the corner is a
    member of every cone, the maximum over the members is at least the
    floor, and the filler never raises it."""
    floor = table[-1][0]
    below = [floor] * len(table[0])
    m = []
    for values in reversed(table):
        best = floor
        row = []
        for v, down in zip(values, below):
            if down > best:
                best = down
            if v > best:
                best = v
            row.append(best)
        m.append(row)
        below = row
    m.reverse()
    return m


def _level_sets(
    h: HierarchySpec, grid: OutcomeGrid, actions: Actions, first_seat: int
) -> Iterator[tuple[int, Mask]]:
    """The level-set recursion, seat n down to first_seat: yields each seat
    and the member mask of its level.  A cell stays in level k when it is in
    level k+1 and seat k values it at least as much as every cell of level
    k+1 in its contraction cone, so the masks only shrink.  ``actions`` is
    `_receiver_actions` of the grid.  Cells outside level k+1 enter the cone
    maximum as the silent value table[-1][0], which is exact (`_cone_max`)."""
    member = [[True] * len(grid.q1s) for _ in grid.q0s]
    for idx in range(h.n, first_seat - 1, -1):
        table = _value_table(h.senders[idx - 1].utility, actions, grid)
        floor = table[-1][0]
        ceiling = _cone_max(
            [[v if m else floor for v, m in zip(*rows)] for rows in zip(table, member)]
        )
        member = [
            [m and v == c for v, m, c in zip(*rows)] for rows in zip(table, member, ceiling)
        ]
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


def _stand_in(h: HierarchySpec, m0: Fraction, m1: Fraction) -> tuple[HierarchySpec, OutcomeGrid]:
    """`_uniform_subgame_tables` for means m0 < 1/2 < m1, and its breakpoint
    grid: the axes hold 0, its prior, 1 and the crossing w of each of seats
    2..n and the receiver inside (m0, m1), mapped to (w - m0)/(m1 - m0), and
    no lattice.  Between two consecutive coordinates the receiver's action
    is constant and each seat's value is monotone in each coordinate (see
    `solve_general_grid`), so along one coordinate a seat's best contraction
    sits on them.  That these coordinates suffice for the whole recursion is
    checked, not proved: against the closed form's subgame answer and the
    verifier's answer on a 1/100 lattice (tests/test_oracle.py)."""
    sub = _uniform_subgame_tables(h, m0, m1)
    width = m1 - m0
    crossings = (a.utility.crossing for a in (*h.senders[1:], h.receiver))
    points = [(w - m0) / width for w in crossings if m0 < w < m1]
    return sub, OutcomeGrid(sub.prior, *_axes(sub.prior.p, (Fraction(0), Fraction(1), *points)))


def verify_simple_equilibrium(
    h: HierarchySpec,
    eq,
    grid: Union[OutcomeGrid, int, None] = None,
) -> bool:
    """Check that an equilibrium outcome really is a pass-through equilibrium:
    player 1 can realize it alone, and no intermediary would garble it given
    grid best responses downstream.

    ``eq`` may be a solver report (anything with .outcome or .support) or a
    raw outcome.  ``grid`` is a grid or a resolution, 100 when omitted.  For
    uniform-state hierarchies the scan runs in the induced subgame on the
    stand-in's breakpoint grid (`_stand_in`), whatever the grid; a resolution
    below 10 is still refused.
    """
    if grid is None:
        grid = 100
    if isinstance(grid, int):
        _check_resolution(grid)
    outcome = getattr(eq, "outcome", eq)
    if isinstance(outcome, BinaryOutcome):
        support = outcome.support()
    else:
        support = tuple(as_ratio(x) for x in getattr(outcome, "support", outcome))
    if h.is_binary:
        if not isinstance(outcome, BinaryOutcome):
            outcome = make_outcome(support[0], support[-1], h.prior)
        if isinstance(grid, int):
            grid = build_grid(h.prior, grid)
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
    if len(support) == 1 or support[0] == support[-1]:
        return True  # nothing to garble
    m0, m1 = support[0], support[-1]
    if not mpc_feasible_uniform(m0, m1):
        return False
    if not (m0 < HALF < m1):
        return False
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
    comparison never decides a level, or the argmax, differently within one
    type.  That step is checked, not proved: `test_matches_the_per_pair_search`
    answers every lattice pair with its own stand-in and requires the same
    supports.

    The pairs of one order type form a *block*.  The place of a lattice mean
    k/G is its tuple of signs against every crossing and against 1/2, so the
    order type of (k0/G, k1/G) is their two places.  Runs lemma: the means of
    one place are a run of consecutive k.  Each sign of k/G - w only moves
    from -1 to 0 (at k/G = w, if that is a lattice mean) to 1 as k grows, so
    the place is nondecreasing entrywise, and a k between two means of one
    place has that place too.  So an order type is a run R0 of k0 (all at or
    below 1/2, since 1/2 is a mark) times a run R1 of k1 (all at or above
    1/2), cut by the search's k1 <= k0 + G//2; the block is empty when
    min R1 > max R0 + G//2.  By the claim, within a block the positions of
    the two delivered means among (m0, m1, crossings...) and their actions
    are fixed: a delivered m0 moves with k0 alone, a delivered m1 with k1
    alone, and a delivered crossing not at all.  So player 1's value and the
    reported support depend on k0 only if m0 is delivered, and on k1 only if
    m1 is.  A block that delivers neither (silence included) gives one
    candidate.  When only m0 is delivered, each feasible k0 (from
    max(min R0, min R1 - G//2) up) pairs with min R1; when only m1 is, each
    k1 up to max R0 + G//2 pairs with max R0, the k0 with the widest
    feasible range.  Only a block that delivers both is visited pair by pair.

    Values are exact integers compared by cross-multiplication.  With
    C = lcm(2, G, the crossings' denominators), every mean m here is held as
    the int X = C * m, and 1/2 as H = C/2.  Player 1's gain alpha * m + beta
    is held as gain(X) = (A * alpha) * X + (A * beta) * C = C * A times it,
    for A the lcm of alpha's and beta's denominators, and as 0 where the
    receiver acts 0.  A pair delivering X0 < X1 is worth
    ((X1 - H) * gain(X0) + (H - X0) * gain(X1)) / (X1 - X0) over C * A,
    silence gain(H) / 1 over C * A; so num_a * den_b against num_b * den_a
    orders two candidates exactly as their values, with no Fraction per pair
    and no common denominator whose size would need a bound.
    """
    if not isinstance(h.prior, UniformPrior):
        raise ChainError("exhaustive mean search needs the uniform prior")
    _check_resolution(resolution)
    crossings = tuple(a.utility.crossing for a in (*h.senders[1:], h.receiver))
    # every mean m below is the int scale * m
    scale = lcm(2, resolution, *(w.denominator for w in crossings))
    step, half, reach = scale // resolution, scale // 2, resolution // 2
    walls = [w.numerator * (scale // w.denominator) for w in crossings]
    places = [tuple((x > w) - (x < w) for w in (*walls, half))
              for x in range(0, scale + 1, step)]
    cuts = [k for k in range(1, resolution + 1) if places[k] != places[k - 1]]
    runs = list(zip([0, *cuts], [k - 1 for k in cuts] + [resolution]))
    alpha, beta = h.senders[0].utility.alpha, h.senders[0].utility.beta
    unit = lcm(alpha.denominator, beta.denominator)
    slope = alpha.numerator * (unit // alpha.denominator)
    offset = beta.numerator * (unit // beta.denominator) * scale

    def gain(x: int, a: int) -> int:
        return slope * x + offset if a else 0

    def candidates() -> Iterator[tuple[int, int, tuple[int, int]]]:
        """(num, den, support) of player 1's candidates, block by block."""
        for lo0, hi0 in runs:
            if lo0 > reach:
                break
            for lo1, hi1 in runs:
                if lo1 > hi0 + reach:
                    break
                if hi1 < resolution - reach:
                    continue
                first = max(lo0, lo1 - reach)
                m0, m1 = Fraction(first, resolution), Fraction(lo1, resolution)
                cells = _respond_to_means(h, m0, m1)
                delivered = _delivered(cells, (m0, m1, *crossings))
                if delivered is None:
                    yield gain(half, cells[0][2]), 1, (half, half)
                    continue
                i0, i1 = delivered
                a0, a1 = cells[0][2], cells[1][2]
                for k0 in range(first, hi0 + 1) if 0 in delivered else (hi0,):
                    for k1 in range(lo1, min(hi1, k0 + reach) + 1) if 1 in delivered else (lo1,):
                        xs = (k0 * step, k1 * step, *walls)
                        x0, x1 = xs[i0], xs[i1]
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

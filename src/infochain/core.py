"""Outcome algebra shared by every solver in the package.

A sender's move is an experiment (row-stochastic signal structure); what the
receiver ultimately sees is an *outcome*: a distribution over posteriors that
averages back to the prior.  With two actions only two-point outcomes matter,
so everything here works with a pair of posteriors {q0, q1} and their Bayes
weights.  Arithmetic is exact (`fractions.Fraction`); float inputs are read
through their shortest decimal representation, so 0.1 means exactly 1/10.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

NumberLike = Union[int, float, str, Fraction]

HALF = Fraction(1, 2)


class ChainError(Exception):
    """Base class for every error raised deliberately by this package."""


class OrderViolation(ChainError):
    """Posterior or posterior-mean coordinates out of order or out of range."""


class PriorMismatch(ChainError):
    """Two outcomes built over different priors were combined."""


class DimensionMismatch(ChainError):
    """An experiment matrix is not 2x2."""


class ZeroProbabilitySignal(ChainError):
    """An experiment emits a signal with probability zero under the prior."""


def as_ratio(x: NumberLike) -> Fraction:
    """Normalize a number-like value to an exact Fraction.

    Accepts ints, Fractions, strings ("0.25", "1/3", "2e-3") and floats.
    Floats are converted via ``str``, i.e. by decimal value as written, not by
    their binary expansion.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact number")


@dataclass(frozen=True)
class BinaryPrior:
    """Common prior P(state = 1) = p for the two-state game."""

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_ratio(self.p))
        if not 0 < self.p < 1:
            raise OrderViolation(f"prior must lie strictly inside (0,1), got {self.p}")


@dataclass(frozen=True)
class UniformPrior:
    """Uniform state on [0,1].  Downstream algebra only ever needs the mean."""

    @property
    def mean(self) -> Fraction:
        return HALF


@dataclass(frozen=True)
class BinaryOutcome:
    """Two-point distribution of posteriors q0 <= q1 with mean p.

    Weights follow from Bayes plausibility:
        w1 = (p - q0) / (q1 - q0),   w0 = (q1 - p) / (q1 - q0).
    A degenerate (no-information) outcome is stored as q0 = q1 = p with all
    weight on the single point.  Instances are canonical: any pair that puts
    zero weight on a cell collapses to the degenerate form, so equality of
    outcomes is plain field equality.
    """

    q0: Fraction
    q1: Fraction
    p: Fraction
    w0: Fraction
    w1: Fraction

    @property
    def degenerate(self) -> bool:
        return self.q0 == self.q1

    def support(self) -> tuple[Fraction, ...]:
        if self.degenerate:
            return (self.p,)
        return (self.q0, self.q1)

    def __repr__(self) -> str:  # keep test output readable
        if self.degenerate:
            return f"Outcome{{{self.p}}}"
        return f"Outcome{{{self.q0}, {self.q1}}}"


def make_outcome(q0: NumberLike, q1: NumberLike, prior: BinaryPrior | NumberLike) -> BinaryOutcome:
    """Build the canonical outcome with support {q0, q1} under the given prior.

    Raises OrderViolation unless 0 <= q0 <= p <= q1 <= 1.  Pairs with q0 = p or
    q1 = p carry zero weight on one cell and canonicalize to the degenerate
    outcome {p}.
    """
    p = prior.p if isinstance(prior, BinaryPrior) else as_ratio(prior)
    q0, q1 = as_ratio(q0), as_ratio(q1)
    if q0 > q1:
        raise OrderViolation(f"support out of order: q0={q0} > q1={q1}")
    if not (0 <= q0 <= p <= q1 <= 1):
        raise OrderViolation(
            f"support must straddle the prior: need 0 <= {q0} <= {p} <= {q1} <= 1"
        )
    if q0 == p or q1 == p:
        return BinaryOutcome(p, p, p, Fraction(0), Fraction(1))
    span = q1 - q0
    return BinaryOutcome(q0, q1, p, (q1 - p) / span, (p - q0) / span)


def no_information(prior: BinaryPrior) -> BinaryOutcome:
    return make_outcome(prior.p, prior.p, prior)


def full_information(prior: BinaryPrior) -> BinaryOutcome:
    return make_outcome(0, 1, prior)


def is_mpc(inner: BinaryOutcome, outer: BinaryOutcome) -> bool:
    """True iff ``inner`` is a mean-preserving contraction of ``outer``.

    For two-point outcomes over a shared prior this is interval containment:
    outer.q0 <= inner.q0 and inner.q1 <= outer.q1.  Reflexive; the degenerate
    outcome is an MPC of everything and {0,1} an MPC of nothing but itself.
    """
    if inner.p != outer.p:
        raise PriorMismatch(f"outcomes built over different priors: {inner.p} vs {outer.p}")
    return outer.q0 <= inner.q0 and inner.q1 <= outer.q1


@dataclass(frozen=True)
class Experiment:
    """Row-stochastic 2x2 signal structure: row s holds the signal
    probabilities given state (or incoming signal) s.  Two actions never need
    more than two signals, so no other shape is accepted."""

    rows: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    def __post_init__(self) -> None:
        if len(self.rows) != 2 or any(len(row) != 2 for row in self.rows):
            raise DimensionMismatch(
                f"an experiment is 2x2, got rows of lengths {[len(row) for row in self.rows]}"
            )
        for row in self.rows:
            if any(entry < 0 for entry in row):
                raise OrderViolation("experiment entries must be non-negative")
            if sum(row) != 1:
                raise OrderViolation(f"experiment row {row} does not sum to 1")


def experiment(rows: Sequence[Sequence[NumberLike]]) -> Experiment:
    """Convenience constructor normalizing entries through `as_ratio`."""
    return Experiment(tuple(tuple(as_ratio(x) for x in row) for row in rows))


def identity_experiment(k: int = 2) -> Experiment:
    """The fully revealing k-signal experiment; only k = 2 has a valid shape."""
    return Experiment(
        tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(k))
            for i in range(k)
        )
    )


def compose(first: Experiment, second: Experiment) -> Experiment:
    """Feed every output signal of ``first`` into ``second`` (matrix product).

    Garbling never creates information: composing with anything is weakly
    Blackwell-decreasing, and composing with the identity is a no-op.
    """
    (a, b), (c, d) = first.rows
    (e, f), (g, h) = second.rows
    return Experiment(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))


def outcome_of_experiment(prior: BinaryPrior, pi: Experiment) -> BinaryOutcome:
    """Posterior outcome a two-signal experiment induces over a binary state.

    Row 0 conditions on state 0, row 1 on state 1.  For each signal s,
        q_s = p * pi(s|1) / (p * pi(s|1) + (1-p) * pi(s|0)),
    and the outcome is the (sorted) pair of posteriors.  Raises
    ZeroProbabilitySignal if some signal never occurs.
    """
    p = prior.p
    posteriors = []
    for s in range(2):
        lik1 = pi.rows[1][s]
        lik0 = pi.rows[0][s]
        total = p * lik1 + (1 - p) * lik0
        if total == 0:
            raise ZeroProbabilitySignal(f"signal {s} has probability zero")
        posteriors.append(p * lik1 / total)
    lo, hi = sorted(posteriors)
    return make_outcome(lo, hi, prior)


def experiment_of_outcome(out: BinaryOutcome) -> Experiment:
    """Invert `outcome_of_experiment`: the unique 2x2 experiment (up to signal
    names) whose posteriors are {q0, q1}, with signal 1 carrying the high cell.

        pi(1|state=1) = w1 * q1 / p,    pi(1|state=0) = w1 * (1 - q1) / (1 - p)

    The degenerate outcome maps to the uninformative half/half experiment.
    """
    p = out.p
    if out.degenerate:
        return experiment([[HALF, HALF], [HALF, HALF]])
    high_given_1 = out.w1 * out.q1 / p
    high_given_0 = out.w1 * (1 - out.q1) / (1 - p)
    return Experiment(
        (
            (1 - high_given_0, high_given_0),
            (1 - high_given_1, high_given_1),
        )
    )


def mpc_feasible_uniform(m0: NumberLike, m1: NumberLike) -> bool:
    """Whether {m0, m1} is reachable as posterior means of a uniform state.

    Bayes plausibility pins m0 <= 1/2 <= m1; the most informative two-cell
    experiment is an interval split, whose means are only ever half an interval
    apart, so the spread condition is m1 - m0 <= 1/2.
    """
    m0, m1 = as_ratio(m0), as_ratio(m1)
    if m0 > m1:
        raise OrderViolation(f"means out of order: {m0} > {m1}")
    if not (0 <= m0 and m1 <= 1):
        raise OrderViolation(f"means must lie in [0,1], got ({m0}, {m1})")
    return m0 <= HALF <= m1 and m1 - m0 <= HALF

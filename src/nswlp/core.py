"""Problem model for weighted Nash social welfare with additive values.

An instance holds n agents with weights summing to one and per-item
nonnegative values; all numeric data is kept as exact rationals so that the
LP and rounding stages can work without tolerances.  Only logarithms are
evaluated in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Optional, Sequence, Union

RationalLike = Union[int, str, float, Fraction]


class InvalidInstance(ValueError):
    """Instance data violates a structural invariant."""


class WeightSumError(InvalidInstance):
    """Agent weights do not sum to exactly 1."""


class NegativeValue(InvalidInstance):
    """A value or weight is negative."""


class EmptyInstance(InvalidInstance):
    """No agents or no items."""


class OverlappingBundles(ValueError):
    """Bundles passed to an EF1 check share an item."""


class TooLarge(ValueError):
    """Input exceeds the guard of an exhaustive routine, or an agent's values
    span more than the double range the solver prices them in."""


class Infeasible(RuntimeError):
    """No allocation with positive welfare exists (or an LP had no solution)."""


class NumericalCollapse(RuntimeError):
    """Double precision failed: HiGHS reports no optimum, the LP duals no
    longer separate the column pool, the exact pool value misses the dual
    bound, or the reference ellipsoid's matrix lost positive definiteness."""


class DecompositionFailure(RuntimeError):
    """No perfect matching in the support of a doubly stochastic matrix."""


class EmptyAgent(ValueError):
    """Agent has zero fractional mass, so no groups can be built."""


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' / decimal strings, floats and Fractions to Fraction.

    Floats are read through their decimal repr, so 0.1 becomes 1/10.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class Agent:
    """One agent: weight in [0, 1] and one value per item."""

    weight: Fraction
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class Instance:
    """A weighted Nash social welfare instance: agent weights and values.

    Welfare and LP values are in the value space the values are given in.
    Multiplying agent i's values by c > 0 adds w_i ln c to every log welfare
    and to the LP value, so a solver may normalise privately.
    """

    num_items: int
    agents: tuple[Agent, ...]

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def bundle_value(self, i: int, items: Iterable[int]) -> Fraction:
        """Additive value of a bundle for agent i."""
        vals = self.agents[i].values
        return sum((vals[j] for j in items), Fraction(0))


@dataclass(frozen=True)
class Allocation:
    """Item ownership; entry j is an agent index or None for unassigned."""

    owner: tuple[Optional[int], ...]


def make_instance(
    weights: Sequence[RationalLike],
    values: Sequence[Sequence[RationalLike]],
) -> Instance:
    """Convenience constructor coercing all entries to Fractions."""
    if len(values) != len(weights):
        raise InvalidInstance("one value row per agent required")
    if not values:
        raise EmptyInstance("no agents")
    m = len(values[0])
    agents = tuple(
        Agent(as_fraction(w), tuple(as_fraction(v) for v in row))
        for w, row in zip(weights, values)
    )
    return Instance(num_items=m, agents=agents)


def validate(instance: Instance) -> None:
    """Raise unless all Instance invariants hold."""
    if instance.num_agents < 1:
        raise EmptyInstance("instance has no agents")
    if instance.num_items < 1:
        raise EmptyInstance("instance has no items")
    total = Fraction(0)
    for idx, agent in enumerate(instance.agents):
        if agent.weight < 0:
            raise NegativeValue(f"agent {idx} has negative weight")
        if len(agent.values) != instance.num_items:
            raise InvalidInstance(
                f"agent {idx} has {len(agent.values)} values, "
                f"expected {instance.num_items}"
            )
        for j, v in enumerate(agent.values):
            if v < 0:
                raise NegativeValue(f"value of agent {idx} for item {j} is negative")
        positive = [v for v in agent.values if v > 0]
        if positive:
            low, top = min(positive), sum(positive)
            # The LP driver prices values divided by low, in doubles.
            if not all(_positive_double(x) for x in (low, top, top / low)):
                raise TooLarge(
                    f"values of agent {idx} leave the double range: its smallest positive "
                    "value, its total and their ratio must be positive finite doubles"
                )
        total += agent.weight
    if total != 1:
        raise WeightSumError(f"weights sum to {total}, expected 1")


def _positive_double(x: Fraction) -> bool:
    try:
        return 0.0 < float(x) < math.inf
    except OverflowError:
        return False


def _check_owner(instance: Instance, alloc: Allocation) -> None:
    if len(alloc.owner) != instance.num_items:
        raise ValueError("allocation length differs from number of items")
    for j, i in enumerate(alloc.owner):
        if i is not None and not (0 <= i < instance.num_agents):
            raise ValueError(f"item {j} assigned to unknown agent {i}")


def log_nsw(instance: Instance, alloc: Allocation) -> float:
    """Weighted log welfare sum(w_i * ln v_i(bundle_i)).

    Agents with zero weight contribute nothing regardless of bundle; a
    positive-weight agent with a worthless bundle makes the result -inf.
    """
    _check_owner(instance, alloc)
    sums = [Fraction(0)] * instance.num_agents
    for j, i in enumerate(alloc.owner):
        if i is not None:
            sums[i] += instance.agents[i].values[j]
    total = 0.0
    for i, agent in enumerate(instance.agents):
        if agent.weight == 0:
            continue
        if sums[i] == 0:
            return -math.inf
        total += float(agent.weight) * math.log(float(sums[i]))
    return total


def nsw(instance: Instance, alloc: Allocation) -> float:
    """Weighted geometric-mean welfare, exp of log_nsw (0 at -inf)."""
    lw = log_nsw(instance, alloc)
    if lw == -math.inf:
        return 0.0
    try:
        return math.exp(lw)
    except OverflowError:
        return math.inf


def scale_values(instance: Instance) -> Instance:
    """Divide each agent's values by its minimum positive value, so every
    value is 0 or >= 1 (an all-zero row stays as it is).

    Dividing agent i's values by s_i lowers every log welfare by the sum of
    w_i ln s_i; the LP driver uses it as a private normalisation.
    """
    new_agents = []
    for agent in instance.agents:
        positive = [v for v in agent.values if v > 0]
        if positive:
            s = min(positive)
            agent = Agent(agent.weight, tuple(v / s for v in agent.values))
        new_agents.append(agent)
    return Instance(num_items=instance.num_items, agents=tuple(new_agents))


def int_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d): a row of ``Fraction``s as ints over d, the lcm of their
    denominators, so value k is exactly ints[k] / d."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def check_ef1(
    values: Sequence[RationalLike],
    bundles: Sequence[Iterable[int]],
    require_disjoint: bool = True,
) -> bool:
    """Envy-freeness up to one item under a single additive valuation.

    True iff for every ordered pair (i, i') with bundle i' nonempty,
    v(bundle i') minus its most valuable item is at most v(bundle i).

    ``require_disjoint=False`` skips the overlap check so the test can be
    applied to bundles drawn from alternative allocations of the same items.
    """
    vals = [as_fraction(v) for v in values]
    sets = [list(b) for b in bundles]
    if require_disjoint:
        seen: set[int] = set()
        for b in sets:
            for j in b:
                if j in seen:
                    raise OverlappingBundles(f"item {j} appears in two bundles")
                seen.add(j)
    totals = [sum((vals[j] for j in b), Fraction(0)) for b in sets]
    reduced = []
    for b, tot in zip(sets, totals):
        if b:
            reduced.append(tot - max(vals[j] for j in b))
        else:
            reduced.append(None)
    for k, red in enumerate(reduced):
        if red is None:
            continue
        for i, tot in enumerate(totals):
            if i == k:
                continue
            if red > tot:
                return False
    return True


def _augment(
    adj: Sequence[Collection[int]],
    radj: Sequence[Collection[int]],
    near: list[int],
    col_of: list[int],
    row_of: list[int],
    root: int,
    moved: list[int],
) -> bool:
    """Match the free row ``root`` by one shortest augmenting path (BFS).

    ``adj[r]`` holds row r's columns in ascending order (rounding passes
    dicts keyed by column) and ``radj[c]`` the rows whose ``adj`` holds
    column c; ``col_of`` maps each row and ``row_of`` each column to its
    partner, or -1.  ``near[r]`` counts the free columns in ``adj[r]``.
    The search is breadth-first: rows are expanded in first-in first-out
    order, each trying its columns in ascending order, and each column is
    visited at most once.  A full search would end at the first free
    column reached, which the first row in queue order with ``near > 0``
    finds; that row is also the first such row discovered, so the search
    stops when it discovers it, and the path ends at that row's smallest
    free column.  The path changes as few rows as any augmenting path can.
    The column it ends on is no longer free, so ``near`` drops by one at
    every row in its ``radj``.  Each row whose column the path changes is
    appended to ``moved``.  Returns False when no path exists.
    """
    reached_from: dict[int, int] = {}  # column -> the row that tried it
    r = root
    if not near[r]:
        queue = [r]
        for q in queue:  # the queue grows while it is walked
            for c in adj[q]:
                if c in reached_from:
                    continue
                reached_from[c] = q
                r = row_of[c]  # matched: an expanded row has no free column
                if near[r]:
                    break  # r is the goal
                queue.append(r)
            else:
                continue  # q is expanded without discovering the goal
            break
        else:
            return False  # no row the root reaches has a free column
    for c in adj[r]:  # the path ends at r's smallest free column
        if row_of[c] < 0:
            break
    for q in radj[c]:
        near[q] -= 1
    # Flip the path back to the root.
    while True:
        row_of[c] = r
        c, col_of[r] = col_of[r], c
        moved.append(r)
        if r == root:
            return True
        r = reached_from[c]

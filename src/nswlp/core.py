"""Problem model for weighted Nash social welfare with additive values.

An instance holds n agents with weights summing to one and per-item
nonnegative values; all numeric data is kept as exact rationals so that the
LP and rounding stages can work without tolerances.  Every
:class:`Instance` is checked when it is made (:func:`validate`), and it is
frozen, so no reader receives one that breaks these rules.  Each agent also
keeps its values as ints over one denominator (:attr:`Agent.int_values`,
computed once), and every exact bundle sum adds those ints.  Only
logarithms are evaluated in double precision.  One rule says which
(agent, items) pairs are columns of an instance, that is bundles a value
can be read for (:func:`_column_fault`): :meth:`Instance.bundle_value`,
the LP pool and the rounding all apply it.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    """Input exceeds the guard of an exhaustive routine, or an agent's weight
    or values leave the double range the solver prices them in."""


class Infeasible(RuntimeError):
    """No allocation with positive welfare exists (or an LP had no solution)."""


class NumericalCollapse(RuntimeError):
    """Double precision failed: HiGHS reports no optimum, the LP duals no
    longer separate the column pool, HiGHS's final basis is not an exactly
    feasible vertex, the exact pool value misses the dual bound (in the
    driver or in ``full_enumeration_lp``), or the reference ellipsoid's
    matrix lost positive definiteness."""


class DecompositionFailure(RuntimeError):
    """No perfect matching in the support of a doubly stochastic matrix."""


class EmptyAgent(ValueError):
    """Agent has zero fractional mass, so no groups can be built."""


# A decimal literal with an exponent, in Fraction's own grammar: integer
# digits, fraction digits, exponent.  Fraction builds 10**exponent, which
# takes seconds at an exponent of 10**7 and minutes at 10**8.
_DECIMAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*"
)
_MAX_DECIMAL_EXPONENT = 10_000


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' / decimal strings, floats and Fractions to Fraction.

    Floats are read through their decimal repr, so 0.1 becomes 1/10.  A
    nonzero decimal string whose exponent is beyond +-10,000 raises
    ValueError before any power of ten is built: no such value is a double
    once its mantissa is under Python's 4,300-digit cap.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # The substring test spares the common 'p/q' literal the regex.
        lit = _DECIMAL.fullmatch(x) if "e" in x or "E" in x else None
        if lit and abs(int(lit[3])) > _MAX_DECIMAL_EXPONENT:
            if int(lit[1] or 0) or int(lit[2] or 0):
                raise ValueError(f"decimal exponent {lit[3]} is beyond +-{_MAX_DECIMAL_EXPONENT:,}")
            return Fraction(0)
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class Agent:
    """One agent: weight in [0, 1] and one value per item."""

    weight: Fraction
    values: tuple[Fraction, ...]

    @cached_property
    def int_values(self) -> tuple[tuple[int, ...], int]:
        """(ints, d): the values as ints over d, the lcm of their
        denominators, so value j is exactly ints[j] / d (:func:`int_row`).
        Computed on first access and kept; the frozen dataclass makes it
        read-only."""
        return int_row(self.values)


def _column_fault(n: int, m: int, i: int, items: Sequence[int]) -> Optional[str]:
    """Why (i, items) is not a column of an n-agent, m-item instance, or
    None when it is: a negative index would wrap to the last agent or item,
    and a repeated item would count twice."""
    if not 0 <= i < n or (items and not 0 <= min(items) <= max(items) < m):
        return "an agent or item index out of range"
    if len(set(items)) < len(items):
        return "a repeated item"
    return None


@dataclass(frozen=True)
class Instance:
    """A weighted Nash social welfare instance: agent weights and values.

    Construction runs :func:`validate`, so an instance that exists has at
    least one agent and one item, one nonnegative value per item for every
    agent, nonnegative weights summing to 1 and values in the double range;
    it raises what :func:`validate` raises otherwise.

    Welfare and LP values are in the value space the values are given in.
    Multiplying agent i's values by c > 0 adds w_i ln c to every log welfare
    and to the LP value, so a solver may normalise privately.
    """

    num_items: int
    agents: tuple[Agent, ...]

    def __post_init__(self) -> None:
        validate(self)

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def bundle_value(self, i: int, items: Iterable[int]) -> Fraction:
        """Additive value of a bundle for agent i, summed exactly as ints.

        Raises ``ValueError`` when (i, items) is not a column
        (:func:`_column_fault`).
        """
        items = tuple(items)
        why = _column_fault(self.num_agents, self.num_items, i, items)
        if why is not None:
            raise ValueError(f"column {(i, items)} has {why}")
        ints, d = self.agents[i].int_values
        return Fraction(sum(ints[j] for j in items), d)


@dataclass(frozen=True)
class Allocation:
    """Item ownership; entry j is an agent index or None for unassigned."""

    owner: tuple[Optional[int], ...]


def make_instance(
    weights: Sequence[RationalLike],
    values: Sequence[Sequence[RationalLike]],
) -> Instance:
    """Convenience constructor coercing all entries to Fractions.

    ``num_items`` is the length of the first row (0 with no rows); the
    :class:`Instance` it builds checks every other row against it, so a
    ragged, empty or otherwise invalid input raises what :func:`validate`
    raises.
    """
    if len(values) != len(weights):
        raise InvalidInstance("one value row per agent required")
    m = len(next(iter(values), ()))
    agents = tuple(
        Agent(as_fraction(w), tuple(as_fraction(v) for v in row))
        for w, row in zip(weights, values)
    )
    return Instance(num_items=m, agents=agents)


def validate(instance: Instance) -> None:
    """Raise unless all Instance invariants hold.

    The one instance rule: :class:`Instance` runs it on construction, so a
    caller holding an instance never needs to.  Checks, in order: at least
    one agent and one item, then per agent a nonnegative weight that is 0
    or a positive finite double (``TooLarge``), one value per item,
    nonnegative values and values in the double range (``TooLarge``), and
    last that the weights sum to exactly 1.
    """
    if instance.num_agents < 1:
        raise EmptyInstance("instance has no agents")
    if instance.num_items < 1:
        raise EmptyInstance("instance has no items")
    total = Fraction(0)
    for idx, agent in enumerate(instance.agents):
        w = agent.weight
        if w < 0:
            raise NegativeValue(f"agent {idx} has negative weight")
        # The pricer and the market work with the weight as a double.
        if w and not _positive_double(w.numerator, w.denominator):
            raise TooLarge(
                f"weight of agent {idx} leaves the double range: a positive weight must be "
                "a positive finite double"
            )
        if len(agent.values) != instance.num_items:
            raise InvalidInstance(
                f"agent {idx} has {len(agent.values)} values, "
                f"expected {instance.num_items}"
            )
        for j, v in enumerate(agent.values):
            if v < 0:
                raise NegativeValue(f"value of agent {idx} for item {j} is negative")
        ints, d = agent.int_values
        positive = [k for k in ints if k > 0]
        if positive:
            low, top = min(positive), sum(positive)
            # The LP driver prices values divided by low, in doubles.
            if not all(_positive_double(a, b) for a, b in ((low, d), (top, d), (top, low))):
                raise TooLarge(
                    f"values of agent {idx} leave the double range: its smallest positive "
                    "value, its total and their ratio must be positive finite doubles"
                )
        total += w
    if total != 1:
        raise WeightSumError(f"weights sum to {total}, expected 1")


def _positive_double(a: int, b: int) -> bool:
    """Whether the int quotient a / b is a positive finite double."""
    try:
        return 0.0 < a / b < math.inf
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
    Bundle sums are exact ints over each agent's denominator d
    (:attr:`Agent.int_values`); int true division rounds correctly, as
    ``float`` of a ``Fraction`` does, so ln(s / d) is the log of the nearest
    double to the exact sum.  The terms are added from 0.0 in agent order.
    """
    _check_owner(instance, alloc)
    sums = [0] * instance.num_agents
    for j, i in enumerate(alloc.owner):
        if i is not None:
            sums[i] += instance.agents[i].int_values[0][j]
    total = 0.0
    for agent, s in zip(instance.agents, sums):
        if agent.weight == 0:
            continue
        if s == 0:
            return -math.inf
        total += float(agent.weight) * math.log(s / agent.int_values[1])
    return total


_LN_DBL_MAX = math.log(sys.float_info.max)


def _exp_welfare(lw: float) -> float:
    """The welfare of log welfare ``lw``: 0.0 at -inf, else exp(lw) with
    ``lw`` clamped to ln(DBL_MAX).

    Each agent's bundle total is a finite double and the weights sum to 1,
    so every log welfare and every LP value is at most ln(DBL_MAX); only
    rounding can carry the double past it, where exp would overflow.
    """
    if lw == -math.inf:
        return 0.0
    return math.exp(min(lw, _LN_DBL_MAX))


def nsw(instance: Instance, alloc: Allocation) -> float:
    """Weighted geometric-mean welfare, exp of log_nsw (0 at -inf)."""
    return _exp_welfare(log_nsw(instance, alloc))


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


def int_row(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(ints, d): a row of ``Fraction``s as ints over d, the lcm of their
    denominators, so value k is exactly ints[k] / d."""
    d = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values), d


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

    ``adj[r]`` holds row r's columns, tried in the order given: rounding
    passes dicts keyed by column in ascending order, the positive matching
    of :mod:`~nswlp.reference` lists by decreasing value.  ``radj[c]``
    holds the rows whose ``adj`` holds column c; ``col_of`` maps each row
    and ``row_of`` each column to its partner, or -1.  ``near[r]`` counts
    the free columns in ``adj[r]``.  The search is breadth-first: rows are
    expanded in first-in first-out order, each trying its columns in
    ``adj`` order, and each column is visited at most once.  A full search
    would end at the first free column reached, which the first row in
    queue order with ``near > 0`` finds; that row is also the first such
    row discovered, so the search stops when it discovers it, and the path
    ends at that row's first free column in ``adj`` order.  The path
    changes as few rows as any augmenting path can.  The column it ends on
    is no longer free, so ``near`` drops by one at every row in its
    ``radj``.  Each row whose column the path changes is
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
    for c in adj[r]:  # the path ends at r's first free column
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

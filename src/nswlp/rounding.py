"""Round a fractional configuration-LP solution to an integral allocation.

Per agent, the fractional items are sliced into unit-mass groups in
non-increasing value order; the group-item fractional matching is then
split exactly into a convex combination of partial matchings, and the best
matching's allocation is returned.  Rounding runs on exact integers end to
end: the marginals, the groups and the padded doubly stochastic square are
all ints over one denominator D, the lcm of the column masses'
denominators, so a unit of mass is the int D.  The Birkhoff-von-Neumann
extraction keeps one perfect matching and repairs it: after each step only
the rows whose matched edge ran out are matched again, by shortest
(breadth-first) augmenting paths, each stopping at the first row it
discovers next to a free column.  The combination is stored as per-step
diffs: each extraction records only the groups whose item changed, with
their old and new items, and its int step over D.  The selection scores
the matchings straight from the diffs and replays them only up to the
winner.  The slicing and the selection read each agent's values as the
int row the agent keeps (:attr:`~nswlp.core.Agent.int_values`).  Groups of
full mass are matched in every extracted matching, which is what makes the
per-agent bundles envy-free up to one item across the combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from heapq import heappop, heappush
from operator import add
from typing import Optional

from .core import (
    Allocation,
    DecompositionFailure,
    EmptyAgent,
    Instance,
    _augment,
    _column_fault,
    int_row,
)
from .configlp import ColumnSolution

GroupKey = tuple[int, int]  # (agent, group index)
Group = dict[int, int]  # item -> mass times D
GroupSet = dict[int, list[Group]]
Marginals = list[list[int]]  # x[i][j] = fraction of item j held by agent i, times D
Matching = dict[GroupKey, int]  # (agent, group index) -> item
Change = tuple[GroupKey, Optional[int], Optional[int]]  # (group, old item, new item)


def _replay(matching: Matching, diff: tuple[Change, ...]) -> None:
    for g, _, j in diff:
        if j is None:
            del matching[g]
        else:
            matching[g] = j


@dataclass(frozen=True)
class MatchingCombination:
    """Convex combination of partial group-item matchings, stored as
    per-step diffs with int weights over one denominator.

    ``diffs[k]`` lists, as ``(group, old item, new item)``, the groups whose
    item in matching k differs from matching k - 1 (from the empty matching
    for k = 0): a group that gains (old item None), swaps or loses (new
    item None) its item.  Every other group holds the same item in both,
    which lets :func:`best_allocation` rescore only the agents those groups
    belong to.  ``steps[k]`` is matching k's weight as an int over
    ``denom``, the common denominator D of the padded masses; the steps sum
    to D.

    ``padded_edges`` counts the positive entries of the doubly stochastic
    matrix the decomposition ran on; the number of matchings never exceeds
    it, because each extraction deletes at least one edge.

    ``matchings`` replays every diff once, on first access, and caches the
    matchings as dicts; :meth:`matching` replays the diffs only up to one
    matching.
    """

    diffs: tuple[tuple[Change, ...], ...]
    steps: tuple[int, ...]
    denom: int
    padded_edges: int

    def matching(self, k: int) -> Matching:
        """Matching k, replayed from the first k + 1 diffs."""
        out: Matching = {}
        for diff in self.diffs[: k + 1]:
            _replay(out, diff)
        return out

    @cached_property
    def matchings(self) -> tuple[Matching, ...]:
        current: Matching = {}
        out = []
        for diff in self.diffs:
            _replay(current, diff)
            out.append(current.copy())
        return tuple(out)


def marginals(y: ColumnSolution, n: int, m: int) -> tuple[Marginals, int]:
    """(x, D): x[i][j] is the total mass of agent i's columns containing
    item j, times D, the lcm of the column masses' denominators."""
    masses, denom = int_row(y.mass)
    x = [[0] * m for _ in range(n)]
    for col, a in zip(y.columns, masses):
        row = x[col.agent]
        for j in col.items:
            row[j] += a
    return x, denom


def item_order(instance: Instance, i: int) -> list[int]:
    """Items sorted by non-increasing v_ij, ties by smaller index."""
    vals = instance.agents[i].int_values[0]
    return sorted(range(instance.num_items), key=vals.__getitem__, reverse=True)


def build_groups(instance: Instance, x: Marginals, i: int, denom: int) -> list[Group]:
    """Slice agent i's fractional items into unit-mass groups.

    ``x`` holds the marginals as ints over ``denom``, so a unit of mass is
    ``denom``, and so are the returned group masses.  Sweeps the items in
    value order, filling each group to mass exactly 1 and splitting an
    item's fraction across the boundary when needed; the last group keeps
    the fractional remainder.
    """
    row = x[i]
    if sum(row) == 0:
        raise EmptyAgent(f"agent {i} has no fractional mass")
    groups: list[Group] = []
    current: Group = {}
    room = denom
    for j in item_order(instance, i):
        rest = row[j]
        while rest > 0:
            # room > 0 here, and a group is closed before j could reappear.
            take = min(rest, room)
            current[j] = take
            room -= take
            rest -= take
            if room == 0:
                groups.append(current)
                current = {}
                room = denom
    if current:
        groups.append(current)
    return groups


Cell = tuple[int, int, int]  # (padded row, padded column, mass times D)


def pad_square(
    groups: GroupSet, num_items: int, denom: int
) -> tuple[list[Cell], list[Optional[GroupKey]], list[Optional[int]]]:
    """Pad the group-item mass matrix to a doubly stochastic square.

    Group masses are ints over ``denom``, so the square's rows and columns
    each sum to ``denom``.  Rows are the groups in (agent, group index)
    order, then a dummy group per deficient item, then fully deficient
    padding rows; columns are the ``num_items`` items, then a dummy item per
    deficient group, then fully deficient padding columns.  A northwest-
    corner fill between the dummies balances the square.  Raises
    :class:`DecompositionFailure` when an item or a group carries more than
    unit mass, or the deficits do not balance.

    Returns the cells with their int masses sorted by (row, column), the
    (agent, group index) of each row and the item of each column, None for
    dummies.
    """
    m = num_items
    group_of: list[Optional[GroupKey]] = []
    rows: list[list[tuple[int, int]]] = []  # per row, (column, mass) ascending
    for i in sorted(groups):
        for t, g in enumerate(groups[i]):
            group_of.append((i, t))
            rows.append(sorted(g.items()))
    col_sum = [0] * m
    for row in rows:
        for j, a in row:
            col_sum[j] += a
    for j, s in enumerate(col_sum):
        if s > denom:
            raise DecompositionFailure(
                f"item {j} carries mass {Fraction(s, denom)} > 1"
            )
    # Dummy item per deficient group; its deficit is the group's mass.
    col_deficit: list[int] = []
    for row, (i, t) in zip(rows, group_of):
        mass = sum(a for _, a in row)
        if mass > denom:
            raise DecompositionFailure(
                f"group ('g', {i}, {t}) carries mass {Fraction(mass, denom)} > 1"
            )
        if mass < denom:
            row.append((m + len(col_deficit), denom - mass))
            col_deficit.append(mass)
    # Dummy group per deficient item; its deficit is the item's mass.
    row_deficit = [0] * len(rows)
    for j, s in enumerate(col_sum):
        if s < denom:
            rows.append([(j, denom - s)])
            row_deficit.append(s)
    # Square off with fully deficient padding rows/columns.
    size = max(len(rows), m + len(col_deficit))
    row_deficit += [denom] * (size - len(rows))
    rows += [[] for _ in range(size - len(rows))]
    col_deficit += [denom] * (size - m - len(col_deficit))
    # Northwest-corner transportation fill over the deficits; dummy column
    # k is padded column m + k.
    drows = [r for r, s in enumerate(row_deficit) if s > 0]
    dcols = [k for k, s in enumerate(col_deficit) if s > 0]
    if sum(row_deficit[r] for r in drows) != sum(col_deficit[k] for k in dcols):
        raise DecompositionFailure("padding deficits do not balance")
    ri = ci = 0
    while ri < len(drows) and ci < len(dcols):
        r, k = drows[ri], dcols[ci]
        take = min(row_deficit[r], col_deficit[k])
        if take > 0:
            rows[r].append((m + k, take))
            row_deficit[r] -= take
            col_deficit[k] -= take
        if row_deficit[r] == 0:
            ri += 1
        if ci < len(dcols) and col_deficit[k] == 0:
            ci += 1
    group_of += [None] * (size - len(group_of))
    item_of: list[Optional[int]] = list(range(m)) + [None] * (size - m)
    cells = [(r, c, a) for r, row in enumerate(rows) for c, a in row]
    return cells, group_of, item_of


def decompose(groups: GroupSet, num_items: int, denom: int) -> MatchingCombination:
    """Split the group-item fractional matching into integral matchings.

    The groups' int masses over ``denom`` are padded and checked by
    :func:`pad_square`.  One perfect matching on the positive support is
    kept across extractions: each extraction takes the minimum matched
    residual and deletes the matched edges it uses up.  Only the rows those
    deletions left free are matched again, in ascending order, by shortest
    augmenting paths (:func:`core._augment`); the first matching is built
    the same way from an empty one.  The search stops at the first row it
    discovers next to a free column, so ``decompose`` keeps, beside ``adj``,
    its transpose ``radj`` (per column, the rows whose ``adj`` holds it)
    and ``near`` (per row, the free columns in its ``adj``).  When an edge
    runs out, its row leaves the column's ``radj`` and ``near`` rises at the
    rows left there; ``_augment`` lowers ``near`` around the one free column
    each path ends on.

    Residuals are kept lazily.  A matched row stores ``end``, the extracted
    total at which its edge runs out, and its entry in ``adj`` stays as it
    was when the row was matched; only when a path moves the row to another
    column does the old edge get its residual back.  A heap holds
    ``(end, row)`` for every end set, and entries whose row has moved on or
    was freed are dropped when they surface.  So each step is the smallest
    current end minus the total so far, and its freed rows, popped in
    ascending order, are those whose ``end`` equals the new total.

    Each extraction is recorded as its step and its diff: per moved row of
    a group whose item changed (dummies count as no item), the group, its
    old item from ``held`` (per row, the item its group holds) and its new
    item.  No matching is copied and no ``Fraction`` is made here.
    """
    cells, group_of, item_of = pad_square(groups, num_items, denom)
    size = len(group_of)
    # Cells come sorted by (row, column), so each row's dict is in
    # ascending column order, and deletions and write-backs keep it so.
    adj: list[dict[int, int]] = [{} for _ in range(size)]
    radj: list[list[int]] = [[] for _ in range(size)]
    for r, c, a in cells:
        adj[r][c] = a
        radj[c].append(r)
    near = [len(a) for a in adj]  # every column starts free
    col_of, row_of = [-1] * size, [-1] * size
    at = [-1] * size  # the column whose residual end[r] tracks, or -1
    end = [0] * size
    ends: list[tuple[int, int]] = []  # heap of (end[r], r), stale ones kept
    total = 0
    free = list(range(size))
    edges = len(cells)
    held: list[Optional[int]] = [None] * size
    diffs: list[tuple[Change, ...]] = []
    steps: list[int] = []
    while edges:
        moved: list[int] = []
        for r in free:
            if not _augment(adj, radj, near, col_of, row_of, r, moved):
                raise DecompositionFailure("no perfect matching in positive support")
        diff: list[Change] = []
        for r in moved:  # a row moved twice is settled at its first entry
            c = col_of[r]
            if (old := at[r]) == c:
                continue
            if old >= 0:
                adj[r][old] = end[r] - total
            at[r] = c
            end[r] = e = total + adj[r][c]
            heappush(ends, (e, r))
            if (g := group_of[r]) is not None and (was := held[r]) != (j := item_of[c]):
                diff.append((g, was, j))
                held[r] = j
        # Every row is matched here, so once the entries whose end has moved
        # on are dropped, the top holds the smallest end.
        while end[ends[0][1]] != ends[0][0]:
            heappop(ends)
        step_end = ends[0][0]
        steps.append(step_end - total)
        total = step_end
        diffs.append(tuple(diff))
        # Equal ends pop in ascending row order; a row already freed here
        # (at < 0) or moved on since its entry is skipped.
        free = []
        while ends and ends[0][0] == total:
            r = heappop(ends)[1]
            if at[r] < 0 or end[r] != total:
                continue
            c = col_of[r]
            del adj[r][c]
            radj[c].remove(r)
            for q in radj[c]:
                near[q] += 1
            col_of[r] = row_of[c] = at[r] = -1
            free.append(r)
        edges -= len(free)
    if total != denom:
        raise DecompositionFailure("extracted weights do not sum to 1")
    return MatchingCombination(
        diffs=tuple(diffs), steps=tuple(steps), denom=denom, padded_edges=len(cells)
    )


def allocation_from_matching(matching: Matching, num_items: int) -> Allocation:
    """Items matched to an agent's group go to that agent; rest unassigned."""
    owner: list[Optional[int]] = [None] * num_items
    for (i, _), j in matching.items():
        if owner[j] is not None:
            raise ValueError(f"item {j} matched twice")
        owner[j] = i
    return Allocation(owner=tuple(owner))


def round_combination(instance: Instance, y: ColumnSolution) -> MatchingCombination:
    """Groups plus decomposition for a feasible column solution.

    Raises ``ValueError`` when a column has negative mass or is not a column
    of ``instance`` (:func:`~nswlp.core._column_fault`: an agent or item
    index out of range, or a repeated item).
    """
    n, m = instance.num_agents, instance.num_items
    for k, (col, mass) in enumerate(zip(y.columns, y.mass)):
        why = f"negative mass {mass}" if mass < 0 else _column_fault(n, m, col.agent, col.items)
        if why is not None:
            raise ValueError(f"column {k} (agent {col.agent}, items {col.items}) has {why}")
    x, denom = marginals(y, n, m)
    groups: GroupSet = {i: build_groups(instance, x, i, denom) for i in range(n) if any(x[i])}
    return decompose(groups, m, denom)


def best_allocation(instance: Instance, comb: MatchingCombination) -> Allocation:
    """Allocation of the first matching with the highest log welfare.

    The matchings are scored in order, incrementally, straight from
    ``comb.diffs``: each diff names the groups the matching changed with
    their old and new items, so only their agents' bundle sums and log
    terms are updated, and only the winner is replayed and turned into an
    :class:`Allocation`.  Each score equals the one :func:`log_nsw`
    computes: both sum each bundle exactly as ints over the agent's
    denominator (:attr:`~nswlp.core.Agent.int_values`), take the log of the
    correctly rounded quotient, and add the terms from 0.0 in agent order.
    A matching that gives one item twice raises ``ValueError``.
    """
    ints = [agent.int_values[0] for agent in instance.agents]
    params: list[Optional[tuple[float, int]]] = []  # (w, d) if w > 0
    # A zero-weight agent's term stays 0.0, and adding 0.0 leaves a float
    # sum unchanged, so every score still equals log_nsw's.
    terms: list[float] = []
    for agent in instance.agents:
        if agent.weight != 0:
            params.append((float(agent.weight), agent.int_values[1]))
            terms.append(-math.inf)
        else:
            params.append(None)
            terms.append(0.0)
    sums = [0] * instance.num_agents
    holders = [0] * instance.num_items  # groups holding each item
    twice = 0  # items held by more than one group
    best, best_lw = -1, -math.inf
    for k, diff in enumerate(comb.diffs):
        agents = set()
        for (i, _), old, new in diff:
            if old is not None:
                sums[i] -= ints[i][old]
                twice -= holders[old] == 2
                holders[old] -= 1
            if new is not None:
                sums[i] += ints[i][new]
                holders[new] += 1
                twice += holders[new] == 2
            agents.add(i)
        if twice:
            raise ValueError("an item is matched twice")
        for i in agents:
            if (p := params[i]) is not None:
                w, d = p
                s = sums[i]
                terms[i] = w * math.log(s / d) if s else -math.inf
        lw = reduce(add, terms, 0.0)
        if best < 0 or lw > best_lw:
            best, best_lw = k, lw
    return allocation_from_matching(comb.matching(best), instance.num_items)


def round_best(instance: Instance, y: ColumnSolution) -> Allocation:
    """Best allocation among the matchings of the convex combination.

    The weighted average of the matchings' log welfare already sits within
    1/e of the LP objective, so the argmax does too.
    """
    return best_allocation(instance, round_combination(instance, y))

"""Round a fractional configuration-LP solution to an integral allocation.

Per agent, the fractional items are sliced into unit-mass groups in
non-increasing value order; the group-item fractional matching is then
split exactly into a convex combination of partial matchings, and the best
matching's allocation is returned.  Slicing, padding and extraction all run
on exact integers: the slicing on each agent's marginals times their common
denominator, the padding to a doubly stochastic square and its checks, and
the Birkhoff-von-Neumann extraction on the group masses times their common
denominator D.  The extraction keeps one perfect matching and repairs it:
after each step only the rows whose matched edge ran out are matched again,
by augmenting paths.  Groups of full mass are matched in every extracted
matching, which is what makes the per-agent bundles envy-free up to one
item across the combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Allocation,
    DecompositionFailure,
    EmptyAgent,
    Instance,
    _augment,
)
from .configlp import ColumnSolution

_ZERO = Fraction(0)

Group = dict[int, Fraction]
GroupSet = dict[int, list[Group]]
Marginals = list[list[Fraction]]  # x[i][j] = fraction of item j held by agent i
Matching = dict[tuple[int, int], int]  # (agent, group index) -> item


@dataclass(frozen=True)
class MatchingCombination:
    """Convex combination of partial group-item matchings with exact
    rational weights summing to one.

    Each weight is an integer extraction step over the common denominator
    D of the padded masses, returned as a reduced ``Fraction``.

    ``padded_edges`` counts the positive entries of the doubly stochastic
    matrix the decomposition ran on; the number of matchings never exceeds
    it, because each extraction deletes at least one edge.
    """

    matchings: tuple[Matching, ...]
    weights: tuple[Fraction, ...]
    padded_edges: int


def marginals(y: ColumnSolution, n: int, m: int) -> list[list[Fraction]]:
    """x[i][j] = total mass of columns of agent i containing item j."""
    x = [[_ZERO] * m for _ in range(n)]
    for col, mass in zip(y.columns, y.mass):
        row = x[col.agent]
        for j in col.items:
            row[j] += mass
    return x


def _int_values(values) -> tuple[list[int], int]:
    """A row of ``Fraction``s as ints over their common denominator d."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def item_order(instance: Instance, i: int) -> list[int]:
    """Items sorted by non-increasing v_ij, ties by smaller index."""
    vals, _ = _int_values(instance.agents[i].values)
    return sorted(range(instance.num_items), key=vals.__getitem__, reverse=True)


def build_groups(
    instance: Instance, x: list[list[Fraction]], i: int
) -> list[Group]:
    """Slice agent i's fractional items into unit-mass groups.

    Sweeps the items in value order, filling each group to mass exactly 1
    and splitting an item's fraction across the boundary when needed; the
    last group keeps the fractional remainder.  The slicing runs on the
    row's masses as ints over their common denominator d, so a unit of mass
    is d; only the returned masses are ``Fraction``s.
    """
    row, d = _int_values(x[i])
    if sum(row) == 0:
        raise EmptyAgent(f"agent {i} has no fractional mass")
    groups: list[dict[int, int]] = []
    current: dict[int, int] = {}
    room = d
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
                room = d
    if current:
        groups.append(current)
    return [{j: Fraction(a, d) for j, a in g.items()} for g in groups]


Cell = tuple[int, int, int]  # (padded row, padded column, mass times D)


def pad_square(
    groups: GroupSet, x: list[list[Fraction]]
) -> tuple[list[Cell], int, list[Optional[tuple[int, int]]], list[Optional[int]]]:
    """Pad the group-item mass matrix to a doubly stochastic square.

    Scales every group mass by D, the lcm of their denominators, so a unit
    of mass is the int D.  Rows are the groups in (agent, group index)
    order, then a dummy group per deficient item, then fully deficient
    padding rows; columns are the items (``x`` gives their number), then a
    dummy item per deficient group, then fully deficient padding columns.
    A northwest-corner fill between the dummies balances the square.
    Raises :class:`DecompositionFailure` when an item or a group carries
    more than unit mass, or the deficits do not balance.

    Returns the cells with their int masses sorted by (row, column), D, the
    (agent, group index) of each row and the item of each column, None for
    dummies.
    """
    m = len(x[0]) if x else 0
    denom = math.lcm(*{
        f.denominator for gs in groups.values() for g in gs for f in g.values()
    })
    group_of: list[Optional[tuple[int, int]]] = []
    rows: list[list[tuple[int, int]]] = []  # per row, (column, mass) ascending
    for i in sorted(groups):
        for t, g in enumerate(groups[i]):
            group_of.append((i, t))
            rows.append([
                (j, f.numerator * (denom // f.denominator))
                for j, f in sorted(g.items())
            ])
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
    return cells, denom, group_of, item_of


def decompose(groups: GroupSet, x: list[list[Fraction]]) -> MatchingCombination:
    """Split the group-item fractional matching into integral matchings.

    The matrix is padded, checked and scaled to exact ints by
    :func:`pad_square`.  One perfect matching on the positive support is
    kept across extractions: each extraction takes the minimum matched
    weight, subtracts it from the matched edges and deletes those that
    reach zero.  Only the rows those deletions left free are matched again,
    in ascending order, by augmenting paths (:func:`core._augment`); the first
    matching is built the same way from an empty one.  The real part of the
    matching (groups to items, dummies stripped) is kept as one dict that is
    updated only at the rows the augmenting paths moved, and each extracted
    matching is a copy of it.  Each weight is its minimum over D.
    """
    cells, denom, group_of, item_of = pad_square(groups, x)
    size = len(group_of)
    # Cells come sorted by (row, column), so each row's dict is in
    # ascending column order, and deletions keep it so.
    adj: list[dict[int, int]] = [{} for _ in range(size)]
    for r, c, a in cells:
        adj[r][c] = a
    col_of, row_of = [-1] * size, [-1] * size
    free = list(range(size))
    edges = len(cells)
    real: Matching = {}
    matchings: list[Matching] = []
    lams: list[int] = []
    while edges:
        moved: list[int] = []
        for r in free:
            if not _augment(adj, col_of, row_of, r, moved):
                raise DecompositionFailure("no perfect matching in positive support")
        for r in moved:
            if (g := group_of[r]) is not None:
                if (j := item_of[col_of[r]]) is None:
                    real.pop(g, None)
                else:
                    real[g] = j
        lam = min(map(dict.__getitem__, adj, col_of))
        matchings.append(real.copy())
        lams.append(lam)
        free = []
        for r, (row, c) in enumerate(zip(adj, col_of)):
            left = row[c] - lam
            if left:
                row[c] = left
            else:
                del row[c]
                col_of[r] = row_of[c] = -1
                free.append(r)
        edges -= len(free)
    if sum(lams) != denom:
        raise DecompositionFailure("extracted weights do not sum to 1")
    return MatchingCombination(
        matchings=tuple(matchings),
        weights=tuple(Fraction(lam, denom) for lam in lams),
        padded_edges=len(cells),
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

    Raises ``ValueError`` when a column has negative mass.
    """
    for k, (col, mass) in enumerate(zip(y.columns, y.mass)):
        if mass < 0:
            raise ValueError(
                f"column {k} (agent {col.agent}, items {col.items}) "
                f"has negative mass {mass}"
            )
    n, m = instance.num_agents, instance.num_items
    x = marginals(y, n, m)
    groups: GroupSet = {i: build_groups(instance, x, i) for i in range(n) if any(x[i])}
    return decompose(groups, x)


def best_allocation(instance: Instance, comb: MatchingCombination) -> Allocation:
    """Allocation of the first matching with the highest log welfare.

    Each matching is scored straight from its items, and only the winner is
    turned into an :class:`Allocation`.  Each term equals the one
    :func:`log_nsw` computes: bundle sums are exact ints over each agent's
    common value denominator, and int true division rounds correctly, as
    ``float`` of a ``Fraction`` does.  A matching that gives one item twice
    raises ``ValueError``.
    """
    ints = []  # each agent's values as ints over their common denominator
    terms = []  # (agent, weight, numerator, denominator), positive weights only
    for i, (agent, scale) in enumerate(zip(instance.agents, instance.scales)):
        row, d = _int_values(agent.values)
        ints.append(row)
        if agent.weight != 0:
            terms.append(
                (i, float(agent.weight), scale.numerator, scale.denominator * d)
            )
    best, best_lw = None, -math.inf
    for mat in comb.matchings:
        if len(set(mat.values())) != len(mat):
            raise ValueError("an item is matched twice")
        sums = [0] * instance.num_agents
        for (i, _), j in mat.items():
            sums[i] += ints[i][j]
        lw = 0.0
        for i, w, num, den in terms:
            if sums[i] == 0:
                lw = -math.inf
                break
            lw += w * math.log((num * sums[i]) / den)
        if best is None or lw > best_lw:
            best, best_lw = mat, lw
    return allocation_from_matching(best, instance.num_items)


def round_best(instance: Instance, y: ColumnSolution) -> Allocation:
    """Best allocation among the matchings of the convex combination.

    The weighted average of the matchings' log welfare already sits within
    1/e of the LP objective, so the argmax does too.
    """
    return best_allocation(instance, round_combination(instance, y))

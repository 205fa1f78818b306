"""Round a fractional configuration-LP solution to an integral allocation.

Per agent, the fractional items are sliced into unit-mass groups in
non-increasing value order; the group-item fractional matching is then
split exactly into a convex combination of partial matchings, and the best
matching's allocation is returned.  The split pads the matrix to a doubly
stochastic square and checks it in ``Fraction`` arithmetic, then runs the
Birkhoff-von-Neumann extraction on exact integers: the padded masses times
their common denominator D.  The extraction keeps one perfect matching and
repairs it: after each step only the rows whose matched edge ran out are
matched again, by augmenting paths.  Groups of full mass are matched in
every extracted matching, which is what makes the per-agent bundles
envy-free up to one item across the combination.
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
)
from .configlp import ColumnSolution

_ZERO = Fraction(0)
_ONE = Fraction(1)

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


def item_order(instance: Instance, i: int) -> list[int]:
    """Items sorted by non-increasing v_ij, ties by smaller index."""
    vals = instance.agents[i].values
    return sorted(range(instance.num_items), key=vals.__getitem__, reverse=True)


def build_groups(
    instance: Instance, x: list[list[Fraction]], i: int
) -> list[Group]:
    """Slice agent i's fractional items into unit-mass groups.

    Sweeps the items in value order, filling each group to mass exactly 1
    and splitting an item's fraction across the boundary when needed; the
    last group keeps the fractional remainder.
    """
    total = sum(x[i], _ZERO)
    if total == 0:
        raise EmptyAgent(f"agent {i} has no fractional mass")
    groups: list[Group] = []
    current: Group = {}
    room = _ONE
    for j in item_order(instance, i):
        rest = x[i][j]
        while rest > 0:
            take = min(rest, room)
            if take > 0:
                current[j] = current.get(j, _ZERO) + take
                room -= take
                rest -= take
            if room == 0:
                groups.append(current)
                current = {}
                room = _ONE
    if current:
        groups.append(current)
    return groups


Cell = tuple[int, int, Fraction]  # (padded row, padded column, mass)


def pad_square(
    groups: GroupSet, x: list[list[Fraction]]
) -> tuple[list[Cell], list[Optional[tuple[int, int]]], list[Optional[int]]]:
    """Pad the group-item mass matrix to a doubly stochastic square.

    Adds a dummy item per deficient group, a dummy group per deficient item,
    and a northwest-corner filler block between the dummies, all in
    ``Fraction`` arithmetic.  Returns the positive cells sorted by (row,
    column), the (agent, group index) of each row and the item of each
    column, None for dummies.
    """
    m = len(x[0]) if x else 0
    edges: dict = {}
    row_keys: list = []
    for i in sorted(groups):
        for t, g in enumerate(groups[i]):
            rk = ("g", i, t)
            row_keys.append(rk)
            edges[rk] = {("i", j): frac for j, frac in sorted(g.items())}
    col_sum = {j: _ZERO for j in range(m)}
    for rk in row_keys:
        for (_, j), frac in edges[rk].items():
            col_sum[j] += frac
    for j, s in col_sum.items():
        if s > 1:
            raise DecompositionFailure(f"item {j} carries mass {s} > 1")
    col_keys = [("i", j) for j in range(m)]
    # Dummy item per deficient group.
    for rk in row_keys:
        mass = sum(edges[rk].values(), _ZERO)
        if mass > 1:
            raise DecompositionFailure(f"group {rk} carries mass {mass} > 1")
        if mass < 1:
            ck = ("di", rk)
            col_keys.append(ck)
            edges[rk][ck] = _ONE - mass
    # Dummy group per deficient item.
    col_deficit: dict = {}
    row_deficit: dict = {}
    for j in range(m):
        if col_sum[j] < 1:
            rk = ("dg", j)
            row_keys.append(rk)
            edges[rk] = {("i", j): _ONE - col_sum[j]}
            row_deficit[rk] = col_sum[j]
    for ck in col_keys:
        if ck[0] == "di":
            col_deficit[ck] = _ONE - edges[ck[1]][ck]
    # Square off with fully deficient padding rows/columns.
    while len(row_keys) < len(col_keys):
        rk = ("pr", len(row_keys))
        row_keys.append(rk)
        edges[rk] = {}
        row_deficit[rk] = _ONE
    while len(col_keys) < len(row_keys):
        ck = ("pc", len(col_keys))
        col_keys.append(ck)
        col_deficit[ck] = _ONE
    # Northwest-corner transportation fill over the deficits.
    drows = [rk for rk in row_keys if row_deficit.get(rk, _ZERO) > 0]
    dcols = [ck for ck in col_keys if col_deficit.get(ck, _ZERO) > 0]
    if sum((row_deficit[r] for r in drows), _ZERO) != sum(
        (col_deficit[c] for c in dcols), _ZERO
    ):
        raise DecompositionFailure("padding deficits do not balance")
    ri = ci = 0
    while ri < len(drows) and ci < len(dcols):
        r, c = drows[ri], dcols[ci]
        take = min(row_deficit[r], col_deficit[c])
        if take > 0:
            edges[r][c] = edges[r].get(c, _ZERO) + take
            row_deficit[r] -= take
            col_deficit[c] -= take
        if row_deficit[r] == 0:
            ri += 1
        if ci < len(dcols) and col_deficit[c] == 0:
            ci += 1
    col_of = {ck: c for c, ck in enumerate(col_keys)}
    cells = sorted(
        (r, col_of[ck], frac)
        for r, rk in enumerate(row_keys)
        for ck, frac in edges[rk].items()
    )
    group_of = [(rk[1], rk[2]) if rk[0] == "g" else None for rk in row_keys]
    item_of = [ck[1] if ck[0] == "i" else None for ck in col_keys]
    return cells, group_of, item_of


def _augment(
    adj: list[dict[int, int]], col_of: list[int], row_of: list[int], root: int
) -> bool:
    """Match the free row ``root`` by one augmenting path (Kuhn's DFS).

    Rows try their columns in ascending order, and each column is visited
    at most once.  The search keeps an explicit stack, so paths as long as
    the matrix need no recursion.  Returns False when no path exists.
    """
    reached_from: dict[int, int] = {}  # column -> the row that tried it
    stack = [(root, iter(adj[root]))]
    while stack:
        r, cols = stack[-1]
        for c in cols:
            if c in reached_from:
                continue
            reached_from[c] = r
            owner = row_of[c]
            if owner >= 0:
                stack.append((owner, iter(adj[owner])))
                break
            # c is free: flip the path back to the root.
            while True:
                r = reached_from[c]
                row_of[c] = r
                c, col_of[r] = col_of[r], c
                if r == root:
                    return True
        else:
            stack.pop()
    return False


def decompose(groups: GroupSet, x: list[list[Fraction]]) -> MatchingCombination:
    """Split the group-item fractional matching into integral matchings.

    The matrix is padded and checked by :func:`pad_square`, then scaled once
    by the common denominator D of its masses, so every edge weight is an
    exact int.  One perfect matching on the positive support is kept across
    extractions: each extraction takes the minimum matched weight, subtracts
    it from the matched edges and deletes those that reach zero.  Only the
    rows those deletions left free are matched again, in ascending order, by
    augmenting paths (:func:`_augment`); the first matching is built the
    same way from an empty one.  Each weight is its minimum over D, and
    dummy vertices are stripped from the output.
    """
    cells, group_of, item_of = pad_square(groups, x)
    size = len(group_of)
    denom = math.lcm(*(frac.denominator for _, _, frac in cells))
    # Cells come sorted by (row, column), so each row's dict is in
    # ascending column order, and deletions keep it so.
    adj: list[dict[int, int]] = [{} for _ in range(size)]
    for r, c, frac in cells:
        adj[r][c] = frac.numerator * (denom // frac.denominator)
    col_of, row_of = [-1] * size, [-1] * size
    real_rows = [(r, g) for r, g in enumerate(group_of) if g is not None]
    free = list(range(size))
    edges = len(cells)
    matchings: list[Matching] = []
    lams: list[int] = []
    while edges:
        for r in free:
            if not _augment(adj, col_of, row_of, r):
                raise DecompositionFailure("no perfect matching in positive support")
        lam = min(map(dict.__getitem__, adj, col_of))
        matchings.append({
            g: j for r, g in real_rows if (j := item_of[col_of[r]]) is not None
        })
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
    """Groups plus decomposition for a feasible column solution."""
    n, m = instance.num_agents, instance.num_items
    x = marginals(y, n, m)
    groups: GroupSet = {}
    for i in range(n):
        if sum(x[i], _ZERO) > 0:
            groups[i] = build_groups(instance, x, i)
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
        d = math.lcm(*(v.denominator for v in agent.values))
        ints.append([v.numerator * (d // v.denominator) for v in agent.values])
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

"""Round a fractional configuration-LP solution to an integral allocation.

Per agent, the fractional items are sliced into unit-mass groups in
non-increasing value order; the group-item fractional matching is then
split exactly into a convex combination of partial matchings, and the best
matching's allocation is returned.  The split pads the matrix to a doubly
stochastic square and checks it in ``Fraction`` arithmetic, then runs the
Birkhoff-von-Neumann extraction on exact integers: the padded masses times
their common denominator D.  Groups of full mass are matched in every
extracted matching, which is what makes the per-agent bundles envy-free up
to one item across the combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

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
    it by more than one.
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


def decompose(groups: GroupSet, x: list[list[Fraction]]) -> MatchingCombination:
    """Split the group-item fractional matching into integral matchings.

    The matrix is padded and checked by :func:`pad_square`, then scaled once
    by the common denominator D of its masses, so every edge weight is an
    exact int.  Perfect matchings on the positive support are extracted with
    the minimum edge weight until nothing remains; each weight is that
    minimum over D, and dummy vertices are stripped from the output.
    """
    cells, group_of, item_of = pad_square(groups, x)
    size = len(group_of)
    denom = math.lcm(*(frac.denominator for _, _, frac in cells))
    er = np.array([r for r, _, _ in cells], dtype=np.int64)
    ec = np.array([c for _, c, _ in cells], dtype=np.int64)
    ew = np.array(
        [frac.numerator * (denom // frac.denominator) for _, _, frac in cells],
        dtype=object,
    )
    rows = np.arange(size, dtype=np.int64)
    bounds = np.arange(size + 1, dtype=np.int64)
    matchings: list[Matching] = []
    lams: list[int] = []
    while len(ew):
        support = csr_matrix(
            (np.ones(len(ec), dtype=np.int8), ec, np.searchsorted(er, bounds)),
            shape=(size, size),
        )
        match = maximum_bipartite_matching(support, perm_type="column")
        if (match == -1).any():
            raise DecompositionFailure("no perfect matching in positive support")
        # Edges stay sorted by (row, column), so their keys are sorted too.
        pos = np.searchsorted(er * size + ec, rows * size + match)
        lam = ew[pos].min()
        real: Matching = {}
        for r, c in enumerate(match.tolist()):
            if group_of[r] is not None and item_of[c] is not None:
                real[group_of[r]] = item_of[c]
        matchings.append(real)
        lams.append(lam)
        ew[pos] -= lam
        alive = ew != 0
        er, ec, ew = er[alive], ec[alive], ew[alive]
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

    Each term equals the one :func:`log_nsw` computes: bundle sums are exact
    ints over each agent's common value denominator, and int true division
    rounds correctly, as ``float`` of a ``Fraction`` does.
    """
    terms = []  # (agent, weight, int values, numerator, denominator)
    for i, (agent, scale) in enumerate(zip(instance.agents, instance.scales)):
        if agent.weight == 0:
            continue
        d = math.lcm(*(v.denominator for v in agent.values))
        ints = [v.numerator * (d // v.denominator) for v in agent.values]
        terms.append(
            (i, float(agent.weight), ints, scale.numerator, scale.denominator * d)
        )
    best, best_lw = None, -math.inf
    for mat in comb.matchings:
        alloc = allocation_from_matching(mat, instance.num_items)
        bundles = alloc.bundles(instance.num_agents)
        lw = 0.0
        for i, w, ints, num, den in terms:
            s = sum(ints[j] for j in bundles[i])
            if s == 0:
                lw = -math.inf
                break
            lw += w * math.log((num * s) / den)
        if best is None or lw > best_lw:
            best, best_lw = alloc, lw
    return best


def round_best(instance: Instance, y: ColumnSolution) -> Allocation:
    """Best allocation among the matchings of the convex combination.

    The weighted average of the matchings' log welfare already sits within
    1/e of the LP objective, so the argmax does too.
    """
    return best_allocation(instance, round_combination(instance, y))

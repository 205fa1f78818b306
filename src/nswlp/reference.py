"""Exact reference solvers: brute force, positivity check, one-item baseline.

Brute force and the positivity check certify the approximation pipeline
at desk scale, not to scale themselves; the positivity check is the
package's own augmenting-path matching.  Brute force scores every
assignment as :func:`~nswlp.core.log_nsw` does, from each agent's exact int
row, so the optimum it returns is the ``log_nsw`` of its allocation.  The
one-item baseline runs on every solve: it seeds the LP driver's column pool
and decides whether any allocation has positive welfare, with the
assignment solver's own feasibility test.  That solver, ``_max_assignment``,
is a Python port of the shortest augmenting path algorithm scipy's
``linear_sum_assignment`` runs (Crouse 2016), so a solve loads neither
numpy nor scipy's ``_lsap`` extension; it returns what scipy returns,
feasibility included.  Both solvers trust their instance: every
:class:`~nswlp.core.Instance` is checked when it is made.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Optional

from .core import Allocation, Infeasible, Instance, TooLarge, _augment, log_nsw

BRUTE_FORCE_GUARD = 10_000_000


def brute_force_opt(instance: Instance) -> tuple[Allocation, float]:
    """Exhaustive optimum over all n^m total assignments.

    Leaving items unassigned is never better (values are nonnegative), so
    total assignments suffice.  Each assignment is scored with
    :func:`~nswlp.core.log_nsw`'s arithmetic: exact int bundle sums over
    each agent's denominator, so the returned value equals ``log_nsw`` of
    the returned allocation.  Raises ``TooLarge`` when n^m > 1e7.
    """
    n, m = instance.num_agents, instance.num_items
    if n**m > BRUTE_FORCE_GUARD:
        raise TooLarge(f"{n}^{m} assignments exceed the brute-force guard")
    ints = [a.int_values[0] for a in instance.agents]
    # (agent, w, d) of each positive-weight agent: the others add no term.
    terms = [(i, float(a.weight), a.int_values[1]) for i, a in enumerate(instance.agents)
             if a.weight > 0]
    best_lw = -math.inf
    best: tuple[int, ...] | None = None
    for assign in product(range(n), repeat=m):
        sums = [0] * n
        for j, i in enumerate(assign):
            sums[i] += ints[i][j]
        lw = 0.0
        for i, w, d in terms:
            s = sums[i]
            if s == 0:
                lw = -math.inf
                break
            lw += w * math.log(s / d)
        if best is None or lw > best_lw:
            best_lw = lw
            best = assign
    assert best is not None
    return Allocation(owner=tuple(best)), best_lw


def positivity_check(instance: Instance) -> bool:
    """True iff the positive-weight agents can be matched to distinct items
    they value positively (so some allocation has positive welfare).

    The shortest augmenting-path search (:func:`core._augment`) matches the
    agents one by one on the ``v > 0`` support; an agent left without a path
    means no such matching exists.  Items start free, so each agent's
    ``near`` (free items it values) starts at its count of positive values,
    and ``radj[j]`` lists the agents valuing item j, for the search to
    decrement ``near`` when it takes j; the search stops at the first agent
    it discovers with ``near > 0``.
    """
    adj = [
        [j for j, v in enumerate(a.values) if v > 0]
        for a in instance.agents
        if a.weight > 0
    ]
    radj: list[list[int]] = [[] for _ in range(instance.num_items)]
    for r, cols in enumerate(adj):
        for c in cols:
            radj[c].append(r)
    near = [len(cols) for cols in adj]  # every item starts free
    col_of, row_of = [-1] * len(adj), [-1] * instance.num_items
    moved: list[int] = []
    return all(
        _augment(adj, radj, near, col_of, row_of, r, moved) for r in range(len(adj))
    )


def _max_assignment(weight: list[list[float]]) -> Optional[list[int]]:
    """The column of each row in an assignment of every row to a distinct
    column with the largest total weight, or None when every such
    assignment uses a -inf entry.  Needs no more rows than columns.

    A port of scipy's ``linear_sum_assignment(weight, maximize=True)``
    (Crouse 2016, shortest augmenting paths with dual potentials u, v on
    the negated weights), step for step, so the same assignment comes out
    on ties: each search fills ``remaining`` in reverse column order, and
    among columns of equal path cost it takes an unassigned one.
    """
    cost = [[-x for x in row] for row in weight]
    nc = len(cost[0]) if cost else 0
    u, v = [0.0] * len(cost), [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * len(cost), [-1] * nc
    for cur in range(len(cost)):
        # Shortest augmenting path from row cur to an unassigned column.
        min_val, i, sink = 0.0, cur, -1
        remaining = list(range(nc - 1, -1, -1))
        spc = [math.inf] * nc
        seen_rows, seen_cols = [], []
        while sink == -1:
            seen_rows.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            if min_val == math.inf:
                return None
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def assignment_baseline(instance: Instance) -> tuple[Allocation, float]:
    """Best one-item-per-agent assignment maximizing sum(w_i ln v_ij).

    Only positive-weight agents are matched, on edges with v_ij > 0; the
    other edges weigh -inf, so the assignment solver's own feasibility test
    fails exactly when no such matching exists, and that becomes
    ``Infeasible``.  Values are taken as given, scaled or not; the instance
    was checked when it was made, so every value is a positive finite double
    or 0.  The resulting log welfare b brackets the configuration LP optimum
    within an additive ln(m).
    """
    m = instance.num_items
    agents = [(i, float(a.weight), a.values) for i, a in enumerate(instance.agents)
              if a.weight > 0]
    if len(agents) > m:
        raise Infeasible("more positive-weight agents than items")
    weight = [[w * math.log(float(v)) if v > 0 else -math.inf for v in values]
              for _, w, values in agents]
    cols = _max_assignment(weight)
    if cols is None:
        raise Infeasible("no positive-value matching saturates all agents")
    owner: list[int | None] = [None] * m
    for (i, _, _), j in zip(agents, cols):
        owner[j] = i
    alloc = Allocation(owner=tuple(owner))
    return alloc, log_nsw(instance, alloc)

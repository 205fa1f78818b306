"""Exact reference solvers: brute force, positivity check, one-item baseline.

Brute force and the positivity check certify the approximation pipeline
at desk scale, not to scale themselves; the positivity check is the
package's own augmenting-path matching.  Brute force scores every
assignment as :func:`~nswlp.core.log_nsw` does, from each agent's exact int
row, so the optimum it returns is the ``log_nsw`` of its allocation.  The
one-item baseline runs on every solve: it seeds the LP driver's column pool
and decides whether any allocation has positive welfare, with the
assignment solver's own feasibility test.  That solver is scipy's ``_lsap``
extension, loaded on its own so that ``scipy.optimize`` is never imported.
Both solvers trust their instance: every :class:`~nswlp.core.Instance`
is checked when it is made.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from . import _scipy_ext
from .core import Allocation, Infeasible, Instance, TooLarge, _augment, log_nsw

linear_sum_assignment = _scipy_ext.load("_lsap").linear_sum_assignment

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


def assignment_baseline(instance: Instance) -> tuple[Allocation, float]:
    """Best one-item-per-agent assignment maximizing sum(w_i ln v_ij).

    Only positive-weight agents are matched, on edges with v_ij > 0; the
    other edges cost -inf, so the assignment solver's own feasibility test
    raises exactly when no such matching exists, and that becomes
    ``Infeasible``.  Values are taken as given, scaled or not; the instance
    was checked when it was made, so every value is a positive finite double
    or 0.  The resulting log welfare b brackets the configuration LP optimum
    within an additive ln(m).
    """
    n, m = instance.num_agents, instance.num_items
    rows = [i for i in range(n) if instance.agents[i].weight > 0]
    if len(rows) > m:
        raise Infeasible("more positive-weight agents than items")
    cost = np.full((len(rows), m), -math.inf)
    for r, i in enumerate(rows):
        w = float(instance.agents[i].weight)
        for j, v in enumerate(instance.agents[i].values):
            if v > 0:
                cost[r, j] = w * math.log(float(v))
    try:
        row_ind, col_ind = linear_sum_assignment(cost, maximize=True)
    except ValueError as exc:  # "cost matrix is infeasible"
        raise Infeasible("no positive-value matching saturates all agents") from exc
    owner: list[int | None] = [None] * m
    for r, j in zip(row_ind, col_ind):
        owner[j] = rows[r]
    alloc = Allocation(owner=tuple(owner))
    return alloc, log_nsw(instance, alloc)

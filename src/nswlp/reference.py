"""Exact reference solvers: brute force, positivity check, one-item baseline.

Brute force and the positivity check certify the approximation pipeline
at desk scale, not to scale themselves; the positivity check is the
package's own augmenting-path matching.  Brute force scores every
assignment as :func:`~nswlp.core.log_nsw` does, from each agent's exact int
row, so the optimum it returns is the ``log_nsw`` of its allocation.  The
one-item baseline runs on every solve: it seeds the LP driver's column pool
and decides whether any allocation has positive welfare.  The positivity
check and the baseline share one matching, ``_positive_matching``, built
with :func:`core._augment` on exact ints.  Both solvers trust their
instance: every :class:`~nswlp.core.Instance` is checked when it is made.
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


def _positive_matching(instance: Instance) -> Optional[list[int]]:
    """The item of each agent (-1 for a zero-weight agent) in a matching of
    the positive-weight agents to distinct items they value positively, or
    None when no such matching exists.

    The agents are matched one by one, heaviest first (ties to the lower
    index), each by one shortest augmenting path (:func:`core._augment`) on
    the ``v > 0`` support; an agent left without a path means no matching
    exists.  Each agent's adjacency lists its positive items by decreasing
    value (ties to the lower index), so an agent with a free positive item
    takes its most valuable one.  Items start free, so each agent's
    ``near`` (free items it values) starts at its count of positive values,
    and ``radj[j]`` lists the agents valuing item j, for the search to
    decrement ``near`` when it takes j.
    """
    agents, m = instance.agents, instance.num_items
    # Python's sort is stable, also in reverse, so ties keep the lower index.
    roots = sorted((i for i, a in enumerate(agents) if a.weight > 0),
                   key=lambda i: agents[i].weight, reverse=True)
    adj: list[list[int]] = [[] for _ in agents]
    for i in roots:
        ints = agents[i].int_values[0]
        adj[i] = sorted((j for j in range(m) if ints[j] > 0), key=ints.__getitem__, reverse=True)
    radj: list[list[int]] = [[] for _ in range(m)]
    for r, cols in enumerate(adj):
        for c in cols:
            radj[c].append(r)
    near = [len(cols) for cols in adj]  # every item starts free
    col_of, row_of = [-1] * len(agents), [-1] * m
    moved: list[int] = []
    for r in roots:
        if not _augment(adj, radj, near, col_of, row_of, r, moved):
            return None
    return col_of


def positivity_check(instance: Instance) -> bool:
    """True iff the positive-weight agents can be matched to distinct items
    they value positively (so some allocation has positive welfare), as
    decided by :func:`_positive_matching`."""
    return _positive_matching(instance) is not None


def assignment_baseline(instance: Instance) -> tuple[Allocation, float]:
    """One positive item per positive-weight agent, and its log welfare.

    The allocation is :func:`_positive_matching`'s: heaviest agents first,
    each taking its most valuable free positive item where one is left.
    It raises ``Infeasible`` exactly when no allocation has positive
    welfare.  It is not a maximum-weight assignment: the configuration LP
    only needs each agent's singleton to make its first restricted LP
    feasible.  No float arithmetic picks the items; only the returned
    ``log_nsw`` is a double.
    """
    cols = _positive_matching(instance)
    if cols is None:
        raise Infeasible("no positive-value matching saturates all agents")
    owner: list[int | None] = [None] * instance.num_items
    for i, j in enumerate(cols):
        if j >= 0:
            owner[j] = i
    alloc = Allocation(owner=tuple(owner))
    return alloc, log_nsw(instance, alloc)

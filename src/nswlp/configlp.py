"""Configuration LP solver for weighted Nash social welfare.

The LP has one variable y[i,S] per agent/bundle pair, so it is solved by
column generation.  One HiGHS model holds the restricted primal over a pool
of bundles; each round adds the new columns and re-solves it warm from the
last basis, in doubles, for its duals.  A ratio screen prices at most one
violated bundle per agent at those duals, and the knapsack-cover separation
oracle runs only when the screen finds nothing, so the last round is always
a full oracle pass.  HiGHS's final basis is then solved once in exact
integer arithmetic and checked, with the exact rational simplex over the
whole pool as the fallback, and the driver checks the value against the
dual bound.  The central-cut ellipsoid over the dual, the source paper's
polynomial-time method, is kept as a reference (``ellipsoid_run``).

HiGHS is scipy's compiled binding ``scipy.optimize._highspy._core``, loaded
on its own (``_scipy_ext.load``) so that a solve never imports
``scipy.optimize``.

All bundle data and the final LP vertex stay rational; logarithms, the
LP duals and the ellipsoid work in doubles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _scipy_ext
from .core import (
    Infeasible,
    Instance,
    NumericalCollapse,
    TooLarge,
    int_row,
    scale_values,
    validate,
)
from .lpsolve import LinearProgram, solve_lp
from .reference import assignment_baseline

_highs = _scipy_ext.load("_highspy._core")
_Highs = _highs._Highs
HighsBasisStatus = _highs.HighsBasisStatus
HighsModelStatus = _highs.HighsModelStatus

_ZERO = Fraction(0)
_ONE = Fraction(1)

_FINITE_CHECK_PERIOD = 64

# Shift on beta when pricing against HiGHS duals.  Pooled basic columns have
# zero reduced cost, so without it float noise re-prices them; it must not
# be smaller than HiGHS's dual feasibility tolerance (1e-7).
_PRICE_TOL = 1e-6


@dataclass(frozen=True)
class Column:
    """One agent/bundle pair; ``value`` is the bundle value in the value
    space of the instance the solution refers to (always positive)."""

    agent: int
    items: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class ColumnSolution:
    """Sparse LP solution: positive masses on columns, plus the objective
    sum(w_i * y[i,S] * ln v_i(S)) evaluated in original value space."""

    columns: tuple[Column, ...]
    mass: tuple[Fraction, ...]
    lp_value: float


@dataclass(frozen=True)
class EllipsoidRun:
    """Trace of one feasibility run: objective guess, bundle constraints
    used as cuts, iteration count, and why the run stopped.

    'volume' and 'flat' both certify that no feasible dual point remains in
    the ellipsoid: the former by volume exhaustion, the latter because the
    support interval along a violated constraint's normal no longer reaches
    the feasible side.
    """

    o: float
    columns: tuple[tuple[int, tuple[int, ...]], ...]
    iterations: int
    reason: str  # 'volume' | 'flat' | 'feasible-center'


# ---------------------------------------------------------------------------
# separation oracle

_EPS_RANGE_MSG = "epsilon must be in (0, 1]"


class _Guess:
    """Precomputed DP data for one (agent, top-value) guess."""

    __slots__ = ("items", "z", "vals_f", "zcap", "ln_total")

    def __init__(self, items, z, vals_f, zcap, ln_total):
        self.items = items
        self.z = z
        self.vals_f = vals_f
        self.zcap = zcap
        self.ln_total = ln_total  # ln of the exact value of all its items


class _AgentPlan:
    __slots__ = ("agent", "w_f", "order", "order_vals", "guesses", "ints", "denom")

    def __init__(self, agent, w_f, order, order_vals, guesses, ints, denom):
        self.agent = agent
        self.w_f = w_f
        self.order = order            # positive items, by value desc then index
        self.order_vals = order_vals  # their values as doubles
        self.guesses = guesses
        self.ints = ints              # every value times denom, exactly
        self.denom = denom            # lcm of the values' denominators

    def bundle_float(self, items) -> float:
        """v_i(items) as the nearest double (the float of the exact sum)."""
        return sum(self.ints[j] for j in items) / self.denom


def _build_plans(instance: Instance, epsilon: float) -> list[_AgentPlan]:
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(_EPS_RANGE_MSG)
    m = instance.num_items
    eps_frac = Fraction(str(epsilon))
    # Unit eps * v* / (2m); z_j = floor(v_j / unit) = floor(v_j * num / (eps_num * v*)).
    num = 2 * m * eps_frac.denominator
    plans = []
    for i, agent in enumerate(instance.agents):
        ints, denom = int_row(agent.values)
        pos = sorted((j for j in range(m) if ints[j] > 0), key=lambda j: (-ints[j], j))
        if not pos:
            plans.append(_AgentPlan(i, float(agent.weight), None, None, [], ints, denom))
            continue
        order = np.asarray(pos, dtype=np.int64)
        order_vals = np.asarray([ints[j] / denom for j in pos])
        suffix_totals = list(itertools.accumulate(ints[j] for j in reversed(pos)))[::-1]
        guesses = []
        seen_values = set()
        for start, jstar in enumerate(pos):
            top = ints[jstar]
            if top in seen_values:
                continue
            seen_values.add(top)
            den = eps_frac.numerator * top
            z = np.asarray([ints[j] * num // den for j in pos[start:]], dtype=np.int64)
            guesses.append(
                _Guess(
                    items=order[start:],
                    z=z,
                    vals_f=order_vals[start:],
                    zcap=int(z.sum()),
                    ln_total=math.log(suffix_totals[start] / denom),
                )
            )
        plans.append(
            _AgentPlan(i, float(agent.weight), order, order_vals, guesses, ints, denom)
        )
    return plans


def _sweep(z: np.ndarray, costs: np.ndarray, vals: np.ndarray, zcap: int):
    """All-targets min-cost cover DP over exact unit sums.

    Returns (cost, val, choice): for every exact unit sum t, the cheapest
    selection reaching t, its true (unrounded) value, and the per-item
    update bits used to reconstruct a selection.
    """
    cost = np.full(zcap + 1, np.inf)
    cost[0] = 0.0
    val = np.zeros(zcap + 1)
    choice = np.zeros((len(z), zcap + 1), dtype=bool)
    for k in range(len(z)):
        zk = int(z[k])
        if zk == 0:
            continue
        cand = cost[: zcap + 1 - zk] + costs[k]
        cur = cost[zk:]
        better = cand < cur
        if not better.any():
            continue
        cost[zk:] = np.where(better, cand, cur)
        val[zk:] = np.where(better, val[: zcap + 1 - zk] + vals[k], val[zk:])
        choice[k, zk:] = better
    return cost, val, choice


def _reconstruct(z: np.ndarray, choice: np.ndarray, t: int) -> list[int]:
    picked = []
    for k in range(len(z) - 1, -1, -1):
        if choice[k, t]:
            picked.append(k)
            t -= int(z[k])
    if t != 0:
        raise RuntimeError("cover DP backtrack failed")
    picked.reverse()
    return picked


def _verify_cut(plan: _AgentPlan, item_ids, alpha, beta_i, ln_slack) -> bool:
    lhs = float(alpha[item_ids].sum()) + beta_i
    total = plan.bundle_float(item_ids)
    if total <= 0:
        return False
    rhs = plan.w_f * (ln_slack + math.log(total))
    return lhs < rhs


def _ratio_screen(
    plans: list[_AgentPlan],
    alpha: np.ndarray,
    beta: np.ndarray,
    ln_slack: float,
) -> list[tuple[int, tuple[int, ...]]]:
    """At most one violated column per agent, from the knapsack LP's order.

    Each agent's positive items are sorted by alpha_j / v_ij, Dantzig's
    greedy order for the knapsack LP relaxation, and the prefix with the
    largest margin is taken.  A prefix is returned only if ``_verify_cut``
    confirms it; an empty list proves nothing.
    """
    found = []
    for plan in plans:
        if plan.order is None:
            continue
        a = alpha[plan.order]
        perm = np.argsort(a / plan.order_vals, kind="stable")
        beta_i = float(beta[plan.agent])
        lhs = np.cumsum(a[perm]) + beta_i
        margins = plan.w_f * (ln_slack + np.log(np.cumsum(plan.order_vals[perm]))) - lhs
        k = int(np.argmax(margins))
        if margins[k] <= 0.0:
            continue
        ids = plan.order[perm[: k + 1]]
        if _verify_cut(plan, ids, alpha, beta_i, ln_slack):
            found.append((plan.agent, tuple(int(j) for j in sorted(ids))))
    return found


def _oracle_query(
    plans: list[_AgentPlan],
    alpha: np.ndarray,
    beta: np.ndarray,
    ln_slack: float,
) -> Optional[tuple[int, tuple[int, ...]]]:
    # Sweep over (agent, top-value) guesses; exact within the rounding.
    # With alpha >= 0 a bundle's verified margin is at most
    # w_i * (ln_slack + ln(its guess's total)) - beta_i, and the totals
    # shrink along the guesses, so the first guess where that is <= 0 ends
    # the agent's search.
    for plan in plans:
        beta_i = float(beta[plan.agent])
        for guess in plan.guesses:
            if plan.w_f * (ln_slack + guess.ln_total) <= beta_i:
                break
            cost, val, choice = _sweep(guess.z, alpha[guess.items], guess.vals_f, guess.zcap)
            with np.errstate(divide="ignore", invalid="ignore"):
                rhs = plan.w_f * (ln_slack + np.log(val))
                margin = rhs - (cost + beta_i)
            margin[~(np.isfinite(cost) & (val > 0))] = -np.inf
            t = int(np.argmax(margin))
            if margin[t] <= 0.0:
                continue
            picked = _reconstruct(guess.z, choice, t)
            ids = guess.items[picked]
            if _verify_cut(plan, ids, alpha, beta_i, ln_slack):
                return plan.agent, tuple(int(j) for j in sorted(ids))
    return None


def separation_oracle(
    instance: Instance, epsilon: float, alpha: Sequence[float], beta: Sequence[float]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Find (i, S') with sum(alpha[S']) + beta_i < w_i ln((1+eps/2) v_i(S')).

    ``alpha`` holds one dual per item and ``beta`` one per agent.  Guesses
    the agent and the top item value of a violating bundle, rounds the
    remaining values down to multiples of eps*v*/(2m), and solves the
    min-cost cover problem for every reachable rounded total; every returned
    pair is re-checked against the inequality at the true values before
    being reported.  The rounding unit is relative to the guessed top value,
    so the values are taken as given: they need not be scaled.  Returns None
    when no guess produces a qualifying pair.  Raises ValueError on wrong
    dimensions or a negative alpha, which lies outside the dual.
    """
    plans = _build_plans(instance, epsilon)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != (instance.num_items,) or beta.shape != (instance.num_agents,):
        raise ValueError("dual point has wrong dimensions")
    if (alpha < 0).any():
        raise ValueError("dual point has a negative alpha")
    return _oracle_query(plans, alpha, beta, math.log1p(epsilon / 2.0))


# ---------------------------------------------------------------------------
# ellipsoid feasibility runs


def _log_unit_ball_volume(d: int) -> float:
    return (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


def ellipsoid_run(
    scaled: Instance,
    o: float,
    epsilon: float,
) -> EllipsoidRun:
    """Central-cut ellipsoid over the dual in dimension n + m.

    At each center: negative alpha coordinates are cut first, then the
    objective constraint sum(alpha) + sum(beta) <= o, then a violated bundle
    constraint from the oracle, which is recorded as a column.  The run ends
    when the oracle finds nothing (feasible-center), when the ellipsoid
    volume drops below that of the termination cuboid (volume), or when the
    ellipsoid's support along a violated constraint's normal no longer
    reaches that constraint's feasible side (flat).

    The starting box comes from the dual bound ln(m vmax^2), which holds
    only when every value is 0 or >= 1, so ``scaled`` must already be
    normalised (:func:`scale_values`); ValueError otherwise.
    """
    if any(0 < v < 1 for a in scaled.agents for v in a.values):
        raise ValueError("instance must be scaled: values 0 or >= 1")
    plans = _build_plans(scaled, epsilon)
    n, m = scaled.num_agents, scaled.num_items
    d = n + m
    ln_slack = math.log1p(epsilon / 2.0)
    vmax = max(float(max(a.values)) for a in scaled.agents)
    vmax = max(vmax, 1.0)
    # Box from the dual bound ln(m vmax^2), with headroom.
    span = math.log(m * vmax * vmax) + 1.0
    center = np.concatenate([np.full(m, span / 2.0), np.zeros(n)])
    semiaxes = np.concatenate(
        [np.full(m, span / 2.0), np.full(n, span)]
    ) * math.sqrt(d)
    # The ellipsoid matrix is kept in factored form E = L L^T: the cut norm
    # g^T E g becomes a sum of squares, which cannot cancel to a negative
    # value the way the explicit symmetric update does on face-hugging runs.
    L = np.diag(semiaxes)
    lnvol = _log_unit_ball_volume(d) + float(np.log(semiaxes).sum())
    target = d * math.log(epsilon / (16.0 * d))
    # Exact per-cut volume drop of the central-cut update.
    step = 0.5 * (d * math.log(d * d / (d * d - 1.0)) + math.log((d - 1.0) / (d + 1.0)))
    sigma_sqrt = math.sqrt(d * d / (d * d - 1.0))
    shrink = 1.0 - math.sqrt((d - 1.0) / (d + 1.0))
    collected: list[tuple[int, tuple[int, ...]]] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    iterations = 0
    obj_slack = epsilon / 16.0
    while True:
        if lnvol < target:
            reason = "volume"
            break
        alpha = center[:m]
        beta = center[m:]
        jmin = int(np.argmin(alpha))
        g = np.zeros(d)
        # ``margin``: how far the constraint's feasible side sits from the
        # center, measured against the cut normal.  If the ellipsoid's
        # support radius along the normal is smaller, no feasible dual point
        # is left inside and the run is certified the same way volume
        # exhaustion certifies it.
        if alpha[jmin] < 0.0:
            g[jmin] = -1.0
            margin = -float(alpha[jmin])
        elif center.sum() > o:
            g[:] = 1.0
            margin = float(center.sum()) - (o - obj_slack)
        else:
            res = _oracle_query(plans, alpha, beta, ln_slack)
            if res is None:
                reason = "feasible-center"
                break
            i, items = res
            key = (i, items)
            if key not in seen:
                seen.add(key)
                collected.append(key)
            for j in items:
                g[j] = -1.0
            g[m + i] = -1.0
            value = sum(
                (scaled.agents[i].values[j] for j in items), Fraction(0)
            )
            rhs = float(scaled.agents[i].weight) * (
                ln_slack + math.log(float(value))
            )
            margin = rhs - (float(alpha[list(items)].sum()) + float(beta[i]))
        u = L.T @ g
        q = float(u @ u)
        if not math.isfinite(q) or q <= 0.0:
            raise NumericalCollapse("cut norm lost positivity")
        norm = math.sqrt(q)
        if norm < margin:
            reason = "flat"
            break
        b = L @ (u / norm)
        center = center - b / (d + 1.0)
        # L' = sqrt(sigma) (L - shrink * b (u/|u|)^T) keeps E positive
        # definite by construction.
        L = sigma_sqrt * (L - shrink * np.outer(b, u / norm))
        lnvol += step
        iterations += 1
        if iterations % _FINITE_CHECK_PERIOD == 0 and not np.all(np.isfinite(L)):
            raise NumericalCollapse("ellipsoid factor has non-finite entries")
    return EllipsoidRun(
        o=o, columns=tuple(collected), iterations=iterations, reason=reason
    )


# ---------------------------------------------------------------------------
# primal side


def _build_conf_lp(
    instance: Instance,
    cols: list[tuple[int, tuple[int, ...]]],
    ln_shift: float,
) -> LinearProgram:
    n, m = instance.num_agents, instance.num_items
    agents_in = sorted({i for i, _ in cols})
    objective = tuple(
        float(instance.agents[i].weight)
        * (ln_shift + math.log(float(instance.bundle_value(i, items))))
        for i, items in cols
    )
    rows = []
    senses = []
    rhs = []
    for i in agents_in:
        rows.append(tuple(_ONE if c[0] == i else _ZERO for c in cols))
        senses.append("=")
        rhs.append(_ONE)
    item_sets = [frozenset(c[1]) for c in cols]
    for j in range(m):
        rows.append(tuple(_ONE if j in s else _ZERO for s in item_sets))
        senses.append("<=")
        rhs.append(_ONE)
    return LinearProgram(
        objective=objective,
        rows=tuple(rows),
        senses=tuple(senses),
        rhs=tuple(rhs),
    )


def _column_solution(
    instance: Instance,
    cols: Sequence[tuple[int, tuple[int, ...]]],
    masses: Sequence[Fraction],
) -> ColumnSolution:
    """The columns of positive mass, and their LP value in the value space
    of ``instance``."""
    columns = []
    mass = []
    lp_value = 0.0
    for (i, items), y in zip(cols, masses):
        if y == 0:
            continue
        v = instance.bundle_value(i, items)
        columns.append(Column(agent=i, items=items, value=v))
        mass.append(y)
        lp_value += float(y) * float(instance.agents[i].weight) * math.log(float(v))
    return ColumnSolution(columns=tuple(columns), mass=tuple(mass), lp_value=lp_value)


def _augment_columns(
    instance: Instance, columns: Iterable[tuple[int, Sequence[int]]]
) -> list[tuple[int, tuple[int, ...]]]:
    n, m = instance.num_agents, instance.num_items
    pool: dict[tuple[int, tuple[int, ...]], None] = {}
    for i, items in columns:
        key = (i, tuple(sorted(items)))
        if not key[1]:
            raise ValueError("empty column")
        if not (0 <= i < n and 0 <= key[1][0] and key[1][-1] < m):
            raise ValueError(f"column {key} has an agent or item index out of range")
        if len(set(key[1])) < len(key[1]):
            raise ValueError(f"column {key} repeats an item")
        if instance.bundle_value(i, key[1]) <= 0:
            raise ValueError("zero-value column")
        pool.setdefault(key)
    for i, agent in enumerate(instance.agents):
        best_j = None
        best_v = _ZERO
        for j, v in enumerate(agent.values):
            if v > best_v:
                best_v = v
                best_j = j
        if best_j is not None:
            pool.setdefault((i, (best_j,)))
    return sorted(pool)


class _HighsLP:
    """The restricted primal in one HiGHS model, kept across rounds.

    Minimises the negated objective over rows items <= 1 and agents = 1.
    Columns are only ever added, so each ``solve`` starts from the last
    optimal basis.  ``_Highs`` is scipy's bundled binding, which is private
    and loaded by file path: ``tests/test_configlp.py`` pins every method
    called here and the sign of the duals.
    """

    def __init__(self, n: int, m: int):
        h = _Highs()
        h.setOptionValue("output_flag", False)
        self._inf = h.getInfinity()
        lower = np.concatenate([np.full(m, -self._inf), np.ones(n)])
        h.addRows(
            m + n, lower, np.ones(m + n), 0,
            np.zeros(m + n, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0),
        )
        self._h = h
        self._m = m

    def add_column(self, cost: float, agent: int, items: tuple[int, ...]) -> None:
        rows = np.asarray([*items, self._m + agent], dtype=np.int32)
        self._h.addCol(cost, 0.0, self._inf, len(rows), rows, np.ones(len(rows)))

    def basis(self) -> tuple[list[int], list[int]]:
        """The basic column indices, and the rows that are not basic, hence
        tight: items are rows 0..m-1, agents follow."""
        b = self._h.getBasis()
        basic = [c for c, s in enumerate(b.col_status) if s == HighsBasisStatus.kBasic]
        tight = [r for r, s in enumerate(b.row_status) if s != HighsBasisStatus.kBasic]
        return basic, tight

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Alpha (item duals, clipped at 0) and beta (agent duals) at the
        optimum: HiGHS's row duals of the minimisation, negated."""
        h = self._h
        h.run()
        status = h.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise NumericalCollapse(f"LP duals unavailable: {h.modelStatusToString(status)}")
        sol = h.getSolution()
        dual = np.asarray(sol.row_dual)
        m = self._m
        return np.maximum(-dual[:m], 0.0), -dual[m:]


def _basis_vertex(
    work: Instance,
    cols: Sequence[tuple[int, tuple[int, ...]]],
    basic: Sequence[int],
    tight: Sequence[int],
) -> Optional[ColumnSolution]:
    """The vertex of a basis of the restricted primal, solved exactly.

    Columns outside ``basic`` sit at 0 and every ``tight`` row at its bound
    1, so the basic masses solve the square 0/1 system
    A[tight, basic] y = 1.  Fraction-free (Bareiss) Gauss-Jordan
    elimination on ints gives each y as numerator / det.  Returns None when
    the system is not square or singular, or when y is not exactly
    feasible: some y < 0, an item load above 1 or an agent load other
    than 1.
    """
    k = len(basic)
    if len(tight) != k:
        return None
    m = work.num_items
    rows_of = [{*cols[c][1], m + cols[c][0]} for c in basic]
    a = [[1 if r in rs else 0 for rs in rows_of] + [1] for r in tight]
    prev = 1
    for c in range(k):
        p = next((r for r in range(c, k) if a[r][c]), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        top = a[c]
        piv = top[c]
        # Columns left of c are final: zero, or a diagonal that ends as det.
        for r in range(k):
            if r != c:
                row = a[r]
                f = row[c]
                if f:
                    row[c:] = [(piv * x - f * y) // prev for x, y in zip(row[c:], top[c:])]
                elif piv != prev:
                    row[c:] = [piv * x // prev for x in row[c:]]
        prev = piv
    det = prev
    nums = [row[k] for row in a]
    if det < 0:
        det = -det
        nums = [-v for v in nums]
    if any(v < 0 for v in nums):
        return None
    item_load = [0] * m
    agent_load = [0] * work.num_agents
    for c, v in zip(basic, nums):
        i, items = cols[c]
        agent_load[i] += v
        for j in items:
            item_load[j] += v
    if any(v > det for v in item_load) or any(v != det for v in agent_load):
        return None
    # Pool order, as _augment_columns sorts it, so lp_value sums the same way.
    picked = sorted((cols[c], Fraction(v, det)) for c, v in zip(basic, nums))
    return _column_solution(work, [key for key, _ in picked], [y for _, y in picked])


def solve_restricted_primal(
    instance: Instance,
    columns: Iterable[tuple[int, Sequence[int]]],
    epsilon: float,
) -> ColumnSolution:
    """Solve the configuration LP restricted to the given columns, exactly.

    The objective prices each bundle at w_i * ln((1+eps/2) v_i(S)), the
    values inflated the same way the oracle's cut constraints were; the
    reported lp_value is recomputed without the inflation, in the value
    space of ``instance``, whose values need not be scaled.  Every agent
    with a positive item gets its best singleton added, so the per-agent
    mass constraint is always satisfiable.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(_EPS_RANGE_MSG)
    cols = _augment_columns(instance, columns)
    if not cols:
        raise Infeasible("no columns: no agent values any item")
    sol = solve_lp(_build_conf_lp(instance, cols, math.log1p(epsilon / 2.0)))
    if sol.status != "optimal":
        raise Infeasible(f"restricted configuration LP is {sol.status}")
    return _column_solution(instance, cols, sol.values)


FULL_ENUM_MAX_ITEMS = 12


def full_enumeration_lp(instance: Instance) -> ColumnSolution:
    """Configuration LP solved exactly over every nonzero-value column.

    Test oracle; column count is n * 2^m, guarded at m <= 12.
    """
    validate(instance)
    n, m = instance.num_agents, instance.num_items
    if m > FULL_ENUM_MAX_ITEMS:
        raise TooLarge(f"m = {m} exceeds the full-enumeration guard")
    cols: list[tuple[int, tuple[int, ...]]] = []
    for i in range(n):
        agent = instance.agents[i]
        if agent.weight == 0:
            continue
        sums = [_ZERO] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & (-mask)
            sums[mask] = sums[mask ^ low] + agent.values[low.bit_length() - 1]
            if sums[mask] > 0:
                cols.append(
                    (i, tuple(j for j in range(m) if mask >> j & 1))
                )
    if not cols:
        raise Infeasible("no agent with positive weight values any item")
    covered = {i for i, _ in cols}
    for i in range(n):
        if instance.agents[i].weight > 0 and i not in covered:
            raise Infeasible(f"agent {i} has positive weight but no positive value")
    sol = solve_lp(_build_conf_lp(instance, cols, 0.0))
    if sol.status != "optimal":
        raise Infeasible(f"full configuration LP is {sol.status}")
    return _column_solution(instance, cols, sol.values)


# ---------------------------------------------------------------------------
# top-level solve


def solve_configuration_lp(instance: Instance, epsilon: float) -> ColumnSolution:
    """Solve the configuration LP within an additive gap of ln(1+epsilon).

    Column generation (Gilmore & Gomory) on the restricted primal.  The
    driver works on values divided so that each agent's minimum positive
    value is 1 (:func:`scale_values`), which shifts the LP value by a
    constant and keeps its vertices; the result is stated in the value
    space of ``instance``.  The pool starts from the one-item assignment
    baseline's singletons plus every agent's best singleton.  Each round re-solves the pool's LP in one
    warm-started HiGHS model for the duals (alpha per item, beta per agent)
    and prices at (alpha, beta + _PRICE_TOL): the ratio screen adds at most
    one violated bundle per agent, and only when it finds none does the
    knapsack-cover oracle run, adding the first bundle it finds.  When the
    oracle finds none, the shifted duals are feasible, so the LP optimum is
    at most bound = sum(alpha) + sum(beta) + n * _PRICE_TOL.

    The exact stage solves HiGHS's final basis once (Applegate, Cook, Dash
    & Espinoza 2007): ``_basis_vertex`` eliminates its square 0/1 system on
    ints and checks the vertex exactly, and the driver checks the
    certificate bound - lp_value <= ln(1+eps/2) + n * _PRICE_TOL + 1e-9.  If
    either check fails, the exact rational simplex solves the whole pool
    and the certificate is checked again.  The returned masses are exactly
    feasible.

    Raises NumericalCollapse when HiGHS does not report an optimum, the
    screen or the oracle re-prices a pooled column, or the exact pool value
    misses the certificate: the doubles can then no longer be trusted.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(_EPS_RANGE_MSG)
    validate(instance)
    # Headroom for the oracle's rounding; large epsilon gains nothing.
    eps_run = min(epsilon, 0.25)
    ln_slack = math.log1p(eps_run / 2.0)
    # Private normalisation (smallest positive value 1 per agent).  No step
    # below needs it to be correct: it only conditions the doubles (the
    # HiGHS costs and the baseline's), and dropping it changes which of
    # several optimal vertices some solves return.
    scaled = scale_values(instance)
    active = [i for i in range(instance.num_agents) if instance.agents[i].weight > 0]
    work = Instance(
        num_items=instance.num_items,
        agents=tuple(scaled.agents[i] for i in active),
    )
    # The baseline gives every agent a positive item (or raises Infeasible),
    # so every agent has a column and a row, and its singletons alone are a
    # feasible pool.
    base_alloc, _ = assignment_baseline(work)
    baseline = [(owner, (j,)) for j, owner in enumerate(base_alloc.owner) if owner is not None]
    cols = _augment_columns(work, baseline)
    plans = _build_plans(work, eps_run)
    n, m = work.num_agents, work.num_items
    model = _HighsLP(n, m)

    def add(key: tuple[int, tuple[int, ...]]) -> None:
        i, items = key
        cost = -plans[i].w_f * (ln_slack + math.log(plans[i].bundle_float(items)))
        model.add_column(cost, i, items)

    pool = set(cols)
    for key in cols:
        add(key)
    while True:
        alpha, beta = model.solve()
        priced = beta + _PRICE_TOL
        found = _ratio_screen(plans, alpha, priced, ln_slack)
        if not found:
            cut = _oracle_query(plans, alpha, priced, ln_slack)
            if cut is None:
                break
            found = [cut]
        for key in found:
            if key in pool:
                raise NumericalCollapse("LP duals lost precision: pooled column re-priced")
            pool.add(key)
            cols.append(key)
            add(key)
    bound = float(alpha.sum() + beta.sum()) + n * _PRICE_TOL
    gap_cap = ln_slack + n * _PRICE_TOL + 1e-9
    work_sol = _basis_vertex(work, cols, *model.basis())
    if work_sol is None or bound - work_sol.lp_value > gap_cap:
        work_sol = solve_restricted_primal(work, cols, eps_run)
        if bound - work_sol.lp_value > gap_cap:
            raise NumericalCollapse(
                f"exact pool value {work_sol.lp_value!r} misses the dual bound {bound!r}"
            )
    # Map agents back and restate the value in the value space of instance.
    return _column_solution(
        instance,
        [(active[col.agent], col.items) for col in work_sol.columns],
        work_sol.mass,
    )

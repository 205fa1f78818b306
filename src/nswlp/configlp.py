"""Configuration LP solver for weighted Nash social welfare.

The LP has one variable y[i,S] per agent/bundle pair, so it is solved by
column generation.  One HiGHS model holds the restricted primal over a pool
of bundles; each round adds the new columns and re-solves it warm from the
last basis, in doubles, for its duals.  One exact branch-and-bound pricer
(``_best_bundle``) gives each agent's best bundle at a price vector and an
upper bound on its value, so every pricing pass also gives a Lagrangian
bound on the LP.  The first pass runs at Fisher-market prices (a few
rounds of proportional response), and its bundles seed the pool with the
one-item baseline and each agent's best singleton.  The driver stops when
the best such bound is within ln(1+eps/2) of the master, or when a pass
at the duals finds no violated column.  One exact stage ends both the driver
and the reference ``full_enumeration_lp``: HiGHS's final basis is solved
once in exact integer arithmetic, and its vertex must be exactly feasible
and its value within a cap of the dual bound, or the solve raises
``NumericalCollapse``.  Kept as references, and run by no solve: the
knapsack-cover separation oracle (``separation_oracle``, a rounded DP),
the central-cut ellipsoid over the dual that the source paper's
polynomial-time method uses (``ellipsoid_run``), and the exact rational
simplex over a given pool (``solve_restricted_primal``), whose module
``lpsolve`` is imported only when it runs.

HiGHS is scipy's compiled binding ``scipy.optimize._highspy._core``, loaded
on its own (``_scipy_ext.load``) so that a solve never imports
``scipy.optimize``.  A solve never imports numpy either: the model is
built and read through the binding's scalar and list calls, and the market
runs on lists.  Only the rounded DP and the ellipsoid import numpy, when
they run.

All bundle data and the final LP vertex stay rational; logarithms, the
LP duals, the market and the ellipsoid work in doubles.  Every float sum
that decides something in the LP stage (a market price, the master value,
the Lagrangian bound, a reduced cost) is ``math.fsum``: correctly rounded,
so it depends neither on the order of its terms nor on the Python version
(3.12's builtin ``sum`` compensates, 3.11's adds left to right).  Only the
printed ``lp_value`` is a running sum.  A pool column must
pass core's one column rule (``core._column_fault``), and every single
column, in the HiGHS model, the exact LP, the pricer's best bundle, a
verified cut or the ellipsoid, is priced by one function, ``_price``:
w_i (shift + ln v_i(S)), with v_i(S) the double nearest the exact sum of
the agent's int row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import _scipy_ext
from .core import (
    Agent,
    Infeasible,
    Instance,
    NumericalCollapse,
    TooLarge,
    scale_values,
)
from .reference import assignment_baseline

if TYPE_CHECKING:
    import numpy as np

    from .lpsolve import LinearProgram

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

# Largest DP table one guess may need, (len(z) + 16) * (zcap + 1) bytes:
# a bool choice row per item plus the cost and value rows in float64.  It
# is fixed, not read from the machine, so an input fails the same way
# everywhere.
_SWEEP_MAX_BYTES = 1 << 30


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
    __slots__ = ("agent", "source", "w_f", "guesses")

    def __init__(self, agent, source, w_f, guesses):
        self.agent = agent    # index of the agent in the instance
        self.source = source  # the Agent itself, which _price reads
        self.w_f = w_f
        # guesses[0] covers every positive item, by value desc then index;
        # an agent with none has no guesses.
        self.guesses = guesses


def _price(agent: Agent, items, shift: float) -> float:
    """A column's price w_i * (shift + ln v_i(items)).

    v_i(items) is the nearest double to the exact sum of the agent's int
    row (:attr:`~nswlp.core.Agent.int_values`): int true division rounds
    correctly, as ``float`` of a ``Fraction`` does.  ``items`` must hold a
    positive-value item.
    """
    ints, d = agent.int_values
    return float(agent.weight) * (shift + math.log(sum(ints[j] for j in items) / d))


def _build_plans(instance: Instance, epsilon: float) -> list[_AgentPlan]:
    import numpy as np

    if not (0.0 < epsilon <= 1.0):
        raise ValueError(_EPS_RANGE_MSG)
    m = instance.num_items
    eps_frac = Fraction(str(epsilon))
    # Unit eps * v* / (2m); z_j = floor(v_j / unit) = floor(v_j * num / (eps_num * v*)).
    num = 2 * m * eps_frac.denominator
    plans = []
    for i, agent in enumerate(instance.agents):
        ints, denom = agent.int_values
        pos = sorted((j for j in range(m) if ints[j] > 0), key=lambda j: (-ints[j], j))
        guesses = []  # filled below
        plans.append(_AgentPlan(i, agent, float(agent.weight), guesses))
        if not pos:
            continue
        order = np.asarray(pos, dtype=np.int64)
        order_vals = np.asarray([ints[j] / denom for j in pos])
        suffix_totals = list(itertools.accumulate(ints[j] for j in reversed(pos)))[::-1]
        seen_values = set()
        for start, jstar in enumerate(pos):
            top = ints[jstar]
            if top in seen_values:
                continue
            seen_values.add(top)
            den = eps_frac.numerator * top
            z = [ints[j] * num // den for j in pos[start:]]
            zcap = sum(z)  # Python ints: a tiny epsilon overflows int64
            size = (len(z) + 16) * (zcap + 1)
            if size > _SWEEP_MAX_BYTES:
                raise TooLarge(
                    f"agent {i}'s separation table needs {size} bytes at epsilon "
                    f"{epsilon!r}, over the {_SWEEP_MAX_BYTES}-byte guard"
                )
            guesses.append(
                _Guess(
                    items=order[start:],
                    z=np.asarray(z, dtype=np.int64),
                    vals_f=order_vals[start:],
                    zcap=zcap,
                    ln_total=math.log(suffix_totals[start] / denom),
                )
            )
    return plans


def _sweep(z: np.ndarray, costs: np.ndarray, vals: np.ndarray, zcap: int):
    """All-targets min-cost cover DP over exact unit sums.

    Returns (cost, val, choice): for every exact unit sum t, the cheapest
    selection reaching t, its true (unrounded) value, and the per-item
    update bits used to reconstruct a selection.
    """
    import numpy as np

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
    """Whether the bundle ``item_ids``, a nonempty set of the plan's positive
    items, violates its constraint at its price (:func:`_price`)."""
    return float(alpha[item_ids].sum()) + beta_i < _price(plan.source, item_ids, ln_slack)


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
    import numpy as np

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
    dimensions or a negative alpha, which lies outside the dual, and
    TooLarge when one guess's DP table would exceed ``_SWEEP_MAX_BYTES``
    (a small epsilon), before any table is built.
    """
    import numpy as np

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
    import numpy as np

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
            rhs = _price(scaled.agents[i], items, ln_slack)
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
    # Imported here, as in solve_restricted_primal, so that no solve loads
    # the Fraction simplex.
    from .lpsolve import LinearProgram

    n, m = instance.num_agents, instance.num_items
    agents_in = sorted({i for i, _ in cols})
    objective = tuple(_price(instance.agents[i], items, ln_shift) for i, items in cols)
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
    """The valid ``columns`` plus each positive-weight agent's best
    singleton, sorted.  A zero-weight agent takes no part: its columns are
    checked, then dropped."""
    pool: dict[tuple[int, tuple[int, ...]], None] = {}
    for i, items in columns:
        key = (i, tuple(sorted(items)))
        if not key[1]:
            raise ValueError("empty column")
        if instance.bundle_value(*key) <= 0:
            raise ValueError("zero-value column")
        if instance.agents[i].weight > 0:
            pool.setdefault(key)
    for i, agent in enumerate(instance.agents):
        ints = agent.int_values[0]
        top = max(ints, default=0)
        if top > 0 and agent.weight > 0:
            pool.setdefault((i, (ints.index(top),)))
    return sorted(pool)


class _HighsLP:
    """The restricted primal in one HiGHS model, kept across rounds.

    Minimises the negated objective over rows items <= 1 and agents = 1.
    Columns are only ever added, so each ``solve`` starts from the last
    optimal basis.  ``tolerance``, when given, is HiGHS's primal and dual
    feasibility tolerance (default 1e-7).  ``_Highs`` is scipy's bundled
    binding, which is private and loaded by file path:
    ``tests/test_configlp.py`` pins every method called here and the sign
    of the duals.  Only its scalar and list calls are used: the binding
    converts an array argument (``addRows``, ``addCol``) with numpy, which
    a solve would then import.
    """

    def __init__(self, n: int, m: int, tolerance: Optional[float] = None):
        h = _Highs()
        h.setOptionValue("output_flag", False)
        if tolerance is not None:
            h.setOptionValue("primal_feasibility_tolerance", tolerance)
            h.setOptionValue("dual_feasibility_tolerance", tolerance)
        self._inf = h.getInfinity()
        rows = _highs.HighsLp()
        rows.num_row_ = m + n
        rows.row_lower_ = [-self._inf] * m + [1.0] * n
        rows.row_upper_ = [1.0] * (m + n)
        h.passModel(rows)
        self._h = h
        self._m = m
        self._cols = 0
        self.rounds = 0

    def add_column(self, cost: float, agent: int, items: tuple[int, ...]) -> None:
        h, col = self._h, self._cols
        h.addVar(0.0, self._inf)
        h.changeColCost(col, cost)
        for row in (*items, self._m + agent):
            h.changeCoeff(row, col, 1.0)
        self._cols += 1

    def basis(self) -> tuple[list[int], list[int]]:
        """The basic column indices, and the rows that are not basic, hence
        tight: items are rows 0..m-1, agents follow."""
        b = self._h.getBasis()
        basic = [c for c, s in enumerate(b.col_status) if s == HighsBasisStatus.kBasic]
        tight = [r for r, s in enumerate(b.row_status) if s != HighsBasisStatus.kBasic]
        return basic, tight

    def solve(self) -> tuple[list[float], list[float]]:
        """Alpha (item duals, clipped at 0) and beta (agent duals) at the
        optimum: HiGHS's row duals of the minimisation, negated.  Raises
        NumericalCollapse, naming this solve's round (1 for the first) and
        HiGHS's simplex iteration count, when HiGHS reports no optimum."""
        h = self._h
        h.run()
        self.rounds += 1
        status = h.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise NumericalCollapse(
                f"LP duals unavailable at driver round {self.rounds}: "
                f"{h.modelStatusToString(status)} after "
                f"{h.getInfo().simplex_iteration_count} simplex iterations"
            )
        dual = h.getSolution().row_dual
        m = self._m
        return [max(-d, 0.0) for d in dual[:m]], [-d for d in dual[m:]]


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


def _positive_weight(instance: Instance, source: Instance) -> tuple[list[int], Instance]:
    """The agents of ``instance`` with positive weight, and the instance of
    those agents as ``source`` (``instance`` or its scaled copy) has them.
    The LP fixes every agent's mass at 1, so a zero-weight agent gets
    neither a row nor a column."""
    active = [i for i, agent in enumerate(instance.agents) if agent.weight > 0]
    return active, replace(source, agents=tuple(source.agents[i] for i in active))


def _certified_vertex(
    instance: Instance, active: Sequence[int], work: Instance,
    cols: Sequence[tuple[int, tuple[int, ...]]], model: _HighsLP, bound: float, cap: float,
) -> ColumnSolution:
    """The exact vertex of ``model``'s final basis over the pool ``cols`` of
    ``work``, checked against the dual bound and stated for ``instance``
    (work agent k is instance agent ``active[k]``).

    Raises NumericalCollapse when the basis is not an exactly feasible
    vertex (:func:`_basis_vertex`), or unless bound - lp_value <= cap, both
    in the value space of ``work``: the check fails closed, so a nan bound
    raises.
    """
    sol = _basis_vertex(work, cols, *model.basis())
    if sol is None:
        raise NumericalCollapse("HiGHS's final basis is not an exactly feasible vertex")
    if not bound - sol.lp_value <= cap:
        raise NumericalCollapse(f"exact pool value {sol.lp_value!r} misses the dual bound {bound!r}")
    return _column_solution(instance, [(active[c.agent], c.items) for c in sol.columns], sol.mass)


def solve_restricted_primal(
    instance: Instance,
    columns: Iterable[tuple[int, Sequence[int]]],
    epsilon: float,
) -> ColumnSolution:
    """Solve the configuration LP restricted to the given columns, exactly.

    A library entry and the exact reference the basis solve is tested
    against; no solve calls it.  It runs the exact rational simplex
    (``lpsolve.solve_lp``).  The objective prices each bundle at
    w_i * ln((1+eps/2) v_i(S)), the values inflated the same way the
    oracle's cut constraints were; the reported lp_value is recomputed
    without the inflation, in the value space of ``instance``, whose values
    need not be scaled.  Every agent with a positive item and a positive
    weight gets its best singleton added, so the per-agent mass constraint
    is always satisfiable.  A zero-weight agent takes no part: its columns
    are dropped.
    """
    from .lpsolve import solve_lp

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
    """Configuration LP over every nonzero-value column, certified.

    Test oracle; column count is n * 2^m, guarded at m <= 12.  Zero-weight
    agents take no part.  Every column goes into one HiGHS model, at primal
    and dual feasibility tolerance 1e-10, whose final basis is solved
    exactly (:func:`_certified_vertex`).  Since the model holds every
    column, pricing them all at its duals is exhaustive: with d the largest
    reduced cost, clipped at 0, the LP optimum is at most
    sum(alpha) + sum(beta) + n * d, and the exact vertex must come within
    1e-9 of that bound, or NumericalCollapse is raised.  At HiGHS's default
    tolerance, 1e-7, 18 of 633 seeded draws, most with values from 1e-12
    to 1e12, missed that certificate by up to 3.8e-7.  Raises Infeasible
    when a positive-weight agent values no item or no allocation has
    positive welfare.  At m = 12 (3 agents, zipf) a solve took 0.3-0.5 s
    on a 2-vCPU Xeon VM under Python 3.11.
    """
    m = instance.num_items
    if m > FULL_ENUM_MAX_ITEMS:
        raise TooLarge(f"m = {m} exceeds the full-enumeration guard")
    active, work = _positive_weight(instance, instance)
    idle = [i for i, agent in zip(active, work.agents) if not any(agent.int_values[0])]
    if len(idle) == len(active):
        raise Infeasible("no agent with positive weight values any item")
    if idle:
        raise Infeasible(f"agent {idle[0]} has positive weight but no positive value")
    assignment_baseline(work)  # raises Infeasible exactly when the LP has no point
    model = _HighsLP(len(active), m, tolerance=1e-10)
    cols, prices = [], []  # (agent, items) over work, and its price
    for k, agent in enumerate(work.agents):
        ints = agent.int_values[0]
        sums = [0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & (-mask)
            sums[mask] = sums[mask ^ low] + ints[low.bit_length() - 1]
            if sums[mask] > 0:
                cols.append((k, tuple(j for j in range(m) if mask >> j & 1)))
                prices.append(_price(agent, cols[-1][1], 0.0))
                model.add_column(-prices[-1], *cols[-1])
    alpha, beta = model.solve()
    reduced = max(
        p - math.fsum(alpha[j] for j in items) - beta[k] for (k, items), p in zip(cols, prices)
    )
    bound = math.fsum(alpha + beta) + len(active) * max(0.0, reduced)
    return _certified_vertex(instance, active, work, cols, model, bound, 1e-9)


# ---------------------------------------------------------------------------
# branch-and-bound pricing and the market seed

# Nodes one pricer call may expand.  At LP epsilon 0.025 and seed 1, the
# most one call used was 2,090 at zipf (20,60), 32,624 at zipf (30,100) and
# 65,901 at zipf (50,150), all with vmax 10, and 1,551,275 at zipf (100,300)
# with vmax 1000; uniform draws of those shapes used at most 814.
_NODE_BUDGET = 2_000_000

_MARKET_ROUNDS = 10


def _best_bundle(
    agent: Agent, name: int, x: Sequence[float], ln_slack: float
) -> tuple[tuple[int, ...], float, float]:
    """The agent's best bundle at item prices ``x`` >= 0, by branch and bound.

    Maximises f(S) = w ln v(S) - x(S) over the agent's nonempty sets of
    positive items (the agent must have one).  Items priced 0 belong to
    every best bundle and are fixed; the others are searched depth first on
    an explicit stack, in Dantzig's order x_j / v_j, including an item
    before excluding it.  A node is bounded by the continuous relaxation of
    its free items: take them whole in ratio order while w / v >= x_j / v_j
    still holds after the item, then the fraction that brings w / v down to
    the next ratio.  A node whose bound is within w ln_slack of the best
    bundle found is pruned.

    Returns (items, f(items), upper): ``items`` sorted, f(items) priced as
    the HiGHS costs are (:func:`_price`), and ``upper`` >= max_S f(S) with
    f(items) >= upper - w ln_slack.  Raises TooLarge, naming agent
    ``name``, when the search expands more than ``_NODE_BUDGET`` nodes.
    """
    ints, d = agent.int_values
    w = float(agent.weight)
    forced, free = [], []
    for j, q in enumerate(ints):
        if q > 0:
            (free if x[j] > 0 else forced).append(j)
    free.sort(key=lambda j: (x[j] / (ints[j] / d), j))
    vals = [ints[j] / d for j in free]
    costs = [x[j] for j in free]
    ratios = [c / v for c, v in zip(costs, vals)]
    k_end = len(free)
    prune = w * ln_slack
    best, best_at = -math.inf, None
    upper = -math.inf
    # (next free item, value, cost, chosen): chosen is a linked list
    # (free index, rest) of the included free items.
    stack = [(0, sum(ints[j] for j in forced) / d, 0.0, None)]
    nodes = 0
    while stack:
        k, v, c, chosen = stack.pop()
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise TooLarge(f"agent {name}'s pricer exceeded {_NODE_BUDGET} branch-and-bound nodes")
        b, vb, cb = k, v, c
        while b < k_end and (vb + vals[b]) * ratios[b] <= w:
            vb += vals[b]
            cb += costs[b]
            b += 1
        if b < k_end and vb * ratios[b] < w:
            bound = w * math.log(w / ratios[b]) - cb - (w - vb * ratios[b])
        else:
            bound = w * math.log(vb) - cb if vb > 0 else -math.inf
        if bound <= best + prune:
            upper = max(upper, bound)
            continue
        if vb > 0 and w * math.log(vb) - cb > best:
            best, best_at = w * math.log(vb) - cb, (chosen, k, b)
        for t in range(k, b):
            stack.append((t + 1, v, c, chosen))
            v, c, chosen = v + vals[t], c + costs[t], (t, chosen)
        if b < k_end:
            stack.append((b + 1, v, c, chosen))
            stack.append((b + 1, v + vals[b], c + costs[b], (b, chosen)))
    chosen, k, b = best_at
    picked = list(range(k, b))
    while chosen is not None:
        picked.append(chosen[0])
        chosen = chosen[1]
    items = tuple(sorted(forced + [free[t] for t in picked]))
    value = _price(agent, items, 0.0) - math.fsum(x[j] for j in items)
    return items, value, max(upper, value, best)


def _market_seed(work: Instance) -> list[float]:
    """Fisher-market prices for ``work``'s items.

    Runs ``_MARKET_ROUNDS`` rounds of proportional response (Wu & Zhang
    2007) with budgets w_i on the values of ``work``, starting from bids in
    proportion to value: each agent splits its budget over the items in
    proportion to v_ij x_ij, where x_ij = b_ij / p_j is its share of item j
    (0 for an item nobody bids on).  Returns the prices p_j = sum_i b_ij.
    Every agent must value some item.  An agent whose gains sum to 0,
    because all its bids underflowed to 0, bids 0 on every item from then
    on: it leaves the market, and the prices stay finite and >= 0, where
    the Lagrangian bound is valid.  Every sum is ``math.fsum``, so the
    prices do not depend on the order of the agents or the items.
    """
    vals = [[q / d for q in ints] for ints, d in (a.int_values for a in work.agents)]
    budget = [float(a.weight) for a in work.agents]

    def respond(w: float, gain: list[float]) -> list[float]:
        """Bids w g_j / sum(g), each computed as (w * g_j) / sum(g), or 0
        when sum(g) is 0."""
        total = math.fsum(gain)
        if not total:
            return [0.0] * len(gain)
        return [(w * g) / total for g in gain]

    bids = [respond(w, row) for w, row in zip(budget, vals)]
    for _ in range(_MARKET_ROUNDS):
        # Every bid on an item priced 0 is 0, and 0 / inf gives its share 0.
        divisors = [p if p > 0 else math.inf for p in map(math.fsum, zip(*bids))]
        bids = [
            respond(w, [v * (b / p) for v, b, p in zip(row, bid, divisors)])
            for w, row, bid in zip(budget, vals, bids)
        ]
    return [math.fsum(col) for col in zip(*bids)]


# ---------------------------------------------------------------------------
# top-level solve


def solve_configuration_lp(instance: Instance, epsilon: float) -> ColumnSolution:
    """Solve the configuration LP within an additive gap of ln(1+epsilon).

    Column generation (Gilmore & Gomory) on the restricted primal.  The
    driver works on values divided so that each agent's minimum positive
    value is 1 (:func:`scale_values`), which shifts the LP value by a
    constant and keeps its vertices; the result is stated in the value
    space of ``instance``.  The pool starts from the singletons of the
    one-item baseline's positive matching (:func:`assignment_baseline`),
    every agent's best singleton and each agent's best bundle at the
    Fisher-market prices of ``_MARKET_ROUNDS`` rounds of proportional
    response (:func:`_market_seed`), the pricer's first pass.  HiGHS's
    costs are w_i ln v_i(S).

    For item prices x >= 0, L(x) = sum(x) + sum_i U_i(x) bounds the LP
    optimum from above (the Lagrangian bound of column generation), where
    U_i(x) is the pricer's upper bound on max_S w_i ln v_i(S) - x(S)
    (:func:`_best_bundle`, which prunes within w_i ln(1+eps/2)).  x* is the
    price vector with the lowest L seen, starting at the market prices.
    Each round re-solves the pool's LP in one warm-started HiGHS model for
    the duals (alpha per item, beta per agent) and stops when
    L(x*) - (sum(alpha) + sum(beta)) <= ln(1+eps/2) + n * _PRICE_TOL.
    L(x), that master value and each reduced cost are ``math.fsum`` sums.
    Otherwise it prices every agent at (x* + alpha) / 2 and adds each best
    bundle violated at (alpha, beta + _PRICE_TOL); when there is none it
    prices at alpha itself, and when that finds none either it stops, since
    L(alpha) is then within the same gap of the master.

    The exact stage solves HiGHS's final basis once (Applegate, Cook, Dash
    & Espinoza 2007): ``_basis_vertex`` eliminates its square 0/1 system on
    ints and checks the vertex exactly, and :func:`_certified_vertex`
    checks the certificate L(x*) - lp_value <= ln(1+eps/2) + n * _PRICE_TOL
    + 1e-9, which a nan bound fails.  The returned masses are exactly
    feasible.

    Raises NumericalCollapse when HiGHS does not report an optimum, the
    pricer re-prices a pooled column, the final basis is not an exactly
    feasible vertex, or the exact pool value misses the certificate: the
    doubles can then no longer be trusted.  Raises Infeasible when no
    allocation has positive welfare, and TooLarge, naming the agent, when
    one pricer call expands more than ``_NODE_BUDGET`` nodes.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(_EPS_RANGE_MSG)
    # The pricer's pruning slack; a large epsilon gains nothing.
    eps_run = min(epsilon, 0.25)
    ln_slack = math.log1p(eps_run / 2.0)
    # Private normalisation (smallest positive value 1 per agent).  No step
    # below needs it to be correct: it only conditions the HiGHS costs (the
    # baseline compares exact values, which it leaves in the same order),
    # and dropping it changes which of several optimal vertices some solves
    # return.
    active, work = _positive_weight(instance, scale_values(instance))
    # The baseline gives every agent a positive item (or raises Infeasible),
    # so every agent has a column and a row, and its singletons alone are a
    # feasible pool.
    base_alloc, _ = assignment_baseline(work)
    baseline = [(owner, (j,)) for j, owner in enumerate(base_alloc.owner) if owner is not None]
    n, m = work.num_agents, work.num_items
    model = _HighsLP(n, m)

    def add(key: tuple[int, tuple[int, ...]]) -> None:
        i, items = key
        model.add_column(-_price(work.agents[i], items, 0.0), i, items)

    def lagrangian(x: list[float]) -> tuple[float, list[tuple[int, tuple[int, ...], float]]]:
        """L(x), and each agent's best bundle at x with its price
        w_i ln v_i(S)."""
        uppers, bundles = [], []
        for k, agent in enumerate(work.agents):
            items, value, upper = _best_bundle(agent, active[k], x, ln_slack)
            uppers.append(upper)
            bundles.append((k, items, value + math.fsum(x[j] for j in items)))
        return math.fsum(x + uppers), bundles

    x_best = _market_seed(work)
    bound, bundles = lagrangian(x_best)
    cols = _augment_columns(work, baseline + [(k, items) for k, items, _ in bundles])
    pool = set(cols)
    for key in cols:
        add(key)
    stop_gap = ln_slack + n * _PRICE_TOL
    while True:
        duals, beta = model.solve()
        master = math.fsum(duals + beta)
        found = []
        for x in ([(a + b) / 2.0 for a, b in zip(x_best, duals)], duals):
            if bound - master <= stop_gap:
                break
            at_x, bundles = lagrangian(x)
            if at_x < bound:
                bound, x_best = at_x, x
            found = [
                (k, items) for k, items, price in bundles
                if price - math.fsum(duals[j] for j in items) > beta[k] + _PRICE_TOL
            ]
            if found:
                break
        if not found:
            break
        for key in found:
            if key in pool:
                raise NumericalCollapse("LP duals lost precision: pooled column re-priced")
            pool.add(key)
            cols.append(key)
            add(key)
    gap_cap = stop_gap + 1e-9
    return _certified_vertex(instance, active, work, cols, model, bound, gap_cap)

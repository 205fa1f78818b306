"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from nswlp import Instance, make_instance

# Every run draws the same examples, so a failure in CI reproduces locally.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


# ---------------------------------------------------------------------------
# shared instances

# Identical and near-identical valuations with n close to m.  Random draws
# almost always have an integral LP optimum; here the optimum is degenerate
# (identical rows) or strictly fractional (the last three instances have an
# integrality gap against brute force), which is where column generation
# must still reach the exact LP.
FRACTIONAL_FAMILY = [
    (["1/2", "1/2"], [[9, 6, 9]] * 2),
    (["1/3", "2/3"], [[3, 2, 1], [3, 1, 2]]),
    (["1/3"] * 3, [[7, 7, 1, 8]] * 3),
    (["1/3"] * 3, [[4, 3, 2, 1], [4, 3, 2, 2], [4, 3, 1, 1]]),
    (["1/3"] * 3, [[6, 5, 6, 5, 7]] * 3),
    (["1/3"] * 3, [[3, 8, 10, 2, 3], [1, 8, 10, 4, 2], [3, 10, 10, 4, 4]]),
    (["1/3"] * 3, [[5, 5, 8, 4, 6], [4, 5, 8, 2, 6], [4, 3, 8, 6, 5]]),
    (["1/3"] * 3, [[9, 6, 0, 10, 4], [9, 4, 0, 7, 6], [6, 2, 0, 8, 5]]),
]


# ---------------------------------------------------------------------------
# independent oracles (deliberately naive)


def ef1_by_quantifiers(values, bundles) -> bool:
    """Direct quantifier expansion of the EF1 definition."""
    vals = [Fraction(v) for v in values]
    sets = [list(b) for b in bundles]

    def v(b):
        return sum((vals[j] for j in b), Fraction(0))

    for i, b_i in enumerate(sets):
        for k, b_k in enumerate(sets):
            if i == k or not b_k:
                continue
            ok = any(v([x for x in b_k if x != j]) <= v(b_i) for j in b_k)
            if not ok:
                return False
    return True


def all_subsets(m):
    for r in range(m + 1):
        yield from itertools.combinations(range(m), r)


def exhaustive_dual_violation(instance: Instance, alpha, beta):
    """First (agent, bundle) violating sum(alpha[S]) + beta_i < w_i ln v_i(S)."""
    for i, agent in enumerate(instance.agents):
        w = float(agent.weight)
        for items in all_subsets(instance.num_items):
            if not items:
                continue
            v = instance.bundle_value(i, items)
            if v <= 0:
                continue
            lhs = sum(alpha[j] for j in items) + beta[i]
            if lhs < w * math.log(float(v)):
                return i, items
    return None


def market_seed_by_numpy(work: Instance, rounds: int):
    """The Fisher-market prices as numpy computes them: ``rounds`` rounds
    of proportional response (``configlp._market_seed``'s contract), as a
    list."""
    import numpy as np

    vals = np.asarray([[q / d for q in ints] for ints, d in (a.int_values for a in work.agents)])
    budget = np.asarray([float(a.weight) for a in work.agents])[:, None]
    bids = budget * vals / vals.sum(axis=1, keepdims=True)
    for _ in range(rounds):
        prices = bids.sum(axis=0)
        share = np.divide(bids, prices, out=np.zeros_like(bids), where=prices > 0)
        gain = vals * share
        bids = budget * gain / gain.sum(axis=1, keepdims=True)
    return bids.sum(axis=0).tolist()


def cover_by_enumeration(units, costs, target):
    """Min-cost subset with unit sum >= target, by full enumeration."""
    best = None
    n = len(units)
    for items in all_subsets(n):
        if sum(units[j] for j in items) >= target:
            c = sum(costs[j] for j in items)
            if best is None or c < best[0]:
                best = (c, items)
    return best


def knapsack_cover(units, costs, target):
    """Min-cost item set whose unit values sum to at least ``target``.

    Exact DP over (item prefix, covered units capped at target).  Returns
    the chosen item indices, or None when even all items fall short.
    """
    z = [int(t) for t in units]
    if target <= 0:
        return []
    if sum(z) < target:
        return None
    inf = math.inf
    layer = [0.0] + [inf] * target
    layers = [layer]
    parents: list[list[int]] = []
    for zk, ck in zip(z, costs):
        prev = layers[-1]
        cur = list(prev)
        par = [-1] * (target + 1)
        for t in range(target + 1):
            if prev[t] == inf:
                continue
            t2 = min(t + zk, target)
            cand = prev[t] + ck
            if cand < cur[t2]:
                cur[t2] = cand
                par[t2] = t
        layers.append(cur)
        parents.append(par)
    chosen = []
    t = target
    for k in range(len(z) - 1, -1, -1):
        if layers[k + 1][t] == layers[k][t]:
            continue
        chosen.append(k)
        t = parents[k][t]
    chosen.reverse()
    return chosen


def fraction_groups(instance: Instance, x, i):
    """Agent i's unit-mass groups sliced in ``Fraction`` arithmetic: the
    reference for ``build_groups``' integer slicing.

    Items go by non-increasing value, ties by smaller index; each group is
    filled to mass exactly 1, splitting an item across the boundary.
    """
    vals = instance.agents[i].values
    groups, current, room = [], {}, Fraction(1)
    for j in sorted(range(instance.num_items), key=lambda j: (-vals[j], j)):
        rest = x[i][j]
        while rest > 0:
            take = min(rest, room)
            current[j] = current.get(j, Fraction(0)) + take
            room -= take
            rest -= take
            if room == 0:
                groups.append(current)
                current, room = {}, Fraction(1)
    if current:
        groups.append(current)
    return groups


def fraction_pad_square(groups, x):
    """``pad_square`` in ``Fraction`` arithmetic on tuple-keyed dicts: the
    reference for the integer padding.

    Rows are ("g", agent, group index), ("dg", item) and ("pr", k); columns
    ("i", item), ("di", group row) and ("pc", k).  Returns (cells, group_of,
    item_of) with ``Fraction`` cell masses sorted by (row, column).
    """
    from nswlp import DecompositionFailure

    one, zero = Fraction(1), Fraction(0)
    m = len(x[0]) if x else 0
    edges: dict = {}
    row_keys: list = []
    for i in sorted(groups):
        for t, g in enumerate(groups[i]):
            rk = ("g", i, t)
            row_keys.append(rk)
            edges[rk] = {("i", j): frac for j, frac in sorted(g.items())}
    col_sum = {j: zero for j in range(m)}
    for rk in row_keys:
        for (_, j), frac in edges[rk].items():
            col_sum[j] += frac
    for j, s in col_sum.items():
        if s > 1:
            raise DecompositionFailure(f"item {j} carries mass {s} > 1")
    col_keys = [("i", j) for j in range(m)]
    for rk in row_keys:
        mass = sum(edges[rk].values(), zero)
        if mass > 1:
            raise DecompositionFailure(f"group {rk} carries mass {mass} > 1")
        if mass < 1:
            ck = ("di", rk)
            col_keys.append(ck)
            edges[rk][ck] = one - mass
    col_deficit: dict = {}
    row_deficit: dict = {}
    for j in range(m):
        if col_sum[j] < 1:
            rk = ("dg", j)
            row_keys.append(rk)
            edges[rk] = {("i", j): one - col_sum[j]}
            row_deficit[rk] = col_sum[j]
    for ck in col_keys:
        if ck[0] == "di":
            col_deficit[ck] = one - edges[ck[1]][ck]
    while len(row_keys) < len(col_keys):
        rk = ("pr", len(row_keys))
        row_keys.append(rk)
        edges[rk] = {}
        row_deficit[rk] = one
    while len(col_keys) < len(row_keys):
        ck = ("pc", len(col_keys))
        col_keys.append(ck)
        col_deficit[ck] = one
    drows = [rk for rk in row_keys if row_deficit.get(rk, zero) > 0]
    dcols = [ck for ck in col_keys if col_deficit.get(ck, zero) > 0]
    if sum((row_deficit[r] for r in drows), zero) != sum(
        (col_deficit[c] for c in dcols), zero
    ):
        raise DecompositionFailure("padding deficits do not balance")
    ri = ci = 0
    while ri < len(drows) and ci < len(dcols):
        r, c = drows[ri], dcols[ci]
        take = min(row_deficit[r], col_deficit[c])
        if take > 0:
            edges[r][c] = edges[r].get(c, zero) + take
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


def fraction_extraction(groups, x):
    """Birkhoff-von-Neumann extraction on ``fraction_pad_square``'s matrix,
    all in ``Fraction`` arithmetic: the reference for ``decompose``'s
    integer path.

    The matching is repaired, not rebuilt: it starts empty, and after each
    extraction only the rows whose matched edge ran out are matched again,
    in ascending row order, by shortest augmenting paths: a breadth-first
    search that expands rows first in, first out, tries each row's columns
    in ascending order and stops at the first free column.  Residuals are
    subtracted eagerly.  Returns (matchings, weights, padded_edges) like
    ``MatchingCombination``.
    """
    cells, group_of, item_of = fraction_pad_square(groups, x)
    size = len(group_of)
    rest = [{} for _ in range(size)]
    for r, c, frac in cells:
        rest[r][c] = frac
    col_of, row_of = {}, {}

    def augment(root):
        parent = {}  # column -> the row whose search reached it
        queue = collections.deque([root])
        while queue:
            r = queue.popleft()
            for c in sorted(rest[r]):
                if c in parent:
                    continue
                parent[c] = r
                if c in row_of:
                    queue.append(row_of[c])
                    continue
                while c is not None:
                    r = parent[c]
                    nxt = col_of.get(r)
                    col_of[r], row_of[c] = c, r
                    c = nxt
                return True
        return False

    matchings, weights = [], []
    free = list(range(size))
    while any(rest):
        for r in free:
            assert augment(r)
        lam = min(rest[r][col_of[r]] for r in range(size))
        real = {}
        for r in range(size):
            c = col_of[r]
            if group_of[r] is not None and item_of[c] is not None:
                real[group_of[r]] = item_of[c]
        matchings.append(real)
        weights.append(lam)
        free = []
        for r in range(size):
            c = col_of[r]
            rest[r][c] -= lam
            if rest[r][c] == 0:
                del rest[r][c], col_of[r], row_of[c]
                free.append(r)
    assert sum(weights, Fraction(0)) == 1
    return tuple(matchings), tuple(weights), len(cells)


def full_bfs_augment(adj, col_of, row_of, root, moved):
    """Shortest augmenting path by a plain breadth-first search: the
    reference for ``core._augment``.

    Rows are expanded first in, first out, each trying its columns in the
    order ``adj`` lists them and visiting each column once, and every row
    is expanded until a free column is reached, which ends the path.  Each row
    the path changes is appended to ``moved``, from the path's end back to
    the root.  Returns False, changing nothing, when no path exists.
    """
    parent = {}  # column -> the row whose search reached it
    queue = collections.deque([root])
    while queue:
        r = queue.popleft()
        for c in adj[r]:
            if c in parent:
                continue
            parent[c] = r
            if row_of[c] >= 0:
                queue.append(row_of[c])
                continue
            while True:
                r = parent[c]
                nxt = col_of[r]
                col_of[r], row_of[c] = c, r
                moved.append(r)
                if r == root:
                    return True
                c = nxt
    return False


def transpose(adj, num_cols):
    """Per column, the rows whose adjacency holds it, in ascending order."""
    out = [[] for _ in range(num_cols)]
    for r, cols in enumerate(adj):
        for c in cols:
            out[c].append(r)
    return out


def free_counts(adj, row_of):
    """Per row, how many columns in its adjacency are unmatched."""
    return [sum(row_of[c] < 0 for c in cols) for cols in adj]


def changed_groups(matchings):
    """Per matching, the set of groups whose item differs from the previous
    matching (from the empty one for the first), by comparing the dicts."""
    out, prev = [], {}
    for mat in matchings:
        out.append({g for g in prev.keys() | mat.keys() if prev.get(g) != mat.get(g)})
        prev = mat
    return out


def assert_per_matching_bound(instance: Instance, y, comb) -> int:
    """Shmoys-Tardos per matching: in every matching of ``comb``, each
    positive-weight agent's bundle is worth at least its fractional value
    sum_j x_ij v_ij minus its largest v_ij with x_ij > 0, in exact
    Fractions.  x is summed here from the column masses of ``y``.  Returns
    the number of (matching, agent) pairs checked."""
    n, m = instance.num_agents, instance.num_items
    x = [[Fraction(0)] * m for _ in range(n)]
    for col, mass in zip(y.columns, y.mass):
        for j in col.items:
            x[col.agent][j] += mass
    floor = {}
    for i, agent in enumerate(instance.agents):
        if agent.weight > 0:
            vals = agent.values
            frac = sum((x[i][j] * vals[j] for j in range(m)), Fraction(0))
            floor[i] = frac - max((vals[j] for j in range(m) if x[i][j] > 0), default=0)
    checked = 0
    for mat in comb.matchings:
        for i, low in floor.items():
            bundle = [j for (agent, _), j in mat.items() if agent == i]
            assert instance.bundle_value(i, bundle) >= low, (i, bundle, low)
            checked += 1
    return checked


def comb_weights(comb):
    """The combination's weights as reduced Fractions: its int steps over D."""
    return tuple(Fraction(step, comb.denom) for step in comb.steps)


def comb_changed(comb):
    """Per matching, the groups its diff records, in diff order."""
    return tuple(tuple(g for g, _, _ in diff) for diff in comb.diffs)


def int_marginals(x):
    """Fraction marginals as ints over the lcm D of their denominators."""
    d = math.lcm(*(f.denominator for row in x for f in row))
    return [[f.numerator * (d // f.denominator) for f in row] for row in x], d


def solve_square_exact(rows, rhs):
    """Fraction Gaussian elimination; None when singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def lp_optimum_by_vertex_enumeration(lp):
    """Enumerate candidate vertices of {rows senses rhs, x >= 0}.

    Returns (status, best objective) with status 'optimal' or 'infeasible'.
    Only sound for bounded feasible regions.
    """
    nv = len(lp.objective)
    constraints = []  # (coeffs, rhs, sense)
    for row, s, b in zip(lp.rows, lp.senses, lp.rhs):
        constraints.append((list(row), b, s))
    for j in range(nv):
        unit = [Fraction(1) if k == j else Fraction(0) for k in range(nv)]
        constraints.append((unit, Fraction(0), ">="))
    best = None
    feasible = False
    for chosen in itertools.combinations(range(len(constraints)), nv):
        rows = [constraints[c][0] for c in chosen]
        rhs = [constraints[c][1] for c in chosen]
        x = solve_square_exact(rows, rhs)
        if x is None:
            continue
        ok = True
        for coeffs, b, sense in constraints:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if sense == "<=" and lhs > b:
                ok = False
            elif sense == ">=" and lhs < b:
                ok = False
            elif sense == "=" and lhs != b:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        feasible = True
        obj = sum(c * float(v) for c, v in zip(lp.objective, x))
        if best is None or obj > best:
            best = obj
    if not feasible:
        return "infeasible", None
    return "optimal", best


def random_feasible_marginals(rng: random.Random, n: int, m: int, denom: int = 12):
    """Random rational x with column sums at most one."""
    x = [[Fraction(0)] * m for _ in range(n)]
    for j in range(m):
        while True:
            draws = [rng.randint(0, denom) for _ in range(n)]
            if sum(draws) <= denom:
                break
        for i in range(n):
            x[i][j] = Fraction(draws[i], denom)
    return x


def random_column_solution(
    rng: random.Random, instance: Instance, parts: int = 3, denom: int = 24
):
    """Feasible bundle masses built as a mixture of onto assignments, with
    mixing weights on a 1/denom lattice.

    Requires at least as many items as agents so every bundle is nonempty.
    """
    from nswlp.configlp import Column, ColumnSolution

    n, m = instance.num_agents, instance.num_items
    assert m >= n, "mixture construction needs one item per agent"
    cuts = sorted(rng.randint(0, denom) for _ in range(parts - 1))
    lams = [
        Fraction(b - a, denom)
        for a, b in zip([0] + cuts, cuts + [denom])
    ]
    mass: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for lam in lams:
        if lam == 0:
            continue
        # onto assignment: each agent appears, so bundles are nonempty
        owner = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
        rng.shuffle(owner)
        for i in range(n):
            items = tuple(j for j in range(m) if owner[j] == i)
            key = (i, items)
            mass[key] = mass.get(key, Fraction(0)) + lam
    columns = []
    masses = []
    lp_value = 0.0
    for (i, items), y in sorted(mass.items()):
        v = instance.bundle_value(i, items)
        columns.append(Column(agent=i, items=items, value=v))
        masses.append(y)
        lp_value += float(y) * float(instance.agents[i].weight) * math.log(float(v))
    return ColumnSolution(columns=tuple(columns), mass=tuple(masses), lp_value=lp_value)


@pytest.fixture
def rng():
    return random.Random(987654321)


def positive_instance(rng: random.Random, n: int, m: int, vmax: int = 9) -> Instance:
    """Random instance with all values at least 1 (handy for rounding tests)."""
    from nswlp.gen import random_weights

    weights = random_weights(n, rng)
    values = [[rng.randint(1, vmax) for _ in range(m)] for _ in range(n)]
    return make_instance(weights, values)

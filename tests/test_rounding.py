import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nswlp import (
    DecompositionFailure,
    EmptyAgent,
    allocation_from_matching,
    build_groups,
    check_ef1,
    decompose,
    log_nsw,
    make_instance,
    marginals,
    nsw,
    round_best,
    round_combination,
    brute_force_opt,
    full_enumeration_lp,
    solve_configuration_lp,
)
from nswlp import core, rounding
from nswlp.configlp import Column, ColumnSolution
from nswlp.rounding import MatchingCombination, best_allocation, item_order, pad_square
from conftest import (
    FRACTIONAL_FAMILY,
    assert_per_matching_bound,
    changed_groups,
    comb_changed,
    comb_weights,
    fraction_extraction,
    free_counts,
    fraction_groups,
    fraction_pad_square,
    int_marginals,
    positive_instance,
    random_column_solution,
    random_feasible_marginals,
    transpose,
)

F = Fraction


def colsol(instance, entries):
    """entries: list of (agent, items, mass)"""
    cols = []
    mass = []
    value = 0.0
    for i, items, y in entries:
        v = instance.bundle_value(i, items)
        cols.append(Column(agent=i, items=tuple(items), value=v))
        mass.append(F(y))
        value += float(F(y)) * float(instance.agents[i].weight) * math.log(float(v))
    return ColumnSolution(columns=tuple(cols), mass=tuple(mass), lp_value=value)


# -- marginals ---------------------------------------------------------------


def test_marginals_single_full_column():
    inst = make_instance(["1"], [[1, 1]])
    y = colsol(inst, [(0, (0, 1), 1)])
    assert marginals(y, 1, 2) == ([[1, 1]], 1)


def test_marginals_sum_over_containing_sets():
    inst = make_instance(["1"], [[1, 1]])
    y = colsol(inst, [(0, (0,), "1/2"), (0, (0, 1), "1/2")])
    assert marginals(y, 1, 2) == ([[2, 1]], 2)


def test_marginals_item_mass_bounded(rng):
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 5)
        inst = positive_instance(rng, n, m)
        y = random_column_solution(rng, inst)
        x, d = marginals(y, n, m)
        assert d == math.lcm(*(mass.denominator for mass in y.mass))
        for j in range(m):
            assert sum(x[i][j] for i in range(n)) <= d
        for i in range(n):
            total = sum(
                y.mass[k] for k in range(len(y.columns)) if y.columns[k].agent == i
            )
            assert total == 1
            assert sum(x[i]) == d * sum(
                len(col.items) * mass for col, mass in zip(y.columns, y.mass)
                if col.agent == i
            )


# -- group construction --------------------------------------------------------


def as_fractions(groups, d):
    """Int groups over d as ``Fraction`` groups, in the same layout."""
    return {i: [{j: F(a, d) for j, a in g.items()} for g in gs] for i, gs in groups.items()}


def as_ints(groups):
    """``Fraction`` groups as (int groups over their lcm D, D)."""
    d = math.lcm(*(f.denominator for gs in groups.values() for g in gs for f in g.values()))
    return {i: [{j: int(f * d) for j, f in g.items()} for g in gs] for i, gs in groups.items()}, d


def groups_obey_invariants(instance, x, d, i, groups):
    total = sum(x[i])
    p = len(groups)
    assert p == -(-total // d)
    for t, g in enumerate(groups):
        mass = sum(g.values())
        if t < p - 1:
            assert mass == d
        else:
            assert mass == total - (p - 1) * d
            assert 0 < mass <= d
    sums = {j: 0 for j in range(instance.num_items)}
    for g in groups:
        for j, a in g.items():
            assert type(a) is int and a > 0
            sums[j] += a
    for j in range(instance.num_items):
        assert sums[j] == x[i][j]
    # no inversion across groups in the value order
    pos = {j: r for r, j in enumerate(item_order(instance, i))}
    for t in range(p):
        for t2 in range(t + 1, p):
            for j in groups[t]:
                for j2 in groups[t2]:
                    assert not (pos[j2] < pos[j]), (t, t2, j, j2)


def test_groups_worked_example():
    inst = make_instance(["1"], [[3, 2, 1]])
    # x = [[1/2, 7/10, 3/10]] over D = 10
    x = [[5, 7, 3]]
    groups = build_groups(inst, x, 0, 10)
    assert groups == [{0: 5, 1: 5}, {1: 2, 2: 3}]
    groups_obey_invariants(inst, x, 10, 0, groups)


def test_groups_two_full_items():
    inst = make_instance(["1"], [[2, 1]])
    assert build_groups(inst, [[1, 1]], 0, 1) == [{0: 1}, {1: 1}]


def test_groups_single_fractional_item():
    inst = make_instance(["1"], [[2]])
    assert build_groups(inst, [[1]], 0, 3) == [{0: 1}]


def test_groups_empty_agent_rejected():
    inst = make_instance(["1"], [[2]])
    with pytest.raises(EmptyAgent):
        build_groups(inst, [[0]], 0, 1)


def test_groups_random_marginals(rng):
    for _ in range(200):
        n, m = rng.randint(1, 3), rng.randint(1, 6)
        inst = positive_instance(rng, n, m)
        x, d = int_marginals(random_feasible_marginals(rng, n, m))
        for i in range(n):
            if sum(x[i]) == 0:
                continue
            groups_obey_invariants(inst, x, d, i, build_groups(inst, x, i, d))


LARGE_PRIMES = (2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1, 2**89 - 1, 10**9 + 9)


def large_prime_marginals(rng, n):
    """x over LARGE_PRIMES items: each item's mass 1 cut among n agents on
    a 1/p lattice, so common denominators run far past 2**64."""
    m = len(LARGE_PRIMES)
    x = [[F(0)] * m for _ in range(n)]
    for j, p in enumerate(LARGE_PRIMES):
        cuts = sorted(rng.randrange(1, p) for _ in range(n))
        for i in range(n):
            x[i][j] = F(cuts[i] - (cuts[i - 1] if i else 0), p)
    return x


def test_groups_match_fraction_reference(rng):
    cases = []
    for denom in (6, 12, 35, 60):
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 12)
            cases.append((positive_instance(rng, n, m),
                          random_feasible_marginals(rng, n, m, denom)))
    for _ in range(5):
        n = rng.randint(1, 4)
        cases.append((positive_instance(rng, n, len(LARGE_PRIMES)),
                      large_prime_marginals(rng, n)))
    checked = 0
    for inst, x in cases:
        xi, d = int_marginals(x)
        for i in range(inst.num_agents):
            if sum(x[i], F(0)) > 0:
                got = as_fractions({i: build_groups(inst, xi, i, d)}, d)[i]
                assert got == fraction_groups(inst, x, i)
                checked += 1
    assert checked > 300


def test_item_order_matches_negated_key_on_ties(rng):
    for _ in range(100):
        m = rng.randint(1, 30)
        row = [F(rng.choice([0, 1, 1, 2, 3]), rng.choice([1, 2])) for _ in range(m)]
        inst = make_instance(["1"], [row])
        assert item_order(inst, 0) == sorted(range(m), key=lambda j: (-row[j], j))


# -- decomposition ---------------------------------------------------------------


def combination_marginals_exact(groups, d, comb):
    got = {}
    for mat, lam in zip(comb.matchings, comb_weights(comb)):
        for key, j in mat.items():
            got[(key, j)] = got.get((key, j), F(0)) + lam
    want = {}
    for i, gs in groups.items():
        for t, g in enumerate(gs):
            for j, a in g.items():
                want[((i, t), j)] = F(a, d)
    assert got == want


def changes_recorded(comb):
    """Each matching is the previous one with exactly the recorded groups
    changed, each recorded once."""
    assert len(comb.diffs) == len(comb.matchings)
    for changed, want in zip(comb_changed(comb), changed_groups(comb.matchings)):
        assert len(set(changed)) == len(changed)
        assert set(changed) == want


def test_decompose_two_overlapping_groups():
    groups = {0: [{0: 1, 1: 1}], 1: [{1: 1, 2: 1}]}  # masses over D = 2
    comb = decompose(groups, 3, 2)
    assert sum(comb_weights(comb), F(0)) == 1
    combination_marginals_exact(groups, 2, comb)
    changes_recorded(comb)


def test_decompose_long_chain_without_recursion_limit():
    # Augmenting paths here run the length of the chain, past the
    # interpreter's recursion limit.
    n = 1100
    groups = {i: [{i: 1, i + 1: 1}] for i in range(n)}  # masses over D = 2
    comb = decompose(groups, n + 1, 2)
    assert sum(comb_weights(comb), F(0)) == 1


def test_decompose_single_full_group():
    comb = decompose({0: [{0: 1}]}, 1, 1)
    assert comb_weights(comb) == (F(1),)
    assert comb.matchings == ({(0, 0): 0},)
    assert comb_changed(comb) == (((0, 0),),)


def test_decompose_single_fractional_group_has_empty_matching():
    comb = decompose({0: [{0: 1}]}, 1, 3)  # mass 1/3
    assert sum(comb_weights(comb), F(0)) == 1
    weights_of = {(): F(0), ((0, 0), 0): F(0)}
    for mat, lam in zip(comb.matchings, comb_weights(comb)):
        if mat:
            weights_of[((0, 0), 0)] += lam
        else:
            weights_of[()] += lam
    assert weights_of[((0, 0), 0)] == F(1, 3)
    assert weights_of[()] == F(2, 3)
    changes_recorded(comb)


def full_groups_always_matched(groups, d, comb):
    for i, gs in groups.items():
        for t, g in enumerate(gs):
            if sum(g.values()) == d:
                for mat in comb.matchings:
                    assert (i, t) in mat


def test_decompose_random_marginals(rng):
    for _ in range(120):
        n, m = rng.randint(1, 3), rng.randint(1, 6)
        inst = positive_instance(rng, n, m)
        x, d = int_marginals(random_feasible_marginals(rng, n, m))
        groups = marginal_groups(inst, x, d)
        if not groups:
            continue
        comb = decompose(groups, m, d)
        assert sum(comb_weights(comb), F(0)) == 1
        assert all(lam > 0 for lam in comb_weights(comb))
        combination_marginals_exact(groups, d, comb)
        full_groups_always_matched(groups, d, comb)
        changes_recorded(comb)
        assert len(comb.matchings) <= comb.padded_edges + 1


def marginal_groups(inst, x, d):
    return {i: build_groups(inst, x, i, d) for i in range(len(x)) if sum(x[i]) > 0}


def test_decompose_keeps_free_counts_and_transpose(rng, monkeypatch):
    calls = 0

    def checked(adj, radj, near, col_of, row_of, root, moved):
        nonlocal calls
        calls += 1
        assert near == free_counts(adj, row_of)
        assert radj == transpose(adj, len(row_of))
        return core._augment(adj, radj, near, col_of, row_of, root, moved)

    monkeypatch.setattr(rounding, "_augment", checked)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 8)
        inst = positive_instance(rng, n, m)
        x, d = int_marginals(random_feasible_marginals(rng, n, m, denom=rng.choice([6, 12, 35])))
        groups = marginal_groups(inst, x, d)
        if groups:
            combination_marginals_exact(groups, d, decompose(groups, m, d))
    assert calls > 500


def test_decompose_matches_fraction_reference(rng):
    checked = 0
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 12)
        inst = positive_instance(rng, n, m)
        x = random_feasible_marginals(rng, n, m, denom=rng.choice([6, 12, 35, 60]))
        xi, d = int_marginals(x)
        groups = marginal_groups(inst, xi, d)
        if not groups:
            continue
        comb = decompose(groups, m, d)
        assert (comb.matchings, comb_weights(comb), comb.padded_edges) == (
            fraction_extraction(as_fractions(groups, d), x)
        )
        checked += 1
    assert checked > 100


@st.composite
def grouped_marginals(draw):
    """(groups, D, Fraction marginals, m): feasible marginals over a drawn
    denominator, sliced into groups by a positive-valued instance."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    denom = draw(st.sampled_from([1, 2, 6, 12, 35]))
    x = [[F(0)] * m for _ in range(n)]
    for j in range(m):
        left = denom
        for i in range(n):
            a = draw(st.integers(0, left))
            x[i][j], left = F(a, denom), left - a
    values = [[draw(st.integers(1, 5)) for _ in range(m)] for _ in range(n)]
    inst = make_instance([F(1, n)] * n, values)
    xi, d = int_marginals(x)
    return marginal_groups(inst, xi, d), d, x, m


@given(grouped_marginals())
def test_diff_record_replays_fraction_reference(case):
    groups, d, x, m = case
    if not groups:
        return
    comb = decompose(groups, m, d)
    matchings, weights, padded_edges = fraction_extraction(as_fractions(groups, d), x)
    assert (comb.denom, sum(comb.steps), comb.padded_edges) == (d, d, padded_edges)
    prev = {}
    for k, (diff, mat) in enumerate(zip(comb.diffs, matchings, strict=True)):
        assert all(old == prev.get(g) and new == mat.get(g) != old for g, old, new in diff)
        assert comb.matching(k) == mat
        prev = mat
    assert (comb.matchings, comb_weights(comb)) == (matchings, weights)
    changed = comb_changed(comb)
    assert [set(c) for c in changed] == changed_groups(matchings)
    assert all(len(set(c)) == len(c) for c in changed)
    comb.matching(len(matchings) - 1).clear()  # a replay is the caller's own dict
    assert comb.matchings == matchings


@pytest.mark.parametrize(
    "cells",
    [
        [(0, 0, F(1)), (1, 0, F(1))],  # no perfect matching at all
        # The first matching uses (0, 1); once it runs out, row 0 has none.
        [(0, 0, F(1, 2)), (0, 1, F(1, 2)), (1, 0, F(1))],
    ],
)
def test_decompose_raises_without_perfect_matching(monkeypatch, cells):
    denom = math.lcm(*(frac.denominator for _, _, frac in cells))
    int_cells = [(r, c, int(frac * denom)) for r, c, frac in cells]
    monkeypatch.setattr(
        rounding,
        "pad_square",
        lambda groups, num_items, d: (int_cells, [(0, 0), (1, 0)], [0, 1]),
    )
    with pytest.raises(
        DecompositionFailure, match="no perfect matching in positive support"
    ):
        decompose({}, 2, denom)


def test_decompose_exact_with_denominators_beyond_int64(rng):
    n = 3
    inst = positive_instance(rng, n, len(LARGE_PRIMES))
    x = large_prime_marginals(rng, n)
    xi, d = int_marginals(x)
    assert d > 2**64
    groups = marginal_groups(inst, xi, d)
    comb = decompose(groups, len(LARGE_PRIMES), d)
    assert sum(comb_weights(comb), F(0)) == 1
    assert all(type(step) is int and step > 0 for step in comb.steps)
    for mat in comb.matchings:
        assert len(set(mat.values())) == len(mat)
        for (i, t), j in mat.items():
            assert groups[i][t].get(j, 0) > 0
    combination_marginals_exact(groups, d, comb)
    full_groups_always_matched(groups, d, comb)
    changes_recorded(comb)
    assert (comb.matchings, comb_weights(comb), comb.padded_edges) == (
        fraction_extraction(as_fractions(groups, d), x)
    )


def pad_square_matches_fraction_reference(inst, x):
    xi, d = int_marginals(x)
    groups = marginal_groups(inst, xi, d)
    cells, group_of, item_of = pad_square(groups, inst.num_items, d)
    ref_cells, ref_group_of, ref_item_of = fraction_pad_square(as_fractions(groups, d), x)
    assert all(type(a) is int for _, _, a in cells)
    assert cells == [(r, c, frac * d) for r, c, frac in ref_cells]
    assert (group_of, item_of) == (ref_group_of, ref_item_of)
    return d


def test_pad_square_matches_fraction_reference(rng):
    checked = 0
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 12)
        inst = positive_instance(rng, n, m)
        x = random_feasible_marginals(rng, n, m, denom=rng.choice([6, 12, 35, 60]))
        if any(any(row) for row in x):
            pad_square_matches_fraction_reference(inst, x)
            checked += 1
    assert checked > 100
    for n in (1, 3, 5):
        inst = positive_instance(rng, n, len(LARGE_PRIMES))
        x = large_prime_marginals(rng, n)
        assert pad_square_matches_fraction_reference(inst, x) > 2**64


@pytest.mark.parametrize(
    "groups, x, message",
    [
        (
            {0: [{0: F(3, 4)}], 1: [{0: F(3, 4)}]},
            [[F(3, 4)], [F(3, 4)]],
            "item 0 carries mass 3/2 > 1",
        ),
        (
            {0: [{0: F(1)}], 1: [{1: F(1, 2), 2: F(5, 6)}]},
            [[F(1), F(0), F(0)], [F(0), F(1, 2), F(5, 6)]],
            "group ('g', 1, 0) carries mass 4/3 > 1",
        ),
    ],
)
def test_pad_square_overfull_raises_like_fraction_reference(groups, x, message):
    int_groups, d = as_ints(groups)
    with pytest.raises(DecompositionFailure) as got:
        pad_square(int_groups, len(x[0]), d)
    with pytest.raises(DecompositionFailure) as want:
        fraction_pad_square(groups, x)
    assert str(got.value) == str(want.value) == message


# -- allocation and selection -----------------------------------------------------


def test_allocation_from_matching_basic():
    alloc = allocation_from_matching({(0, 0): 2}, 3)
    assert alloc.owner == (None, None, 0)


def test_allocation_from_empty_matching():
    assert allocation_from_matching({}, 2).owner == (None, None)


def test_allocation_from_two_agent_matching():
    alloc = allocation_from_matching({(0, 0): 1, (1, 0): 0}, 2)
    assert alloc.owner == (1, 0)


def test_round_best_single_agent_integral():
    inst = make_instance(["1"], [[2, 3]])
    y = colsol(inst, [(0, (0, 1), 1)])
    alloc = round_best(inst, y)
    assert alloc.owner == (0, 0)
    assert log_nsw(inst, alloc) == pytest.approx(math.log(5))


def test_round_best_identical_agents():
    inst = make_instance(["1/2", "1/2"], [[2, 2], [2, 2]])
    y = colsol(inst, [(0, (0,), 1), (1, (1,), 1)])
    alloc = round_best(inst, y)
    assert nsw(inst, alloc) == pytest.approx(2.0)


def test_round_best_beats_weighted_average(rng):
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 5)
        inst = positive_instance(rng, n, m)
        y = random_column_solution(rng, inst)
        comb = round_combination(inst, y)
        lws = [
            log_nsw(inst, allocation_from_matching(mat, m))
            for mat in comb.matchings
        ]
        avg = sum(float(lam) * lw for lam, lw in zip(comb_weights(comb), lws))
        best = log_nsw(inst, round_best(inst, y))
        assert best >= avg - 1e-9
        assert best == pytest.approx(max(lws), abs=1e-12)


def test_bundles_across_matchings_are_ef1(rng):
    for _ in range(25):
        n = rng.randint(2, 3)
        m = rng.randint(n, 6)
        inst = positive_instance(rng, n, m)
        y = random_column_solution(rng, inst)
        comb = round_combination(inst, y)
        for i in range(n):
            bundles = []
            for mat in comb.matchings:
                bundles.append([j for (ag, _), j in mat.items() if ag == i])
            assert check_ef1(
                inst.agents[i].values, bundles, require_disjoint=False
            ), (i, bundles)


def test_per_agent_average_meets_lp_share(rng):
    # weighted-average log value per agent trails its LP share by < 1/e
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 5)
        inst = positive_instance(rng, n, m)
        y = random_column_solution(rng, inst)
        comb = round_combination(inst, y)
        for i in range(n):
            share = sum(
                float(mass) * math.log(float(col.value))
                for col, mass in zip(y.columns, y.mass)
                if col.agent == i
            )
            avg = 0.0
            dead = False
            for mat, lam in zip(comb.matchings, comb_weights(comb)):
                items = [j for (ag, _), j in mat.items() if ag == i]
                v = inst.bundle_value(i, items)
                if v == 0:
                    dead = True
                    break
                avg += float(lam) * math.log(float(v))
            if dead:
                continue
            assert avg >= share - 1 / math.e - 1e-9


def test_every_matching_meets_the_per_matching_bound(rng):
    # Shmoys-Tardos: each agent loses at most its largest fractional item in
    # every matching, not only on average over the combination.
    checked = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(max(2, n), 7)
        inst = positive_instance(rng, n, m)
        y = random_column_solution(rng, inst)
        checked += assert_per_matching_bound(inst, y, round_combination(inst, y))
    for n, m in [(8, 30), (12, 50)]:
        shape_rng = random.Random(1000 * n + m)
        inst = positive_instance(shape_rng, n, m)
        y = random_column_solution(shape_rng, inst, parts=10, denom=2520)
        checked += assert_per_matching_bound(inst, y, round_combination(inst, y))
    assert checked > 1000


def random_matchings(rng, n, m, count):
    out = []
    for _ in range(count):
        items = rng.sample(range(m), rng.randint(0, m))
        out.append({(rng.randrange(n), t): j for t, j in enumerate(items)})
    return out


def hand_built(matchings):
    """A combination of the given matchings with the diff record that
    ``decompose`` would give them: per matching, each changed group with
    its old and new item.  The equal steps are not read by the selection."""
    diffs, prev = [], {}
    for mat, changed in zip(matchings, changed_groups(matchings)):
        diffs.append(tuple((g, prev.get(g), mat.get(g)) for g in sorted(changed)))
        prev = mat
    comb = MatchingCombination(
        diffs=tuple(diffs),
        steps=(1,) * len(diffs),
        denom=len(diffs),
        padded_edges=0,
    )
    assert comb.matchings == tuple(matchings)
    return comb


def by_log_nsw(inst, comb):
    return max(
        (allocation_from_matching(mat, inst.num_items) for mat in comb.matchings),
        key=lambda alloc: log_nsw(inst, alloc),
    )


def selection_follows_change_record(inst, comb):
    """The record names exactly the changed groups, and the incremental
    scores pick the first matching with the highest ``log_nsw``."""
    changes_recorded(comb)
    lws = [
        log_nsw(inst, allocation_from_matching(mat, inst.num_items))
        for mat in comb.matchings
    ]
    first = comb.matchings[lws.index(max(lws))]
    assert best_allocation(inst, comb) == allocation_from_matching(first, inst.num_items)


def test_best_allocation_matches_log_nsw_argmax(rng):
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 8)
        weights = [F(rng.randint(0, 3)) for _ in range(n)]
        if sum(weights) == 0:
            weights[0] = F(1)
        total = sum(weights)
        weights = [w / total for w in weights]
        # Large per-agent factors give the bundle sums large denominators.
        factors = [F(rng.randint(1, 10**6), rng.randint(1, 10**3)) for _ in range(n)]
        values = [
            [F(rng.randint(0, 40), rng.randint(1, 9)) * c for _ in range(m)]
            for c in factors
        ]
        inst = make_instance(weights, values)
        comb = hand_built(random_matchings(rng, n, m, rng.randint(1, 12)))
        assert best_allocation(inst, comb).owner == by_log_nsw(inst, comb).owner
        selection_follows_change_record(inst, comb)


def test_best_allocation_first_of_exact_ties():
    inst = make_instance(
        ["0", "1/2", "1/2"],
        [[21, 21, 21], ["15/2", "25/2", 5], ["15/2", "25/2", 5]],
    )
    swapped = [
        {(1, 0): 2, (2, 0): 1},  # worse than the pair below
        {(1, 0): 0, (2, 0): 1, (0, 0): 2},
        {(1, 0): 1, (2, 0): 0},
        {(1, 0): 0, (2, 0): 1},
    ]
    comb = hand_built(swapped)
    lws = [log_nsw(inst, allocation_from_matching(mat, 3)) for mat in swapped]
    assert lws[1] == lws[2] == lws[3] > lws[0]
    assert best_allocation(inst, comb).owner == (1, 2, 0)
    assert best_allocation(inst, comb).owner == by_log_nsw(inst, comb).owner
    selection_follows_change_record(inst, comb)


def test_best_allocation_rejects_item_matched_twice():
    inst = make_instance(["1/2", "1/2"], [[1, 2], [2, 1]])
    mats = ({(0, 0): 1, (1, 0): 0}, {(0, 0): 0, (1, 0): 0})
    comb = hand_built(mats)
    with pytest.raises(ValueError, match="twice"):
        best_allocation(inst, comb)


def test_best_allocation_all_worthless_returns_first():
    inst = make_instance(["1/2", "1/2"], [[1, 0], [0, 1]])
    mats = ({(0, 0): 1}, {(1, 0): 0}, {})
    comb = hand_built(mats)
    assert best_allocation(inst, comb).owner == (None, 0)


@pytest.mark.parametrize(
    "entries",
    [
        # Agent 0's masses sum to 0, so a total-mass test alone skips it.
        [(0, (0,), "1/2"), (0, (1,), "-1/2"), (1, (1,), 1)],
        # Agent 0's marginals stay positive, so slicing alone absorbs the -1/2.
        [(0, (0, 1), 1), (0, (1,), "-1/2"), (1, (2,), 1)],
    ],
)
def test_round_combination_rejects_negative_mass(entries):
    inst = make_instance(["1/2", "1/2"], [[1, 2, 3], [3, 2, 1]])
    y = colsol(inst, entries)
    with pytest.raises(ValueError, match=r"column 1 \(agent 0, .*negative mass -1/2"):
        round_combination(inst, y)


@pytest.mark.parametrize("rounder", [round_combination, round_best])
@pytest.mark.parametrize(
    "bad, why",
    [
        ((-1, (1,)), "an agent or item index out of range"),  # read as agent 1
        ((2, (1,)), "an agent or item index out of range"),
        ((1, (1, -1)), "an agent or item index out of range"),  # read as item 2
        ((1, (1, 3)), "an agent or item index out of range"),
        ((1, (1, 1)), "a repeated item"),  # its mass would count twice
    ],
)
def test_round_combination_rejects_bad_indices(rounder, bad, why):
    inst = make_instance(["1/2", "1/2"], [[1, 2, 3], [3, 2, 1]])
    columns = (Column(agent=0, items=(0,), value=F(1)), Column(*bad, value=F(2)))
    y = ColumnSolution(columns=columns, mass=(F(1), F(1)), lp_value=0.0)
    with pytest.raises(ValueError, match=rf"column 1 \(agent {bad[0]}, .*has {why}$"):
        rounder(inst, y)


def test_round_best_from_solver_fractional_vertex():
    inst = make_instance(["1/2", "1/2"], [[1, 1, 1], [1, 1, 1]])
    sol = solve_configuration_lp(inst, 0.1)
    comb = round_combination(inst, sol)
    assert len(comb.matchings) >= 1
    alloc = round_best(inst, sol)
    _, opt = brute_force_opt(inst)
    assert nsw(inst, alloc) == pytest.approx(math.exp(opt))


@pytest.mark.parametrize("n, m", [(8, 30), (12, 50), (20, 100)])
def test_round_combination_at_round_frac_scale(n, m):
    # Mixtures of ten onto assignments on a 1/2520 lattice, the shape of
    # the benchmark's round-frac inputs, drawn here from a fixed seed.
    rng = random.Random(1000 * n + m)
    inst = positive_instance(rng, n, m)
    y = random_column_solution(rng, inst, parts=10, denom=2520)
    x, d = marginals(y, n, m)
    groups = marginal_groups(inst, x, d)
    comb = decompose(groups, m, d)
    assert comb == round_combination(inst, y)
    assert len(comb.matchings) > 1
    assert sum(comb_weights(comb), F(0)) == 1
    combination_marginals_exact(groups, d, comb)
    full_groups_always_matched(groups, d, comb)
    assert len(comb.matchings) <= comb.padded_edges
    selection_follows_change_record(inst, comb)
    assert round_best(inst, y).owner == by_log_nsw(inst, comb).owner


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_round_best_on_fractional_zipf_vertices(k):
    # The exact LP vertices of these FRACTIONAL_FAMILY instances put mass
    # 1/2 on six columns, so the rounding splits them into several
    # matchings.
    inst = make_instance(*FRACTIONAL_FAMILY[k])
    sol = full_enumeration_lp(inst)
    assert any(mass.denominator > 1 for mass in sol.mass)
    comb = round_combination(inst, sol)
    assert len(comb.matchings) > 1
    assert log_nsw(inst, round_best(inst, sol)) >= (
        sol.lp_value - math.log(1.1) - 1 / math.e
    )
    for i in range(inst.num_agents):
        bundles = [[j for (ag, _), j in mat.items() if ag == i] for mat in comb.matchings]
        assert check_ef1(inst.agents[i].values, bundles, require_disjoint=False), (i, bundles)

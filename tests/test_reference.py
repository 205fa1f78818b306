import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from nswlp import (
    Infeasible,
    TooLarge,
    assignment_baseline,
    brute_force_opt,
    full_enumeration_lp,
    make_instance,
    positivity_check,
)
from nswlp.gen import random_solvable_instance


def test_brute_force_single_agent_takes_everything():
    inst = make_instance(["1"], [[2, 3, 4]])
    alloc, lw = brute_force_opt(inst)
    assert alloc.owner == (0, 0, 0)
    assert lw == pytest.approx(math.log(9))


def test_brute_force_identical_values():
    inst = make_instance(["1/2", "1/2"], [[3, 1], [3, 1]])
    _, lw = brute_force_opt(inst)
    assert math.exp(lw) == pytest.approx(math.sqrt(3))


def test_brute_force_disjoint_interests():
    inst = make_instance(["2/3", "1/3"], [[6, 0], [0, 3]])
    alloc, lw = brute_force_opt(inst)
    assert alloc.owner == (0, 1)
    assert math.exp(lw) == pytest.approx(6 ** (2 / 3) * 3 ** (1 / 3))


def test_brute_force_guard():
    inst = make_instance(
        [Fraction(1, 10)] * 10, [[1] * 10 for _ in range(10)]
    )
    with pytest.raises(TooLarge):
        brute_force_opt(inst)


def test_positivity_one_contested_item():
    inst = make_instance(["1/2", "1/2"], [[1], [1]])
    assert positivity_check(inst) is False


def test_positivity_diagonal():
    inst = make_instance(["1/2", "1/2"], [[1, 0], [0, 1]])
    assert positivity_check(inst) is True


def test_positivity_ignores_zero_weight_agents():
    inst = make_instance(["1", "0"], [[1, 2], [0, 0]])
    assert positivity_check(inst) is True


def test_positivity_long_augmenting_chain():
    # Agent i < n values items i and i+1; the last agent values only item 0,
    # so matching it shifts every other agent along an n-long path.
    n = 1100
    values = [[1 if j in (i, i + 1) else 0 for j in range(n + 1)] for i in range(n)]
    values.append([1] + [0] * n)
    inst = make_instance([Fraction(1, n + 1)] * (n + 1), values)
    assert positivity_check(inst) is True


def test_positivity_matches_scipy_bipartite_matching():
    # Random 0/1 supports, with zero-weight agents, all-zero rows and more
    # agents than items, against scipy's maximum matching on the positive-
    # weight rows.
    rng = random.Random(41)
    outcomes = set()
    for _ in range(300):
        n, m = rng.randint(1, 7), rng.randint(1, 6)
        density = rng.choice([0.2, 0.4, 0.7])
        values = [[int(rng.random() < density) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.3:
            values[rng.randrange(n)] = [0] * m
        weights = [Fraction(rng.randint(0, 2)) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = Fraction(1)
        total = sum(weights)
        inst = make_instance([w / total for w in weights], values)
        rows = [v for v, w in zip(values, weights) if w > 0]
        support = csr_matrix(np.array(rows, dtype=np.int8).reshape(-1, m))
        expected = bool((maximum_bipartite_matching(support, perm_type="column") >= 0).all())
        assert positivity_check(inst) is expected, (weights, values)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_positivity_false_means_zero_welfare_everywhere():
    rng = random.Random(33)
    found = 0
    while found < 5:
        n, m = rng.randint(2, 3), rng.randint(2, 3)
        inst = make_instance(
            [Fraction(1, n)] * n,
            [[rng.choice([0, 0, 1]) for _ in range(m)] for _ in range(n)],
        )
        if positivity_check(inst):
            continue
        found += 1
        _, lw = brute_force_opt(inst)
        assert lw == -math.inf


def test_baseline_single_agent_picks_best_item():
    inst = make_instance(["1"], [[2, 9, 4]])
    alloc, lw = assignment_baseline(inst)
    assert alloc.owner == (None, 0, None)
    assert lw == pytest.approx(math.log(9))


def test_baseline_prefers_high_value_diagonal():
    inst = make_instance(["1/2", "1/2"], [[4, 1], [1, 4]])
    alloc, lw = assignment_baseline(inst)
    assert alloc.owner == (0, 1)
    assert lw == pytest.approx(math.log(4))


def test_baseline_infeasible_when_positivity_fails():
    inst = make_instance(["1/2", "1/2"], [[1], [1]])
    with pytest.raises(Infeasible):
        assignment_baseline(inst)


def test_baseline_brackets_lp_and_optimum():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 6)
        inst = random_solvable_instance(n, m, rng)
        _, b = assignment_baseline(inst)
        _, opt = brute_force_opt(inst)
        lp = full_enumeration_lp(inst).lp_value
        assert b <= opt + 1e-9
        assert opt <= lp + 1e-9
        assert lp <= b + math.log(m) + 1e-9


def test_brute_force_welfare_permutation_equivariant():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(n, 5)
        inst = random_solvable_instance(n, m, rng)
        perm = list(range(m))
        rng.shuffle(perm)
        values2 = [
            [inst.agents[i].values[perm[j]] for j in range(m)] for i in range(n)
        ]
        inst2 = make_instance([a.weight for a in inst.agents], values2)
        _, lw1 = brute_force_opt(inst)
        _, lw2 = brute_force_opt(inst2)
        assert lw2 == pytest.approx(lw1, abs=1e-12)

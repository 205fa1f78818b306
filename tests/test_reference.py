import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from nswlp import (
    Infeasible,
    TooLarge,
    assignment_baseline,
    brute_force_opt,
    full_enumeration_lp,
    log_nsw,
    make_instance,
    positivity_check,
)
from nswlp import jsonio
from nswlp.gen import random_solvable_instance
from nswlp.reference import _positive_matching


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


@pytest.mark.parametrize("solver", [brute_force_opt, assignment_baseline])
@pytest.mark.parametrize("value", [Fraction(10) ** 400, Fraction(1, 10**400)], ids=["huge", "tiny"])
def test_reference_solvers_reject_values_outside_the_double_range(solver, value):
    # Such an instance cannot be made, by either constructor, so no solver
    # ever receives one.
    obj = {"num_items": 2, "agents": [{"weight": "1/2", "values": ["1", "1"]},
                                      {"weight": "1/2", "values": [str(value), "1"]}]}
    for build in (lambda: make_instance(["1/2", "1/2"], [[1, 1], [value, 1]]),
                  lambda: jsonio.instance_from_obj(obj)):
        with pytest.raises(TooLarge, match="values of agent 1 leave the double range"):
            solver(build())


@st.composite
def rational_instances(draw):
    """n 1-3, m from n to 6, values k/q with k <= 30 and q in {3, 7, 10, 11, 13}."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 6))
    entry = st.builds(Fraction, st.integers(0, 30), st.sampled_from([3, 7, 10, 11, 13]))
    values = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return make_instance([Fraction(w, sum(weights)) for w in weights], values)


@given(rational_instances())
@example(make_instance(["1"], [["8/3", "2/7"]]))
def test_brute_force_value_is_log_nsw_of_its_allocation(inst):
    alloc, lw = brute_force_opt(inst)
    assert lw == log_nsw(inst, alloc)


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


def test_baseline_matching_rule():
    # Agents are matched heaviest first, each to its most valuable free
    # positive item, ties to the lower index; a later agent's augmenting
    # path may move an earlier one.
    inst = make_instance(["1/6", "1/2", "1/3"], [[5, 0, 2, 0], [5, 5, 1, 0], [4, 0, 0, 0]])
    # Agent 1 (weight 1/2) takes item 0 over the equally valued item 1.
    # Agent 2 (1/3) values only item 0, so its path moves agent 1 to item 1.
    # Agent 0 (1/6) finds item 0 taken and takes item 2.
    assert _positive_matching(inst) == [2, 1, 0]
    alloc, lw = assignment_baseline(inst)
    assert alloc.owner == (2, 1, 0, None)
    assert lw == log_nsw(inst, alloc)
    # Equally valued items: the lower index.
    assert _positive_matching(make_instance(["1"], [[2, 4, 4]])) == [1]
    # The heavier agent 1 picks first and takes item 1, which agent 0 prefers too.
    assert _positive_matching(make_instance(["1/3", "2/3"], [[1, 2], [1, 3]])) == [0, 1]
    # Equal weights: the lower index goes first and keeps the best item.
    inst = make_instance(["1/2", "1/2"], [[3, 7], [1, 7]])
    assert _positive_matching(inst) == [1, 0]
    # A zero-weight agent is never matched.
    assert _positive_matching(make_instance(["0", "1"], [[9, 9], [1, 2]])) == [-1, 1]
    # Two agents who value only the same item: no matching.
    inst = make_instance(["1/3", "2/3"], [[1, 0, 0], [2, 0, 0]])
    assert _positive_matching(inst) is None
    assert positivity_check(inst) is False
    with pytest.raises(Infeasible):
        assignment_baseline(inst)


def _chain(n, t, big):
    """Agent 0 values item 0 at t; agent k values item k-1 at big and item k
    at t.  The diagonal is the only positive-value assignment."""
    values = [[Fraction(0)] * n for _ in range(n)]
    values[0][0] = t
    for k in range(1, n):
        values[k][k - 1], values[k][k] = big, t
    return make_instance([Fraction(1, n)] * n, values)


def test_baseline_feasible_on_unscaled_chain():
    inst = _chain(3, Fraction(1, 3300000), Fraction(3300000))
    assert positivity_check(inst)
    alloc, lw = assignment_baseline(inst)
    assert alloc.owner == (0, 1, 2)
    assert lw == pytest.approx(math.log(1 / 3300000))
    assert brute_force_opt(inst)[0].owner == (0, 1, 2)


_POWERS = st.integers(-12, 12).map(lambda e: Fraction(10) ** e)


@st.composite
def raw_instances(draw):
    """Unscaled instances: chains, or sparse rows of values 10^-12..10^12
    with some zero weights."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        return _chain(n, 1 / draw(_POWERS.filter(lambda v: v > 1)),
                      draw(_POWERS.filter(lambda v: v > 1)))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), _POWERS)
    values = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    return make_instance([Fraction(w, sum(weights)) for w in weights], values)


@given(raw_instances())
def test_baseline_infeasible_iff_positivity_fails_on_raw_values(inst):
    if not positivity_check(inst):
        with pytest.raises(Infeasible):
            assignment_baseline(inst)
        return
    alloc, lw = assignment_baseline(inst)
    for i, agent in enumerate(inst.agents):
        bundle = [j for j, owner in enumerate(alloc.owner) if owner == i]
        assert len(bundle) == (agent.weight > 0)
        assert all(agent.values[j] > 0 for j in bundle)
    assert math.isfinite(lw)


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

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from nswlp import (
    NumericalCollapse,
    TooLarge,
    brute_force_opt,
    check_ef1,
    ellipsoid_run,
    full_enumeration_lp,
    log_nsw,
    make_instance,
    round_best,
    round_combination,
    scale_values,
    separation_oracle,
    solve_configuration_lp,
    solve_restricted_primal,
)
from nswlp import configlp
from nswlp.configlp import _sweep
from nswlp.gen import random_solvable_instance
from conftest import (
    cover_by_enumeration,
    exhaustive_dual_violation,
    knapsack_cover,
)

mpmath.mp.dps = 60


# -- knapsack cover ----------------------------------------------------------


def test_cover_example():
    assert knapsack_cover([2, 2, 1], [1.0, 2.0, 3.0], 3) == [0, 1]


def test_cover_zero_target():
    assert knapsack_cover([3, 1], [5.0, 5.0], 0) == []


def test_cover_unreachable_target():
    assert knapsack_cover([1, 1], [1.0, 1.0], 5) is None


def test_cover_matches_enumeration():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 8)
        units = [rng.randint(0, 6) for _ in range(n)]
        costs = [round(rng.uniform(0, 4), 3) for _ in range(n)]
        target = rng.randint(0, 12)
        got = knapsack_cover(units, costs, target)
        best = cover_by_enumeration(units, costs, target)
        if sum(units) < target:
            assert got is None
            continue
        assert got is not None
        assert sum(units[j] for j in got) >= target
        assert sum(costs[j] for j in got) == pytest.approx(best[0], abs=1e-12)


def test_sweep_agrees_with_single_target_cover():
    rng = random.Random(9)
    import numpy as np

    for _ in range(40):
        n = rng.randint(1, 6)
        units = [rng.randint(0, 5) for _ in range(n)]
        costs = [round(rng.uniform(0, 3), 3) for _ in range(n)]
        zcap = sum(units)
        cost, _, _ = _sweep(
            np.asarray(units, dtype=np.int64),
            np.asarray(costs),
            np.zeros(n),
            zcap,
        )
        # exact-sum table + suffix minimum == capped cover DP, per target
        suffix = cost.copy()
        for t in range(zcap - 1, -1, -1):
            suffix[t] = min(suffix[t], suffix[t + 1])
        for target in range(zcap + 1):
            chosen = knapsack_cover(units, costs, target)
            assert chosen is not None
            assert sum(costs[j] for j in chosen) == pytest.approx(
                suffix[target], abs=1e-12
            )


# -- separation oracle -------------------------------------------------------


def oracle_inequality_high_precision(instance, epsilon, alpha, beta, i, items):
    """exp(sum alpha + beta) < ((1+eps/2) v_i(S'))^{w_i} with 60-digit floats."""
    lhs = mpmath.exp(mpmath.mpf(sum(alpha[j] for j in items)) + mpmath.mpf(beta[i]))
    v = instance.bundle_value(i, items)
    w = instance.agents[i].weight
    base = (1 + mpmath.mpf(epsilon) / 2) * mpmath.mpf(v.numerator) / v.denominator
    rhs = mpmath.power(base, mpmath.mpf(w.numerator) / w.denominator)
    return lhs < rhs * (1 + mpmath.mpf("1e-12"))


def test_oracle_zero_dual_finds_violation():
    inst = make_instance(["1"], [[4, 2]])
    work = scale_values(inst)
    res = separation_oracle(work, 0.1, (0.0, 0.0), (0.0,))
    assert res is not None
    i, items = res
    assert oracle_inequality_high_precision(work, 0.1, (0.0, 0.0), (0.0,), i, items)


def test_oracle_slack_dual_returns_none():
    inst = make_instance(["1/2", "1/2"], [[4, 2, 1], [1, 3, 2]])
    work = scale_values(inst)
    vmax = 4.0
    big = math.log(3 * vmax * vmax)
    res = separation_oracle(work, 0.1, (big,) * 3, (big,) * 2)
    assert res is None


def test_oracle_complete_and_sound_on_random_duals():
    rng = random.Random(271)
    trials = 0
    found = 0
    while trials < 250:
        n, m = rng.randint(1, 2), rng.randint(2, 8)
        inst = random_solvable_instance(n, m, rng)
        work = scale_values(inst)
        vmax = max(float(max(a.values)) for a in work.agents)
        hi = math.log(m * vmax * vmax) + 0.5
        for _ in range(10):
            trials += 1
            alpha = tuple(rng.uniform(0, hi) for _ in range(m))
            beta = tuple(rng.uniform(-hi, hi) for _ in range(n))
            res = separation_oracle(work, 0.1, alpha, beta)
            violated = exhaustive_dual_violation(work, alpha, beta)
            if violated is not None:
                assert res is not None, (alpha, beta, violated)
            if res is not None:
                found += 1
                i, items = res
                assert oracle_inequality_high_precision(
                    work, 0.1, alpha, beta, i, items
                )
    assert found > 50  # the sample exercises both branches


def test_oracle_complete_and_sound_on_raw_values():
    # Fractional values below and above 1, never scaled: the rounding unit is
    # relative to each guessed top value, so the oracle takes them as given.
    rng = random.Random(272)
    found = 0
    for _ in range(150):
        n, m = rng.randint(1, 3), rng.randint(2, 8)
        values = [
            [Fraction(rng.randint(0, 50), rng.randint(1, 60)) for _ in range(m)]
            for _ in range(n)
        ]
        inst = make_instance([Fraction(1, n)] * n, values)
        logs = [abs(math.log(v)) for row in values for v in row if v > 0]
        hi = math.log(m) + 2 * max(logs, default=0.0) + 0.5
        for _ in range(10):
            alpha = tuple(rng.uniform(0, hi) for _ in range(m))
            beta = tuple(rng.uniform(-hi, hi) for _ in range(n))
            res = separation_oracle(inst, 0.1, alpha, beta)
            violated = exhaustive_dual_violation(inst, alpha, beta)
            if violated is not None:
                assert res is not None, (values, alpha, beta, violated)
            if res is not None:
                found += 1
                i, items = res
                assert oracle_inequality_high_precision(inst, 0.1, alpha, beta, i, items)
    assert found > 500


def test_oracle_rejects_wrong_dimensions():
    inst = make_instance(["1"], [[4, 2]])
    with pytest.raises(ValueError, match="wrong dimensions"):
        separation_oracle(inst, 0.1, (0.5,), (0.0,))
    with pytest.raises(ValueError, match="wrong dimensions"):
        separation_oracle(inst, 0.1, (0.5, 0.5), (0.0, 0.0))


def test_plans_on_ints_match_fraction_arithmetic():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 9)
        inst = random_solvable_instance(n, m, rng, dist=rng.choice(["uniform", "zipf"]))
        work = scale_values(inst)
        eps = rng.choice([0.025, 0.1, 0.25])
        for plan, agent in zip(configlp._build_plans(work, eps), work.agents):
            for guess in plan.guesses:
                values = [agent.values[j] for j in guess.items]
                unit = Fraction(str(eps)) * values[0] / (2 * m)
                assert guess.z.tolist() == [int(v / unit) for v in values]
                assert guess.vals_f.tolist() == [float(v) for v in values]
                assert guess.ln_total == math.log(float(sum(values)))
            items = [j for j in range(m) if rng.random() < 0.5]
            assert plan.bundle_float(items) == float(sum(agent.values[j] for j in items))


def _oracle_query_every_guess(plans, alpha, beta, ln_slack):
    """``_oracle_query`` without its early exit: sweeps every guess."""
    for plan in plans:
        beta_i = float(beta[plan.agent])
        for guess in plan.guesses:
            cost, val, choice = _sweep(guess.z, alpha[guess.items], guess.vals_f, guess.zcap)
            with np.errstate(divide="ignore", invalid="ignore"):
                margin = plan.w_f * (ln_slack + np.log(val)) - (cost + beta_i)
            margin[~(np.isfinite(cost) & (val > 0))] = -np.inf
            t = int(np.argmax(margin))
            if margin[t] <= 0.0:
                continue
            ids = guess.items[configlp._reconstruct(guess.z, choice, t)]
            if configlp._verify_cut(plan, ids, alpha, beta_i, ln_slack):
                return plan.agent, tuple(int(j) for j in sorted(ids))
    return None


def test_oracle_early_exit_matches_every_guess_sweep():
    rng = random.Random(31)
    ln_slack = math.log1p(0.05)
    found = skipped = 0
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 8)
        inst = random_solvable_instance(n, m, rng, dist=rng.choice(["uniform", "zipf"]))
        work = scale_values(inst)
        plans = configlp._build_plans(work, 0.1)
        vmax = max(float(max(a.values)) for a in work.agents)
        hi = math.log(m * vmax * vmax) + 0.5
        for _ in range(5):
            alpha = np.asarray([rng.uniform(0, hi / m) for _ in range(m)])
            beta = np.asarray([rng.uniform(-hi / 2, hi) for _ in range(n)])
            got = configlp._oracle_query(plans, alpha, beta, ln_slack)
            assert got == _oracle_query_every_guess(plans, alpha, beta, ln_slack)
            found += got is not None
            skipped += any(
                p.w_f * (ln_slack + g.ln_total) <= beta[p.agent]
                for p in plans for g in p.guesses
            )
    assert found > 50 and skipped > 50


def test_oracle_rejects_negative_alpha():
    work = scale_values(make_instance(["1"], [[4, 2]]))
    with pytest.raises(ValueError, match="negative alpha"):
        separation_oracle(work, 0.1, (0.5, -0.1), (0.0,))


def test_oracle_handles_zero_weight_agent():
    inst = make_instance(["1", "0"], [[2, 1], [1, 1]])
    work = scale_values(inst)
    # negative beta for the zero-weight agent violates its constraints
    res = separation_oracle(work, 0.5, (0.5, 0.5), (5.0, -2.0))
    assert res is not None
    i, items = res
    assert i == 1
    assert sum((0.5, 0.5)[j] for j in items) + -2.0 < 0


# -- ellipsoid ---------------------------------------------------------------


def test_ellipsoid_low_guess_collects_columns_or_ends_feasible():
    inst = make_instance(["1"], [[1, 0]])
    work = scale_values(inst)
    run = ellipsoid_run(work, -1.0, 0.1)
    assert run.reason in ("volume", "flat", "feasible-center")
    if run.reason != "feasible-center":
        assert (0, (0,)) in run.columns
    sol = solve_restricted_primal(work, list(run.columns), 0.1)
    assert sol.lp_value >= -1.0 - 0.1


def test_ellipsoid_generous_guess_ends_feasible_fast():
    inst = make_instance(["1/2", "1/2"], [[4, 2, 1], [1, 3, 2]])
    work = scale_values(inst)
    m, n = 3, 2
    vmax = 4.0
    o = (n + m) * math.log(m * vmax * vmax) + 1.0
    run = ellipsoid_run(work, o, 0.1)
    assert run.reason == "feasible-center"
    assert run.iterations < 200
    # a concrete feasible dual certifies the guess is generous
    alpha = (math.log(m * vmax * vmax),) * m
    beta = (0.0,) * n
    assert exhaustive_dual_violation(work, alpha, beta) is None
    assert sum(alpha) + sum(beta) <= o


def test_ellipsoid_volume_shrink_rate_identity():
    # every central cut multiplies the volume by at most exp(-1/(2(n+m)))
    for d in range(2, 13):
        step = 0.5 * (
            d * math.log(d * d / (d * d - 1.0)) + math.log((d - 1.0) / (d + 1.0))
        )
        assert step <= -1.0 / (2.0 * d) + 1e-12


def test_ellipsoid_two_dimensional_run_terminates_within_cap():
    inst = make_instance(["1"], [[3]])
    work = scale_values(inst)
    run = ellipsoid_run(work, -2.0, 0.5)
    d = 2
    vmax = 3.0
    span = math.log(1 * vmax * vmax) + 1.0
    lnvol0 = math.log(math.pi) + math.log(span / 2 * math.sqrt(d)) + math.log(
        span * math.sqrt(d)
    )
    target = d * math.log(0.5 / (16 * d))
    cap = 2 * d * d * (lnvol0 - target)
    assert run.reason in ("volume", "flat", "feasible-center")
    assert run.iterations <= cap


def test_ellipsoid_rejects_unscaled_values():
    inst = make_instance(["1"], [["1/2", 3]])
    with pytest.raises(ValueError):
        ellipsoid_run(inst, 0.0, 0.1)


# -- restricted primal -------------------------------------------------------


def test_restricted_primal_single_column():
    inst = make_instance(["1"], [[2, 3]])
    sol = solve_restricted_primal(inst, [(0, (0, 1))], 0.1)
    assert sol.lp_value == pytest.approx(math.log(5))
    assert [(c.agent, c.items) for c in sol.columns] == [(0, (0, 1))]
    assert sol.mass == (Fraction(1),)


@pytest.mark.parametrize(
    "values, columns, match",
    [
        # Item -1 would be read as item 1 and given to both agents at mass 1.
        ([[1, 4], [1, 4]], [(0, (-1,)), (1, (1,))],
         r"column \(0, \(-1,\)\) has an agent or item index out of range"),
        ([[1, 4], [1, 4]], [(0, (0, 2))], "index out of range"),
        ([[1, 4], [1, 4]], [(2, (0,))], "index out of range"),
        ([[1, 4], [1, 4]], [(-1, (0,))], "index out of range"),
        # Item 1 counted twice would be worth 8, above the LP optimum ln 5.
        ([[1, 4]], [(0, (1, 1))], r"column \(0, \(1, 1\)\) repeats an item"),
    ],
)
def test_restricted_primal_rejects_bad_indices(values, columns, match):
    inst = make_instance([Fraction(1, len(values))] * len(values), values)
    with pytest.raises(ValueError, match=match):
        solve_restricted_primal(inst, columns, 0.1)


def test_restricted_primal_two_agents_singletons():
    inst = make_instance(["1/2", "1/2"], [[2, 2], [2, 2]])
    cols = [(0, (0,)), (0, (1,)), (1, (0,)), (1, (1,))]
    sol = solve_restricted_primal(inst, cols, 0.1)
    assert sol.lp_value == pytest.approx(math.log(2))
    per_agent = {0: Fraction(0), 1: Fraction(0)}
    per_item = {0: Fraction(0), 1: Fraction(0)}
    for col, y in zip(sol.columns, sol.mass):
        per_agent[col.agent] += y
        for j in col.items:
            per_item[j] += y
    assert per_agent == {0: Fraction(1), 1: Fraction(1)}
    assert all(v <= 1 for v in per_item.values())


def test_restricted_primal_respects_item_capacity_exactly():
    inst = make_instance(
        ["1/3", "1/3", "1/3"], [[5, 1, 1], [5, 1, 1], [5, 1, 1]]
    )
    cols = [(i, (j,)) for i in range(3) for j in range(3)]
    cols += [(i, (0, 1)) for i in range(3)]
    sol = solve_restricted_primal(inst, cols, 0.1)
    item_mass = {j: Fraction(0) for j in range(3)}
    agent_mass = {i: Fraction(0) for i in range(3)}
    for col, y in zip(sol.columns, sol.mass):
        assert y > 0
        agent_mass[col.agent] += y
        for j in col.items:
            item_mass[j] += y
    assert all(v == 1 for v in agent_mass.values())
    assert all(v <= 1 for v in item_mass.values())


# -- full enumeration oracle ---------------------------------------------------


def test_full_enum_single_agent():
    inst = make_instance(["1"], [[2, 3, 0]])
    sol = full_enumeration_lp(inst)
    assert sol.lp_value == pytest.approx(math.log(5))


def test_full_enum_identical_pair():
    inst = make_instance(["1/2", "1/2"], [[3, 1], [3, 1]])
    sol = full_enumeration_lp(inst)
    assert sol.lp_value == pytest.approx(0.5 * math.log(3))


def test_full_enum_guard():
    inst = make_instance(["1"], [[1] * 13])
    with pytest.raises(TooLarge):
        full_enumeration_lp(inst)


def test_full_enum_dominates_integral_optimum():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 6)
        inst = random_solvable_instance(n, m, rng)
        lp = full_enumeration_lp(inst).lp_value
        _, opt = brute_force_opt(inst)
        assert math.exp(lp) >= math.exp(opt) - 1e-9 * max(1.0, math.exp(opt))


def test_full_enum_feasibility_exact():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 5)
        inst = random_solvable_instance(n, m, rng)
        sol = full_enumeration_lp(inst)
        agent_mass = {}
        item_mass = {j: Fraction(0) for j in range(m)}
        for col, y in zip(sol.columns, sol.mass):
            assert y > 0
            assert col.value > 0
            agent_mass[col.agent] = agent_mass.get(col.agent, Fraction(0)) + y
            for j in col.items:
                item_mass[j] += y
        active = [i for i in range(n) if inst.agents[i].weight > 0]
        assert set(agent_mass) == set(active)
        assert all(v == 1 for v in agent_mass.values())
        assert all(v <= 1 for v in item_mass.values())


# -- end-to-end LP solve -------------------------------------------------------


def test_solve_lp_single_agent():
    inst = make_instance(["1"], [[2, 3, 0]])
    sol = solve_configuration_lp(inst, 0.1)
    assert sol.lp_value == pytest.approx(math.log(5))


def test_solve_lp_identical_agents():
    inst = make_instance(["1/2", "1/2"], [[2, 2], [2, 2]])
    sol = solve_configuration_lp(inst, 0.1)
    assert sol.lp_value >= math.log(2) - math.log(1.1)
    assert sol.lp_value <= math.log(2) + 1e-9


def test_solve_lp_epsilon_out_of_range():
    inst = make_instance(["1"], [[1]])
    with pytest.raises(ValueError):
        solve_configuration_lp(inst, 0.0)
    with pytest.raises(ValueError):
        solve_configuration_lp(inst, 1.5)


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


def test_solve_lp_within_band_of_exact_lp():
    rng = random.Random(41)
    epsilons = [0.1, 0.25, 0.5, 1.0]
    cases = []
    for k in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 7)
        dist = "zipf" if k % 3 == 0 else "uniform"
        inst = random_solvable_instance(n, m, rng, dist=dist)
        cases.append((inst, rng.choice(epsilons)))
    for k, (weights, values) in enumerate(FRACTIONAL_FAMILY):
        cases.append((make_instance(weights, values), epsilons[k % 4]))
    fractional = 0
    for inst, eps in cases:
        sol = solve_configuration_lp(inst, eps)
        exact = full_enumeration_lp(inst).lp_value
        n, m = inst.num_agents, inst.num_items
        assert sol.lp_value >= exact - math.log1p(eps), (n, m, eps)
        assert sol.lp_value <= exact + 1e-9
        fractional += any(0 < y < 1 for y in sol.mass)
    assert fractional >= 1


def test_solve_lp_mass_invariants_exact():
    rng = random.Random(99)
    for _ in range(10):
        n, m = rng.randint(2, 3), rng.randint(3, 6)
        inst = random_solvable_instance(n, m, rng)
        sol = solve_configuration_lp(inst, 0.1)
        agent_mass = {}
        item_mass = {j: Fraction(0) for j in range(m)}
        for col, y in zip(sol.columns, sol.mass):
            assert y > 0
            assert col.items == tuple(sorted(col.items))
            assert col.value == inst.bundle_value(col.agent, col.items)
            assert col.value > 0
            agent_mass[col.agent] = agent_mass.get(col.agent, Fraction(0)) + y
            for j in col.items:
                item_mass[j] += y
        active = {i for i in range(n) if inst.agents[i].weight > 0}
        assert set(agent_mass) == active
        assert all(v == 1 for v in agent_mass.values())
        assert all(v <= 1 for v in item_mass.values())


def test_solve_lp_zero_weight_agent_gets_nothing():
    inst = make_instance(["1", "0"], [[2, 3], [4, 4]])
    sol = solve_configuration_lp(inst, 0.1)
    assert all(c.agent == 0 for c in sol.columns)
    assert sol.lp_value == pytest.approx(math.log(5))


def test_solve_lp_rescaled_agents_shift_lp_value_only():
    # Multiplying agent i's values by c_i > 0 adds w_i ln c_i to every
    # column's log value, and each agent's masses sum to 1, so the LP value
    # shifts by sum(w_i ln c_i) and its optimal vertices stay the same.
    rng = random.Random(15)
    for k in range(60):
        n = rng.randint(2, 5)
        m = rng.randint(n, 12)
        dist = "zipf" if k % 2 else "uniform"
        weight_kind = "dirichlet" if k % 3 == 0 else "uniform"
        inst = random_solvable_instance(n, m, rng, dist=dist, weight_kind=weight_kind)
        factors = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3)) for _ in range(n)]
        rescaled = make_instance(
            [a.weight for a in inst.agents],
            [[v * c for v in a.values] for a, c in zip(inst.agents, factors)],
        )
        sol, sol_c = solve_configuration_lp(inst, 0.1), solve_configuration_lp(rescaled, 0.1)
        assert [(c.agent, c.items) for c in sol_c.columns] == [
            (c.agent, c.items) for c in sol.columns
        ]
        assert sol_c.mass == sol.mass
        assert [c.value for c in sol_c.columns] == [
            c.value * factors[c.agent] for c in sol.columns
        ]
        shift = sum(float(a.weight) * math.log(c) for a, c in zip(inst.agents, factors))
        assert sol_c.lp_value == pytest.approx(sol.lp_value + shift, abs=1e-9)
        assert round_best(rescaled, sol_c) == round_best(inst, sol)


def test_solve_lp_repriced_pooled_column_raises(monkeypatch):
    # Agent 0's best singleton is always pooled; an oracle that prices it
    # again would loop forever without the guard.
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    monkeypatch.setattr(configlp, "_oracle_query", lambda *args: (0, (0,)))
    with pytest.raises(NumericalCollapse, match="pooled column re-priced"):
        solve_configuration_lp(inst, 0.1)


def test_solve_lp_highs_failure_raises(monkeypatch):
    class Failing(_Highs):
        def getModelStatus(self):
            return HighsModelStatus.kSolveError

    monkeypatch.setattr(configlp, "_Highs", Failing)
    message = _Highs().modelStatusToString(HighsModelStatus.kSolveError)
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    with pytest.raises(NumericalCollapse, match=message):
        solve_configuration_lp(inst, 0.1)


# -- HiGHS binding -------------------------------------------------------------

# Every method configlp._HighsLP calls on scipy's private binding.
HIGHS_METHODS = (
    "setOptionValue", "getInfinity", "addRows", "addCol", "run",
    "getModelStatus", "modelStatusToString", "getSolution", "getBasis",
)


def test_highs_binding_surface_and_dual_signs():
    for name in HIGHS_METHODS:
        assert callable(getattr(_Highs, name, None)), name
    assert HighsModelStatus.kOptimal != HighsModelStatus.kSolveError
    # Two agents, three items.  Maximise 4 y0{1} + 3 y1{2} + 4 y0{0}
    # + 2 y0{0,2} + 5 y1{0,1}.  The optimum puts 1/2 on every column but
    # y0{0,2}, with value 8.  Item 2 is slack, so alpha_2 = 0; the tight
    # columns give alpha_1 + beta_0 = 4, alpha_0 + beta_0 = 4, beta_1 = 3
    # and alpha_0 + alpha_1 + beta_1 = 5, so alpha = (1, 1, 0) and
    # beta = (3, 3): the unique dual optimum, with sum 8.
    cols = [(0, (1,)), (1, (2,)), (0, (0,)), (0, (0, 2)), (1, (0, 1))]
    objective = [4.0, 3.0, 4.0, 2.0, 5.0]
    model = configlp._HighsLP(2, 3)
    for (i, items), c in zip(cols, objective):
        model.add_column(-c, i, items)
    alpha, beta = model.solve()
    assert alpha == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)
    assert beta == pytest.approx([3.0, 3.0], abs=1e-9)
    # The optimal basis, solved exactly, is the vertex with 1/2 on every
    # column but y0{0,2}.
    work = make_instance(["1/2", "1/2"], [[1, 1, 1], [1, 1, 1]])

    def vertex():
        sol = configlp._basis_vertex(work, cols, *model.basis())
        return dict(zip(((c.agent, c.items) for c in sol.columns), sol.mass))

    assert vertex() == {cols[k]: Fraction(1, 2) for k in (0, 1, 2, 4)}
    # A column added later joins the kept model: at those duals the bundle
    # {0, 1, 2} for agent 1 is worth 7 > alpha(S) + beta_1 = 5, so it enters,
    # and strong duality holds again.
    cols.append((1, (0, 1, 2)))
    objective.append(7.0)
    model.add_column(-7.0, *cols[-1])
    alpha, beta = model.solve()
    y = vertex()
    assert y[cols[-1]] > 0
    assert float(alpha.sum() + beta.sum()) == pytest.approx(
        sum(c * float(y.get(key, 0)) for c, key in zip(objective, cols)), abs=1e-9
    )


# -- ratio screen and certificate ------------------------------------------------


def test_ratio_screen_returns_verified_cuts_at_most_one_per_agent():
    rng = random.Random(5)
    returned = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(max(2, n), 9)
        inst = random_solvable_instance(n, m, rng, dist=rng.choice(["uniform", "zipf"]))
        work = scale_values(inst)
        plans = configlp._build_plans(work, 0.1)
        vmax = max(float(max(a.values)) for a in work.agents)
        hi = math.log(m * vmax * vmax) + 0.5
        alpha = np.asarray([rng.uniform(0, hi / m) for _ in range(m)])
        beta = np.asarray([rng.uniform(-hi, hi) for _ in range(n)])
        ln_slack = math.log1p(0.05)
        found = configlp._ratio_screen(plans, alpha, beta, ln_slack)
        agents = [i for i, _ in found]
        assert len(agents) == len(set(agents))
        for i, items in found:
            assert items == tuple(sorted(set(items)))
            ids = np.asarray(items, dtype=np.int64)
            assert configlp._verify_cut(plans[i], ids, alpha, float(beta[i]), ln_slack)
        returned += len(found)
    assert returned > 100


def _exact_solves_sabotaged(monkeypatch, calls_to_spoil):
    """Spoil the first ``calls_to_spoil`` exact solves, the basis vertex
    first and then the pool simplex: each returns the optimum over the
    singleton columns only (epsilon shifts the objective by a constant, so
    any value gives that vertex).  Returns the list of pool sizes they were
    given."""
    real_vertex = configlp._basis_vertex
    real_primal = configlp.solve_restricted_primal
    sizes = []

    def singletons(columns):
        return [c for c in columns if len(c[1]) == 1]

    def spoiled_vertex(work, cols, basic, tight):
        sizes.append(len(cols))
        if len(sizes) <= calls_to_spoil:
            return real_primal(work, singletons(cols), 0.1)
        return real_vertex(work, cols, basic, tight)

    def spoiled_primal(instance, columns, epsilon):
        columns = list(columns)
        sizes.append(len(columns))
        if len(sizes) <= calls_to_spoil:
            columns = singletons(columns)
        return real_primal(instance, columns, epsilon)

    monkeypatch.setattr(configlp, "_basis_vertex", spoiled_vertex)
    monkeypatch.setattr(configlp, "solve_restricted_primal", spoiled_primal)
    return sizes


def test_solve_lp_support_miss_falls_back_to_full_pool(monkeypatch):
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    expected = solve_configuration_lp(inst, 0.1)
    assert any(len(c.items) > 1 for c in expected.columns)
    sizes = _exact_solves_sabotaged(monkeypatch, 1)
    sol = solve_configuration_lp(inst, 0.1)
    assert len(sizes) == 2 and sizes[1] == sizes[0]
    assert sol == expected


def test_solve_lp_certificate_failure_raises(monkeypatch):
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    sizes = _exact_solves_sabotaged(monkeypatch, 2)
    with pytest.raises(NumericalCollapse, match="misses the dual bound"):
        solve_configuration_lp(inst, 0.1)
    assert len(sizes) == 2


# -- exact basis vertex ----------------------------------------------------------


def _assert_exactly_feasible(work, sol):
    agent_mass = [Fraction(0)] * work.num_agents
    item_mass = [Fraction(0)] * work.num_items
    for col, y in zip(sol.columns, sol.mass):
        assert y > 0
        agent_mass[col.agent] += y
        for j in col.items:
            item_mass[j] += y
    assert all(v == 1 for v in agent_mass)
    assert all(v <= 1 for v in item_mass)


def test_basis_vertex_is_exact_and_matches_simplex(monkeypatch):
    real = configlp._basis_vertex
    seen = []

    def recording(work, cols, basic, tight):
        sol = real(work, cols, basic, tight)
        seen.append((work, [cols[c] for c in basic], sol))
        return sol

    monkeypatch.setattr(configlp, "_basis_vertex", recording)
    rng = random.Random(17)
    cases = []
    for k in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(max(2, n), 9)
        dist = "zipf" if k % 2 else "uniform"
        cases.append((random_solvable_instance(n, m, rng, dist=dist), 0.1))
    cases += [(make_instance(w, v), 0.1) for w, v in FRACTIONAL_FAMILY]
    cases.append((random_solvable_instance(10, 30, random.Random(1), dist="zipf"), 0.025))
    fractional = 0
    for inst, eps in cases:
        solve_configuration_lp(inst, eps)
        work, basic_cols, sol = seen[-1]
        assert sol is not None
        _assert_exactly_feasible(work, sol)
        assert [(c.agent, c.items) for c in sol.columns] == sorted(
            (c.agent, c.items) for c in sol.columns
        )
        simplex = solve_restricted_primal(work, basic_cols, min(eps, 0.25))
        assert sol.lp_value == pytest.approx(simplex.lp_value, abs=1e-9)
        fractional += any(y < 1 for y in sol.mass)
    assert len(seen) == len(cases)
    assert fractional >= 3


def test_basis_vertex_rejects_singular_and_non_square_bases():
    work = make_instance(["1"], [[1, 2]])
    twins = [(0, (0, 1)), (0, (0, 1))]
    # rows: item 0, item 1, agent 0 (row 2)
    assert configlp._basis_vertex(work, twins, [0, 1], [0, 2]) is None
    assert configlp._basis_vertex(work, twins, [0], [0, 2]) is None


def _fraction_vertex(work, cols, basic, tight):
    """Reference for ``_basis_vertex``: Gauss-Jordan on Fraction rows, then
    the same exact checks.  {column: mass} over the positive masses, or why
    there is no vertex."""
    k, m = len(basic), work.num_items
    if len(tight) != k:
        return "singular"
    a = [
        [Fraction(int(r in {*cols[c][1], m + cols[c][0]})) for c in basic] + [Fraction(1)]
        for r in tight
    ]
    for c in range(k):
        p = next((r for r in range(c, k) if a[r][c]), None)
        if p is None:
            return "singular"
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(k):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    y = {cols[c]: row[k] for c, row in zip(basic, a)}
    agent_load = [Fraction(0)] * work.num_agents
    item_load = [Fraction(0)] * m
    for (i, items), v in y.items():
        agent_load[i] += v
        for j in items:
            item_load[j] += v
    if min(y.values()) < 0:
        return "negative"
    if max(item_load) > 1 or any(v != 1 for v in agent_load):
        return "overloaded"
    return {key: v for key, v in y.items() if v}


def test_basis_vertex_agrees_with_fraction_elimination():
    rng = random.Random(23)
    outcomes = {"vertex": 0, "singular": 0, "negative": 0, "overloaded": 0}
    for _ in range(600):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        work = make_instance(["1"] * n, [[rng.randint(1, 5) for _ in range(m)] for _ in range(n)])
        bundles = {
            (rng.randrange(n), tuple(sorted(rng.sample(range(m), rng.randint(1, m)))))
            for _ in range(rng.randint(1, 8))
        }
        cols = sorted(bundles, key=lambda _: rng.random())
        k = rng.randint(1, min(len(cols), n + m))
        basic = rng.sample(range(len(cols)), k)
        tight = sorted(rng.sample(range(n + m), k))
        got = configlp._basis_vertex(work, cols, basic, tight)
        want = _fraction_vertex(work, cols, basic, tight)
        if isinstance(want, str):
            assert got is None, want
            outcomes[want] += 1
            continue
        keys = [(c.agent, c.items) for c in got.columns]
        assert keys == sorted(keys)
        assert dict(zip(keys, got.mass)) == want
        outcomes["vertex"] += 1
    assert min(outcomes.values()) >= 5, outcomes


# -- a fractional LP at scale ----------------------------------------------------


def test_solve_lp_fractional_zipf_at_scale():
    inst = random_solvable_instance(10, 30, random.Random(1), dist="zipf")
    sol = solve_configuration_lp(inst, 0.025)
    assert sum(1 for y in sol.mass if 0 < y < 1) >= 2
    agent_mass = {}
    item_mass = {j: Fraction(0) for j in range(30)}
    for col, y in zip(sol.columns, sol.mass):
        assert y > 0
        assert col.items == tuple(sorted(col.items))
        assert col.value == inst.bundle_value(col.agent, col.items)
        agent_mass[col.agent] = agent_mass.get(col.agent, Fraction(0)) + y
        for j in col.items:
            item_mass[j] += y
    assert set(agent_mass) == {i for i in range(10) if inst.agents[i].weight > 0}
    assert all(v == 1 for v in agent_mass.values())
    assert all(v <= 1 for v in item_mass.values())
    assert sol.lp_value == pytest.approx(3.569978163, abs=1e-6)
    comb = round_combination(inst, sol)
    assert len(comb.matchings) > 1
    for i in range(inst.num_agents):
        bundles = [[j for (a, _), j in mat.items() if a == i] for mat in comb.matchings]
        assert check_ef1(inst.agents[i].values, bundles, require_disjoint=False), i
    assert log_nsw(inst, round_best(inst, sol)) >= sol.lp_value - 1 / math.e

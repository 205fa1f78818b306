import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from nswlp import (
    Infeasible,
    NumericalCollapse,
    TooLarge,
    brute_force_opt,
    check_ef1,
    ellipsoid_run,
    full_enumeration_lp,
    log_nsw,
    make_instance,
    positivity_check,
    round_best,
    round_combination,
    scale_values,
    separation_oracle,
    solve_configuration_lp,
)
from nswlp import configlp
from nswlp.configlp import _sweep
from nswlp.gen import random_solvable_instance
from conftest import (
    FRACTIONAL_FAMILY,
    cover_by_enumeration,
    exhaustive_dual_violation,
    knapsack_cover,
    market_seed_by_numpy,
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
            total = sum(agent.values[j] for j in items)
            if total > 0:
                shift = math.log1p(eps / 2)
                price = float(agent.weight) * (shift + math.log(float(total)))
                assert configlp._price(agent, items, shift) == price


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
    sol = configlp.solve_restricted_primal(work, list(run.columns), 0.1)
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
    sol = configlp.solve_restricted_primal(inst, [(0, (0, 1))], 0.1)
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
        ([[1, 4]], [(0, (1, 1))], r"column \(0, \(1, 1\)\) has a repeated item"),
    ],
)
def test_restricted_primal_rejects_bad_indices(values, columns, match):
    inst = make_instance([Fraction(1, len(values))] * len(values), values)
    with pytest.raises(ValueError, match=match):
        configlp.solve_restricted_primal(inst, columns, 0.1)


def test_restricted_primal_two_agents_singletons():
    inst = make_instance(["1/2", "1/2"], [[2, 2], [2, 2]])
    cols = [(0, (0,)), (0, (1,)), (1, (0,)), (1, (1,))]
    sol = configlp.solve_restricted_primal(inst, cols, 0.1)
    assert sol.lp_value == pytest.approx(math.log(2))
    per_agent = {0: Fraction(0), 1: Fraction(0)}
    per_item = {0: Fraction(0), 1: Fraction(0)}
    for col, y in zip(sol.columns, sol.mass):
        per_agent[col.agent] += y
        for j in col.items:
            per_item[j] += y
    assert per_agent == {0: Fraction(1), 1: Fraction(1)}
    assert all(v <= 1 for v in per_item.values())


@pytest.mark.parametrize(
    "values, columns, expected",
    [
        # Agent 1 used to get its best singleton at mass 1: Infeasible here,
        # and item 0 taken from agent 0 (lp_value 0) in the second case.
        ([[1, 1], [1, 1]], [(0, (0, 1))], math.log(2)),
        ([[2, 1], [1, 1]], [(0, (0, 1)), (0, (1,))], math.log(3)),
        # A column given for the zero-weight agent is dropped too.
        ([[2, 1], [1, 1]], [(0, (0, 1)), (1, (0,))], math.log(3)),
    ],
)
def test_restricted_primal_zero_weight_agent_takes_no_part(values, columns, expected):
    inst = make_instance(["1", "0"], values)
    sol = configlp.solve_restricted_primal(inst, columns, 0.1)
    assert sol.lp_value == pytest.approx(expected)
    assert sol.lp_value == pytest.approx(full_enumeration_lp(inst).lp_value)
    assert [c.agent for c in sol.columns] == [0]
    assert sol.mass == (Fraction(1),)


def test_restricted_primal_respects_item_capacity_exactly():
    inst = make_instance(
        ["1/3", "1/3", "1/3"], [[5, 1, 1], [5, 1, 1], [5, 1, 1]]
    )
    cols = [(i, (j,)) for i in range(3) for j in range(3)]
    cols += [(i, (0, 1)) for i in range(3)]
    sol = configlp.solve_restricted_primal(inst, cols, 0.1)
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


def test_full_enum_at_twelve_items_matches_the_simplex():
    # The value the exact rational simplex over all 12,285 columns found.
    inst = random_solvable_instance(3, 12, random.Random(1), dist="zipf")
    assert full_enumeration_lp(inst).lp_value == pytest.approx(3.9448941543582037, abs=1e-12)


@pytest.mark.parametrize(
    "spoil",
    [
        # Dual feasible, 2e-3 above the optimum.
        lambda alpha, beta: ([a + 1e-3 for a in alpha], beta),
        # Dual infeasible: the largest reduced cost lifts the bound.
        lambda alpha, beta: ([0.0] * len(alpha), [0.0] * len(beta)),
    ],
    ids=["raised-alpha", "zero-duals"],
)
def test_full_enum_duals_off_the_optimum_raise(monkeypatch, spoil):
    real = configlp._HighsLP.solve
    monkeypatch.setattr(configlp._HighsLP, "solve", lambda self: spoil(*real(self)))
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    with pytest.raises(NumericalCollapse, match="misses the dual bound"):
        full_enumeration_lp(inst)


def test_full_enum_zero_weight_agent_takes_no_part():
    values = [[4, 1, 2], [5, 5, 5], [1, 3, 2]]
    idle = full_enumeration_lp(make_instance(["1/2", "0", "1/2"], values))
    pair = full_enumeration_lp(make_instance(["1/2", "1/2"], [values[0], values[2]]))
    assert all(c.agent != 1 for c in idle.columns)
    assert [(c.agent, c.items) for c in idle.columns] == [
        ((0, 2)[c.agent], c.items) for c in pair.columns
    ]
    assert idle.mass == pair.mass
    assert idle.lp_value == pair.lp_value


def test_full_enum_infeasible_lp():
    inst = make_instance(["1/2", "1/2"], [[1, 0], [1, 0]])
    with pytest.raises(Infeasible, match="no positive-value matching"):
        full_enumeration_lp(inst)


# Values 10^-12 to 10^12 apart: at HiGHS's default feasibility tolerances
# (1e-7) some of these draws miss the 1e-9 certificate.
EXTREME_VALUES = ("0", "1e-12", "5e-12", "1e-6", "1", "2", "3", "1e6", "7e11", "1e12")


def test_full_enum_certifies_extreme_values():
    rng = random.Random(2)
    solved = 0
    while solved < 40:
        n = rng.randint(1, 3)
        m = rng.randint(max(2, n), 6)
        weights = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        if not any(weights):
            continue
        values = [[rng.choice(EXTREME_VALUES) for _ in range(m)] for _ in range(n)]
        inst = make_instance([w / sum(weights) for w in weights], values)
        if not positivity_check(inst):
            continue
        sol = full_enumeration_lp(inst)
        _assert_exactly_feasible(inst, sol, active=[i for i in range(n) if weights[i]])
        _, opt = brute_force_opt(inst)
        assert sol.lp_value >= opt - 1e-9 * max(1.0, abs(opt))
        solved += 1


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


GOLDEN = Path(__file__).parent / "data" / "full_enumeration_lp.json"


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda c: "{agents}x{items}-{dist}-v{vmax}-s{seed}".format(**c)
)
def test_full_enumeration_vertex_pinned(case):
    """Columns, masses and lp_value of ``full_enumeration_lp`` on
    ``random_solvable_instance(agents, items, Random(seed), dist,
    vmax=vmax)``: the vertex of HiGHS's final basis over every column."""
    inst = random_solvable_instance(
        case["agents"], case["items"], random.Random(case["seed"]), case["dist"], vmax=case["vmax"]
    )
    sol = full_enumeration_lp(inst)
    assert [[c.agent, list(c.items)] for c in sol.columns] == case["columns"]
    assert [str(y) for y in sol.mass] == case["mass"]
    assert sol.lp_value == float(case["lp_value"])


# -- branch-and-bound pricer ----------------------------------------------------


def _best_by_enumeration(agent, x):
    """max_S w ln v(S) - x(S) over every set of positive value, by mask."""
    ints, _ = agent.int_values
    m = len(ints)
    sums, cost, best = [0] * (1 << m), [0.0] * (1 << m), -math.inf
    for mask in range(1, 1 << m):
        low = mask & (-mask)
        j = low.bit_length() - 1
        sums[mask] = sums[mask ^ low] + ints[j]
        cost[mask] = cost[mask ^ low] + x[j]
        if sums[mask] > 0:
            items = [k for k in range(m) if mask >> k & 1]
            best = max(best, configlp._price(agent, items, 0.0) - cost[mask])
    return best


@st.composite
def _pricing_points(draw):
    m = draw(st.integers(1, 12))
    values = draw(st.lists(st.integers(0, 12), min_size=m, max_size=m))
    if not any(values):
        values[draw(st.integers(0, m - 1))] = draw(st.integers(1, 12))
    weight = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 10**9)]))
    # Prices: free items, equal ratios x_j / v_j and unrelated prices.
    ratio = draw(st.floats(0.0, 3.0))
    x = [
        draw(st.one_of(
            st.just(0.0),
            st.just(ratio * v),
            st.floats(0.0, 4.0),
            st.floats(0.0, 1e-6),
        ))
        for v in values
    ]
    eps = draw(st.sampled_from([1e-12, 0.025, 0.1, 1.0]))
    return weight, values, x, math.log1p(eps / 2.0)


@settings(max_examples=300, deadline=None)
@given(_pricing_points())
def test_pricer_is_within_its_slack_of_brute_force(point):
    weight, values, x, ln_slack = point
    inst = make_instance([weight, 1 - weight], [values, [1] * len(values)])
    agent = inst.agents[0]
    items, value, upper = configlp._best_bundle(agent, 0, x, ln_slack)
    truth = _best_by_enumeration(agent, x)
    slack = float(weight) * ln_slack
    noise = 1e-12 * (1.0 + abs(truth) + sum(x))
    assert items == tuple(sorted(set(items)))
    assert all(values[j] > 0 for j in items)
    assert all(j in items for j, (v, c) in enumerate(zip(values, x)) if v > 0 and c == 0)
    assert value == configlp._price(agent, items, 0.0) - sum(x[j] for j in items)
    assert upper >= truth - noise
    assert truth >= upper - slack - noise
    assert value >= upper - slack - noise


def test_pricer_upper_bound_covers_pruned_subtrees():
    # At epsilon 1 the pricer prunes within ln 1.5, so it often stops short
    # of the best bundle; its upper bound must still cover that bundle.
    rng = random.Random(8)
    short = 0
    for _ in range(200):
        m = rng.randint(2, 9)
        inst = make_instance(["1"], [[rng.randint(1, 12) for _ in range(m)]])
        x = [rng.uniform(0.0, 1.5) for _ in range(m)]
        _, value, upper = configlp._best_bundle(inst.agents[0], 0, x, math.log(1.5))
        truth = _best_by_enumeration(inst.agents[0], x)
        assert upper >= truth - 1e-12
        assert value >= upper - math.log(1.5) - 1e-12
        short += truth > value + 1e-9
    assert short >= 20


def test_pricer_node_budget_raises_naming_the_agent(monkeypatch):
    # Twelve items at one ratio with an exact search: every relaxation is
    # flat, so the search cannot prune its way out within three nodes.
    inst = make_instance(["1/2", "1/2"], [[1] * 12, list(range(1, 13))])
    x = [0.1 * v for v in range(1, 13)]
    configlp._best_bundle(inst.agents[1], 7, x, 1e-12)
    monkeypatch.setattr(configlp, "_NODE_BUDGET", 3)
    with pytest.raises(TooLarge, match=r"^agent 7's pricer exceeded 3 branch-and-bound nodes"):
        configlp._best_bundle(inst.agents[1], 7, x, 1e-12)
    with pytest.raises(TooLarge, match=r"^agent \d's pricer exceeded 3 branch-and-bound nodes"):
        solve_configuration_lp(random_solvable_instance(4, 12, random.Random(3), "zipf"), 0.025)


def test_market_seed_matches_numpy():
    # Zero values come from the low vmax draws and from zeroed entries;
    # every agent keeps a positive value, as the driver's agents do.
    rng = random.Random(23)
    shapes = [(n, m) for n in (1, 2, 3, 5, 8) for m in range(n, 41)] + [(4, 150), (6, 300)]
    for n, m in shapes:
        inst = random_solvable_instance(
            n, m, rng, rng.choice(["uniform", "zipf"]), vmax=rng.choice([1, 2, 10, 1000]),
            weight_kind=rng.choice(["uniform", "dirichlet"]),
        )
        values = [list(a.values) for a in inst.agents]
        for row in values:
            for j in rng.sample(range(m), m // 3):
                if sum(v > 0 for v in row) > 1:
                    row[j] = 0
        weights = [a.weight for a in inst.agents]
        if n > 1 and rng.random() < 0.3:
            # Two identical agents bid alike on every item.
            values[1], weights = values[0], [Fraction(1, n)] * n
        work = scale_values(make_instance(weights, values))
        prices = configlp._market_seed(work)
        ref_prices = market_seed_by_numpy(work, configlp._MARKET_ROUNDS)
        # numpy adds pairwise, the market with math.fsum.
        assert prices == pytest.approx(ref_prices, rel=1e-12, abs=0), (n, m)


def test_market_prices_do_not_depend_on_agent_or_item_order():
    # Every market sum is correctly rounded, so relabelling the agents and
    # the items only permutes the prices, bit for bit.
    rng = random.Random(29)
    for draw in range(300):
        n = rng.randint(2, 8)
        m = rng.randint(n, 60)
        inst = random_solvable_instance(
            n, m, rng, rng.choice(["uniform", "zipf"]), vmax=rng.choice([10, 1000])
        )
        agents, items = rng.sample(range(n), n), rng.sample(range(m), m)
        relabelled = make_instance(
            [inst.agents[i].weight for i in agents],
            [[inst.agents[i].values[j] for j in items] for i in agents],
        )
        prices = configlp._market_seed(scale_values(inst))
        moved = configlp._market_seed(scale_values(relabelled))
        back = [0.0] * m
        for k, j in enumerate(items):
            back[j] = moved[k]
        assert [p.hex() for p in back] == [p.hex() for p in prices], draw


def test_underflowing_market_agent_leaves_the_bound_finite(monkeypatch):
    # Agent 0's first bids, 10**-323 / 5, underflow to 0, so its gains sum to
    # 0 from round 1 on: it bids 0 and leaves the market, and the prices,
    # hence the certified bound, stay finite.
    tiny = Fraction(1, 10**323)
    inst = make_instance([tiny, 1 - tiny], [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]])
    prices = configlp._market_seed(scale_values(inst))
    assert all(math.isfinite(p) and p > 0 for p in prices)
    bounds = []
    certify = configlp._certified_vertex

    def recording(*args):
        bounds.append(args[5])
        return certify(*args)

    monkeypatch.setattr(configlp, "_certified_vertex", recording)
    sol = solve_configuration_lp(inst, 0.025)
    assert len(bounds) == 1 and math.isfinite(bounds[0])
    assert sol.lp_value <= bounds[0] <= sol.lp_value + math.log1p(0.0125) + 2 * configlp._PRICE_TOL
    assert [(c.agent, c.items) for c in sol.columns] == [(0, (0,)), (1, (1, 2, 3, 4))]


def test_first_pool_is_the_pricers_bundles_at_the_market_prices(monkeypatch):
    # Before the first HiGHS solve the driver prices each agent once, at the
    # market prices, and pools the baseline's singletons, each agent's best
    # singleton and those best bundles: no other seeding rule.
    class FirstSolve(Exception):
        pass

    best_bundle, add_column = configlp._best_bundle, configlp._HighsLP.add_column
    added, priced = [], []

    def adding(self, cost, agent, items):
        added.append((agent, tuple(items)))
        return add_column(self, cost, agent, items)

    def pricing(*args):
        priced.append(args[1])
        return best_bundle(*args)

    def solving(self):
        raise FirstSolve

    monkeypatch.setattr(configlp._HighsLP, "add_column", adding)
    monkeypatch.setattr(configlp._HighsLP, "solve", solving)
    monkeypatch.setattr(configlp, "_best_bundle", pricing)
    rng = random.Random(41)
    for draw in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(n, 14)
        inst = random_solvable_instance(
            n, m, rng, rng.choice(["uniform", "zipf"]), vmax=rng.choice([3, 10, 100]),
            weight_kind=rng.choice(["uniform", "dirichlet"]),
        )
        epsilon = rng.choice([0.025, 0.1, 1.0])
        added.clear()
        priced.clear()
        with pytest.raises(FirstSolve):
            solve_configuration_lp(inst, epsilon)
        active, work = configlp._positive_weight(inst, scale_values(inst))
        base_alloc, _ = configlp.assignment_baseline(work)
        baseline = [(i, (j,)) for j, i in enumerate(base_alloc.owner) if i is not None]
        prices = configlp._market_seed(work)
        ln_slack = math.log1p(min(epsilon, 0.25) / 2.0)
        best = [
            (k, best_bundle(agent, active[k], prices, ln_slack)[0])
            for k, agent in enumerate(work.agents)
        ]
        assert added == configlp._augment_columns(work, baseline + best), draw
        assert priced == active, draw


def test_certificate_fails_closed_on_a_nan_bound(monkeypatch):
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    certify = configlp._certified_vertex
    monkeypatch.setattr(
        configlp, "_certified_vertex", lambda *args: certify(*args[:5], math.nan, args[6])
    )
    with pytest.raises(NumericalCollapse, match="misses the dual bound nan"):
        solve_configuration_lp(inst, 0.1)


@pytest.mark.parametrize(
    "dist, parent_value",
    [pytest.param("uniform", 3.691339469502195, id="uniform"),
     pytest.param("zipf", 3.736255535412987, id="zipf")],
)
def test_mid_size_solve_takes_few_highs_rounds(monkeypatch, dist, parent_value):
    # Seeded by the pricer at the market prices and stopped on the
    # Lagrangian bound, the (20,60) solves take 16 and 17 HiGHS rounds;
    # column generation run to a clean pricing pass takes 144-156.
    # ``parent_value`` is the exact vertex value that run reaches, so the
    # optimum is at least that.
    rounds = []
    solve = configlp._HighsLP.solve

    def counting(self):
        rounds.append(1)
        return solve(self)

    monkeypatch.setattr(configlp._HighsLP, "solve", counting)
    inst = random_solvable_instance(20, 60, random.Random(1), dist)
    sol = solve_configuration_lp(inst, 0.025)
    assert len(rounds) <= 40
    assert sol.lp_value >= parent_value - math.log1p(0.0125) - 20e-6


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


def test_tiny_epsilon_exceeds_the_oracle_table_guard():
    # At epsilon 1e-30 each DP table would need about 10^31 bytes; the guard
    # stops the reference oracle before any table or int64 array exists.
    inst = make_instance(["1"], [[1, 1]])
    match = r"^agent 0's separation table needs \d+ bytes at epsilon 1e-30, over the"
    with pytest.raises(TooLarge, match=match):
        separation_oracle(inst, 1e-30, [0.0, 0.0], [0.0])


def test_solve_lp_at_tiny_epsilon():
    # The solve path builds no table: its pricer prunes within
    # w ln(1 + 5e-31), which is exact search on two items.
    inst = make_instance(["1"], [[1, 1]])
    sol = solve_configuration_lp(inst, 1e-30)
    assert [(c.agent, c.items) for c in sol.columns] == [(0, (0, 1))]
    assert sol.mass == (1,)
    assert sol.lp_value == math.log(2)


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
    # Agent 0's best singleton is always pooled; a pricer that reports it
    # as violated (and an upper bound that never lets the Lagrangian stop
    # fire) would loop forever without the guard.
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    monkeypatch.setattr(configlp, "_best_bundle", lambda *args: ((0,), 1e9, 1e9))
    with pytest.raises(NumericalCollapse, match="pooled column re-priced"):
        solve_configuration_lp(inst, 0.1)


def test_solve_lp_highs_failure_raises(monkeypatch):
    class Failing(_Highs):
        def getModelStatus(self):
            return HighsModelStatus.kSolveError

    monkeypatch.setattr(configlp, "_Highs", Failing)
    message = _Highs().modelStatusToString(HighsModelStatus.kSolveError)
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    with pytest.raises(
        NumericalCollapse,
        match=f"at driver round 1: {message} after [0-9]+ simplex iterations$",
    ):
        solve_configuration_lp(inst, 0.1)


# -- HiGHS binding -------------------------------------------------------------

# Every method configlp._HighsLP calls on scipy's private binding.
HIGHS_METHODS = (
    "setOptionValue", "getInfinity", "passModel", "addVar", "changeColCost",
    "changeCoeff", "run", "getModelStatus", "modelStatusToString", "getInfo",
    "getSolution", "getBasis",
)


def test_highs_binding_surface_and_dual_signs():
    for name in HIGHS_METHODS:
        assert callable(getattr(_Highs, name, None)), name
    rows = configlp._highs.HighsLp()
    assert all(hasattr(rows, f) for f in ("num_row_", "row_lower_", "row_upper_"))
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
    assert sum(alpha) + sum(beta) == pytest.approx(
        sum(c * float(y.get(key, 0)) for c, key in zip(objective, cols)), abs=1e-9
    )


# -- certificate -----------------------------------------------------------------


def _exact_solves_sabotaged(monkeypatch, spoiled):
    """Replace the exact basis solve by ``spoiled(work, cols)``.  Returns
    the list of pool sizes it was given."""
    sizes = []

    def spoiled_vertex(work, cols, basic, tight):
        sizes.append(len(cols))
        return spoiled(work, cols)

    monkeypatch.setattr(configlp, "_basis_vertex", spoiled_vertex)
    return sizes


def test_solve_lp_infeasible_basis_raises(monkeypatch):
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    sizes = _exact_solves_sabotaged(monkeypatch, lambda work, cols: None)
    with pytest.raises(NumericalCollapse, match="basis is not an exactly feasible vertex"):
        solve_configuration_lp(inst, 0.1)
    assert len(sizes) == 1


def test_solve_lp_certificate_failure_raises(monkeypatch):
    # The best vertex over singleton columns (agent 0 takes item 0, agent 1
    # item 1), exact and feasible, but 1/2 ln(5/3) below the optimum, which
    # takes a bundle of two items.
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    assert any(len(c.items) > 1 for c in solve_configuration_lp(inst, 0.1).columns)
    sizes = _exact_solves_sabotaged(
        monkeypatch,
        lambda work, cols: configlp._column_solution(
            work, [(0, (0,)), (1, (1,))], [Fraction(1), Fraction(1)]
        ),
    )
    with pytest.raises(NumericalCollapse, match="misses the dual bound"):
        solve_configuration_lp(inst, 0.1)
    assert len(sizes) == 1


# -- exact basis vertex ----------------------------------------------------------


def _assert_exactly_feasible(work, sol, active=None):
    """Every agent of ``active`` (default: all) has mass exactly 1, every
    other agent none, and every item at most 1."""
    active = range(work.num_agents) if active is None else active
    agent_mass = [Fraction(0)] * work.num_agents
    item_mass = [Fraction(0)] * work.num_items
    for col, y in zip(sol.columns, sol.mass):
        assert y > 0
        agent_mass[col.agent] += y
        for j in col.items:
            item_mass[j] += y
    assert agent_mass == [Fraction(int(i in active)) for i in range(work.num_agents)]
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
        simplex = configlp.solve_restricted_primal(work, basic_cols, min(eps, 0.25))
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
        work = make_instance([Fraction(1, n)] * n,
                             [[rng.randint(1, 5) for _ in range(m)] for _ in range(n)])
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
    # Column generation run to a clean pricing pass reaches 3.569978163, so
    # the optimum is at least that.  The Lagrangian stop may end up to
    # ln(1 + 0.0125) below it; from the positive matching's seed it ends on
    # that value.
    assert sol.lp_value == pytest.approx(3.569978163, abs=1e-6)
    assert sol.lp_value >= 3.569978163 - math.log1p(0.0125)
    comb = round_combination(inst, sol)
    assert len(comb.matchings) > 1
    for i in range(inst.num_agents):
        bundles = [[j for (a, _), j in mat.items() if a == i] for mat in comb.matchings]
        assert check_ef1(inst.agents[i].values, bundles, require_disjoint=False), i
    assert log_nsw(inst, round_best(inst, sol)) >= sol.lp_value - 1 / math.e

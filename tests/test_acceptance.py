"""Acceptance suite: every criterion prints one PASS line when it holds.

Run with `pytest tests/test_acceptance.py -v -s`.  The shared corpus is 200
seeded random instances (2-3 agents, 4-7 items, integer values in [0, 10],
exact rational weights), each solved once by the full pipeline at
epsilon 0.1 and certified against the exhaustive reference solvers.
"""

import math
import random
from fractions import Fraction

import pytest

from nswlp import (
    brute_force_opt,
    build_groups,
    check_ef1,
    decompose,
    full_enumeration_lp,
    make_instance,
    nsw,
    scale_values,
    separation_oracle,
)
from nswlp.cli import main as cli_main
from nswlp.cli import solve_pipeline
from nswlp.gen import random_solvable_instance
from nswlp.rounding import round_combination
from conftest import (
    assert_per_matching_bound,
    comb_weights,
    int_marginals,
    positive_instance,
    random_feasible_marginals,
)
from test_configlp import oracle_inequality_high_precision

EPSILON = 0.1
RATIO_BOUND = math.e ** (1 / math.e) + EPSILON + 1e-6
CORPUS_SHAPES = [(n, m) for n in (2, 3) for m in (4, 5, 6, 7)]
CORPUS_SIZE = 200


def contested_instances():
    """Identical and near-identical valuations; several have fractional LP
    optima, so the rounding splits them into several matchings."""
    return [
        make_instance([Fraction(1, n)] * n, [[v] * m] * n)
        for n, m, v in [(2, 3, 1), (2, 5, 2), (3, 4, 1), (3, 5, 3), (2, 7, 1), (3, 7, 2)]
    ] + [
        make_instance(["1/2", "1/2"], [[5, 5, 1, 1, 1]] * 2),
        make_instance(["2/3", "1/3"], [[4, 4, 4, 1, 1]] * 2),
    ]


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260809)
    results = []
    for k in range(CORPUS_SIZE):
        n, m = CORPUS_SHAPES[k % len(CORPUS_SHAPES)]
        inst = random_solvable_instance(n, m, rng)
        alloc, colsol, _ = solve_pipeline(inst, EPSILON)
        comb = round_combination(inst, colsol)
        _, opt_lw = brute_force_opt(inst)
        full_lp = full_enumeration_lp(inst).lp_value
        results.append(
            {
                "inst": inst,
                "alloc": alloc,
                "colsol": colsol,
                "comb": comb,
                "opt_lw": opt_lw,
                "full_lp": full_lp,
            }
        )
    return results


def agent_bundles(comb, i):
    return [
        [j for (agent, _), j in mat.items() if agent == i]
        for mat in comb.matchings
    ]


def test_criterion_1_end_to_end_ratio(corpus):
    worst = 0.0
    for row in corpus:
        alg = nsw(row["inst"], row["alloc"])
        opt = math.exp(row["opt_lw"])
        assert alg > 0
        ratio = opt / alg
        worst = max(worst, ratio)
        assert ratio <= RATIO_BOUND, (row["inst"], ratio)
    print(
        f"\nACCEPTANCE 1 end-to-end-ratio: PASS "
        f"({len(corpus)} instances, worst ratio {worst:.6f} <= {RATIO_BOUND:.6f})"
    )


def test_criterion_2_lp_additive_gap(corpus):
    allowed = math.log(1 + EPSILON)
    worst = -math.inf
    for row in corpus:
        gap = row["full_lp"] - row["colsol"].lp_value
        worst = max(worst, gap)
        assert gap <= allowed, (row["inst"], gap)
        assert gap >= -1e-9, (row["inst"], gap)
    print(
        f"\nACCEPTANCE 2 lp-additive-gap: PASS "
        f"(worst gap {worst:.2e} <= ln(1.1) = {allowed:.4f})"
    )


def test_criterion_3_relaxation_dominance(corpus):
    for row in corpus:
        opt = math.exp(row["opt_lw"])
        assert math.exp(row["full_lp"]) >= opt - 1e-9 * max(1.0, opt)
    print("\nACCEPTANCE 3 relaxation-dominance: PASS")


def test_criterion_4_oracle_complete_and_sound():
    rng = random.Random(424242)
    duals = 0
    completeness_hits = 0
    returned = 0
    while duals < 500:
        n, m = rng.randint(1, 2), rng.randint(4, 8)
        inst = random_solvable_instance(n, m, rng)
        work = scale_values(inst)
        # per-agent subset values once per instance
        subset_val = []
        for agent in work.agents:
            sums = [Fraction(0)] * (1 << m)
            for mask in range(1, 1 << m):
                low = mask & (-mask)
                sums[mask] = sums[mask ^ low] + agent.values[low.bit_length() - 1]
            subset_val.append(sums)
        vmax = max(float(max(a.values)) for a in work.agents)
        hi = math.log(m * vmax * vmax) + 0.5
        for _ in range(25):
            duals += 1
            alpha = [rng.uniform(0, hi) for _ in range(m)]
            beta = [rng.uniform(-hi / 2, hi) for _ in range(n)]
            asum = [0.0] * (1 << m)
            for mask in range(1, 1 << m):
                low = mask & (-mask)
                asum[mask] = asum[mask ^ low] + alpha[low.bit_length() - 1]
            violated = False
            for i, agent in enumerate(work.agents):
                w = float(agent.weight)
                for mask in range(1, 1 << m):
                    v = subset_val[i][mask]
                    if v > 0 and asum[mask] + beta[i] < w * math.log(float(v)):
                        violated = True
                        break
                if violated:
                    break
            res = separation_oracle(work, EPSILON, alpha, beta)
            if violated:
                completeness_hits += 1
                assert res is not None, (alpha, beta)
            if res is not None:
                returned += 1
                i, items = res
                assert oracle_inequality_high_precision(
                    work, EPSILON, alpha, beta, i, items
                ), (alpha, beta, res)
    assert completeness_hits > 50
    print(
        f"\nACCEPTANCE 4 oracle-complete-and-sound: PASS "
        f"({duals} duals, {completeness_hits} exhaustive violations all found, "
        f"{returned} returned pairs all verified)"
    )


def test_criterion_5_groups_and_decomposition_exact():
    rng = random.Random(555)
    checked = 0
    while checked < 1000:
        n, m = rng.randint(1, 3), rng.randint(1, 6)
        inst = positive_instance(rng, n, m)
        x = random_feasible_marginals(rng, n, m)
        xi, d = int_marginals(x)
        int_groups = {}
        for i in range(n):
            if sum(x[i], Fraction(0)) > 0:
                int_groups[i] = build_groups(inst, xi, i, d)
        if not int_groups:
            continue
        checked += 1
        groups = {
            i: [{j: Fraction(a, d) for j, a in g.items()} for g in gs]
            for i, gs in int_groups.items()
        }
        # unit masses and exact marginal conservation
        for i, gs in groups.items():
            total = sum(x[i], Fraction(0))
            assert len(gs) == math.ceil(total)
            for t, g in enumerate(gs):
                mass = sum(g.values(), Fraction(0))
                if t < len(gs) - 1:
                    assert mass == 1
                else:
                    assert mass == total - (len(gs) - 1)
            per_item = {j: Fraction(0) for j in range(m)}
            for g in gs:
                for j, f in g.items():
                    per_item[j] += f
            assert all(per_item[j] == x[i][j] for j in range(m))
        comb = decompose(int_groups, m, d)
        assert sum(comb_weights(comb), Fraction(0)) == 1
        got = {}
        for mat, lam in zip(comb.matchings, comb_weights(comb)):
            for key, j in mat.items():
                got[(key, j)] = got.get((key, j), Fraction(0)) + lam
        want = {
            ((i, t), j): f
            for i, gs in groups.items()
            for t, g in enumerate(gs)
            for j, f in g.items()
        }
        assert got == want
        for i, gs in groups.items():
            for t, g in enumerate(gs):
                if sum(g.values(), Fraction(0)) == 1:
                    assert all((i, t) in mat for mat in comb.matchings)
        assert len(comb.matchings) <= comb.padded_edges + 1
    print(f"\nACCEPTANCE 5 groups-and-decomposition-exact: PASS ({checked} matrices)")


def test_criterion_6_ef1_across_matchings(corpus):
    pairs = 0
    for row in corpus:
        inst = row["inst"]
        for i in range(inst.num_agents):
            bundles = agent_bundles(row["comb"], i)
            pairs += len(bundles) * (len(bundles) - 1)
            assert check_ef1(
                inst.agents[i].values, bundles, require_disjoint=False
            ), (inst, i, bundles)
    # Uniform random corpora mostly hit integral LP vertices; contested
    # identical-value instances force fractional combinations so the pair
    # check actually bites.
    for inst in contested_instances():
        _, colsol, _ = solve_pipeline(inst, EPSILON)
        comb = round_combination(inst, colsol)
        for i in range(inst.num_agents):
            bundles = agent_bundles(comb, i)
            pairs += len(bundles) * (len(bundles) - 1)
            assert check_ef1(
                inst.agents[i].values, bundles, require_disjoint=False
            ), (inst, i, bundles)
    assert pairs > 0
    print(f"\nACCEPTANCE 6 ef1-across-matchings: PASS ({pairs} ordered bundle pairs)")


def test_per_matching_bound_on_contested_instances():
    checked = fractional = 0
    for inst in contested_instances():
        _, colsol, _ = solve_pipeline(inst, EPSILON)
        fractional += any(y.denominator > 1 for y in colsol.mass)
        checked += assert_per_matching_bound(inst, colsol, round_combination(inst, colsol))
    assert fractional >= 3
    print(f"\nper-matching bound: PASS ({checked} matching-agent pairs, "
          f"{fractional} fractional LP solutions)")


def test_criterion_7_ef1_quality_identical_valuations():
    rng = random.Random(777)
    bound = math.exp(-1 / math.e)
    shapes = [(2, 8)] * 20 + [(3, 7)] * 20 + [(3, 8)] * 10
    ef1_count = 0
    for n, m in shapes:
        values = [rng.randint(0, 8) for _ in range(m)]
        best = 0.0
        allocs = []
        for code in range(n**m):
            owner = []
            c = code
            for _ in range(m):
                owner.append(c % n)
                c //= n
            totals = [0] * n
            maxitem = [0] * n
            for j, i in enumerate(owner):
                totals[i] += values[j]
                if values[j] > maxitem[i]:
                    maxitem[i] = values[j]
            prod = 1.0
            for t in totals:
                prod *= t
            welfare = prod ** (1.0 / n)
            allocs.append((totals, maxitem, welfare))
            if welfare > best:
                best = welfare
        for totals, maxitem, welfare in allocs:
            ef1 = True
            for k in range(n):
                reduced = totals[k] - maxitem[k]
                for i in range(n):
                    if i != k and reduced > totals[i]:
                        ef1 = False
                        break
                if not ef1:
                    break
            if ef1:
                ef1_count += 1
                assert welfare >= bound * best - 1e-9, (values, totals, best)
    assert ef1_count > 0
    print(
        f"\nACCEPTANCE 7 ef1-quality-identical-valuations: PASS "
        f"({len(shapes)} valuations, {ef1_count} EF1 allocations checked)"
    )


def test_criterion_8_per_agent_average_bound(corpus):
    checked = 0
    skipped = 0
    for row in corpus:
        inst = row["inst"]
        comb = row["comb"]
        colsol = row["colsol"]
        dead = False
        for i in range(inst.num_agents):
            if inst.agents[i].weight == 0:
                continue
            for bundle in agent_bundles(comb, i):
                if inst.bundle_value(i, bundle) == 0:
                    dead = True
        if dead:
            skipped += 1
            continue
        for i in range(inst.num_agents):
            if inst.agents[i].weight == 0:
                continue
            share = sum(
                float(y) * math.log(float(col.value))
                for col, y in zip(colsol.columns, colsol.mass)
                if col.agent == i
            )
            avg = sum(
                float(lam)
                * math.log(float(inst.bundle_value(i, bundle)))
                for lam, bundle in zip(comb_weights(comb), agent_bundles(comb, i))
            )
            checked += 1
            assert avg >= share - 1 / math.e - 1e-9, (inst, i, avg, share)
    print(
        f"\nACCEPTANCE 8 per-agent-average-bound: PASS "
        f"({checked} agents checked, {skipped} instances skipped for zero bundles)"
    )


def test_criterion_9_deterministic_cli(tmp_path):
    inst_path = tmp_path / "i.json"
    assert (
        cli_main(
            ["gen", "--agents", "3", "--items", "7", "--seed", "90", "-o", str(inst_path)]
        )
        == 0
    )
    blobs = []
    for tag in ("a", "b"):
        alloc = tmp_path / f"{tag}.json"
        report = tmp_path / f"{tag}r.json"
        code = cli_main(
            ["solve", str(inst_path), "-o", str(alloc), "--report", str(report)]
        )
        assert code == 0
        blobs.append(alloc.read_bytes() + report.read_bytes())
    assert blobs[0] == blobs[1]
    print("\nACCEPTANCE 9 deterministic-cli: PASS (byte-identical allocation and report)")

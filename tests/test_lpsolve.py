import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nswlp import LinearProgram, full_enumeration_lp, gen, lpsolve, solve_lp
from conftest import lp_optimum_by_vertex_enumeration

F = Fraction


def lp(objective, rows, senses, rhs):
    return LinearProgram(
        objective=tuple(float(c) for c in objective),
        rows=tuple(tuple(F(a) for a in r) for r in rows),
        senses=tuple(senses),
        rhs=tuple(F(b) for b in rhs),
    )


def exactly_feasible(prog, values):
    for row, s, b in zip(prog.rows, prog.senses, prog.rhs):
        lhs = sum(a * v for a, v in zip(row, values))
        if not {"<=": lhs <= b, ">=": lhs >= b, "=": lhs == b}[s]:
            return False
    return all(v >= 0 for v in values)


def test_single_variable_upper_bound():
    sol = solve_lp(lp([1.0], [[1]], ["<="], [1]))
    assert sol.status == "optimal"
    assert sol.values == (F(1),)
    assert sol.objective_value == pytest.approx(1.0)


def test_infeasible_detected():
    sol = solve_lp(lp([0.0], [[1], [1]], ["=", "<="], [1, 0]))
    assert sol.status == "infeasible"


def test_picks_larger_log_coefficient():
    sol = solve_lp(
        lp([math.log(2), math.log(3)], [[1, 1]], ["="], [1])
    )
    assert sol.status == "optimal"
    assert sol.values == (F(0), F(1))
    assert sol.objective_value == pytest.approx(math.log(3))


def test_unbounded_detected():
    sol = solve_lp(lp([1.0, 0.0], [[0, 1]], ["<="], [1]))
    assert sol.status == "unbounded"


def test_greater_equal_rows():
    sol = solve_lp(lp([-1.0], [[1]], [">="], [2]))
    assert sol.status == "optimal"
    assert sol.values == (F(2),)


def test_solution_satisfies_constraints_exactly():
    rng = random.Random(5)
    for _ in range(60):
        nv = rng.randint(1, 4)
        nr = rng.randint(1, 4)
        rows = [
            [F(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(nr)
        ]
        senses = [rng.choice(["<=", "=", ">="]) for _ in range(nr)]
        rhs = [F(rng.randint(0, 5)) for _ in range(nr)]
        # box rows keep the region bounded
        for j in range(nv):
            rows.append([F(1) if k == j else F(0) for k in range(nv)])
            senses.append("<=")
            rhs.append(F(6))
        prog = lp([rng.uniform(-2, 2) for _ in range(nv)], rows, senses, rhs)
        sol = solve_lp(prog)
        assert sol.status in ("optimal", "infeasible")
        if sol.status == "optimal":
            assert exactly_feasible(prog, sol.values)


def test_optimum_matches_vertex_enumeration():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        nv = rng.randint(1, 3)
        nr = rng.randint(1, 3)
        rows = [
            [F(rng.randint(-2, 3)) for _ in range(nv)] for _ in range(nr)
        ]
        senses = [rng.choice(["<=", "=", ">="]) for _ in range(nr)]
        rhs = [F(rng.randint(0, 4)) for _ in range(nr)]
        for j in range(nv):
            rows.append([F(1) if k == j else F(0) for k in range(nv)])
            senses.append("<=")
            rhs.append(F(5))
        prog = lp(
            [F(rng.randint(-3, 3)) for _ in range(nv)], rows, senses, rhs
        )
        status, best = lp_optimum_by_vertex_enumeration(prog)
        sol = solve_lp(prog)
        assert sol.status == status
        if status == "optimal":
            checked += 1
            assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert checked >= 10


def test_degenerate_lp_terminates():
    # Many redundant rows through the same vertex.
    prog = lp(
        [1.0, 1.0],
        [[1, 1], [1, 1], [2, 2], [1, 0], [0, 1]],
        ["<="] * 5,
        [1, 1, 2, 1, 1],
    )
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


@pytest.fixture
def phase_one_ends(monkeypatch):
    """Per solve, whether an artificial was still basic when phase 1 ended."""
    ends = []
    run = lpsolve._Tableau.run

    def spy(self, cost, certify=False):
        status = run(self, cost, certify)
        if certify:
            ends.append(any(j >= self.first_artificial for j in self.basis))
        return status

    monkeypatch.setattr(lpsolve._Tableau, "run", spy)
    return ends


@pytest.mark.parametrize(
    "rows, senses, rhs, status",
    [
        # x + y = 1 twice over: row 1's artificial stays basic at 0.
        ([[1, 1], [2, 2], [1, 0], [0, 1]], ["=", "=", "<=", "<="], [1, 2, 1, 1], "optimal"),
        # The same rows, and x - y = 1 pins x = 1, y = 0.
        ([[1, 1], [2, 2], [1, -1], [0, 1]], ["=", "=", "=", "<="], [1, 2, 1, 1], "optimal"),
        # x - y = 3 needs x >= 3, past the box x <= 1.
        ([[1, 1], [2, 2], [1, -1], [1, 0]], ["=", "=", "=", "<="], [1, 2, 3, 1], "infeasible"),
    ],
)
def test_redundant_equalities_keep_an_artificial_into_phase_two(
    phase_one_ends, rows, senses, rhs, status
):
    prog = lp([1.0, 2.0], rows, senses, rhs)
    sol = solve_lp(prog)
    want, best = lp_optimum_by_vertex_enumeration(prog)
    assert sol.status == want == status
    assert phase_one_ends == [True]
    if status == "optimal":
        assert exactly_feasible(prog, sol.values)
        assert sol.objective_value == pytest.approx(best, abs=1e-12)


def test_redundant_equalities_do_not_cycle():
    # Rows 2-4 are combinations of rows 0 and 1.  Phase 1 once swapped two
    # zero-level artificials in and out of one row forever.
    prog = lp(
        [1.0, 0.5],
        [[3, 3], [3, -2], [0, -5], [-6, 4], [-3, 2], [1, 0], [0, 1]],
        ["="] * 5 + ["<="] * 2,
        [4, 0, -4, 0, 0, 4, 4],
    )
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    assert sol.values == (F(8, 15), F(4, 5))


def test_redundant_equalities_match_vertex_enumeration():
    rng = random.Random(23)
    statuses = set()
    for _ in range(80):
        nv, nr = rng.randint(2, 4), rng.randint(1, 3)
        rows = [[rng.randint(-2, 3) for _ in range(nv)] for _ in range(nr)]
        rhs = [rng.randint(0, 5) for _ in range(nr)]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(nr), rng.randrange(nr)
            ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([ca * x + cb * y for x, y in zip(rows[a], rows[b])])
            rhs.append(ca * rhs[a] + cb * rhs[b])
        senses = ["="] * len(rows)
        for j in range(nv):
            rows.append([int(k == j) for k in range(nv)])
            senses.append("<=")
            rhs.append(4)
        prog = lp([rng.randint(-3, 3) for _ in range(nv)], rows, senses, rhs)
        status, best = lp_optimum_by_vertex_enumeration(prog)
        sol = solve_lp(prog)
        assert sol.status == status
        statuses.add(status)
        if status == "optimal":
            assert exactly_feasible(prog, sol.values)
            assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert statuses == {"optimal", "infeasible"}


GOLDEN = Path(__file__).parent / "data" / "full_enumeration_lp.json"


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda c: "{agents}x{items}-{dist}-v{vmax}-s{seed}".format(**c)
)
def test_full_enumeration_vertex_pinned(case):
    """Columns, masses and lp_value of ``full_enumeration_lp`` on
    ``gen.random_solvable_instance(agents, items, Random(seed), dist,
    vmax=vmax)``: the vertex of HiGHS's final basis over every column."""
    inst = gen.random_solvable_instance(
        case["agents"], case["items"], random.Random(case["seed"]), case["dist"], vmax=case["vmax"]
    )
    sol = full_enumeration_lp(inst)
    assert [[c.agent, list(c.items)] for c in sol.columns] == case["columns"]
    assert [str(y) for y in sol.mass] == case["mass"]
    assert sol.lp_value == float(case["lp_value"])

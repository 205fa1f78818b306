"""Seeded inputs for the benchmark workloads, and the checks on each output.

lp-desk draws a fixed instance library once from ``LIBRARY_SEED``, with the
acceptance-corpus distribution.  ``--seed`` relabels every library instance
by a positive integer factor per agent row.  Fresh draws of 40 instances
spread the total solve time by about 14% between seeds, more than a
regression bound can tolerate, and an item permutation changes a solve's
time up to 3x (ties break differently, so the oracle returns other cuts), so
the item order is kept.  The solver normalises the row factors away, so
lp-desk's work is the same for every seed.  round-frac times are set by the
instance shape, so it draws fresh instances.

Inputs are generated here, not by ``nswlp.gen``, so that a change to the
program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import nswlp
from nswlp import cli

EPSILON = 0.1
RATIO_BOUND = math.e ** (1 / math.e) + EPSILON
LP_GAP_WINDOW = (-1e-9, math.log1p(EPSILON / 4))
ROUNDING_LOSS = 1 / math.e
FLOAT_SLACK = 1e-9

LIBRARY_SEED = 240415607
WEIGHT_DENOMINATOR = 2520
VMAX = 10

# (agents, items, library instances of that shape)
LP_DESK = [(n, m, 6) for n in (2, 3) for m in (4, 5, 6, 7)]
# (agents, items, fractional solutions of that shape)
ROUND_FRAC = [(8, 30, 8), (10, 40, 8), (12, 50, 8), (15, 60, 8), (20, 100, 8)]
MIXTURE_PARTS = 10


# ---------------------------------------------------------------------------
# generators


def _weights(rng: random.Random, n: int) -> list[Fraction]:
    """n positive rationals on a 1/2520 lattice, summing to exactly 1:
    agent weights, and the mixing weights of round-frac."""
    d = WEIGHT_DENOMINATOR
    cuts = sorted(rng.sample(range(1, d), n - 1))
    return [Fraction(b - a, d) for a, b in zip([0, *cuts], [*cuts, d])]


def _has_positive_matching(values: list[list[int]]) -> bool:
    """Every agent can get a distinct item it values positively."""
    owner_of: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for j, v in enumerate(values[i]):
            if v > 0 and j not in seen:
                seen.add(j)
                if j not in owner_of or augment(owner_of[j], seen):
                    owner_of[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(values)))


def _solvable(rng: random.Random, n: int, m: int):
    while True:
        weights = _weights(rng, n)
        values = [[rng.randint(0, VMAX) for _ in range(m)] for _ in range(n)]
        if _has_positive_matching(values):
            return weights, values


def _interleave(groups: list[list]) -> list:
    """One of each group in turn, so that a partial pass covers every shape."""
    depth = max(len(g) for g in groups)
    return [g[k] for k in range(depth) for g in groups if k < len(g)]


def _library() -> list[tuple[str, list[Fraction], list[list[int]]]]:
    """The fixed lp-desk instances, drawn from ``LIBRARY_SEED``."""
    rng = random.Random(LIBRARY_SEED)
    return _interleave([
        [(f"({n},{m}) uniform", *_solvable(rng, n, m)) for _ in range(count)]
        for n, m, count in LP_DESK
    ])


def _relabel(rng: random.Random, values):
    factors = [rng.randint(1, 4) for _ in values]
    return [[v * c for v in row] for row, c in zip(values, factors)]


# ---------------------------------------------------------------------------
# cases: one input, the timed entry-point call, and the checks on its output


@dataclass
class Outcome:
    ok: bool
    seconds: float
    why: str = ""
    lp_value: float = math.nan
    alg: float = math.nan
    lp_ratio: float = math.nan
    ratio: float = math.nan
    gap: float = math.nan


@dataclass
class LpCase:
    """One instance file solved through ``nswlp.cli.main(["solve", ...])``."""

    label: str
    instance: object
    path: Path
    alloc_path: Path
    report_path: Path
    _refs: Optional[tuple[float, float]] = field(default=None, repr=False)

    def run(self):
        return cli.main(
            ["solve", str(self.path), "--epsilon", str(EPSILON),
             "-o", str(self.alloc_path), "--report", str(self.report_path)]
        )

    def check(self, code, seconds: float) -> Outcome:
        if code != 0:
            return Outcome(False, seconds, f"exit code {code}")
        owner = json.loads(self.alloc_path.read_text())["owner"]
        report = json.loads(self.report_path.read_text())
        why = _owner_problem(owner, self.instance)
        if why:
            return Outcome(False, seconds, why)
        alg = nswlp.nsw(self.instance, nswlp.Allocation(owner=tuple(owner)))
        lp_value = report["lp_value"]
        if not math.isclose(alg, report["nsw"], rel_tol=FLOAT_SLACK):
            return Outcome(False, seconds, f"report nsw {report['nsw']!r} != recomputed {alg!r}")
        if alg <= 0:
            return Outcome(False, seconds, "zero welfare on a solvable instance")
        return Outcome(True, seconds, lp_value=lp_value, alg=alg,
                       lp_ratio=math.exp(lp_value) / alg)

    def certify(self, out: Outcome) -> Outcome:
        """Ratio against brute force and LP gap against full enumeration."""
        if self._refs is None:
            _, opt_lw = nswlp.brute_force_opt(self.instance)
            self._refs = (opt_lw, nswlp.full_enumeration_lp(self.instance).lp_value)
        opt_lw, full_lp = self._refs
        ratio, gap = math.exp(opt_lw) / out.alg, full_lp - out.lp_value
        out.ratio, out.gap = ratio, gap
        if ratio > RATIO_BOUND + FLOAT_SLACK:
            return _failed(out, f"opt/alg {ratio!r} above e^(1/e)+eps")
        if not LP_GAP_WINDOW[0] <= gap <= LP_GAP_WINDOW[1] + FLOAT_SLACK:
            return _failed(out, f"LP gap {gap!r} outside [-1e-9, ln(1+eps/4)]")
        return out


@dataclass
class RoundCase:
    """One fractional solution rounded through ``nswlp.round_best``."""

    label: str
    instance: object
    solution: object

    def run(self):
        return nswlp.round_best(self.instance, self.solution)

    def check(self, alloc, seconds: float) -> Outcome:
        why = _owner_problem(list(alloc.owner), self.instance)
        if why:
            return Outcome(False, seconds, why)
        lw, lp_value = nswlp.log_nsw(self.instance, alloc), self.solution.lp_value
        if lw < lp_value - ROUNDING_LOSS - FLOAT_SLACK:
            return Outcome(False, seconds, f"log_nsw {lw!r} below lp_value - 1/e")
        alg = nswlp.nsw(self.instance, alloc)
        return Outcome(True, seconds, lp_value=lp_value, alg=alg,
                       lp_ratio=math.exp(lp_value) / alg)

    def certify(self, out: Outcome) -> Outcome:
        return out


def _failed(out: Outcome, why: str) -> Outcome:
    out.ok, out.why = False, why
    return out


def _owner_problem(owner, instance) -> str:
    if len(owner) != instance.num_items:
        return f"allocation has {len(owner)} entries for {instance.num_items} items"
    for j, i in enumerate(owner):
        if i is not None and not (isinstance(i, int) and 0 <= i < instance.num_agents):
            return f"item {j} owned by {i!r}"
    return ""


def _instance_obj(weights, values) -> dict:
    return {
        "num_items": len(values[0]),
        "agents": [
            {"weight": str(w), "values": [str(v) for v in row]}
            for w, row in zip(weights, values)
        ],
    }


def _mixture(rng: random.Random, instance):
    """Feasible column masses: a convex mix of onto assignments."""
    n, m = instance.num_agents, instance.num_items
    lams = _weights(rng, MIXTURE_PARTS)
    mass: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for lam in lams:
        owner = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
        rng.shuffle(owner)
        for i in range(n):
            key = (i, tuple(j for j in range(m) if owner[j] == i))
            mass[key] = mass.get(key, Fraction(0)) + lam
    columns, masses, lp_value = [], [], 0.0
    for (i, items), y in sorted(mass.items()):
        v = instance.bundle_value(i, items)
        columns.append(nswlp.Column(agent=i, items=items, value=v))
        masses.append(y)
        lp_value += float(y) * float(instance.agents[i].weight) * math.log(float(v))
    return nswlp.ColumnSolution(columns=tuple(columns), mass=tuple(masses), lp_value=lp_value)


def _round_case(rng: random.Random, n: int, m: int) -> RoundCase:
    weights = _weights(rng, n)
    values = [[rng.randint(1, VMAX) for _ in range(m)] for _ in range(n)]
    inst = nswlp.make_instance(weights, values)
    return RoundCase(f"({n},{m}) mixture", inst, _mixture(rng, inst))


def make_cases(workload: str, seed: int, workdir: Path) -> list:
    """The workload's inputs for ``seed``; LP instances are written to
    ``workdir`` in the documented instance file format."""
    rng = random.Random(seed)
    if workload == "round-frac":
        return _interleave([[_round_case(rng, n, m) for _ in range(count)]
                            for n, m, count in ROUND_FRAC])
    cases = []
    for k, (label, weights, values) in enumerate(_library()):
        values = _relabel(rng, values)
        path = workdir / f"inst{k}.json"
        path.write_text(json.dumps(_instance_obj(weights, values)))
        cases.append(LpCase(label, nswlp.make_instance(weights, values), path,
                            workdir / f"alloc{k}.json", workdir / f"report{k}.json"))
    return cases


TINY = ([Fraction(1, 2), Fraction(1, 2)], [[4, 1, 2], [1, 3, 2]])


def tiny_case(workdir: Path) -> LpCase:
    """The fixed two-agent instance solved by every set-up and warm-up."""
    path = workdir / "tiny.json"
    path.write_text(json.dumps(_instance_obj(*TINY)))
    return LpCase("tiny", nswlp.make_instance(*TINY), path,
                  workdir / "tiny_alloc.json", workdir / "tiny_report.json")

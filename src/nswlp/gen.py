"""Seeded random instance generators for benchmarks and tests.

Weights are exact rationals on the simplex; values are small nonnegative
integers, either uniform or skewed (many small values, few large ones) to
stress the group structure of the rounding stage.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import Instance, make_instance

WEIGHT_DENOMINATOR = 2520  # lcm(1..10); keeps weight denominators small
ZIPF_EXPONENT = 1.1
_DIRICHLET_ATTEMPTS = 1000


def random_weights(n: int, rng: random.Random, kind: str = "uniform") -> list[Fraction]:
    """n positive rationals summing to exactly 1."""
    d = WEIGHT_DENOMINATOR
    if not 1 <= n <= d:
        raise ValueError(f"positive weights on the 1/{d} lattice need 1 to {d} agents, not {n}")
    if kind == "uniform":
        # Uniform lattice point of the simplex interior via distinct cuts.
        while True:
            cuts = sorted(rng.sample(range(1, d), n - 1)) if n > 1 else []
            parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
            if all(p > 0 for p in parts):
                return [Fraction(p, d) for p in parts]
    if kind == "dirichlet":
        # Redraw until the last part stays positive; large n makes that rare.
        for _ in range(_DIRICHLET_ATTEMPTS):
            draws = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
            total = sum(draws)
            parts = [max(1, round(x / total * d)) for x in draws]
            parts[-1] = d - sum(parts[:-1])
            if parts[-1] >= 1:
                return [Fraction(p, d) for p in parts]
        raise ValueError(
            f"no dirichlet weights for {n} agents on the 1/{d} lattice "
            f"in {_DIRICHLET_ATTEMPTS} draws"
        )
    raise ValueError(f"unknown weight kind {kind!r}")


def _zipf_value(rng: random.Random, vmax: int) -> int:
    # P(rank r) ~ r^-ZIPF_EXPONENT over r = 1..vmax+1; value = vmax + 1 - rank,
    # so small values dominate and zero stays reachable.
    weights = [(r + 1) ** -ZIPF_EXPONENT for r in range(vmax + 1)]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for r, w in enumerate(weights):
        acc += w
        if u <= acc:
            return vmax - r
    return 0


def random_instance(
    n: int,
    m: int,
    rng: random.Random,
    dist: str = "uniform",
    vmax: int = 10,
    weight_kind: str = "uniform",
) -> Instance:
    weights = random_weights(n, rng, weight_kind)
    values = []
    for _ in range(n):
        if dist == "uniform":
            row = [rng.randint(0, vmax) for _ in range(m)]
        elif dist == "zipf":
            row = [_zipf_value(rng, vmax) for _ in range(m)]
        else:
            raise ValueError(f"unknown value distribution {dist!r}")
        values.append(row)
    return make_instance(weights, values)


def random_solvable_instance(
    n: int,
    m: int,
    rng: random.Random,
    dist: str = "uniform",
    vmax: int = 10,
    weight_kind: str = "uniform",
) -> Instance:
    """Resample until some allocation has positive welfare."""
    from .reference import positivity_check

    if n > m:
        # all generated weights are positive, so n agents need n items
        raise ValueError("need at least as many items as agents")
    while True:
        inst = random_instance(n, m, rng, dist=dist, vmax=vmax, weight_kind=weight_kind)
        if positivity_check(inst):
            return inst

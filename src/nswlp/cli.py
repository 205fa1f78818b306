"""Command-line surface: solve, exact, verify, gen, bench.

Exit codes, assigned in :func:`main` alone: 0 success; 2 invalid input or
guard violation (``InvalidInstance``, ``TooLarge``: a bad instance,
allocation, ``--epsilon``, ``--jobs`` or ``gen`` argument, a ``gen``
instance that would not validate, an instance whose weights or values
leave the double range, an empty ``bench`` directory, an ``exact``
instance over the brute-force guard, an LP pricer call over its node
budget); 3 no allocation with positive welfare exists (``solve`` still
writes its files); 4 numerical failure in the LP driver
(``NumericalCollapse``: HiGHS reports no optimum, the pricer re-prices a
pooled column at its duals, its final basis is not an exactly feasible
vertex, or the exact value misses the dual bound).  Any other exception
ends in a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import sys
import time
from typing import Optional

from . import jsonio
from .configlp import ColumnSolution, solve_configuration_lp
from .core import (
    Allocation,
    Infeasible,
    Instance,
    InvalidInstance,
    NumericalCollapse,
    TooLarge,
    _exp_welfare,
    log_nsw,
    nsw,
)
from .gen import random_instance
from .reference import BRUTE_FORCE_GUARD, brute_force_opt
from .rounding import allocation_from_matching, best_allocation, round_combination

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_POSITIVE = 3
EXIT_COLLAPSE = 4


@contextlib.contextmanager
def _input_file(path: str):
    """Re-raise a read, JSON or format error, or a weight or values outside
    the double range, as ``InvalidInstance`` naming ``path``."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise InvalidInstance(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (InvalidInstance, TooLarge, OSError) as exc:
        raise InvalidInstance(f"{path}: {exc}") from exc


def _load_instance(path: str) -> Instance:
    with _input_file(path):
        return jsonio.load_instance(path)


def _check_epsilon(epsilon: float) -> None:
    """Reject an ``--epsilon`` outside (0, 1], nan included."""
    if not 0.0 < epsilon <= 1.0:
        raise InvalidInstance(f"--epsilon must be in (0, 1], got {epsilon!r}")


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        jsonio.write_text(path, text)


def _welfare(instance: Instance, alloc: Allocation) -> dict:
    """``nsw`` and ``log_nsw`` (``None`` at zero welfare) from exact bundle sums."""
    lw = log_nsw(instance, alloc)
    return {"nsw": _exp_welfare(lw), "log_nsw": None if lw == -math.inf else lw}


def _opt_nsw(instance: Instance, guard: int = BRUTE_FORCE_GUARD) -> Optional[float]:
    """Brute-force optimum welfare, or None when n^m exceeds the guard;
    clamped below the double range's top as :func:`~nswlp.core.nsw` is."""
    if instance.num_agents**instance.num_items > min(guard, BRUTE_FORCE_GUARD):
        return None
    _, opt_lw = brute_force_opt(instance)
    return _exp_welfare(opt_lw)


def _gift_leftovers(instance: Instance, alloc: Allocation) -> Allocation:
    """Hand each unassigned item to a positive-weight agent valuing it most."""
    positive = [i for i in range(instance.num_agents) if instance.agents[i].weight > 0]
    owner = list(alloc.owner)
    for j, cur in enumerate(owner):
        if cur is not None:
            continue
        best = max(positive, key=lambda i: (instance.agents[i].values[j], -i))
        owner[j] = best
    return Allocation(owner=tuple(owner))


def solve_pipeline(
    instance: Instance,
    epsilon: float,
    mode: str = "deterministic",
    seed: int = 0,
    gift: bool = False,
) -> tuple[Allocation, ColumnSolution, int]:
    """Full solve: configuration LP at epsilon/4, then rounding.

    Returns (allocation, lp solution, number of matchings in the
    combination).  ``mode='sample'`` draws one matching with its convex
    weight instead of taking the best: the weights' running float sum is
    compared with one uniform draw, and only the drawn matching is
    replayed.  Raises ValueError for an epsilon outside (0, 1], nan
    included.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")
    colsol = solve_configuration_lp(instance, epsilon / 4.0)
    comb = round_combination(instance, colsol)
    count = len(comb.steps)
    if mode == "sample":
        u = random.Random(seed).random()
        acc = 0.0
        pick = count - 1
        for k, step in enumerate(comb.steps):
            # Int true division rounds correctly, as float of the reduced
            # Fraction(step, denom) does, so the sum is the weights' sum.
            acc += step / comb.denom
            if u < acc:
                pick = k
                break
        chosen = allocation_from_matching(comb.matching(pick), instance.num_items)
    else:
        chosen = best_allocation(instance, comb)
    if gift:
        chosen = _gift_leftovers(instance, chosen)
    return chosen, colsol, count


def cmd_solve(args) -> int:
    _check_epsilon(args.epsilon)
    inst = _load_instance(args.instance)
    t0 = time.monotonic()
    try:
        alloc, colsol, nmatch = solve_pipeline(
            inst, args.epsilon, mode=args.mode, seed=args.seed, gift=args.gift_leftovers
        )
        lp_value, code = colsol.lp_value, EXIT_OK
    except Infeasible:
        # The LP driver's one-item baseline found no positive-value
        # matching of the positive-weight agents.
        alloc, nmatch = Allocation(owner=(None,) * inst.num_items), 0
        lp_value, code = None, EXIT_NO_POSITIVE
    timed = args.timings and code == EXIT_OK
    runtime_ms = int((time.monotonic() - t0) * 1000) if timed else 0
    report = _welfare(inst, alloc)
    report.update(lp_value=lp_value, epsilon=args.epsilon, matchings=nmatch, runtime_ms=runtime_ms)
    if lp_value is not None and report["nsw"] > 0:
        report["lp_ratio"] = _exp_welfare(lp_value) / report["nsw"]
    _write(args.output, jsonio.dumps(jsonio.allocation_to_obj(alloc)))
    _write(args.report, jsonio.dumps(report))
    if code == EXIT_NO_POSITIVE:
        print("no allocation with positive welfare exists", file=sys.stderr)
    return code


def cmd_exact(args) -> int:
    inst = _load_instance(args.instance)
    alloc, _ = brute_force_opt(inst)
    _write(args.output, jsonio.dumps(jsonio.allocation_to_obj(alloc)))
    _write(args.report, jsonio.dumps(_welfare(inst, alloc)))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    with _input_file(args.allocation):
        alloc = jsonio.load_allocation(args.allocation)
    try:
        out = _welfare(inst, alloc)
    except ValueError as exc:
        raise InvalidInstance(str(exc)) from exc
    opt = _opt_nsw(inst, args.guard)
    if opt is not None:
        value = out["nsw"]
        out["opt_nsw"] = opt
        # At positive welfare every positive-weight agent's bundle is worth
        # at least its smallest positive value, and at most its total in the
        # optimum; the instance check keeps that ratio a finite double, but
        # the quotient of two rounded welfares can round past DBL_MAX.
        out["ratio"] = (min(opt / value, sys.float_info.max) if value > 0
                        else 1.0 if opt == 0 else None)
    _write(args.output, jsonio.dumps(out))
    return EXIT_OK


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    try:
        inst = random_instance(
            args.agents,
            args.items,
            rng,
            dist=args.dist,
            vmax=args.vmax,
            weight_kind=args.weights,
        )
    except ValueError as exc:  # e.g. --items 0: write nothing that solve would reject
        raise InvalidInstance(str(exc)) from exc
    _write(args.output, jsonio.dumps(jsonio.instance_to_obj(inst)))
    return EXIT_OK


def _bench_one(task):
    path, epsilon = task
    inst = _load_instance(path)
    row = {"instance": path, "opt": "", "lp": "", "alg": "", "ratio": "", "runtime_ms": ""}
    t0 = time.monotonic()
    try:
        alloc, colsol, _ = solve_pipeline(inst, epsilon)
    except Infeasible:
        row.update(opt="0.0", lp="0.0", alg="0.0", ratio="1.0")
        row["runtime_ms"] = str(int((time.monotonic() - t0) * 1000))
        return row
    row["runtime_ms"] = str(int((time.monotonic() - t0) * 1000))
    alg = nsw(inst, alloc)
    row["alg"] = repr(alg)
    row["lp"] = repr(_exp_welfare(colsol.lp_value))
    opt = _opt_nsw(inst)
    if opt is not None:
        row["opt"] = repr(opt)
        if alg > 0:
            row["ratio"] = repr(opt / alg)
    return row


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    reports no affinity)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no sched_getaffinity
        return os.cpu_count() or 1


def cmd_bench(args) -> int:
    """Solve every ``*.json`` in the directory into one CSV.

    ``--jobs`` caps the worker processes; no more are started than there
    are files or usable CPUs, and one worker runs in this process.
    """
    import concurrent.futures
    import glob

    if args.jobs < 1:
        raise InvalidInstance(f"--jobs must be at least 1, got {args.jobs}")
    _check_epsilon(args.epsilon)
    paths = sorted(glob.glob(os.path.join(args.directory, "*.json")))
    if not paths:
        raise InvalidInstance(f"no instance files in {args.directory}")
    tasks = [(p, args.epsilon) for p in paths]
    # The pool starts all its workers at once, whatever the work.
    workers = min(args.jobs, len(paths), _usable_cpus())
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(t) for t in tasks]
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["instance", "opt", "lp", "alg", "ratio", "runtime_ms"]
    )
    writer.writeheader()
    writer.writerows(rows)
    _write(args.output, buf.getvalue())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    p = argparse.ArgumentParser(
        prog="nswlp",
        description="Weighted Nash social welfare solver (configuration LP + rounding).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="approximate solve via the configuration LP")
    ps.add_argument("instance")
    ps.add_argument("-o", "--output", default=None, help="allocation JSON (default stdout)")
    ps.add_argument("--report", default=None, help="report JSON (default stdout)")
    ps.add_argument("--epsilon", type=float, default=0.1)
    ps.add_argument("--gift-leftovers", action="store_true")
    ps.add_argument("--mode", choices=["deterministic", "sample"], default="deterministic")
    ps.add_argument("--seed", type=int, default=0, help="used only by --mode sample")
    ps.add_argument("--timings", action="store_true", help="measure runtime_ms (breaks byte determinism)")
    ps.set_defaults(func=cmd_solve)

    pe = sub.add_parser("exact", help="exhaustive optimum (guarded)")
    pe.add_argument("instance")
    pe.add_argument("-o", "--output", default=None)
    pe.add_argument("--report", default=None)
    pe.set_defaults(func=cmd_exact)

    pv = sub.add_parser("verify", help="recompute welfare of an allocation file")
    pv.add_argument("instance")
    pv.add_argument("allocation")
    pv.add_argument("-o", "--output", default=None)
    pv.add_argument("--guard", type=int, default=BRUTE_FORCE_GUARD)
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("gen", help="generate a random instance")
    pg.add_argument("--agents", type=int, required=True)
    pg.add_argument("--items", type=int, required=True)
    pg.add_argument("--dist", choices=["uniform", "zipf"], default="uniform")
    pg.add_argument("--vmax", type=int, default=10)
    pg.add_argument("--weights", choices=["uniform", "dirichlet"], default="uniform")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--output", default=None)
    pg.set_defaults(func=cmd_gen)

    pb = sub.add_parser("bench", help="solve every instance in a directory, emit CSV")
    pb.add_argument("directory")
    pb.add_argument("--epsilon", type=float, default=0.1)
    pb.add_argument("--jobs", type=int, default=1,
                    help="worker processes (at least 1; no more than files or usable CPUs)")
    pb.add_argument("-o", "--output", default=None)
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    """Run one subcommand; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInstance, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalCollapse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLAPSE


if __name__ == "__main__":
    sys.exit(main())

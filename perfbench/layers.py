"""Per-layer spans and counters for the traced run.

Tracing wraps named module attributes of ``nswlp`` from the benchmark's
own files and changes no source.  A wrapped function records a span: its
self time is its duration minus the time of the wrapped calls it contains.
Every alias of a wrapped function inside ``nswlp`` (``from .x import f``)
is wrapped too, so calls through any module see the same span.

A hook whose module or attribute no longer exists, or whose observer fails
on the call it sees, is recorded as absent; the metrics that need it are
left out of the report rather than read as zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "func" or "Class.method"
    self_metric: Optional[str]  # None: count calls without a span
    observe: Optional[Callable] = None  # (counts, args, result, sweeps_at_entry)

    @property
    def key(self) -> str:
        return f"{self.module}:{self.attr}"


def _ellipsoid(counts, args, run, _):
    counts["configlp.ellipsoid_runs"] += 1
    counts["configlp.ellipsoid_iters"] += run.iterations
    reason = run.reason.replace("-", "_")
    if reason not in ("volume", "flat", "feasible_center", "iteration_cap"):
        raise ValueError(f"unknown stop reason {run.reason!r}")
    counts[f"configlp.stop_{reason}"] += 1


def _oracle(counts, args, cut, sweeps_at_entry):
    counts["configlp.oracle_calls"] += 1
    if cut is not None:
        counts["configlp.oracle_cuts"] += 1
        if counts["configlp.sweeps"] == sweeps_at_entry:
            counts["configlp.oracle_prefix_cuts"] += 1


def _sweep(counts, args, result, _):
    z, _costs, _vals, zcap = args
    cost, val, choice = result
    counts["configlp.sweeps"] += 1
    counts["configlp.dp_cells"] += len(z) * (zcap + 1)
    counts["configlp.dp_bytes_computed"] += cost.nbytes + val.nbytes + choice.nbytes


def _primal(counts, args, _result, _):
    counts["configlp.pool_columns"] += len(args[1])


def _solve_lp(counts, args, _result, _):
    lp = args[0]
    counts["lpsolve.lp_cols"] += len(lp.objective)
    counts["lpsolve.lp_rows"] += len(lp.rows)


def _pivot(counts, _args, _result, _):
    counts["lpsolve.pivots"] += 1


def _groups(counts, _args, groups, _):
    counts["rounding.groups"] += len(groups)


def _decompose(counts, _args, comb, _):
    counts["rounding.matchings"] += len(comb.matchings)
    counts["rounding.padded_edges"] += comb.padded_edges


CLI, JSONIO, CORE, REF, LP, SOLVE, RND = (
    "nswlp.cli", "nswlp.jsonio", "nswlp.core", "nswlp.reference",
    "nswlp.configlp", "nswlp.lpsolve", "nswlp.rounding",
)

HOOKS = (
    Hook(CLI, "main", "cli.self_s"),
    Hook(JSONIO, "load_instance", "jsonio.load_s"),
    Hook(JSONIO, "dumps", "jsonio.dump_s"),
    Hook(CORE, "scale_values", "core.scale_s"),
    Hook(REF, "positivity_check", "reference.positivity_s"),
    Hook(REF, "assignment_baseline", "reference.baseline_s"),
    Hook(LP, "solve_configuration_lp", "configlp.driver_s"),
    Hook(LP, "_build_plans", "configlp.plans_s"),
    Hook(LP, "ellipsoid_run", "configlp.ellipsoid_s", _ellipsoid),
    Hook(LP, "_oracle_query", "configlp.oracle_s", _oracle),
    Hook(LP, "_sweep", "configlp.sweep_s", _sweep),
    Hook(LP, "solve_restricted_primal", "configlp.primal_s", _primal),
    Hook(SOLVE, "solve_lp", "lpsolve.solve_s", _solve_lp),
    Hook(SOLVE, "_Tableau.pivot", None, _pivot),
    Hook(RND, "round_best", "rounding.select_s"),
    # round_combination's own work is the per-agent group bookkeeping.
    Hook(RND, "round_combination", "rounding.groups_s"),
    Hook(RND, "marginals", "rounding.marginals_s"),
    Hook(RND, "build_groups", "rounding.groups_s", _groups),
    Hook(RND, "decompose", "rounding.decompose_s", _decompose),
)

_HOOK_OF = {f"{h.module.split('.')[-1]}.{h.attr}": h.key for h in HOOKS}


def _needs(*names: str) -> tuple[str, ...]:
    return tuple(_HOOK_OF[n] for n in names)


_STOPS = ("volume", "flat", "feasible_center", "iteration_cap")

# (metric, unit, better, hooks it needs); the order is the report order.
LAYER_METRICS = (
    ("cli.self_s", "s", "lower", _needs("cli.main")),
    ("jsonio.load_s", "s", "lower", _needs("jsonio.load_instance")),
    ("jsonio.dump_s", "s", "lower", _needs("jsonio.dumps")),
    ("core.scale_s", "s", "lower", _needs("core.scale_values")),
    ("reference.positivity_s", "s", "lower", _needs("reference.positivity_check")),
    ("reference.baseline_s", "s", "lower", _needs("reference.assignment_baseline")),
    ("configlp.driver_s", "s", "lower", _needs("configlp.solve_configuration_lp")),
    ("configlp.plans_s", "s", "lower", _needs("configlp._build_plans")),
    ("configlp.ellipsoid_s", "s", "lower", _needs("configlp.ellipsoid_run")),
    ("configlp.ellipsoid_runs", "count", "lower", _needs("configlp.ellipsoid_run")),
    ("configlp.ellipsoid_iters", "count", "lower", _needs("configlp.ellipsoid_run")),
    *((f"configlp.stop_{s}", "count", "lower", _needs("configlp.ellipsoid_run"))
      for s in _STOPS),
    ("configlp.oracle_s", "s", "lower", _needs("configlp._oracle_query")),
    ("configlp.oracle_calls", "count", "lower", _needs("configlp._oracle_query")),
    ("configlp.oracle_cuts", "count", "lower", _needs("configlp._oracle_query")),
    ("configlp.oracle_prefix_cuts", "count", "higher",
     _needs("configlp._oracle_query", "configlp._sweep")),
    ("configlp.sweeps", "count", "lower", _needs("configlp._sweep")),
    ("configlp.sweep_s", "s", "lower", _needs("configlp._sweep")),
    ("configlp.dp_cells", "count", "lower", _needs("configlp._sweep")),
    ("configlp.dp_bytes_computed", "bytes", "lower", _needs("configlp._sweep")),
    ("configlp.sweep_yield", "ratio", "higher",
     _needs("configlp._oracle_query", "configlp._sweep")),
    ("configlp.primal_s", "s", "lower", _needs("configlp.solve_restricted_primal")),
    ("configlp.pool_columns", "count", "lower", _needs("configlp.solve_restricted_primal")),
    ("lpsolve.solve_s", "s", "lower", _needs("lpsolve.solve_lp")),
    ("lpsolve.pivots", "count", "lower", _needs("lpsolve._Tableau.pivot")),
    ("lpsolve.lp_cols", "count", "lower", _needs("lpsolve.solve_lp")),
    ("lpsolve.lp_rows", "count", "lower", _needs("lpsolve.solve_lp")),
    ("rounding.marginals_s", "s", "lower", _needs("rounding.marginals")),
    ("rounding.groups_s", "s", "lower",
     _needs("rounding.round_combination", "rounding.build_groups")),
    ("rounding.decompose_s", "s", "lower", _needs("rounding.decompose")),
    ("rounding.select_s", "s", "lower", _needs("rounding.round_best")),
    ("rounding.groups", "count", "lower", _needs("rounding.build_groups")),
    ("rounding.matchings", "count", "lower", _needs("rounding.decompose")),
    ("rounding.padded_edges", "count", "lower", _needs("rounding.decompose")),
    ("bench.loop_s", "s", "lower", ()),
    ("trace.overhead_s", "s", "lower", ()),
)

# Counters that must repeat exactly between two traced runs on one seed.
EXACT_COUNTERS = (
    "configlp.oracle_calls", "configlp.sweeps", "configlp.dp_cells",
    "configlp.ellipsoid_iters", "lpsolve.pivots", "rounding.matchings",
    "rounding.padded_edges",
)


def _nswlp_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "nswlp" or name.startswith("nswlp."))]


class Tracer:
    """Span stack and counters; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self.absent: dict[str, str] = {}  # hook key -> why
        self._stack: list[list[float]] = []  # child seconds per open span
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for hook in HOOKS:
            try:
                owner = importlib.import_module(hook.module)
                *path, name = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError) as exc:
                self.absent[hook.key] = f"not found: {exc}"
                continue
            wrapper = self._wrap(hook, original)
            for target in [owner] if path else _nswlp_modules():
                for attr in [a for a, v in vars(target).items() if v is original]:
                    setattr(target, attr, wrapper)
                    self._patched.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def _wrap(self, hook: Hook, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or hook.key in tracer.absent:
                return fn(*args, **kwargs)
            sweeps_at_entry = tracer.counts["configlp.sweeps"]
            if hook.self_metric is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(hook.self_metric, fn, args, kwargs)
            if hook.observe is not None:
                try:
                    hook.observe(tracer.counts, args, result, sweeps_at_entry)
                except Exception as exc:  # the hook no longer matches the code
                    tracer.absent[hook.key] = f"observer raised {exc!r}"
            return result

        return wrapper

    def _span(self, metric: str, fn, args, kwargs):
        stack = self._stack
        stack.append([0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()[0]
            self.self_s[metric] += elapsed - child
            if stack:
                stack[-1][0] += elapsed
            else:
                self.root_s += elapsed

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, loop_s: float, overhead_s: float) -> dict:
        """Every per-layer metric whose hooks were all present."""
        extra = {"bench.loop_s": loop_s, "trace.overhead_s": overhead_s}
        sweeps = self.counts["configlp.sweeps"]
        sweep_cuts = self.counts["configlp.oracle_cuts"] - self.counts["configlp.oracle_prefix_cuts"]
        extra["configlp.sweep_yield"] = sweep_cuts / sweeps if sweeps else 0.0
        out = {}
        for name, unit, _better, needs in LAYER_METRICS:
            if any(k in self.absent for k in needs):
                continue
            if name in extra:
                value = extra[name]
            elif unit == "s":
                value = self.self_s[name]
            else:
                value = self.counts[name]
            out[name] = {"value": value, "unit": unit}
        return out

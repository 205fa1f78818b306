"""nswlp benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload lp-desk --seed 1 --seconds 40 --trace 0

Solves the workload's inputs one after another (each solve waits for the
previous one) until ``--seconds`` have passed and every input was solved at
least once, checks every output, and prints one JSON line last.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it then
solves every input once more with per-layer spans on and reports the layer
metrics instead.  A readable summary, including the certificates that are
gates rather than bounded metrics, goes to stderr.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("lp-desk", "round-frac")
SETUP_REPEATS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS pools at the CPUs this process may use; returns the cap."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return cap


def measure_setup(workdir: Path) -> list[float]:
    """Import of nswlp plus one tiny solve, each in a fresh interpreter."""
    from workloads import tiny_case

    tiny = tiny_case(workdir)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(tiny.path),
             str(tiny.alloc_path), str(tiny.report_path)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def solve_once(case, failures: list, label: str):
    """Time one entry-point call, then check its output (untimed)."""
    from workloads import Outcome

    start = time.perf_counter()
    try:
        raw = case.run()
    # A failed solve must not end the run; cli.main raises SystemExit on bad
    # arguments, which counts as a failed solve too.
    except (Exception, SystemExit) as exc:
        seconds = time.perf_counter() - start
        out = Outcome(False, seconds, f"{type(exc).__name__}: {exc}")
        failures.append((label, case.label, out.why, traceback.format_exc(limit=3)))
        return out
    seconds = time.perf_counter() - start
    try:
        out = case.check(raw, seconds)
    except Exception as exc:  # malformed output files count as failures
        out = Outcome(False, seconds, f"check raised {type(exc).__name__}: {exc}")
    if not out.ok:
        failures.append((label, case.label, out.why, ""))
    return out


def closed_loop(cases, seconds: float, failures: list) -> list[list]:
    """Solve cases in order, cycling, until ``seconds`` passed and each case
    ran once; returns the outcomes per case."""
    outcomes: list[list] = [[] for _ in cases]
    start = time.perf_counter()
    k = 0
    while k < len(cases) or time.perf_counter() - start < seconds:
        i = k % len(cases)
        outcomes[i].append(solve_once(cases[i], failures, f"#{i}"))
        k += 1
    return outcomes


def certify(cases, outcomes, failures: list) -> None:
    """Reference checks, once per case, applied to every successful solve."""
    for i, (case, outs) in enumerate(zip(cases, outcomes)):
        for out in outs:
            if out.ok:
                try:
                    case.certify(out)
                except Exception as exc:
                    out.ok, out.why = False, f"reference raised {type(exc).__name__}: {exc}"
                if not out.ok:
                    failures.append((f"#{i}", case.label, out.why, ""))


def tail(values: list[float]):
    """Highest percentile leaving at least ten samples beyond it, when that
    percentile lies above the median; else None."""
    n = len(values)
    if n < 21:
        return None
    ordered = sorted(values)
    k = n - 10  # samples at or below the percentile
    return 100.0 * k / n, ordered[k - 1], n - k


def per_case_seconds(outcomes) -> list[float]:
    """Median solve time of each case.  A failed solve counts too: it took
    that time, and the failure already makes the run incorrect."""
    return [statistics.median(o.seconds for o in outs) for outs in outcomes]


def end_to_end(setup_times, outcomes, rss_mb: float) -> tuple[dict, dict]:
    """Bounded metrics for the result line, plus the certificate gates and
    the tail latency for the summary."""
    times = per_case_seconds(outcomes)
    firsts = [next(o for o in outs if o.ok) for outs in outcomes if any(o.ok for o in outs)]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (math.fsum(times), "s"),
        "solve_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if firsts:  # left out only when no solve succeeded
        metrics["lp_ratio_mean"] = (statistics.fmean(o.lp_ratio for o in firsts), "ratio")
    gates = {}
    t = tail(times)
    if t is not None:
        gates[f"solve_ms_tail (p{t[0]:.0f}, {t[2]} beyond, n={len(times)})"] = (1000.0 * t[1], "ms")
    ratios = [o.ratio for o in firsts if not math.isnan(o.ratio)]
    gaps = [o.gap for o in firsts if not math.isnan(o.gap)]
    if ratios:
        gates["ratio_max"] = (max(ratios), "ratio")
    if gaps:
        gates["lp_gap_max"] = (max(gaps), "nats")
    return metrics, gates


def traced_pass(cases, untraced_wall: float, failures: list):
    """One more pass with spans on.  Returns its outcomes, the layer metrics,
    the absent hooks, an accounting error (empty when the self times account
    for the traced wall time) and the traced wall_s."""
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        outcomes = []
        for i, case in enumerate(cases):
            tracer.active = True
            try:
                outcomes.append([solve_once(case, failures, f"traced #{i}")])
            finally:
                tracer.active = False
    finally:
        tracer.uninstall()
    certify(cases, outcomes, failures)
    traced_wall = math.fsum(o.seconds for outs in outcomes for o in outs)
    loop_s = traced_wall - tracer.root_s
    metrics = tracer.layer_metrics(loop_s, traced_wall - untraced_wall)
    accounted = math.fsum(tracer.self_s.values()) + loop_s
    negative = [k for k, v in tracer.self_s.items() if v < -1e-6]
    error = ""
    if negative or abs(accounted - traced_wall) > 1e-3 * traced_wall:
        error = f"self times {accounted!r} s do not account for traced wall {traced_wall!r} s (negative: {negative})"
    return outcomes, metrics, tracer.absent, error, traced_wall


def environment(cap: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": cap, "load": "closed loop, 1 client",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nswlp" / "__init__.py").is_file():
        print(f"error: no nswlp sources under {SRC}", file=sys.stderr)
        return 2
    cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import nswlp

    if Path(nswlp.__file__).resolve().parent != (SRC / "nswlp").resolve():
        print(f"error: nswlp imported from {nswlp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, cap, workdir, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, cap: int, workdir: Path, workloads) -> int:
    setup_times = measure_setup(workdir)
    cases = workloads.make_cases(args.workload, args.seed, workdir)
    failures: list = []
    solve_once(workloads.tiny_case(workdir), failures, "warm-up")
    outcomes = closed_loop(cases, args.seconds, failures)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    certify(cases, outcomes, failures)
    metrics, gates = end_to_end(setup_times, outcomes, rss_mb)
    problems = []
    if args.trace:
        traced, layer, absent, error, traced_wall = traced_pass(
            cases, metrics["wall_s"][0], failures)
        outcomes = [a + b for a, b in zip(outcomes, traced)]
        if error:
            problems.append(error)
        result_metrics = layer
    else:
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    attempted = sum(len(outs) for outs in outcomes)
    failed = sum(not o.ok for outs in outcomes for o in outs)
    gates["fail_frac"] = (failed / attempted, "ratio")

    log = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  cases {len(cases)}  "
          f"solves {attempted}  failed {failed}", file=log)
    print("environment " + json.dumps(environment(cap)), file=log)
    print(f"setup runs (s): {' '.join(f'{t:.3f}' for t in setup_times)}", file=log)
    for name, (value, unit) in {**metrics, **gates}.items():
        print(f"  {name:<44} {value:.6g} {unit}", file=log)
    if args.trace:
        print(f"traced wall_s {traced_wall:.6g} s", file=log)
        for name, m in layer.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}", file=log)
        for key, why in absent.items():
            print(f"absent hook {key} ({why}); its metrics are left out", file=log)
    for where, label, why, tb in failures:
        print(f"FAILED seed {args.seed} case {where} {label}: {why}", file=log)
        if tb:
            print(tb, file=log)
    for problem in problems:
        print(f"FAILED {problem}", file=log)

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

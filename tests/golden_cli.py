"""The golden CLI corpus: instances and the exact output of ``nswlp solve``.

``tests/data/golden_cli.json`` holds 46 instances inline, each with
three runs (default mode, ``--mode sample --seed 2`` and
``--gift-leftovers``): the exit code and the exact allocation, report and
stderr text.  ``tests/test_cli.py`` replays every run through ``cli.main``
and compares byte for byte, so a change to the solve that moves any output
fails there.  A change meant to move outputs regenerates the file with

    PYTHONPATH=src python tests/golden_cli.py

and lists each difference, with its welfare change, in ``CHANGES.md``.
For every run whose output differs from the file it replaces, the script
prints one stderr line: the instance name, the mode, and ``log_nsw`` and
``lp_value`` before and after.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Optional

from nswlp.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"

RUNS = {
    "deterministic": [],
    "sample_seed2": ["--mode", "sample", "--seed", "2"],
    "gift_leftovers": ["--gift-leftovers"],
}


def _hand_instances() -> list[tuple[str, dict]]:
    tiny = Fraction(1, 10**323)
    big = int(sys.float_info.max)

    def rows(name, weights, values):
        return name, {"num_items": len(values[0]), "agents": [
            {"weight": w, "values": [str(v) for v in row]} for w, row in zip(weights, values)]}

    return [
        # Identical or near-identical rows: fractional LPs, so the three
        # modes can pick different matchings.
        rows("fractional-2x3", ["1/2"] * 2, [[9, 6, 9]] * 2),
        rows("fractional-3x5", ["1/3"] * 3, [[6, 5, 6, 5, 7]] * 3),
        rows("fractional-gap-3x5-a", ["1/3"] * 3,
             [[3, 8, 10, 2, 3], [1, 8, 10, 4, 2], [3, 10, 10, 4, 4]]),
        rows("fractional-gap-3x5-b", ["1/3"] * 3,
             [[5, 5, 8, 4, 6], [4, 5, 8, 2, 6], [4, 3, 8, 6, 5]]),
        rows("fractional-gap-3x5-c", ["1/3"] * 3,
             [[9, 6, 0, 10, 4], [9, 4, 0, 7, 6], [6, 2, 0, 8, 5]]),
        ("zero-weight-agent", {"num_items": 4, "agents": [
            {"weight": "0", "values": ["5", "1", "0", "2"]},
            {"weight": "1/3", "values": ["1", "2", "3", "4"]},
            {"weight": "2/3", "values": ["4", "0", "2", "1"]}]}),
        ("zero-weight-agents-crowd", {"num_items": 3, "agents": [
            {"weight": "1/2", "values": ["3", "1", "1"]},
            {"weight": "0", "values": ["0", "0", "0"]},
            {"weight": "1/2", "values": ["1", "1", "3"]},
            {"weight": "0", "values": ["9", "9", "9"]}]}),
        # Two positive-weight agents, one item: exit 3.
        ("no-positive-welfare", {"num_items": 1, "agents": [
            {"weight": "1/2", "values": ["1"]},
            {"weight": "1/2", "values": ["2"]}]}),
        # Agent 0's market bids underflow to 0.
        ("weight-1e-323", {"num_items": 5, "agents": [
            {"weight": f"{tiny.numerator}/{tiny.denominator}", "values": ["1"] * 5},
            {"weight": f"{(1 - tiny).numerator}/{(1 - tiny).denominator}",
             "values": ["1", "2", "3", "4", "5"]}]}),
        # Each agent values one item at the largest double's integer part:
        # log welfare rounds one ulp above ln(DBL_MAX).
        rows("dbl-max-diagonal", ["61/72", "7/180", "41/360"],
             [[big if j == i else 0 for j in range(3)] for i in range(3)]),
    ]


def _gen_instances() -> list[tuple[str, dict]]:
    """36 ``gen`` draws with n 1-6, m up to 14, uniform and zipf, vmax 3, 10
    and 100, each written by ``nswlp gen`` and read back as JSON."""
    rng = random.Random(31)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(36):
            n = rng.randint(1, 6)
            args = ["--agents", str(n), "--items", str(rng.randint(n, 14)),
                    "--dist", ("uniform", "zipf")[k % 2], "--vmax", str((3, 10, 100)[k % 3]),
                    "--weights", rng.choice(["uniform", "dirichlet"]), "--seed", str(k)]
            path = Path(tmp) / f"g{k}.json"
            if main(["gen", *args, "-o", str(path)]) != 0:
                raise RuntimeError(f"gen {args} failed")
            out.append(("gen " + " ".join(args), json.loads(path.read_text())))
    return out


def run_solve(tmp: Path, instance: dict, flags: list[str]) -> dict:
    """One ``nswlp solve`` of ``instance`` through ``cli.main``: its exit
    code, and the allocation, report and stderr text (None for a file it
    did not write)."""
    inst, alloc, report = tmp / "instance.json", tmp / "alloc.json", tmp / "report.json"
    for p in (alloc, report):
        p.unlink(missing_ok=True)
    inst.write_text(json.dumps(instance))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["solve", str(inst), *flags, "-o", str(alloc), "--report", str(report)])
    return {
        "exit": code,
        "allocation": alloc.read_text() if alloc.exists() else None,
        "report": report.read_text() if report.exists() else None,
        "stderr": err.getvalue(),
    }


def build() -> list[dict]:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, instance in _gen_instances() + _hand_instances():
            runs = {key: run_solve(Path(tmp), instance, flags) for key, flags in RUNS.items()}
            cases.append({"name": name, "instance": instance, "runs": runs})
    return cases


def _values(run: Optional[dict]) -> tuple:
    """``log_nsw`` and ``lp_value`` of a run's report (None without one)."""
    report = json.loads(run["report"]) if run and run["report"] else {}
    return report.get("log_nsw"), report.get("lp_value")


def report_changes(old: list[dict], new: list[dict]) -> None:
    """One stderr line per run of ``new`` that differs from ``old``'s run of
    the same instance and mode."""
    before = {case["name"]: case["runs"] for case in old}
    for case in new:
        for key, run in case["runs"].items():
            was = before.get(case["name"], {}).get(key)
            if run != was:
                (lw0, lp0), (lw1, lp1) = _values(was), _values(run)
                print(f"changed: {case['name']} [{key}] log_nsw {lw0} -> {lw1}, "
                      f"lp_value {lp0} -> {lp1}", file=sys.stderr)


if __name__ == "__main__":
    cases = build()
    report_changes(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else [], cases)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)

"""Self-checks of the benchmark.  The file name keeps it out of the repo's
default test run; run it explicitly:

    python3 -m pytest -q perfbench/check_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nswlp import configlp  # noqa: E402


def _traced_counts(cases) -> dict:
    tracer = layers.Tracer()
    tracer.install()
    try:
        for case in cases:
            tracer.active = True
            try:
                raw = case.run()
            finally:
                tracer.active = False
            assert case.check(raw, 0.0).ok
    finally:
        tracer.uninstall()
    assert not tracer.absent
    return {name: tracer.counts[name] for name in layers.EXACT_COUNTERS}


def _mixed_cases(workdir: Path) -> list:
    desk = workloads.make_cases("lp-desk", 3, workdir / "desk")
    frac = workloads.make_cases("round-frac", 3, workdir)
    return desk[:4] + frac[:2]


def test_exact_counters_repeat(tmp_path):
    (tmp_path / "desk").mkdir()
    cases = _mixed_cases(tmp_path)
    first = _traced_counts(cases)
    second = _traced_counts(cases)
    assert first == second
    assert all(first.values()), first


def test_same_seed_same_inputs(tmp_path):
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / sub).mkdir()
        workloads.make_cases("lp-desk", seed, tmp_path / sub)
    a, b, c = (sorted(p.read_text() for p in (tmp_path / s).glob("inst*.json")) for s in "abc")
    assert a == b
    assert a != c


def test_missing_hook_is_absent_and_end_to_end_survives(tmp_path, monkeypatch):
    # A refactor that inlines or renames _sweep: the oracle keeps a private
    # reference, and the module attribute the hook names is gone.
    query = configlp._oracle_query
    rebound = types.FunctionType(
        query.__code__, {**vars(configlp)}, query.__name__, query.__defaults__
    )
    monkeypatch.setattr(configlp, "_oracle_query", rebound)
    monkeypatch.delattr(configlp, "_sweep")

    cases = workloads.make_cases("lp-desk", 1, tmp_path)[:3]
    failures: list = []
    outcomes = run.closed_loop(cases, 0.0, failures)
    run.certify(cases, outcomes, failures)
    metrics, _gates = run.end_to_end([1.0], outcomes, 1.0)
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}

    _, layer, absent, error, _ = run.traced_pass(cases, metrics["wall_s"][0], failures)
    assert failures == [] and error == ""
    assert "nswlp.configlp:_sweep" in absent
    for name in ("configlp.sweeps", "configlp.sweep_s", "configlp.dp_cells",
                 "configlp.sweep_yield", "configlp.oracle_prefix_cuts"):
        assert name not in layer
    assert layer["configlp.oracle_calls"]["value"] > 0


def test_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in _benchmark()["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _ in layers.LAYER_METRICS]


def test_exits_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())

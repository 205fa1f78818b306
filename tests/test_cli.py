import contextlib
import json
import math
import os
import random
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nswlp import (
    NumericalCollapse, cli, configlp, full_enumeration_lp, gen, jsonio, make_instance, nsw,
    solve_configuration_lp,
)
from nswlp.cli import main, solve_pipeline
from nswlp.gen import random_weights
from golden_cli import GOLDEN, RUNS, run_solve


def write_instance(path, weights, values):
    inst = make_instance(weights, values)
    jsonio.save_instance(str(path), inst)
    return inst


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--agents", "2", "--items", "6", "--dist", "uniform", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_zipf_and_dirichlet(tmp_path):
    out = tmp_path / "z.json"
    assert (
        main(
            [
                "gen", "--agents", "3", "--items", "5", "--dist", "zipf",
                "--weights", "dirichlet", "--seed", "3", "-o", str(out),
            ]
        )
        == 0
    )
    inst = jsonio.load_instance(str(out))
    assert inst.num_agents == 3
    assert sum(a.weight for a in inst.agents) == 1


@pytest.mark.parametrize(
    "n, first, after",
    [(1, Fraction(1), 2675342405), (2, Fraction(349, 840), 3185950873),
     (2520, Fraction(1, 2520), 3229261690)],
)
def test_uniform_weights_draws_pinned(n, first, after):
    # The weights at both ends of the agent range, and the generator state
    # they leave, which every gen instance's values are drawn from.
    rng = random.Random(5)
    weights = random_weights(n, rng)
    assert (len(weights), sum(weights), weights[0], min(weights) > 0) == (n, 1, first, True)
    assert rng.getrandbits(32) == after


def _zipf_by_scan(rng, vmax):
    """The zipf draw as a linear scan over freshly built weights."""
    weights = [(r + 1) ** -gen.ZIPF_EXPONENT for r in range(vmax + 1)]
    u = rng.random() * sum(weights)
    acc = 0.0
    for r, w in enumerate(weights):
        acc += w
        if u <= acc:
            return vmax - r
    return 0


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("vmax", [0, 1, 2, 3, 10, 57, 1000, 10**5])
def test_zipf_draws_match_the_linear_scan(vmax):
    # The cached running sums give the scan's value and leave the generator
    # in the same state, draw after draw, and agree at both ends of [0, 1).
    fast, scan = random.Random(vmax), random.Random(vmax)
    for _ in range(300 if vmax < 1000 else 30):
        assert gen._zipf_value(fast, vmax) == _zipf_by_scan(scan, vmax)
    assert fast.getstate() == scan.getstate()
    for u in (0.0, 1e-300, 0.5, 1.0 - 2.0**-53):
        assert gen._zipf_value(_FixedDraw(u), vmax) == _zipf_by_scan(_FixedDraw(u), vmax)


def test_solve_single_agent(tmp_path):
    inst_path = tmp_path / "i.json"
    write_instance(inst_path, ["1"], [[2, 0, 3]])
    alloc_path, rep_path = tmp_path / "a.json", tmp_path / "r.json"
    code = main(
        ["solve", str(inst_path), "-o", str(alloc_path), "--report", str(rep_path)]
    )
    assert code == 0
    alloc = jsonio.load_allocation(str(alloc_path))
    assert alloc.owner[0] == 0 and alloc.owner[2] == 0
    report = json.loads(rep_path.read_text())
    assert report["nsw"] == pytest.approx(5.0)
    assert report["epsilon"] == 0.1
    assert report["runtime_ms"] == 0
    assert report["matchings"] >= 1
    assert report["lp_ratio"] >= 1.0 - 1e-9


def test_solve_timings_only_sets_runtime(tmp_path):
    inst_path = tmp_path / "i.json"
    assert main(["gen", "--agents", "3", "--items", "6", "--seed", "5", "-o", str(inst_path)]) == 0
    reports = []
    for flags in ([], ["--timings"]):
        rep = tmp_path / f"r{len(flags)}.json"
        args = ["solve", str(inst_path), "-o", str(tmp_path / "a.json"), "--report", str(rep)]
        assert main(args + flags) == 0
        reports.append(json.loads(rep.read_text()))
    plain, timed = reports
    assert plain["runtime_ms"] == 0
    assert type(timed["runtime_ms"]) is int and timed["runtime_ms"] >= 0
    assert {**timed, "runtime_ms": 0} == plain


def test_solve_deterministic_outputs(tmp_path):
    inst_path = tmp_path / "i.json"
    assert main(["gen", "--agents", "3", "--items", "6", "--seed", "5", "-o", str(inst_path)]) == 0
    files = []
    for tag in ("x", "y"):
        a, r = tmp_path / f"a{tag}.json", tmp_path / f"r{tag}.json"
        assert main(["solve", str(inst_path), "-o", str(a), "--report", str(r)]) == 0
        files.append((a.read_bytes(), r.read_bytes()))
    assert files[0] == files[1]


def test_solve_positivity_failure_exit_code(tmp_path):
    inst_path = tmp_path / "i.json"
    write_instance(inst_path, ["1/2", "1/2"], [[1], [1]])
    alloc_path, rep_path = tmp_path / "a.json", tmp_path / "r.json"
    code = main(
        ["solve", str(inst_path), "-o", str(alloc_path), "--report", str(rep_path)]
    )
    assert code == 3
    report = json.loads(rep_path.read_text())
    assert report["nsw"] == 0.0
    alloc = jsonio.load_allocation(str(alloc_path))
    assert all(o is None for o in alloc.owner)


NO_POSITIVE_REPORT = (
    '{\n  "nsw": 0.0,\n  "log_nsw": null,\n  "lp_value": null,\n'
    '  "epsilon": 0.1,\n  "matchings": 0,\n  "runtime_ms": 0\n}\n'
)


@pytest.mark.parametrize(
    "weights, values",
    [
        # three positive-weight agents, two items
        (["1/3", "1/3", "1/3"], [[1, 2], [3, 1], [2, 2]]),
        # a positive-weight agent values nothing
        (["1/2", "1/2"], [[1, 2, 3], [0, 0, 0]]),
    ],
    ids=["more-agents-than-items", "all-zero-row"],
)
def test_solve_no_positive_welfare_output(tmp_path, capsys, weights, values):
    inst_path = tmp_path / "i.json"
    write_instance(inst_path, weights, values)
    alloc_path, rep_path = tmp_path / "a.json", tmp_path / "r.json"
    code = main(
        ["solve", str(inst_path), "-o", str(alloc_path), "--report", str(rep_path)]
    )
    assert code == 3
    nulls = ",\n".join(["    null"] * len(values[0]))
    assert alloc_path.read_text() == '{\n  "owner": [\n' + nulls + "\n  ]\n}\n"
    assert rep_path.read_text() == NO_POSITIVE_REPORT
    assert capsys.readouterr().err == "no allocation with positive welfare exists\n"


def test_bench_no_positive_welfare_row(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    write_instance(d / "more.json", ["1/3", "1/3", "1/3"], [[1, 2], [3, 1], [2, 2]])
    write_instance(d / "zero.json", ["1/2", "1/2"], [[1, 2, 3], [0, 0, 0]])
    out = tmp_path / "bench.csv"
    assert main(["bench", str(d), "-o", str(out)]) == 0
    rows = [line.rsplit(",", 1)[0] for line in out.read_text().strip().splitlines()]
    assert rows[1:] == [f"{d / name},0.0,0.0,0.0,1.0" for name in ("more.json", "zero.json")]


def test_solve_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "-o", str(tmp_path / "a.json")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["solve", str(missing), "-o", str(tmp_path / "a.json")]) == 2
    invalid = tmp_path / "inv.json"
    invalid.write_text(json.dumps({"num_items": 1, "agents": [{"weight": "1/2", "values": ["1"]}]}))
    assert main(["solve", str(invalid), "-o", str(tmp_path / "a.json")]) == 2


@pytest.mark.parametrize("epsilon", ["5", "0", "nan"])
@pytest.mark.parametrize(
    "values",
    # the second instance has no allocation with positive welfare
    [[[4, 1, 2], [1, 3, 2]], [[1, 2, 3], [0, 0, 0]]],
    ids=["solvable", "no-positive"],
)
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_epsilon_out_of_range_exit_code(tmp_path, capsys, command, values, epsilon):
    d = tmp_path / "corpus"
    d.mkdir()
    write_instance(d / "i.json", ["1/2", "1/2"], values)
    out = tmp_path / "out"
    args = ["-o", str(out), "--epsilon", epsilon]
    if command == "solve":
        args = ["solve", str(d / "i.json"), "--report", str(tmp_path / "r"), *args]
    else:
        args = ["bench", str(d), *args]
    assert main(args) == 2
    shown = repr(float(epsilon))
    err = capsys.readouterr().err
    assert err == f"error: --epsilon must be in (0, 1], got {shown}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]


@pytest.mark.parametrize("epsilon", [3.0, 0.0, math.nan])
def test_solve_pipeline_rejects_epsilon_out_of_range(monkeypatch, epsilon):
    def no_solve(*args):
        raise AssertionError("the LP ran")

    monkeypatch.setattr(cli, "solve_configuration_lp", no_solve)
    inst = make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\]"):
        solve_pipeline(inst, epsilon)


@pytest.mark.parametrize(
    "command", ["verify", "gen", "gen-no-items", "gen-negative-items", "bench", "bench-jobs"]
)
def test_input_error_exit_code(tmp_path, capsys, command):
    d = tmp_path / "corpus"
    d.mkdir()
    out = tmp_path / "out"
    if command == "verify":
        write_instance(d / "i.json", ["1"], [[1, 2]])
        (tmp_path / "a.json").write_text(json.dumps({"owner": [0]}))
        args, shown = ["verify", str(d / "i.json"), str(tmp_path / "a.json")], "allocation length"
    elif command == "gen":
        args, shown = ["gen", "--agents", "2", "--items", "3", "--vmax", "-1"], ""
    elif command.startswith("gen-"):
        # An instance solve would reject is not written.
        items = "0" if command == "gen-no-items" else "-2"
        args, shown = ["gen", "--agents", "2", "--items", items], "instance has no items"
    elif command == "bench":
        args, shown = ["bench", str(d)], f"no instance files in {d}"
    else:
        # Rejected before the directory, which does not exist, is read.
        args = ["bench", str(tmp_path / "missing"), "--jobs", "0"]
        shown = "--jobs must be at least 1, got 0"
    assert main([*args, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {shown}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "agents, shown",
    [
        # No draw fits the lattice before the attempt cap.
        ("600", "no dirichlet weights for 600 agents on the 1/2520 lattice in 1000 draws"),
        ("3000", "positive weights on the 1/2520 lattice need 1 to 2520 agents, not 3000"),
        ("0", "positive weights on the 1/2520 lattice need 1 to 2520 agents, not 0"),
    ],
)
def test_gen_dirichlet_weights_off_the_lattice_exit_code(tmp_path, capsys, agents, shown):
    out = tmp_path / "out"
    args = ["gen", "--agents", agents, "--items", "3", "--weights", "dirichlet", "-o", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "agents, shown",
    [
        ([("1", ["1" + "0" * 400, "1"])], "values of agent 0 leave"),
        ([("1", ["1/1" + "0" * 400, "1"])], "values of agent 0 leave"),
        ([("1", ["1/1" + "0" * 200, "1" + "0" * 200])], "values of agent 0 leave"),
        # A positive weight that is 0.0 as a double.
        ([("1/1" + "0" * 400, ["1", "2"]), ("9" * 400 + "/1" + "0" * 400, ["2", "1"])],
         "weight of agent 0 leaves"),
    ],
    ids=["huge", "tiny", "wide", "tiny-weight"],
)
@pytest.mark.parametrize("command", ["solve", "exact", "bench"])
def test_values_outside_the_double_range_exit_code(tmp_path, capsys, command, agents, shown):
    d = tmp_path / "corpus"
    d.mkdir()
    inst = d / "i.json"
    inst.write_text(json.dumps(
        {"num_items": 2, "agents": [{"weight": w, "values": v} for w, v in agents]}
    ))
    out = tmp_path / "out"
    if command == "bench":
        args = ["bench", str(d), "-o", str(out)]
    else:
        args = [command, str(inst), "-o", str(out), "--report", str(tmp_path / "r")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {inst}: {shown} the double range")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]


HUGE_EXPONENT = "bad rational '1e100000000': decimal exponent 100000000 is beyond +-10,000"


@pytest.mark.parametrize(
    "text, shown",
    [
        ('{"num_items": true, "agents": [{"weight": "1", "values": ["1"]}]}',
         "num_items must be an integer"),
        # Read from its literal, as "1e-400" is, not as the double 0.0.
        ('{"num_items": 2, "agents": [{"weight": "1", "values": [1e-400, 1]}]}',
         "values of agent 0 leave the double range"),
        # Rejected before Fraction builds 10**(10**8), which takes minutes.
        ('{"num_items": 2, "agents": [{"weight": "1", "values": ["1e100000000", "1"]}]}',
         HUGE_EXPONENT),
        ('{"num_items": 2, "agents": [{"weight": "1", "values": [1e100000000, 1]}]}',
         HUGE_EXPONENT),
        # Past Python's 4,300-digit limit on int conversion.
        ('{"num_items": 2, "agents": [{"weight": "1", "values": [1%s, 1]}]}' % ("0" * 4400),
         "bare integer of 4401 digits exceeds the 4300-digit limit"),
    ],
    ids=["bool-items", "bare-tiny", "huge-exponent", "bare-huge-exponent", "bare-long-integer"],
)
def test_instance_spelling_errors_exit_code(tmp_path, capsys, text, shown):
    inst = tmp_path / "i.json"
    inst.write_text(text)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["solve", str(inst), "-o", str(out), "--report", str(tmp_path / "r")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {inst}: {shown}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["i.json"]


@pytest.mark.parametrize(
    "content, shown",
    [
        (None, "[Errno 2] No such file or directory"),
        ("{not json", "malformed JSON at line 1, column 2"),
        ('{"owner": 0}', "'owner' must be a list"),
        ('{"owner": [1%s]}' % ("0" * 4400),
         "bare integer of 4401 digits exceeds the 4300-digit limit"),
    ],
    ids=["missing", "malformed", "not-a-list", "long-integer"],
)
def test_verify_allocation_file_errors_name_the_file(tmp_path, capsys, content, shown):
    inst = tmp_path / "i.json"
    write_instance(inst, ["1"], [[1, 2]])
    alloc, out = tmp_path / "a.json", tmp_path / "out"
    if content is not None:
        alloc.write_text(content)
    assert main(["verify", str(inst), str(alloc), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {alloc}: {shown}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_solve_invalid_instance_names_the_file(tmp_path, capsys):
    invalid = tmp_path / "inv.json"
    invalid.write_text(json.dumps({"num_items": 1, "agents": [{"weight": "1/2", "values": ["1"]}]}))
    assert main(["solve", str(invalid), "-o", str(tmp_path / "a.json")]) == 2
    assert f"error: {invalid}: weights sum to 1/2" in capsys.readouterr().err
    # Per-agent value multipliers would be read in another value space.
    scaled = tmp_path / "scaled.json"
    scaled.write_text(
        json.dumps({"num_items": 1, "agents": [{"weight": "1", "values": ["1"]}], "scales": ["2"]})
    )
    assert main(["solve", str(scaled), "-o", str(tmp_path / "a.json")]) == 2
    assert f"error: {scaled}: unknown field 'scales'" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()


def test_solve_gift_leftovers(tmp_path):
    inst_path = tmp_path / "i.json"
    # second item is worthless to everyone; gifting still assigns it
    write_instance(inst_path, ["1"], [[2, 0]])
    alloc_path = tmp_path / "a.json"
    assert (
        main(
            [
                "solve", str(inst_path), "--gift-leftovers",
                "-o", str(alloc_path), "--report", str(tmp_path / "r.json"),
            ]
        )
        == 0
    )
    alloc = jsonio.load_allocation(str(alloc_path))
    assert alloc.owner == (0, 0)


def test_solve_sample_mode_seeded(tmp_path):
    inst_path = tmp_path / "i.json"
    write_instance(inst_path, ["1/2", "1/2"], [[1, 1, 1], [1, 1, 1]])
    outs = set()
    for seed in (0, 1, 2, 3):
        a = tmp_path / f"a{seed}.json"
        code = main(
            [
                "solve", str(inst_path), "--mode", "sample", "--seed", str(seed),
                "-o", str(a), "--report", str(tmp_path / f"r{seed}.json"),
            ]
        )
        assert code == 0
        outs.add(a.read_bytes())
        # same seed reproduces byte-identically
        b = tmp_path / f"b{seed}.json"
        main(
            [
                "solve", str(inst_path), "--mode", "sample", "--seed", str(seed),
                "-o", str(b), "--report", str(tmp_path / f"rb{seed}.json"),
            ]
        )
        assert a.read_bytes() == b.read_bytes()
    assert len(outs) >= 1


def test_solve_report_welfare_tracks_lp_value(tmp_path):
    # algorithm welfare stays within the rounding loss of the LP value
    inst_path = tmp_path / "i.json"
    assert main(["gen", "--agents", "3", "--items", "6", "--seed", "21", "-o", str(inst_path)]) == 0
    rep_path = tmp_path / "r.json"
    assert main(["solve", str(inst_path), "-o", str(tmp_path / "a.json"), "--report", str(rep_path)]) == 0
    report = json.loads(rep_path.read_text())
    eps = report["epsilon"]
    floor = math.exp(report["lp_value"] - math.log(1 + eps) - 1 / math.e)
    assert report["nsw"] >= floor - 1e-9


def test_exact_and_verify_roundtrip(tmp_path):
    inst_path = tmp_path / "i.json"
    inst = write_instance(inst_path, ["1/2", "1/2"], [[4, 1], [1, 4]])
    opt_path = tmp_path / "opt.json"
    assert main(["exact", str(inst_path), "-o", str(opt_path), "--report", str(tmp_path / "er.json")]) == 0
    out_path = tmp_path / "v.json"
    assert main(["verify", str(inst_path), str(opt_path), "-o", str(out_path)]) == 0
    verdict = json.loads(out_path.read_text())
    assert verdict["ratio"] == pytest.approx(1.0)
    assert verdict["nsw"] == pytest.approx(4.0)
    alloc = jsonio.load_allocation(str(opt_path))
    assert nsw(inst, alloc) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "m, guard, checked",
    [(3, 7, False), (3, 8, True), (3, 9, True), (24, 10**9, False)],
)
def test_verify_guard_only_lowers_the_brute_force_cap(tmp_path, m, guard, checked):
    # Brute force runs only when n^m (here 2^m) is within both --guard and
    # BRUTE_FORCE_GUARD (10^7, below 2^24).
    inst_path, alloc_path, out_path = (tmp_path / name for name in ("i.json", "a.json", "v.json"))
    write_instance(inst_path, ["1/2", "1/2"], [[1 + j % 3 for j in range(m)]] * 2)
    alloc_path.write_text(json.dumps({"owner": [j % 2 for j in range(m)]}))
    args = ["verify", str(inst_path), str(alloc_path), "-o", str(out_path), "--guard", str(guard)]
    assert main(args) == 0
    verdict = json.loads(out_path.read_text())
    assert verdict["nsw"] > 0
    assert ("opt_nsw" in verdict, "ratio" in verdict) == (checked, checked)


def test_exact_log_nsw_matches_verify(tmp_path):
    # Fractional values whose float sums differ from the exact bundle sums
    # in the last digit of log_nsw.
    inst_path = tmp_path / "i.json"
    inst_path.write_text(json.dumps({"num_items": 5, "agents": [
        {"weight": "4/5", "values": ["17/11", "12/7", "1", "16/11", "0"]},
        {"weight": "1/5", "values": ["5/3", "3", "8/11", "19/11", "13/11"]},
    ]}))
    opt_path, rep_path, out_path = (tmp_path / name for name in ("o.json", "r.json", "v.json"))
    assert main(["exact", str(inst_path), "-o", str(opt_path), "--report", str(rep_path)]) == 0
    assert main(["verify", str(inst_path), str(opt_path), "-o", str(out_path)]) == 0
    report, verdict = json.loads(rep_path.read_text()), json.loads(out_path.read_text())
    assert report == {"nsw": verdict["nsw"], "log_nsw": verdict["log_nsw"]}


def test_exact_guard(tmp_path):
    inst_path = tmp_path / "i.json"
    write_instance(
        inst_path,
        ["1/4"] * 4,
        [[1] * 13 for _ in range(4)],
    )
    assert main(["exact", str(inst_path), "-o", str(tmp_path / "o.json")]) == 2


def test_bench_csv(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for seed in range(3):
        main(["gen", "--agents", "2", "--items", "4", "--seed", str(seed), "-o", str(d / f"i{seed}.json")])
    out = tmp_path / "bench.csv"
    assert main(["bench", str(d), "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "instance,opt,lp,alg,ratio,runtime_ms"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        ratio = float(cells[4])
        assert ratio <= math.e ** (1 / math.e) + 0.1 + 1e-6
        assert float(cells[1]) > 0


def test_bench_parallel_matches_serial(tmp_path, monkeypatch):
    d = tmp_path / "corpus"
    d.mkdir()
    for seed in range(4):
        main(["gen", "--agents", "2", "--items", "4", "--seed", str(seed), "-o", str(d / f"i{seed}.json")])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", str(d), "-o", str(a)]) == 0
    # Two usable CPUs, so --jobs 2 starts a real two-process pool anywhere.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["bench", str(d), "--jobs", "2", "-o", str(b)]) == 0

    def strip_runtime(text):
        return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]

    assert strip_runtime(a.read_text()) == strip_runtime(b.read_text())


@pytest.mark.parametrize(
    "jobs, files, cpus, workers",
    [
        (8, 3, 4, 3),  # no more workers than files
        (8, 5, 4, 4),  # nor than usable CPUs
        (2, 3, 4, 2),
        (8, 1, 4, None),  # one file runs in this process
        (4, 3, 1, None),  # so does one CPU
        (1, 3, 4, None),
    ],
)
def test_bench_jobs_caps_the_pool(tmp_path, monkeypatch, jobs, files, cpus, workers):
    import concurrent.futures
    import os

    d = tmp_path / "corpus"
    d.mkdir()
    for seed in range(files):
        main(["gen", "--agents", "2", "--items", "4", "--seed", str(seed), "-o", str(d / f"i{seed}.json")])
    started: list[int] = []

    class InProcessPool:
        """Records ``max_workers`` and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    out = tmp_path / "b.csv"
    assert main(["bench", str(d), "--jobs", str(jobs), "-o", str(out)]) == 0
    assert started == ([] if workers is None else [workers])
    assert len(out.read_text().strip().splitlines()) == files + 1


def test_exact_optimum_verifies_at_ratio_one(tmp_path):
    # Float sums put this optimum's welfare one ulp below log_nsw's, so
    # verify and bench once reported ratios just under 1.
    d = tmp_path / "corpus"
    d.mkdir()
    inst = d / "i.json"
    write_instance(inst, ["1"], [["8/3", "2/7"]])
    opt, report = tmp_path / "opt.json", tmp_path / "v.json"
    assert main(["exact", str(inst), "-o", str(opt), "--report", str(tmp_path / "r.json")]) == 0
    assert main(["verify", str(inst), str(opt), "-o", str(report)]) == 0
    out = json.loads(report.read_text())
    assert out["opt_nsw"] == out["nsw"]
    assert out["ratio"] == 1.0
    csv_path = tmp_path / "b.csv"
    assert main(["bench", str(d), "-o", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[1].split(",")[4] == "1.0"


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} in the output")

    return json.loads(text, parse_constant=reject)


# Each agent values one distinct item at the largest double's integer part,
# so the weighted log sum rounds to 709.7827128933841, one ulp above
# ln(DBL_MAX), where exp overflows; the welfare is clamped to
# exp(ln(DBL_MAX)), a little below DBL_MAX.
DBL_MAX_DIAGONAL = {"num_items": 3, "agents": [
    {"weight": w, "values": [str(int(sys.float_info.max)) if j == i else "0" for j in range(3)]}
    for i, w in enumerate(["61/72", "7/180", "41/360"])]}


def test_dbl_max_diagonal_writes_strict_json_in_every_command(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    inst = d / "i.json"
    inst.write_text(json.dumps(DBL_MAX_DIAGONAL))
    big = math.exp(math.log(sys.float_info.max))
    alloc, report = tmp_path / "a.json", tmp_path / "r.json"
    assert main(["solve", str(inst), "-o", str(alloc), "--report", str(report)]) == 0
    assert _strict_json(alloc.read_text()) == {"owner": [0, 1, 2]}
    out = _strict_json(report.read_text())
    assert out["log_nsw"] > math.log(sys.float_info.max)
    assert (out["nsw"], out["lp_ratio"]) == (big, 1.0)
    opt, opt_report = tmp_path / "o.json", tmp_path / "or.json"
    assert main(["exact", str(inst), "-o", str(opt), "--report", str(opt_report)]) == 0
    assert _strict_json(opt_report.read_text())["nsw"] == big
    verdict = tmp_path / "v.json"
    assert main(["verify", str(inst), str(opt), "-o", str(verdict)]) == 0
    out = _strict_json(verdict.read_text())
    assert (out["nsw"], out["opt_nsw"], out["ratio"]) == (big, big, 1.0)
    csv_path = tmp_path / "b.csv"
    assert main(["bench", str(d), "-o", str(csv_path)]) == 0
    row = csv_path.read_text().splitlines()[1].split(",")
    assert row[1:5] == [repr(big)] * 3 + ["1.0"]


def test_verify_zero_welfare_ratio_is_null(tmp_path):
    inst, alloc, verdict = (tmp_path / name for name in ("i.json", "a.json", "v.json"))
    write_instance(inst, ["1/2", "1/2"], [[1, 1], [1, 1]])
    alloc.write_text(json.dumps({"owner": [0, 0]}))
    assert main(["verify", str(inst), str(alloc), "-o", str(verdict)]) == 0
    out = _strict_json(verdict.read_text())
    assert out == {"nsw": 0.0, "log_nsw": None, "opt_nsw": 1.0, "ratio": None}


def test_verify_ratio_stays_finite_at_the_top_of_the_double_range(tmp_path):
    # total / smallest value is M + 1, which rounds to the largest double
    # M, so the instance is valid; the optimum's welfare over 1/2 rounds
    # past M.
    big = int(sys.float_info.max)
    inst, alloc, verdict = (tmp_path / name for name in ("i.json", "a.json", "v.json"))
    inst.write_text(json.dumps({"num_items": 2, "agents": [
        {"weight": "1", "values": ["1/2", str(big // 2)]}]}))
    alloc.write_text(json.dumps({"owner": [0, None]}))
    assert main(["verify", str(inst), str(alloc), "-o", str(verdict)]) == 0
    out = _strict_json(verdict.read_text())
    assert out["opt_nsw"] / out["nsw"] == math.inf
    assert out["ratio"] == sys.float_info.max


def test_dumps_rejects_non_finite_floats():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            jsonio.dumps({"x": x})


# The last line holds characters that take more than one UTF-8 byte, so
# the text's length in bytes is not its length in characters.
TEXT = '{\n  "owner": [0, null, 1]\n}\n\u00e9\u2205\n'


@pytest.mark.parametrize("old", [
    pytest.param(None, id="absent"),
    pytest.param("x" * 200, id="longer"),
    pytest.param("x", id="shorter"),
    pytest.param("x" * len(TEXT), id="as-many-characters"),
    pytest.param("x" * (len(TEXT) + 1), id="more-characters-fewer-bytes"),
    pytest.param("x" * len(TEXT.encode()), id="as-many-bytes"),
])
def test_write_text_leaves_a_fresh_files_bytes(tmp_path, old):
    fresh, path = tmp_path / "fresh.json", tmp_path / "out.json"
    with open(fresh, "w", encoding="utf-8") as fh:
        fh.write(TEXT)
    if old is not None:
        path.write_text(old)
        inode = path.stat().st_ino
    jsonio.write_text(str(path), TEXT)
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_mode == fresh.stat().st_mode
    if old is not None:
        assert path.stat().st_ino == inode  # written in place


def test_write_text_does_not_truncate_on_open(tmp_path, monkeypatch):
    # Truncating on open frees the file's blocks for the write to allocate
    # new ones; the file is cut after the write instead.
    flags, real_open = [], os.open

    def spy(path, f, *args):
        flags.append(f)
        return real_open(path, f, *args)

    monkeypatch.setattr(os, "open", spy)
    path = tmp_path / "out.json"
    path.write_text("x" * 200)
    jsonio.write_text(str(path), TEXT)
    assert len(flags) == 1 and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC
    assert path.read_text(encoding="utf-8") == TEXT


def test_write_text_to_a_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    jsonio.write_text(str(fifo), TEXT)
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [TEXT.encode()]


def test_write_text_to_dev_null():
    # A device is never cut: truncate() on /dev/null raises EINVAL.
    jsonio.write_text(os.devnull, TEXT)


def test_write_dash_or_no_path_goes_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cli._write(None, TEXT)
    cli._write("-", TEXT)
    assert capsys.readouterr().out == TEXT * 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["dir", "missing/out.json"])
def test_write_text_fails_as_open_does(tmp_path, name):
    (tmp_path / "dir").mkdir()
    path = tmp_path / name
    with pytest.raises(OSError) as want:
        open(path, "w", encoding="utf-8")
    with pytest.raises(OSError) as got:
        jsonio.write_text(str(path), TEXT)
    assert type(got.value) is type(want.value) and got.value.errno == want.value.errno
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_stdout_matches_output_files(tmp_path, capsys, command):
    d = tmp_path / "corpus"
    d.mkdir()
    for seed in range(2):
        main(["gen", "--agents", "2", "--items", "4", "--seed", str(seed), "-o", str(d / f"i{seed}.json")])
    capsys.readouterr()
    a, r = tmp_path / "a", tmp_path / "r"
    if command == "solve":
        args, files = ["solve", str(d / "i0.json")], ["-o", str(a), "--report", str(r)]
    else:
        args, files = ["bench", str(d)], ["-o", str(a)]
    assert main(args) == 0
    shown = capsys.readouterr().out
    assert main(args + files) == 0
    written = "".join(p.read_bytes().decode() for p in (a, r) if p.exists())
    if command == "bench":
        # runtime_ms, the last column, is measured on every run
        shown, written = (
            [line.rsplit(",", 1)[0] for line in text.split("\r\n")] for text in (shown, written)
        )
    assert shown == written


def test_bench_directory_named_like_an_instance(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    write_instance(d / "a.json", ["1"], [[1, 2]])
    (d / "x.json").mkdir()
    assert main(["bench", str(d), "-o", str(tmp_path / "b.csv")]) == 2
    assert f"error: {d / 'x.json'}: " in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_bench_malformed_json_names_the_file(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "bad.json").write_text("{not json")
    assert main(["bench", str(d), "-o", str(tmp_path / "b.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {d / 'bad.json'}: malformed JSON at line 1" in err
    assert not (tmp_path / "b.csv").exists()


def test_bench_invalid_instance_names_the_file(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    write_instance(d / "a.json", ["1"], [[1, 2]])
    (d / "inv.json").write_text(
        json.dumps({"num_items": 1, "agents": [{"weight": "1/2", "values": ["1"]}]})
    )
    assert main(["bench", str(d), "-o", str(tmp_path / "b.csv")]) == 2
    assert f"error: {d / 'inv.json'}: weights sum to 1/2" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_solve_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    inst_path = tmp_path / "i.json"
    write_instance(inst_path, ["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    monkeypatch.setattr(configlp, "_best_bundle", lambda *args: ((0,), 1e9, 1e9))
    code = main(["solve", str(inst_path), "-o", str(tmp_path / "a.json")])
    assert code == 4
    assert "pooled column re-priced" in capsys.readouterr().err


def test_bench_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    write_instance(d / "i.json", ["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    monkeypatch.setattr(configlp, "_best_bundle", lambda *args: ((0,), 1e9, 1e9))
    code = main(["bench", str(d), "-o", str(tmp_path / "b.csv")])
    assert code == 4
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


# `gen --agents 10 --items 30 --dist zipf --seed 1`: its LP is fractional, so
# the combination has 3 matchings, and the five draws give 2 different
# allocations.
SAMPLE_DIR = Path(__file__).parent / "data" / "sample_zipf_10x30"


def test_sample_instance_is_gen_output(tmp_path):
    out = tmp_path / "i.json"
    args = ["gen", "--agents", "10", "--items", "30", "--dist", "zipf", "--seed", "1"]
    assert main([*args, "-o", str(out)]) == 0
    assert out.read_bytes() == (SAMPLE_DIR / "instance.json").read_bytes()


@pytest.mark.parametrize("seed", [pytest.param(None, id="deterministic"), *range(5)])
def test_solve_sample_mode_output_pinned(tmp_path, seed):
    # Default mode pins the argmax over the matchings, sample mode the draws.
    alloc, report = tmp_path / "a.json", tmp_path / "r.json"
    args = ["solve", str(SAMPLE_DIR / "instance.json")]
    if seed is not None:
        args += ["--mode", "sample", "--seed", str(seed)]
    assert main([*args, "-o", str(alloc), "--report", str(report)]) == 0
    name = "deterministic" if seed is None else f"seed{seed}"
    assert alloc.read_bytes() == (SAMPLE_DIR / f"alloc_{name}.json").read_bytes()
    assert report.read_bytes() == (SAMPLE_DIR / f"report_{name}.json").read_bytes()


def test_golden_cli_corpus_replays_byte_for_byte(tmp_path):
    # tests/golden_cli.py documents the corpus and regenerates it.
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) >= 40
    for case in cases:
        for key, flags in RUNS.items():
            assert run_solve(tmp_path, case["instance"], flags) == case["runs"][key], (case["name"], key)


def golden_runs() -> list[tuple[tuple[str, str], dict, list[str], dict]]:
    """Every run of the golden corpus: (name, mode), the instance, the
    flags and the stored output."""
    return [
        ((case["name"], key), case["instance"], flags, case["runs"][key])
        for case in json.loads(GOLDEN.read_text()) for key, flags in RUNS.items()
    ]


def test_golden_cli_corpus_replays_twice_in_one_process(tmp_path):
    # Every solve of a thread borrows the same HiGHS object, cleared; a
    # second pass in reverse order, where each solve follows another
    # instance's, writes the same bytes as the first.
    runs = golden_runs()
    for order in (runs, runs[::-1]):
        for which, instance, flags, stored in order:
            assert run_solve(tmp_path, instance, flags) == stored, which


def test_golden_cli_corpus_replays_over_existing_files(tmp_path):
    # Each solve writes over the two files the solve before it left, forward
    # and then in reverse, so some land on a longer old file, which must be
    # cut to the new length.
    runs = golden_runs()
    alloc, report = tmp_path / "alloc.json", tmp_path / "report.json"
    longer = 0
    for which, instance, flags, stored in runs + runs[::-1]:
        old = [p.stat().st_size if p.exists() else 0 for p in (alloc, report)]
        assert run_solve(tmp_path, instance, flags, fresh=False) == stored, which
        longer += old[0] > len(stored["allocation"].encode())
        longer += old[1] > len(stored["report"].encode())
    assert longer > 0


def test_solve_after_full_enumeration_or_a_collapse_writes_a_fresh_threads_bytes(
    tmp_path, monkeypatch
):
    # full_enumeration_lp hands back its HiGHS object with 1e-10
    # tolerances and a full model, a driver solve that raised hands back
    # one mid-solve; the next solve borrows it and writes the bytes a solve
    # in a new thread, on a new object, writes.
    runs = [run for run in golden_runs() if run[0][0].startswith("fractional")]
    fresh = []
    thread = threading.Thread(
        target=lambda: fresh.extend(run_solve(tmp_path, inst, flags) for _, inst, flags, _ in runs),
        daemon=True,
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(fresh) == len(runs) == 15

    def full_enumeration():
        values = [[3, 1, 2, 5, 1], [2, 2, 1, 4, 4], [1, 5, 2, 3, 1]]
        full_enumeration_lp(make_instance(["1/3"] * 3, values))

    def collapse():
        with monkeypatch.context() as patch:
            patch.setattr(configlp, "_best_bundle", lambda *args: ((0,), 1e9, 1e9))
            with pytest.raises(NumericalCollapse, match="pooled column re-priced"):
                solve_configuration_lp(make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]]), 0.1)

    for before in (full_enumeration, collapse):
        for (which, instance, flags, _), want in zip(runs, fresh):
            before()
            idle = configlp._idle.highs
            assert run_solve(tmp_path, instance, flags) == want, (before.__name__, which)
            assert configlp._idle.highs is idle  # the solve borrowed it and handed it back


class _StderrByThread:
    """A stand-in for ``sys.stderr`` that writes to a buffer of the calling
    thread's own, so solves in several threads each capture their lines."""

    def __init__(self):
        self._local = threading.local()

    def write(self, text: str) -> int:
        return self._local.buffer.write(text)

    def flush(self) -> None:
        pass

    @contextlib.contextmanager
    def to(self, buffer):
        self._local.buffer = buffer
        try:
            yield
        finally:
            del self._local.buffer


def test_golden_cli_corpus_in_threads_at_once(tmp_path, monkeypatch):
    # Each thread borrows its own HiGHS object, so three threads solving the
    # corpus at once, in three orders, write what the sequential run wrote.
    # A short switch interval interleaves their Python steps finely.
    runs = golden_runs()
    half = len(runs) // 2
    orders = [runs, runs[::-1], runs[half:] + runs[:half]]
    stderr = _StderrByThread()
    monkeypatch.setattr(sys, "stderr", stderr)
    results = [[] for _ in orders]

    def replay(k: int) -> None:
        tmp = tmp_path / str(k)
        tmp.mkdir()
        for which, instance, flags, stored in orders[k]:
            results[k].append((which, run_solve(tmp, instance, flags, stderr.to), stored))

    threads = [threading.Thread(target=replay, args=(k,), daemon=True) for k in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == len(runs)
        for which, run, stored in got:
            assert run == stored, which

import json
import math
from pathlib import Path

import pytest

from nswlp import cli, configlp, jsonio, make_instance, nsw
from nswlp.cli import main, solve_pipeline


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


@pytest.mark.parametrize("command", ["verify", "gen", "bench"])
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
    else:
        args, shown = ["bench", str(d)], f"no instance files in {d}"
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
    "values",
    [["1" + "0" * 400, "1"], ["1/1" + "0" * 400, "1"], ["1/1" + "0" * 200, "1" + "0" * 200]],
    ids=["huge", "tiny", "wide"],
)
@pytest.mark.parametrize("command", ["solve", "exact", "bench"])
def test_values_outside_the_double_range_exit_code(tmp_path, capsys, command, values):
    d = tmp_path / "corpus"
    d.mkdir()
    inst = d / "i.json"
    inst.write_text(json.dumps({"num_items": 2, "agents": [{"weight": "1", "values": values}]}))
    out = tmp_path / "out"
    if command == "bench":
        args = ["bench", str(d), "-o", str(out)]
    else:
        args = [command, str(inst), "-o", str(out), "--report", str(tmp_path / "r")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {inst}: values of agent 0 leave the double range")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]


@pytest.mark.parametrize(
    "content, shown",
    [
        (None, "[Errno 2] No such file or directory"),
        ("{not json", "malformed JSON at line 1, column 2"),
        ('{"owner": 0}', "'owner' must be a list"),
    ],
    ids=["missing", "malformed", "not-a-list"],
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


def test_bench_parallel_matches_serial(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for seed in range(4):
        main(["gen", "--agents", "2", "--items", "4", "--seed", str(seed), "-o", str(d / f"i{seed}.json")])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", str(d), "-o", str(a)]) == 0
    assert main(["bench", str(d), "--jobs", "2", "-o", str(b)]) == 0

    def strip_runtime(text):
        return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]

    assert strip_runtime(a.read_text()) == strip_runtime(b.read_text())


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
    monkeypatch.setattr(configlp, "_oracle_query", lambda *args: (0, (0,)))
    code = main(["solve", str(inst_path), "-o", str(tmp_path / "a.json")])
    assert code == 4
    assert "pooled column re-priced" in capsys.readouterr().err


def test_bench_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    write_instance(d / "i.json", ["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]])
    monkeypatch.setattr(configlp, "_oracle_query", lambda *args: (0, (0,)))
    code = main(["bench", str(d), "-o", str(tmp_path / "b.csv")])
    assert code == 4
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


# `gen --agents 10 --items 30 --dist zipf --seed 1`: its LP is fractional, so
# the combination has 25 matchings and the draws pick different ones.
SAMPLE_DIR = Path(__file__).parent / "data" / "sample_zipf_10x30"


def test_sample_instance_is_gen_output(tmp_path):
    out = tmp_path / "i.json"
    args = ["gen", "--agents", "10", "--items", "30", "--dist", "zipf", "--seed", "1"]
    assert main([*args, "-o", str(out)]) == 0
    assert out.read_bytes() == (SAMPLE_DIR / "instance.json").read_bytes()


@pytest.mark.parametrize("seed", range(5))
def test_solve_sample_mode_output_pinned(tmp_path, seed):
    alloc, report = tmp_path / "a.json", tmp_path / "r.json"
    args = ["solve", str(SAMPLE_DIR / "instance.json"), "--mode", "sample", "--seed", str(seed)]
    assert main([*args, "-o", str(alloc), "--report", str(report)]) == 0
    assert alloc.read_bytes() == (SAMPLE_DIR / f"alloc_seed{seed}.json").read_bytes()
    assert report.read_bytes() == (SAMPLE_DIR / f"report_seed{seed}.json").read_bytes()

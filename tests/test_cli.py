"""Command-line front end: commands, exit codes, machine-parsable output."""

import json
import re

import numpy as np
import pytest

from srsub.cli import main


def _write_csv(path, f_text, n=200, seed=0, low=0.5, high=2.0):
    from srsub import evaluate, parse

    rng = np.random.default_rng(seed)
    f = parse(f_text)
    X = rng.uniform(low, high, size=(n, f.arity))
    y = evaluate(f, X)
    header = ",".join([f"x{i + 1}" for i in range(f.arity)] + ["y"])
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", header=header, comments="")
    return path


def _last_record(capsys):
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l.strip()]
    return json.loads(lines[-1])


def test_reduce_writes_nodes_and_trace(tmp_path, capsys):
    csv = _write_csv(tmp_path / "sum.csv", "x1+x2")
    out = tmp_path / "red"
    code = main(["reduce", str(csv), "--out", str(out), "--seed", "1"])
    assert code == 0
    rec = _last_record(capsys)
    assert rec["final_vars"] == 1
    assert (out / "trace.jsonl").exists()
    assert (out / "node_0.csv").exists()
    assert (out / "node_1.csv").exists()
    maps = (out / "node_1.maps.txt").read_text()
    assert "x1 =" in maps
    # the output map's last slot, the original output, is printed as y
    (y_new,) = [line for line in maps.splitlines() if line.startswith("y_new = ")]
    assert re.search(r"\by\b", y_new.removeprefix("y_new = "))


def test_reduce_maps_reproduce_each_node_from_the_sample(tmp_path, capsys):
    from srsub import evaluate, parse

    csv = tmp_path / "s.csv"
    assert main(["sample", "x1*x2+x3", "--n", "200", "--seed", "1", "--out", str(csv)]) == 0
    out = tmp_path / "red"
    assert main(["reduce", str(csv), "--out", str(out)]) == 0
    nodes = _last_record(capsys)["nodes"]
    assert nodes >= 2
    sample = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    X, d = sample[:, :-1], sample.shape[1] - 1
    for i in range(nodes):
        node = np.loadtxt(out / f"node_{i}.csv", delimiter=",", skiprows=1, ndmin=2)
        assert len(node) == len(sample)  # no rows dropped on this path
        maps = dict(line.split(" = ", 1) for line in
                    (out / f"node_{i}.maps.txt").read_text().splitlines()
                    if not line.startswith("edge: "))
        assert list(maps) == [f"x{j + 1}" for j in range(node.shape[1] - 1)] + ["y_new"]
        for j in range(node.shape[1] - 1):
            got = evaluate(parse(maps[f"x{j + 1}"], arity=d), X)
            assert np.allclose(got, node[:, j], rtol=1e-12, atol=1e-12)
        got = evaluate(parse(maps["y_new"], arity=d + 1, var_names={"y": d}), sample)
        assert np.allclose(got, node[:, -1], rtol=1e-12, atol=1e-12)


def test_reduce_single_variable_root_only(tmp_path, capsys):
    csv = _write_csv(tmp_path / "one.csv", "exp(x1)")
    out = tmp_path / "red1"
    code = main(["reduce", str(csv), "--out", str(out)])
    assert code == 0
    rec = _last_record(capsys)
    assert rec["nodes"] == 1 and rec["final_vars"] == 1


def test_reduce_malformed_csv_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["reduce", str(bad)]) == 2


def test_solve_identity_with_poly(tmp_path, capsys):
    from srsub import equivalent, parse

    csv = _write_csv(tmp_path / "id.csv", "x1", n=120)
    code = main(["solve", str(csv), "--regressor", "poly", "--seed", "3"])
    assert code == 0
    rec = _last_record(capsys)
    assert equivalent(parse(rec["expression"]), parse("x1"))
    assert rec["nrmse_test"] < 1e-8


def test_solve_external_stub(tmp_path, capsys):
    csv = _write_csv(tmp_path / "prod.csv", "x1*x2")
    stub = tmp_path / "stub.py"
    stub.write_text("print('x1*x2')\n")
    import sys

    code = main(["solve", str(csv), "--regressor", f"external:{sys.executable} {stub} {{csv}}"])
    assert code == 0
    rec = _last_record(capsys)
    assert rec["expression"].replace(" ", "") == "x1*x2"
    assert rec["nrmse_test"] < 1e-9


def test_solve_external_awk_template(tmp_path, capsys):
    from srsub import equivalent, parse

    csv = _write_csv(tmp_path / "s.csv", "x1*x2+x3")
    code = main(["solve", str(csv), "--regressor",
                 "external:awk 'BEGIN{print \"x1*x2+x3\"}' {csv}"])
    assert code == 0
    rec = _last_record(capsys)
    assert equivalent(parse(rec["expression"]), parse("x1*x2+x3"))


def test_solve_external_without_csv_is_data_error(tmp_path):
    csv = _write_csv(tmp_path / "prod.csv", "x1*x2")
    stub = tmp_path / "stub.py"
    stub.write_text("print('x1*x2')\n")
    import sys

    assert main(["solve", str(csv), "--regressor", f"external:{sys.executable} {stub}"]) == 2


def test_bench_smoke_corpus(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\t2\tx1*x2\nb\t2\tx1+x2\n")
    out = tmp_path / "rep.csv"
    code = main(["bench", str(corpus), "--n", "200", "--out", str(out),
                 "--seed", "5", "--threads", "1"])
    assert code == 0
    rec = _last_record(capsys)
    assert rec["n_problems"] == 2
    assert out.exists()
    assert out.with_suffix(".trace.jsonl").exists()


def test_reduce_aifeynman_without_input_subs_is_data_error(tmp_path, capsys):
    csv = _write_csv(tmp_path / "s.csv", "x1*x2+x3")
    args = ["reduce", str(csv), "--grammar", "aifeynman", "--sub-types", "outinput",
            "--out", str(tmp_path / "red")]
    assert main(args) == 2
    assert "the aifeynman grammar has input substitutions only" in capsys.readouterr().err
    assert not (tmp_path / "red").exists()


@pytest.mark.parametrize("flag", [["--holdout", "1.5"], ["--n", "0"]])
def test_bench_invalid_setting_is_data_error(tmp_path, flag):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\t2\tx1*x2\n")
    args = ["bench", str(corpus), "--rates-only", "--n", "200", "--threads", "1"]
    assert main(args + flag + ["--out", str(tmp_path / "rep.csv")]) == 2


def test_bench_plot_data_flag(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\t2\tx1*x2\n")
    out = tmp_path / "rep.csv"
    code = main(["bench", str(corpus), "--n", "150", "--out", str(out),
                 "--rates-only", "--plot-data", "--noise", "0.01", "--threads", "1"])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    plot = [l for l in lines if "mean_reduction_rate" in l and "noise_level" in l]
    assert plot and plot[0]["noise_level"] == 0.01
    assert plot[0]["measure"] == "codec"


def test_verify_command_input_valid(capsys):
    code = main(["verify", "x1*x2+x3", "--sub", "x1*x2", "--indices", "1,2",
                 "--type", "input"])
    assert code == 0
    assert _last_record(capsys)["valid"] is True


def test_verify_command_input_invalid(capsys):
    code = main(["verify", "x1*x2+x3", "--sub", "x1+x2", "--indices", "1,2",
                 "--type", "input"])
    assert code == 0
    assert _last_record(capsys)["valid"] is False


def test_verify_command_outinput(capsys):
    code = main(["verify", "x1*x2+x3", "--sub", "y-x1", "--indices", "3",
                 "--type", "outinput"])
    assert code == 0
    assert _last_record(capsys)["valid"] is True


@pytest.mark.parametrize("args", [
    ["--sub", "x1*x2", "--indices", "1,5"],
    ["--sub", "y-x1", "--indices", "4", "--type", "outinput"],
    ["--sub", "x1*x2", "--indices", "1,1"],
])
def test_verify_bad_indices_is_data_error(args):
    assert main(["verify", "x1*x2+x3", *args]) == 2


def test_sample_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["sample", "x1+x2", "--n", "50", "--seed", "7", "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (50, 3)


def test_unknown_regressor_is_usage_error(tmp_path):
    csv = _write_csv(tmp_path / "u.csv", "x1+x2")
    assert main(["solve", str(csv), "--regressor", "wizard"]) == 1


@pytest.mark.parametrize("args", [
    ["reduce", "--regressor", "poly"],
    ["reduce", "--holdout", "0.3"],
    ["reduce", "--threads", "2"],
    ["solve", "--threads", "2"],
    ["solve", "--out", "x.csv"],
])
def test_flag_the_subcommand_does_not_read_is_usage_error(tmp_path, args):
    csv = _write_csv(tmp_path / "f.csv", "x1+x2")
    assert main([args[0], str(csv), *args[1:]]) == 1


def test_seed_determinism_of_solve(tmp_path, capsys):
    csv = _write_csv(tmp_path / "det.csv", "x1*x2+x3", n=250)
    main(["solve", str(csv), "--seed", "9"])
    first = _last_record(capsys)
    main(["solve", str(csv), "--seed", "9"])
    second = _last_record(capsys)
    assert first == second

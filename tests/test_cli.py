import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from weibsup.cli import main
from weibsup.core import RandomStream
from weibsup.harness import moment_check, write_reports_csv


def test_simulate_family_json(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = main([
        "simulate", "--family", "gaussian_cloud(6,12,1.0)", "--driver", "weibull",
        "--r", "1.0", "--samples", "2000", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["driver"] == "weibull(r=1)"
    assert doc["samples"] == 2000 and doc["mean"] > 0.0


def test_simulate_weibull_requires_r(capsys):
    assert main(["simulate", "--family", "gaussian_cloud(4,4,1.0)", "--driver", "weibull"]) == 2


@pytest.mark.parametrize("driver", ["gaussian", "rademacher"])
def test_simulate_rejects_r_for_a_driver_without_one(capsys, driver):
    argv = ["simulate", "--family", "gaussian_cloud(4,4,1.0)", "--driver", driver, "--r", "0.5"]
    assert main([*argv, "--samples", "200"]) == 2
    assert capsys.readouterr().err == f"error: {driver} driver takes no r parameter\n"


def test_simulate_from_csv(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("1,0\n-1,0\n")
    out = tmp_path / "sim.json"
    code = main([
        "simulate", "--set", str(src), "--driver", "gaussian",
        "--samples", "4000", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["mean"] == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.05)


def test_gamma_subcommand(tmp_path):
    out = tmp_path / "g.json"
    code = main([
        "gamma", "--family", "gaussian_cloud(5,7,1.0)", "--samples", "2000",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    g = doc["gamma"]
    assert set(g) == {"greedy_upper", "dudley", "sudakov_lower", "gaussian_proxy", "exact_small"}
    assert g["greedy_upper"] >= g["exact_small"] > 0.0


def test_gamma_csv_format(tmp_path):
    import csv

    out = tmp_path / "g.csv"
    code = main([
        "gamma", "--family", "gaussian_cloud(4,6,1.0)", "--metric", "linf",
        "--samples", "1000", "--seed", "2", "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="") as fh:
        header, row = list(csv.reader(fh))
    assert "gamma.greedy_upper" in header
    assert len(header) == len(row)


def test_transform_identity_values(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("1,1\n")
    out = tmp_path / "ts.csv"
    assert main(["transform", "--set", str(src), "--s", "2.0", "--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    vals = [float(x) for x in rows[0].split(",")]
    assert vals == pytest.approx([math.sqrt(math.log(2.0)), 0.0])


def test_transform_random_permutation(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("1,2,3\n4,5,6\n")
    out = tmp_path / "tp.csv"
    code = main([
        "transform", "--set", str(src), "--r", "0.5", "--perm", "random",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 2 and all(len(r.split(",")) == 3 for r in rows)


def test_counterexample_csv(tmp_path):
    out = tmp_path / "ce.csv"
    code = main([
        "counterexample", "--r", "0.5", "--n", "256,1024", "--format", "csv",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_counterexample_bad_n():
    assert main(["counterexample", "--r", "0.5", "--n", "100"]) == 2


def test_counterexample_json_out(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["counterexample", "--r", "0.5", "--n", "16,64", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    doc = json.loads(out.read_text())
    assert doc["config"] == {"r": 0.5, "n_list": [16, 64]}
    assert len(doc["reports"]) == 2


def test_moments_csv_without_out_writes_moments_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["moments", "--t", "1,0,0", "--r", "1", "--p", "2", "--samples", "200"]
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "wrote moments.csv\n"
    reports = moment_check([1.0, 0.0, 0.0], 1.0, [2.0], 200, RandomStream(0))
    write_reports_csv(reports, "expected.csv")
    written = (tmp_path / "moments.csv").read_text()
    assert written == (tmp_path / "expected.csv").read_text()
    assert written.startswith("instance,r,")


@pytest.mark.parametrize("command, target, argv", [
    ("simulate", "esup_mc", ["--family", "gaussian_cloud(4,4,1.0)"]),
    ("gamma", "build_greedy_tree", ["--family", "gaussian_cloud(4,4,1.0)"]),
    ("transform", "ts_transform", ["--family", "gaussian_cloud(4,4,1.0)", "--r", "1"]),
    ("counterexample", "counterexample_run", ["--r", "1", "--n", "16"]),
    ("moments", "moment_check", ["--t", "1,0", "--r", "1", "--p", "2"]),
])
def test_interrupted_subcommand_exits_130_and_keeps_its_output(
    tmp_path, monkeypatch, capsys, command, target, argv
):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(f"weibsup.cli.{target}", interrupted)
    out = tmp_path / "out"
    out.write_text("previous")
    assert main([command, *argv, "--out", str(out)]) == 130
    captured = capsys.readouterr()
    assert captured.err == f"error: {command}: interrupted\n" and captured.out == ""
    assert out.read_text() == "previous"


_SOURCE_DEFAULTS = {"set": None, "family": "scaled_basis(3)", "seed": 0}
_OUTPUT_DEFAULTS = {"format": "json", "out": None}


@pytest.mark.parametrize("argv, options", [
    (["simulate", "--family", "scaled_basis(3)"],
     _SOURCE_DEFAULTS | _OUTPUT_DEFAULTS
     | {"driver": "gaussian", "r": None, "samples": 20000, "workers": 1}),
    (["gamma", "--family", "scaled_basis(3)"],
     _SOURCE_DEFAULTS | _OUTPUT_DEFAULTS
     | {"alpha": 2.0, "metric": "l2", "samples": 20000, "workers": 1}),
    (["transform", "--family", "scaled_basis(3)", "--r", "1", "--out", "t.csv"],
     _SOURCE_DEFAULTS | {"r": 1.0, "s": None, "perm": "identity", "out": "t.csv"}),
    (["verify", "--config", "c.json"],
     {"config": "c.json", "workers": 1, "samples": None, "perms": None, "seed": None,
      "out": None}),
    (["counterexample", "--r", "0.5", "--n", "16"],
     _OUTPUT_DEFAULTS | {"r": 0.5, "n": "16"}),
    (["moments", "--t", "1", "--r", "1", "--p", "2"],
     _OUTPUT_DEFAULTS | {"t": "1", "r": 1.0, "p": "2", "samples": 20000, "seed": 0}),
], ids=["simulate", "gamma", "transform", "verify", "counterexample", "moments"])
def test_each_subcommand_takes_its_options_with_their_defaults(monkeypatch, argv, options):
    parsed = {}
    monkeypatch.setattr(f"weibsup.cli._cmd_{argv[0]}", lambda args: parsed.update(vars(args)))
    main(argv)
    del parsed["fn"]
    assert parsed == {"command": argv[0], **options}


def test_moments_json(tmp_path):
    out = tmp_path / "m.json"
    code = main([
        "moments", "--t", "1,0,0", "--r", "1.0", "--p", "2,4",
        "--samples", "2000", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 2
    assert doc[0]["quantities"]["sup_norm_bound"] == pytest.approx(2.0 + math.sqrt(2.0))


def test_verify_roundtrip(tmp_path):
    out = tmp_path / "rep.json"
    cfg = {
        "name": "main_bound",
        "families": [{"kind": "gaussian_cloud", "n": 5, "m": 6, "seed": 4}],
        "r_values": [1.0],
        "samples": 1500,
        "num_perms": 3,
        "seed": 9,
        "out": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["flags"]["window"] == "ok"


def test_verify_overrides(tmp_path):
    cfg = {
        "name": "main_bound",
        "families": [{"kind": "gaussian_cloud", "n": 4, "m": 5, "seed": 1}],
        "r_values": [0.5],
        "samples": 50_000,
        "num_perms": 40,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "fast.json"
    code = main([
        "verify", "--config", str(cfg_path), "--samples", "1000",
        "--perms", "2", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["samples"] == 1000
    assert doc["config"]["num_perms"] == 2
    assert doc["config"]["seed"] == 5


def test_verify_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["verify", "--config", str(bad)]) == 2


def test_bad_family_spec():
    assert main(["simulate", "--family", "wat(1)", "--driver", "gaussian"]) == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("gaussian_cloud(foo=3)", "unknown family keys: ['foo']"),
        ("gaussian_cloud(4,8,seed=3)", "seed cannot be set inside a family spec"),
    ],
)
def test_family_spec_argument_errors_exit_2_with_one_line(capsys, spec, message):
    assert main(["simulate", "--family", spec, "--samples", "200"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_family_key_given_twice_exits_2_with_one_line(capsys):
    argv = ["simulate", "--family", "scaled_basis(8,n=10)", "--samples", "200"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: n is given twice in family spec 'scaled_basis(8,n=10)'\n"
    )


def test_infinite_scale_in_a_config_exits_2_naming_scale(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(
        '{"name": "main_bound", "r_values": [1.0], "out": "report.json",'
        ' "families": [{"kind": "gaussian_cloud", "n": 2, "m": 3, "scale": Infinity}]}'
    )
    assert main(["verify", "--config", "config.json"]) == 2
    err = capsys.readouterr().err
    assert err == "error: config.json: gaussian_cloud needs a finite scale > 0, got inf\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "gamma", "verify"])
def test_workers_below_one_exit_2_with_one_line(tmp_path, monkeypatch, capsys, command, workers):
    monkeypatch.chdir(tmp_path)
    config = {"name": "main_bound", "families": [{"kind": "gaussian_cloud", "n": 2, "m": 3}],
              "r_values": [1.0], "samples": 200, "num_perms": 1, "out": "report.json"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    source = ["--family", "gaussian_cloud(2,3)", "--samples", "200"]
    argv = {"simulate": ["simulate", *source], "gamma": ["gamma", *source],
            "verify": ["verify", "--config", "config.json"]}[command]
    assert main([*argv, "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.err.endswith(f"workers must be at least 1, got {workers}\n")
    assert captured.out == "" and sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--set", "missing.csv"],
        ["simulate", "--set", "missing.csv"],
        ["transform", "--set", "missing.csv", "--r", "1.0", "--out", "t.csv"],
        ["moments", "--t", "1,2", "--r", "1", "--p", "2", "--samples", "100",
         "--out", "no_such_dir/m.json"],
    ],
    ids=["gamma", "simulate", "transform", "moments_out"],
)
def test_file_errors_exit_2_with_one_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "No such file" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--set", "big.csv", "--samples", "200"],
        ["transform", "--set", "big.csv", "--s", "0.1", "--out", "t.csv"],
        ["moments", "--t", "1e308,1e308", "--r", "0.1", "--p", "8", "--samples", "200"],
    ],
    ids=["gamma", "transform", "moments"],
)
def test_overflowing_inputs_exit_2_with_one_line(tmp_path, monkeypatch, capsys, argv):
    # finite values whose distances, weighted coordinates or Monte Carlo draws overflow
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.csv").write_text("1e308,1e308,1e308\n-1e308,-1e308,-1e308\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["gamma", "--family", "gaussian_cloud(4,16,1.0)", "--alpha", "0.001"], "2^(2/0.001)"),
        (["moments", "--t", "1,2", "--r", "0.01", "--p", "2"], "Gamma(1 + p/r)"),
        (["counterexample", "--r", "0.001", "--n", "16"], "Gamma(1 + p/r)"),
        (["counterexample", "--r", "0.006", "--n", "16384"], "2^(k/r)"),
        (["transform", "--family", "scaled_basis(3,harmonic)", "--r", "1e-9", "--out", "t.csv"],
         "(log(n/k))^(1/s) at s=1e-09"),
    ],
    ids=["gamma_weight", "moments_gamma", "counterexample_gamma", "counterexample_weight",
         "transform_weight"],
)
def test_overflowing_parameters_exit_2_naming_the_quantity(tmp_path, monkeypatch, capsys,
                                                           argv, quantity):
    # small r or alpha whose closed forms overflow float64
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.err.endswith("overflows float64\n") and quantity in captured.err
    assert captured.out == "" and os.listdir(tmp_path) == []


def test_gamma_whose_level_sum_overflows_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # every distance is finite, but 2^(n/alpha) times one overflows at alpha = 0.01
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.csv").write_text("".join(f"{k}e300,0\n" for k in range(6)))
    assert main(["gamma", "--set", "big.csv", "--alpha", "0.01", "--samples", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the chaining level sum overflows float64\n"
    assert captured.out == ""


def test_verify_of_an_overflowing_counterexample_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = {"name": "counterexample", "families": [{"kind": "hypercube_subset", "n": 256, "m": 1}],
              "r_values": [0.001], "out": "report.json"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["verify", "--config", "config.json"]) == 2
    err = capsys.readouterr().err
    assert err == "error: config.json: E|X|^p = Gamma(1 + p/r) at r=0.001, p=1.0 overflows float64\n"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["--t", "1", "--p", "2,nan"], "nan"),
        (["--t", "1", "--p", "2,inf"], "inf"),
        (["--t", "1,inf", "--p", "2"], "inf"),
    ],
    ids=["p_nan", "p_inf", "t_inf"],
)
def test_non_finite_moment_inputs_exit_2_naming_the_value(capsys, argv, value):
    assert main(["moments", *argv, "--r", "1", "--samples", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"got {value}\n" in err and "draw" not in err


@pytest.mark.parametrize("command", ["gamma", "verify"])
def test_non_finite_csv_entry_exits_2_naming_the_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.csv").write_text("0,1\n2,nan\n")
    config = {"name": "main_bound", "families": [{"kind": "csv_file", "path": "pts.csv"}],
              "r_values": [1.0], "samples": 200, "num_perms": 1, "out": "report.json"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = {"gamma": ["gamma", "--set", "pts.csv", "--samples", "200"],
            "verify": ["verify", "--config", "config.json"]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "pts.csv:2: non-finite entry" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "rows, greedy",
    [
        ("1e300,0\n-1e300,0\n", 2e300),  # a finite distance whose square overflows
        ("0\n1e-170\n", 1e-170),  # a distance whose square underflows
        ("1,0\n1,1e-300\n", 0.0),  # distinct points whose l2 distance underflows to 0
    ],
    ids=["huge", "tiny", "underflow"],
)
def test_gamma_of_extreme_but_finite_distances(tmp_path, monkeypatch, capsys, rows, greedy):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.csv").write_text(rows)
    assert main(["gamma", "--set", "set.csv", "--samples", "200"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    gamma = json.loads(captured.out)["gamma"]
    assert gamma["greedy_upper"] == gamma["exact_small"] == greedy


def test_simulate_near_1e160_reports_a_finite_stderr(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.csv").write_text("1e160,2e160\n-1e160,3e160\n5e159,0\n")
    argv = ["simulate", "--set", "big.csv", "--driver", "gaussian", "--samples", "5000"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert 0.0 < doc["stderr"] < doc["mean"] < math.inf


_EDGE_CONFIG = {
    "name": "main_bound",
    "families": [{"kind": "gaussian_cloud", "n": 4, "m": 16, "scale": 1e305, "seed": 3}],
    "r_values": [1.0], "samples": 5000, "num_perms": 2, "seed": 7, "out": "report.json",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--family", "gaussian_cloud(2,3,2e304)", "--samples", "20000"],
        ["simulate", "--family", "gaussian_cloud(2,3,1e305)", "--samples", "5000"],
        ["gamma", "--family", "gaussian_cloud(2,64,1e306)", "--samples", "2000"],
        ["moments", "--t", "3e101", "--r", "1", "--p", "3", "--samples", "5000"],
        ["moments", "--t", "1e200,1e200", "--r", "0.1", "--p", "8", "--samples", "200"],
        ["verify", "--config", "edge.json"],
    ],
    ids=["simulate-2e304", "simulate-1e305", "gamma-1e306", "moments-3e101", "moments-1e200",
         "verify-1e305"],
)
def test_draws_near_the_float64_edge_give_finite_reports(tmp_path, monkeypatch, capsys, argv):
    # every draw and mean is finite, though a sum of 4096 draws, or a p-th power of
    # a draw of the unscaled moment form, overflows float64
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edge.json").write_text(json.dumps(_EDGE_CONFIG))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    text = (tmp_path / "report.json").read_text() if argv[0] == "verify" else out
    assert all(map(math.isfinite, _printed_numbers(argv[0], text, tmp_path)))
    if argv[0] == "verify":
        assert [rep["flags"]["window"] for rep in json.loads(text)["reports"]] == ["ok"]
    if argv[0] == "moments":
        tenth = ",".join(repr(float(x) / 10) for x in argv[2].split(","))
        assert main(["moments", "--t", tenth, *argv[3:]]) == 0
        tenth = json.loads(capsys.readouterr().out)[0]["quantities"]["mc_norm"]
        assert json.loads(text)[0]["quantities"]["mc_norm"] == pytest.approx(10 * tenth, rel=1e-12)


def test_overflowing_norm_prints_no_warning(tmp_path, monkeypatch, capsys):
    # one point: every gamma is 0, and no norm may overflow on the way there
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.csv").write_text("1e308,1e308\n")
    assert main(["gamma", "--set", "one.csv", "--samples", "200"]) == 0
    assert capsys.readouterr().err == ""


def test_import_loads_no_scipy():
    import weibsup

    src = os.path.dirname(os.path.dirname(weibsup.__file__))
    code = (
        "import sys, weibsup, weibsup.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# Generated inputs for cli.main, kept small: samples <= 200, num_perms <= 2, m <= 8.
# Paths are relative to the test's directory, which holds only these input files.
_INPUTS = {
    "pts.csv": "0,1\n2,3\n-1,0\n",
    "big.csv": "1e308,1e308,1e308\n-1e308,-1e308,-1e308\n",
    "bad.csv": "1,x\n",
}
_SET_PATHS = st.sampled_from([*_INPUTS, "missing.csv"])
_FAMILIES = st.one_of(
    st.builds(dict, kind=st.just("gaussian_cloud"), n=st.integers(1, 4), m=st.integers(1, 8)),
    st.builds(dict, kind=st.just("hypercube_subset"), n=st.sampled_from([3, 16]),
              m=st.integers(1, 8)),
    st.builds(dict, kind=st.just("scaled_basis"), n=st.integers(1, 8)),
    st.builds(dict, kind=st.just("csv_file"), path=st.sampled_from(["pts.csv", "big.csv"])),
)
# a valid config is generated, then at most one key is replaced by one of these
_BAD_VALUES = {
    "name": ["nope", 3],
    "families": [
        "x", [{}], [{"kind": "nope"}], [{"kind": "gaussian_cloud", "n": 0, "m": 2}],
        [{"kind": "gaussian_cloud", "n": 2, "m": 2, "scale": -1}],
        [{"kind": "gaussian_cloud", "n": 2, "m": 2, "decay": "sqrt"}],
        [{"kind": "hypercube_subset", "n": 30, "m": 4}],
        [{"kind": "scaled_basis", "n": 2, "decay": "bogus"}],
        [{"kind": "csv_file", "path": "missing.csv"}], [{"kind": "csv_file", "path": "bad.csv"}],
    ],
    "r_values": [0.5, [-1], [3], [float("nan")], ["1"]],
    "samples": [1, "200", True],
    "num_perms": [0, 1.5],
    "gamma_method": ["nope"],
    "window": [[2.0, 0.5], [1.0], "wide"],
    "seed": [-1, 1.5],
    "out": ["missing/report.json", 3],
    "extra": [1],
}
_CONFIGS = st.one_of(
    st.tuples(
        st.fixed_dictionaries(
            {
                "name": st.sampled_from(["main_bound", "r1_bound", "counterexample"]),
                "families": st.lists(_FAMILIES, max_size=2),
                "r_values": st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), max_size=2),
                "samples": st.sampled_from([2, 200]),
                "num_perms": st.sampled_from([1, 2]),
                "out": st.just("report.json"),
            },
            optional={
                "gamma_method": st.sampled_from(["exact_small", "gaussian_proxy"]),
                "seed": st.integers(0, 9),
            },
        ),
        st.one_of(
            st.just({}),
            st.sampled_from([{k: v} for k, values in _BAD_VALUES.items() for v in values]),
        ),
    ).map(lambda pair: json.dumps(pair[0] | pair[1])),
    st.sampled_from(["{", "[]", "null", "\"main_bound\""]),
)


def _argv(command, *required, options=()):
    parts = [st.just([command]), *required, st.lists(st.sampled_from(options), max_size=3)]
    return st.tuples(*parts).map(lambda groups: [arg for group in groups for arg in group])


def _flag(name, values):
    return st.sampled_from(values).map(lambda value: [f"--{name}={value}"])


_SET_SOURCE = st.one_of(
    _SET_PATHS.map(lambda path: ["--set", path]),
    st.sampled_from([
        "gaussian_cloud(3,6,1.0)", "scaled_basis(4,sqrt)", "hypercube_subset(2,5)",
        "wat(1)", "gaussian_cloud(x)",
    ]).map(lambda spec: ["--family", spec]),
)
_R = ["-1", "0", "0.1", "0.5", "1", "1.5", "2", "nan"]
_SAMPLES = _flag("samples", ["-1", "1", "200"])
_OUTS = ["--out=out.json", "--out=missing/out.json", "--format=csv"]
_ARGVS = st.one_of(
    _argv(
        "verify", st.just(["--config", "cfg.json"]),
        options=["--samples=1", "--samples=200", "--perms=0", "--perms=2", "--seed=3",
                 "--out=out.json", "--out=missing/out.json", "--workers=2"],
    ),
    _argv(
        "simulate", _SET_SOURCE, _SAMPLES,
        options=["--driver=weibull", "--driver=cond_gaussian", "--driver=rademacher",
                 "--r=0.5", "--r=2", "--r=nan", "--workers=2", *_OUTS],
    ),
    _argv(
        "gamma", _SET_SOURCE, _SAMPLES,
        options=["--alpha=0", "--alpha=1", "--alpha=nan", "--metric=linf", *_OUTS],
    ),
    _argv(
        "transform", _SET_SOURCE, st.sampled_from(["r", "s"]).flatmap(lambda k: _flag(k, _R)),
        _flag("out", ["out.csv", "missing/out.csv"]), options=["--perm=random", "--seed=2"],
    ),
    _argv(
        "counterexample", _flag("r", _R), _flag("n", ["16,64", "16", "100", "x"]),
        options=_OUTS,
    ),
    _argv(
        "moments", _flag("t", ["1,2", "1e200,1e200", "0", "x"]), _flag("r", _R),
        _flag("p", ["2", "2,8", "1"]), _SAMPLES, options=_OUTS,
    ),
)


@pytest.mark.filterwarnings("ignore:infinite weight exponent:UserWarning")  # r = 2, documented
@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config=_CONFIGS, argv=_ARGVS)
def test_generated_inputs_exit_cleanly(tmp_path, monkeypatch, capsys, config, argv):
    monkeypatch.chdir(tmp_path)
    for entry in os.listdir(tmp_path):  # what the previous example wrote
        os.remove(entry)
    for name, text in _INPUTS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "cfg.json").write_text(config)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == sorted([*_INPUTS, "cfg.json"])


# Floats at the float64 edges, the ordinary values the options are meant for, and any float.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, 1e-300, -1e-300, 1e300, math.nan, math.inf, -math.inf]),
    st.sampled_from([0.1, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 8.0]),
    st.floats(),
)


def _float_flag(name):
    return _EDGE_FLOATS.map(lambda x: [f"--{name}={x!r}"])


def _float_list_flag(name, values=_EDGE_FLOATS):
    return st.lists(values, min_size=1, max_size=3).map(
        lambda xs: [f"--{name}={','.join(map(repr, xs))}"]
    )


# a source is a family spec, or the generated rows written to pts.csv
_EDGE_SOURCE = st.one_of(
    _EDGE_FLOATS.map(lambda scale: (["--family", f"gaussian_cloud(2,3,{scale!r})"], None)),
    st.sampled_from(["gaussian_cloud(3,4,1.0)", "scaled_basis(3,harmonic)"]).map(
        lambda spec: (["--family", spec], None)
    ),
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(_EDGE_FLOATS, min_size=n, max_size=n), min_size=1, max_size=4)
    ).map(lambda rows: (["--set", "pts.csv"], rows)),
)
_SIM_DRIVER = st.one_of(
    st.sampled_from([["--driver=gaussian"], ["--driver=rademacher"]]),
    st.tuples(st.sampled_from(["weibull", "cond_gaussian"]), _EDGE_FLOATS).map(
        lambda pair: [f"--driver={pair[0]}", f"--r={pair[1]!r}"]
    ),
)


def _with_source(command, *parts):
    return st.tuples(_EDGE_SOURCE, *parts).map(
        lambda groups: ([command, *groups[0][0], *(a for g in groups[1:] for a in g)],
                        groups[0][1])
    )


def _without_source(command, *parts):
    return st.tuples(*parts).map(lambda groups: ([command, *(a for g in groups for a in g)], None))


_EDGE_CASES = st.one_of(
    _with_source("simulate", _SIM_DRIVER, st.just(["--samples=100"])),
    _with_source("gamma", _float_flag("alpha"),
                 st.sampled_from([["--metric=l2"], ["--metric=linf"]]), st.just(["--samples=100"])),
    _with_source("transform", st.sampled_from(["r", "s"]).flatmap(_float_flag),
                 st.sampled_from([[], ["--perm=random"]]), st.just(["--out=out.csv"])),
    _without_source("counterexample", _float_flag("r"),
                    st.sampled_from([["--n=16"], ["--n=16,64"]])),
    # moment orders must be >= 2, so valid ones are drawn more often
    _without_source("moments", _float_list_flag("t"), _float_flag("r"),
                    _float_list_flag("p", st.one_of(st.sampled_from([2.0, 3.0, 8.0]),
                                                    _EDGE_FLOATS)),
                    st.just(["--samples=100"])),
)


def _printed_numbers(command, out, tmp_path):
    """Every number a successful run printed (or, for transform, wrote)."""
    if command == "transform":
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]  # a '# s=... perm=...' header
        return [float(x) for row in rows for x in row.split(",")]
    if command == "counterexample":
        return [float(x) for x in re.findall(r"ratio_\w+=(\S+)", out)]
    numbers = []

    def number(text):
        numbers.append(float(text))
        return numbers[-1]

    json.loads(out, parse_float=number, parse_int=number, parse_constant=number)
    return numbers


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_EDGE_CASES)
# a finite level weight times a finite distance overflows the chaining level sum
@example(case=(["gamma", "--set", "pts.csv", "--alpha=0.01", "--samples=100"],
               [[k * 1e300, 0.0] for k in range(6)]))
# 1 / alpha overflows to inf at a subnormal alpha, and 2^inf gives inf without raising
@example(case=(["gamma", "--family", "gaussian_cloud(2,3,1e-300)", "--alpha=2.2250738585e-313",
                "--samples=100"], None))
# a finite scale times a normal draw overflows
@example(case=(["simulate", "--family", "gaussian_cloud(2,3,1.2452063435129106e+308)",
                "--samples=100"], None))
# (log(n/k))^(1/s) overflows at s = 1e-9
@example(case=(["transform", "--family", "scaled_basis(3,harmonic)", "--r=1e-09",
                "--out=out.csv"], None))
# t's p-th powers underflow, or overflow, though the p-norm of <t, X> does neither
@example(case=(["moments", "--t=1e-120", "--r=1", "--p=3", "--samples=2000"], None))
@example(case=(["moments", "--t=1e120", "--r=1", "--p=3", "--samples=2000"], None))
# the stderr of E|<t, X>|^2 times the norm overflows, though their ratio to the mean does not
@example(case=(["moments", "--t=4.191960755140169e+95", "--r=0.1", "--p=2.0", "--samples=100"],
               None))
def test_edge_floats_give_finite_output_or_one_error_line(tmp_path, monkeypatch, capsys, case):
    argv, rows = case
    monkeypatch.chdir(tmp_path)
    for entry in os.listdir(tmp_path):  # what the previous example wrote
        os.remove(entry)
    if rows is not None:
        (tmp_path / "pts.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in ((0, 1, 2) if argv[0] == "counterexample" else (0, 2))
    if code == 0:
        assert all(map(math.isfinite, _printed_numbers(argv[0], out, tmp_path)))
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1

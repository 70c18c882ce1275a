import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weibsup.cli import main


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
        ["moments", "--t", "1e200,1e200", "--r", "0.1", "--p", "8", "--samples", "200"],
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

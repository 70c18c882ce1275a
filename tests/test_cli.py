import json
import math
import os
import subprocess
import sys

import pytest

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

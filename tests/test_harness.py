import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from weibsup import harness
from weibsup.cli import main as cli_main
from weibsup.core import Metric, RandomStream
from weibsup.harness import (
    BoundReport,
    ConfigError,
    InstanceFamily,
    RunConfig,
    counterexample_run,
    moment_check,
    reports_json_text,
    run,
    standard_suite,
    truncation_check,
    verify_main_bound,
    verify_r1_bound,
    write_reports_csv,
    write_reports_json,
)
from weibsup.laws import conjugate_exponent
from weibsup.mcsup import esup_permuted_weighted
from weibsup.transforms import weights

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


class TestInstanceFamily:
    def test_deterministic_materialization(self):
        fam = InstanceFamily("gaussian_cloud", seed=9, n=6, m=12, scale=0.5)
        a, b = fam.materialize(), fam.materialize()
        assert np.array_equal(a.points, b.points)

    def test_hypercube_values(self):
        fam = InstanceFamily("hypercube_subset", seed=3, n=5, m=20)
        ps = fam.materialize()
        assert ps.m == 20 and ps.dim == 5
        assert set(np.unique(ps.points)) == {-1.0, 1.0}
        # sampled without replacement: all vertices distinct
        assert len({tuple(r) for r in ps.points}) == 20

    def test_scaled_basis_decays(self):
        harmonic = InstanceFamily("scaled_basis", n=4, decay="harmonic").materialize()
        assert np.allclose(np.diag(harmonic.points), [1.0, 0.5, 1.0 / 3.0, 0.25])
        flat = InstanceFamily("scaled_basis", n=3, decay="none").materialize()
        assert np.array_equal(flat.points, np.eye(3))

    def test_csv_family(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2\n3,4\n")
        ps = InstanceFamily("csv_file", path=str(path)).materialize()
        assert ps.m == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            InstanceFamily("bogus")
        with pytest.raises(ConfigError):
            InstanceFamily("hypercube_subset", n=3, m=9)
        with pytest.raises(ConfigError):
            InstanceFamily("gaussian_cloud", n=4, m=4, scale=-1.0)
        with pytest.raises(ConfigError):
            InstanceFamily("scaled_basis", n=4, decay="exp")
        with pytest.raises(ConfigError):
            InstanceFamily("csv_file")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown family keys"):
            InstanceFamily.from_dict({"kind": "gaussian_cloud", "n": 4, "m": 4, "rho": 1})

    @pytest.mark.parametrize(
        "kind, extra, spec, stray",
        [
            ("gaussian_cloud", {"n": 4, "m": 4, "decay": "sqrt"}, "4,4,decay=sqrt", "decay"),
            ("hypercube_subset", {"n": 4, "m": 4, "scale": 2.0}, "4,scale=2", "scale"),
            ("hypercube_subset", {"n": 4, "m": 4, "path": "x.csv"}, "4,path=x.csv", "path"),
            ("scaled_basis", {"n": 4, "scale": 2.0}, "4,scale=2", "scale"),
            ("csv_file", {"path": "x.csv", "n": 2, "m": 3}, "n=2", "n, m"),
        ],
    )
    def test_keys_of_another_kind_rejected(self, kind, extra, spec, stray):
        with pytest.raises(ConfigError, match=f"{kind} takes no {stray}$"):
            InstanceFamily.from_dict({"kind": kind, **extra})
        with pytest.raises(ConfigError, match=f"{kind} takes no {stray.split(',')[0]}"):
            InstanceFamily.from_spec(f"{kind}({spec})")

    def test_scaled_basis_may_restate_m(self):
        assert InstanceFamily.from_dict({"kind": "scaled_basis", "n": 4, "m": 4}).m == 4
        with pytest.raises(ConfigError, match="m = n"):
            InstanceFamily.from_dict({"kind": "scaled_basis", "n": 4, "m": 5})

    def test_from_spec(self):
        fam = InstanceFamily.from_spec("gaussian_cloud(16,64,1.5)", seed=4)
        assert (fam.kind, fam.n, fam.m, fam.scale, fam.seed) == (
            "gaussian_cloud", 16, 64, 1.5, 4,
        )
        basis = InstanceFamily.from_spec("scaled_basis(8,harmonic)")
        assert (basis.n, basis.decay) == (8, "harmonic")
        with pytest.raises(ConfigError):
            InstanceFamily.from_spec("gaussian_cloud[16]")

    @pytest.mark.parametrize(
        "spec, entry",
        [
            ("gaussian_cloud(16,64,1.5)", {"n": 16, "m": 64, "scale": 1.5}),
            ("gaussian_cloud(16,64)", {"n": 16, "m": 64}),
            ("gaussian_cloud(n=16,m=64,scale=2)", {"n": 16, "m": 64, "scale": 2.0}),
            ("gaussian_cloud(16, scale=0.5, m=8)", {"n": 16, "m": 8, "scale": 0.5}),
            ("hypercube_subset(6,20)", {"n": 6, "m": 20}),
            ("hypercube_subset(m=20,n=6)", {"n": 6, "m": 20}),
            ("scaled_basis(8)", {"n": 8}),
            ("scaled_basis(8,sqrt)", {"n": 8, "decay": "sqrt"}),
            ("scaled_basis(decay=none,n=8)", {"n": 8, "decay": "none"}),
            ("scaled_basis(8,m=8)", {"n": 8, "m": 8}),
            ("csv_file(points.csv)", {"path": "points.csv"}),
            ("csv_file(path=points.csv)", {"path": "points.csv"}),
        ],
    )
    def test_from_spec_equals_from_dict(self, spec, entry):
        kind = spec.partition("(")[0]
        fam = InstanceFamily.from_spec(spec, seed=9)
        assert fam == InstanceFamily.from_dict({"kind": kind, **entry}, default_seed=9)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gaussian_cloud(foo=3)", r"unknown family keys: \['foo'\]$"),
            ("gaussian_cloud(4,8,seed=3)", "seed cannot be set"),
            ("gaussian_cloud(kind=scaled_basis)", "kind cannot be set"),
            ("gaussian_cloud(x)", "n must be of type int, got 'x'"),
            ("gaussian_cloud(4,8,wide)", "scale must be of type float, got 'wide'"),
            ("gaussian_cloud(4,8,1,2)", "too many arguments"),
            ("wat(1)", "unknown family kind 'wat'"),
        ],
    )
    def test_from_spec_rejects_malformed_arguments(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            InstanceFamily.from_spec(spec)

    @pytest.mark.parametrize(
        "spec, key", [("scaled_basis(8,n=10)", "n"), ("gaussian_cloud(m=8,4)", "m")]
    )
    def test_from_spec_rejects_a_key_given_twice(self, spec, key):
        with pytest.raises(ConfigError, match=rf"^{key} is given twice in family spec '.*'$"):
            InstanceFamily.from_spec(spec)

    def test_scale_must_be_finite(self):
        with pytest.raises(ConfigError, match="finite scale > 0, got inf"):
            InstanceFamily.from_dict({"kind": "gaussian_cloud", "n": 4, "m": 8, "scale": math.inf})
        with pytest.raises(ConfigError, match="finite scale > 0, got inf"):
            InstanceFamily.from_spec("gaussian_cloud(4,8,inf)")

    def test_decay_is_type_checked(self):
        with pytest.raises(ConfigError, match="decay must be of type str or null, got 3"):
            InstanceFamily.from_dict({"kind": "scaled_basis", "n": 4, "decay": 3})

    def test_unhashable_kind_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"unknown family kind \[\]"):
            InstanceFamily.from_dict({"kind": []})


class TestRunConfig:
    def base(self) -> dict:
        return {
            "name": "main_bound",
            "families": [{"kind": "gaussian_cloud", "n": 4, "m": 8}],
            "r_values": [0.5],
        }

    def test_defaults(self):
        cfg = RunConfig.from_dict(self.base())
        assert cfg.samples == 20_000 and cfg.num_perms == 20
        assert cfg.window == (1.0 / 64.0, 64.0)

    def test_unknown_keys_rejected(self):
        data = self.base() | {"extra": 1}
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict(data)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            RunConfig.from_dict({"name": "main_bound"})

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="window"):
            RunConfig.from_dict(self.base() | {"window": [2.0, 1.0]})

    def test_bad_name(self):
        with pytest.raises(ConfigError, match="experiment name"):
            RunConfig.from_dict(self.base() | {"name": "nonsense"})


class TestVerifyMainBound:
    def test_zero_vector_set_is_neutral(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("0,0,0\n")
        cfg = RunConfig(
            name="main_bound",
            families=(InstanceFamily("csv_file", path=str(path)),),
            r_values=(0.5,),
            samples=500,
            num_perms=3,
        )
        (rep,) = verify_main_bound(cfg)
        assert rep.ratios["esup_weibull_over_epi_gamma2"] is None
        assert rep.flags["window"] == "neutral"

    def test_single_point_set_is_neutral(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.5,1.5,-0.25\n")
        cfg = RunConfig(
            name="main_bound",
            families=(InstanceFamily("csv_file", path=str(path)),),
            r_values=(1.0,),
            samples=2000,
            num_perms=3,
        )
        (rep,) = verify_main_bound(cfg)
        assert rep.flags["window"] == "neutral"

    def test_seeded_instances_inside_window(self):
        cfg = RunConfig(
            name="main_bound",
            families=(InstanceFamily("gaussian_cloud", seed=7, n=8, m=24),),
            r_values=(0.5, 1.0),
            samples=6000,
            num_perms=8,
            seed=12,
        )
        for rep in verify_main_bound(cfg):
            assert rep.flags["window"] == "ok"
            assert "_over_" in next(iter(rep.ratios))

    def test_r_domain(self):
        cfg = RunConfig(
            name="main_bound",
            families=(InstanceFamily("gaussian_cloud", seed=1, n=4, m=4),),
            r_values=(2.0,),
            samples=100,
            num_perms=2,
        )
        with pytest.raises(ConfigError):
            verify_main_bound(cfg)


class TestVerifyR1Bound:
    def test_reports_have_expected_fields(self):
        cfg = RunConfig(
            name="r1_bound",
            families=(InstanceFamily("gaussian_cloud", seed=4, n=8, m=16),),
            r_values=(1.0, 2.0),
            samples=6000,
            num_perms=4,
            seed=8,
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # r = 2 emits the infinite-s warning
            reports = verify_r1_bound(cfg)
        for rep in reports:
            for key in ("gamma2_d2", "gamma_r_dinf", "gamma_sum", "chaining_bound"):
                assert key in rep.quantities
            assert rep.flags["chaining_dominates"] == "ok"
            assert rep.flags["window"] == "ok"

    def test_two_point_ratio_scale_invariant(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0,0\n1,3\n")
        b = tmp_path / "b.csv"
        b.write_text("0,0\n2,6\n")
        reports = []
        for path in (a, b):
            cfg = RunConfig(
                name="r1_bound",
                families=(InstanceFamily("csv_file", path=str(path)),),
                r_values=(1.0,),
                samples=4000,
                num_perms=4,
                seed=5,
            )
            reports.append(verify_r1_bound(cfg)[0])
        r0 = reports[0].ratios["esup_weibull_over_gamma_sum"]
        r1 = reports[1].ratios["esup_weibull_over_gamma_sum"]
        assert r0 == pytest.approx(r1, rel=1e-9)

    def test_r_independent_work_is_done_once_per_family(self, monkeypatch):
        cfg = RunConfig(
            name="r1_bound",
            families=(InstanceFamily("gaussian_cloud", seed=4, n=8, m=16),
                      InstanceFamily("scaled_basis", n=12, decay="sqrt")),
            r_values=(1.0, 1.25, 1.5),
            samples=3000,
            num_perms=2,
            seed=8,
        )
        # each instance on its own: every r rebuilds what it needs
        grid = harness._instance_grid(cfg)
        alone = [harness._r1_bound_instance(inst, cfg, 1, by_set={}) for inst in grid]
        calls = []
        for name in ("build_greedy_tree", "gamma_from_tree", "intersect_trees"):
            def counted(*args, _name=name, _fn=getattr(harness, name)):
                calls.append((_name, str(args[-1]) if isinstance(args[-1], Metric) else None))
                return _fn(*args)

            monkeypatch.setattr(harness, name, counted)
        reports = verify_r1_bound(cfg)
        assert reports_json_text(reports) == reports_json_text(alone)
        tally = {key: calls.count(key) for key in set(calls)}
        families, instances = len(cfg.families), len(cfg.families) * len(cfg.r_values)
        assert tally == {
            ("build_greedy_tree", "l2"): families,
            ("build_greedy_tree", "linf"): families,
            ("gamma_from_tree", "l2"): families,
            ("gamma_from_tree", "linf"): instances,
            ("intersect_trees", None): families,
        }

    def test_r_domain(self):
        cfg = RunConfig(
            name="r1_bound",
            families=(InstanceFamily("gaussian_cloud", seed=1, n=4, m=4),),
            r_values=(0.5,),
            samples=100,
            num_perms=2,
        )
        with pytest.raises(ConfigError):
            verify_r1_bound(cfg)


class TestCounterexample:
    def test_worked_example_n1024(self):
        (rep,) = counterexample_run(0.5, [1024])
        assert rep.quantities["k_level"] == 7.0
        assert rep.quantities["gamma_r_lower"] == 2.0 * 2.0**14 == 32768.0
        assert rep.quantities["esup_closed"] == 1024 * 2.0
        assert rep.quantities["simplified_lower"] == 16384.0
        assert rep.ratios["simplified_lower_over_esup"] == 8.0

    def test_quadrupling_doubles_ratio_exactly(self):
        reports = counterexample_run(0.5, [2**8, 2**10, 2**12, 2**14])
        ratios = [rep.ratios["simplified_lower_over_esup"] for rep in reports]
        assert ratios == [4.0, 8.0, 16.0, 32.0]
        for prev, nxt in zip(ratios, ratios[1:]):
            assert nxt == 2.0 * prev

    def test_strictly_increasing_flags(self):
        for r in (0.25, 0.5, 0.75):
            reports = counterexample_run(r, [16, 64, 256, 1024, 4096])
            assert all(rep.flags["ratio_strictly_increasing"] == "ok" for rep in reports)
            assert all(rep.flags["k_below_log2_n"] == "ok" for rep in reports)

    def test_k_below_log2n(self):
        for rep in counterexample_run(0.9, [2**6, 2**9]):
            assert rep.quantities["k_level"] < math.log2(
                float(rep.instance.split("n=")[1].rstrip(")"))
            )

    def test_invalid_r(self):
        with pytest.raises(ValueError, match="r in"):
            counterexample_run(1.0, [16])

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="powers of 2"):
            counterexample_run(0.5, [24])
        with pytest.raises(ValueError, match="powers of 2"):
            counterexample_run(0.5, [8])

    @pytest.mark.parametrize(
        "r, n, quantity",
        [
            (0.001, 16, r"Gamma\(1 \+ p/r\)"),
            (0.005862, 16, "esup_closed"),  # Gamma(1 + 1/r) is finite, n times it is not
            (0.00588, 4096, r"n\^\(\(r\+1\)/\(2r\)\)"),
            (0.006, 16384, r"2\^\(k/r\)"),
            (0.022466316707905668, 2**45, "gamma_r_lower"),  # 2^(k/r) is finite, twice it is not
        ],
    )
    def test_overflow_raises_value_error_naming_the_quantity(self, r, n, quantity):
        with pytest.raises(ValueError, match=f"{quantity} at r={r}, .*overflows float64"):
            counterexample_run(r, [n])

    def test_largest_finite_values_keep_their_bits(self):
        (rep,) = counterexample_run(0.0059, [16])
        k = rep.quantities["k_level"]
        assert rep.quantities["esup_closed"] == 16 * math.gamma(1.0 + 1.0 / 0.0059)
        assert rep.quantities["gamma_r_lower"] == 2.0 * 2.0 ** (k / 0.0059)
        expected = 2.0 ** (1.0 - 1.0 / 0.0059) * 16 ** ((0.0059 + 1.0) / (2.0 * 0.0059))
        assert rep.quantities["simplified_lower"] == expected


class TestTruncation:
    def cfg(self, samples: int = 3000) -> RunConfig:
        return RunConfig(
            name="main_bound",
            families=(InstanceFamily("gaussian_cloud", seed=11, n=16, m=24),),
            r_values=(0.5, 1.0),
            samples=samples,
            seed=3,
        )

    def test_theta_one_is_exactly_one(self):
        for rep in truncation_check(self.cfg(), 1.0):
            assert rep.ratios["esup_full_over_esup_prefix"] == 1.0

    def test_theta_quarter_recorded(self):
        for rep in truncation_check(self.cfg(), 0.25):
            ratio = rep.ratios["esup_full_over_esup_prefix"]
            assert 0.0 < ratio <= 8.0
            assert rep.quantities["prefix_len"] == 4.0

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            truncation_check(self.cfg(), 0.0)
        with pytest.raises(ValueError):
            truncation_check(self.cfg(), 1.5)

    def test_matches_family_by_r_loop(self):
        # the loop over families and r values as first written, kept as the reference
        def reference(cfg, theta):
            root = RandomStream(cfg.seed)
            reports = []
            for i, fam in enumerate(cfg.families):
                pset = fam.materialize()
                n = pset.dim
                prefix = math.ceil(theta * n)
                for j, r in enumerate(cfg.r_values):
                    a = weights(n, conjugate_exponent(r)).w
                    stream = root.child(i).child(j)
                    full = esup_permuted_weighted(pset, a, n, cfg.samples, stream)
                    part = esup_permuted_weighted(pset, a, prefix, cfg.samples, stream)
                    reports.append((fam.descriptor(), r, full, part))
            return reports

        cfg = RunConfig(
            name="main_bound",
            families=(
                InstanceFamily("gaussian_cloud", seed=11, n=16, m=24),
                InstanceFamily("scaled_basis", seed=12, n=12, decay="sqrt"),
            ),
            r_values=(0.5, 1.0),
            samples=500,
            seed=3,
        )
        got = truncation_check(cfg, 0.5)
        expected = reference(cfg, 0.5)
        assert len(got) == len(expected) == 4
        for rep, (instance, r, full, part) in zip(got, expected):
            assert (rep.instance, rep.r) == (instance, r)
            assert rep.quantities["esup_full"] == full.mean
            assert rep.quantities["esup_prefix"] == part.mean
            assert rep.stderrs == {"esup_full": full.stderr, "esup_prefix": part.stderr}

    def test_matches_two_calls_per_instance_over_chunks_and_workers(self):
        cfg = self.cfg(samples=9000)  # three chunks, the last one short
        pset = cfg.families[0].materialize()
        n = pset.dim
        got = truncation_check(cfg, 0.5, workers=2)
        assert len(got) == 2
        for j, (rep, r) in enumerate(zip(got, cfg.r_values)):
            a = weights(n, conjugate_exponent(r)).w
            stream = RandomStream(cfg.seed).child(0).child(j)
            full = esup_permuted_weighted(pset, a, n, cfg.samples, stream, 2)
            part = esup_permuted_weighted(pset, a, n // 2, cfg.samples, stream, 2)
            assert rep.quantities["esup_full"] == full.mean
            assert rep.quantities["esup_prefix"] == part.mean
            assert rep.stderrs == {"esup_full": full.stderr, "esup_prefix": part.stderr}

    def test_draws_each_chunk_once_for_both_prefixes(self, monkeypatch):
        cfg = self.cfg(samples=9000)
        built = []
        generator = RandomStream.generator

        def counting(stream):
            built.append(stream)
            return generator(stream)

        monkeypatch.setattr(RandomStream, "generator", counting)
        truncation_check(cfg, 0.5)
        # the family's own seed builds its points; the run's seed draws the samples
        draws = [stream for stream in built if stream.seed == cfg.seed]
        assert len(draws) == 3 * len(cfg.r_values)
        assert len(set(draws)) == len(draws)

    def test_n_too_small(self):
        cfg = RunConfig(
            name="main_bound",
            families=(InstanceFamily("gaussian_cloud", seed=1, n=4, m=4),),
            r_values=(1.0,),
            samples=100,
        )
        with pytest.raises(ValueError, match="2/theta"):
            truncation_check(cfg, 0.25)


class TestMomentCheck:
    def test_unit_vector_matches_exact_norm(self):
        (rep,) = moment_check([1.0, 0.0], 1.0, [2.0], 40_000, RandomStream(12))
        assert abs(rep.quantities["mc_norm"] - math.sqrt(2.0)) < 3.0 * rep.stderrs["mc_norm"]
        assert rep.quantities["sup_norm_bound"] == pytest.approx(2.0 + math.sqrt(2.0))

    def test_zero_vector(self):
        (rep,) = moment_check([0.0, 0.0], 1.0, [2.0], 500, RandomStream(1))
        assert rep.quantities["mc_norm"] == 0.0

    def test_flat_vector_bound_value(self):
        n = 64
        t = np.ones(n) / math.sqrt(n)
        (rep,) = moment_check(t, 1.0, [4.0], 20_000, RandomStream(13))
        assert rep.quantities["sup_norm_bound"] == pytest.approx(2.0 + 4.0 / 8.0)
        ratio = rep.ratios["mc_norm_over_sup_norm_bound"]
        assert 0.0 < ratio < 4.0

    def test_p_domain(self):
        with pytest.raises(ValueError):
            moment_check([1.0], 1.0, [1.5], 100, RandomStream(0))


class TestRunAndPersistence:
    def write_cfg(self, tmp_path, data, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_counterexample_config_monotone(self, tmp_path):
        out = tmp_path / "ce.json"
        cfg = {
            "name": "counterexample",
            "families": [
                {"kind": "hypercube_subset", "n": n, "m": 1} for n in (256, 1024, 4096)
            ],
            "r_values": [0.5],
            "out": str(out),
        }
        assert run(self.write_cfg(tmp_path, cfg)) == 0
        doc = json.loads(out.read_text())
        ratios = [r["ratios"]["simplified_lower_over_esup"] for r in doc["reports"]]
        assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios)

    def test_empty_families_succeed(self, tmp_path):
        out = tmp_path / "empty_report.json"
        cfg = {"name": "main_bound", "families": [], "r_values": [0.5], "out": str(out)}
        assert run(self.write_cfg(tmp_path, cfg)) == 0
        assert json.loads(out.read_text())["reports"] == []

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert run(str(path)) == 2
        assert not os.path.exists("main_bound_report.json")

    def test_unknown_key_config(self, tmp_path):
        cfg = {"name": "main_bound", "families": [], "r_values": [1], "bogus": True}
        assert run(self.write_cfg(tmp_path, cfg)) == 2

    def assert_rejected(self, tmp_path, monkeypatch, capsys, data, message):
        monkeypatch.chdir(tmp_path)
        path = self.write_cfg(tmp_path, data)
        assert run(path, overrides={"out": "report.json"}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_array_root_config(self, tmp_path, monkeypatch, capsys):
        data = [{"name": "main_bound", "families": [], "r_values": [0.5]}]
        self.assert_rejected(tmp_path, monkeypatch, capsys, data, "root must be a JSON object")

    def test_scalar_r_values(self, tmp_path, monkeypatch, capsys):
        data = {"name": "main_bound", "families": [], "r_values": 0.5}
        self.assert_rejected(tmp_path, monkeypatch, capsys, data, "r_values must be")

    def test_unknown_gamma_method(self, tmp_path, monkeypatch, capsys):
        data = {
            "name": "main_bound",
            "families": [{"kind": "gaussian_cloud", "n": 4, "m": 8}],
            "r_values": [0.5],
            "gamma_method": "nonsense",
        }
        self.assert_rejected(tmp_path, monkeypatch, capsys, data, "unknown gamma_method")

    @pytest.mark.parametrize("name, r", [("main_bound", 2.5), ("r1_bound", 0.5)])
    def test_r_outside_experiment_range(self, tmp_path, monkeypatch, capsys, name, r):
        data = {
            "name": name,
            "families": [{"kind": "gaussian_cloud", "n": 4, "m": 8}],
            "r_values": [1.0, r],
        }
        self.assert_rejected(tmp_path, monkeypatch, capsys, data, "needs r in")

    @pytest.mark.parametrize(
        "family, message",
        [
            ({"kind": "hypercube_subset", "n": 30, "m": 4}, "limited to n <= 24"),
            ({"kind": "csv_file", "path": "missing.csv"}, "No such file"),
        ],
        ids=["hypercube_n30", "missing_csv"],
    )
    def test_family_that_cannot_be_materialized(
        self, tmp_path, monkeypatch, capsys, family, message
    ):
        data = {"name": "main_bound", "families": [family], "r_values": [0.5]}
        self.assert_rejected(tmp_path, monkeypatch, capsys, data, message)

    def test_exact_small_on_more_than_eight_points(self, tmp_path, monkeypatch, capsys):
        data = {
            "name": "main_bound",
            "families": [{"kind": "gaussian_cloud", "n": 4, "m": 12}],
            "r_values": [0.5],
            "gamma_method": "exact_small",
        }
        self.assert_rejected(tmp_path, monkeypatch, capsys, data, "limited to m <= 8")

    def test_unwritable_out_fails_before_any_instance(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "_main_bound_instance", lambda *args: calls.append(args))
        monkeypatch.chdir(tmp_path)
        data = {
            "name": "main_bound",
            "families": [{"kind": "gaussian_cloud", "n": 4, "m": 8}],
            "r_values": [0.5],
        }
        path = self.write_cfg(tmp_path, data)
        assert run(path, overrides={"out": "missing/report.json"}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "No such file" in err
        assert os.listdir(tmp_path) == ["cfg.json"] and calls == []

    def test_interrupt_keeps_the_previous_report(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "_main_bound_instance", interrupted)
        out = tmp_path / "report.json"
        out.write_bytes(b"previous\n")
        data = {
            "name": "main_bound",
            "families": [{"kind": "gaussian_cloud", "n": 4, "m": 8}],
            "r_values": [0.5],
            "out": str(out),
        }
        path = self.write_cfg(tmp_path, data)
        assert run(path) == 130
        assert capsys.readouterr().err == f"error: {path}: interrupted\n"
        assert out.read_bytes() == b"previous\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "report.json"]

    def test_directory_out_fails_before_any_instance(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "_main_bound_instance", lambda *args: calls.append(args))
        (tmp_path / "report.json").mkdir()
        data = {
            "name": "main_bound",
            "families": [{"kind": "gaussian_cloud", "n": 4, "m": 8}],
            "r_values": [0.5],
            "out": str(tmp_path / "report.json"),
        }
        assert run(self.write_cfg(tmp_path, data)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Is a directory" in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "report.json"] and calls == []

    @pytest.mark.parametrize("name, r", [("main_bound", 0.5), ("r1_bound", 1.5)])
    def test_overflowing_set_is_an_instance_error(self, tmp_path, monkeypatch, name, r):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.csv").write_text("1e308,1e308\n-1e308,-1e308\n")
        data = {
            "name": name,
            "families": [{"kind": "csv_file", "path": "big.csv"}],
            "r_values": [r],
            "samples": 200,
            "num_perms": 2,
        }
        # with warnings as errors, a numpy overflow warning would be recorded instead
        assert run(self.write_cfg(tmp_path, data), overrides={"out": "report.json"}) == 1
        [rep] = json.loads((tmp_path / "report.json").read_text())["reports"]
        assert rep["flags"]["error_message"].startswith("NonFiniteSampleError:")

    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "nope.json")) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "rep.json"
        cfg = {
            "name": "main_bound",
            "families": [{"kind": "gaussian_cloud", "n": 6, "m": 8, "seed": 2}],
            "r_values": [0.75],
            "samples": 2000,
            "num_perms": 3,
            "seed": 77,
            "out": str(out),
        }
        path = self.write_cfg(tmp_path, cfg)
        assert run(path) == 0
        first = out.read_bytes()
        assert run(path, workers=3) == 0
        assert out.read_bytes() == first

    def test_csv_flatten(self, tmp_path):
        reports = counterexample_run(0.5, [256, 1024])
        path = tmp_path / "ce.csv"
        write_reports_csv(reports, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("instance,r,")

    @pytest.mark.parametrize(
        "name, verify, r_values",
        [("main_bound", verify_main_bound, [0.5, 1.5]), ("r1_bound", verify_r1_bound, [1.0, 2.0])],
    )
    def test_run_writes_the_reports_of_verify(self, tmp_path, name, verify, r_values):
        out = tmp_path / "rep.json"
        data = {
            "name": name,
            "families": [
                {"kind": "gaussian_cloud", "n": 4, "m": 8, "seed": 3},
                {"kind": "scaled_basis", "n": 5},
            ],
            "r_values": r_values,
            "samples": 500,
            "num_perms": 2,
            "seed": 9,
            "out": str(out),
        }
        assert run(self.write_cfg(tmp_path, data)) in (0, 1)
        expected = [rep.to_dict() for rep in verify(RunConfig.from_dict(data))]
        assert json.loads(out.read_text())["reports"] == expected

    def test_json_text_excludes_timing(self):
        rep = BoundReport(instance="x", r=1.0, quantities={"a": 1.0}, wall_clock=12.5)
        text = reports_json_text([rep])
        assert "wall_clock" not in text


class TestStandardSuite:
    def test_shape_and_determinism(self):
        suite = standard_suite()
        assert len(suite) == 20
        assert all(ps.m == 32 and ps.dim == 8 for ps in suite)
        again = standard_suite()
        assert all(np.array_equal(a.points, b.points) for a, b in zip(suite, again))


class TestShippedConfigs:
    def test_counterexample_config_reproduces_monotone_column(self, tmp_path):
        from pathlib import Path

        shipped = Path(__file__).resolve().parent.parent / "configs" / "counterexample.json"
        data = json.loads(shipped.read_text())
        out = tmp_path / "ce_report.json"
        data["out"] = str(out)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert run(str(cfg_path)) == 0
        doc = json.loads(out.read_text())
        ratios = [r["ratios"]["simplified_lower_over_esup"] for r in doc["reports"]]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_runs_without_warnings(self, path, tmp_path):
        import warnings

        out = tmp_path / "report.json"
        args = ["verify", "--config", str(path), "--samples", "200", "--perms", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(args + ["--out", str(out)]) == 0
        for rep in json.loads(out.read_text())["reports"]:
            # r1_bound at r = 2 uses the limiting weights, and says so
            limiting = path.stem == "r1_bound" and rep["r"] == 2.0
            assert rep["flags"].get("epi_weights") == ("limiting_0_1" if limiting else None)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_validates_and_runs(self, path, tmp_path):
        RunConfig.from_dict(json.loads(path.read_text()))
        out = tmp_path / "report.json"
        args = ["verify", "--config", str(path), "--samples", "200", "--perms", "2"]
        assert cli_main(args + ["--out", str(out)]) == 0
        assert out.exists()

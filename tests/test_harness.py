import functools
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weibsup import gamma, harness
from weibsup.cli import main as cli_main
from weibsup.core import Metric, PointSet, RandomStream
from weibsup.harness import (
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

    def test_epi_gamma2_mean_of_finite_values_whose_sum_overflows(self):
        # every gamma_2(T_pi) is finite at scale 1e307, but the sum of the four is not
        cfg = RunConfig(
            name="main_bound",
            families=(InstanceFamily("gaussian_cloud", seed=3, n=2, m=16, scale=1e307),),
            r_values=(1.5,),
            samples=2000,
            num_perms=4,
            seed=7,
        )
        (rep,) = verify_main_bound(cfg)
        assert rep.quantities["epi_gamma2"] == pytest.approx(4.588027860863224e307, rel=1e-12)
        assert rep.ratios["esup_weibull_over_epi_gamma2"] == pytest.approx(
            0.5264729716617788, rel=1e-12)
        assert rep.flags == {"window": "ok"}


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
        keys = {  # what tells a call's work apart: the metric, or the level exponents
            "_greedy_matrix_labels": lambda points, metric: str(metric),
            "_intersected": lambda points, a, b: None,
            "_sup_level_sum": lambda labels, mats, alphas: tuple(alphas),
        }
        for name, key in keys.items():
            def counted(*args, _name=name, _key=key, _fn=getattr(harness, name)):
                calls.append((_name, _key(*args)))
                return _fn(*args)

            monkeypatch.setattr(harness, name, counted)
        reports = verify_r1_bound(cfg)
        assert reports_json_text(reports) == reports_json_text(alone)
        tally = {key: calls.count(key) for key in set(calls)}
        families = len(cfg.families)
        # per family: both trees' labels, their intersection and the gamma_2 read;
        # per instance: the gamma_r read and the chaining read
        assert tally == {
            ("_greedy_matrix_labels", "l2"): families,
            ("_greedy_matrix_labels", "linf"): families,
            ("_intersected", None): families,
            ("_sup_level_sum", (2.0,)): families,
            **{("_sup_level_sum", (r,)): families for r in cfg.r_values},
            **{("_sup_level_sum", (2.0, r)): families for r in cfg.r_values},
        }

    def test_no_verify_path_builds_or_parses_a_tuple_tree(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a tuple tree was built or parsed")

        for name in ("_tree", "_nested_labels"):
            monkeypatch.setattr(gamma, name, refused)
        assert verify_main_bound(_scaled_grid("main_bound", 1.0))
        assert verify_r1_bound(_scaled_grid("r1_bound", 1.0))

    @pytest.mark.parametrize("points", [
        np.random.default_rng(5).standard_normal((40, 6)),
        InstanceFamily("hypercube_subset", seed=3, n=6, m=24).materialize().points,  # exact ties
        np.random.default_rng(6).standard_normal((10, 3))[[*range(10), 1, 4, 4]],  # duplicates
        np.vstack([np.diag(1.0 / np.sqrt(np.arange(1.0, 13.0))), np.zeros(12)]),
        [[2.0, -1.0]],
        [[1.0, 0.0], [1.0, 1e-300]],  # distances that underflow to 0 under l2
    ], ids=["gaussian", "hypercube", "duplicates", "axis_and_zero", "one_point", "underflow"])
    def test_set_quantities_have_the_public_api_s_bits(self, points):
        pset, r_values, l2, linf = PointSet(points), (1.0, 1.5, 2.0), Metric.l2(), Metric.linf()
        by_r = harness._r1_set_quantities(pset, r_values)
        tree_l2, tree_linf = gamma.build_greedy_tree(pset, l2), gamma.build_greedy_tree(pset, linf)
        both = gamma.intersect_trees(tree_l2, tree_linf)
        for r in r_values:
            public = (gamma.gamma_from_tree(tree_l2, 2.0, l2).value,
                      gamma.gamma_from_tree(tree_linf, r, linf).value,
                      gamma.chaining_bound(pset, r, both))
            assert [x.hex() for x in by_r[r]] == [x.hex() for x in public]

    def test_grid_sets_hold_no_distance_matrix(self, monkeypatch):
        grids = []

        def captured(cfg, _grid=harness._instance_grid):
            grids.append(_grid(cfg))
            return grids[-1]

        monkeypatch.setattr(harness, "_instance_grid", captured)
        verify_r1_bound(_r1_clouds(2, n=8, m=16))
        (grid,) = grids
        assert len(grid) == 4
        assert all(not inst.pset._distances for inst in grid)

    def test_peak_memory_does_not_grow_with_the_families(self):
        # one 256 x 256 float64 matrix; each set's l2 and linf matrices take two
        matrix = 256 * 256 * 8

        def peak(families):
            tracemalloc.start()
            try:
                verify_r1_bound(_r1_clouds(families, n=32, m=256))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: first-call allocations are not the run's
        one, three = peak(1), peak(3)
        assert three - one < matrix, (one, three)

    def test_an_error_for_one_r_is_that_instance_s_alone(self, tmp_path):
        data = {
            "name": "r1_bound",
            "families": [
                {"kind": "gaussian_cloud", "n": 2, "m": 16, "scale": 6.309573444802098e306,
                 "seed": 3},
                {"kind": "gaussian_cloud", "n": 3, "m": 12, "seed": 4},
            ],
            "r_values": [1.0, 2.0], "samples": 500, "num_perms": 2, "seed": 7,
            "out": str(tmp_path / "report.json"),
        }
        config = tmp_path / "r1.json"
        config.write_text(json.dumps(data))
        assert run(str(config)) == 1
        # each instance on its own, with nothing computed for it by another
        cfg = RunConfig.from_dict(data)
        alone = [
            harness._recording(functools.partial(harness._r1_bound_instance, by_set={}))(
                inst, cfg, 1)
            for inst in harness._instance_grid(cfg)
        ]
        errors = [(rep.instance, rep.r, rep.flags.get("error_message")) for rep in alone
                  if rep.flags.get("run") == "error"]
        assert errors == [(cfg.families[0].descriptor(), 1.0,
                           "ValueError: the chaining level sum overflows float64")]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["reports"] == json.loads(reports_json_text(alone))["reports"]

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


def _r1_clouds(families, n, m):
    """An r1_bound config on gaussian_cloud(n, m) families of seeds 1, 2, ..."""
    return RunConfig(
        name="r1_bound",
        families=tuple(InstanceFamily("gaussian_cloud", seed=seed, n=n, m=m)
                       for seed in range(1, families + 1)),
        r_values=(1.0, 1.5),
        samples=500,
        num_perms=2,
        seed=7,
    )


def _scaled_grid(name, scale):
    """A small config of the experiment, on two gaussian_cloud families of the scale."""
    families = tuple(
        InstanceFamily("gaussian_cloud", seed=seed, n=n, m=m, scale=scale)
        for seed, n, m in ((21, 3, 6), (22, 5, 4))
    )
    return RunConfig(name=name, families=families, r_values=(1.0, 1.5), samples=300,
                     num_perms=2, seed=23)


class TestScaleEquivariance:
    """Both sides of every bound are linear in T, so at 2^k T each quantity and
    stderr is 2^k times its value at T, bit for bit, and each ratio and flag is
    the same, up to where the coordinates meet the float64 edge."""

    @settings(max_examples=6, deadline=None)
    @given(k=st.integers(-1000, 1015))
    @example(k=1015)
    @example(k=-1000)
    def test_bound_reports_scale_with_the_set(self, k):
        for name, verify in (("main_bound", verify_main_bound), ("r1_bound", verify_r1_bound)):
            plain = verify(_scaled_grid(name, 1.0))
            scaled = verify(_scaled_grid(name, math.ldexp(1.0, k)))
            for a, b in zip(plain, scaled, strict=True):
                # the spread is a ratio of two permutations' gamma_2
                assert b.quantities.pop("epi_gamma2_spread") == a.quantities.pop(
                    "epi_gamma2_spread")
                assert b.quantities == {key: math.ldexp(v, k) for key, v in a.quantities.items()}
                assert b.stderrs == {key: math.ldexp(v, k) for key, v in a.stderrs.items()}
                assert b.ratios == a.ratios and b.flags == a.flags


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

    @settings(max_examples=6, deadline=None)
    @given(k=st.integers(-1000, 0))
    @example(k=-1000)
    def test_scales_with_t_below_the_unit(self, k):
        # the p-norm and both bounds are homogeneous in t, and a t below the unit
        # is scaled up before its p-th powers, so none of them underflows
        t = np.array([0.15, -0.85, 0.55])
        orders = [2.0, 3.0, 7.5]
        plain = moment_check(t, 1.0, orders, 2000, RandomStream(14))
        scaled = moment_check(np.ldexp(t, k), 1.0, orders, 2000, RandomStream(14))
        for a, b in zip(plain, scaled, strict=True):
            assert b.quantities.pop("p") == a.quantities.pop("p")
            assert b.quantities == {key: math.ldexp(v, k) for key, v in a.quantities.items()}
            assert b.stderrs == {key: math.ldexp(v, k) for key, v in a.stderrs.items()}
            assert b.ratios == a.ratios

    @settings(max_examples=6, deadline=None)
    @given(k=st.integers(-1000, 1015))
    @example(k=-1000)
    @example(k=1015)
    def test_scales_with_t_both_ways(self, k):
        # a t of any size is taken at its unit scale, where no p-th power of a draw
        # underflows or overflows, and every output is scaled back exactly
        t = np.array([1.5, -2.25, 0.75])
        orders = [2.0, 3.0, 7.5]
        plain = moment_check(t, 1.0, orders, 2000, RandomStream(15))
        scaled = moment_check(np.ldexp(t, k), 1.0, orders, 2000, RandomStream(15))
        for a, b in zip(plain, scaled, strict=True):
            assert b.quantities.pop("p") == a.quantities.pop("p")
            assert b.quantities == {key: math.ldexp(v, k) for key, v in a.quantities.items()}
            assert b.stderrs == {key: math.ldexp(v, k) for key, v in a.stderrs.items()}
            assert b.ratios == a.ratios


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


@pytest.mark.parametrize("call, message", [
    (lambda: RunConfig.from_dict({"name": "main_bound", "families": [], "r_values": ["1"]}),
     "r_values must be a list of numbers, got ['1']"),
    (lambda: InstanceFamily("hypercube_subset", n=0, m=1), "hypercube_subset needs n >= 1"),
    (lambda: InstanceFamily("gaussian_cloud", n=2, m=0), "gaussian_cloud needs n >= 1 and m >= 1"),
    (lambda: InstanceFamily("scaled_basis", n=0), "scaled_basis needs n >= 1"),
    (lambda: InstanceFamily.from_dict([]), "family entries must be objects, got list"),
    (lambda: moment_check([[1.0]], 1.0, [2.0], 100, RandomStream(0)),
     "t must be a nonempty vector"),
], ids=["numbers", "hypercube_n", "gaussian_m", "scaled_basis_n", "family_entry", "t_2d"])
def test_malformed_inputs_raise_one_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_set_whose_permuted_sets_all_collapse_flags_an_infinite_ratio():
    # at n = 1 the one weight (log(1/1))^(1/s) is 0, so every T_pi is one point
    family = InstanceFamily("gaussian_cloud", seed=1, n=1, m=4)
    cfg = RunConfig(name="main_bound", families=(family,), r_values=(1.0,), samples=500,
                    num_perms=2)
    (rep,) = verify_main_bound(cfg)
    assert rep.quantities["epi_gamma2"] == 0.0 < rep.quantities["esup_weibull"]
    assert rep.ratios == {"esup_weibull_over_epi_gamma2": math.inf}
    assert rep.flags == {"window": "violation"}

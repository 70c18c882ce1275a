"""Command-line interface: simulate, gamma, transform, verify, counterexample, moments."""

from __future__ import annotations

import argparse
import json
import sys

from .core import Metric, PointSet, RandomStream, load_points_csv, write_points_csv
from .gamma import (
    build_greedy_tree,
    dudley_bound,
    gamma_exact_small,
    gamma_from_tree,
    gaussian_gamma2_proxy,
    sudakov_lower,
)
from .harness import (
    InstanceFamily,
    counterexample_run,
    moment_check,
    run,
    write_reports_csv,
    write_reports_json,
)
from .laws import conjugate_exponent
from .mcsup import Driver, NonFiniteSampleError, esup_mc
from .transforms import apply_permuted_weights, ts_transform


def _add_set_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="CSV file with one point per row")
    group.add_argument("--family", help="family spec, e.g. gaussian_cloud(16,64,1.0)")


def _load_set(args: argparse.Namespace) -> PointSet:
    if args.set:
        return load_points_csv(args.set)
    fam = InstanceFamily.from_spec(args.family, seed=args.seed)
    return fam.materialize()


def _flatten(doc, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def _emit(doc, args: argparse.Namespace) -> None:
    if getattr(args, "format", "json") == "csv" and isinstance(doc, dict):
        import csv
        import io

        flat = _flatten(doc)
        keys = sorted(flat)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerow([flat[k] for k in keys])
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    pset = _load_set(args)
    takes_r = args.driver in ("weibull", "cond_gaussian")  # --r is ignored for the others
    driver = Driver(args.driver, r=args.r if takes_r else None)
    est = esup_mc(pset, driver, args.samples, RandomStream(args.seed), args.workers)
    _emit(
        {
            "driver": driver.describe(),
            "set": pset.label,
            "m": pset.m,
            "dim": pset.dim,
            "mean": est.mean,
            "stderr": est.stderr,
            "samples": est.samples,
            "seed": est.seed,
        },
        args,
    )
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    pset = _load_set(args)
    metric = Metric.linf() if args.metric == "linf" else Metric.l2()
    tree = build_greedy_tree(pset, metric)
    values = {
        "greedy_upper": gamma_from_tree(tree, args.alpha, metric).value,
        "dudley": dudley_bound(pset, metric).value,
        "sudakov_lower": sudakov_lower(pset, metric).value,
        "gaussian_proxy": gaussian_gamma2_proxy(
            pset, args.samples, RandomStream(args.seed), args.workers
        ).value,
    }
    if pset.m <= 8:
        values["exact_small"] = gamma_exact_small(pset, metric, args.alpha).value
    _emit({"set": pset.label, "alpha": args.alpha, "metric": args.metric, "gamma": values}, args)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    pset = _load_set(args)
    s = args.s if args.s is not None else conjugate_exponent(args.r)
    if args.perm == "identity":
        out_set = ts_transform(pset, s)
    else:
        perm = RandomStream(args.seed).generator().permutation(pset.dim)
        out_set = apply_permuted_weights(pset, perm, s)
    write_points_csv(out_set, args.out, comment=f"s={s:g} perm={args.perm}")
    print(f"wrote {args.out} ({out_set.m} points, dim {out_set.dim})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    overrides = {
        "samples": args.samples,
        "num_perms": args.perms,
        "seed": args.seed,
        "out": args.out,
    }
    return run(args.config, workers=args.workers, overrides=overrides)


def _cmd_counterexample(args: argparse.Namespace) -> int:
    n_list = [int(x) for x in args.n.split(",")]
    reports = counterexample_run(args.r, n_list)
    if args.format == "csv":
        write_reports_csv(reports, args.out or "counterexample.csv")
        print(f"wrote {args.out or 'counterexample.csv'}")
    elif args.out:
        write_reports_json(reports, args.out, {"r": args.r, "n_list": n_list})
        print(f"wrote {args.out}")
    else:
        for rep in reports:
            print(
                f"{rep.instance} ratio_simplified="
                f"{rep.ratios['simplified_lower_over_esup']:g} "
                f"ratio_floor={rep.ratios['gamma_r_lower_over_esup']:g}"
            )
    return 1 if any(rep.violated() for rep in reports) else 0


def _cmd_moments(args: argparse.Namespace) -> int:
    t = [float(x) for x in args.t.split(",")]
    p_list = [float(x) for x in args.p.split(",")]
    reports = moment_check(t, args.r, p_list, args.samples, RandomStream(args.seed))
    if args.format == "csv":
        write_reports_csv(reports, args.out or "moments.csv")
        print(f"wrote {args.out or 'moments.csv'}")
    else:
        doc = [rep.to_dict() for rep in reports]
        _emit(doc, args)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="weibsup",
        description="Suprema of Weibull-driven canonical processes: estimators, "
        "gamma functionals, transforms, and verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo expected supremum for one set")
    _add_set_source(p_sim)
    p_sim.add_argument("--driver", default="gaussian",
                       choices=["gaussian", "rademacher", "weibull", "cond_gaussian"])
    p_sim.add_argument("--r", type=float, default=None)
    p_sim.add_argument("--samples", type=int, default=20000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--format", choices=["json", "csv"], default="json")
    p_sim.add_argument("--out")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_gamma = sub.add_parser("gamma", help="all gamma methods for one set")
    _add_set_source(p_gamma)
    p_gamma.add_argument("--alpha", type=float, default=2.0)
    p_gamma.add_argument("--metric", choices=["l2", "linf"], default="l2")
    p_gamma.add_argument("--samples", type=int, default=20000)
    p_gamma.add_argument("--seed", type=int, default=0)
    p_gamma.add_argument("--workers", type=int, default=1)
    p_gamma.add_argument("--format", choices=["json", "csv"], default="json")
    p_gamma.add_argument("--out")
    p_gamma.set_defaults(fn=_cmd_gamma)

    p_tr = sub.add_parser("transform", help="emit T_pi or T^s as CSV")
    _add_set_source(p_tr)
    group = p_tr.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=float, help="driver exponent; s is derived")
    group.add_argument("--s", type=float, help="weight exponent directly")
    p_tr.add_argument("--perm", choices=["identity", "random"], default="identity")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--out", required=True)
    p_tr.set_defaults(fn=_cmd_transform)

    p_ver = sub.add_parser("verify", help="run a JSON RunConfig")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--samples", type=int, default=None, help="override config samples")
    p_ver.add_argument("--perms", type=int, default=None, help="override config num_perms")
    p_ver.add_argument("--seed", type=int, default=None, help="override config seed")
    p_ver.add_argument("--out", default=None, help="override config output path")
    p_ver.set_defaults(fn=_cmd_verify)

    p_ce = sub.add_parser("counterexample", help="closed-form lower-bound failure sweep")
    p_ce.add_argument("--r", type=float, required=True)
    p_ce.add_argument("--n", required=True, help="comma-separated powers of 2, >= 16")
    p_ce.add_argument("--format", choices=["json", "csv"], default="json")
    p_ce.add_argument("--out")
    p_ce.set_defaults(fn=_cmd_counterexample)

    p_mom = sub.add_parser("moments", help="MC p-norms of one linear form vs bounds")
    p_mom.add_argument("--t", required=True, help="comma-separated coefficients")
    p_mom.add_argument("--r", type=float, required=True)
    p_mom.add_argument("--p", required=True, help="comma-separated moment orders >= 2")
    p_mom.add_argument("--samples", type=int, default=20000)
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.add_argument("--format", choices=["json", "csv"], default="json")
    p_mom.add_argument("--out")
    p_mom.set_defaults(fn=_cmd_moments)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, NonFiniteSampleError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: data generation, clustering runs, and experiment sweeps.

Subcommands: gen, cluster, eval, experiment. Exit codes: 0 success, 1 usage
error, 2 data error, 3 solver error. The DMOC_LOG environment variable sets
log verbosity (DEBUG/INFO/WARNING). Every stochastic path requires an explicit
seed; outputs are byte-identical for identical configurations.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import baselines, evaluation, rtp
from .core import DataFormatError, DataSet, DmocError, MetricSpec, PcsParams, RtpParams, SolverError
from .data import format_float, gen_synthetic_pcs, load_profiles, save_profiles
from .engine import EngineConfig, run_dmoc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

EXPERIMENTS = ("loss_curve", "peak_target", "geometry2d", "representatives", "rtp_loss_curve")


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else str(v) for v in row]
            )


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _from_section(fn, section: dict, name: str):
    """``fn(**section)``; a section that does not fit fn's parameters is a usage error."""
    try:
        inspect.signature(fn).bind(**section)
    except TypeError as err:
        raise CliUsageError(f"{name}: {err}") from None
    return fn(**section)


def _metric_from_mapping(cfg: dict) -> MetricSpec:
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind == "pcs":
        if str(cfg.get("p", "")).lower() in ("inf", "infinity"):
            cfg["p"] = math.inf
        else:
            try:
                cfg["p"] = float(cfg.get("p", math.inf))
            except (TypeError, ValueError):
                raise CliUsageError(f"p must be a number or 'inf', got {cfg['p']!r}") from None
        return MetricSpec(kind="pcs", pcs=_from_section(PcsParams, cfg, "metric (pcs)"))
    if kind == "rtp":
        return MetricSpec(kind="rtp", rtp=_from_section(RtpParams, cfg, "metric (rtp)"))
    raise CliUsageError(f"metric kind must be 'pcs' or 'rtp', got {kind!r}")


def _dataset_from_config(config: dict, seed: int) -> DataSet:
    data_cfg = config.get("data") or {}
    if "path" in data_cfg:
        return load_profiles(data_cfg["path"])
    synth = data_cfg.get("synthetic")
    if synth is None:
        raise CliUsageError("config must provide data.path or data.synthetic")
    synth = dict(synth)
    kind = synth.pop("kind", "pcs")
    synth.setdefault("seed", seed)
    generate = {"pcs": gen_synthetic_pcs, "rtp": rtp.generate_rtp_scenario}.get(kind)
    if generate is None:
        raise CliUsageError(f"unknown synthetic data kind {kind!r}")
    return _from_section(generate, synth, f"data.synthetic ({kind})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.kind == "pcs":
        data = gen_synthetic_pcs(
            archetypes=args.archetypes,
            n_slots=args.slots,
            n_samples=args.samples,
            seed=args.seed,
            peak_kw=args.peak_kw,
            base_kw=args.base_kw,
            jitter=args.jitter,
        )
    else:
        data = rtp.generate_rtp_scenario(
            n_consumers=args.consumers,
            n_slots=args.slots,
            n_samples=args.samples,
            seed=args.seed,
            g_low=args.g_low,
            g_high=args.g_high,
        )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_profiles(data, args.out)
    print(f"wrote {data.n} x {data.dim} profiles to {args.out}")
    return EXIT_OK


def _metric_from_args(args) -> MetricSpec:
    if args.metric == "pcs":
        return _metric_from_mapping(
            dict(kind="pcs", n_slots=args.slots, p=args.p, energy=args.energy, x_max=args.x_max)
        )
    return _metric_from_mapping(
        dict(kind="rtp", n_consumers=args.consumers, n_slots=args.slots, alpha=args.alpha,
             a=args.a, b=args.b, c=args.c)
    )


def _cmd_cluster(args) -> int:
    data = load_profiles(args.data)
    spec = _metric_from_args(args)
    out_dir = Path(args.out_dir)
    if args.scheme == "kmc":
        result = baselines.kmc_pipeline(spec, data, args.clusters, seed=args.seed)
    else:
        config = EngineConfig(
            n_clusters=args.clusters,
            max_iters=args.max_iters,
            tol=args.tol,
            seed=args.seed,
            init=args.init,
        )
        result = run_dmoc(
            spec, data, config, approx_assignment=(args.scheme == "dmoc-approx")
        )
    t_cols = [f"t{t}" for t in range(spec.decision_dim)]
    _write_csv(
        out_dir / "representatives.csv",
        ["cluster"] + t_cols,
        [[m] + [float(v) for v in row] for m, row in enumerate(result.representatives)],
    )
    _write_csv(
        out_dir / "assignment.csv",
        ["sample", "cluster"],
        [[n, int(c)] for n, c in enumerate(result.partition.assignment)],
    )
    _write_csv(
        out_dir / "trace.csv",
        ["iteration", "objective"],
        [[q, float(v)] for q, v in enumerate(result.trace.objectives, start=1)],
    )
    print(
        f"{args.scheme}: objective {format_float(result.objective)} "
        f"after {result.trace.iterations_run} iteration(s), "
        f"converged={result.trace.converged}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    data = load_profiles(args.data)
    spec = _metric_from_args(args)
    f_perfect = evaluation.perfect_objective(spec, data)
    rows = [["f_perfect", f_perfect]]
    print(f"perfect objective: {format_float(f_perfect)}")
    if spec.kind == "pcs":
        hist = evaluation.peak_histogram(data)
        entropy = evaluation.peak_entropy(hist)
        rows.append(["peak_entropy_bits", entropy])
        print(f"peak entropy: {format_float(entropy)} bits")
    if args.out:
        _write_csv(Path(args.out), ["metric", "value"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _experiment_loss_curve(config, spec, data, seed, jobs, out_dir, key="loss_curve"):
    section = config.get(key) or {}
    m_values = list(range(int(section.get("m_min", 1)), int(section.get("m_max", 20)) + 1))
    schemes = tuple(section.get("schemes", evaluation.SCHEMES))
    engine_cfg = config.get("engine") or {}
    curves = evaluation.loss_curve(
        spec,
        data,
        m_values,
        schemes=schemes,
        seed=seed,
        max_iters=int(engine_cfg.get("max_iters", 10)),
        tol=float(engine_cfg.get("tol", 1e-3)),
        init=engine_cfg.get("init", "kmeans"),
        jobs=jobs,
    )
    rows = []
    for curve in curves:
        for (m, rho), objective in zip(curve.points, curve.objectives):
            rows.append([curve.scheme, m, float(objective), float(rho), float(curve.f_perfect)])
    _write_csv(
        out_dir / f"{key}.csv",
        ["scheme", "m", "objective", "rho_percent", "f_perfect"],
        rows,
    )
    return [out_dir / f"{key}.csv"]


def _experiment_peak_target(config, spec, data, seed, jobs, out_dir):
    section = config.get("peak_target") or {}
    targets = [float(t) for t in section.get("targets", [])]
    if not targets:
        raise CliUsageError("peak_target experiment requires peak_target.targets")
    schemes = tuple(section.get("schemes", ("dmoc", "kmc")))
    m_max = int(section.get("m_max", 20))
    engine_cfg = config.get("engine") or {}

    def one(task):
        scheme, target = task
        found = evaluation.clusters_for_target(
            spec, data, target, scheme=scheme, m_max=m_max, seed=seed,
            max_iters=int(engine_cfg.get("max_iters", 10)),
            tol=float(engine_cfg.get("tol", 1e-3)),
        )
        return -1 if found is None else found

    results = evaluation.fan_out(one, [(s, t) for s in schemes for t in targets], jobs)
    rows = [
        [scheme, float(target), int(results[(scheme, target)])]
        for scheme in schemes
        for target in targets
    ]
    _write_csv(out_dir / "peak_target.csv", ["scheme", "target_kw", "clusters_needed"], rows)
    return [out_dir / "peak_target.csv"]


def _kmc_and_dmoc(config, spec, data, m, seed):
    """The k-means pipeline and a DMOC run at M clusters (a kmeans init starts from the former)."""
    engine_cfg = config.get("engine") or {}
    kmc = baselines.kmc_pipeline(spec, data, m, seed=seed)
    init = engine_cfg.get("init", "kmeans")
    engine_config = EngineConfig(
        n_clusters=m,
        max_iters=int(engine_cfg.get("max_iters", 10)),
        tol=float(engine_cfg.get("tol", 1e-3)),
        seed=seed,
        init=kmc.representatives if isinstance(init, str) and init == "kmeans" else init,
    )
    return kmc, run_dmoc(spec, data, engine_config)


def _experiment_geometry2d(config, spec, data, seed, jobs, out_dir):
    if data.dim != 2 or spec.decision_dim != 2:
        raise CliUsageError("geometry2d requires 2-slot data and metric")
    m = int((config.get("geometry2d") or {}).get("clusters", 4))
    kmc, dmoc_res = _kmc_and_dmoc(config, spec, data, m, seed)
    rows = [
        [
            float(data.values[n, 0]),
            float(data.values[n, 1]),
            int(kmc.partition.assignment[n]),
            int(dmoc_res.partition.assignment[n]),
        ]
        for n in range(data.n)
    ]
    _write_csv(out_dir / "geometry2d.csv", ["g1", "g2", "kmc_label", "dmoc_label"], rows)
    return [out_dir / "geometry2d.csv"]


def _experiment_representatives(config, spec, data, seed, jobs, out_dir):
    m = int((config.get("representatives") or {}).get("clusters", 3))
    kmc, dmoc_res = _kmc_and_dmoc(config, spec, data, m, seed)
    rows = []
    for scheme, result in (("kmc", kmc), ("dmoc", dmoc_res)):
        for cluster in range(m):
            rows.append(
                [scheme, "representative", cluster]
                + [float(v) for v in result.representatives[cluster]]
            )
        for cluster in range(m):
            members = result.partition.members(cluster)
            mean = (
                data.values[members].mean(axis=0)
                if members.size
                else np.zeros(data.dim)
            )
            rows.append([scheme, "cluster_mean", cluster] + [float(v) for v in mean])
    t_cols = [f"t{t}" for t in range(spec.decision_dim)]
    _write_csv(
        out_dir / "representatives.csv",
        ["scheme", "kind", "cluster"] + t_cols,
        rows,
    )
    return [out_dir / "representatives.csv"]


def _run_experiment(config: dict, seed: int, jobs: int, out_dir: Path) -> list[Path]:
    name = config.get("experiment")
    if name not in EXPERIMENTS:
        raise CliUsageError(f"experiment must be one of {EXPERIMENTS}, got {name!r}")
    if "solver" in config:
        raise CliUsageError(
            "the 'solver' section is not supported: the metric's p fixes the solver route"
        )
    spec = _metric_from_mapping(config.get("metric") or {})
    data = _dataset_from_config(config, seed)
    if name == "loss_curve":
        return _experiment_loss_curve(config, spec, data, seed, jobs, out_dir)
    if name == "rtp_loss_curve":
        if spec.kind != "rtp":
            raise CliUsageError("rtp_loss_curve requires an rtp metric")
        return _experiment_loss_curve(config, spec, data, seed, jobs, out_dir, key="rtp_loss_curve")
    if name == "peak_target":
        return _experiment_peak_target(config, spec, data, seed, jobs, out_dir)
    if name == "geometry2d":
        return _experiment_geometry2d(config, spec, data, seed, jobs, out_dir)
    return _experiment_representatives(config, spec, data, seed, jobs, out_dir)


def _cmd_experiment(args) -> int:
    config_path = args.config_pos or args.config
    if config_path is None:
        raise CliUsageError("experiment requires a config file (positional or --config)")
    with open(config_path) as fh:
        config = yaml.safe_load(fh) or {}
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is None:
        raise CliUsageError("a seed is required (config 'seed' or --seed)")
    jobs = args.jobs if args.jobs is not None else int(config.get("jobs", 1))
    out_dir = Path(args.out_dir or config.get("out_dir", "out"))
    files = _run_experiment(config, int(seed), jobs, out_dir)
    for f in files:
        print(f"wrote {f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="dmoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic profiles")
    gen.add_argument("--kind", choices=("pcs", "rtp"), default="pcs")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--slots", type=int, default=24)
    gen.add_argument("--samples", type=int, default=365)
    gen.add_argument("--archetypes", type=int, default=3)
    gen.add_argument("--peak-kw", type=float, default=2.0)
    gen.add_argument("--base-kw", type=float, default=0.4)
    gen.add_argument("--jitter", type=int, default=1)
    gen.add_argument("--consumers", type=int, default=5)
    gen.add_argument("--g-low", type=float, default=2.0)
    gen.add_argument("--g-high", type=float, default=3.0)
    gen.set_defaults(func=_cmd_gen)

    def add_metric_args(p):
        p.add_argument("--metric", choices=("pcs", "rtp"), default="pcs")
        p.add_argument("--slots", type=int, default=24)
        p.add_argument("--p", default="inf", help="norm exponent (integer or 'inf')")
        p.add_argument("--energy", type=float, default=30.0)
        p.add_argument("--x-max", type=float, default=3.0)
        p.add_argument("--consumers", type=int, default=5)
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--a", type=float, default=0.1)
        p.add_argument("--b", type=float, default=0.0)
        p.add_argument("--c", type=float, default=10.0)

    cluster = sub.add_parser("cluster", help="run one clustering scheme on a data file")
    cluster.add_argument("--data", required=True)
    cluster.add_argument("--scheme", choices=evaluation.SCHEMES, default="dmoc")
    cluster.add_argument("--clusters", type=int, required=True)
    cluster.add_argument("--seed", type=int, required=True)
    cluster.add_argument("--max-iters", type=int, default=10)
    cluster.add_argument("--tol", type=float, default=1e-3)
    cluster.add_argument("--init", choices=("random", "kmeans"), default="kmeans")
    cluster.add_argument("--out-dir", default="out")
    add_metric_args(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    ev = sub.add_parser("eval", help="perfect baseline and peak statistics for a data file")
    ev.add_argument("--data", required=True)
    ev.add_argument("--out")
    add_metric_args(ev)
    ev.set_defaults(func=_cmd_eval)

    exp = sub.add_parser("experiment", help="run a configured experiment sweep")
    exp.add_argument("config_pos", nargs="?", metavar="CONFIG")
    exp.add_argument("--config")
    exp.add_argument("--seed", type=int)
    exp.add_argument("--jobs", type=int)
    exp.add_argument("--out-dir")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("DMOC_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliUsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except (DataFormatError, DmocError, OSError, ValueError, yaml.YAMLError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

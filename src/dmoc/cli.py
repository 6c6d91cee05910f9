"""Command-line front end: data generation, clustering runs, and experiment sweeps.

Subcommands: gen, cluster, eval, experiment. Exit codes: 0 success, 1 usage
error, 2 data error, 3 solver error. The DMOC_LOG environment variable sets
log verbosity (DEBUG/INFO/WARNING). Every stochastic path requires an explicit
seed; outputs are byte-identical for identical configurations.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import evaluation, rtp
from .core import DataFormatError, DataSet, DmocError, MetricSpec, PcsParams, RtpParams, SolverError, _count
from .data import format_float, gen_synthetic_pcs, load_profiles, save_profiles, write_csv as _write_csv
from .engine import EngineConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _mapping(value, name: str) -> dict:
    """A config section; an absent one is empty, one that is not a mapping a usage error."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise CliUsageError(f"{name}: expected a mapping, got {value!r}")
    return value


def _metric_from_mapping(cfg) -> MetricSpec:
    cfg = dict(_mapping(cfg, "metric"))
    kind = cfg.pop("kind", None)
    if kind == "pcs":
        if str(cfg.get("p", "")).lower() in ("inf", "infinity"):
            cfg["p"] = math.inf
        else:
            try:
                cfg["p"] = float(cfg.get("p", math.inf))
            except (TypeError, ValueError):
                raise CliUsageError(f"p must be a number or 'inf', got {cfg['p']!r}") from None
        return MetricSpec(kind="pcs", pcs=_read(PcsParams, cfg, "metric (pcs)"))
    if kind == "rtp":
        return MetricSpec(kind="rtp", rtp=_read(RtpParams, cfg, "metric (rtp)"))
    raise CliUsageError(f"metric kind must be 'pcs' or 'rtp', got {kind!r}")


def _read(fn, section: dict | None, name: str):
    """``fn(**section)``: a section that is not a mapping, an unknown key, or a value that
    fn cannot take (a TypeError or ValueError) is a usage error naming the section."""
    try:
        return fn(**inspect.signature(fn).bind(**(section or {})).arguments)
    except (TypeError, ValueError) as err:
        raise CliUsageError(f"{name}: {err}") from None


def _given(args, fn) -> dict:
    """The parsed flags whose destinations are parameters of fn."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in vars(args).items() if k in params}


def _listed(value, key: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be a list, got {value!r}")
    return tuple(value)


def _schemes(value) -> tuple:
    schemes = _listed(value, "schemes")
    for s in schemes:
        if s not in evaluation.SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; expected one of {evaluation.SCHEMES}")
    return schemes


def _path(value, name: str) -> Path:
    """A file or directory setting; a value that is not a string is a usage error."""
    if not isinstance(value, str):
        raise CliUsageError(f"{name}: expected a path, got {value!r}")
    return Path(value)


def _integer(value, name: str, least: int) -> int:
    """An integer setting of at least ``least`` (``core._count``); any other value is a usage error."""
    try:
        return _count(value, name, least)
    except (TypeError, DmocError) as err:
        raise CliUsageError(str(err)) from None


def _engine(max_iters=10, tol=1e-3, init="kmeans"):
    """The engine settings, from the ``engine`` section or the ``cluster`` flags."""
    tol = float(tol)  # PyYAML reads a float such as 1e-3 as a string
    if init not in ("random", "kmeans") or not tol >= 0:
        raise ValueError(f"need init 'random' or 'kmeans' and tol >= 0, got {init!r} and {tol!r}")
    return {"max_iters": _integer(max_iters, "max_iters", 1), "tol": tol, "init": init}


GENERATORS = {"pcs": gen_synthetic_pcs, "rtp": rtp.generate_rtp_scenario}


def _dataset_from_config(config: dict, seed: int) -> DataSet:
    data_cfg = _mapping(config.get("data"), "data")
    if "path" in data_cfg:
        return load_profiles(_path(data_cfg["path"], "data.path"))
    if data_cfg.get("synthetic") is None:
        raise CliUsageError("config must provide data.path or data.synthetic")
    synth = dict(_mapping(data_cfg["synthetic"], "data.synthetic"))
    kind = synth.pop("kind", "pcs")
    synth.setdefault("seed", seed)
    if not isinstance(kind, str) or kind not in GENERATORS:
        raise CliUsageError(f"unknown synthetic data kind {kind!r}")
    return _read(GENERATORS[kind], synth, f"data.synthetic ({kind})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    # the data flags are the given flags besides --kind and --out
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "kind", "out")}
    params["seed"] = _integer(args.seed, "--seed", 0)
    data = _read(GENERATORS[args.kind], params, f"gen --kind {args.kind}")
    save_profiles(data, args.out)
    print(f"wrote {data.n} x {data.dim} profiles to {args.out}")
    return EXIT_OK


def _metric_from_args(args) -> MetricSpec:
    params = PcsParams if args.metric == "pcs" else RtpParams
    return _metric_from_mapping({"kind": args.metric, **_given(args, params)})


def _cmd_cluster(args) -> int:
    spec = _metric_from_args(args)
    engine = _read(_engine, _given(args, _engine), "cluster")
    n_clusters = _integer(args.n_clusters, "--clusters", 1)
    config = EngineConfig(n_clusters=n_clusters, seed=_integer(args.seed, "--seed", 0), **engine)
    data = load_profiles(args.data)
    result = evaluation.run_schemes((args.scheme,), spec, data, config)[args.scheme]
    out_dir = Path(args.out_dir)
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
    spec = _metric_from_args(args)
    data = load_profiles(args.data)
    f_perfect = evaluation.perfect_objective(spec, data)
    rows = [["f_perfect", f_perfect]]
    print(f"perfect objective: {format_float(f_perfect)}")
    if spec.kind == "pcs":
        hist = evaluation.peak_histogram(data)
        entropy = evaluation.peak_entropy(hist)
        rows.append(["peak_entropy_bits", entropy])
        print(f"peak entropy: {format_float(entropy)} bits")
    if args.out:
        _write_csv(args.out, ["metric", "value"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _experiment_loss_curve(config, spec, data, engine, seed, jobs, out_dir, key="loss_curve"):
    if key == "rtp_loss_curve" and spec.kind != "rtp":
        raise CliUsageError("rtp_loss_curve requires an rtp metric")

    def loss_curve(m_min=1, m_max=20, schemes=evaluation.SCHEMES):
        m_min, m_max = _integer(m_min, "m_min", 1), _integer(m_max, "m_max", 1)
        if m_min > m_max:
            raise ValueError(f"need 1 <= m_min <= m_max, got m_min = {m_min}, m_max = {m_max}")
        return range(m_min, m_max + 1), _schemes(schemes)

    m_values, schemes = _read(loss_curve, config.get(key), key)
    curves = evaluation.loss_curve(
        spec, data, m_values, schemes=schemes, seed=seed, jobs=jobs, **engine
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


def _experiment_peak_target(config, spec, data, engine, seed, jobs, out_dir):
    if spec.kind != "pcs" or spec.pcs.p != math.inf:
        raise CliUsageError("peak_target requires a pcs metric with p = inf")

    def peak_target(targets=(), m_max=20, schemes=("dmoc", "kmc")):
        targets = [float(t) for t in _listed(targets, "targets")]
        return targets, _integer(m_max, "m_max", 1), _schemes(schemes)

    targets, m_max, schemes = _read(peak_target, config.get("peak_target"), "peak_target")
    if not targets:
        raise CliUsageError("peak_target experiment requires peak_target.targets")
    found = evaluation.clusters_for_targets(
        spec, data, targets, schemes=schemes, m_max=m_max, seed=seed,
        max_iters=engine["max_iters"], tol=engine["tol"], jobs=jobs,
    )
    rows = [
        [s, t, -1 if found[s, t] is None else found[s, t]] for s in schemes for t in targets
    ]
    _write_csv(out_dir / "peak_target.csv", ["scheme", "target_kw", "clusters_needed"], rows)
    return [out_dir / "peak_target.csv"]


def _experiment_geometry2d(config, spec, data, engine, seed, jobs, out_dir):
    if data.dim != 2 or spec.decision_dim != 2:
        raise CliUsageError("geometry2d requires 2-slot data and metric")
    m = _read(lambda clusters=4: _integer(clusters, "clusters", 1), config.get("geometry2d"), "geometry2d")
    run_config = EngineConfig(n_clusters=m, seed=seed, **engine)
    kmc, dmoc_res = evaluation.run_schemes(("kmc", "dmoc"), spec, data, run_config).values()
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


def _experiment_representatives(config, spec, data, engine, seed, jobs, out_dir):
    section = config.get("representatives")
    m = _read(lambda clusters=3: _integer(clusters, "clusters", 1), section, "representatives")
    run_config = EngineConfig(n_clusters=m, seed=seed, **engine)
    kmc, dmoc_res = evaluation.run_schemes(("kmc", "dmoc"), spec, data, run_config).values()
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


EXPERIMENTS = {
    "loss_curve": _experiment_loss_curve,
    "peak_target": _experiment_peak_target,
    "geometry2d": _experiment_geometry2d,
    "representatives": _experiment_representatives,
    "rtp_loss_curve": functools.partial(_experiment_loss_curve, key="rtp_loss_curve"),
}


def _run_experiment(config: dict, seed: int, jobs: int, out_dir: Path) -> list[Path]:
    name = config.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise CliUsageError(f"experiment must be one of {tuple(EXPERIMENTS)}, got {name!r}")
    if "solver" in config:
        raise CliUsageError(
            "the 'solver' section is not supported: the metric's p fixes the solver route"
        )
    spec = _metric_from_mapping(config.get("metric") or {})
    engine = _read(_engine, config.get("engine"), "engine")
    data = _dataset_from_config(config, seed)
    return EXPERIMENTS[name](config, spec, data, engine, seed, jobs, out_dir)


def _cmd_experiment(args) -> int:
    if args.config is None:
        raise CliUsageError("experiment requires a config file")
    with open(args.config) as fh:
        config = _mapping(yaml.safe_load(fh), "config")
    seed = args.seed if args.seed is not None else config.get("seed")
    jobs = args.jobs if args.jobs is not None else config.get("jobs", 1)
    out_dir = _path(args.out_dir or config.get("out_dir", "out"), "out_dir")
    files = _run_experiment(config, _integer(seed, "seed", 0), _integer(jobs, "jobs", 1), out_dir)
    for f in files:
        print(f"wrote {f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="dmoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # gen's data flags and cluster's engine flags have no argparse default: only the
    # given ones reach the generator and the engine reader, whose signatures hold them
    gen = sub.add_parser(
        "gen", help="generate synthetic profiles", argument_default=argparse.SUPPRESS
    )
    gen.add_argument("--kind", choices=tuple(GENERATORS), default="pcs")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--slots", dest="n_slots", type=int)
    gen.add_argument("--samples", dest="n_samples", type=int)
    gen.add_argument("--archetypes", type=int)
    gen.add_argument("--peak-kw", type=float)
    gen.add_argument("--base-kw", type=float)
    gen.add_argument("--jitter", type=int)
    gen.add_argument("--consumers", dest="n_consumers", type=int)
    gen.add_argument("--g-low", type=float)
    gen.add_argument("--g-high", type=float)
    gen.set_defaults(func=_cmd_gen)

    def add_metric_args(p):
        p.add_argument("--metric", choices=("pcs", "rtp"), default="pcs")
        p.add_argument("--slots", dest="n_slots", type=int, default=24)
        p.add_argument("--p", default="inf", help="norm exponent (integer or 'inf')")
        p.add_argument("--energy", type=float, default=30.0)
        p.add_argument("--x-max", type=float, default=3.0)
        p.add_argument("--consumers", dest="n_consumers", type=int, default=5)
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--a", type=float, default=0.1)
        p.add_argument("--b", type=float, default=0.0)
        p.add_argument("--c", type=float, default=10.0)

    cluster = sub.add_parser(
        "cluster", help="run one clustering scheme on a data file",
        argument_default=argparse.SUPPRESS,
    )
    cluster.add_argument("--data", required=True)
    cluster.add_argument("--scheme", choices=evaluation.SCHEMES, default="dmoc")
    cluster.add_argument("--clusters", dest="n_clusters", type=int, required=True)
    cluster.add_argument("--seed", type=int, required=True)
    cluster.add_argument("--max-iters", type=int)
    cluster.add_argument("--tol", type=float)
    cluster.add_argument("--init", help="kmeans or random")
    cluster.add_argument("--out-dir", default="out")
    add_metric_args(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    ev = sub.add_parser("eval", help="perfect baseline and peak statistics for a data file")
    ev.add_argument("--data", required=True)
    ev.add_argument("--out")
    add_metric_args(ev)
    ev.set_defaults(func=_cmd_eval)

    exp = sub.add_parser("experiment", help="run a configured experiment sweep")
    exp.add_argument("config", nargs="?", metavar="CONFIG")
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

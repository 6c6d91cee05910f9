import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from dmoc import (
    EngineConfig, MetricSpec, PcsParams, RtpParams, cli, evaluation, gen_synthetic_pcs,
    load_profiles, pcs, rtp, save_profiles,
)


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def pcs_data_file(tmp_path):
    path = tmp_path / "profiles.csv"
    code = run_cli(
        "gen", "--kind", "pcs", "--out", str(path), "--seed", "3",
        "--slots", "6", "--samples", "24", "--archetypes", "3",
    )
    assert code == cli.EXIT_OK
    return path


def loss_curve_config(tmp_path, out_dir, m_max=3, jobs=1):
    config = {
        "experiment": "loss_curve",
        "seed": 5,
        "jobs": jobs,
        "out_dir": str(out_dir),
        "metric": {"kind": "pcs", "n_slots": 6, "p": "inf", "energy": 6.0, "x_max": 3.0},
        "engine": {"max_iters": 5, "tol": 1e-3},
        "data": {
            "synthetic": {
                "kind": "pcs", "archetypes": 3, "n_slots": 6, "n_samples": 24, "seed": 8,
            }
        },
        "loss_curve": {"m_min": 1, "m_max": m_max},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


class TestGen:
    def test_writes_expected_shape(self, pcs_data_file):
        data = load_profiles(pcs_data_file)
        assert (data.n, data.dim) == (24, 6)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("gen", "--out", str(out), "--seed", "9", "--slots", "8",
                           "--samples", "10") == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_rtp_kind(self, tmp_path):
        out = tmp_path / "rtp.csv"
        code = run_cli(
            "gen", "--kind", "rtp", "--out", str(out), "--seed", "2",
            "--consumers", "3", "--slots", "4", "--samples", "7",
        )
        assert code == cli.EXIT_OK
        assert load_profiles(out).dim == 12

    def test_seed_required(self, tmp_path, capsys):
        code = run_cli("gen", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE

    def test_flag_the_kind_does_not_take_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for kind, flag, param in (("rtp", "--archetypes", "archetypes"),
                                  ("pcs", "--consumers", "n_consumers")):
            code = run_cli("gen", "--kind", kind, flag, "3", "--out", str(out), "--seed", "1")
            assert code == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: gen --kind {kind}: ") and param in err
            assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for kind in ("pcs", "rtp"):
            assert run_cli("gen", "--kind", kind, "--out", str(out), "--seed", "-1") == cli.EXIT_USAGE
            assert capsys.readouterr().err.startswith("usage error: --seed: expected an integer >= 0")
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--archetypes", "0"], "gen --kind pcs: archetypes"),
         (["--kind", "rtp", "--g-low", "3", "--g-high", "2"], "gen --kind rtp: g_low")],
        ids=["archetypes", "g-range"],
    )
    def test_value_the_generator_rejects_is_usage_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "x.csv"
        assert run_cli("gen", *flags, "--out", str(out), "--seed", "1") == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: {named}")
        assert not out.exists()

    def test_log_level_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DMOC_LOG", "DEBUG")
        out = tmp_path / "v.csv"
        assert run_cli("gen", "--out", str(out), "--seed", "1", "--slots", "4",
                       "--samples", "5") == cli.EXIT_OK


class TestCluster:
    def test_outputs_and_exit_code(self, pcs_data_file, tmp_path):
        out_dir = tmp_path / "run"
        code = run_cli(
            "cluster", "--data", str(pcs_data_file), "--scheme", "dmoc",
            "--clusters", "3", "--seed", "1", "--slots", "6", "--energy", "6.0",
            "--out-dir", str(out_dir),
        )
        assert code == cli.EXIT_OK
        for name in ("representatives.csv", "assignment.csv", "trace.csv"):
            assert (out_dir / name).exists()
        reps = np.loadtxt(out_dir / "representatives.csv", delimiter=",", skiprows=1)
        assert reps.shape == (3, 7)

    def test_rtp_metric_path(self, tmp_path):
        data_path = tmp_path / "rtp.csv"
        assert run_cli(
            "gen", "--kind", "rtp", "--out", str(data_path), "--seed", "4",
            "--consumers", "3", "--slots", "4", "--samples", "8",
        ) == cli.EXIT_OK
        out_dir = tmp_path / "run"
        code = run_cli(
            "cluster", "--data", str(data_path), "--metric", "rtp",
            "--consumers", "3", "--slots", "4", "--clusters", "2", "--seed", "1",
            "--out-dir", str(out_dir),
        )
        assert code == cli.EXIT_OK
        reps = np.loadtxt(out_dir / "representatives.csv", delimiter=",", skiprows=1)
        assert reps.shape == (2, 5)
        assert np.all(reps[:, 1:] > 0)  # prices stay positive

    def test_missing_data_file_is_data_error(self, tmp_path):
        code = run_cli(
            "cluster", "--data", str(tmp_path / "absent.csv"), "--clusters", "2",
            "--seed", "0", "--slots", "6", "--energy", "6.0",
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == cli.EXIT_DATA

    def test_unparsable_p_is_usage_error(self, pcs_data_file, tmp_path, capsys):
        code = run_cli(
            "cluster", "--data", str(pcs_data_file), "--clusters", "2", "--seed", "0",
            "--slots", "6", "--energy", "6.0", "--p", "abc", "--out-dir", str(tmp_path / "o"),
        )
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: p ") and "'abc'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--max-iters", "0", "cluster: max_iters"), ("--tol", "-1", "cluster: "), ("--clusters", "0", "--clusters"),
         ("--seed", "-1", "--seed"), ("--tol", "nan", "cluster: ")],
    )
    def test_out_of_range_engine_flag_is_usage_error(
        self, pcs_data_file, tmp_path, capsys, flag, value, named
    ):
        flags = {"--clusters": "2", "--seed": "0", flag: value}
        code = run_cli(
            "cluster", "--data", str(pcs_data_file), *(a for kv in flags.items() for a in kv),
            "--slots", "6", "--energy", "6.0", "--out-dir", str(tmp_path / "o"),
        )
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        # the message names the setting
        assert err.startswith(f"usage error: {named}") and flag.lstrip("-").replace("-", "_") in err
        assert not (tmp_path / "o").exists()

    def test_value_the_metric_rejects_is_data_error(self, pcs_data_file, tmp_path, capsys):
        code = run_cli(
            "cluster", "--data", str(pcs_data_file), "--clusters", "2", "--seed", "0",
            "--slots", "6", "--energy", "-1", "--out-dir", str(tmp_path / "o"),
        )
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("error: energy must be > 0")

    def test_metric_flags_parsed_before_the_data_is_read(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.csv")
        for argv in (
            ("cluster", "--data", absent, "--clusters", "2", "--seed", "1", "--p", "abc"),
            ("eval", "--data", absent, "--p", "abc"),
        ):
            assert run_cli(*argv) == cli.EXIT_USAGE
            assert capsys.readouterr().err.startswith("usage error: p ")


class TestEval:
    def test_prints_metrics(self, pcs_data_file, capsys):
        code = run_cli(
            "eval", "--data", str(pcs_data_file), "--slots", "6", "--energy", "6.0",
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "perfect objective" in out
        assert "peak entropy" in out

    def test_out_file_rows(self, pcs_data_file, tmp_path):
        out = tmp_path / "eval" / "metrics.csv"
        code = run_cli(
            "eval", "--data", str(pcs_data_file), "--slots", "6", "--energy", "6.0", "--out", str(out),
        )
        assert code == cli.EXIT_OK
        data = load_profiles(pcs_data_file)
        spec = MetricSpec.for_pcs(n_slots=6, p=float("inf"), energy=6.0, x_max=3.0)
        entropy = evaluation.peak_entropy(evaluation.peak_histogram(data))
        assert out.read_text().splitlines() == [
            "metric,value",
            f"f_perfect,{evaluation.perfect_objective(spec, data):.9g}",
            f"peak_entropy_bits,{entropy:.9g}",
        ]


class TestFlags:
    """Every gen, cluster and metric flag reaches the parameter of the same name: the files
    written equal, byte for byte, those of the direct library call."""

    def test_gen_flags(self, tmp_path):
        cases = (
            (["--kind", "pcs", "--archetypes", "4", "--slots", "10", "--samples", "30",
              "--peak-kw", "2.5", "--base-kw", "0.3", "--jitter", "2", "--seed", "5"],
             gen_synthetic_pcs(archetypes=4, n_slots=10, n_samples=30, seed=5, peak_kw=2.5,
                               base_kw=0.3, jitter=2)),
            (["--kind", "rtp", "--consumers", "3", "--slots", "4", "--samples", "20",
              "--g-low", "1.5", "--g-high", "2.5", "--seed", "6"],
             rtp.generate_rtp_scenario(n_consumers=3, n_slots=4, n_samples=20, seed=6,
                                       g_low=1.5, g_high=2.5)),
        )
        for flags, data in cases:
            out, expected = tmp_path / "cli.csv", tmp_path / "lib.csv"
            assert run_cli("gen", "--out", str(out), *flags) == cli.EXIT_OK
            save_profiles(data, expected)
            assert out.read_bytes() == expected.read_bytes()

    def test_cluster_flags(self, tmp_path):
        # the pcs run stops on --tol after 2 iterations (4 at the default), the rtp run on
        # --max-iters after 3 (4 at the default)
        cases = (
            ("dmoc-approx", ["--slots", "6", "--p", "2", "--energy", "5.0", "--x-max", "2.5"],
             MetricSpec(kind="pcs", pcs=PcsParams(n_slots=6, p=2.0, energy=5.0, x_max=2.5)),
             gen_synthetic_pcs(n_slots=6, n_samples=24, seed=3),
             ["--clusters", "3", "--seed", "4", "--max-iters", "8", "--tol", "0.5",
              "--init", "random"],
             EngineConfig(n_clusters=3, max_iters=8, tol=0.5, seed=4, init="random")),
            ("dmoc", ["--metric", "rtp", "--consumers", "3", "--slots", "4", "--alpha", "0.6",
                      "--a", "0.05", "--b", "0.1", "--c", "2.0"],
             MetricSpec(kind="rtp", rtp=RtpParams(n_consumers=3, n_slots=4, alpha=0.6, a=0.05,
                                                  b=0.1, c=2.0)),
             rtp.generate_rtp_scenario(n_consumers=3, n_slots=4, n_samples=24, seed=3),
             ["--clusters", "3", "--seed", "0", "--max-iters", "3", "--tol", "1e-4",
              "--init", "random"],
             EngineConfig(n_clusters=3, max_iters=3, tol=1e-4, seed=0, init="random")),
        )
        for scheme, metric, spec, data, engine, config in cases:
            data_path, out, expected = tmp_path / "data.csv", tmp_path / "cli", tmp_path / "lib"
            save_profiles(data, data_path)
            assert run_cli("cluster", "--data", str(data_path), "--scheme", scheme,
                           "--out-dir", str(out), *engine, *metric) == cli.EXIT_OK
            # the library run reads the same rounded CSV as the command
            data = load_profiles(data_path)
            result = evaluation.run_schemes((scheme,), spec, data, config)[scheme]
            t_cols = [f"t{t}" for t in range(spec.decision_dim)]
            cli._write_csv(
                expected / "representatives.csv", ["cluster"] + t_cols,
                [[m] + [float(v) for v in row] for m, row in enumerate(result.representatives)],
            )
            cli._write_csv(
                expected / "assignment.csv", ["sample", "cluster"],
                [[n, int(c)] for n, c in enumerate(result.partition.assignment)],
            )
            cli._write_csv(
                expected / "trace.csv", ["iteration", "objective"],
                [[q, float(v)] for q, v in enumerate(result.trace.objectives, start=1)],
            )
            for name in ("representatives.csv", "assignment.csv", "trace.csv"):
                assert (out / name).read_bytes() == (expected / name).read_bytes()

    def test_readme_commands_run(self, tmp_path, monkeypatch):
        # the documented gen, cluster and eval lines, run as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```bash\n")[1].split("```")[0]
        block = block.replace("\\\n", " ")  # join continued lines
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv[1:] for argv in lines if argv[1] in ("gen", "cluster", "eval")]
        assert [argv[0] for argv in commands] == ["gen", "cluster", "eval"]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert run_cli(*argv) == cli.EXIT_OK
        assert load_profiles(tmp_path / "run" / "representatives.csv").n == 3


class TestExperiment:
    def test_loss_curve_rows(self, tmp_path):
        out_dir = tmp_path / "out"
        config = loss_curve_config(tmp_path, out_dir)
        assert run_cli("experiment", str(config)) == cli.EXIT_OK
        lines = (out_dir / "loss_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "scheme,m,objective,rho_percent,f_perfect"
        assert len(lines) == 1 + 3 * 3  # header + schemes x m-values

    def test_byte_identical_across_jobs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = loss_curve_config(tmp_path, out_a)
        assert run_cli("experiment", str(config), "--jobs", "1") == cli.EXIT_OK
        assert run_cli("experiment", str(config), "--jobs", "4",
                       "--out-dir", str(out_b)) == cli.EXIT_OK
        assert (out_a / "loss_curve.csv").read_bytes() == (out_b / "loss_curve.csv").read_bytes()

    def test_output_round_trips(self, tmp_path):
        out_dir = tmp_path / "out"
        config = loss_curve_config(tmp_path, out_dir)
        run_cli("experiment", str(config))
        path = out_dir / "loss_curve.csv"
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        rewritten = "scheme,m,objective,rho_percent,f_perfect\n" + "\n".join(
            ",".join(
                [r[0], r[1]] + [f"{float(v):.9g}" for v in r[2:]]
            )
            for r in rows
        ) + "\n"
        assert path.read_text() == rewritten

    def test_rtp_loss_curve_from_data_path(self, tmp_path):
        data_path, out_dir = tmp_path / "pricing.csv", tmp_path / "out"
        assert run_cli(
            "gen", "--kind", "rtp", "--out", str(data_path), "--seed", "3",
            "--consumers", "2", "--slots", "3", "--samples", "30",
        ) == cli.EXIT_OK
        config = {
            "experiment": "rtp_loss_curve",
            "seed": 1,
            "out_dir": str(out_dir),
            "metric": {"kind": "rtp", "n_consumers": 2, "n_slots": 3, "alpha": 0.5, "a": 0.1},
            "data": {"path": str(data_path)},
            "rtp_loss_curve": {"m_min": 1, "m_max": 3, "schemes": ["dmoc", "kmc"]},
        }
        path = tmp_path / "rtp.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_OK
        lines = (out_dir / "rtp_loss_curve.csv").read_text().splitlines()
        assert lines[0] == "scheme,m,objective,rho_percent,f_perfect"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [s, str(m)] for s in ("dmoc", "kmc") for m in (1, 2, 3)
        ]

    def test_geometry2d(self, tmp_path):
        out_dir = tmp_path / "geo"
        config = {
            "experiment": "geometry2d",
            "seed": 4,
            "out_dir": str(out_dir),
            "metric": {"kind": "pcs", "n_slots": 2, "p": "inf", "energy": 2.0, "x_max": 2.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 2, "n_slots": 2,
                                     "n_samples": 30, "seed": 6}},
            "geometry2d": {"clusters": 3},
        }
        path = tmp_path / "geo.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_OK
        lines = (out_dir / "geometry2d.csv").read_text().strip().splitlines()
        assert lines[0] == "g1,g2,kmc_label,dmoc_label"
        assert len(lines) == 31

    def test_representatives_rows(self, tmp_path):
        out_dir = tmp_path / "reps"
        config = {
            "experiment": "representatives",
            "seed": 4,
            "out_dir": str(out_dir),
            "metric": {"kind": "pcs", "n_slots": 6, "p": "inf", "energy": 6.0, "x_max": 3.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 3, "n_slots": 6,
                                     "n_samples": 30, "seed": 6}},
            "representatives": {"clusters": 3},
        }
        path = tmp_path / "reps.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_OK
        lines = (out_dir / "representatives.csv").read_text().strip().splitlines()
        # header + 2 schemes x (3 representatives + 3 cluster means)
        assert len(lines) == 1 + 2 * 6

    def test_peak_target_rows(self, tmp_path):
        out_dir = tmp_path / "pt"
        config = {
            "experiment": "peak_target",
            "seed": 2,
            "out_dir": str(out_dir),
            "metric": {"kind": "pcs", "n_slots": 6, "p": "inf", "energy": 6.0, "x_max": 3.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 2, "n_slots": 6,
                                     "n_samples": 20, "seed": 7}},
            "peak_target": {"targets": [2.0, 6.0], "m_max": 3, "schemes": ["dmoc"]},
        }
        path = tmp_path / "pt.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_OK
        lines = (out_dir / "peak_target.csv").read_text().strip().splitlines()
        assert lines[0] == "scheme,target_kw,clusters_needed"
        assert len(lines) == 3
        # the impossible 2 kW target reports the explicit not-found value
        assert lines[1].split(",")[2] == "-1"

    def test_missing_seed_is_usage_error(self, tmp_path):
        config = {
            "experiment": "loss_curve",
            "metric": {"kind": "pcs", "n_slots": 4, "p": "inf", "energy": 4.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 2, "n_slots": 4,
                                     "n_samples": 10}},
        }
        path = tmp_path / "no_seed.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_USAGE

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"experiment": "nope", "seed": 1}))
        assert run_cli("experiment", str(path)) == cli.EXIT_USAGE

    def test_missing_config_is_data_error(self, tmp_path):
        assert run_cli("experiment", str(tmp_path / "absent.yaml")) == cli.EXIT_DATA

    def test_no_config_is_usage_error(self, capsys):
        assert run_cli("experiment") == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: experiment requires a config file")

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"data": {}}, "config must provide data.path or data.synthetic"),
            ({"data": {"synthetic": {"kind": "nope"}}}, "unknown synthetic data kind 'nope'"),
            ({"metric": {"kind": "nope"}}, "metric kind must be 'pcs' or 'rtp'"),
            ({"experiment": "rtp_loss_curve"}, "rtp_loss_curve requires an rtp metric"),
            ({"experiment": "peak_target", "peak_target": {"m_max": 2}}, "peak_target experiment requires"),
            ({"experiment": "geometry2d"}, "geometry2d requires 2-slot data and metric"),
            ({"data": 5}, "data: expected a mapping"),
            (
                {"experiment": "peak_target", "peak_target": {"targets": [3.0]},
                 "metric": {"kind": "pcs", "n_slots": 4, "p": 2, "energy": 4.0}},
                "peak_target requires a pcs metric with p = inf",
            ),
            (
                {"experiment": "peak_target", "peak_target": {"targets": [3.0]},
                 "metric": {"kind": "rtp", "n_consumers": 2, "n_slots": 2, "alpha": 0.5, "a": 0.1}},
                "peak_target requires a pcs metric with p = inf",
            ),
        ],
    )
    def test_config_that_does_not_describe_a_run_is_usage_error(self, tmp_path, capsys, patch, message):
        config = {
            "experiment": "loss_curve",
            "seed": 1,
            "out_dir": str(tmp_path / "o"),
            "metric": {"kind": "pcs", "n_slots": 4, "p": "inf", "energy": 4.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 2, "n_slots": 4, "n_samples": 10}},
            **patch,
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_a_mapping_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- experiment: loss_curve\n- seed: 1\n")
        assert run_cli("experiment", str(path)) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: config: expected a mapping")

    def test_value_the_metric_rejects_is_data_error(self, tmp_path, capsys):
        config = yaml.safe_load(loss_curve_config(tmp_path, tmp_path / "o").read_text())
        config["metric"]["energy"] = -1
        path = tmp_path / "negative_energy.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("error: energy must be > 0")

    def test_solver_section_is_usage_error(self, tmp_path, capsys):
        config = {
            "experiment": "loss_curve",
            "seed": 2,
            "out_dir": str(tmp_path / "o"),
            "metric": {"kind": "pcs", "n_slots": 6, "p": "inf", "energy": 6.0, "x_max": 3.0},
            "solver": {"method": "subgradient"},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 2, "n_slots": 6,
                                     "n_samples": 12, "seed": 3}},
        }
        path = tmp_path / "solver_section.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_USAGE
        assert "'solver' section" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_section_not_matching_its_constructor_is_usage_error(self, tmp_path, capsys):
        metric = {"kind": "pcs", "n_slots": 4, "p": "inf", "energy": 4.0}
        synthetic = {"kind": "pcs", "archetypes": 2, "n_slots": 4, "n_samples": 10}
        cases = (
            # a pcs section with an rtp argument; an rtp section with a pcs one; a misspelt
            # metric field; a misspelt engine field beside a key the engine section does not take
            (metric, {**synthetic, "n_consumers": 2}, {}, "data.synthetic", "n_consumers"),
            (metric, {"kind": "rtp", "n_consumers": 2, "n_slots": 4, "n_samples": 10,
                      "archetypes": 2}, {}, "data.synthetic", "archetypes"),
            ({**metric, "n_slot": 4}, synthetic, {}, "metric", "n_slot"),
            (metric, synthetic, {"max_iter": 1, "seed": 99}, "engine", "max_iter"),
            # a section that is not a mapping; values of the wrong type (YAML 1.1 reads an
            # unquoted 3e1 as the string "3e1")
            (5, synthetic, {}, "metric", "mapping"),
            (metric, 5, {}, "data.synthetic", "mapping"),
            ({**metric, "n_slots": "4"}, synthetic, {}, "metric (pcs)", "n_slots"),
            ({**metric, "energy": "3e1", "x_max": 9.0}, synthetic, {}, "metric (pcs)", "'str'"),
            (metric, {**synthetic, "n_samples": "20"}, {}, "data.synthetic (pcs)", ""),  # numpy's message
            # a count that is not an integer, in either metric (2.5 consumers times 4 slots match
            # the 10 columns of the pricing data)
            ({"kind": "rtp", "n_consumers": 2.5, "n_slots": 4, "alpha": 0.5, "a": 0.1},
             {"kind": "rtp", "n_consumers": 5, "n_slots": 2, "n_samples": 10}, {},
             "metric (rtp)", "n_consumers: expected an integer >= 1, got 2.5"),
            ({**metric, "n_slots": 24.0}, synthetic, {}, "metric (pcs)", "n_slots: expected an integer >= 1, got 24.0"),
        )
        configs = [
            ({"metric": m, "engine": e, "data": {"synthetic": d}}, section, named)
            for m, d, e, section, named in cases
        ] + [
            # a path that is not a string; a name that is a list, not a key of its table
            ({"metric": metric, "data": {"path": 5}}, "data.path", "5"),
            ({"metric": metric, "data": {"synthetic": synthetic}, "out_dir": 5}, "out_dir", "5"),
            ({"metric": metric, "data": {"synthetic": synthetic}, "experiment": [1]}, "experiment", "[1]"),
            ({"metric": metric, "data": {"synthetic": {**synthetic, "kind": ["pcs"]}}},
             "unknown synthetic data kind", "['pcs']"),
        ]
        for patch, section, named in configs:
            config = {
                "experiment": "loss_curve",
                "seed": 1,
                "out_dir": str(tmp_path / "o"),
                **patch,
            }
            path = tmp_path / "sections.yaml"
            path.write_text(yaml.safe_dump(config))
            assert run_cli("experiment", str(path)) == cli.EXIT_USAGE, patch
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: {section}") and named in err
            assert "Traceback" not in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment, section",
        [
            ("peak_target", {"targets": 3.0}),
            ("peak_target", {"targets": [3.0], "schemes": "dmoc"}),
            ("peak_target", {"targets": ["abc"]}),
            ("peak_target", {"targets": [3.0], "m_max": "x"}),
            ("peak_target", {"targets": [3.0], "target": [2.0]}),
            ("loss_curve", {"m_max": "x"}),
            ("loss_curve", {"schemes": "dmoc"}),
            ("loss_curve", {"m_min": 1, "mmax": 3}),
            ("rtp_loss_curve", {"m_min": [1]}),
            ("rtp_loss_curve", {"schemes": "kmc"}),
            ("geometry2d", {"clusters": "x"}),
            ("geometry2d", {"cluster": 3}),
            ("representatives", {"clusters": [3]}),
            ("representatives", {"clusters": 3, "scheme": "dmoc"}),
            ("engine", {"max_iters": "x"}),
            ("loss_curve", {"m_max": 2, "schemes": ["dmocx"]}),
            ("peak_target", {"targets": [3.0], "schemes": ["dmocx"]}),
            ("loss_curve", {"m_min": 5, "m_max": 2}),
            ("peak_target", {"targets": [3.0], "m_max": 0}),
            ("engine", {"init": "foo"}),
            # the top-level seed and jobs, and the --jobs flag
            ("jobs", "abc"),
            ("jobs", 0),
            ("jobs", -2),
            ("jobs", 1.5),
            ("seed", 1.5),
            ("seed", "abc"),
            ("--jobs", "0"),
            # integer settings must be integers, and the engine's ranges are checked on reading
            ("loss_curve", {"m_min": 1.5, "m_max": 2.7}),
            ("loss_curve", {"m_min": True, "m_max": 2}),
            ("geometry2d", {"clusters": 2.9}),
            ("engine", {"max_iters": 2.5}),
            ("engine", {"max_iters": True}),
            ("engine", {"max_iters": 0}),
            ("engine", {"tol": -1}),
            ("engine", {"tol": float("nan")}),
        ],
    )
    def test_malformed_experiment_section_is_usage_error(
        self, tmp_path, capsys, experiment, section
    ):
        if experiment == "rtp_loss_curve":
            metric = {"kind": "rtp", "n_consumers": 2, "n_slots": 2, "alpha": 0.5, "a": 0.1}
            data = {"kind": "rtp", "n_consumers": 2, "n_slots": 2, "n_samples": 8}
        else:
            metric = {"kind": "pcs", "n_slots": 2, "p": "inf", "energy": 2.0, "x_max": 2.0}
            data = {"kind": "pcs", "archetypes": 2, "n_slots": 2, "n_samples": 8}
        config = {
            "experiment": experiment if experiment in cli.EXPERIMENTS else "loss_curve",
            "seed": 1,
            "out_dir": str(tmp_path / "o"),
            "metric": metric,
            "data": {"synthetic": data},
        }
        flags = [experiment, section] if experiment.startswith("--") else []
        if not flags:
            config[experiment] = section
        path = tmp_path / "section.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path), *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {experiment.lstrip('-')}: ")
        if isinstance(section, dict) and section.get("schemes") == ["dmocx"]:
            assert str(evaluation.SCHEMES) in err
        assert not (tmp_path / "o").exists()

    def test_readme_experiment_config_runs(self, tmp_path):
        # the documented config, cut to M = 1..2, must stay valid for the section readers
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 1
        config = yaml.safe_load(blocks[0])
        config["out_dir"] = str(tmp_path / "out")
        config["loss_curve"]["m_max"] = 2
        path = tmp_path / "readme.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_OK
        lines = (tmp_path / "out" / f"{config['experiment']}.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2

    def test_unparsable_metric_p_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        config = yaml.safe_load(loss_curve_config(tmp_path, out_dir).read_text())
        config["metric"]["p"] = "abc"
        path = tmp_path / "bad_p.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: p ")
        assert not out_dir.exists()

    def test_solver_failure_is_solver_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pcs, "_IPM_MAX_ITERS", 0)
        config = {
            "experiment": "loss_curve",
            "seed": 2,
            "out_dir": str(tmp_path / "o"),
            "metric": {"kind": "pcs", "n_slots": 6, "p": 2, "energy": 6.0, "x_max": 3.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 2, "n_slots": 6,
                                     "n_samples": 12, "seed": 3}},
            "loss_curve": {"m_min": 1, "m_max": 1, "schemes": ["dmoc"]},
        }
        path = tmp_path / "solver_fail.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run_cli("experiment", str(path)) == cli.EXIT_SOLVER


class TestScipyFreeRuntime:
    def test_commands_run_without_scipy(self, tmp_path):
        # scipy set to None in sys.modules makes every scipy import fail
        script = f"""
import sys
sys.modules["scipy"] = None
from dmoc import cli
out = {str(tmp_path)!r}
def run(*argv):
    code = cli.main(list(argv))
    assert code == cli.EXIT_OK, (argv, code)
run("gen", "--out", out + "/pcs.csv", "--seed", "3", "--slots", "6", "--samples", "24")
run("cluster", "--data", out + "/pcs.csv", "--clusters", "3", "--seed", "1", "--slots", "6",
    "--energy", "6.0", "--p", "inf", "--out-dir", out + "/pcs")
run("eval", "--data", out + "/pcs.csv", "--slots", "6", "--energy", "6.0")
run("gen", "--kind", "rtp", "--out", out + "/rtp.csv", "--seed", "4", "--consumers", "3",
    "--slots", "4", "--samples", "8")
run("cluster", "--data", out + "/rtp.csv", "--metric", "rtp", "--consumers", "3",
    "--slots", "4", "--clusters", "2", "--seed", "1", "--out-dir", out + "/rtp")
"""
        src = Path(cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pcs" / "representatives.csv").exists()
        assert (tmp_path / "rtp" / "representatives.csv").exists()

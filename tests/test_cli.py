import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from dmoc import cli, load_profiles, pcs


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


class TestEval:
    def test_prints_metrics(self, pcs_data_file, capsys):
        code = run_cli(
            "eval", "--data", str(pcs_data_file), "--slots", "6", "--energy", "6.0",
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "perfect objective" in out
        assert "peak entropy" in out


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
            # a pcs section without archetypes; an rtp section with them; a misspelt metric field
            (metric, {"kind": "pcs", "n_slots": 4, "n_samples": 10}, "data.synthetic", "archetypes"),
            (metric, {"kind": "rtp", "n_consumers": 2, "n_slots": 4, "n_samples": 10,
                      "archetypes": 2}, "data.synthetic", "archetypes"),
            ({**metric, "n_slot": 4}, synthetic, "metric", "n_slot"),
        )
        for metric_section, synthetic_section, section, named in cases:
            config = {
                "experiment": "loss_curve",
                "seed": 1,
                "out_dir": str(tmp_path / "o"),
                "metric": metric_section,
                "data": {"synthetic": synthetic_section},
            }
            path = tmp_path / "sections.yaml"
            path.write_text(yaml.safe_dump(config))
            assert run_cli("experiment", str(path)) == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: {section}") and named in err
            assert not (tmp_path / "o").exists()

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
        monkeypatch.setattr(pcs, "_SUBGRADIENT_MAX_ITERS", 2)
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

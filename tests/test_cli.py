"""End-to-end CLI tests: subcommands, flags, exit codes, output formats."""

import csv
import io
import math
import os
import subprocess
import sys

import pytest

import cheshire
from cheshire.cli import locate_max, main
from cheshire.meter import parse_complex
from cheshire.sampler import read_trials_csv

R3 = repr(1.0 / math.sqrt(3.0))
RH = repr(math.sqrt(0.5))

EXAMPLE_TEXT = f"""
prep={R3}+0i,0+0i,{R3}+0i,{R3}+0i
post={R3}+0i,0+0i,{R3}+0i,-{R3}+0i
g_a=2
g_b=2
seed=42
n_trials=2000
"""

CHESHIRE_TEXT = f"""
prep={RH},0,0.5,0.5
post={RH},0,0.5,-0.5
g_a=2
g_b=2
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(EXAMPLE_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def cheshire_path(tmp_path):
    path = tmp_path / "cheshire.cfg"
    path.write_text(CHESHIRE_TEXT, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def key_values(out: str) -> dict:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


class TestAnalytic:
    def test_example_report(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "analytic", "--config", config_path)
        assert code == 0
        report = key_values(out)
        assert float(report["c_analytic"]) == pytest.approx(0.32700394770794876, abs=1e-12)
        assert float(report["p_success"]) == pytest.approx(0.3032588259474194, abs=1e-12)
        assert parse_complex(report["trace_term"]) == pytest.approx(2 / 9, abs=1e-12)
        assert parse_complex(report["weak_value_presence"]) == pytest.approx(1.0, abs=1e-12)
        assert parse_complex(report["weak_value_polarization"]) == pytest.approx(2.0, abs=1e-12)
        assert float(report["negativity"]) > 0.0
        assert float(report["x_mean"]) > 0.0

    def test_extremal_states_line(self, capsys, cheshire_path):
        code, out, _ = run_cli(capsys, "analytic", "--config", cheshire_path)
        assert code == 0
        assert out.startswith("c_analytic=0.367879")
        assert float(key_values(out)["c_analytic"]) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_coupling_line(self, capsys, tmp_path):
        path = tmp_path / "weak.cfg"
        path.write_text(EXAMPLE_TEXT.replace("g_a=2", "g_a=0"), encoding="utf-8")
        code, out, _ = run_cli(capsys, "analytic", "--config", str(path))
        assert code == 0
        assert float(key_values(out)["c_analytic"]) == 0.0

    def test_out_flag_writes_file(self, capsys, config_path, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "analytic", "--config", config_path,
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert "c_analytic=" in target.read_text(encoding="utf-8")

    def test_effect_config_reports_nan_diagnostics(self, capsys, tmp_path):
        entries = ["0+0i"] * 16
        for k in (0, 5):
            entries[k] = "1+0i"
        path = tmp_path / "effect.cfg"
        path.write_text(
            f"prep={R3},0,{R3},{R3}\npost_effect={','.join(entries)}\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "analytic", "--config", str(path))
        assert code == 0
        report = key_values(out)
        assert math.isfinite(float(report["c_analytic"]))
        assert math.isnan(float(report["x_mean"]))
        assert math.isnan(float(report["negativity"]))


class TestExitCodes:
    def test_missing_config_flag(self, capsys):
        code, _, err = run_cli(capsys, "analytic")
        assert code == 2
        assert "config" in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analytic", "--config", str(tmp_path / "no.cfg"))
        assert code == 2
        assert "config" in err

    def test_invalid_field_names_it(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(EXAMPLE_TEXT.replace("g_a=2", "g_a=-1"), encoding="utf-8")
        code, _, err = run_cli(capsys, "analytic", "--config", str(path))
        assert code == 2
        assert "g_a" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2


class TestDumpConfig:
    def test_round_trip(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "analytic", "--config", config_path, "--dump-config")
        assert code == 0
        from cheshire.config import dump_config, load_config, parse_config_text
        assert dump_config(parse_config_text(out)) == out
        assert dump_config(load_config(config_path)) == out

    def test_reflects_overrides(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--seed", "9", "--trials", "555", "--dump-config")
        assert code == 0
        report = key_values(out)
        assert report["seed"] == "9"
        assert report["n_trials"] == "555"


class TestSweep:
    def test_csv_structure_and_oracle_agreement(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "sweep", "--config", config_path,
                               "--g-min", "0", "--g-max", "4", "--steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g_a,g_b,c_analytic,c_grid,p_success,negativity"
        assert lines[-1].startswith("# max |c_analytic|")
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:-1]))))
        assert len(rows) == 5
        g_values = [float(r[0]) for r in rows]
        assert g_values == sorted(g_values) == [0.0, 1.0, 2.0, 3.0, 4.0]
        for row in rows:
            assert float(row[0]) == float(row[1])
            assert abs(float(row[2]) - float(row[3])) <= 1e-8
        first = rows[0]
        assert float(first[2]) == 0.0
        assert float(first[4]) == pytest.approx(1 / 9, abs=1e-12)

    def test_locates_maximum_at_two(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "sweep", "--config", config_path, "--steps", "161")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [[float(v) for v in r]
                for r in csv.reader(io.StringIO("\n".join(lines[1:-1])))]
        g_a, g_b, c = locate_max(rows)
        assert g_a == pytest.approx(2.0, abs=0.025)
        assert g_b == g_a
        assert c == pytest.approx(0.32700394770794876, abs=1e-6)
        assert f"g_a={g_a:.17g}" in lines[-1]

    def test_grid_too_small_propagates(self, capsys, config_path):
        code, _, err = run_cli(capsys, "sweep", "--config", config_path, "--g-max", "14")
        assert code == 2
        assert "grid" in err.lower() or "shift" in err.lower()
        code, _, err = run_cli(capsys, "sweep", "--config", config_path, "--g-max", "30")
        assert code == 2
        assert "shift" in err and "off the grid" in err

    def test_too_few_steps(self, capsys, config_path):
        code, _, err = run_cli(capsys, "sweep", "--config", config_path, "--steps", "1")
        assert code == 2
        assert "steps" in err


class TestMonteCarlo:
    def test_summary_and_determinism(self, capsys, config_path):
        argv = ("montecarlo", "--config", config_path, "--grid-points", "1001")
        code, out1, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out2, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out1 == out2
        report = key_values(out1)
        assert report["n_trials"] == "2000"
        assert report["seed"] == "42"
        assert abs(float(report["z_score"])) < 5.0
        assert 0.0 < float(report["p_hat"]) < 1.0
        assert float(report["std_error"]) > 0.0

    def test_thread_count_does_not_change_output(self, capsys, config_path, monkeypatch):
        argv = ("montecarlo", "--config", config_path,
                "--trials", "140000", "--grid-points", "801")
        monkeypatch.setenv("CHESHIRE_THREADS", "1")
        _, out1, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("CHESHIRE_THREADS", "4")
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_dump_trials(self, capsys, config_path, tmp_path):
        target = tmp_path / "trials.csv"
        code, out, _ = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--trials", "300", "--grid-points", "1001",
                               "--dump-trials", str(target))
        assert code == 0
        first = target.read_text(encoding="utf-8").splitlines()[0]
        assert first == "tau,x,y"
        trials = read_trials_csv(target)
        assert len(trials) == 300

    def test_over_budget_acceptance_ratio_exits_three(self, capsys, config_path, monkeypatch):
        # amplitudes beyond the realizability budget of the configured weights
        monkeypatch.setattr(cheshire.sampler, "_check_realizable", lambda amps, weights: None)
        monkeypatch.setattr(cheshire.config.ExperimentConfig, "amplitudes",
                            lambda self: cheshire.TransitionAmplitudes(1.0, 0.0, 0.0))
        code, _, err = run_cli(capsys, "montecarlo", "--config", config_path)
        assert code == 3
        assert "acceptance ratio" in err

    def test_dump_trials_leaves_report_unchanged(self, capsys, config_path, tmp_path):
        argv = ("montecarlo", "--config", config_path, "--trials", "140000")
        code, streamed, _ = run_cli(capsys, *argv)
        assert code == 0
        code, stored, _ = run_cli(capsys, *argv, "--dump-trials", str(tmp_path / "t.csv"))
        assert code == 0
        assert streamed == stored

    def test_needs_hundred_trials(self, capsys, config_path):
        code, _, err = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--trials", "50")
        assert code == 2
        assert "n_trials" in err

    def test_rejects_effect_config(self, capsys, tmp_path):
        entries = ["0+0i"] * 16
        for k in (0, 5):
            entries[k] = "1+0i"
        path = tmp_path / "effect.cfg"
        path.write_text(
            f"prep={R3},0,{R3},{R3}\npost_effect={','.join(entries)}\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "montecarlo", "--config", str(path))
        assert code == 2
        assert "post" in err


class TestGridScope:
    @pytest.mark.parametrize("command", ["analytic", "montecarlo"])
    def test_coupling_beyond_grid_runs(self, capsys, tmp_path, command):
        # the grid belongs to the sweep's oracle; these subcommands never use it
        path = tmp_path / "large.cfg"
        path.write_text(EXAMPLE_TEXT.replace("g_a=2", "g_a=15"), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 0, err
        assert key_values(out)["c_analytic"]


class TestOptimize:
    def test_state_search_reaches_extremal_value(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "optimize", "--g-a", "2", "--g-b", "2")
        assert code == 0
        report = key_values(out)
        assert float(report["c_optimal"]) == pytest.approx(math.exp(-1.0), abs=1e-6)
        assert parse_complex(report["trace_term"]).real == pytest.approx(0.25, abs=1e-6)
        # the printed states form a valid config reaching the same value
        path = tmp_path / "optimal.cfg"
        path.write_text(
            f"prep={report['prep']}\npost={report['post']}\ng_a=2\ng_b=2\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "analytic", "--config", str(path))
        assert code == 0
        c_line = key_values(out)["c_analytic"]
        assert float(c_line) == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_coupling_search_with_config(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "optimize", "--config", config_path)
        assert code == 0
        report = key_values(out)
        assert float(report["g_a_optimal"]) == pytest.approx(2.0, abs=1e-6)
        assert float(report["g_b_optimal"]) == pytest.approx(2.0, abs=1e-6)
        assert float(report["c_optimal"]) == pytest.approx(0.32700394770794876, abs=1e-9)

    def test_flat_objective_exits_two(self, capsys, tmp_path):
        path = tmp_path / "flat.cfg"
        path.write_text(f"prep={R3},0,{R3},{R3}\npost=0,0,1,0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 2
        assert "vanishes" in err

    def test_dump_config_without_config_fails(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--dump-config")
        assert code == 2
        assert "config" in err


class TestEntryPoint:
    def test_module_invocation_shows_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cheshire.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for name in ("analytic", "sweep", "montecarlo", "optimize"):
            assert name in proc.stdout

    def test_import_does_not_load_scipy(self):
        # only optimize_states needs scipy, and it imports it on first use
        src = os.path.dirname(os.path.dirname(cheshire.__file__))
        probe = "import sys, cheshire; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

"""End-to-end CLI tests: subcommands, flags, exit codes, output formats."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cheshire
from cheshire.cli import locate_max, main
from cheshire.errors import CheshireError, ValidationError
from cheshire.config import format_complex, parse_complex

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

# a POVM element with coherences between every branch pair:
# E = |post><post| / 2 + I / 4 for the example's post
_POST = np.array([1.0, 0.0, 1.0, -1.0]) / math.sqrt(3.0)
EFFECT_ENTRIES = ",".join(
    format_complex(z) for z in (0.5 * np.outer(_POST, _POST) + 0.25 * np.eye(4)).ravel()
)

# the README's config-format example
README_TEXT = """
prep   = 0.57735026918962573+0i, 0+0i, 0.57735026918962573+0i, 0.57735026918962573+0i
post   = 0.57735026918962573+0i, 0+0i, 0.57735026918962573+0i, -0.57735026918962573+0i
g_a    = 2.0
g_b    = 2.0
noise_a = 0.0
noise_b = 0.0
n_trials = 1000000
seed   = 0
grid   = -20, 20, 4001
"""
README_MONTECARLO = (
    "c_hat=0.32216863402445989\n"
    "std_error=0.0059375038825522919\n"
    "p_hat=0.3024857142857143\n"
    "n_trials=140000\n"
    "c_analytic=0.32700394770794872\n"
    "z_score=-0.81436808785888726\n"
    "seed=0\n"
)
README_TRIALS_SHA256 = "a82f3b5561d122d3e6dbaebb3440c4dc10b871c2295fb0c77165d797d0e0f31f"
# stdout of `analytic` and of `sweep --steps 161` (the grid oracle beside the
# closed form) on the README example, pinned
README_ANALYTIC_SHA256 = "1ad2b7205a8ce003b51712ad0a26f218af0fbc2bd9bd13c8d3243eaef8226622"
README_SWEEP_SHA256 = "f0667e16a3ef965b3fc0a2124df2ca7d675c6bb7372dfe19cceb628184e3f783"
# the same sweep with `grid = -20, 20, N` in the config: coarser grids give other bits
README_SWEEP_GRID_SHA256 = {
    801: "024372aad9d48a391a183d09ca2341b07851b25c243343b45af178fbb89a72db",
    2001: "3f5bf0a88723a93b67b7b4ecdb64c5e4c12a0838db266ecfbd4968ec3265dca0",
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(EXAMPLE_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def readme_path(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(README_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def cheshire_path(tmp_path):
    path = tmp_path / "cheshire.cfg"
    path.write_text(CHESHIRE_TEXT, encoding="utf-8")
    return str(path)


def _package_errors(cls):
    """cls and every subclass of it, found by walking ``__subclasses__()``."""
    return {cls}.union(*(_package_errors(sub) for sub in cls.__subclasses__()))


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

    def test_readme_example_bytes(self, capsys, readme_path):
        code, out, _ = run_cli(capsys, "analytic", "--config", readme_path)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == README_ANALYTIC_SHA256

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

    def test_effect_config_reports_finite_diagnostics(self, capsys, tmp_path):
        # E = Pi_L keeps only the left branch: K = diag(1/3, 0, 0)
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
        assert float(report["c_analytic"]) == 0.0
        assert float(report["p_success"]) == pytest.approx(1 / 3, abs=1e-15)
        assert parse_complex(report["weak_value_presence"]) == pytest.approx(1.0, abs=1e-15)
        assert parse_complex(report["weak_value_polarization"]) == 0.0
        assert float(report["x_mean"]) == pytest.approx(2.0, abs=1e-15)
        assert float(report["y_mean"]) == 0.0
        assert float(report["negativity"]) == 0.0


class TestExitCodes:
    def test_missing_config_flag(self, capsys):
        code, _, err = run_cli(capsys, "analytic")
        assert code == 2
        assert "config" in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analytic", "--config", str(tmp_path / "no.cfg"))
        assert code == 2
        assert "config" in err

    def test_config_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"prep=1,0,0,0\npost=1,0,0,0\n# caf\xe9\n")
        code, out, err = run_cli(capsys, "analytic", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config: cannot read {path}: ") and err.count("\n") == 1

    def test_invalid_field_names_it(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(EXAMPLE_TEXT.replace("g_a=2", "g_a=-1"), encoding="utf-8")
        code, _, err = run_cli(capsys, "analytic", "--config", str(path))
        assert code == 2
        assert "g_a" in err

    @pytest.mark.parametrize("line", ["noise_a = 1e100", "noise_b = 1e200", "g_a = 1e60"])
    def test_scale_beyond_the_readout_bound_exits_two(self, capsys, tmp_path, line):
        # squared readout products would overflow: nan or an infinite
        # standard error, printed with exit 0, if the run went ahead
        key = line.split(" = ")[0]
        path = tmp_path / "big.cfg"
        path.write_text(README_TEXT.replace(f"{key} ", f"# {key} ") + line + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "montecarlo", "--config", str(path), "--trials", "1000")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("analytic", "--seed", "1"),
        ("analytic", "--trials", "5"),
        ("sweep", "--trials", "5"),
        ("sweep", "--grid-points", "801"),
        ("montecarlo", "--grid-points", "801"),
        ("optimize", "--trials", "5"),
    ], ids=lambda argv: " ".join(argv))
    def test_flag_the_subcommand_does_not_read_exits_two(self, capsys, config_path, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--config", config_path])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("error", sorted(_package_errors(CheshireError), key=lambda e: e.__name__),
                             ids=lambda error: error.__name__)
    def test_every_package_error_exits_with_its_code(self, capsys, config_path, monkeypatch, error):
        def cmd_analytic(args, config):
            raise error("injected")

        monkeypatch.setattr(cheshire.cli, "cmd_analytic", cmd_analytic)
        code, out, err = run_cli(capsys, "analytic", "--config", config_path)
        assert code == error.exit_code
        assert code == (3 if error.__name__ in ("ConsistencyError", "PositivityError") else 2)
        assert (out, err) == ("", "error: injected\n")

    def test_walk_finds_the_base_and_its_six_subclasses(self):
        assert sorted(e.__name__ for e in _package_errors(CheshireError)) == [
            "CheshireError", "ConsistencyError", "FlatObjective", "GridTooSmall",
            "OrthogonalPostselection", "PositivityError", "ValidationError"]

    # sizes no address space holds, so the allocator refuses them at once
    # rather than overcommitting
    def test_refused_sweep_allocation_exits_two(self, capsys, config_path):
        code, out, err = run_cli(capsys, "sweep", "--config", config_path, "--steps", str(10**18))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_refused_trial_allocation_exits_two_and_removes_the_dump(self, capsys, config_path,
                                                                     tmp_path):
        target = tmp_path / "trials.csv"
        code, out, err = run_cli(capsys, "montecarlo", "--config", config_path,
                                 "--trials", str(10**18), "--dump-trials", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.exists()
        assert os.listdir(tmp_path) == ["example.cfg"]


class TestUnwritableOutput:
    """An output path that cannot be opened is bad input: exit 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ("analytic", "--config"),
        ("sweep", "--steps", "3", "--config"),
        ("montecarlo", "--trials", "200", "--config"),
        ("optimize", "--config"),
        ("analytic", "--dump-config", "--config"),
    ], ids=["analytic", "sweep", "montecarlo", "optimize-config", "dump-config"])
    def test_out_exits_two(self, capsys, config_path, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, config_path, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: out: cannot write {target}: ")

    def test_out_exits_two_for_state_optimum(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        code, _, err = run_cli(capsys, "optimize", "--g-a", "2", "--g-b", "2", "--out", str(target))
        assert code == 2
        assert err.startswith(f"error: out: cannot write {target}: ")

    def test_dump_trials_exits_two(self, capsys, config_path, tmp_path):
        target = tmp_path / "missing" / "trials.csv"
        code, out, err = run_cli(capsys, "montecarlo", "--config", config_path,
                                 "--trials", "200", "--dump-trials", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: dump-trials: cannot write {target}: ")

    def test_unwritable_dump_target_fails_before_sampling(self, capsys, config_path, tmp_path,
                                                          monkeypatch):
        def sample_trials(*args, **kwargs):
            raise AssertionError("trials drawn before the dump target was opened")

        monkeypatch.setattr(cheshire.cli, "sample_trials", sample_trials)
        target = tmp_path / "missing" / "trials.csv"
        code, _, err = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--trials", "1000000", "--dump-trials", str(target))
        assert code == 2
        assert err.startswith(f"error: dump-trials: cannot write {target}: ")

    def test_failed_sampling_leaves_no_dump_file(self, capsys, config_path, tmp_path, monkeypatch):
        def sample_trials(*args, **kwargs):
            raise ValidationError("sampling failed")

        monkeypatch.setattr(cheshire.cli, "sample_trials", sample_trials)
        target = tmp_path / "trials.csv"
        code, _, err = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--trials", "200", "--dump-trials", str(target))
        assert code == 2
        assert "sampling failed" in err
        assert not target.exists()
        assert os.listdir(tmp_path) == ["example.cfg"]

    def test_failed_sampling_keeps_an_existing_file(self, capsys, config_path, tmp_path,
                                                    monkeypatch):
        def sample_trials(*args, **kwargs):
            raise ValidationError("sampling failed")

        monkeypatch.setattr(cheshire.cli, "sample_trials", sample_trials)
        target = tmp_path / "trials.csv"
        target.write_bytes(b"kept\n")
        code, _, _ = run_cli(capsys, "montecarlo", "--config", config_path,
                             "--trials", "200", "--dump-trials", str(target))
        assert code == 2
        assert target.read_bytes() == b"kept\n"
        assert sorted(os.listdir(tmp_path)) == ["example.cfg", "trials.csv"]

    def test_failed_sampling_never_removes_a_device(self, capsys, config_path, monkeypatch):
        removed = []

        def sample_trials(*args, **kwargs):
            raise ValidationError("sampling failed")

        monkeypatch.setattr(cheshire.cli, "sample_trials", sample_trials)
        monkeypatch.setattr(os, "remove", removed.append)
        code, _, _ = run_cli(capsys, "montecarlo", "--config", config_path,
                             "--trials", "200", "--dump-trials", os.devnull)
        assert code == 2
        assert removed == []

    def test_existing_file_is_replaced(self, capsys, config_path, tmp_path):
        fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"x" * 100_000)
        for target in (fresh, existing):
            code, _, _ = run_cli(capsys, "montecarlo", "--config", config_path,
                                 "--trials", "200", "--dump-trials", str(target))
            assert code == 0
        assert existing.read_bytes() == fresh.read_bytes()

    def test_directory_as_dump_target_exits_two(self, capsys, config_path, tmp_path):
        code, _, err = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--trials", "200", "--dump-trials", str(tmp_path))
        assert code == 2
        assert "dump-trials: cannot write" in err


class TestReplacingWriter:
    """Every output file is replaced only once its run succeeds."""

    def test_failed_out_write_keeps_the_existing_file(self, config_path, tmp_path):
        # a write that fails mid-file, as on a full disk: the child may write no
        # file past 100 bytes, and the report is longer
        child = ("import resource, signal, sys\n"
                 "from cheshire.cli import main\n"
                 "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                 "resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        directory = tmp_path / "out"
        directory.mkdir()
        target = directory / "report.txt"
        target.write_bytes(b"keep\n")
        proc = _run_python("-c", child, "analytic", "--config", config_path, "--out", str(target))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: out: cannot write {target}: ")
        assert target.read_bytes() == b"keep\n"
        assert os.listdir(directory) == ["report.txt"]

    @pytest.mark.parametrize("kind", ["fresh", "existing", "symlink"])
    def test_out_keeps_the_mode_open_gives_and_the_link(self, capsys, config_path, tmp_path,
                                                        kind):
        # a rename gives the target the temporary file's mode, and would put a
        # file where the link was
        mask = os.umask(0)
        os.umask(mask)
        target = path = tmp_path / "report.txt"
        if kind != "fresh":
            target.write_bytes(b"keep\n")
            target.chmod(0o640)
        if kind == "symlink":
            path = tmp_path / "link.txt"
            path.symlink_to(target)
        code, _, _ = run_cli(capsys, "analytic", "--config", config_path, "--out", str(path))
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("c_analytic=")
        assert path.is_symlink() == (kind == "symlink")
        assert target.stat().st_mode & 0o7777 == (0o666 & ~mask if kind == "fresh" else 0o640)

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_out_to_dev_stdout_on_a_pipe(self, capsys, config_path):
        # /dev/stdout is no regular file, so it is written in place
        _, report, _ = run_cli(capsys, "analytic", "--config", config_path)
        proc = _run_python("-m", "cheshire.cli", "analytic", "--config", config_path,
                           "--out", "/dev/stdout")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, report, "")

    @pytest.mark.parametrize("flag", ["--out", "--dump-trials"])
    def test_directory_that_takes_no_new_file_exits_two(self, capsys, config_path, tmp_path,
                                                        monkeypatch, flag):
        # a writable file in a directory that refuses the temporary file; a
        # stand-in refuses it, since directory modes do not bind root
        def refuse_new_files(file, mode="r", *args, **kwargs):
            if "x" in mode:
                raise PermissionError(13, "Permission denied", file)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cheshire.cli, "open", refuse_new_files, raising=False)
        target = tmp_path / "kept.txt"
        target.write_bytes(b"keep\n")
        code, out, err = run_cli(capsys, "montecarlo", "--config", config_path, "--trials", "200",
                                 flag, str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag[2:]}: cannot write {target}: ")
        assert target.read_bytes() == b"keep\n"
        assert sorted(os.listdir(tmp_path)) == ["example.cfg", "kept.txt"]


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


class TestPipelineOrder:
    """The same-file check first, then the config, then --dump-config, then the
    subcommand, then --out."""

    def test_dump_config_answers_before_the_trial_minimum(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--trials", "50", "--dump-config")
        assert code == 0
        assert key_values(out)["n_trials"] == "50"

    def test_dump_config_goes_to_out(self, capsys, config_path, tmp_path):
        target = tmp_path / "dump.cfg"
        code, out, err = run_cli(capsys, "analytic", "--config", config_path,
                                 "--dump-config", "--out", str(target))
        assert (code, out, err) == (0, "", "")
        from cheshire.config import dump_config, load_config
        assert target.read_text(encoding="utf-8") == dump_config(load_config(config_path))

    @pytest.mark.parametrize("argv", [
        ("optimize", "--g-a", "0", "--g-b", "2"),
        ("sweep", "--g-max", "30", "--steps", "3", "--config"),
    ], ids=["flat-objective", "grid-too-small"])
    def test_failed_run_leaves_out_as_it_was(self, capsys, config_path, tmp_path, argv):
        target = tmp_path / "out.txt"
        target.write_text("keep", encoding="utf-8")
        argv = argv + (config_path,) if argv[-1] == "--config" else argv
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert target.read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize("via", ["same-name", "symlink", "hardlink"])
    def test_dump_trials_and_out_on_one_file_exit_two_before_sampling(
            self, capsys, config_path, tmp_path, monkeypatch, via):
        # --out, written after the run, would replace the trials by the summary
        def sample_trials(*args, **kwargs):
            raise AssertionError("trials drawn for a dump that --out would overwrite")

        monkeypatch.setattr(cheshire.cli, "sample_trials", sample_trials)
        target = tmp_path / "same.csv"
        target.write_text("keep", encoding="utf-8")
        dump = target
        if via == "symlink":
            dump = tmp_path / "link.csv"
            dump.symlink_to(target)
        if via == "hardlink":
            dump = tmp_path / "link.csv"
            os.link(target, dump)
        code, out, err = run_cli(capsys, "montecarlo", "--config", config_path, "--trials", "1000",
                                 "--dump-trials", str(dump), "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: dump-trials: {dump} is also the --out file\n"
        assert target.read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize("argv", [
        ("montecarlo", "--trials", "200", "--dump-trials"),
        ("analytic", "--out"),
        ("analytic", "--dump-config", "--out"),
    ], ids=["dump-trials", "out", "dump-config-out"])
    def test_output_on_the_config_file_exits_two_before_reading_it(
            self, capsys, config_path, monkeypatch, argv):
        def load_config(path):
            raise AssertionError("config read by a run that would overwrite it")

        monkeypatch.setattr(cheshire.cli, "load_config", load_config)
        with open(config_path, "rb") as fh:
            before = fh.read()
        code, out, err = run_cli(capsys, *argv, config_path, "--config", config_path)
        what = argv[-1][2:]
        assert (code, out, err) == (2, "", f"error: {what}: {config_path} is also the --config file\n")
        with open(config_path, "rb") as fh:
            assert fh.read() == before


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

    def test_readme_example_bytes(self, capsys, readme_path):
        code, out, _ = run_cli(capsys, "sweep", "--config", readme_path, "--steps", "161")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == README_SWEEP_SHA256

    @pytest.mark.parametrize("points", sorted(README_SWEEP_GRID_SHA256))
    def test_readme_example_bytes_on_coarser_grids(self, capsys, tmp_path, points):
        path = tmp_path / "coarse.cfg"
        path.write_text(README_TEXT.replace("-20, 20, 4001", f"-20, 20, {points}"), encoding="utf-8")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path), "--steps", "161")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == README_SWEEP_GRID_SHA256[points]

    def test_grid_too_small_propagates(self, capsys, config_path):
        code, _, err = run_cli(capsys, "sweep", "--config", config_path, "--g-max", "14")
        assert code == 2
        assert "grid" in err.lower() or "shift" in err.lower()
        code, _, err = run_cli(capsys, "sweep", "--config", config_path, "--g-max", "30")
        assert code == 2
        assert "shift" in err and "off the grid" in err

    def test_effect_config_runs(self, capsys, tmp_path):
        path = tmp_path / "effect.cfg"
        path.write_text(f"prep={R3},0,{R3},{R3}\npost_effect={EFFECT_ENTRIES}\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), "--steps", "9")
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))[1:-1]
        assert len(rows) == 9
        assert max(abs(float(r[2])) for r in rows) > 0.01
        assert all(float(r[5]) >= 0.0 for r in rows)

    def test_too_few_steps(self, capsys, config_path):
        code, _, err = run_cli(capsys, "sweep", "--config", config_path, "--steps", "1")
        assert code == 2
        assert "steps" in err


class TestMonteCarlo:
    def test_summary_and_determinism(self, capsys, config_path):
        argv = ("montecarlo", "--config", config_path)
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
        argv = ("montecarlo", "--config", config_path, "--trials", "140000")
        monkeypatch.setenv("CHESHIRE_THREADS", "1")
        _, out1, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("CHESHIRE_THREADS", "4")
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("raw", ["65", str(10**6)])
    def test_thread_count_above_the_bound_exits_two(self, capsys, config_path, monkeypatch,
                                                    no_worker_threads, raw):
        monkeypatch.setenv("CHESHIRE_THREADS", raw)
        code, out, err = run_cli(capsys, "montecarlo", "--config", config_path, "--trials", "100")
        assert code == 2 and out == ""
        assert f"CHESHIRE_THREADS must be in [1, 64], got {raw}" in err

    def test_dump_trials(self, capsys, config_path, tmp_path):
        target = tmp_path / "trials.csv"
        code, out, _ = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--trials", "300", "--dump-trials", str(target))
        assert code == 0
        first = target.read_text(encoding="utf-8").splitlines()[0]
        assert first == "tau,x,y"
        assert np.loadtxt(target, delimiter=",", skiprows=1, ndmin=2).shape == (300, 3)

    def test_over_budget_acceptance_ratio_exits_three(self, capsys, config_path, monkeypatch):
        # amplitudes beyond the realizability budget of the configured weights
        monkeypatch.setattr(cheshire.sampler, "_check_realizable", lambda amps, weights: None)
        monkeypatch.setattr(cheshire.config.ExperimentConfig, "coherence",
                            lambda self: cheshire.TransitionAmplitudes(1.0, 0.0, 0.0).coherence())
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

    def test_readme_example_bytes(self, capsys, readme_path, tmp_path):
        # stdout and trial CSV of the README example, pinned: a change to how
        # the sampler gets K or sums its ratio must not move the trial stream
        argv = ("montecarlo", "--config", readme_path, "--trials", "140000")
        code, streamed, _ = run_cli(capsys, *argv)
        assert code == 0
        assert streamed == README_MONTECARLO
        target = tmp_path / "trials.csv"
        code, stored, _ = run_cli(capsys, *argv, "--dump-trials", str(target))
        assert code == 0
        assert stored == README_MONTECARLO
        assert hashlib.sha256(target.read_bytes()).hexdigest() == README_TRIALS_SHA256

    def test_needs_hundred_trials(self, capsys, config_path):
        code, _, err = run_cli(capsys, "montecarlo", "--config", config_path,
                               "--trials", "50")
        assert code == 2
        assert "n_trials" in err

    def test_effect_config_runs(self, capsys, tmp_path):
        path = tmp_path / "effect.cfg"
        path.write_text(f"prep={R3},0,{R3},{R3}\npost_effect={EFFECT_ENTRIES}\n"
                        "n_trials=20000\nseed=3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "montecarlo", "--config", str(path))
        assert code == 0, err
        report = key_values(out)
        assert report["n_trials"] == "20000"
        assert abs(float(report["z_score"])) < 5.0
        assert 0.0 < float(report["p_hat"]) < 1.0


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

    def test_seed_leaves_the_state_optimum_unchanged(self, capsys):
        # the benchmark's optimize jobs pass --seed; it changes no byte
        unseeded = run_cli(capsys, "optimize", "--g-a", "2", "--g-b", "2")
        assert run_cli(capsys, "optimize", "--g-a", "2", "--g-b", "2", "--seed", "7") == unseeded
        assert unseeded[0] == 0

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

    @pytest.mark.parametrize("search_max,g_star", [("inf", "2"), ("1e308", "2"), ("1", "1")])
    def test_optimum_is_two_capped_by_search_max(self, capsys, config_path, search_max, g_star):
        code, out, err = run_cli(capsys, "optimize", "--config", config_path,
                                 "--search-max", search_max)
        assert code == 0, err
        report = key_values(out)
        assert report["g_a_optimal"] == report["g_b_optimal"] == g_star

    @pytest.mark.parametrize("g_a", ["0", "1e3"])
    def test_flat_state_objective_exits_two(self, capsys, g_a):
        # the coupling prefactor is 0.0, so C is 0.0 for every state
        code, out, err = run_cli(capsys, "optimize", "--g-a", g_a, "--g-b", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "vanishes for every state" in err

    def test_state_optimum_needs_no_eigensolver(self, capsys, no_eigensolver):
        code, out, err = run_cli(capsys, "optimize", "--g-a", "2", "--g-b", "3")
        assert code == 0, err
        assert "c_optimal=" in out

    def test_coupling_optimum_of_a_pure_config_needs_no_eigensolver(self, capsys, config_path,
                                                                     no_eigensolver):
        code, out, err = run_cli(capsys, "optimize", "--config", config_path)
        assert code == 0, err
        assert "c_optimal=" in out

    def test_montecarlo_on_a_pure_config_needs_no_eigensolver(self, capsys, config_path,
                                                              no_eigensolver):
        code, out, err = run_cli(capsys, "montecarlo", "--config", config_path, "--trials", "1000")
        assert code == 0, err
        assert "c_analytic=" in out

    @pytest.mark.parametrize("search_max", ["nan", "-1"])
    def test_invalid_search_max_exits_two(self, capsys, config_path, search_max):
        code, out, err = run_cli(capsys, "optimize", "--config", config_path,
                                 "--search-max", search_max)
        assert code == 2
        assert out == ""
        assert "search bound" in err


def _run_python(*argv):
    """Run the interpreter on this checkout's package, installed or not."""
    src = os.path.dirname(os.path.dirname(cheshire.__file__))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestEntryPoint:
    def test_module_invocation_shows_subcommands(self):
        proc = _run_python("-m", "cheshire.cli", "--help")
        assert proc.returncode == 0
        for name in ("analytic", "sweep", "montecarlo", "optimize"):
            assert name in proc.stdout

    def test_import_does_not_load_scipy(self):
        # nothing in the package uses scipy, so importing it loads none
        probe = "import sys, cheshire; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = _run_python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_does_not_load_the_thread_pool(self, config_path, tmp_path, monkeypatch):
        # the sampler's workers are plain threads: neither importing the package
        # nor a four-batch run on two workers loads concurrent.futures or logging
        monkeypatch.setenv("CHESHIRE_THREADS", "2")
        argv = ["montecarlo", "--config", config_path, "--trials", "100000",
                "--out", str(tmp_path / "report.txt")]
        probe = ("import sys, cheshire; print('concurrent.futures' in sys.modules); "
                 "import cheshire.cli; print('concurrent.futures' in sys.modules); "
                 f"print(cheshire.cli.main({argv!r})); "
                 "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        proc = _run_python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "False", "0", "[]"]
        assert (tmp_path / "report.txt").read_text(encoding="utf-8").startswith("c_hat=")

    def test_every_subcommand_runs_without_scipy(self, config_path):
        # a None entry in sys.modules makes `import scipy` raise ImportError
        runs = [
            ["analytic", "--config", config_path],
            ["sweep", "--config", config_path, "--steps", "5"],
            ["montecarlo", "--config", config_path, "--trials", "300"],
            ["optimize", "--config", config_path],
            ["optimize", "--g-a", "2", "--g-b", "2"],
        ]
        shim = (
            "import sys; sys.modules['scipy'] = None\n"
            "from cheshire.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    code = main(argv)\n"
            "    if code != 0:\n"
            "        sys.exit(f'{argv[0]} exited {code}')\n"
        )
        proc = _run_python("-c", shim)
        assert proc.returncode == 0, proc.stderr

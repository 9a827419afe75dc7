"""The README's quick start, the noise-study script at small sizes, and the
installed-command check in ``scripts/`` run end to end."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import os
import re
import sys

import pytest

import cheshire

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_quick_start_prints_its_values():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    c_value, p_success, negativity = out.getvalue().split()
    assert (c_value, p_success) == ("0.32700394770794894", "0.30325882594741954")
    assert float(negativity) > 0.0


# stdout of scripts/noise_study.py, pinned: the default 9-level table, and a
# table of the form the benchmark's noise-table jobs run
NOISE_TABLE_SHA256 = "cc952ee7b703d2b55854b9b87a87d9166983e2d2eb92c551fbebfa21abe6d51b"
NOISE_TABLE_BENCHMARK_ARGV = ["--levels", "9", "--trials", "20000", "--g", "2.3456",
                              "--nu-max", "3.21", "--seed", "12345"]
NOISE_TABLE_BENCHMARK_SHA256 = "342935dc0ad2ced3457ea0f692e62945b274605c583857a11c6b63916902ed42"


@pytest.mark.parametrize("argv, digest", [
    ([], NOISE_TABLE_SHA256),
    (NOISE_TABLE_BENCHMARK_ARGV, NOISE_TABLE_BENCHMARK_SHA256),
], ids=["default", "benchmark-form"])
def test_noise_table_bytes(capsys, argv, digest):
    assert load_script("noise_study").main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_noise_study_writes_one_row_per_level(tmp_path):
    out = tmp_path / "noise.csv"
    argv = ["--levels", "2", "--trials", "1000", "--out", str(out)]
    assert load_script("noise_study").main(argv) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["nu_a", "nu_b", "c_hat", "std_error", "n_required"]
    assert [row[:2] for row in rows[1:]] == [["0", "0"], ["4", "4"]]


def test_noise_study_rejects_noise_beyond_the_readout_bound(capsys, tmp_path):
    # nu^2 would overflow in the exact variance: a traceback, before the bound
    out = tmp_path / "noise.csv"
    argv = ["--nu-max", "1e200", "--levels", "2", "--trials", "1000", "--out", str(out)]
    assert load_script("noise_study").main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nu_a ") and err.count("\n") == 1
    assert not out.exists()


def test_noise_study_unwritable_out_exits_two(capsys, tmp_path):
    # as `cheshire ... --out` does: one error line, not a traceback
    out = tmp_path / "missing" / "noise.csv"
    argv = ["--levels", "2", "--trials", "1000", "--out", str(out)]
    assert load_script("noise_study").main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out: cannot write {out}: ") and err.count("\n") == 1


def test_noise_study_exits_with_the_code_of_a_package_error(capsys, monkeypatch):
    # an internal inconsistency exits 3, as `cheshire` does, not in a traceback
    def noise_robustness(*args, **kwargs):
        raise cheshire.PositivityError("injected")

    script = load_script("noise_study")
    monkeypatch.setattr(script, "noise_robustness", noise_robustness)
    assert script.main(["--levels", "2", "--trials", "1000"]) == 3
    assert capsys.readouterr().err == "error: injected\n"


# the CLI with one byte of its sweep CSV changed, as a stand-in for a broken
# installed command
ONE_BYTE_OFF = """
import contextlib, io, sys
from cheshire.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
text = out.getvalue()
if sys.argv[1] == "sweep":
    text = text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]
sys.stdout.write(text)
sys.exit(code)
"""


def test_installed_cli_check_passes_on_the_pins_and_fails_on_one_changed_byte(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(cheshire.__file__)))
    monkeypatch.chdir(tmp_path)
    check = load_script("check_installed_cli")
    assert check.main([sys.executable, "-m", "cheshire.cli"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("c_optimal=")
    assert lines[-8:] == [f"{name}: OK" for name in ("optimize.txt", "analytic.txt", "sweep.csv",
                                                     "montecarlo.txt", "trials.csv", "refused.txt",
                                                     "same-file.txt", "noise.csv")]

    (tmp_path / "one_byte_off.py").write_text(ONE_BYTE_OFF, encoding="utf-8")
    assert check.main([sys.executable, "one_byte_off.py"]) == 1
    assert capsys.readouterr().out.splitlines()[-8:] == [
        "optimize.txt: OK", "analytic.txt: OK", "sweep.csv: FAILED", "montecarlo.txt: OK",
        "trials.csv: OK", "refused.txt: OK", "same-file.txt: OK", "noise.csv: OK"]

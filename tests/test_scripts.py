"""The README's quick start and the two experiment scripts in ``scripts/``
run end to end, the scripts at small sizes."""

import contextlib
import csv
import importlib.util
import io
import os
import re

from cheshire import ExperimentConfig, PhotonKet
from cheshire.cli import format_sweep_csv, sweep_rows

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


def test_coupling_sweep_writes_the_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert load_script("coupling_sweep").main(["--steps", "5", "--out", str(out)]) == 0
    example = ExperimentConfig(prep=PhotonKet.normalized([1.0, 0.0, 1.0, 1.0]),
                               post=PhotonKet.normalized([1.0, 0.0, 1.0, -1.0]))
    assert out.read_text(encoding="utf-8") == format_sweep_csv(sweep_rows(example, 0.0, 8.0, 5))


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

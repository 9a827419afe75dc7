"""The two experiment scripts in ``scripts/`` run end to end at small sizes."""

import csv
import importlib.util
import os

from cheshire import ExperimentConfig, PhotonKet
from cheshire.cli import format_sweep_csv, sweep_rows

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

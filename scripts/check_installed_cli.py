#!/usr/bin/env python3
"""Hold a `cheshire` command to the outputs that tests/test_cli.py pins.

In the current directory, runs the command on the README config:
`analytic`, `sweep --steps 161` and `montecarlo --trials 140000
--dump-trials trials.csv`.  The analytic report, the sweep CSV and the trial
CSV must match their pinned sha256 digests, and the Monte Carlo summary its
pinned text.  It also runs and prints `optimize --g-a 2 --g-b 2 --seed 7`,
which must report `c_optimal=`, and runs `analytic --config readme.cfg
--trials 5`, a flag `analytic` does not take, which must exit 2 with
argparse's `unrecognized arguments`, and `montecarlo --config readme.cfg
--trials 200 --dump-trials readme.cfg`, which must exit 2 with `is also the
--config file` and leave readme.cfg as it was.  Last, it runs scripts/noise_study.py,
next to this script, with this interpreter: its default table must match the
digest that tests/test_scripts.py pins.  Every output stays in the directory.
Prints one OK/FAILED line per output and exits 1 if any failed.

    python scripts/check_installed_cli.py                           # `cheshire`
    python scripts/check_installed_cli.py python -m cheshire.cli    # any command

The pins are read from the test modules' source, so the check imports
neither the tests nor the package.
"""

import ast
import hashlib
import os
import subprocess
import sys

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
TEST_CLI = os.path.join(os.path.dirname(SCRIPTS), "tests", "test_cli.py")
TEST_SCRIPTS = os.path.join(os.path.dirname(SCRIPTS), "tests", "test_scripts.py")
PINS = ("README_TEXT", "README_MONTECARLO", "README_ANALYTIC_SHA256", "README_SWEEP_SHA256",
        "README_TRIALS_SHA256", "NOISE_TABLE_SHA256")
NOISE_STUDY = os.path.join(SCRIPTS, "noise_study.py")
RUNS = {
    "optimize.txt": ["optimize", "--g-a", "2", "--g-b", "2", "--seed", "7"],
    "analytic.txt": ["analytic", "--config", "readme.cfg"],
    "sweep.csv": ["sweep", "--config", "readme.cfg", "--steps", "161"],
    "montecarlo.txt": ["montecarlo", "--config", "readme.cfg", "--trials", "140000",
                       "--dump-trials", "trials.csv"],
}
REFUSED = ["analytic", "--config", "readme.cfg", "--trials", "5"]
SAME_FILE = ["montecarlo", "--config", "readme.cfg", "--trials", "200", "--dump-trials", "readme.cfg"]


def read_pins(paths=(TEST_CLI, TEST_SCRIPTS)) -> dict:
    """The pinned module-level constants of the test modules, by name."""
    pins = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for node in ast.parse(fh.read()).body:
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in PINS:
                    pins[node.targets[0].id] = ast.literal_eval(node.value)
    return pins


def _read(name: str) -> bytes:
    with open(name, "rb") as fh:
        return fh.read()


def main(argv=None) -> int:
    command = (sys.argv[1:] if argv is None else argv) or ["cheshire"]
    pins = read_pins()
    with open("readme.cfg", "w", encoding="utf-8") as fh:
        fh.write(pins["README_TEXT"])
    exited_0 = {}
    for name, args in RUNS.items():
        with open(name, "wb") as fh:
            exited_0[name] = subprocess.run([*command, *args], stdout=fh).returncode == 0
    exited_0["trials.csv"] = exited_0["montecarlo.txt"]
    with open("refused.txt", "wb") as fh:
        refused = subprocess.run([*command, *REFUSED], stdout=fh, stderr=fh).returncode == 2
    with open("same-file.txt", "wb") as fh:
        same_file = subprocess.run([*command, *SAME_FILE], stdout=fh, stderr=fh).returncode == 2
    with open("noise.csv", "wb") as fh:
        noise_exited_0 = subprocess.run([sys.executable, NOISE_STUDY], stdout=fh).returncode == 0
    sys.stdout.write(_read("optimize.txt").decode())

    ok = {"optimize.txt": exited_0["optimize.txt"] and b"\nc_optimal=" in b"\n" + _read("optimize.txt")}
    digests = {
        "analytic.txt": pins["README_ANALYTIC_SHA256"],
        "sweep.csv": pins["README_SWEEP_SHA256"],
        "montecarlo.txt": hashlib.sha256(pins["README_MONTECARLO"].encode()).hexdigest(),
        "trials.csv": pins["README_TRIALS_SHA256"],
    }
    for name, digest in digests.items():
        ok[name] = exited_0[name] and hashlib.sha256(_read(name)).hexdigest() == digest
    ok["refused.txt"] = refused and b"unrecognized arguments: --trials 5" in _read("refused.txt")
    ok["same-file.txt"] = (same_file and b"is also the --config file" in _read("same-file.txt")
                           and _read("readme.cfg") == pins["README_TEXT"].encode())
    ok["noise.csv"] = noise_exited_0 and (
        hashlib.sha256(_read("noise.csv")).hexdigest() == pins["NOISE_TABLE_SHA256"])
    for name, matched in ok.items():
        print(f"{name}: {'OK' if matched else 'FAILED'}")
    return 0 if all(ok.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: seeded inputs, output checks, the mix
statistics, the refusal to run outside a checkout, and the thread-count
identity of a Monte Carlo job."""

import contextlib
import io
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402
import run  # noqa: E402


def _deal(workload, seed, workdir, count):
    os.makedirs(workdir, exist_ok=True)
    stream = jobs.job_stream(workload, seed, str(workdir))
    dealt = []
    for _ in range(count):
        job = next(stream)
        text = open(job.config, encoding="utf-8").read() if job.config else None
        flags = [a for a in job.argv if a not in (job.config, job.dump)]
        dealt.append((job.kind, flags, text))
    return dealt


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_stream_is_a_function_of_the_seed(workload, tmp_path):
    count = 2 * sum(jobs.WORKLOADS[workload].values())
    first = _deal(workload, 5, tmp_path / "a", count)
    assert first == _deal(workload, 5, tmp_path / "b", count)
    assert first != _deal(workload, 6, tmp_path / "c", count)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_every_deck_holds_the_mix(workload, tmp_path):
    mix = jobs.WORKLOADS[workload]
    deck = sum(mix.values())
    kinds = [kind for kind, _, _ in _deal(workload, 3, tmp_path, 2 * deck)]
    for start in (0, deck):
        part = kinds[start:start + deck]
        assert {kind: part.count(kind) for kind in mix} == mix


def test_mix_quantile_ignores_where_the_run_was_cut():
    shares = {"fast": 2, "slow": 1}
    full = [{"kind": "fast", "wall_s": 1.0}, {"kind": "fast", "wall_s": 1.1},
            {"kind": "slow", "wall_s": 5.0}]
    cut = full + [{"kind": "slow", "wall_s": 5.2}]
    for records in (full, cut):
        assert run.mix_quantile(records, shares, 0.5) in (1.0, 1.1)
        assert run.mix_quantile(records, shares, 0.8) >= 5.0
    assert run.mix_mean(full, shares) == pytest.approx((2 * 1.05 + 5.0) / 3)


def test_checks_accept_the_program_output_and_reject_a_wrong_value(tmp_path):
    from cheshire import cli

    job = next(j for j in jobs.job_stream("cli-short", 2, str(tmp_path))
               if j.kind == "analytic-povm")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(job.argv[2:]) == 0
    stdout = out.getvalue()
    assert jobs.check(job, 0, stdout) is None
    lines = stdout.splitlines()
    lines[0] = "c_analytic=" + repr(float(lines[0].partition("=")[2]) + 1e-9)
    assert "c_analytic" in jobs.check(job, 0, "\n".join(lines))
    assert jobs.check(job, 2, stdout) == "exit code 2"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-short", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_mc_large_job_is_identical_at_one_and_two_threads(tmp_path):
    job = next(jobs.job_stream("mc-large", 0, str(tmp_path)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(run.job_env(), CHESHIRE_THREADS=threads)
        done = subprocess.run([sys.executable, *job.argv], env=env, cwd=run.ROOT,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert jobs.check(job, 0, outputs[0].decode()) is None

"""The library names and call shapes that the benchmark in ``perfbench/``
relies on.

The benchmark replaces each function in ``layers.TRACED`` by a timed
wrapper and calls the library directly in its layer probes and output
checks.  A renamed function or a changed call shape would otherwise show
only in a traced benchmark run, which this suite does not make.
"""

import importlib
import math
import os
import sys

import numpy as np
import pytest

from cheshire import cli, config, indicator, sampler
from cheshire.dynamics import BranchWeights
from cheshire.qsystem import transition_amplitudes

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import layers  # noqa: E402

R3 = repr(1.0 / math.sqrt(3.0))
EXAMPLE_TEXT = f"""
prep={R3},0,{R3},{R3}
post={R3},0,{R3},-{R3}
g_a=2
g_b=2
noise_a=0.5
noise_b=0.25
seed=42
"""


@pytest.mark.parametrize("span", sorted(layers.TRACED))
def test_traced_function_resolves(span):
    module, attr = layers.TRACED[span]
    assert callable(getattr(importlib.import_module(module), attr))


def test_probe_and_check_calls_run_on_example_config(tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(EXAMPLE_TEXT, encoding="utf-8")
    cfg = config.load_config(str(path))
    assert cfg.is_pure
    amps, weights = cfg.amplitudes(), cfg.weights()
    assert amps == transition_amplitudes(cfg.prep, cfg.post)
    assert weights == BranchWeights.from_preparation(cfg.prep)
    noise = sampler.NoiseModel(cfg.noise_a, cfg.noise_b)

    trials = sampler.sample_trials(amps, weights, cfg.g_a, cfg.g_b, n=300, seed=cfg.seed,
                                   noise=noise)
    assert len(trials) == 300
    assert sampler.estimate_cheshire(trials).n_trials == 300
    head = slice(0, 100)
    sampler.write_trials_csv(type(trials)(trials.tau[head], trials.x[head], trials.y[head]),
                             tmp_path / "trials.csv")
    assert np.loadtxt(tmp_path / "trials.csv", delimiter=",", skiprows=1, ndmin=2).shape == (100, 3)
    assert sampler.trial_variance(amps, weights, cfg.g_a, cfg.g_b, noise) > 0.0

    assert len(cli.sweep_rows(cfg, 0.0, 8.0, 5)) == 5
    exact = indicator.cheshire_analytic(cfg.post, cfg.prep, cfg.g_a, cfg.g_b)
    optimum = indicator.optimize_states(cfg.g_a, cfg.g_b, seed=cfg.seed)
    assert abs(exact.c_value) <= optimum.c_value

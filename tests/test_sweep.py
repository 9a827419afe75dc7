"""The coupling sweep as one stack of couplings against a loop over the
scalar APIs, one coupling at a time."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cheshire import cli, dynamics
from cheshire.cli import sweep_rows
from cheshire.config import ExperimentConfig, parse_config_text
from cheshire.dynamics import JointMeterState
from cheshire.entanglement import NegativityReport, meter_negativity
from cheshire.errors import (
    CheshireError,
    ConsistencyError,
    GridTooSmall,
    OrthogonalPostselection,
)
from cheshire.indicator import cheshire_analytic, moment_decomposition
from cheshire.meter import Grid, GridMeter
from cheshire.qsystem import PhotonEffect, PhotonKet

README_TEXT = """
prep   = 0.57735026918962573+0i, 0+0i, 0.57735026918962573+0i, 0.57735026918962573+0i
post   = 0.57735026918962573+0i, 0+0i, 0.57735026918962573+0i, -0.57735026918962573+0i
g_a    = 2.0
g_b    = 2.0
grid   = -20, 20, 4001
"""
README = parse_config_text(README_TEXT)
# post is orthogonal to prep: the success branch vanishes at g = 0
ORTHOGONAL = ExperimentConfig(prep=PhotonKet.normalized([1, 0, 1, 1]),
                              post=PhotonKet.normalized([1, 0, -2, 1]))


def random_ket(rng) -> PhotonKet:
    return PhotonKet.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))


def random_effect(rng) -> PhotonEffect:
    vectors, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return PhotonEffect((vectors * rng.uniform(0.05, 0.95, size=4)) @ vectors.conj().T)


def random_config(kind: str, seed: int) -> ExperimentConfig:
    rng = np.random.default_rng(seed)
    if kind == "pure":
        return ExperimentConfig(prep=random_ket(rng), post=random_ket(rng))
    return ExperimentConfig(prep=random_ket(rng), post_effect=random_effect(rng))


def row_loop(config, g_min, g_max, steps):
    """The sweep one coupling at a time through the scalar APIs, each row
    checked before the next starts."""
    coherence = config.coherence()
    meter = GridMeter.gaussian(config.grid)
    rows = []
    for g in np.linspace(g_min, g_max, steps).tolist():
        exact = cheshire_analytic(config.postselection, config.prep, g, g)
        grid = JointMeterState(coherence, g, g, meter)
        c_grid = 2.0 * moment_decomposition(grid).total
        check_oracle("indicators", g, exact.c_value, c_grid)
        neg = meter_negativity(JointMeterState(coherence, g, g)).negativity
        check_oracle("negativities", g, neg, meter_negativity(grid).negativity)
        rows.append((g, g, exact.c_value, c_grid, exact.p_success, neg))
    return rows


def check_oracle(what, g, exact, grid):
    if abs(exact - grid) > cli.ORACLE_AGREEMENT_TOL:
        raise ConsistencyError(f"analytic and grid {what} disagree at g={g}: {exact!r} vs {grid!r}")


def with_grid_points(config, points):
    return replace(config, grid=Grid(config.grid.x_min, config.grid.x_max, points))


RANGES = [(0.0, 8.0, 161, 4001), (0.0, 4.0, 5, 4001), (0.3, 6.1, 37, 2001),
          (0.0, 10.0, 50, 1001), (1.0, 2.0, 2, 4001), (0.0, 12.0, 97, 3001)]
CASES = (
    [("readme", 0, r) for r in RANGES]
    + [("pure", seed, RANGES[seed % len(RANGES)]) for seed in range(6)]
    + [("effect", seed, RANGES[(seed + 2) % len(RANGES)]) for seed in range(4)]
)


class TestStackMatchesRowLoop:
    @pytest.mark.parametrize("kind, seed, sweep", CASES,
                             ids=[f"{k}{s}-{r[1]:g}-{r[2]}-{r[3]}" for k, s, r in CASES])
    def test_rows_match(self, kind, seed, sweep):
        g_min, g_max, steps, points = sweep
        config = README if kind == "readme" else random_config(kind, seed)
        config = with_grid_points(config, points)
        stacked = np.array(sweep_rows(config, g_min, g_max, steps))
        looped = np.array(row_loop(config, g_min, g_max, steps))
        assert stacked.shape == looped.shape == (steps, 6)
        assert np.array_equal(stacked[:, :2], looped[:, :2])
        for column in (2, 4, 5):  # c_analytic, p_success, negativity
            assert np.max(np.abs(stacked[:, column] - looped[:, column])) <= 1e-15
        assert np.max(np.abs(stacked[:, 3] - looped[:, 3])) <= 1e-14  # c_grid

    def test_rows_are_python_floats(self):
        rows = sweep_rows(README, 0.0, 8.0, 9)
        assert all(type(value) is float for row in rows for value in row)

    def test_each_kernel_runs_once(self, monkeypatch):
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("cheshire_analytic", "moment_decomposition", "meter_negativity"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        grid_passes = []
        closed_or_grid = dynamics.pointer_matrices

        def recorded(shifts, meter=None):
            if meter is not None:
                grid_passes.append(np.shape(shifts))
            return closed_or_grid(shifts, meter)

        monkeypatch.setattr(dynamics, "pointer_matrices", recorded)
        assert len(sweep_rows(README, 0.0, 8.0, 161)) == 161
        # the closed-form and the grid negativity; the grid state's pointer
        # matrices, one pass per meter, serve its moment and its negativity
        assert calls == {"cheshire_analytic": 1, "moment_decomposition": 1, "meter_negativity": 2}
        assert grid_passes == [(161, 3), (161, 3)]


def raised(compute) -> CheshireError:
    with pytest.raises(CheshireError) as info:
        compute()
    return info.value


class TestErrorsMatchRowLoop:
    """A failing sweep raises the row loop's error: same type, same message."""

    @pytest.mark.parametrize("config, sweep, error", [
        (ORTHOGONAL, (0.0, 8.0, 161), OrthogonalPostselection),
        (README, (0.0, 14.0, 161), GridTooSmall),
        (README, (0.0, 30.0, 161), GridTooSmall),
        # g = 0 has no success branch; from g = 13 on the grid is too small
        (ORTHOGONAL, (0.0, 30.0, 31), OrthogonalPostselection),
    ], ids=["orthogonal", "g-max-14", "g-max-30", "two-reasons"])
    def test_same_error(self, config, sweep, error):
        stacked = raised(lambda: sweep_rows(config, *sweep))
        looped = raised(lambda: row_loop(config, *sweep))
        assert type(stacked) is type(looped) is error
        assert str(stacked) == str(looped)

    def test_grid_messages(self):
        assert str(raised(lambda: sweep_rows(README, 0.0, 14.0, 161))) == (
            "shift 13.0375 pushes squared amplitude 1.702e-12 > 1e-12 off the grid")
        assert str(raised(lambda: sweep_rows(README, 0.0, 30.0, 161))) == (
            "shift 13.125 pushes squared amplitude 3.211e-12 > 1e-12 off the grid")

    def test_first_failing_row_decides(self, monkeypatch):
        # with no slack the oracle check fails by rounding already on row 0,
        # long before row 14 runs off the grid; the stack meets the grid
        # error first, in its one grid-kernel call
        monkeypatch.setattr(cli, "ORACLE_AGREEMENT_TOL", 0.0)
        looped = raised(lambda: row_loop(README, 0.0, 30.0, 31))
        stacked = raised(lambda: sweep_rows(README, 0.0, 30.0, 31))
        assert type(stacked) is type(looped) is ConsistencyError
        assert str(stacked) == str(looped)

    def test_grid_negativity_disagreement_exits_3(self, monkeypatch, tmp_path, capsys):
        score = cli.meter_negativity

        def perturbed(state):
            report = score(state)
            if state.meter is None:
                return report
            return NegativityReport(report.negativity + 1e-3, report.min_pt_eigenvalue,
                                    report.dim_a, report.dim_b)

        monkeypatch.setattr(cli, "meter_negativity", perturbed)
        path = tmp_path / "run.cfg"
        path.write_text(README_TEXT)
        assert cli.main(["sweep", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: analytic and grid negativities disagree at g=0.0: 0.0 vs 0.001\n")


class TestSweepMemory:
    # each array of a coupling row (targets, waves, weighted bras, their
    # x-weighted copy, the generator's temporaries) holds one meter's three
    # branch shifts of n_points samples of 16 bytes at most
    ROW_BYTES = 6 * 16 * 3 * README.grid.n_points

    def test_heap_bounded_by_one_row(self):
        sweep_rows(README, 0.0, 8.0, 161)
        tracemalloc.start()
        try:
            sweep_rows(README, 0.0, 8.0, 161)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every shifted wave of the sweep at once would take 161 * 2 * 4001
        # samples, 10 MB even as real numbers
        assert peak < self.ROW_BYTES + 2 ** 20
        assert self.ROW_BYTES + 2 ** 20 < 161 * 2 * 4001 * 8

"""Gaussian pointer-matrix closed forms against the grid quadrature oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cheshire import meter as meter_module
from cheshire.errors import GridTooSmall, ValidationError
from cheshire.meter import (
    DEFAULT_GRID,
    MAX_READOUT_SCALE,
    MEAN_TOL,
    POINTER_NORM_TOL,
    VARIANCE_TOL,
    Grid,
    GridMeter,
    _check_edges,
    _validate_couplings,
    gaussian_ground_state,
    pointer_matrices,
)

couplings = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def grid_overlap(meter, shift, weight="1"):
    """int w(x) psi0*(x) psi0(x - shift) dx from the pointer matrices."""
    return pointer_matrices((0.0, shift), meter)[("1", "x").index(weight)][0, 1]


def overlap0(g):
    """int phi0(x) phi0(x - g) dx = exp(-g^2 / 8) for the Gaussian pointer."""
    return grid_overlap(None, g, "1")


def overlap1(g):
    """int x phi0(x) phi0(x - g) dx = (g / 2) exp(-g^2 / 8) for the Gaussian pointer."""
    return grid_overlap(None, g, "x")


class TestClosedForms:
    def test_overlap0_values(self):
        assert overlap0(0.0) == 1.0
        assert np.isclose(overlap0(2.0), 0.6065306597126334, atol=0, rtol=1e-15)
        assert np.isclose(overlap0(10.0), 3.7266531720786709e-06, rtol=1e-12)

    def test_overlap1_values(self):
        assert overlap1(0.0) == 0.0
        assert np.isclose(overlap1(2.0), 0.6065306597126334, atol=0, rtol=1e-15)
        assert np.isclose(overlap1(0.01), 0.004999937500390624, rtol=1e-12)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValidationError):
            _validate_couplings(-1.0)
        with pytest.raises(ValidationError):
            _validate_couplings(2.0, -0.5)

    @given(g=couplings)
    def test_cauchy_schwarz(self, g):
        assert abs(overlap0(g)) <= 1.0

    @given(g=st.floats(min_value=0.0, max_value=3.0), d=st.floats(min_value=1e-4, max_value=0.1))
    def test_overlap1_increasing_below_two(self, g, d):
        hi = min(g + d, 2.0)
        if g < hi:
            assert overlap1(g) < overlap1(hi)

    @given(g=st.floats(min_value=2.0, max_value=20.0), d=st.floats(min_value=1e-4, max_value=5.0))
    def test_overlap1_decreasing_above_two(self, g, d):
        assert overlap1(g + d) < overlap1(g)

    def test_overlap1_vanishes_at_infinity(self):
        assert overlap1(40.0) < 1e-60

    @given(
        a=st.floats(min_value=-5.0, max_value=5.0),
        b=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_pair_overlaps_reduce_to_single(self, a, b):
        # shifting both states by the same offset translates the weight only
        m1, mx = pointer_matrices((a, b))
        o0, o1 = m1[0, 1], mx[0, 1]
        assert np.isclose(o0, overlap0(abs(a - b)), atol=1e-15)
        assert np.isclose(o1, 0.5 * (a + b) * o0, atol=1e-15)
        assert np.array_equal(m1, m1.T) and np.array_equal(mx, mx.T)
        assert m1[0, 0] == 1.0 and mx[0, 0] == a and mx[1, 1] == b


class TestGaussianMeter:
    """The Gaussian pointer, which a meter of None stands for."""

    def test_rejects_negative_or_nan(self):
        # couplings are finite reals in [0, MAX_READOUT_SCALE]; numpy orders
        # complex numbers and compares bools as 0 and 1, and a bound cast to
        # a float32 or float16 stack's dtype would be inf
        for g in (-0.1, math.nan, math.inf, -math.inf, 2.0 * MAX_READOUT_SCALE,
                  1 + 0j, 2j, "2", None, True, np.array([1.0, 2 + 0j]), np.array([True, False]),
                  np.float32(math.inf), np.float16(math.inf), np.array([0.5, math.inf], np.float32)):
            with pytest.raises(ValidationError, match="finite reals"):
                _validate_couplings(g)
        _validate_couplings(np.float32(0.5), np.float16(2.0))

    def test_ground_state_moments(self):
        x = DEFAULT_GRID.points
        phi = gaussian_ground_state(x)
        dx = DEFAULT_GRID.spacing
        assert np.isclose(np.trapezoid(phi**2, dx=dx), 1.0, atol=1e-12)
        assert np.isclose(np.trapezoid(x * phi**2, dx=dx), 0.0, atol=1e-14)
        assert np.isclose(np.trapezoid(x**2 * phi**2, dx=dx), 1.0, atol=1e-12)


class TestGrid:
    def test_default(self):
        assert DEFAULT_GRID == Grid(-20.0, 20.0, 4001)
        assert np.isclose(DEFAULT_GRID.spacing, 0.01)
        assert len(DEFAULT_GRID.points) == 4001

    def test_validation(self):
        with pytest.raises(ValidationError):
            Grid(1.0, -1.0, 100)
        with pytest.raises(ValidationError):
            Grid(-1.0, 1.0, 1)
        # a float point count would fail only later, at ``points``
        with pytest.raises(ValidationError, match="integer number of points"):
            Grid(-1.0, 1.0, 4001.0)


class TestGridMeter:
    def test_gaussian_factory(self):
        m = GridMeter.gaussian()
        assert m.grid == DEFAULT_GRID

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="norm"):
            GridMeter(lambda x: 2.0 * gaussian_ground_state(x))
        # norm^2 further than POINTER_NORM_TOL from 1 fails
        with pytest.raises(ValidationError, match="norm"):
            GridMeter(lambda x: math.sqrt(1.0 + 2.0 * POINTER_NORM_TOL) * gaussian_ground_state(x))
        GridMeter(lambda x: math.sqrt(1.0 + 0.5 * POINTER_NORM_TOL) * gaussian_ground_state(x))

    def test_rejects_biased(self):
        with pytest.raises(ValidationError) as err:
            GridMeter(lambda x: gaussian_ground_state(x - 0.5))
        assert "mean" in str(err.value)
        # a mean further than MEAN_TOL from 0, on either side, fails
        for mean in (2.0 * MEAN_TOL, -2.0 * MEAN_TOL):
            with pytest.raises(ValidationError, match="mean"):
                GridMeter(lambda x: gaussian_ground_state(x - mean))
        for mean in (0.5 * MEAN_TOL, -0.5 * MEAN_TOL):
            GridMeter(lambda x: gaussian_ground_state(x - mean))

    def test_rejects_wrong_variance(self):
        def widened(width):
            return lambda x: gaussian_ground_state(x / width) / math.sqrt(width)

        with pytest.raises(ValidationError) as err:
            GridMeter(widened(1.2))
        assert "variance" in str(err.value)
        # a variance width^2 further than VARIANCE_TOL from 1 fails
        for excess in (2.0 * VARIANCE_TOL, -2.0 * VARIANCE_TOL):
            with pytest.raises(ValidationError, match="variance"):
                GridMeter(widened(math.sqrt(1.0 + excess)))
        for excess in (0.5 * VARIANCE_TOL, -0.5 * VARIANCE_TOL):
            GridMeter(widened(math.sqrt(1.0 + excess)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError, match="5 samples but the grid has 4001 points"):
            GridMeter(lambda x: np.ones(5, dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            GridMeter(lambda x: np.where(x > 19.0, np.nan, gaussian_ground_state(x)))

    def test_accepts_complex_phase(self):
        # a global phase changes nothing measurable
        m = GridMeter(lambda x: np.exp(0.25j) * gaussian_ground_state(x))
        assert np.isclose(grid_overlap(m, 0.0), 1.0, atol=1e-10)

    def test_samples_the_function_on_its_grid(self):
        grid = Grid(-15.0, 15.0, 1501)
        m = GridMeter(gaussian_ground_state, grid)
        assert m.fn is gaussian_ground_state and m.grid == grid
        assert m.psi0.dtype == complex and not m.psi0.flags.writeable
        assert np.array_equal(m.psi0, gaussian_ground_state(grid.points))


@pytest.fixture(scope="module")
def meter():
    return GridMeter.gaussian()


class TestGridOverlap:

    def test_shift_zero_is_normalization(self, meter):
        assert np.isclose(grid_overlap(meter, 0.0, "1"), 1.0, atol=1e-10)
        assert np.isclose(grid_overlap(meter, 0.0, "x"), 0.0, atol=1e-10)

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_matches_closed_forms(self, meter, g):
        assert abs(grid_overlap(meter, g, "1") - overlap0(g)) < 1e-8
        assert abs(grid_overlap(meter, g, "x") - overlap1(g)) < 1e-8

    def test_negative_shift_conjugate_symmetry(self, meter):
        # o0 even, o1 odd for a real symmetric state
        assert np.isclose(grid_overlap(meter, -2.0, "1"), overlap0(2.0), atol=1e-8)
        assert np.isclose(grid_overlap(meter, -2.0, "x"), -overlap1(2.0), atol=1e-8)

    def test_large_shift_raises(self, meter):
        with pytest.raises(GridTooSmall):
            grid_overlap(meter, 35.0, "1")

    def test_non_gaussian_state(self):
        # first excited oscillator state u*phi0(u): zero mean, variance 3,
        # so rescale the coordinate to restore unit variance
        s = math.sqrt(3.0)

        def psi(x):
            u = x * s
            return math.sqrt(s) * u * (2.0 * math.pi) ** -0.25 * np.exp(-u * u / 4.0)

        m = GridMeter(psi)
        assert np.isclose(grid_overlap(m, 0.0, "1"), 1.0, atol=1e-10)
        assert np.isclose(grid_overlap(m, 0.0, "x"), 0.0, atol=1e-10)
        assert abs(grid_overlap(m, 1.0, "1")) <= 1.0

    def test_off_lattice_shift_exact_with_generator(self, meter):
        g = math.pi / 3.0
        assert abs(grid_overlap(meter, g, "1") - overlap0(g)) < 1e-12
        assert abs(grid_overlap(meter, g, "x") - overlap1(g)) < 1e-12



class TestOverlapSet:
    """`pointer_matrices` for each meter model over a full branch-shift set."""

    def test_gaussian_dispatch(self):
        closed = pointer_matrices((2.0, 0.0, 0.0))
        m1, mx = pointer_matrices((2.0, 0.0, 0.0), None)
        assert np.array_equal(m1, closed[0]) and np.array_equal(mx, closed[1])
        # exp(-g^2 / 8) and (g / 2) exp(-g^2 / 8) at g = 2
        assert np.isclose(closed[0][0, 1], math.exp(-0.5))
        assert np.isclose(closed[1][0, 1], math.exp(-0.5))

    def test_grid_dispatch_agrees(self, meter):
        for g in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            shifts = (0.0, g, -g)
            for grid_m, gauss_m in zip(pointer_matrices(shifts, meter), pointer_matrices(shifts)):
                assert np.max(np.abs(grid_m - gauss_m)) < 1e-8

    def test_rejects_unknown_meter(self):
        with pytest.raises(ValidationError):
            pointer_matrices((0.0, 1.0), object())


def twisted_ground_state(x):
    """phi0(x) e^{0.7 i x}: complex, but still zero mean and unit variance."""
    return gaussian_ground_state(x) * np.exp(0.7j * x)


class TestBlockedGridMatrices:
    """A stack of shift rows against one trapezoid sum per shift pair, each
    shifted wave evaluated on its own from the meter's function."""

    GRIDS = {"fine": DEFAULT_GRID, "coarse": Grid(-20.0, 20.0, 801)}

    @pytest.fixture(scope="class")
    def meters(self):
        out = {}
        for label, grid in self.GRIDS.items():
            out.update({("gaussian", label): GridMeter.gaussian(grid),
                        ("twisted", label): GridMeter(twisted_ground_state, grid)})
        return out

    @staticmethod
    def per_shift_loop(meter, row):
        x = meter.grid.points
        weights = np.full(len(x), meter.grid.spacing)
        weights[[0, -1]] *= 0.5
        waves = [meter.fn(x - s) for s in row]
        m1 = [[np.einsum("n,n->", np.conj(a) * weights, b) for b in waves] for a in waves]
        mx = [[np.einsum("n,n->", np.conj(a) * weights * x, b) for b in waves] for a in waves]
        return np.array(m1), np.array(mx)

    @pytest.mark.parametrize("grid", ["fine", "coarse"])
    @pytest.mark.parametrize("name", ["gaussian", "twisted"])
    def test_matches_per_shift_loop(self, meters, name, grid):
        meter = meters[name, grid]
        rng = np.random.default_rng(9)
        g = np.concatenate([[0.0], rng.uniform(0.0, 8.0, 24)])
        # both meters' branch shifts side by side, so that repeated columns
        # (the zeros, and g twice) are evaluated once across the stack
        shifts = np.stack([g, 0 * g, 0 * g, 0 * g, g, -g], axis=-1).reshape(5, 5, 6)
        m1, mx = pointer_matrices(shifts, meter)
        assert m1.shape == mx.shape == (5, 5, 6, 6)
        for index in np.ndindex(5, 5):
            r1, rx = self.per_shift_loop(meter, shifts[index])
            assert np.max(np.abs(m1[index] - r1)) <= 1e-15
            assert np.max(np.abs(mx[index] - rx)) <= 1e-15

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
    @pytest.mark.parametrize("name", ["gaussian", "twisted"])
    def test_empty_stack(self, meters, name, shape):
        m1, mx = pointer_matrices(np.zeros(shape), meters[name, "fine"])
        assert m1.shape == mx.shape == shape + (3,)
        assert m1.dtype == (float if name == "gaussian" else complex)

    def test_real_state_gives_real_matrices(self, meters):
        assert np.isrealobj(pointer_matrices((0.0, 1.0, -1.0), meters["gaussian", "fine"])[0])
        assert np.iscomplexobj(pointer_matrices((0.0, 1.0, -1.0), meters["twisted", "fine"])[0])

    @pytest.mark.parametrize("name", ["gaussian", "twisted"])
    def test_edge_error_at_first_failing_shift(self, meters, name):
        meter = meters[name, "fine"]
        # later failing shifts are smaller, on either side
        rows = np.array([[0.0, 1.0], [2.0, 14.0], [0.0, -13.5], [13.2, 0.0], [0.5, 0.25]])
        expected = None
        for shift in rows.ravel():
            try:
                pointer_matrices((shift,), meter)
            except GridTooSmall as exc:
                expected = str(exc)
                break
        assert expected is not None and expected.startswith("shift 14.0 ")
        with pytest.raises(GridTooSmall) as info:
            pointer_matrices(rows, meter)
        assert str(info.value) == expected

    def test_non_finite_shifts(self, meters):
        meter = meters["gaussian", "fine"]
        # an infinite shift moves the whole state off the grid
        with pytest.raises(GridTooSmall, match="^shift -inf pushes squared amplitude 1.000e"):
            pointer_matrices((0.0, -math.inf), meter)
        # a nan shift moves nothing off it, but its wave is nan
        with pytest.raises(ValidationError, match="^pointer function must be finite"):
            pointer_matrices((0.0, math.nan), meter)


def edge_loss(meter, shift):
    """Squared amplitude that a shift pushes past the grid edge: the trapezoid
    over the ceil(|shift| / dx) + 1 samples at the edge it moves toward."""
    density = np.abs(meter.psi0) ** 2
    dx = meter.grid.spacing
    if shift == 0:
        return 0.0
    samples = min(math.ceil(abs(shift) / dx), len(density) - 1) + 1
    return float(np.trapezoid(density[-samples:] if shift > 0 else density[:samples], dx=dx))


class TestEdgeTable:
    """`_check_edges` reads a per-meter table of head and tail masses; each
    lookup against `np.trapezoid` over the same samples."""

    # off-centre, so that the two tails differ
    METERS = [GridMeter.gaussian(), GridMeter(twisted_ground_state, Grid(-9.0, 12.0, 2101))]

    @pytest.mark.parametrize("meter", METERS, ids=["default", "off-centre"])
    def test_table_matches_trapezoid(self, meter):
        density = np.abs(meter.psi0) ** 2
        dx = meter.grid.spacing
        head, tail = meter._edge_mass
        for k in range(len(density)):
            assert head[k] == pytest.approx(np.trapezoid(density[:k + 1], dx=dx), rel=1e-12)
            assert tail[k] == pytest.approx(np.trapezoid(density[len(density) - 1 - k:], dx=dx),
                                            rel=1e-12)

    # in grid steps: exact multiples, below one step, past the whole grid
    @pytest.mark.parametrize("steps", [0.0, 1e-9, 0.5, 1.0, 3.0, 250.0, 750.25, 2100.0, 2100.5,
                                       1e6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("meter", METERS, ids=["default", "off-centre"])
    def test_lookup_matches_trapezoid(self, monkeypatch, meter, sign, steps):
        shift = sign * steps * meter.grid.spacing
        expected = edge_loss(meter, shift)
        # just above the loss no shift fails; just below, this one does
        monkeypatch.setattr(meter_module, "EDGE_AMPLITUDE_TOL", expected * (1.0 + 1e-9))
        _check_edges(meter, [shift])
        if expected > 0.0:
            monkeypatch.setattr(meter_module, "EDGE_AMPLITUDE_TOL", expected * (1.0 - 1e-9))
            with pytest.raises(GridTooSmall, match=re.escape(f"shift {shift} pushes squared ")):
                _check_edges(meter, [shift])


import dataclasses
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from qarrival import propagate
from qarrival.deltakernel import DeltaParams, f_p, renewal_kernel_solution
from qarrival.errors import ConfigError, GridMismatchError
from qarrival.intensity import build_profile
from qarrival.propagate import (ComplexSeries, TimeGrid, gaussian_free_at_origin,
                                gaussian_kernel_g, gaussian_overlap_h0,
                                monochromatic_drive, solve_renewal, solve_volterra)
from qarrival.scenario import Scenario

FIG2A = Scenario(m=1.0, a=0.1, eps=1.0, p0=1.0, x0=-20.0, dp=math.sqrt(0.5), navg=100.0)


def phi_hat(p, eps):
    return 2 * math.sqrt(math.pi * eps) * (2 * math.pi) ** (-0.75) * np.exp(-eps ** 2 * p ** 2)


def chi_hat(p, scn):
    return (2 * math.pi) ** (-0.25) / math.sqrt(scn.dp) \
        * np.exp(-(p - scn.p0) ** 2 / (4 * scn.dp ** 2) - 1j * p * scn.x0)


def momentum_quad(f, lim=12.0):
    re = quad(lambda p: f(p).real, -lim, lim, limit=400, epsabs=1e-13)[0]
    im = quad(lambda p: f(p).imag, -lim, lim, limit=400, epsabs=1e-13)[0]
    return re + 1j * im


@pytest.mark.parametrize("t_max, dt", [(-5.0, 0.1), (0.0, 0.1), (math.nan, 0.1),
                                       (math.inf, 0.1), (1.0, 0.0), (1.0, -0.1),
                                       (1.0, math.nan), (1.0, math.inf)])
def test_time_grid_rejects_bad_parameters(t_max, dt):
    with pytest.raises(ConfigError):
        TimeGrid(t_max, dt)


@pytest.mark.parametrize("t_max, dt", [(60.0, 5e-324), (60.0, 1e-300), (60.0, 1e-8),
                                       (1e7, 0.01), (1e300, 1e-3),
                                       (float(propagate.MAX_POINTS), 1.0)])
def test_time_grid_over_the_node_budget_rejected(t_max, dt):
    # t_max/dt = inf raised OverflowError in n_nodes, and the others failed in
    # TimeGrid.times; the float ratio is checked before any array exists
    with pytest.raises(ConfigError, match="node budget"):
        TimeGrid(t_max, dt)


def test_time_grid_budget_headroom():
    # the largest grid in use, the t_max = 3200 point solve, fits 26 times over
    assert 26 * TimeGrid(3200.0, 5e-3).n_nodes < propagate.MAX_POINTS
    assert TimeGrid(propagate.MAX_POINTS - 1.0, 1.0).n_nodes == propagate.MAX_POINTS


class TestGaussianOverlaps:
    def test_matched_widths_unit_overlap(self):
        # x0 = 0, p0 = 0, dp = 1/(2 eps): source equals the detector state
        eps = 0.7
        scn = Scenario(m=1.0, a=0.1, eps=eps, p0=1e-12, x0=0.0, dp=1.0 / (2 * eps), navg=1.0)
        grid = TimeGrid(1.0, 0.5)
        h0 = gaussian_overlap_h0(scn, grid)
        # oracle: direct position-space integral of the two real Gaussians
        val, _ = quad(lambda x: (math.e ** (-x * x / (4 * eps * eps))
                                 / math.sqrt(eps) / (2 * math.pi) ** 0.25) ** 2, -12, 12)
        assert abs(h0.values[0]) == pytest.approx(val, rel=1e-10)
        assert abs(h0.values[0]) == pytest.approx(1.0, rel=1e-10)

    def test_far_source_vanishes(self):
        scn = Scenario(m=1.0, a=0.1, eps=1.0, p0=1.0, x0=-1e3, dp=math.sqrt(0.5), navg=1.0)
        grid = TimeGrid(1.0, 0.5)
        assert abs(gaussian_overlap_h0(scn, grid).values[0]) < 1e-12

    def test_overlap_vs_momentum_quadrature(self):
        grid = TimeGrid(20.0, 10.0)
        h0 = gaussian_overlap_h0(FIG2A, grid)
        for i, t in enumerate(grid.times):
            oracle = momentum_quad(lambda p: phi_hat(p, FIG2A.eps)
                                   * np.exp(-1j * t * p * p / (2 * FIG2A.m))
                                   * chi_hat(p, FIG2A))
            assert h0.values[i] == pytest.approx(oracle, abs=1e-8)

    def test_kernel_normalised_and_contracting(self):
        grid = TimeGrid(10.0, 0.1)
        g = gaussian_kernel_g(FIG2A, grid)
        assert g.values[0] == pytest.approx(1.0)
        assert np.all(np.abs(g.values) <= 1.0 + 1e-12)
        oracle = momentum_quad(lambda p: phi_hat(p, FIG2A.eps) ** 2
                               * np.exp(-1j * 2.0 * p * p / (2 * FIG2A.m)))
        assert g.values[20] == pytest.approx(oracle, abs=1e-8)

    def test_free_wave_vs_quadrature(self):
        grid = TimeGrid(20.0, 20.0)
        ff = gaussian_free_at_origin(FIG2A, grid)
        oracle = momentum_quad(lambda p: (2 * math.pi) ** (-0.5)
                               * np.exp(-1j * 20.0 * p * p / (2 * FIG2A.m))
                               * chi_hat(p, FIG2A))
        assert ff.values[-1] == pytest.approx(oracle, abs=1e-8)


class TestVolterra:
    def test_absorber_off(self):
        grid = TimeGrid(3.0, 1e-2)
        h0 = gaussian_overlap_h0(FIG2A, grid)
        g = gaussian_kernel_g(FIG2A, grid)
        out = solve_volterra(h0, g, gamma=0.0)
        assert np.array_equal(out.values, h0.values)

    def test_constant_kernel_exponential(self):
        grid = TimeGrid(5.0, 1e-3)
        ones = ComplexSeries(grid, np.ones(grid.n_nodes, complex))
        h = solve_volterra(ones, ones, gamma=0.8)
        assert np.max(np.abs(h.values - np.exp(-0.4 * grid.times))) < 5e-8

    def test_grid_mismatch_rejected(self):
        a = ComplexSeries(TimeGrid(1.0, 0.1), np.ones(11, complex))
        b = ComplexSeries(TimeGrid(1.0, 0.05), np.ones(21, complex))
        with pytest.raises(GridMismatchError):
            solve_volterra(a, b, 1.0)

    def test_norm_loss_monotone_bounded(self):
        # the detected probability 1 - |chi_t|^2 = int gamma |h|^2 of one
        # particle is the built profile's Omega / navg
        prof = build_profile(FIG2A, t_max=60.0, dt=2e-3, derivative=False)
        assert not prof.scn.delta_detector and prof.beam_tail is None
        loss = prof.Omega / FIG2A.navg
        assert np.all(np.diff(loss) >= -1e-15)
        assert loss[-1] <= 1.0

    def test_richardson_order(self):
        # halving dt changes h by O(dt^2): difference ratio near 4
        vals = []
        for dt in (0.04, 0.02, 0.01):
            grid = TimeGrid(10.0, dt)
            h = solve_volterra(gaussian_overlap_h0(FIG2A, grid),
                               gaussian_kernel_g(FIG2A, grid), FIG2A.gamma)
            vals.append(h.values[int(round(10.0 / dt))])
        ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
        assert 3.5 <= ratio <= 4.5


class TestRenewal:
    def test_absorber_off(self):
        grid = TimeGrid(2.0, 1e-3)
        ones = ComplexSeries(grid, np.ones(grid.n_nodes, complex))
        out = solve_renewal(ones, 0.0)
        assert np.array_equal(out.values, ones.values)

    def test_constant_drive_closed_form(self):
        dp = DeltaParams(0.1, 1.0)
        grid = TimeGrid(5.0, 1e-3)
        ones = ComplexSeries(grid, np.ones(grid.n_nodes, complex))
        f = solve_renewal(ones, dp.d)
        exact = renewal_kernel_solution(grid.times, dp.d)
        assert np.max(np.abs(f.values - exact)) < 1e-6

    def test_monochromatic_vs_analytic(self):
        dp = DeltaParams(0.1, 1.0)
        grid = TimeGrid(20.0, 1e-3)
        f = solve_renewal(monochromatic_drive(1.0, 1.0, grid), dp.d)
        for t in (1.0, 5.0, 20.0):
            i = int(round(t / grid.dt))
            exact = f_p(1.0, grid.times[i], dp)
            assert abs(f.values[i] - exact) / abs(exact) < 1e-4


def sweep_volterra(h0v, gv, gamma, dt):
    """Row-by-row forward substitution of the trapezoidal Volterra scheme."""
    h = np.empty(h0v.size, dtype=complex)
    h[0] = h0v[0]
    c = 0.5 * gamma * dt
    diag = 1.0 + 0.5 * c * gv[0]
    for i in range(1, h0v.size):
        conv = 0.5 * gv[i] * h[0] + np.dot(gv[i - 1:0:-1], h[1:i])
        h[i] = (h0v[i] - c * conv) / diag
    return h


def sweep_renewal(ffv, d, dt):
    """Row-by-row forward substitution of the product-integration scheme."""
    k = np.arange(1, ffv.size, dtype=float)
    i0 = 2.0 * (np.sqrt(k) - np.sqrt(k - 1.0))
    i1 = (2.0 / 3.0) * (k ** 1.5 - (k - 1.0) ** 1.5)
    a_k = (1.0 - k) * i0 + i1  # first-node weight A_k
    b_k = k * i0 - i1          # right-endpoint weight B_k; B_1 is the diagonal
    c = d / math.sqrt(math.pi) * math.sqrt(dt)
    f = np.empty(ffv.size, dtype=complex)
    f[0] = ffv[0]
    for i in range(1, ffv.size):
        w = a_k[:i - 1] + b_k[1:i]  # W_l = A_l + B_{l+1}, l = 1 .. i-1
        conv = a_k[i - 1] * f[0] + np.dot(w[::-1], f[1:i])
        f[i] = (ffv[i] - c * conv) / (1.0 + c * b_k[0])
    return f


# rows solved per call (node 0 is given): tiny, around one leaf block, and a
# non-power-of-two size spanning several FFT levels
LEAF = propagate._LEAF
ROWS = [1, 2, 3, LEAF - 1, LEAF, LEAF + 1, 4998]


def _grid(rows, dt=1.0 / 64):
    grid = TimeGrid(rows * dt, dt)
    assert grid.n_nodes == rows + 1
    return grid


def _assert_pointwise(got, ref, rtol=1e-12):
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref))


class TestFastSolversMatchSweep:
    @pytest.mark.parametrize("rows", ROWS)
    def test_volterra_random(self, rows):
        rng = np.random.default_rng(rows)
        grid = _grid(rows)
        h0 = ComplexSeries(grid, [1.0, 1j] @ rng.normal(size=(2, rows + 1)) + 3.0)
        g = ComplexSeries(grid, np.exp((-0.05 + 0.3j) * grid.times))
        got = solve_volterra(h0, g, 0.7).values
        _assert_pointwise(got, sweep_volterra(h0.values, g.values, 0.7, grid.dt))

    @pytest.mark.parametrize("rows", ROWS)
    def test_volterra_physical(self, rows):
        grid = _grid(rows)
        h0 = gaussian_overlap_h0(FIG2A, grid)
        g = gaussian_kernel_g(FIG2A, grid)
        got = solve_volterra(h0, g, FIG2A.gamma).values
        _assert_pointwise(got, sweep_volterra(h0.values, g.values, FIG2A.gamma, grid.dt))

    @pytest.mark.parametrize("rows", ROWS)
    def test_renewal_random(self, rows):
        rng = np.random.default_rng(rows + 1)
        grid = _grid(rows)
        drive = ComplexSeries(grid, [1.0, 1j] @ rng.normal(size=(2, rows + 1)) + 3.0)
        d = DeltaParams(0.1, 1.0).d
        got = solve_renewal(drive, d).values
        _assert_pointwise(got, sweep_renewal(drive.values, d, grid.dt))

    @pytest.mark.parametrize("rows", ROWS)
    def test_renewal_physical(self, rows):
        grid = _grid(rows)
        scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0, dp=math.sqrt(0.5), navg=100.0)
        drive = gaussian_free_at_origin(scn, grid)
        d = DeltaParams(scn.a, scn.m).d
        got = solve_renewal(drive, d).values
        _assert_pointwise(got, sweep_renewal(drive.values, d, grid.dt))


# rows of the two-drive checks: one leaf, just past it, and five FFT levels
TWO_DRIVE_ROWS = [1, 2, LEAF, LEAF + 1, 16 * LEAF + 3]


def _bits(series):
    return series.values.view(np.uint64)


class TestTwoDrives:
    """A value drive and a d/dp0 drive share one prepared kernel."""

    @pytest.mark.parametrize("rows", TWO_DRIVE_ROWS)
    def test_volterra_pair_equals_two_solves(self, rows):
        grid = _grid(rows)
        g = gaussian_kernel_g(FIG2A, grid)
        h0, dh0 = gaussian_overlap_h0(FIG2A, grid, dp0=True)
        h, dh = solve_volterra(h0, g, FIG2A.gamma, dh0)
        assert np.array_equal(_bits(h), _bits(solve_volterra(h0, g, FIG2A.gamma)))
        assert np.array_equal(_bits(dh), _bits(solve_volterra(dh0, g, FIG2A.gamma)))

    @pytest.mark.parametrize("rows", TWO_DRIVE_ROWS)
    def test_renewal_pair_equals_two_solves(self, rows):
        grid = _grid(rows)
        scn = dataclasses.replace(FIG2A, eps=0.0)
        d = DeltaParams(scn.a, scn.m).d
        f0, df0 = gaussian_free_at_origin(scn, grid, dp0=True)
        f, df = solve_renewal(f0, d, df0)
        assert np.array_equal(_bits(f), _bits(solve_renewal(f0, d)))
        assert np.array_equal(_bits(df), _bits(solve_renewal(df0, d)))

    def test_second_drive_on_another_grid_rejected(self):
        grid, other = _grid(8), _grid(9)
        ones = ComplexSeries(grid, np.ones(grid.n_nodes))
        stray = ComplexSeries(other, np.ones(other.n_nodes))
        with pytest.raises(GridMismatchError):
            solve_renewal(ones, 0.1, stray)
        with pytest.raises(GridMismatchError):
            solve_volterra(ones, ones, 0.8, stray)

    def test_singular_diagonal_raises(self):
        # 1 + c 4/3 = 0: LAPACK's trtrs reported it through scipy's wrapper
        grid = _grid(LEAF + 1)
        ones = ComplexSeries(grid, np.ones(grid.n_nodes))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_renewal(ones, -0.75 * math.sqrt(math.pi / grid.dt))

    @pytest.mark.parametrize("solver", ["renewal", "volterra"])
    def test_temporary_drives_freed_before_the_kernel(self, solver, monkeypatch):
        # each drive goes into its padded buffer first, so drives that only
        # the call holds do not stay alive next to the kernel
        grid = _grid(LEAF + 1)
        refs, alive = [], []

        def drive():
            series = ComplexSeries(grid, np.full(grid.n_nodes, 1.0 + 0.5j))
            refs.append(weakref.ref(series))
            return series

        def spy(*args):
            alive.append([r() is not None for r in refs])
            return toeplitz(*args)

        toeplitz = propagate.toeplitz
        monkeypatch.setattr(propagate, "toeplitz", spy)
        if solver == "renewal":
            out = solve_renewal(drive(), 0.1, drive())
        else:
            g = ComplexSeries(grid, np.exp(-0.1 * grid.times))
            out = solve_volterra(drive(), g, 0.8, drive())
        assert alive == [[False, False]]
        assert len(out) == 2


class TestDriveMomentumDerivative:
    @pytest.mark.parametrize("drive, eps", [(gaussian_overlap_h0, 0.5),
                                            (gaussian_free_at_origin, 0.0)])
    def test_matches_central_difference(self, drive, eps):
        scn = Scenario(m=1.0, a=0.1, eps=eps, p0=1.3, x0=-20.0, dp=0.4, navg=100.0)
        grid = TimeGrid(60.0, 0.05)
        step = 1e-5
        fd = (drive(dataclasses.replace(scn, p0=scn.p0 + step), grid).values
              - drive(dataclasses.replace(scn, p0=scn.p0 - step), grid).values) / (2.0 * step)
        value, exact = (x.values for x in drive(scn, grid, dp0=True))
        assert np.max(np.abs(exact - fd)) <= 1e-7 * np.max(np.abs(exact))
        assert np.array_equal(value.view(np.uint64), drive(scn, grid).values.view(np.uint64))


class TestDeltaLimitConvergence:
    def test_scaled_overlap_approaches_renewal(self):
        # sqrt(gamma_eps/a) h_eps -> f pointwise as the detector narrows
        dp = DeltaParams(0.1, 1.0)
        grid = TimeGrid(40.0, 2e-3)
        scn0 = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0,
                        dp=math.sqrt(0.5), navg=100.0)
        f = solve_renewal(gaussian_free_at_origin(scn0, grid), dp.d)
        idx = [int(round(t / grid.dt)) for t in np.linspace(1.0, 40.0, 14)]
        sups = []
        for eps in (1.0, 0.5, 0.25, 0.125):
            scn = Scenario(m=1.0, a=0.1, eps=eps, p0=1.0, x0=-20.0,
                           dp=math.sqrt(0.5), navg=100.0)
            h = solve_volterra(gaussian_overlap_h0(scn, grid),
                               gaussian_kernel_g(scn, grid), scn.gamma)
            scaled = math.sqrt(scn.gamma / scn.a) * h.values
            sups.append(max(abs(scaled[i] - f.values[i]) for i in idx))
        assert all(a > b for a, b in zip(sups, sups[1:]))

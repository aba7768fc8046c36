import math

import numpy as np
import pytest

from qarrival import deltakernel as dk
from qarrival.deltakernel import (BeamAsymptotes, DeltaParams, beam_asymptotes,
                                  beam_intensity, beam_intensity_with_dp, erfc_c,
                                  f_p, f_superposition, remainder_R,
                                  remainder_R_dp, renewal_kernel_solution,
                                  transmission_T)
from qarrival.errors import ModeError, ToleranceError
from qarrival.propagate import (TimeGrid, gaussian_free_at_origin,
                                monochromatic_drive, solve_renewal)
from qarrival.scenario import Scenario

DP = DeltaParams(a=0.1, m=1.0)
SQRT2PI = math.sqrt(2.0 * math.pi)


def remainder_pair(p, t, dp):
    """R_p and dR_p/dp from one set of erfc evaluations, as the beam tables
    take them through :func:`beam_intensity_with_dp`."""
    return dk._remainder(dk._remainder_pieces(dk._positive(p), t, dp))


def gaussian_chi_hat(scn):
    def chi(p):
        return (2 * math.pi) ** (-0.25) / math.sqrt(scn.dp) \
            * np.exp(-(p - scn.p0) ** 2 / (4 * scn.dp ** 2) - 1j * p * scn.x0)
    return chi


class TestErfcContract:
    def test_array_shape_kept(self):
        z = np.array([[0.5 + 0.2j, 3.0 - 3.0j], [1.0 + 0.0j, -2.0 + 1.0j]])
        vals = erfc_c(z)
        assert vals.shape == (2, 2)
        assert vals[1, 0] == erfc_c(1.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(erfc_c(1.0), complex)


class TestParams:
    def test_momentum_scale(self):
        assert DP.alpha == pytest.approx(0.05)

    def test_decay_constant_phase(self):
        assert np.angle(DP.d) == pytest.approx(-math.pi / 4)
        assert abs(DP.d) == pytest.approx(0.1 * 1.0 / (2 * math.sqrt(2)))


class TestTransmission:
    def test_balance_point(self):
        assert transmission_T(DP.alpha, DP) == pytest.approx(0.5)

    def test_blocked_at_rest(self):
        assert transmission_T(0.0, DP) == 0.0

    def test_reference_value(self):
        # 1/(1 + alpha) with alpha = 0.05
        assert transmission_T(1.0, DP) == pytest.approx(1.0 / 1.05)

    def test_even_in_momentum(self):
        assert transmission_T(-2.0, DP) == transmission_T(2.0, DP)


class TestRemainder:
    def test_initial_value_completes_unity(self):
        for p in (0.2, 1.0, 5.0):
            assert transmission_T(p, DP) + remainder_R(p, 0.0, DP) == pytest.approx(1.0)

    def test_power_law_decay(self):
        # strong absorber so the asymptotic window covers [1e2, 1e4]
        strong = DeltaParams(2.0, 1.0)
        ts = np.geomspace(1e2, 1e4, 60)
        mags = np.abs(remainder_R(1.7, ts, strong))
        slope = np.polyfit(np.log(ts), np.log(mags), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.05)

    def test_removable_point_two_sided(self):
        al = DP.alpha
        left = remainder_R(al * (1 - 1e-6), 3.0, DP)
        right = remainder_R(al * (1 + 1e-6), 3.0, DP)
        centre = remainder_R(al, 3.0, DP)
        assert abs(0.5 * (left + right) - centre) < 1e-9

    def test_derivative_vs_fd(self):
        h = 1e-6
        for p in (0.2, 1.0, 5.0):
            fd = (remainder_R(p + h, 7.0, DP) - remainder_R(p - h, 7.0, DP)) / (2 * h)
            assert remainder_R_dp(p, 7.0, DP) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("p", [DP.alpha, DP.alpha * (1 + 1e-5), DP.alpha * (1 - 3e-5),
                                   0.3, 1.0, 1.7])
    def test_shared_pieces_match_separate_calls_bitwise(self, p):
        # includes the Taylor branch at |p| = alpha and both sides of it
        t = np.concatenate([[0.0], np.geomspace(1e-9, 60.0, 500)])
        both = remainder_pair(p, t, DP)
        for got, alone in zip(both, (remainder_R(p, t, DP), remainder_R_dp(p, t, DP))):
            assert np.array_equal(got.view(np.uint64), alone.view(np.uint64))
        scalar = remainder_pair(p, 3.0, DP)
        assert scalar == (remainder_R(p, 3.0, DP), remainder_R_dp(p, 3.0, DP))
        assert all(type(v) is complex for v in scalar)

    def test_shared_pieces_reject_zero_momentum(self):
        with pytest.raises(ModeError):
            beam_intensity_with_dp(3.0, 0.0, 1.0, DP)

    @pytest.mark.parametrize("p", [-1.0, -DP.alpha, np.array([0.5, -0.5]), math.nan])
    def test_derivative_rejects_nonpositive_momentum(self, p):
        # the pieces hold |p|; the sign check must see p itself
        for fn in (remainder_R_dp, remainder_pair,
                   lambda p, t, dp: beam_intensity_with_dp(t, p, 1.0, dp)):
            with pytest.raises(ModeError):
                fn(p, 3.0, DP)

    def test_bracket_bounded(self):
        ts = np.geomspace(1e-3, 1e3, 200)
        for p in (0.2, 1.0, 5.0):
            mags = np.abs(transmission_T(p, DP) + remainder_R(p, ts, DP))
            assert np.all(mags <= 1.2)
            assert np.all(mags >= 0.0)


class TestMonochromatic:
    def test_initial_value(self):
        assert f_p(1.0, 0.0, DP) == pytest.approx(1.0 / SQRT2PI)

    def test_weak_absorber_is_free_wave(self):
        weak = DeltaParams(1e-9, 1.0)
        t = 7.0
        free = np.exp(-1j * t * 1.0 / 2.0) / SQRT2PI
        assert f_p(1.0, t, weak) == pytest.approx(free, rel=1e-6)

    @pytest.mark.parametrize("p", [0.2, 1.0, 5.0])
    def test_solves_renewal_equation(self, p):
        # substitute into f = f_free - (d/sqrt(pi)) int f/sqrt(t-s) under
        # product quadrature at dt = 1e-4
        grid = TimeGrid(2.0, 1e-4)
        t = grid.times
        fvals = f_p(p, t, DP)
        free = np.exp(-1j * t * p * p / 2.0) / SQRT2PI
        k = np.arange(1, grid.n_nodes, dtype=float)
        i0 = 2.0 * (np.sqrt(k) - np.sqrt(k - 1))
        i1 = (2.0 / 3.0) * (k ** 1.5 - (k - 1) ** 1.5)
        a_k = (1 - k) * i0 + i1
        b_k = k * i0 - i1
        w_k = np.empty(grid.n_nodes - 1)
        w_k[:-1] = a_k[:-1] + b_k[1:]
        w_k[-1] = a_k[-1]
        c = DP.d / math.sqrt(math.pi) * math.sqrt(grid.dt)
        i = grid.n_nodes - 1
        conv = a_k[i - 1] * fvals[0] + b_k[0] * fvals[i] \
            + np.dot(w_k[:i - 1][::-1], fvals[1:i])
        residual = abs(fvals[i] - free[i] + c * conv)
        assert residual < 1e-6


class TestSuperposition:
    def test_zero_source(self):
        val = f_superposition(lambda p: np.zeros_like(p, dtype=complex), 5.0, DP,
                              window=(-1.0, 1.0))
        assert val == 0.0

    def test_monochromatic_limit(self):
        scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=0.0, dp=1e-3, navg=1.0)
        chi = gaussian_chi_hat(scn)
        t = 20.0
        val = f_superposition(chi, t, DP, window=(scn.p0 - 10 * scn.dp, scn.p0 + 10 * scn.dp))
        # narrow packet: f ~ f_p0 * integral of chi_hat
        from scipy.integrate import quad
        mass = quad(lambda p: chi(p).real, scn.p0 - 0.02, scn.p0 + 0.02, limit=200)[0]
        assert abs(val - f_p(scn.p0, t, DP) * mass) / abs(val) < 1e-3

    def test_against_renewal_solver(self):
        scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0,
                       dp=math.sqrt(0.5), navg=100.0)
        grid = TimeGrid(40.0, 1e-3)
        f = solve_renewal(gaussian_free_at_origin(scn, grid), DP.d)
        chi = gaussian_chi_hat(scn)
        window = (scn.p0 - 10 * scn.dp, scn.p0 + 10 * scn.dp)
        for t in (5.0, 20.0, 40.0):
            i = int(round(t / grid.dt))
            val = f_superposition(chi, t, DP, window, phase_rate0=abs(scn.x0))
            assert abs(val - f.values[i]) / abs(val) < 1e-4

    def test_tolerance_failure_reports_estimate(self):
        # a source so far away that the panel cap cannot resolve its phase
        # must raise and carry the best available estimate
        scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-3e6,
                       dp=math.sqrt(0.5), navg=100.0)
        chi = gaussian_chi_hat(scn)
        with pytest.raises(ToleranceError) as err:
            f_superposition(chi, 20.0, DP, (scn.p0 - 7, scn.p0 + 7),
                            phase_rate0=abs(scn.x0), rtol=1e-10)
        assert err.value.estimate is not None


class TestBeamIntensity:
    def test_initial_rate(self):
        assert beam_intensity(0.0, 1.0, 56.42, DP) == pytest.approx(5.642)

    def test_plateau_value(self):
        asym = beam_asymptotes(1.0, 56.42, DP)
        assert asym.omega_inf == pytest.approx(5.12, abs=0.01)
        late = beam_intensity(1e6, 1.0, 56.42, DP)
        assert late == pytest.approx(asym.omega_inf, rel=1e-6)

    def test_plateau_envelope(self):
        asym = beam_asymptotes(1.0, 56.42, DP)
        ts = np.geomspace(1e2, 1e4, 200)
        devs = np.abs(beam_intensity(ts, 1.0, 56.42, DP) - asym.omega_inf)
        env = np.max(devs * ts ** 1.5)
        assert np.all(devs <= 1.05 * env * ts ** -1.5)
        assert abs(beam_intensity(1e3, 1.0, 56.42, DP) - asym.omega_inf) \
            <= 1.05 * env * 1e3 ** -1.5

    def test_fast_beam_fully_transmitted(self):
        asym = beam_asymptotes(1e4, 2.0, DP)
        assert asym.omega_inf == pytest.approx(DP.a * 2.0, rel=1e-5)

    def test_derivative_matches_fd(self):
        ts = np.geomspace(0.1, 100.0, 120)
        h = 1e-5
        fd = (beam_intensity(ts, 1.0 + h, 56.42, DP)
              - beam_intensity(ts, 1.0 - h, 56.42, DP)) / (2 * h)
        an = beam_intensity_with_dp(ts, 1.0, 56.42, DP)[1]
        assert np.max(np.abs(an - fd) / np.abs(an)) < 1e-6

    def test_derivative_small_time_power(self):
        asym = beam_asymptotes(1.0, 56.42, DP)
        ts = np.array([1e-6, 1e-5, 1e-4])
        vals = beam_intensity_with_dp(ts, 1.0, 56.42, DP)[1]
        assert np.allclose(vals / ts ** 1.5, asym.dc_t32, rtol=2e-3)

    def test_small_time_expansion(self):
        asym = beam_asymptotes(1.0, 56.42, DP)
        t = 1e-6
        model = asym.c0 + asym.c_sqrt * math.sqrt(t) + asym.c_lin * t
        assert beam_intensity(t, 1.0, 56.42, DP) == pytest.approx(model, rel=1e-7)


def test_kernel_solution_satisfies_own_equation():
    # exp(d^2 t) erfc(d sqrt t) solves g = 1 - (d/sqrt(pi)) int g/sqrt(t-s)
    grid = TimeGrid(4.0, 1e-4)
    t = grid.times
    g = renewal_kernel_solution(t, DP.d)
    k = np.arange(1, grid.n_nodes, dtype=float)
    i0 = 2.0 * (np.sqrt(k) - np.sqrt(k - 1))
    i1 = (2.0 / 3.0) * (k ** 1.5 - (k - 1) ** 1.5)
    a_k = (1 - k) * i0 + i1
    b_k = k * i0 - i1
    w_k = np.empty(grid.n_nodes - 1)
    w_k[:-1] = a_k[:-1] + b_k[1:]
    w_k[-1] = a_k[-1]
    c = DP.d / math.sqrt(math.pi) * math.sqrt(grid.dt)
    i = grid.n_nodes - 1
    conv = a_k[i - 1] * g[0] + b_k[0] * g[i] + np.dot(w_k[:i - 1][::-1], g[1:i])
    assert abs(g[i] - 1.0 + c * conv) < 1e-8


def test_convolution_form_identity():
    # alternative solution form: f = g(0) f_free + f_free * g' reproduces the
    # monochromatic solution (g from the constant-drive kernel)
    p = 1.0
    grid = TimeGrid(6.0, 5e-4)
    t = grid.times
    g = renewal_kernel_solution(t, DP.d)
    free = np.exp(-1j * t * p * p / 2.0) / SQRT2PI
    # g' = d^2 g - d/sqrt(pi t); integrate f_free(t-s) g'(s) ds by splitting
    # off the integrable 1/sqrt(s) singularity on each cell
    dt = grid.dt
    target_idx = grid.n_nodes - 1
    total = complex(0.0)
    d = DP.d
    for j in range(target_idx):
        s0, s1 = t[j], t[j + 1]
        sm = 0.5 * (s0 + s1)
        smooth = free[target_idx - j] * (d * d * g[j]) + free[target_idx - j - 1] * (d * d * g[j + 1])
        total += 0.5 * dt * smooth
        # singular part: -d/sqrt(pi s) against f_free(t-s), midpoint value
        fmid = np.exp(-1j * (t[target_idx] - sm) * p * p / 2.0) / SQRT2PI
        total += -d / math.sqrt(math.pi) * fmid * 2.0 * (math.sqrt(s1) - math.sqrt(s0))
    candidate = g[0] * free[target_idx] + total
    exact = f_p(p, t[target_idx], DP)
    assert abs(candidate - exact) / abs(exact) < 1e-3

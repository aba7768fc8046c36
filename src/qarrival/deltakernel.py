"""Analytic point-detector solution and the special functions behind it.

The point absorber at the origin admits a closed-form monochromatic
solution: a stationary transmission factor ``T_p`` plus a transient
remainder ``R_p(t)`` built from complementary error functions of complex
argument along the ray ``exp(-i pi/4) * sqrt(t)``.  Superposing those
solutions over the momentum wavefunction of the source gives the detection
amplitude for arbitrary packets, and evaluating at a single momentum gives
the uniform-beam intensity together with its exact momentum derivative.

The complex erfc comes from scipy's Faddeeva-based ``erfc``
(Zaghloul & Ali, ACM TOMS 38, 2011); the test suite pins it against
mpmath on the ray that matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import ModeError, ToleranceError
from .quadrature import integrate_panels, oscillatory_edges, refine_edges

_SQRT_PI = math.sqrt(math.pi)
_EXP_M_IPI4 = complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))

# ---------------------------------------------------------------------------
# Complementary error function for complex argument
# ---------------------------------------------------------------------------


def erfc_c(z):
    """Complementary error function for complex argument.

    Faddeeva-based (``scipy.special.erfc``); pinned by the test suite to
    1e-12 relative against mpmath on the measurement ray and on |z| <= 30
    with Re z >= -5.  Where exp(-z^2) overflows, the result is infinite.
    """
    out = erfc(np.asarray(z, dtype=complex))
    return complex(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Point-detector parameters and monochromatic solution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaParams:
    """Point-detector constants derived from strength a and mass m (hbar=1).

    ``alpha = a m / 2`` is the momentum scale of the absorber and
    ``d = a sqrt(m)/4 * (1 - i)`` the complex decay constant of the renewal
    kernel (arg d = -pi/4, so 1/d^2 carries the unit of time).
    """

    a: float
    m: float

    def __post_init__(self):
        if self.a <= 0 or self.m <= 0:
            raise ModeError("point detector needs a > 0 and m > 0")

    @property
    def alpha(self) -> float:
        return 0.5 * self.a * self.m

    @property
    def d(self) -> complex:
        return 0.25 * self.a * math.sqrt(self.m) * (1.0 - 1.0j)


def transmission_T(p, dp: DeltaParams):
    """Stationary transmission factor |p| / (|p| + alpha), in [0, 1)."""
    q = np.abs(np.asarray(p, dtype=float))
    out = q / (q + dp.alpha)
    return float(out) if out.ndim == 0 else out


_TAYLOR_REL_WIDTH = 1e-4


def _remainder_pieces(p, t, dp: DeltaParams):
    """Common factors of the transient remainder, broadcast over p and t."""
    q = np.abs(np.asarray(p, dtype=float))
    t = np.asarray(t, dtype=float)
    q, t = np.broadcast_arrays(q, t)
    alpha = dp.alpha
    beta = _EXP_M_IPI4 * np.sqrt(t / (2.0 * dp.m))
    e1 = erfc_c(q * beta)
    e2 = erfc_c(alpha * beta)
    # exp(-beta^2 (q^2 - alpha^2)) = exp(i t (q^2 - alpha^2) / (2 m)): unimodular
    g = np.exp(1j * t * (q * q - alpha * alpha) / (2.0 * dp.m))
    return q, alpha, beta, e1, e2, g


def _remainder_taylor(q, alpha, beta, e2):
    """Remainder and its p-derivative near the removable point |p| = alpha.

    Expands the bracket p*erfc(p beta) - alpha*G(p)*erfc(alpha beta) to
    fourth order in delta = |p| - alpha, which removes the cancellation in
    the (p^2 - alpha^2) denominator.
    """
    delta = q - alpha
    b2 = beta * beta
    e0 = np.exp(-b2 * alpha * alpha)
    # derivatives of e(p) = exp(-beta^2 p^2) at p = alpha
    ed1 = -2.0 * b2 * alpha * e0
    ed2 = (-2.0 * b2 + 4.0 * b2 * b2 * alpha * alpha) * e0
    ed3 = (12.0 * b2 * b2 * alpha - 8.0 * b2 ** 3 * alpha ** 3) * e0
    c = -2.0 / _SQRT_PI * beta
    E1d1, E1d2, E1d3, E1d4 = c * e0, c * ed1, c * ed2, c * ed3
    # derivatives of G(p) = exp(-beta^2 (p^2 - alpha^2)) at p = alpha
    Gd1 = -2.0 * b2 * alpha
    Gd2 = -2.0 * b2 + 4.0 * b2 * b2 * alpha * alpha
    Gd3 = 12.0 * b2 * b2 * alpha - 8.0 * b2 ** 3 * alpha ** 3
    Gd4 = 12.0 * b2 * b2 - 48.0 * b2 ** 3 * alpha * alpha + 16.0 * b2 ** 4 * alpha ** 4
    K1 = e2 + alpha * E1d1 - alpha * Gd1 * e2
    K2 = 2.0 * E1d1 + alpha * E1d2 - alpha * Gd2 * e2
    K3 = 3.0 * E1d2 + alpha * E1d3 - alpha * Gd3 * e2
    K4 = 4.0 * E1d3 + alpha * E1d4 - alpha * Gd4 * e2
    series = K1 + delta * (K2 / 2.0 + delta * (K3 / 6.0 + delta * K4 / 24.0))
    dseries = K2 / 2.0 + delta * (K3 / 3.0 + delta * K4 / 8.0)
    return (alpha / (q + alpha) * series,
            (-alpha / (q + alpha) ** 2) * series + alpha / (q + alpha) * dseries)


def _complex_out(x):
    return complex(x[()]) if x.ndim == 0 else x


def _remainder(pieces):
    """``(R_p(t), dR_p(t)/d|p|)`` from the :func:`_remainder_pieces`: one
    bracket over |p|^2 - alpha^2, or its Taylor expansion near |p| = alpha."""
    q, alpha, beta, e1, e2, g = pieces
    b2 = beta * beta
    expq = np.exp(-b2 * q * q)  # unimodular on the physical ray
    # d/dp [p erfc(p beta) - alpha G(p) E2] with G' = -2 beta^2 p G
    dK = e1 - (2.0 / _SQRT_PI) * beta * q * expq + 2.0 * b2 * q * alpha * g * e2
    denom = q * q - alpha * alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        K = q * e1 - alpha * g * e2
        R = alpha / denom * K
        dR = alpha / denom * dK - 2.0 * q * alpha / denom ** 2 * K
    near = np.abs(q - alpha) < _TAYLOR_REL_WIDTH * alpha
    if np.any(near):
        taylor, dtaylor = _remainder_taylor(q, alpha, beta, e2)
        R, dR = np.where(near, taylor, R), np.where(near, dtaylor, dR)
    return _complex_out(R), _complex_out(dR)


def remainder_R(p, t, dp: DeltaParams):
    """Transient remainder of the monochromatic point-detector solution.

    Decays like t^(-3/2); at t = 0 it equals alpha/(|p|+alpha) so that
    T_p + R_p(0) = 1.  The removable point |p| = alpha is evaluated through
    a local Taylor expansion of the bracket.
    """
    return _remainder(_remainder_pieces(p, t, dp))[0]


def _positive_pieces(p, t, dp: DeltaParams):
    """:func:`_remainder_pieces` for the derivative, which needs p > 0 itself:
    the pieces hold |p|, whose derivative has the wrong sign for p < 0."""
    if not np.all(np.asarray(p) > 0.0):
        raise ModeError("remainder derivative is implemented for p > 0 sources")
    return _remainder_pieces(p, t, dp)


def remainder_R_dp(p, t, dp: DeltaParams):
    """Momentum derivative of the transient remainder (p > 0 only)."""
    return _remainder(_positive_pieces(p, t, dp))[1]


def f_p(p, t, dp: DeltaParams):
    """Monochromatic detection amplitude at the origin.

    (2 pi)^(-1/2) (T_p + R_p(t)) exp(-i t p^2 / (2 m)), the building block
    superposed over the source momentum wavefunction.
    """
    p_arr = np.asarray(p, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    bracket = transmission_T(p_arr, dp) + remainder_R(p_arr, t_arr, dp)
    phase = np.exp(-1j * t_arr * p_arr * p_arr / (2.0 * dp.m))
    out = bracket * phase / math.sqrt(2.0 * math.pi)
    return complex(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Momentum superposition
# ---------------------------------------------------------------------------


def f_superposition(chi_hat, t, dp: DeltaParams, window, phase_rate0=0.0,
                    rtol: float = 1e-7):
    """Detection amplitude f(t) = integral of f_p(t) chi_hat(p) dp.

    ``chi_hat`` is the (vectorised) momentum wavefunction, ``window`` the
    integration interval that carries its mass, and ``phase_rate0`` an upper
    bound on the phase rate of chi_hat itself (|x0| for a displaced packet),
    used to size the oscillation-aware panels.

    The transmission part (no erfc, fast kinetic phase) and the remainder
    part (erfc factors, essentially non-oscillatory once the erfc argument
    is large) are integrated on separately sized 16-point Gauss-Legendre
    panel sets.  A one-step panel refinement guards the tolerance and gives
    the returned value; failure raises :class:`ToleranceError` carrying the
    finer estimate.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    plo, phi = float(window[0]), float(window[1])
    if not plo < phi:
        raise ValueError("empty momentum window")
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    alpha = dp.alpha
    breakpts = (0.0, alpha, -alpha)
    pmax = max(abs(plo), abs(phi))
    out = np.empty(t_arr.shape, dtype=complex)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    # amplitude scale of the problem; keeps the tolerance check meaningful
    # at times where f itself is exponentially small
    ref_scale = norm * integrate_panels(lambda p: np.abs(chi_hat(p)),
                                        np.linspace(plo, phi, 33))
    atol = 1e-12 * max(ref_scale, 1e-300)
    for i, ti in enumerate(t_arr):
        rate_T = phase_rate0 + ti * pmax / dp.m
        edges_T = oscillatory_edges(plo, phi, rate_T, breakpoints=breakpts)
        # remainder integrand stops oscillating once |p| sqrt(t/2m) is large
        p_osc = pmax if ti == 0.0 else min(pmax, 4.0 * math.sqrt(2.0 * dp.m / ti))
        rate_R = phase_rate0 + ti * p_osc / dp.m
        edges_R = oscillatory_edges(plo, phi, rate_R, breakpoints=breakpts)

        def part_T(p, ti=ti):
            return transmission_T(p, dp) * chi_hat(p) * np.exp(-1j * ti * p * p / (2.0 * dp.m))

        def part_R(p, ti=ti):
            return remainder_R(p, ti, dp) * chi_hat(p) * np.exp(-1j * ti * p * p / (2.0 * dp.m))

        val = integrate_panels(part_T, edges_T) + integrate_panels(part_R, edges_R)
        val2 = (integrate_panels(part_T, refine_edges(edges_T))
                + integrate_panels(part_R, refine_edges(edges_R)))
        err = abs(val2 - val)
        if err > rtol * abs(val2) + atol:
            raise ToleranceError(
                f"momentum superposition at t={ti:g} did not converge "
                f"(refinement moved the value by {err:.3e})",
                estimate=val2 * norm, achieved=err)
        out[i] = val2 * norm
    return complex(out[0]) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# Uniform-beam intensity
# ---------------------------------------------------------------------------


def beam_intensity(t, p0: float, r0: float, dp: DeltaParams):
    """Detection intensity of the uniform beam: a r0 |T + R(t)|^2."""
    bracket = transmission_T(p0, dp) + remainder_R(p0, t, dp)
    return dp.a * r0 * np.abs(bracket) ** 2


def beam_intensity_with_dp(t, p0: float, r0: float, dp: DeltaParams):
    """The beam intensity and its exact momentum derivative (p0 > 0), from
    one set of erfc evaluations.

    The derivative is the chain rule through the remainder, using
    d/dz erfc(z) = -2/sqrt(pi) exp(-z^2).  The beam profile tables come
    from here; the test suite and criterion 11 cross-check the derivative
    against central finite differences of :func:`beam_intensity`.
    """
    rem, rem_dp = _remainder(_positive_pieces(p0, t, dp))
    bracket = transmission_T(p0, dp) + rem
    dbracket = dp.alpha / (p0 + dp.alpha) ** 2 + rem_dp
    return (dp.a * r0 * np.abs(bracket) ** 2,
            2.0 * dp.a * r0 * np.real(np.conj(bracket) * dbracket))


@dataclass(frozen=True)
class BeamAsymptotes:
    """Late-time plateau and early-time expansion of the beam intensity.

    omega(t) -> omega_inf with an oscillatory O(t^-3/2) remainder;
    omega(t) = c0 + c_sqrt sqrt(t) + c_lin t + O(t^(3/2)) near t = 0, and
    the momentum derivative starts at dc_t32 * t^(3/2).
    """

    omega_inf: float
    domega_dp0_inf: float
    c0: float
    c_sqrt: float
    c_lin: float
    dc_t32: float


def beam_asymptotes(p0: float, r0: float, dp: DeltaParams) -> BeamAsymptotes:
    a, m, alpha = dp.a, dp.m, dp.alpha
    omega_inf = a * r0 * p0 * p0 / (alpha + p0) ** 2
    domega_inf = a * r0 * 2.0 * alpha * p0 / (p0 + alpha) ** 3
    c0 = a * r0
    c_sqrt = -a * r0 * a * math.sqrt(m / math.pi)
    c_lin = a * r0 * a * a * m / (2.0 * math.pi)
    dc_t32 = -a * r0 * a * p0 / (3.0 * _SQRT_PI * math.sqrt(m))
    return BeamAsymptotes(omega_inf, domega_inf, c0, c_sqrt, c_lin, dc_t32)


def renewal_kernel_solution(t, d: complex):
    """Solution exp(d^2 t) erfc(d sqrt(t)) of the constant-drive renewal kernel."""
    t = np.asarray(t, dtype=float)
    val = np.exp(d * d * t) * erfc_c(d * np.sqrt(t))
    return complex(val) if val.ndim == 0 else val

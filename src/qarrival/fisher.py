"""Fisher information of the source momentum carried by arrival times.

The score variance for n ordered detections reduces to a single
one-dimensional integral of

    F_n(Omega) * omega * Omega^(n-1) * S_n / (n-1)!

where S_n combines the log-derivative of the intensity with the running
integrals dOmega = int domega and dOmega~ = int domega^2/omega, plus a lump
term for the NO-event outcome when the total mass Omega(inf) is finite.
The integral is evaluated over the tabulated profile in t and continued in
the mass variable u with the constant-intensity late-time model (beam mode).
That continuation is exact for the coherent family (upper incomplete gamma
functions) and the quasi-free family (incomplete beta functions in
1/(1+u)); a fixed-number family has no beam, whose infinite mass exceeds
any particle number N (its beam limit is the coherent family).
For several detection counts on one profile, :func:`fisher_info_many` does
the n-independent part of that work once.

A Monte Carlo score-variance estimator provides an independent oracle for
the quadrature: it scores sampled records with the exact p0-derivative of
their log-likelihood, read from the profile's own ``domega`` and ``dOmega``
(a complete record scores sum_i domega/omega - H_n(Omega(t_n)) dOmega(t_n)),
so it builds no profile and carries no finite-difference step.  The
time-stationary constants give the exact sparse-beam limits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import beta, betainc, expn, gammaincc, gammaln

from . import intensity as it
from . import process as pr
from .deltakernel import DeltaParams
from .errors import ModeError, ToleranceError
from .quadrature import integrate_panels
from .scenario import Scenario, StateFamily, arrival_mass_logs, hn_values, log_arrival_mass


@dataclass(frozen=True)
class FisherReport:
    """Information budget of the n-detection arrival model."""

    n: int
    value: float            # I_n, units 1/pbar^2
    detection_part: float
    noevent_part: float
    p_tot: float
    conditional: float      # I_n^(c), information given >= n detections


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _require_derivative(profile: it.IntensityProfile):
    if profile.domega is None:
        raise ModeError("profile was built without momentum derivatives; "
                        "rebuild with derivative=True")


def i_infinity(p0: float, dp: DeltaParams) -> float:
    """Squared late-time log-derivative of the beam intensity.

    a^2 m^2 / (p0^2 (p0 + a m / 2)^2); the per-detection information scale
    of the sparse beam.
    """
    return dp.a ** 2 * dp.m ** 2 / (p0 ** 2 * (p0 + dp.alpha) ** 2)


# ---------------------------------------------------------------------------
# stationary constants and sparse limits
# ---------------------------------------------------------------------------

def _sparse_constant(n: int, family: StateFamily) -> float:
    """C_n of the sparse-beam limit C_n * I_inf: n for the coherent family and
    n/(n+2) for the quasi-free family.  A Fock family raises :class:`ModeError`:
    the time-stationary (beam) limit of a fixed-number source is the coherent one."""
    if family.kind == "coherent":
        return float(n)
    if family.kind == "quasifree":
        return n / (n + 2.0)
    raise ModeError("sparse-beam constants exist for the coherent and quasi-free families only")


# the agreement asserted between the stationary-constant quadrature and C_n
_STATIONARY_TOL = 1e-8


def stationary_constant(n: int, family: StateFamily) -> float:
    """Quadrature of F_n(u) u^(n-1) [n - u H_n(u)]^2 / (n-1)! over all mass.

    The closed forms C_n of :func:`_sparse_constant` are asserted against
    the quadrature at ``_STATIONARY_TOL``; there is no fixed-number constant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    closed = _sparse_constant(n, family)

    def integrand(u):
        with np.errstate(over="ignore"):
            w = np.exp(log_arrival_mass(family, n, u))
        return w * (n - u * hn_values(family, n, u)) ** 2

    if family.kind == "coherent":
        u_head = n + 60.0 + 14.0 * math.sqrt(n)
        val = float(integrate_panels(integrand, np.linspace(0.0, u_head, 193), 24))
    else:
        # in x = 1/(1+u) the integrand is the polynomial n (1-x)^(n-1) (n - (n+1)(1-x))^2
        val = float(integrate_panels(lambda x: integrand((1.0 - x) / x) / (x * x),
                                     np.linspace(0.0, 1.0, 65), 24))
    if abs(val - closed) > _STATIONARY_TOL * max(1.0, closed):
        raise ToleranceError(
            f"stationary-constant quadrature {val!r} disagrees with the closed form "
            f"{closed!r} beyond {_STATIONARY_TOL:g}", estimate=val)
    return val


def sparse_limit_I(n: int, family: StateFamily, p0: float, dp: DeltaParams) -> float:
    """Vanishing-density limit of the beam information: C_n * I_inf(p0)."""
    return _sparse_constant(n, family) * i_infinity(p0, dp)


# ---------------------------------------------------------------------------
# the quadrature formula
# ---------------------------------------------------------------------------

def _s_n(family: StateFamily, n: int, u, ratio, phi, clipped):
    """S_n from its n-independent parts: ``ratio = dOmega/u``, the intensity
    log-derivative ``phi`` and ``clipped = max(dOmega~/u - ratio^2, 0)``."""
    hn = hn_values(family, n, u)
    return ((n - 1.0 - u * hn) * ratio + phi) ** 2 + (n - 1.0) * clipped


# the grid-thinning check: dropping every other node may move the tabulated
# integral by at most THINNING_RTOL * |detection part| + THINNING_ATOL
THINNING_RTOL = 1e-3
THINNING_ATOL = 1e-9


def fisher_info(n: int, family: StateFamily, profile: it.IntensityProfile) -> FisherReport:
    """Information carried by n ordered arrival times (plus the NO outcome).

    The detection part integrates the tabulated profile in t and, for the
    beam, continues in the mass variable with the constant-intensity tail
    model.  The NO-event part uses the closed-form derivative of the total
    detection probability.  A grid-thinning check guards the tabulated
    integral; failure raises :class:`ToleranceError` with the estimate.
    """
    return fisher_info_many((n,), family, profile)[0]


def fisher_info_many(n_values, family: StateFamily,
                     profile: it.IntensityProfile) -> tuple[FisherReport, ...]:
    """:func:`fisher_info` for each detection count in ``n_values``, in order.

    The work that does not depend on n (the intensity ratios, the
    trapezoid spacings and the logs of the family weight) is done once per
    call, and the coherent and quasi-free beam tails of all counts in one
    vectorised pass; each report equals the one :func:`fisher_info` gives
    for its n alone, bit for bit.  Duplicates are allowed.  The thinning
    check raises for the first failing n in list order.
    """
    n_values = tuple(n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("n must be >= 1")
    _require_derivative(profile)
    pr.checked_omega_inf(family, profile)
    t = profile.t
    u = profile.Omega
    om = profile.omega
    dom = profile.domega
    interior = om > 0.0
    pos = np.flatnonzero(interior)
    if pos.size and np.any(~interior[pos[0]:pos[-1] + 1]):
        warnings.warn("intensity touches 0 in the interior; the mass substitution "
                      "is unreliable there")
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(interior, dom / np.where(interior, om, 1.0), 0.0)
        upos = u > 0.0
        ratio = np.where(upos, profile.dOmega / np.where(upos, u, 1.0), 0.0)
        ratio_t = np.where(upos, profile.dOmega_tilde / np.where(upos, u, 1.0), 0.0)
    clipped = np.maximum(ratio_t - ratio * ratio, 0.0)
    logs = arrival_mass_logs(family, u)
    # the trapezoid sums as np.trapezoid forms them, on the full and the
    # thinned grid
    d, d2 = np.diff(t), np.diff(t[::2])
    distinct = tuple(dict.fromkeys(n_values))
    tails = (dict.fromkeys(distinct, 0.0) if profile.beam_tail is None
             else _beam_tails(distinct, family, profile))
    reports = {}
    for n in distinct:
        s_vals = _s_n(family, n, u, ratio, phi, clipped)
        with np.errstate(over="ignore"):
            y = np.exp(log_arrival_mass(family, n, u, logs)) * om * s_vals
        y2 = y[::2]
        fine = float((d * (y[1:] + y[:-1]) / 2.0).sum())
        coarse = float((d2 * (y2[1:] + y2[:-1]) / 2.0).sum())
        detection = fine + tails[n]
        # thinning check on the tabulated part only (the tail is exact)
        if abs(fine - coarse) > THINNING_RTOL * abs(detection) + THINNING_ATOL:
            raise ToleranceError(
                f"profile grid too coarse for the information integral at n={n} "
                f"(thinning moved it by {abs(fine - coarse):.3e})",
                estimate=detection, achieved=abs(fine - coarse))
        reports[n] = _report(n, family, profile, detection)
    return tuple(reports[n] for n in n_values)


def _beam_tails(n_values, family: StateFamily, profile: it.IntensityProfile) -> dict:
    """Exact integrals of w_n S_n past the beam grid, continued in the mass
    variable u over ``[U, inf)``, one per count in ``n_values``.

    Past the grid the intensity is the constant omega_inf, so
    ``dOmega = phi u + c1`` and ``dOmega~ = phi^2 u + c3`` with
    ``phi = domega_inf/omega_inf``.  Then ``ratio = phi + c1/u`` and
    ``clipped = max(d/u - c1^2/u^2, 0)`` where ``d = c3 - 2 c1 phi``;
    ``clipped`` is positive past ``u* = c1^2/d`` only, and nowhere when
    ``d <= 0``.  The coherent tail is a sum of upper incomplete gamma
    functions, the quasi-free one (in ``x = 1/(1+u)``) of incomplete beta
    functions; notes/decisions.md derives both.  Only these two families
    reach here: a fixed-number family on a beam fails the particle-number
    check of :func:`process.checked_omega_inf`.
    """
    u_end = profile.Omega[-1]
    bt = profile.beam_tail
    phi = bt.domega_dp0_inf / bt.omega_inf
    c1 = profile.dOmega[-1] - phi * u_end
    d = profile.dOmega_tilde[-1] - phi * phi * u_end - 2.0 * c1 * phi
    tail = _coherent_tail if family.kind == "coherent" else _quasifree_tail
    n = np.asarray(n_values, dtype=float)
    return dict(zip(n_values, tail(n, u_end, phi, c1, d).tolist()))


def _gamma_pair(n: np.ndarray, x: float):
    """``Gamma(n-1, x)/(n-2)!`` and ``Gamma(n-2, x)/(n-2)!`` for counts n,
    0 at n = 1 (where the factor n - 1 in front of them vanishes)."""
    g1 = np.where(n >= 2.0, gammaincc(np.maximum(n - 1.0, 1.0), x), 0.0)
    g2 = np.where(n >= 3.0, gammaincc(np.maximum(n - 2.0, 1.0), x) / np.maximum(n - 2.0, 1.0),
                  np.where(n == 2.0, expn(1, x), 0.0))
    return g1, g2


def _coherent_tail(n: np.ndarray, u_end: float, phi: float, c1: float, d: float):
    """Coherent tail: ``S_n = A^2 + (n-1) clipped`` with
    ``A = -phi v - c1 (v+1)/u`` and ``v = u - n``.

    Each square is integrated as a centred moment
    ``int_U^inf (u-s)^2 u^(s-1) e^-u du = s Gamma(s,U) + U^s e^-U (U+1-s)``
    (from ``Gamma(s+1,U) = s Gamma(s,U) + U^s e^-U``), since the raw
    moments cancel terms of size n^2 phi^2 down to n phi^2.
    """
    log_u, lgn = math.log(u_end), gammaln(n)

    def edge(s):  # U^s e^-U / (n-1)!, times the common factor U + 1 - n
        return np.exp(s * log_u - u_end - lgn) * (u_end + 1.0 - n)

    g1, g2 = _gamma_pair(n, u_end)
    v2 = n * gammaincc(n, u_end) + edge(n)      # int w v^2
    v11 = g1 + edge(n - 1.0)                    # int w v (v+1)/u
    v00 = g2 + edge(n - 2.0)                    # int w (v+1)^2/u^2
    total = phi * phi * v2 + 2.0 * phi * c1 * v11 + c1 * c1 * v00
    if d > 0.0:
        g1, g2 = _gamma_pair(n, max(u_end, c1 * c1 / d))
        total += d * g1 - c1 * c1 * g2
    return total


def _quasifree_tail(n: np.ndarray, u_end: float, phi: float, c1: float, d: float):
    """Quasi-free tail: in ``x = 1/(1+u)`` the integrand is
    ``n (1-x)^(n-3) P(x)`` on ``[0, 1/(1+U)]``, where
    ``P = B^2 + (n-1) x (d (1-x) - c1^2 x)`` (the second term on
    ``x < 1/(1+u*)`` only) and
    ``B = phi ((n+1) x - 1)(1-x) + c1 x ((n+1) x - 2)``.  At n = 1, ``B``
    has the factor ``1 - x``, which is divided out; for n >= 2, ``P`` is
    carried in powers of x and of ``y = 1 - x`` for :func:`_beta_integral`.
    """
    out = np.empty_like(n)
    one = n == 1.0
    if one.any():  # B = (1-x)(e0 + e1 x)
        e0, e1 = -phi, 2.0 * (phi - c1)
        x_end = 1.0 / (1.0 + u_end)
        out[one] = x_end * (e0 * e0 + x_end * (e0 * e1 + x_end * e1 * e1 / 3.0))
    n = n[~one]
    zero = np.zeros_like(n)
    total = _beta_integral(
        n, u_end,
        _square(-phi + zero, (n + 2.0) * phi - 2.0 * c1, (n + 1.0) * (c1 - phi)),
        _square((n - 1.0) * c1, n * (phi - 2.0 * c1), (n + 1.0) * (c1 - phi)))
    if d > 0.0:
        k1, k2 = (n - 1.0) * d, (n - 1.0) * (d + c1 * c1)
        total += _beta_integral(n, max(u_end, c1 * c1 / d),
                                np.stack([zero, k1, -k2, zero, zero]),
                                np.stack([k1 - k2, 2.0 * k2 - k1, -k2, zero, zero]))
    out[~one] = n * total
    return out


def _square(q0, q1, q2) -> np.ndarray:
    """Coefficients of ``(q0 + q1 z + q2 z^2)^2``, one column per count."""
    return np.stack([q0 * q0, 2.0 * q0 * q1, q1 * q1 + 2.0 * q0 * q2, 2.0 * q1 * q2, q2 * q2])


def _beta_integral(n: np.ndarray, u_low: float, px: np.ndarray, py: np.ndarray):
    """``int_0^X (1-x)^(n-3) P(x) dx`` at ``X = 1/(1+u_low)``, one per count
    n >= 2, for ``P = sum_k px[k] x^k = sum_k py[k] (1-x)^k``.

    In powers of x the terms are incomplete beta functions for n >= 3 and,
    at n = 2, ``-log(1-X) - sum_{j<=k} X^j/j``.  That difference is summed
    as its remainder ``sum_{j>k} X^j/j`` for X <= 1/2, where it would
    cancel.  For X > 1/2 the weight ``1/(1-x)`` piles up at x = 1, where
    the powers of x cancel down to ``P(1)``; there the powers of
    ``y = 1 - x`` are used, whose terms are ``P(1) log1p(1/u_low)`` and
    ``(1 - (1-X)^k)/k``.
    """
    x_end = 1.0 / (1.0 + u_low)
    k = np.arange(5.0)[:, None]
    out = np.empty_like(n)
    two = n == 2.0
    if two.any() and x_end > 0.5:
        ell = math.log1p(1.0 / u_low)  # -log(1 - X)
        kk = k[1:]
        out[two] = py[0, two] * ell + np.sum(py[1:, two] * (-np.expm1(-kk * ell) / kk), axis=0)
    elif two.any():
        j = np.arange(1.0, 60.0)
        tail_sums = np.cumsum((x_end ** j / j)[::-1])[::-1]  # sum_{j' >= j}, small end first
        out[two] = np.sum(px[:, two] * tail_sums[:5, None], axis=0)
    many = ~two
    if many.any():
        a, b = k + 1.0, n[many] - 2.0
        out[many] = np.sum(px[:, many] * beta(a, b) * betainc(a, b, x_end), axis=0)
    return out


def _report(n: int, family: StateFamily, profile: it.IntensityProfile,
            detection: float) -> FisherReport:
    """Add the NO-event part to the detection part and condition on n."""
    mass = pr.noevent_mass(n, family, profile)
    p_tot = 1.0 - mass
    dp_tot = pr.total_prob_dp(n, family, profile) if mass > 0.0 else 0.0
    noevent = dp_tot * dp_tot / mass if mass > 0.0 else 0.0
    value = detection + noevent
    if mass > 0.0 and p_tot > 0.0:
        conditional = (value - dp_tot * dp_tot / (p_tot * mass)) / p_tot
    else:
        conditional = value if p_tot > 0.0 else math.nan
    return FisherReport(n=n, value=value, detection_part=detection,
                        noevent_part=noevent, p_tot=p_tot, conditional=conditional)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McScore:
    variance: float
    std_error: float      # jackknife standard error of the variance
    mean: float
    mean_se: float
    samples: int
    resampled: int        # records with degenerate likelihood, redrawn


def mc_score_variance(n: int, family: StateFamily, profile: it.IntensityProfile,
                      samples: int, seed: int) -> McScore:
    """Sample variance of the score at the true momentum.

    Draws records at p0, scores each exactly from the profile's own
    momentum derivatives (:func:`_score_batch`), and reports the variance
    with its jackknife standard error.  No profile is built.
    """
    if samples < 10_000:
        raise ValueError("use at least 1e4 samples for a stable variance")
    _require_derivative(profile)
    times, _ = pr.sample_times_matrix(n, family, profile, samples, seed)
    score = np.concatenate([_score_batch(times[rows], family, profile)
                            for rows in pr._record_blocks(samples, n)])
    bad = ~np.isfinite(score)
    resampled = int(bad.sum())
    if resampled:
        # records the model gives zero likelihood: redraw them
        score[bad] = _score_batch(pr.sample_times_matrix(n, family, profile, resampled,
                                                         seed, stream_index=1)[0],
                                  family, profile)
        warnings.warn(f"{resampled} records had degenerate likelihoods and were redrawn")
    var = float(np.var(score, ddof=1))
    se = _jackknife_se_of_variance(score)
    mean = float(np.mean(score))
    mean_se = float(np.std(score, ddof=1) / math.sqrt(samples))
    return McScore(variance=var, std_error=se, mean=mean, mean_se=mean_se,
                   samples=samples, resampled=resampled)


def _score_batch(times, family: StateFamily, profile: it.IntensityProfile):
    """d/dp0 of :func:`process.log_likelihood_batch` for each record.

    A complete record scores
    ``sum_i domega(t_i)/omega(t_i) - H_n(U) dOmega(t_n)`` with
    ``U = Omega(t_n)``, since ``d/du log F_n = -H_n``; an intensity that the
    likelihood floors at ``process.OMEGA_FLOOR`` is constant there and
    contributes 0.  A short record scores
    ``d/dp0 log(1 - p_tot) = -total_prob_dp / noevent_mass``, or NaN where
    that mass, and so its likelihood, is 0.
    """
    def complete(loc, n):
        om = profile.omega_at(loc)
        live = om > pr.OMEGA_FLOOR
        score = pr._row_sums(np.where(live, profile.domega_at(loc) / np.where(live, om, 1.0),
                                      0.0))
        u_last = profile.Omega_at(loc.last)
        score -= hn_values(family, n, u_last) * profile.dOmega_at(loc.last)
        return score

    def short(n):
        mass = pr.noevent_mass(n, family, profile)
        return -pr.total_prob_dp(n, family, profile) / mass if mass > 0.0 else np.nan

    return pr._by_record(times, profile, complete, short)


def _jackknife_se_of_variance(x):
    """Delete-one jackknife standard error of the sample variance."""
    n = x.size
    s1 = np.sum(x)
    s2 = np.sum(x * x)
    mu_i = (s1 - x) / (n - 1)
    var_i = (s2 - x * x - (n - 1) * mu_i * mu_i) / (n - 2)
    return float(math.sqrt((n - 1) / n * np.sum((var_i - np.mean(var_i)) ** 2)))


# ---------------------------------------------------------------------------
# maximum-likelihood study (Cramer-Rao sanity)
# ---------------------------------------------------------------------------

# records scored per block of the estimator study: each block holds
# max(1, MLE_BLOCK_RECORDS // records_per_dataset) datasets
MLE_BLOCK_RECORDS = 640_000
MLE_BRACKET = 0.5  # the estimator study searches p0 +- MLE_BRACKET


@dataclass(frozen=True)
class MleStudy:
    variance: float        # sample variance of the per-dataset MLE
    variance_se: float     # moment-based standard error of that variance
    crb: float             # one-parameter bound 1/(records * I_n)
    mean: float

    @property
    def efficiency(self) -> float:
        """``crb / variance``: 1 for an estimator that reaches the bound."""
        return self.crb / self.variance if self.variance > 0.0 else math.inf


def mle_variance_study(n: int, family: StateFamily, profile: it.IntensityProfile,
                       datasets: int, records_per_dataset: int, seed: int,
                       grid_points: int = 41) -> MleStudy:
    """Maximum-likelihood momentum estimates over many synthetic datasets.

    Each dataset holds ``records_per_dataset`` independent n-arrival
    records; the total log-likelihood is maximised over the bracket
    p0 +- ``MLE_BRACKET`` on a fixed momentum grid (vectorised across datasets)
    with a parabolic refinement of the winning node, which resolves the
    optimum far below the sampling spread.  Records are drawn in blocks of
    at most ``MLE_BLOCK_RECORDS`` (whole datasets, at least one) and scored
    in cache-sized sub-blocks of datasets (``process.BLOCK_POINTS``).
    Returns the estimator variance next to the one-parameter information bound.
    """
    if profile.beam_tail is None:
        raise ModeError("the estimator study is implemented for beam profiles")
    pr.checked_omega_inf(family, profile)  # before the grid profiles are built
    scn = profile.scn
    p_grid = np.linspace(scn.p0 - MLE_BRACKET, scn.p0 + MLE_BRACKET, grid_points)
    profiles = [it.build_profile(replace(scn, p0=p), t_max=profile.t_max, dt=profile.dt)
                for p in p_grid]
    loglik = np.zeros((datasets, grid_points))
    chunk = max(1, MLE_BLOCK_RECORDS // records_per_dataset)
    for start in range(0, datasets, chunk):
        block = min(chunk, datasets - start)
        times, n_det = pr.sample_times_matrix(
            n, family, profile, block * records_per_dataset, seed,
            stream_index=2 + start)
        if np.any(n_det < n):
            raise ModeError("beam records must always reach n detections")
        for sets in pr._record_blocks(block, n * records_per_dataset):
            rows = slice(sets.start * records_per_dataset, sets.stop * records_per_dataset)
            loc = profile.locate(times[rows])  # the grid profiles share the input's grid
            out = loglik[start + sets.start:start + sets.stop]
            for j, prof_j in enumerate(profiles):
                per_record = pr.log_likelihood_batch(loc, family, prof_j)
                out[:, j] = per_record.reshape(-1, records_per_dataset).sum(axis=1)
    best = np.argmax(loglik, axis=1)
    inner = np.clip(best, 1, grid_points - 2)
    lm = loglik[np.arange(datasets), inner - 1]
    l0 = loglik[np.arange(datasets), inner]
    lp = loglik[np.arange(datasets), inner + 1]
    denom = lm - 2.0 * l0 + lp
    shift = np.where(np.abs(denom) > 0, 0.5 * (lm - lp) / np.where(denom != 0, denom, 1.0), 0.0)
    step = p_grid[1] - p_grid[0]
    estimates = p_grid[inner] + np.clip(shift, -1.0, 1.0) * step
    estimates = np.where(best == 0, p_grid[0], estimates)
    estimates = np.where(best == grid_points - 1, p_grid[-1], estimates)
    var = float(np.var(estimates, ddof=1))
    centred = estimates - estimates.mean()
    m4 = float(np.mean(centred ** 4))
    var_se = math.sqrt(max(m4 - (datasets - 3) / (datasets - 1) * var * var, 0.0) / datasets)
    info = fisher_info(n, family, profile).value
    crb = 1.0 / (records_per_dataset * info)
    return MleStudy(variance=var, variance_se=var_se, crb=crb, mean=float(estimates.mean()))


# ---------------------------------------------------------------------------
# density sweep (beam)
# ---------------------------------------------------------------------------

def density_sweep(n_list, r0_list, family: StateFamily, scn: Scenario,
                  t_max: float | None = None, dt: float | None = None) -> np.ndarray:
    """Information of the beam ``scn`` on an (n, r0) grid, each column at
    ``replace(scn, r0=r0)``; r0 = 0 slots take the sparse limit.  Returns
    the ``(len(n_list), len(r0_list))`` array."""
    if not scn.beam:
        raise ModeError("the density sweep runs in beam mode")
    n_values = tuple(int(v) for v in n_list)
    r0_values = tuple(float(v) for v in r0_list)
    out = np.empty((len(n_values), len(r0_values)))
    for j, r0 in enumerate(r0_values):
        if r0 == 0.0:
            dp = DeltaParams(scn.a, scn.m)
            out[:, j] = [sparse_limit_I(n, family, scn.p0, dp) for n in n_values]
            continue
        prof = it.build_profile(replace(scn, r0=r0), t_max=t_max, dt=dt)
        out[:, j] = [rep.value for rep in fisher_info_many(n_values, family, prof)]
    return out

"""Fisher information of the source momentum carried by arrival times.

The score variance for n ordered detections reduces to a single
one-dimensional integral of

    F_n(Omega) * omega * Omega^(n-1) * S_n / (n-1)!

where S_n combines the log-derivative of the intensity with the running
integrals dOmega = int domega and dOmega~ = int domega^2/omega, plus a lump
term for the NO-event outcome when the total mass Omega(inf) is finite.
The integral is evaluated over the tabulated profile in t and continued in
the mass variable u with the constant-intensity late-time model (beam mode),
in the family's closed form; a fixed-number family has no beam.
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
from scipy.special import gammaln

from . import intensity as it
from . import process as pr
from .deltakernel import DeltaParams
from .errors import ModeError, ToleranceError
from .scenario import Scenario, StateFamily, log_arrival_mass


@dataclass(frozen=True)
class FisherReport:
    """Information budget of the n-detection arrival model."""

    n: int
    value: float            # I_n, units 1/pbar^2
    detection_part: float
    noevent_part: float
    p_tot: float
    conditional: float      # I_n^(c), information given >= n detections; NaN at p_tot = 0


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

# the agreement asserted between the stationary-constant quadrature and C_n
_STATIONARY_TOL = 1e-8


def stationary_constant(n: int, family: StateFamily) -> float:
    """Quadrature of F_n(u) u^(n-1) [n - u H_n(u)]^2 / (n-1)! over all mass.

    The family's closed form C_n is asserted against its quadrature rule at
    ``_STATIONARY_TOL``; a Fock family, which has no beam, raises :class:`ModeError`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    closed = family.sparse_constant(n)

    def integrand(u):
        with np.errstate(over="ignore"):
            w = np.exp(log_arrival_mass(family, n, u))
        return w * (n - u * family.hn(n, u)) ** 2

    val = family.stationary_integral(n, integrand)
    if abs(val - closed) > _STATIONARY_TOL * max(1.0, closed):
        raise ToleranceError(
            f"stationary-constant quadrature {val!r} disagrees with the closed form "
            f"{closed!r} beyond {_STATIONARY_TOL:g}", estimate=val)
    return val


def sparse_limit_I(n: int, family: StateFamily, p0: float, dp: DeltaParams) -> float:
    """Vanishing-density limit of the beam information: C_n * I_inf(p0)."""
    return family.sparse_constant(n) * i_infinity(p0, dp)


# ---------------------------------------------------------------------------
# the quadrature formula
# ---------------------------------------------------------------------------

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
    vectorised pass.  Each count is one pass over work arrays allocated
    once per call; each report equals the one :func:`fisher_info` gives
    for its n alone, bit for bit.  Duplicates are allowed.  The thinning
    check, and the check that I_n is finite, raise :class:`ToleranceError`
    for the first failing n in list order.
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
    # the work arrays of the call, written in place: each value is formed by
    # the operations, in the order, of the array expressions of the formulas
    # in the comments, so it carries the same bits
    s, a, y, phi, ratio, clipped = np.empty((6, u.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        if pos.size == u.size:
            np.divide(dom, om, out=phi)
        else:
            if pos.size and np.any(~interior[pos[0]:pos[-1] + 1]):
                warnings.warn("intensity touches 0 in the interior; the mass substitution "
                              "is unreliable there")
            phi = np.where(interior, dom / np.where(interior, om, 1.0), 0.0)
        nonpos = np.flatnonzero(~(u > 0.0))
        np.divide(profile.dOmega, u, out=ratio)
        ratio[nonpos] = 0.0
        np.divide(profile.dOmega_tilde, u, out=clipped)
        clipped[nonpos] = 0.0
    # clipped = max(dOmega~/u - ratio^2, 0)
    np.subtract(clipped, np.multiply(ratio, ratio, out=a), out=clipped)
    np.maximum(clipped, 0.0, out=clipped)
    logs = family.logs(u)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    # the trapezoid sums as np.trapezoid forms them, on the full and the
    # thinned grid; their terms go into s and a once y is formed
    h, h2 = np.diff(t), np.diff(t[::2])
    y2 = y[::2]
    fine_terms, coarse_terms = s[:h.size], a[:h2.size]
    distinct = tuple(dict.fromkeys(n_values))
    tails = np.zeros(len(distinct))
    if profile.beam_tail is not None:
        # past the grid dOmega = phi_inf u + c1 and dOmega~ = phi_inf^2 u + c3,
        # so clipped = max(d/u - c1^2/u^2, 0) with d = c3 - 2 c1 phi_inf; an
        # overflow leaves a tail non-finite, which raises below
        u_end, bt = u[-1], profile.beam_tail
        with np.errstate(over="ignore", invalid="ignore"):
            phi_inf = bt.domega_dp0_inf / bt.omega_inf
            c1 = profile.dOmega[-1] - phi_inf * u_end
            d = profile.dOmega_tilde[-1] - phi_inf * phi_inf * u_end - 2.0 * c1 * phi_inf
            tails = family.beam_tail(np.asarray(distinct, dtype=float), u_end, phi_inf, c1, d)
    reports = {}
    for n, tail in zip(distinct, tails.tolist()):
        # an overflow or an invalid value leaves the detection part non-finite,
        # which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            # S_n = ((n - 1 - u H_n) ratio + phi)^2 + (n - 1) clipped
            np.subtract(n - 1.0, family.u_hn_into(n, u, logs, a), out=s)
            s *= ratio
            s += phi
            np.square(s, out=s)
            s += np.multiply(clipped, n - 1.0, out=a)
            # log w_n = log F_n + (n - 1) log u - log (n-1)!
            pw = np.multiply(log_u, n - 1, out=a) if n > 1 else 0.0
            family.log_fn_plus(n, u, logs, pw, y)
            y -= gammaln(n)
            # y = w_n omega S_n, and the trapezoid terms h (y[1:] + y[:-1]) / 2
            np.exp(y, out=y)
            y *= om
            y *= s
            np.add(y[1:], y[:-1], out=fine_terms)
            fine_terms *= h
            fine_terms /= 2.0
            np.add(y2[1:], y2[:-1], out=coarse_terms)
            coarse_terms *= h2
            coarse_terms /= 2.0
        fine = float(fine_terms.sum())
        coarse = float(coarse_terms.sum())
        detection = fine + tail
        # thinning check on the tabulated part only (the tail is exact); it
        # cannot fire on a non-finite detection part, which the check on I_n
        # below names
        if abs(fine - coarse) > THINNING_RTOL * abs(detection) + THINNING_ATOL:
            raise ToleranceError(
                f"profile grid too coarse for the information integral at n={n} "
                f"(thinning moved it by {abs(fine - coarse):.3e})",
                estimate=detection, achieved=abs(fine - coarse))
        rep = reports[n] = _report(n, family, profile, detection)
        if not math.isfinite(rep.value):
            raise ToleranceError(f"the information I_n at n={n} is not finite "
                                 f"(detection part {detection!r}, no-event part "
                                 f"{rep.noevent_part!r})", estimate=rep.value)
    return tuple(reports[n] for n in n_values)


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
        score -= family.hn(n, u_last) * profile.dOmega_at(loc.last)
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

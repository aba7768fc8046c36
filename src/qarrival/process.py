"""Arrival-time point process: joint densities, totals, sampling, counts.

The joint density of n ordered detections factorises into the product of
intensities at the arrival instants times the family weight F_n evaluated at
the final integrated intensity.  Total detection probabilities follow in
closed form from the partial Taylor sums of F, and sequences are sampled
exactly by a time change into the integrated-intensity domain, where every
family admits a closed-form conditional inverse CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import ConfigError, ModeError
from .intensity import IntensityProfile, Locator
from .quadrature import integrate_panels, uniform_edges
from .scenario import StateFamily, log_family_Fn


@dataclass(frozen=True)
class ArrivalRecord:
    """One sampled detection sequence.

    ``times`` holds the recorded arrivals, a row prefix of
    :func:`sample_times_matrix`; the record is ``terminated`` when the
    NO-event outcome occurred before the requested count was reached.
    """

    requested: int
    times: np.ndarray = field(repr=False)

    @property
    def n_detected(self) -> int:
        return len(self.times)

    @property
    def terminated(self) -> bool:
        return len(self.times) < self.requested


@dataclass(frozen=True)
class SampleBatch:
    records: list


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def log_joint_density(times, family: StateFamily, profile: IntensityProfile):
    """log p_n at an ordered time vector; -inf where the density vanishes.

    One record is evaluated point by point on Python floats, where numpy's
    per-call overhead would outweigh the arithmetic; the cell formulas and
    the logs are those of :func:`log_likelihood_batch`, bit for bit.
    """
    checked_omega_inf(family, profile)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("need an ordered vector of at least one arrival time")
    ts = t.tolist()
    if not all(a < b for a, b in zip(ts, ts[1:])) or not ts[0] >= 0.0:
        raise ValueError("arrival times must be positive and strictly increasing")
    omega = [profile._omega_point(x) for x in ts]
    if any(w <= 0.0 for w in omega):
        return -math.inf
    u_last = profile._Omega_point(ts[-1])
    # numpy's log and summation, as in log_likelihood_batch; ndarray.sum is
    # the np.sum reduction without its Python-level dispatch
    return log_family_Fn(family, len(ts), u_last) + float(np.log(omega).sum())


# the floor of the intensities in log_likelihood_batch
OMEGA_FLOOR = 1e-300


def log_likelihood_batch(times, n_det, family: StateFamily, profile: IntensityProfile):
    """Log-likelihood of sampled records, one per row of ``times``.

    ``times`` is the ``(count, n)`` matrix of :func:`sample_times_matrix`,
    or a :class:`Locator` taken on it, so that profiles on one grid share
    the cell search.  Rows with fewer than n detections score the log of
    the NO-event mass; in complete rows the intensity is floored at
    ``OMEGA_FLOOR``, where :func:`log_joint_density` would return -inf.
    """
    checked_omega_inf(family, profile)
    loc = times if isinstance(times, Locator) else profile.locate(times)
    n = loc.idx.shape[1]
    full = n_det == n
    some_short = not full.all()
    if some_short:
        loc = loc[full]
    om = profile.omega_at(loc)
    ll = np.sum(np.log(np.maximum(om, OMEGA_FLOOR)), axis=1)
    u_last = np.atleast_1d(profile.Omega_at(loc[:, -1]))
    ll += np.atleast_1d(log_family_Fn(family, n, u_last))
    if not some_short:
        return ll
    out = np.empty(full.shape)
    out[full] = ll
    mass = noevent_mass(n, family, profile)
    out[~full] = math.log(mass) if mass > 0.0 else -np.inf
    return out


def joint_density(times, family: StateFamily, profile: IntensityProfile):
    """Joint probability density of n ordered detections (unit 1/time^n)."""
    return math.exp(log_joint_density(times, family, profile))


# ---------------------------------------------------------------------------
# Total detection probabilities
# ---------------------------------------------------------------------------

def checked_omega_inf(family: StateFamily, profile_or_value) -> float:
    """Omega(inf) of a profile (or the value itself), checked against the family.

    A Fock(N) source has Omega(inf) = N times an absorption probability, so a
    value above N (past the profile build's relative slack of 1e-9) belongs
    to another source and raises :class:`ConfigError`.  That includes a
    beam's infinite mass: the beam is the limit of infinitely many particles
    at fixed density, and for a fixed-number source that limit is the
    coherent family (:func:`spatial_char_beam`).
    """
    if isinstance(profile_or_value, IntensityProfile):
        u_inf = profile_or_value.Omega_inf
    else:
        u_inf = float(profile_or_value)
    if family.kind == "fock" and u_inf > family.param * (1.0 + 1e-9):
        beam = ("; the beam limit of a fixed-number source is the coherent family"
                if math.isinf(u_inf) else "")
        raise ConfigError(f"Omega(inf) = {u_inf:.6g} exceeds the particle number "
                          f"{family.param:g} of the Fock family{beam}")
    return u_inf


def noevent_mass(n: int, family: StateFamily, profile_or_value):
    """Probability that fewer than n detections ever occur.

    Partial Taylor sum sum_{k<n} F_k(U) U^k / k! at U = Omega(inf),
    evaluated in log space term by term.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u_inf = checked_omega_inf(family, profile_or_value)
    if math.isinf(u_inf):
        return 0.0
    if u_inf == 0.0:
        return 1.0
    ks = np.arange(n)
    logs = np.array([log_family_Fn(family, int(k), u_inf) for k in ks])
    logs = logs + ks * math.log(u_inf) - gammaln(ks + 1.0)
    return float(np.sum(np.exp(logs)))


def total_prob(n: int, family: StateFamily, profile_or_value):
    """Probability of at least n detections; exactly 1 in beam mode."""
    u_inf = checked_omega_inf(family, profile_or_value)
    if math.isinf(u_inf):
        return 1.0
    return 1.0 - noevent_mass(n, family, u_inf)


def total_prob_integral(n: int, family: StateFamily, profile_or_value):
    """Cross-validation path: direct integral of F_n(u) u^(n-1)/(n-1)! up to a
    finite Omega(inf); a beam's totals are exactly 1 (:func:`total_prob`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u_inf = checked_omega_inf(family, profile_or_value)
    if math.isinf(u_inf):
        raise ModeError("the integral path needs a finite Omega(inf)")

    def integrand(u):
        return np.exp(log_family_Fn(family, n, u) + (n - 1) * np.log(np.maximum(u, 1e-300))
                      - gammaln(n))

    return float(integrate_panels(integrand, uniform_edges(0.0, u_inf, 96), 24))


def total_prob_dp(n: int, family: StateFamily, profile: IntensityProfile):
    """Momentum derivative of the total detection probability.

    Closed form dOmega_inf * F_n(U) U^(n-1)/(n-1)! at U = Omega(inf);
    identically 0 in beam mode where every particle is eventually detected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u_inf = checked_omega_inf(family, profile)
    if profile.mode == "beam":
        return 0.0
    if u_inf <= 0.0:
        return 0.0
    log_term = log_family_Fn(family, n, u_inf) + (n - 1) * math.log(u_inf) - gammaln(n)
    return profile.dOmega_inf * math.exp(log_term)


# ---------------------------------------------------------------------------
# Sampling by time change
# ---------------------------------------------------------------------------

def _next_u(family: StateFamily, u, v, k: int):
    """Inverse conditional CDF of the (k+1)-th cumulative mass given u_k.

    Solves F_k(u_next) = v F_k(u_k) for each family; the NO-event branch is
    reached when u_next lands at or beyond Omega(inf).
    """
    if family.kind == "coherent":
        return u - np.log(v)
    if family.kind == "quasifree":
        return (1.0 + u) * v ** (-1.0 / (k + 1)) - 1.0
    big_n = family.param
    if k >= big_n:
        return np.full_like(u, np.inf)
    return big_n * (1.0 - (1.0 - u / big_n) * v ** (1.0 / (big_n - k)))


def _uniforms(seed: int, stream_index, count: int, draws: int):
    """Open uniforms from a counter-based stream.

    ``stream_index`` selects a disjoint 2^128-draw block of the Philox
    counter space, so records (or batches) can be generated independently
    and reproducibly in parallel.
    """
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")
    bitgen = np.random.Philox(key=np.uint64(seed),
                              counter=[0, 0, int(stream_index), 0])
    rng = np.random.Generator(bitgen)
    u = rng.random((draws, count))
    return np.clip(u, 1e-300, 1.0 - 1e-16)


def sample_batch(n: int, family: StateFamily, profile: IntensityProfile,
                 count: int, seed: int) -> SampleBatch:
    """Draw ``count`` records from the batch substream 0."""
    times, n_det = sample_times_matrix(n, family, profile, count, seed)
    records = [ArrivalRecord(n, row[:k]) for row, k in zip(times, n_det.tolist())]
    return SampleBatch(records=records)


def sample_times_matrix(n: int, family: StateFamily, profile: IntensityProfile,
                        count: int, seed: int, stream_index: int = 0):
    """Vectorised sampler returning (times, n_detected) arrays.

    ``times`` has shape (count, n) with NaN past the detected count.  This
    is the bulk interface the Monte Carlo estimators use; ``sample_batch``
    wraps it into records.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u_inf = checked_omega_inf(family, profile)
    vs = _uniforms(seed, stream_index, count, n)
    u = np.zeros(count)
    alive = np.ones(count, dtype=bool)
    times = np.full((count, n), np.nan)
    for k in range(n):
        u_next = _next_u(family, u, vs[k], k)
        surv = alive & (u_next < u_inf)
        if np.any(surv):
            times[surv, k] = profile.invert_Omega(u_next[surv])
        u = np.where(surv, u_next, u)
        alive = surv
    return times, np.sum(~np.isnan(times), axis=1)


# ---------------------------------------------------------------------------
# Spatial particle-number statistics
# ---------------------------------------------------------------------------

def _interval_mass(interval, density):
    """Mean particle number in the interval: integral of the density."""
    if callable(density):
        lo, hi = interval
        val, _ = quad(density, lo, hi, limit=200)
        return val
    length = interval[1] - interval[0] if isinstance(interval, (tuple, list)) else float(interval)
    return float(density) * length


def spatial_char(interval, family: StateFamily, density):
    """Characteristic function of the particle count in a spatial interval.

    ``interval`` is a length (with constant ``density``) or an (lo, hi)
    pair (with a callable density profile).  Returns a vectorised function
    of the characteristic variable s.
    """
    mu = _interval_mass(interval, density)

    def char(s):
        s = np.asarray(s, dtype=float)
        phase = np.exp(1j * s) - 1.0
        if family.kind == "fock":
            big_n = family.param
            out = (1.0 + phase * mu / big_n) ** big_n
        elif family.kind == "coherent":
            out = np.exp(phase * mu)
        else:
            out = 1.0 / (1.0 - phase * mu)
        return complex(out) if out.ndim == 0 else out

    return char


def spatial_char_beam(interval_len: float, r0: float, kind: str):
    """Uniform-beam limit of the interval-count characteristic function.

    Poisson with mean r0*|I| for fixed-number and coherent sources,
    geometric for the quasi-free mixture.
    """
    mu = r0 * float(interval_len)

    def char(s):
        s = np.asarray(s, dtype=float)
        phase = np.exp(1j * s) - 1.0
        if kind in ("fock", "coherent"):
            out = np.exp(mu * phase)
        elif kind == "quasifree":
            out = 1.0 / (1.0 - mu * phase)
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        return complex(out) if out.ndim == 0 else out

    return char


# ---------------------------------------------------------------------------
# Early-time reference expansion of the first-arrival density (beam)
# ---------------------------------------------------------------------------

def first_arrival_series_coeffs(kind: str, r0: float, a: float, m: float):
    """Coefficients (c0, c_sqrt, c_lin) of p1(t) for small t in beam mode.

    The constant and sqrt(t) terms are family-independent; the linear term
    splits by +pi (coherent) / -pi (quasi-free).  Test-only reference, not a
    runtime path.
    """
    if kind == "coherent":
        sign = +1.0
    elif kind == "quasifree":
        sign = -1.0
    else:
        raise ValueError("series coefficients exist for coherent and quasifree only")
    c0 = r0 * a
    c_sqrt = -a * a * math.sqrt(m) * r0 / math.sqrt(math.pi)
    c_lin = a * a * r0 * r0 * (a * m / r0 - 3.0 * math.pi + sign * math.pi) / (2.0 * math.pi)
    return c0, c_sqrt, c_lin

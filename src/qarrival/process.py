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
import operator
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import ConfigError, ModeError
from .intensity import IntensityProfile, Locator
from .propagate import MAX_POINTS
from .quadrature import integrate_panels
from .scenario import StateFamily, log_arrival_mass, log_family_Fn


class ArrivalRecord(NamedTuple):
    """One sampled detection sequence.

    ``times`` holds the recorded arrivals, a view of a row (prefix) of
    :func:`sample_times_matrix`; the record is ``terminated`` when the
    NO-event outcome occurred before the requested count was reached.
    """

    requested: int
    times: np.ndarray

    def __repr__(self) -> str:
        return f"ArrivalRecord(requested={self.requested!r})"

    @property
    def n_detected(self) -> int:
        return len(self.times)

    @property
    def terminated(self) -> bool:
        return len(self.times) < self.requested


class SampleBatch(NamedTuple):
    """The ``(count, n)`` time matrix, NaN past each row's detected count."""

    times: np.ndarray
    n_detected: np.ndarray

    @property
    def records(self) -> list:
        """One :class:`ArrivalRecord` per row, cut from the matrix on each read.

        Only the benchmark's ``mc_study`` check and the tests read this view;
        the library and the CLI read the matrix.
        """
        return [ArrivalRecord(self.times.shape[1], row[:k])
                for row, k in zip(self.times, self.n_detected.tolist())]


BLOCK_POINTS = 65_536  # float64s per temporary of a bulk pass: 512 KiB, 1/4 of a 2 MiB L2


def _record_blocks(count: int, n: int):
    """Row slices of ``BLOCK_POINTS // n`` (at least 1) whole n-point records."""
    rows = max(1, BLOCK_POINTS // n)
    return [slice(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def _row_sums(x):
    """``np.sum(x, axis=-1)`` bit for bit, for one record (1-D) or a matrix:
    numpy adds fewer than 8 terms left to right from 0.0, as ``sum`` does here
    (a whole column at a time for a matrix; the cutoff of numpy's
    ``pairwise_sum``, checked on 2.4.6; ``TestBlocks::test_row_sums``)."""
    if x.shape[-1] >= 8:
        return x.sum(axis=-1)
    return sum(x.T, 0.0) if x.ndim == 2 else sum(x.tolist(), 0.0)


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
    if not all(map(operator.lt, ts, ts[1:])) or not ts[0] >= 0.0:
        raise ValueError("arrival times must be positive and strictly increasing")
    omega, u_last = profile._record_points(ts)
    if any(w <= 0.0 for w in omega):
        return -math.inf
    # numpy's log and the summation rule of log_likelihood_batch
    return log_family_Fn(family, len(ts), u_last) + float(_row_sums(np.log(omega)))


# the floor of the intensities in log_likelihood_batch
OMEGA_FLOOR = 1e-300


def log_likelihood_batch(times, family: StateFamily, profile: IntensityProfile):
    """Log-likelihood of sampled records, one per row of ``times``.

    ``times`` is the ``(count, n)`` matrix of :func:`sample_times_matrix`,
    or a :class:`Locator` taken on it, so that profiles on one grid share
    the cell search.  Rows that end in NaN (fewer than n detections) score
    the log of the NO-event mass; in complete rows the intensity is floored
    at ``OMEGA_FLOOR``, where :func:`log_joint_density` would return -inf.
    A matrix row that is no record (a time below 0, not increasing, or
    after a NaN) raises as :func:`log_joint_density` does; a locator is trusted.
    """
    checked_omega_inf(family, profile)
    if not isinstance(times, Locator) and np.ndim(times) == 2:
        t = np.asarray(times, dtype=float)
        if np.any(t[:, :1] < 0.0) or np.any(~(t[:, 1:] > t[:, :-1]) & ~np.isnan(t[:, 1:])):
            raise ValueError("arrival times must be positive and strictly increasing")

    def complete(loc, n):
        om = profile.omega_at(loc)
        return (_row_sums(np.log(np.maximum(om, OMEGA_FLOOR, out=om), out=om))
                + log_family_Fn(family, n, profile.Omega_at(loc.last)))

    def short(n):
        mass = noevent_mass(n, family, profile)
        return math.log(mass) if mass > 0.0 else -np.inf

    return _by_record(times, profile, complete, short)


def _by_record(times, profile: IntensityProfile, complete, short):
    """Split records into complete and short rows and value each kind.

    ``times`` is a ``(count, n)`` matrix or a :class:`Locator` on it.  Rows
    ending in a time get ``complete(loc, n)`` on their locator; rows ending
    in NaN, the padding of short records, get the scalar ``short(n)``.  The
    locator knows whether every row is complete, so a block of complete
    records is valued without a pass over its last column.
    """
    loc = times if isinstance(times, Locator) else profile.locate(times)
    if loc.last is None:
        raise ValueError("records need a (count, n) time matrix with n >= 1")
    n = loc.idx.shape[1]
    if loc.complete:
        return complete(loc, n)
    full = ~np.isnan(loc.last.tq)
    out = np.empty(full.shape)
    out[full] = complete(loc[full], n)
    out[~full] = short(n)
    return out


def joint_density(times, family: StateFamily, profile: IntensityProfile):
    """Joint probability density of n ordered detections (unit 1/time^n);
    ``inf``, the IEEE value, where it exceeds the float range."""
    log_p = log_joint_density(times, family, profile)
    try:
        return math.exp(log_p)
    except OverflowError:
        return math.inf


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
    coherent family, whose interval counts are Poisson (:func:`spatial_char`).
    """
    if isinstance(profile_or_value, IntensityProfile):
        u_inf = profile_or_value.Omega_inf
    else:
        u_inf = float(profile_or_value)
    if u_inf > family.domain_max * (1.0 + 1e-9):
        beam = ("; the beam limit of a fixed-number source is the coherent family"
                if math.isinf(u_inf) else "")
        raise ConfigError(f"Omega(inf) = {u_inf:.6g} exceeds the particle number "
                          f"{family.domain_max:g} of the Fock family{beam}")
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
    return 1.0 - noevent_mass(n, family, profile_or_value)


def total_prob_integral(n: int, family: StateFamily, profile_or_value):
    """Cross-validation path: direct integral of w_n(u) = F_n(u) u^(n-1)/(n-1)!
    up to a finite Omega(inf); a beam's totals are exactly 1 (:func:`total_prob`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u_inf = checked_omega_inf(family, profile_or_value)
    if math.isinf(u_inf):
        raise ModeError("the integral path needs a finite Omega(inf)")
    return float(integrate_panels(lambda u: np.exp(log_arrival_mass(family, n, u)),
                                  np.linspace(0.0, u_inf, 97), 24))


def total_prob_dp(n: int, family: StateFamily, profile: IntensityProfile):
    """Momentum derivative of the total detection probability.

    Closed form dOmega_inf * F_n(U) U^(n-1)/(n-1)! at U = Omega(inf);
    identically 0 for a beam, where every particle is eventually detected,
    and where no mass accumulates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u_inf = checked_omega_inf(family, profile)
    if not 0.0 < u_inf < math.inf:
        return 0.0
    log_term = log_family_Fn(family, n, u_inf) + (n - 1) * math.log(u_inf) - gammaln(n)
    return profile.dOmega_inf * math.exp(log_term)


# ---------------------------------------------------------------------------
# Sampling by time change
# ---------------------------------------------------------------------------

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
    return sample_times_matrix(n, family, profile, count, seed)


def sample_times_matrix(n: int, family: StateFamily, profile: IntensityProfile,
                        count: int, seed: int, stream_index: int = 0) -> SampleBatch:
    """Vectorised sampler of ``count`` records as one :class:`SampleBatch`.

    ``times`` has shape (count, n) with NaN past the detected count; the
    time change runs on cache-sized blocks of records (:data:`BLOCK_POINTS`)
    after one draw of all uniforms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count * n > MAX_POINTS:
        raise ConfigError(f"{count} records of {n} detections exceed the point budget "
                          f"of {MAX_POINTS} times")
    u_inf = checked_omega_inf(family, profile)
    vs = _uniforms(seed, stream_index, count, n)
    times = np.full((count, n), np.nan)
    for rows in _record_blocks(count, n):
        out = times[rows]
        u, alive = np.zeros(len(out)), True
        for k in range(n):
            u_next = family.next_u(u, vs[k, rows], k)
            surv = alive & (u_next < u_inf)
            if np.any(surv):
                out[surv, k] = profile.invert_Omega(u_next[surv])
            u, alive = np.where(surv, u_next, u), surv
    return SampleBatch(times, np.sum(~np.isnan(times), axis=1))


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
        out = family.count_char(np.exp(1j * np.asarray(s, dtype=float)) - 1.0, mu)
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

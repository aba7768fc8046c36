"""Intensity profiles: omega(t), its integral, and momentum derivatives.

A profile tabulates everything the arrival-time statistics need on one time
grid: the detection intensity ``omega``, its integral ``Omega`` (cumulative
trapezoid, with a cusp-aware model for the first cell in beam mode), the
momentum derivative ``domega`` (analytic for the beam, an exact second
solve on the differentiated drive otherwise), and the running integrals
``dOmega = int domega`` and ``dOmega_tilde = int domega^2/omega``.

Between nodes ``Omega`` is the quadratic cell model consistent with the
trapezoid sums (its derivative is the linear interpolant of ``omega``), so
inversion round-trips to machine precision.  Beyond the tabulated horizon a
beam profile continues with its constant late-time model; finite profiles
carry a fitted power-law tail estimate for the total-mass extrapolation.

Pointwise evaluation is split in two.  ``IntensityProfile.locate`` finds
the grid cell of each query time once (a :class:`Locator`: ``intp`` cell
index, offset into the cell, the flat indices of the points at and past the
last node and, for a record matrix, its last column as contiguous arrays),
and the evaluators read any profile on the same grid from it, computing
the cell model in place and writing the continuation by index.  One
linear cell model serves ``omega_at`` and its momentum derivative
``domega_at``, and one quadratic cell model serves ``Omega_at`` and
``dOmega_at``; each table has a per-cell slope,
``(y[1:] - y[:-1]) / (t[1:] - t[:-1])``, cached on first use.  The
linear interpolant ``slope * s + y`` is the expression
``np.interp`` evaluates, so results equal it bit for bit; profiles that
share a grid (the momentum grid of the maximum-likelihood study) pay for
the cell search once.  Past the grid the derivatives continue as their
values do: a beam's ``domega`` stays at ``domega_dp0_inf`` and its
``dOmega`` grows linearly, a finite profile holds 0 and ``dOmega[-1]``.
For a few points at a time, where numpy's per-call overhead dominates, the
cell formulas of ``omega_at``/``Omega_at`` also run on Python-float copies
of the tables, with the same results; a single float query takes that path.
Beam profiles on one grid share one read-only ``t`` and the p0-free factors
of the remainder on it (``_beam_ray``), so their locators are checked by
identity and a new momentum makes one complex-erfc call.

The cell search of ``locate`` (over ``t[1:-1]``) and of ``invert_Omega``
(over ``Omega[1:-1]``) is a :class:`_BucketIndex`: about one bucket per
node over the table's range, a guess from the query's bucket, one step
forward, and a check of the answer against its two neighbouring nodes.
The few points that fail the check (NaN times of short records, points
in buckets that hold several nodes) go to ``np.searchsorted``, so every
index is the one ``np.searchsorted(table, q, side="right")`` returns.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import cumulative_trapezoid

from . import deltakernel as dk
from . import propagate as pg
from .errors import ConfigError, RangeError
from .scenario import Scenario

# Fig-scale defaults; the beam horizon doubles as the model boundary past
# which the late-time constant-intensity reduction applies (see fisher).
_T_MAX = 60.0
_BEAM_DT = 0.01
_FINITE_DT = 1e-3

_GEO_MIN = 1e-9
_GEO_SWITCH = 1.0
_GEO_POINTS = 700


@dataclass(frozen=True)
class FiniteTail:
    """Power-law tail fit omega ~ omega[-1] (t/t[-1])^(-slope) past the grid."""

    slope: float
    mass: float  # estimated integral of omega beyond the grid


@dataclass(frozen=True, slots=True)
class Locator:
    """Grid cells of a set of query times (see :meth:`IntensityProfile.locate`).

    ``idx`` is the cell of each point (``intp``, which numpy gathers with
    as it is), clamped to the first and last cell;
    ``s = max(min(tq, t[-1]) - t[idx], 0)`` is the offset into it, so it
    stays inside the cell and finite (at ``+inf`` too).  ``past`` and
    ``at`` hold the flat (C-order) indices of the points beyond ``t[-1]``
    and exactly at it; past ``t[-1]`` the evaluators overwrite the cell
    formula with the profile's continuation, so its value is never read
    there.  A locator on a ``(count, n)`` matrix with ``n >= 1`` also
    holds its last column as a contiguous locator, ``last``, and
    ``complete``, whether every row ends in a time (no NaN in that
    column); otherwise ``last`` is None and ``complete`` False.  All of it
    is prepared once (:meth:`prepare`) and read by every profile on the
    grid.  Indexing a locator selects points, as indexing ``tq`` would,
    and prepares the selection.
    """

    t: np.ndarray
    idx: np.ndarray
    s: np.ndarray
    tq: np.ndarray
    past: np.ndarray
    at: np.ndarray
    last: Locator | None
    complete: bool

    @classmethod
    def prepare(cls, t, idx, s, tq) -> Locator:
        """The locator of the points ``tq`` in the cells ``idx`` at offsets ``s``."""
        past, at = (tq > t[-1]).ravel().nonzero()[0], (tq == t[-1]).ravel().nonzero()[0]
        last, complete = None, False
        if tq.ndim == 2 and tq.shape[1]:
            last = cls.prepare(t, idx[:, -1].copy(), s[:, -1].copy(), tq[:, -1].copy())
            complete = not np.isnan(last.tq).any()
        return cls(t, idx, s, tq, past, at, last, complete)

    @property
    def size(self) -> int:
        """Number of located points, which is what ``np.size`` reports."""
        return int(np.size(self.idx))

    def __getitem__(self, key) -> Locator:
        return Locator.prepare(self.t, self.idx[key], self.s[key], self.tq[key])


@dataclass(frozen=True, slots=True)
class _BucketIndex:
    """``np.searchsorted(table[1:-1], q, side="right")``, O(1) per point.

    ``[table[0], table[-2]]`` is cut into one bucket more than the table
    has interior nodes, so that on a uniform grid each bucket is narrower
    than a cell and holds at most one node.  A query's bucket is
    ``(c - table[0]) * scale``, truncated, where
    ``c = clamp(q, table[0], table[-2])`` and ``scale`` keeps the last node
    below the bucket count.  The clamp leaves the answer unchanged (0 below
    ``table[1]``, the node count from ``table[-2]`` on).  ``lo[b]`` counts
    the interior nodes in the buckets before ``b``.  A query takes
    ``r = lo[b]``, steps to ``r + 1`` if ``table[r + 1] <= c``, and is kept
    if ``table[r] <= q`` and ``c < table[r + 1]``: the table's end nodes
    are the sentinels, and for a sorted table only the answer passes.  The
    points that fail (NaN, points below ``table[0]``, points past the
    second node of their bucket) go to ``np.searchsorted``, so the result
    is exact whatever ``lo`` holds; ``lo`` only decides how many fail.  A
    table whose interior spans no finite scale gets one bucket.
    """

    table: np.ndarray
    lo: np.ndarray  # intp, one entry per bucket
    first: float    # table[0]
    last: float     # table[-2]
    base: float
    scale: float

    @classmethod
    def build(cls, table: np.ndarray) -> _BucketIndex:
        inner = table[1:-1]
        m = inner.size
        if m == 0:  # every answer is 0; an infinite end node stops the step
            table = np.array([table[0], math.inf])
        first, last = float(table[0]), float(table[-2])
        span = last - first
        buckets = m + 1
        scale = buckets / span if 0.0 < span < math.inf else 0.0
        if scale in (0.0, math.inf):  # base 0 keeps (c - base) * 0 finite
            return cls(table, np.zeros(1, dtype=np.intp), first, last, 0.0, 0.0)
        while span * scale >= buckets:  # the last node's bucket must exist
            scale = math.nextafter(scale, 0.0)
        # a node's bucket is the query formula at the node (the clamp is a no-op there)
        counts = np.bincount(((inner - first) * scale).astype(np.intp), minlength=buckets)
        lo = np.zeros(buckets, dtype=np.intp)
        np.cumsum(counts[:-1], out=lo[1:])
        return cls(table, lo, first, last, first, scale)

    def search(self, q: np.ndarray) -> np.ndarray:
        """Right-sided insertion points of ``q`` (any shape) as ``intp``."""
        flat = q.reshape(-1)
        # fmax/fmin also map NaN into range, so the cast never sees it
        c = np.fmin(np.fmax(flat, self.first), self.last)
        r = self.lo[((c - self.base) * self.scale).astype(np.intp)]
        upper = self.table[1:]  # upper[r] is table[r + 1]
        r += upper[r] <= c
        ok = (self.table[r] <= flat) & (c < upper[r])
        if np.count_nonzero(ok) < ok.size:
            miss = np.flatnonzero(~ok)
            r[miss] = np.searchsorted(self.table[1:-1], flat[miss], side="right")
        return r.reshape(q.shape)


@dataclass(frozen=True)
class IntensityProfile:
    scn: Scenario
    t: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    Omega: np.ndarray = field(repr=False)
    domega: np.ndarray | None = field(repr=False)  # the three are None when
    dOmega: np.ndarray | None = field(repr=False)  # built without derivatives
    dOmega_tilde: np.ndarray | None = field(repr=False)
    Omega_inf: float
    dOmega_inf: float
    beam_tail: dk.BeamAsymptotes | None = None  # set exactly for a beam
    finite_tail: FiniteTail | None = None
    t_max: float | None = None  # the grid arguments build_profile resolved
    dt: float | None = None

    # -- pointwise evaluators --------------------------------------------

    @cached_property
    def _slope(self):
        """Per-cell slope of omega (the table ``np.interp`` builds), kept after first use."""
        return (self.omega[1:] - self.omega[:-1]) / (self.t[1:] - self.t[:-1])

    @cached_property
    def _dslope(self):
        """Per-cell slope of domega, kept after first use."""
        return (self.domega[1:] - self.domega[:-1]) / (self.t[1:] - self.t[:-1])

    @cached_property
    def _cell_index(self):
        """Bucket index over the interior nodes ``t[1:-1]``, kept after first use."""
        return _BucketIndex.build(self.t)

    @cached_property
    def _mass_index(self):
        """Bucket index over the interior masses ``Omega[1:-1]``, kept after first use."""
        return _BucketIndex.build(self.Omega)

    @cached_property
    def _cell_lists(self):
        """``t[1:-1]``, ``t``, ``omega``, ``_slope`` and ``Omega`` as lists of
        Python floats for the per-point evaluators, kept after first use."""
        t = self.t.tolist()
        return t[1:-1], t, self.omega.tolist(), self._slope.tolist(), self.Omega.tolist()

    def locate(self, tq) -> Locator:
        """Grid cells of the query times, for every profile on this grid."""
        tq = np.asarray(tq, dtype=float)
        t = self.t
        # a search over the interior nodes returns the cell index already
        # clamped to [0, len(t) - 2]
        idx = self._cell_index.search(tq)
        # the offset is taken in the clamped cell, so that the cell formulas
        # stay finite past the grid (at +inf too), where the tail replaces them
        s = np.maximum(np.minimum(tq, t[-1]) - t[idx], 0.0)
        return Locator.prepare(t, idx, s, tq)

    def _cells(self, tq) -> Locator:
        if not isinstance(tq, Locator):
            return self.locate(tq)
        if tq.t is not self.t and not np.array_equal(tq.t, self.t):
            raise ValueError("locator was taken on a different time grid")
        return tq

    def _linear(self, tq, y, slope, tail):
        """Linear cell model of the table ``y`` (``np.interp``, bit for bit),
        the constant ``tail`` past the grid."""
        loc = self._cells(tq)
        idx = loc.idx.reshape(-1)
        out = slope.take(idx)
        out *= loc.s.reshape(-1)
        out += y.take(idx)
        out[loc.past] = tail
        out[loc.at] = y[-1]  # np.interp returns the last node's value there
        return _shaped(out, loc)

    def _quadratic(self, tq, Y, y, slope, rate):
        """Quadratic cell model of ``Y``, the trapezoid integral of ``y``; past
        the grid it grows at ``rate``, or stays at ``Y[-1]`` for None."""
        loc = self._cells(tq)
        idx, s = loc.idx.reshape(-1), loc.s.reshape(-1)
        # Y + y s + 0.5 slope s s, term by term in place (a + b is b + a in IEEE)
        out = y.take(idx)
        out *= s
        out += Y.take(idx)
        quad = slope.take(idx)
        quad *= 0.5
        quad *= s
        quad *= s
        out += quad
        out[loc.past] = (Y[-1] if rate is None
                         else Y[-1] + rate * (loc.tq.reshape(-1)[loc.past] - self.t[-1]))
        return _shaped(out, loc)

    def omega_at(self, tq):
        if isinstance(tq, float):  # one time: the per-point evaluator, same bits
            return self._omega_point(float(tq))
        bt = self.beam_tail
        return self._linear(tq, self.omega, self._slope, 0.0 if bt is None else bt.omega_inf)

    def domega_at(self, tq):
        """p0-derivative of :meth:`omega_at` at fixed times."""
        bt = self.beam_tail
        return self._linear(tq, self.domega, self._dslope,
                            0.0 if bt is None else bt.domega_dp0_inf)

    def Omega_at(self, tq):
        if isinstance(tq, float):
            return self._Omega_point(float(tq))
        bt = self.beam_tail
        return self._quadratic(tq, self.Omega, self.omega, self._slope,
                               None if bt is None else bt.omega_inf)

    def dOmega_at(self, tq):
        """p0-derivative of :meth:`Omega_at` at fixed times."""
        bt = self.beam_tail
        return self._quadratic(tq, self.dOmega, self.domega, self._dslope,
                               None if bt is None else bt.domega_dp0_inf)

    # Per-point evaluators on Python floats, for single records where numpy's
    # per-call overhead dominates: the cell search and the cell formulas of
    # ``locate``/``omega_at``/``Omega_at``, operand for operand, so the
    # results are the same bits.

    def _point_cell(self, x: float):
        """Cell ``i`` and offset ``s`` of one time, as :meth:`locate` finds them."""
        inner, t, _, _, _ = self._cell_lists
        i = bisect_right(inner, x)
        s = x - t[i]
        if s <= 0.0:  # np.maximum(-0.0, 0.0) is 0.0
            s = 0.0
        return i, s

    def _omega_point(self, x: float) -> float:
        _, t, omega, slope, _ = self._cell_lists
        if x > t[-1]:
            return 0.0 if self.beam_tail is None else self.beam_tail.omega_inf
        if x == t[-1]:
            return omega[-1]
        i, s = self._point_cell(x)
        return slope[i] * s + omega[i]

    def _Omega_point(self, x: float) -> float:
        _, t, omega, slope, Omega = self._cell_lists
        if x > t[-1]:
            if self.beam_tail is None:
                return Omega[-1]
            return Omega[-1] + self.beam_tail.omega_inf * (x - t[-1])
        i, s = self._point_cell(x)
        return Omega[i] + omega[i] * s + 0.5 * slope[i] * s * s

    def invert_Omega(self, u):
        """Time at which the integrated intensity reaches u.

        Raises :class:`RangeError` for u >= Omega(inf); that branch is the
        NO-event outcome for the callers.
        """
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if np.any(u < 0.0):
            raise ValueError("integrated intensity must be >= 0")
        if np.any(u >= self.Omega_inf):
            raise RangeError("requested mass never accumulates (NO-event branch)")
        out = np.empty_like(u)
        inside = u <= self.Omega[-1]
        if np.any(inside):
            ui = u[inside]
            # the interior search is the cell of the last node at or below u,
            # in [0, len(t) - 2]; on a flat run of Omega (omega = 0) that is
            # the run's last node, where the next cell with mass starts
            idx = self._mass_index.search(ui)
            t0, t1 = self.t[idx], self.t[1:][idx]
            w0 = self.omega[idx]
            kappa = self._slope[idx]
            c = ui - self.Omega[idx]
            disc = np.sqrt(np.maximum(w0 * w0 + 2.0 * kappa * c, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.where(np.abs(kappa) > 1e-300 * np.abs(w0 + disc),
                             2.0 * c / (w0 + disc),
                             np.where(w0 > 0, c / np.where(w0 > 0, w0, 1.0), 0.0))
            out[inside] = t0 + np.clip(s, 0.0, t1 - t0)
        beyond = ~inside
        if np.any(beyond):
            ub = u[beyond]
            if self.beam_tail is not None:
                out[beyond] = self.t[-1] + (ub - self.Omega[-1]) / self.beam_tail.omega_inf
            else:  # past a finite grid: Omega_inf > Omega[-1], so the fitted mass is > 0
                tail = self.finite_tail
                frac = np.clip((self.Omega_inf - ub) / tail.mass, 1e-300, None)
                out[beyond] = self.t[-1] * frac ** (-1.0 / (tail.slope - 1.0))
        return float(out[0]) if scalar else out


def _shaped(out: np.ndarray, loc: Locator):
    """The flat evaluator output in the shape of the located points, a float for one."""
    return float(out[0]) if loc.idx.ndim == 0 else out.reshape(loc.idx.shape)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _beam_grid(t_max: float, dt: float):
    geo = np.geomspace(_GEO_MIN, min(_GEO_SWITCH, 0.5 * t_max), _GEO_POINTS)
    bulk = np.arange(geo[-1] + dt, t_max + 0.5 * dt, dt)
    return np.concatenate([[0.0], geo, bulk])


def _derivative_integrals(t, omega, domega):
    """The running integrals dOmega = int domega and dOmega~ = int domega^2/omega."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.where(omega > 0.0, domega * domega / np.where(omega > 0, omega, 1.0), 0.0)
    return (cumulative_trapezoid(domega, t, initial=0.0),
            cumulative_trapezoid(sq, t, initial=0.0))


@lru_cache(maxsize=4)
def _beam_ray(a: float, m: float, t_max: float, dt: float):
    """The grid of every beam table with these constants and the p0-free
    factors of the remainder on it (:func:`deltakernel.remainder_ray`),
    read-only: the tables on one grid share one ``t`` and one
    ``erfc(alpha beta)``."""
    ray = dk.remainder_ray(_beam_grid(t_max, dt), dk.DeltaParams(a, m))
    for arr in ray:
        arr.setflags(write=False)
    return ray


@lru_cache(maxsize=16)
def _beam_tables(a: float, m: float, p0: float, t_max: float, dt: float):
    """r0-independent beam tabulation on the grid of :func:`_beam_ray`:
    per-density intensity g = omega/r0, its p0-derivative and the three
    running integrals."""
    dp_obj = dk.DeltaParams(a, m)
    ray = _beam_ray(a, m, t_max, dt)
    t = ray[0]
    g, gdot = dk.beam_intensity_on_ray(ray, p0, 1.0, dp_obj)
    asym = dk.beam_asymptotes(p0, 1.0, dp_obj)  # unit density; scaled later
    G = cumulative_trapezoid(g, t, initial=0.0)
    # cusp-aware first cell: g = c0 + c_sqrt sqrt(t) + c_lin t locally
    t1 = t[1]
    G[1:] += (asym.c0 * t1 + (2.0 / 3.0) * asym.c_sqrt * t1 ** 1.5 + 0.5 * asym.c_lin * t1 * t1) \
        - 0.5 * (g[0] + g[1]) * t1
    dG, dG_tilde = _derivative_integrals(t, g, gdot)
    dG[1:] += 0.4 * asym.dc_t32 * t1 ** 2.5 - 0.5 * (gdot[0] + gdot[1]) * t1
    for arr in (g, gdot, G, dG, dG_tilde):  # shared by every profile with this key
        arr.setflags(write=False)
    return g, gdot, G, dG, dG_tilde


def _fit_finite_tail(t, omega, navg, Omega_end):
    """Estimate the intensity mass beyond the grid from a power-law fit."""
    n = len(t)
    lo = int(0.7 * n)
    tt, ww = t[lo:], omega[lo:]
    good = ww > 0.0
    if good.sum() < 8:
        if omega[-1] > 0.0:
            warnings.warn("too few positive nodes in the last 30 % of the grid for a tail fit; "
                          "the mass past t_max is taken as 0; increase t_max", stacklevel=3)
        return FiniteTail(math.inf, 0.0)
    slope, _ = np.polyfit(np.log(tt[good]), np.log(ww[good]), 1)
    slope = -slope
    if slope <= 1.05 or not np.isfinite(slope):
        warnings.warn("intensity tail decays too slowly for a reliable mass estimate; "
                      "increase t_max", stacklevel=3)
        slope = 1.05
    mass = omega[-1] * t[-1] / (slope - 1.0)
    mass = min(mass, max(navg - Omega_end, 0.0))
    return FiniteTail(slope, mass)


def build_profile(scn: Scenario, t_max: float | None = None, dt: float | None = None,
                  derivative: bool = True) -> IntensityProfile:
    """Tabulate the intensity profile of a beam or of a finite source.

    A finite source is solved with the renewal equation at a point detector
    and the Volterra equation at a Gaussian one, and gets the exact momentum
    derivative from a second solve on the differentiated drive.
    For a finite source, ``derivative=False`` skips it (the three derivative
    tables are None); such profiles serve density and sampling work but
    cannot feed the information quadrature.  A beam's tables always carry
    the derivative, which comes from the same erfc values.  The profile
    records the resolved ``t_max`` and ``dt``, so profiles at other momenta
    can be built on the same grid.
    """
    t_max = _T_MAX if t_max is None else float(t_max)
    dt = (_BEAM_DT if scn.beam else _FINITE_DT) if dt is None else float(dt)
    grid = pg.TimeGrid(t_max, dt)  # rejects a bad t_max or dt for every source

    if scn.beam:
        g, gdot, G, dG, dG_tilde = _beam_tables(scn.a, scn.m, scn.p0, t_max, dt)
        # the grid is read where the ray is cached, so profiles built one
        # after another share one t whatever the table cache holds
        t = _beam_ray(scn.a, scn.m, t_max, dt)[0]
        r0 = scn.r0
        return IntensityProfile(
            scn=scn, t=t, omega=r0 * g, Omega=r0 * G, domega=r0 * gdot,
            dOmega=r0 * dG, dOmega_tilde=r0 * dG_tilde,
            Omega_inf=math.inf, dOmega_inf=math.nan,
            beam_tail=dk.beam_asymptotes(scn.p0, r0, dk.DeltaParams(scn.a, scn.m)),
            t_max=t_max, dt=dt)

    kernel = None if scn.delta_detector else pg.gaussian_kernel_g(scn, grid)
    pref = scn.a * scn.navg if scn.delta_detector else scn.navg * scn.gamma

    def amplitude(dp0=False):
        if scn.delta_detector:
            free = pg.gaussian_free_at_origin(scn, grid, dp0)
            return pg.solve_renewal(free, dk.DeltaParams(scn.a, scn.m).d).values
        h0 = pg.gaussian_overlap_h0(scn, grid, dp0)
        return pg.solve_volterra(h0, kernel, scn.gamma).values

    amp = amplitude()
    damp = amplitude(dp0=True) if derivative else None
    omega = pref * np.abs(amp) ** 2
    t = grid.times
    Omega = cumulative_trapezoid(omega, t, initial=0.0)
    if Omega[-1] > scn.navg * (1.0 + 1e-9):
        raise ConfigError("integrated intensity exceeded the particle number; "
                          "the grid is too coarse for this scenario")
    tail = _fit_finite_tail(t, omega, scn.navg, Omega[-1])
    Omega_inf = min(Omega[-1] + tail.mass, scn.navg)
    domega, dOmega, dOmega_tilde, dOmega_inf = None, None, None, math.nan
    if derivative:
        domega = 2.0 * pref * np.real(np.conj(amp) * damp)
        dOmega, dOmega_tilde = _derivative_integrals(t, omega, domega)
        # tail mass omega[-1] t[-1] / (slope - 1), differentiated at fixed
        # slope; zero where the mass clip or the navg cap sets Omega_inf
        unclipped = tail.mass == omega[-1] * t[-1] / (tail.slope - 1.0)
        dOmega_inf = (dOmega[-1] + domega[-1] * t[-1] / (tail.slope - 1.0)
                      if unclipped and Omega_inf < scn.navg else 0.0)
    return IntensityProfile(
        scn=scn, t=t, omega=omega, Omega=Omega, domega=domega,
        dOmega=dOmega, dOmega_tilde=dOmega_tilde,
        Omega_inf=Omega_inf, dOmega_inf=dOmega_inf, finite_tail=tail,
        t_max=t_max, dt=dt)

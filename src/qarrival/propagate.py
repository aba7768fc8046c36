"""Numerical single-particle evolution under an absorbing detector.

Two solvers live here.  For a finite-width Gaussian detector the overlap
``h(t)`` obeys a convolution equation of Volterra type with a smooth kernel,
discretised by the trapezoidal rule with the implicit diagonal term solved
algebraically at every node (second order in the step).  For the
point-detector limit the amplitude at the origin obeys a renewal equation
with a 1/sqrt(t-s) kernel; a plain trapezoid is invalid at the singularity,
so the weight is integrated exactly over each substep against a piecewise
linear solution (product integration).

Both discretisations are lower-triangular Toeplitz systems, solved in
O(M log^2 M) by one divide-and-conquer FFT scheme instead of an O(M^2)
row-by-row sweep.  The drives are closed-form with an exact d/dp0 and the
solves are linear, so a momentum derivative is the same system solved for
the differentiated drive: a solver given both drives builds its kernel
once and solves the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs, toeplitz

from .errors import ConfigError, GridMismatchError, ModeError
from .scenario import Scenario

_SQRT_PI = math.sqrt(math.pi)
_LEAF = 256  # most rows per dense triangular block of the Toeplitz solver
# the most nodes of a time grid, and of points (records x detections) the
# sampler draws at once: 26 times the largest grid in use (t_max = 3200 at
# dt = 5e-3, 640 001 nodes), 128 MiB per float64 array.  A larger request
# fails with ConfigError before anything is allocated.
MAX_POINTS = 2 ** 24


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid from 0 to (at least) t_max with step dt."""

    t_max: float
    dt: float

    def __post_init__(self):
        if not (0.0 < self.t_max < math.inf and 0.0 < self.dt < math.inf):
            raise ConfigError(f"t_max and dt must be positive and finite, "
                              f"got t_max={self.t_max!r}, dt={self.dt!r}")
        if not self.t_max / self.dt <= MAX_POINTS - 1:  # inf for a subnormal dt
            raise ConfigError(f"t_max/dt = {self.t_max / self.dt:.3g} exceeds the node budget "
                              f"of {MAX_POINTS} nodes; raise dt or lower t_max")

    @property
    def n_nodes(self) -> int:
        return int(math.ceil(self.t_max / self.dt)) + 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dt


@dataclass(frozen=True)
class ComplexSeries:
    """Complex values sampled on a uniform time grid."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_nodes,):
            raise GridMismatchError(
                f"series has {vals.shape} values for a grid of {self.grid.n_nodes} nodes")
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# Closed-form Gaussian matrix elements (hbar = 1)
# ---------------------------------------------------------------------------

def _detector_norm(scn: Scenario) -> float:
    if scn.eps <= 0.0:
        raise ModeError("finite-width formulas need eps > 0")
    return 2.0 * math.sqrt(math.pi * scn.eps) * (2.0 * math.pi) ** (-0.75)


def _source_norm(scn: Scenario) -> float:
    return (2.0 * math.pi) ** (-0.25) / math.sqrt(scn.dp)


def _gaussian_drive(scn: Scenario, grid: TimeGrid, pref: float, a_const: float, dp0: bool):
    """pref sqrt(pi/A) exp(b^2/(4A) + c), A = a_const + i t/(2m), and with
    ``dp0`` the pair (value, d/dp0).

    p0 enters only through b = p0/(2 dp^2) - i x0 and c = -p0^2/(4 dp^2), so
    the derivative is the value times b/(4 A dp^2) - p0/(2 dp^2); it reuses
    the value's sqrt and exp.
    """
    a_quad = a_const + 0.5j * grid.times / scn.m
    b_lin = 0.5 * scn.p0 / scn.dp ** 2 - 1j * scn.x0
    c_off = -0.25 * scn.p0 ** 2 / scn.dp ** 2
    vals = pref * np.sqrt(np.pi / a_quad) * np.exp(b_lin * b_lin / (4.0 * a_quad) + c_off)
    if not dp0:
        return ComplexSeries(grid, vals)
    dvals = vals.copy()
    dvals *= b_lin / (4.0 * scn.dp ** 2 * a_quad) - 0.5 * scn.p0 / scn.dp ** 2
    return ComplexSeries(grid, vals), ComplexSeries(grid, dvals)


def gaussian_overlap_h0(scn: Scenario, grid: TimeGrid, dp0: bool = False):
    """Detector overlap with the freely dispersing source packet.

    Complex-Gaussian integral of the detector momentum profile against the
    evolved source wavefunction; validated against direct momentum-space
    quadrature in the tests.  ``dp0=True`` gives the pair (overlap, exact
    d/dp0).
    """
    return _gaussian_drive(scn, grid, _detector_norm(scn) * _source_norm(scn),
                           scn.eps ** 2 + 0.25 / scn.dp ** 2, dp0)


def gaussian_kernel_g(scn: Scenario, grid: TimeGrid) -> ComplexSeries:
    """Detector state propagated freely onto itself; g(0) = 1."""
    n_det = _detector_norm(scn)
    t = grid.times
    a_quad = 2.0 * scn.eps ** 2 + 0.5j * t / scn.m
    vals = n_det ** 2 * np.sqrt(np.pi / a_quad)
    return ComplexSeries(grid, vals)


def gaussian_free_at_origin(scn: Scenario, grid: TimeGrid, dp0: bool = False):
    """Freely evolving Gaussian source evaluated at the detector position x=0.

    ``dp0=True`` gives the pair (value, exact d/dp0).
    """
    return _gaussian_drive(scn, grid, _source_norm(scn) / math.sqrt(2.0 * math.pi),
                           0.25 / scn.dp ** 2, dp0)


def monochromatic_drive(p: float, m: float, grid: TimeGrid) -> ComplexSeries:
    """Plane-wave drive (2 pi)^(-1/2) exp(-i t p^2 / 2m) for the renewal solver."""
    t = grid.times
    vals = np.exp(-1j * t * p * p / (2.0 * m)) / math.sqrt(2.0 * math.pi)
    return ComplexSeries(grid, vals)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _dc_solve(y, lo, hi, stop, tri_t, trtrs, spectra, work):
    """Finish rows lo..hi-1 of y in place; rows >= stop are padding."""
    if lo >= stop:
        return
    n = hi - lo
    if n == tri_t.shape[0]:
        # what scipy's solve_triangular(tri, b, lower=True) runs for a C-ordered tri
        y[lo:hi] = trtrs(tri_t, y[lo:hi], overwrite_b=False, lower=False, trans=True,
                         unitdiag=False)[0]
        return
    mid = lo + n // 2
    _dc_solve(y, lo, mid, stop, tri_t, trtrs, spectra, work)
    # circular convolution of the solved lower half with lags 0..n-1; the
    # wrap-around lands in w[:n//2] only, which is discarded
    w = work[:n]
    w[:n // 2] = y[lo:mid]
    w[n // 2:] = 0.0
    np.fft.fft(w, out=w)
    w *= spectra[n]
    np.fft.ifft(w, out=w)
    y[mid:hi] -= w[n // 2:]
    _dc_solve(y, mid, hi, stop, tri_t, trtrs, spectra, work)


def _load(drive, first, first_c, size):
    """The padded right-hand side of ``drive``: the known y[0] moved across."""
    n = first.size
    buf = np.zeros(size + 1, dtype=complex)
    buf[0] = drive[0]
    np.multiply(first, -first_c * drive[0], out=buf[1:n + 1])
    buf[1:n + 1] += drive[1:]
    return buf


def _forward_solve(grid, drives, first, first_c, lags, c, diag):
    """y[0] = drive[0] and, for i >= 1, the lower-triangular Toeplitz rows
    diag*y[i] + first_c*first[i-1]*y[0] + c*sum_{0<j<i} lags[i-j-1]*y[j] = drive[i],
    solved for each of one or two drives: the solution series, or the pair.

    Divide and conquer (Hairer, Lubich & Schlichte 1985): dense triangular
    solves on leaf blocks, and per split one FFT convolution carries the
    solved half into the rest.  Each drive is first moved into its padded
    buffer and taken off the list ``drives``, so a drive that nothing else
    holds is freed before the kernel is built.  The kernel (the leaf
    triangle, the lag spectra of every split length, LAPACK's ``?trtrs``
    and one FFT workspace) depends on the matrix only and serves every
    buffer, which is solved in place; the solutions are the buffers' heads.
    """
    n = first.size
    splits = 0
    while _LEAF << splits < n:
        splits += 1
    # the smallest multiple-of-16 leaf with n <= leaf * 2^splits keeps the
    # padding small and the FFT lengths smooth
    leaf = -(-n // (16 << splits)) * 16 if splits else max(n, 1)
    size = leaf << splits
    bufs = [_load(drives.pop(0).values, first, first_c, size) for _ in range(len(drives))]
    if diag == 0.0:  # what trtrs reports at the first leaf
        raise LinAlgError("singular matrix: resolution failed at diagonal 0")
    k = np.zeros(size, dtype=complex)  # k[l] = c * lags[l-1]; becomes the top spectrum
    np.multiply(lags, c, out=k[1:n])
    tri = toeplitz(np.concatenate([[diag], k[1:leaf]]), np.zeros(leaf))
    trtrs, = get_lapack_funcs(("trtrs",), (tri, k))
    spectra = {leaf << j: np.fft.fft(k[:leaf << j]) for j in range(1, splits)}
    if splits:
        spectra[size] = np.fft.fft(k, out=k)
    work = np.empty(size, dtype=complex)
    out = []
    for buf in bufs:
        _dc_solve(buf[1:], 0, size, n, tri.T, trtrs, spectra, work)
        out.append(ComplexSeries(grid, buf[:n + 1]))
    return out[0] if len(out) == 1 else tuple(out)


def solve_volterra(h0: ComplexSeries, g: ComplexSeries, gamma: float,
                   dh0: ComplexSeries | None = None):
    """Forward solve of h = h0 - (gamma/2) * (g convolved with h).

    Trapezoidal product rule on the shared uniform grid; the diagonal
    contribution is moved to the left-hand side, so no iteration is needed.
    Accuracy is O(dt^2) for smooth inputs (checked by step halving).
    With a second drive ``dh0`` (the d/dp0 drive), one kernel solves both
    and the pair ``(h, dh)`` is returned.
    """
    grid = h0.grid
    if g.grid != grid or (dh0 is not None and dh0.grid != grid):
        raise GridMismatchError("h0, g and dh0 must share one grid")
    drives = [h0] if dh0 is None else [h0, dh0]
    del h0, dh0  # the solve empties the list, which frees drives passed as temporaries
    c = 0.5 * gamma * grid.dt
    gv = g.values
    # first node with weight g[i]/2, interior nodes with g[i-j], diagonal g[0]/2
    return _forward_solve(grid, drives, gv[1:], 0.5 * c, gv[1:-1], c, 1.0 + 0.5 * c * gv[0])


def _abel_weights(m_nodes: int):
    """Product-integration weights for the 1/sqrt(t-s) kernel.

    On cell [t_j, t_{j+1}] the solution is linear and the weight integrated
    exactly; the resulting node weights depend only on the lag, giving a
    convolution (first-node weight A_k, interior W_k = A_k + B_{k+1},
    diagonal B_1 = 4/3).
    """
    k = np.arange(1, m_nodes, dtype=float)
    i0 = 2.0 * (np.sqrt(k) - np.sqrt(k - 1.0))
    i1 = (2.0 / 3.0) * (k ** 1.5 - (k - 1.0) ** 1.5)
    a_k = (1.0 - k) * i0 + i1
    b_k = k * i0 - i1
    return a_k, a_k[:-1] + b_k[1:]


def solve_renewal(f_free: ComplexSeries, d: complex, df_free: ComplexSeries | None = None):
    """Forward solve of f = f_free - (d/sqrt(pi)) * int f(s)/sqrt(t-s) ds.

    The weakly singular weight is integrated exactly per substep against a
    piecewise-linear f (product integration); plain trapezoid would lose
    an order at the upper endpoint.  With a second drive ``df_free`` (the
    d/dp0 drive), one kernel solves both and the pair ``(f, df)`` is
    returned.
    """
    grid = f_free.grid
    if df_free is not None and df_free.grid != grid:
        raise GridMismatchError("f_free and df_free must share one grid")
    drives = [f_free] if df_free is None else [f_free, df_free]
    del f_free, df_free  # the solve empties the list, which frees drives passed as temporaries
    a_k, w_k = _abel_weights(grid.n_nodes)
    c = d / _SQRT_PI * math.sqrt(grid.dt)
    # first node with weight A_i, node j with W_{i-j}, diagonal B_1
    return _forward_solve(grid, drives, a_k, c, w_k, c, 1.0 + c * (4.0 / 3.0))

"""The four benchmark workloads: seeded inputs, the timed job, output checks.

Each workload builds its inputs from the run seed and a repetition index
(outside the timed region), runs one fixed job through qarrival's public
functions, and checks the job's outputs afterwards.  Library functions are
always reached through their module attribute (``intensity.build_profile``,
``cli.main``, ...) so that the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import warnings
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
from scipy.integrate import quad

from qarrival import cli, fisher, intensity, process
from qarrival.deltakernel import DeltaParams
from qarrival.scenario import Scenario, StateFamily

BASE = dict(m=1.0, a=0.1, x0=-20.0, p0=1.0)
R0_FIG = 56.42
BEAM = Scenario(eps=0.0, navg=math.inf, dp=0.0, r0=R0_FIG, **BASE)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _rel_err(value, ref):
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(value - ref) / np.abs(ref)))


class Workload:
    """Seeded inputs, one timed job and its checks; subclasses fill these in."""

    name = ""
    work_unit = ""
    check_names: tuple = ()

    def __init__(self, seed: int, tiny: bool, workdir: str, reference: dict):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.tiny = tiny
        self.workdir = workdir
        self.reference = reference
        self.measured: dict = {}  # checksum values seen, for the run record
        self.quad = quad          # the tracer swaps in a wrapped quad
        os.makedirs(workdir, exist_ok=True)

    def rng(self, rep: int):
        return np.random.default_rng([self.seed, rep])

    def make_inputs(self, rep: int):
        raise NotImplementedError

    def job(self, inp):
        raise NotImplementedError

    def work(self, inp, out) -> float:
        raise NotImplementedError

    def check(self, inp, out) -> list:
        raise NotImplementedError

    def final_checks(self) -> list:
        return []

    def checksum(self, key: str, value, rtol: float) -> Check:
        """Compare ``value`` with the committed reference at relative ``rtol``."""
        value = np.asarray(value, dtype=float).tolist()
        self.measured[key] = value
        ref = self.reference.get(key)
        if ref is None:
            return Check(key, False, f"no reference value; measured {value!r}")
        err = _rel_err(value, ref)
        return Check(key, err <= rtol, f"relative error {err:.2e} (bound {rtol:g})")


# ---------------------------------------------------------------------------
# finite_source: the O(M^2) forward solvers on the default grid
# ---------------------------------------------------------------------------

# Finite-difference momentum derivatives carry a truncation error of order
# fd_step^2 = 1e-8; step doubling measured 8e-9 (point) and 3e-8 (Gaussian)
# relative on I_1..I_8.  The bound leaves room for an exact derivative.
FISHER_RTOL = 1e-6


class FiniteSource(Workload):
    name = "finite_source"
    work_unit = "nodes/s"
    check_names = ("point_omega_inf", "point_first_arrival_peak", "gaussian_omega_inf",
                   "fisher_values", "c8_omega_inf", "sampler_records")

    def __init__(self, *args):
        super().__init__(*args)
        dp = math.sqrt(math.pi / 2.0) * R0_FIG / 1000.0
        self.point = Scenario(eps=0.0, navg=1000.0, dp=dp, r0=R0_FIG, **BASE)
        self.gauss = replace(self.point, eps=0.5)
        self.c8 = Scenario(eps=0.25, navg=100.0, dp=math.sqrt(0.5), r0=R0_FIG, **BASE)
        self.grid = dict(dt=0.01) if self.tiny else {}
        self.c8_grid = dict(t_max=45.0, dt=0.01 if self.tiny else 1e-3)
        self.records = 1_000 if self.tiny else 10_000

    def make_inputs(self, rep):
        return {"sample_seed": int(self.rng(rep).integers(2 ** 62))}

    def job(self, inp):
        point = intensity.build_profile(self.point, **self.grid)
        gauss = intensity.build_profile(self.gauss, **self.grid)
        fam = StateFamily.coherent(1000.0)
        info = [[fisher.fisher_info(n, fam, prof).value for n in range(1, 9)]
                for prof in (point, gauss)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # wide packet: the slow-tail estimate warns
            c8 = intensity.build_profile(self.c8, derivative=False, **self.c8_grid)
        times, n_det = process.sample_times_matrix(3, StateFamily.coherent(100.0), c8,
                                                   self.records, inp["sample_seed"])
        return dict(point=point, gauss=gauss, info=info, c8=c8, times=times, n_det=n_det)

    def work(self, inp, out):
        return float(out["point"].t.size + out["gauss"].t.size + out["c8"].t.size)

    def check(self, inp, out):
        point = out["point"]
        peak = float(np.max(point.omega * np.exp(-point.Omega)))
        checks = [
            self.checksum("point_omega_inf", point.Omega_inf, 1e-10),
            self.checksum("point_first_arrival_peak", peak, 1e-10),
            self.checksum("gaussian_omega_inf", out["gauss"].Omega_inf, 1e-10),
            self.checksum("fisher_values", out["info"], FISHER_RTOL),
            self.checksum("c8_omega_inf", out["c8"].Omega_inf, 1e-10),
        ]
        times, n_det = out["times"], out["n_det"]
        cols = np.arange(times.shape[1])
        detected = cols[None, :] < n_det[:, None]
        gaps = np.diff(times, axis=1)
        shape_ok = (times.shape == (self.records, 3)
                    and np.all(np.isfinite(times[detected]))
                    and np.all(np.isnan(times[~detected]))
                    and np.all(times[:, 0][n_det > 0] > 0.0)
                    and np.all(gaps[detected[:, 1:]] > 0.0))
        p3 = process.total_prob(3, StateFamily.coherent(100.0), out["c8"])
        frac = float(np.mean(n_det == 3))
        se = math.sqrt(max(p3 * (1.0 - p3), 1e-12) / self.records)
        z = (frac - p3) / se
        checks.append(Check("sampler_records", bool(shape_ok) and abs(z) <= 5.0,
                            f"layout ok {bool(shape_ok)}; P(3 detections) z = {z:.2f}"))
        return checks


# ---------------------------------------------------------------------------
# beam_scan: the sweep-density CLI over seeded momenta
# ---------------------------------------------------------------------------

class BeamScan(Workload):
    name = "beam_scan"
    work_unit = "values/s"
    check_names = ("cli_rows", "sparse_limit_exact", "sparse_convergence", "i3_csv",
                   "i3_checksum")
    N_VALUES = tuple(range(1, 9))
    R0_VALUES = (0.0, 1e-4, 0.01, 1.0, 56.42, 1000.0)
    FAMILIES = ("coherent", "quasifree")

    def __init__(self, *args):
        super().__init__(*args)
        self.random_p0 = 1 if self.tiny else 49
        self.argv_tail = ["--n-list", ",".join(map(str, self.N_VALUES)),
                          "--r0-list", ",".join(f"{r:g}" for r in self.R0_VALUES)]

    def make_inputs(self, rep):
        rng = self.rng(rep)
        p0s = np.append(rng.uniform(0.5, 2.0, self.random_p0), 1.0)
        rng.shuffle(p0s)
        calls = []
        for i, p0 in enumerate(p0s):
            cfg = os.path.join(self.workdir, f"p0_{i}.cfg")
            with open(cfg, "w") as fh:
                fh.write(replace(BEAM, p0=float(p0)).to_config())
            for kind in self.FAMILIES:
                out = os.path.join(self.workdir, f"p0_{i}_{kind}.csv")
                if os.path.exists(out):
                    os.remove(out)
                argv = ["sweep-density", "--config", cfg, "--out", out,
                        "--family", kind] + self.argv_tail
                calls.append((float(p0), kind, argv, out))
        return calls

    def job(self, inp):
        codes, latency = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            for _, _, argv, _ in inp:
                t0 = perf_counter()
                codes.append(cli.main(argv))
                latency.append(perf_counter() - t0)
        return dict(codes=codes, latency=latency)

    def work(self, inp, out):
        return float(len(inp) * len(self.N_VALUES) * len(self.R0_VALUES))

    @staticmethod
    def _sparse_closed_form(n, kind, p0):
        a, m = BASE["a"], BASE["m"]
        c_n = n if kind == "coherent" else n / (n + 2.0)
        return c_n * a * a * m * m / (p0 * p0 * (p0 + 0.5 * a * m) ** 2)

    def _read(self, path):
        with open(path) as fh:
            header = fh.readline().strip()
            rows = [line.strip().split(",") for line in fh if line.strip()]
        return header, rows

    def check(self, inp, out):
        checks = []
        dp_obj = DeltaParams(BASE["a"], BASE["m"])
        for (p0, kind, _, path), code in zip(inp, out["codes"]):
            if code != 0 or not os.path.exists(path):
                checks.append(Check("cli_rows", False, f"p0={p0!r} {kind}: exit code {code}"))
                continue
            header, rows = self._read(path)
            table = {(int(r[1]), float(r[2])): r[3] for r in rows}
            values = np.array([float(v) for v in table.values()])
            expected = {(n, r0) for n in self.N_VALUES for r0 in self.R0_VALUES}
            rows_ok = (header == "family,n,r0,I_n" and len(rows) == len(expected)
                       and set(table) == expected and all(r[0] == kind for r in rows)
                       and bool(np.all(np.isfinite(values) & (values > 0.0))))
            checks.append(Check("cli_rows", rows_ok, f"p0={p0!r} {kind}: {len(rows)} rows"))
            if not rows_ok:
                continue
            fam = StateFamily.coherent(1.0) if kind == "coherent" else StateFamily.quasifree(1.0)
            exact = True
            for n in self.N_VALUES:
                lim = fisher.sparse_limit_I(n, fam, p0, dp_obj)
                closed = self._sparse_closed_form(n, kind, p0)
                exact &= table[(n, 0.0)] == f"{lim:.10g}" and abs(lim - closed) <= 1e-14 * closed
            checks.append(Check("sparse_limit_exact", exact, f"p0={p0!r} {kind}"))
            if p0 == 1.0:
                # criterion 4 holds at the criterion's momentum p0 = 1
                gap = max(abs(float(table[(n, 1e-4)]) / self._sparse_closed_form(n, kind, p0) - 1.0)
                          for n in self.N_VALUES)
                checks.append(Check("sparse_convergence", gap <= 0.02,
                                    f"{kind}: max relative gap {gap:.4f} (bound 0.02)"))
                if kind == "coherent":
                    checks.append(self._i3_csv(float(table[(3, 56.42)])))
        return checks

    def _i3_csv(self, value):
        ref = self.reference.get("i3_checksum")
        if ref is None:
            return Check("i3_csv", False, "no reference value")
        err = _rel_err(value, ref)
        # the CSV carries 10 significant digits
        return Check("i3_csv", err <= 1e-9, f"relative error {err:.2e} (bound 1e-9)")

    def final_checks(self):
        prof = intensity.build_profile(BEAM)
        i3 = fisher.fisher_info(3, StateFamily.coherent(1.0), prof).value
        return [self.checksum("i3_checksum", i3, 1e-10)]


# ---------------------------------------------------------------------------
# mc_study: bulk evaluation in the Monte Carlo and MLE oracles
# ---------------------------------------------------------------------------

class McStudy(Workload):
    name = "mc_study"
    work_unit = "records/s"
    check_names = ("score_variance_z", "mle_variance_bound", "inversion_roundtrip",
                   "sample_batch_records")
    MC_N = (1, 2, 4)
    MLE_N = 5
    MLE_GRID = 41  # momentum grid of mle_variance_study

    def __init__(self, *args):
        super().__init__(*args)
        self.scn = replace(BEAM, r0=1.0)
        if self.tiny:
            self.batch, self.samples, self.datasets, self.records = 10_000, 10_000, 20, 64
        else:
            self.batch, self.samples, self.datasets, self.records = 100_000, 100_000, 250, 256
        self.roundtrip = 1_000 if self.tiny else 100_000

    def make_inputs(self, rep):
        rng = self.rng(rep)
        seeds = [int(s) for s in rng.integers(0, 2 ** 62, size=2 + len(self.MC_N))]
        return dict(seeds=seeds, q=rng.random(self.roundtrip))

    def job(self, inp):
        seeds = inp["seeds"]
        prof = intensity.build_profile(self.scn)
        coh = StateFamily.coherent(1.0)
        batch = process.sample_batch(3, coh, prof, self.batch, seeds[0])
        scores = []
        for n, seed in zip(self.MC_N, seeds[2:]):
            mc = fisher.mc_score_variance(n, coh, prof, samples=self.samples, seed=seed)
            scores.append((n, mc, fisher.fisher_info(n, coh, prof).value))
        mle = fisher.mle_variance_study(self.MLE_N, coh, prof, datasets=self.datasets,
                                        records_per_dataset=self.records, seed=seeds[1])
        return dict(prof=prof, batch=batch, scores=scores, mle=mle)

    def work(self, inp, out):
        mc = sum(s.samples + s.resampled for _, s, _ in out["scores"])
        mle = self.datasets * self.records
        sampled = self.batch + mc + mle
        scored = 2 * mc + self.MLE_GRID * mle
        return float(sampled + scored)

    def check(self, inp, out):
        checks = []
        for n, mc, quad_val in out["scores"]:
            z = (mc.variance - quad_val) / mc.std_error
            checks.append(Check("score_variance_z", abs(z) <= 5.0, f"n={n}: z = {z:.2f}"))
        mle = out["mle"]
        # the same 5-standard-error slack as the score-variance z test
        bound = (1.0 - 5.0 * mle.variance_se / mle.variance) * mle.crb
        checks.append(Check("mle_variance_bound", mle.variance >= bound,
                            f"variance {mle.variance:.4g} vs bound {bound:.4g} "
                            f"(CRB {mle.crb:.4g})"))
        prof = out["prof"]
        u = inp["q"] * 1.2 * prof.Omega[-1]  # past the grid into the beam tail
        back = prof.Omega_at(prof.invert_Omega(u))
        err = float(np.max(np.abs(back - u) / np.maximum(u, 1.0)))
        checks.append(Check("inversion_roundtrip", err <= 1e-10, f"max error {err:.2e}"))
        recs = out["batch"].records
        layout = (len(recs) == self.batch
                  and all(r.n_detected == 3 and not r.terminated for r in recs))
        u3 = prof.Omega_at(np.array([r.times[-1] for r in recs]))
        # coherent family: Omega(t_3) is Gamma(3, 1) distributed
        z = (float(np.mean(u3)) - 3.0) / math.sqrt(3.0 / len(recs))
        checks.append(Check("sample_batch_records", layout and abs(z) <= 5.0,
                            f"layout ok {layout}; mean Omega(t_3) z = {z:.2f}"))
        return checks


# ---------------------------------------------------------------------------
# scalar_density: nested scalar quad over the two-arrival density
# ---------------------------------------------------------------------------

class ScalarDensity(Workload):
    """Nested ``quad`` over ``joint_density`` (n = 2, coherent) on seeded cells.

    The cells tile the triangle A < t1 < t2 <= B of the r0 = 56.42 beam, with
    A seeded in [1, 3] on the uniform part of the beam grid and seeded cell
    edges.  The grid nodes inside a cell are passed to ``quad`` as break
    points: the interpolated intensity has a kink at every node, and
    without them the adaptive call count swings with the seed.  For the
    coherent family the triangle holds exp(-U_A) (1 - exp(-D) (1 + D)) with
    U_A = Omega(A) and D = Omega(B) - Omega(A).
    """

    name = "scalar_density"
    work_unit = "evals/s"
    check_names = ("cell_sum_closed_form", "cells_nonnegative", "first_arrival_peak")

    def __init__(self, *args):
        super().__init__(*args)
        self.width, self.cuts = (0.03, 2) if self.tiny else (0.08, 3)

    def make_inputs(self, rep):
        rng = self.rng(rep)
        a = rng.uniform(1.0, 3.0)
        inner = np.sort(rng.random(self.cuts - 1))
        return a + self.width * np.concatenate([[0.0], inner, [1.0]])

    def job(self, edges):
        prof = intensity.build_profile(BEAM)
        coh = StateFamily.coherent(1.0)
        grid = prof.t
        quad_ = self.quad
        calls = [0]

        def density(t2, t1):
            calls[0] += 1
            return process.joint_density((t1, t2), coh, prof)

        def nodes(lo, hi):
            pts = grid[np.searchsorted(grid, lo, "right"):np.searchsorted(grid, hi, "left")]
            return dict(points=pts, limit=50 + 2 * pts.size) if pts.size else {}

        cells = []
        k = len(edges) - 1
        for i in range(k):
            lo1, hi1 = edges[i], edges[i + 1]
            for j in range(i, k):
                if i == j:
                    def inner(t1, hi=hi1):
                        return quad_(density, t1, hi, args=(t1,), **nodes(t1, hi))[0]
                else:
                    lo2, hi2 = edges[j], edges[j + 1]
                    opts = nodes(lo2, hi2)

                    def inner(t1, lo2=lo2, hi2=hi2, opts=opts):
                        return quad_(density, lo2, hi2, args=(t1,), **opts)[0]
                cells.append(quad_(inner, lo1, hi1, **nodes(lo1, hi1))[0])
        return dict(prof=prof, cells=np.array(cells), calls=calls[0])

    def work(self, inp, out):
        return float(out["calls"])

    def check(self, edges, out):
        prof, cells = out["prof"], out["cells"]
        u_a = prof.Omega_at(edges[0])
        d = prof.Omega_at(edges[-1]) - u_a
        closed = math.exp(-u_a) * -math.expm1(-d) - math.exp(-u_a - d) * d
        err = abs(float(cells.sum()) - closed) / closed
        peak = float(np.max(prof.omega * np.exp(-prof.Omega)))
        return [
            Check("cell_sum_closed_form", err <= 1e-10,
                  f"{cells.size} cells, relative error {err:.2e} (bound 1e-10)"),
            Check("cells_nonnegative", bool(np.all(np.isfinite(cells) & (cells >= 0.0))),
                  f"min cell {cells.min():.3e}"),
            self.checksum("first_arrival_peak", peak, 1e-10),
        ]


WORKLOADS = {cls.name: cls for cls in (FiniteSource, BeamScan, McStudy, ScalarDensity)}

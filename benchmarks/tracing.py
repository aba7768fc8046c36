"""Span tracing around qarrival's public functions, installed from outside.

The tracer wraps each public function at the place its callers look it up:
a module attribute in every ``qarrival`` module that holds the function
(``log_family_Fn`` and ``integrate_panels`` are imported by name into
several modules), and the class attribute for the ``IntensityProfile``
evaluators.  Each call records one span ``[name, start, end, parent, work,
outermost]``; spans stay in memory and are written out once at the end.

A layer's self time is its span's duration minus the durations of its
child spans (the benchmark is single-threaded, so children never overlap).
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np


def _size_arg(i):
    return lambda a, k: float(np.size(a[i]))


def _panel_nodes(a, k):
    order = a[2] if len(a) > 2 else k.get("order", 16)
    return float((np.size(a[1]) - 1) * order)


def _record_count(a, k):
    return float(a[3] if len(a) > 3 else k["count"])


def _grid_nodes(a, k):
    return float(a[0].grid.n_nodes)


# (span name, defining module, attribute, work of one call)
FUNCTIONS = (
    ("propagate.solve_renewal", "propagate", "solve_renewal", _grid_nodes),
    ("propagate.solve_volterra", "propagate", "solve_volterra", _grid_nodes),
    ("deltakernel.erfc_c", "deltakernel", "erfc_c", _size_arg(0)),
    ("deltakernel.remainder_R", "deltakernel", "remainder_R", None),
    ("deltakernel.remainder_R_dp", "deltakernel", "remainder_R_dp", None),
    ("intensity.build_profile", "intensity", "build_profile", None),
    ("quadrature.integrate_panels", "quadrature", "integrate_panels", _panel_nodes),
    ("fisher.fisher_info", "fisher", "fisher_info", None),
    ("fisher.mc_score_variance", "fisher", "mc_score_variance", None),
    ("fisher.mle_variance_study", "fisher", "mle_variance_study", None),
    ("process.sample_times_matrix", "process", "sample_times_matrix", _record_count),
    ("process.sample_batch", "process", "sample_batch", None),
    ("process.joint_density", "process", "joint_density", None),
    ("scenario.log_family_Fn", "scenario", "log_family_Fn", None),
    ("cli.main", "cli", "main", None),
)

# (span name, attribute of IntensityProfile, work of one call)
METHODS = (
    ("intensity.omega_at", "omega_at", _size_arg(1)),
    ("intensity.Omega_at", "Omega_at", _size_arg(1)),
    ("intensity.invert_Omega", "invert_Omega", _size_arg(1)),
)

NAME, START, END, PARENT, WORK, OUTER = range(6)


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` patch qarrival."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` recording one span per call."""
        nid = self._id(name)
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1,
                   work(args, kwargs) if work else 0.0, active[nid] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[nid] += 1
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                active[nid] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every lookup site of the traced functions and methods."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "qarrival" or k.startswith("qarrival.")) and m is not None]
        for name, home, attr, work in FUNCTIONS:
            original = getattr(sys.modules[f"qarrival.{home}"], attr)
            traced = self.wrap(name, original, work)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, traced)
        cls = sys.modules["qarrival.intensity"].IntensityProfile
        for name, attr, work in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, work))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """Spans as columns: name ids, start, end, parent index, work, outermost."""
        if not self.spans:
            empty = np.zeros(0)
            return (empty.astype(int), empty, empty, empty.astype(int), empty,
                    empty.astype(bool))
        cols = list(zip(*self.spans))
        return (np.array(cols[NAME], dtype=int), np.array(cols[START]),
                np.array(cols[END]), np.array(cols[PARENT], dtype=int),
                np.array(cols[WORK]), np.array(cols[OUTER], dtype=bool))

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, work and work squared."""
        name, start, end, parent, work, outer = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel & outer].sum()),
                "self_s": float(self_s[sel].sum()),
                "work": float(work[sel].sum()),
                "work2": float((work[sel] ** 2).sum()),
            }
        return out

    def save(self, path):
        name, start, end, parent, work, outer = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, work=work, outermost=outer)

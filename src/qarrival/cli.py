"""Batch command-line front end.

Subcommands read a flat key=value scenario config and emit CSV (or a
pass/fail report).  Every run is deterministic given its arguments; Monte
Carlo paths use counter-based seeded streams.

Exit codes: 0 success, 1 any other library error, 2 configuration or
output error, 3 numerical-tolerance failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import fisher as fi
from . import intensity as it
from . import process as pr
from . import verify as vf
from .errors import ConfigError, QArrivalError, ToleranceError
from .scenario import Scenario, StateFamily

def _load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            return Scenario.from_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _family(kind: str, scn: Scenario) -> StateFamily:
    """The family ``kind`` of the config's source.  A beam's infinite mass
    goes through the particle-number check here, so a Fock family on a
    beam exits 2 before any profile is built."""
    family = StateFamily.named(kind, 1.0 if scn.beam else scn.navg)
    if scn.beam:
        pr.checked_omega_inf(family, math.inf)
    return family


def _parse_floats(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def _parse_ints(text: str):
    """A non-empty comma list of detection counts: integers >= 1."""
    values = _parse_floats(text)
    if not values or not all(v.is_integer() and v >= 1 for v in values):
        raise ConfigError(f"detection counts must be integers >= 1, got {text!r}")
    return [int(v) for v in values]


# the least value of each count flag, and the parser of each list flag
_COUNT_FLOORS = {"points": 1, "pair_points": 2, "count": 1, "n": 1}
_LIST_PARSERS = {"n_list": _parse_ints, "r0_list": _parse_floats,
                 "eps_list": _parse_floats, "navg_list": _parse_floats}


def _writable(path: str) -> bool:
    if os.path.exists(path):
        return os.path.isfile(path) and os.access(path, os.W_OK)
    folder = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(folder) and os.access(folder, os.W_OK)


def _check_flags(args):
    """Reject bad counts, lists and output paths before any work is done.

    Each raises :class:`ConfigError` (exit 2); the list flags are replaced
    by their parsed values.
    """
    for name, floor in _COUNT_FLOORS.items():
        value = getattr(args, name, floor)
        if value < floor:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {floor}, got {value}")
    for name, parse in _LIST_PARSERS.items():
        if hasattr(args, name):
            setattr(args, name, parse(getattr(args, name)))
    for name in ("out", "pair_out"):
        path = getattr(args, name, "")
        if path and not _writable(path):
            raise ConfigError(f"cannot write --{name.replace('_', '-')} {path!r}")


@contextmanager
def _output(path):
    """Open an output file; a failed write (disk full, say) exits 2."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _write_rows(path, header, rows):
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_intensity(args) -> int:
    scn = _load_scenario(args.config)
    curves = []
    if args.eps_list:
        for eps in args.eps_list:
            if scn.beam:
                raise ConfigError("eps sweeps need a finite-mode base config")
            curves.append((f"eps={eps:g}", replace(scn, eps=eps)))
    if args.navg_list:
        for navg in args.navg_list:
            curves.append((f"navg={navg:g}", scn.at_navg(navg)))
    if args.include_beam or scn.beam:
        curves.append(("beam", scn.at_navg(math.inf)))
    if not curves:
        curves.append(("base", scn))
    profiles = [(label, it.build_profile(s, t_max=args.t_max, dt=args.dt))
                for label, s in curves]
    rows = []
    for label, prof in profiles:
        stride = max(1, len(prof.t) // args.points)
        for i in range(0, len(prof.t), stride):
            rows.append((label, float(prof.t[i]), float(prof.omega[i]),
                         float(prof.Omega[i]), float(prof.domega[i])))
    _write_rows(args.out, ("curve", "t", "omega", "Omega", "domega_dp0"), rows)
    print(f"wrote {len(rows)} rows for {len(profiles)} curves to {args.out}")
    return 0


def cmd_density(args) -> int:
    scn = _load_scenario(args.config)
    if not scn.beam:
        raise ConfigError("density curves are defined for the beam config (mode=beam)")
    r0_list = args.r0_list or [scn.r0]
    families = [_family(k.strip(), scn) for k in args.families.split(",") if k.strip()]
    profiles = [(r0, it.build_profile(replace(scn, r0=r0), t_max=args.t_max, dt=args.dt))
                for r0 in r0_list]
    tv = np.linspace(0.0, args.t_max, args.points)
    rows = []
    for r0, prof in profiles:
        for fam in families:
            p1 = _densities(tv[:, None], fam, prof)
            rows.extend((fam.kind, r0, float(t), float(v)) for t, v in zip(tv, p1))
    _write_rows(args.out, ("family", "r0", "t", "p1"), rows)
    if args.pair_out:
        rows2 = []
        tg = np.linspace(1e-3, args.t_max, args.pair_points)
        pairs = tg[np.stack(np.triu_indices(len(tg), 1), axis=1)]
        for r0, prof in profiles:
            for fam in families:
                p2 = _densities(pairs, fam, prof)
                rows2.extend((fam.kind, r0, float(t1), float(t2), float(v))
                             for (t1, t2), v in zip(pairs, p2))
        _write_rows(args.pair_out, ("family", "r0", "t1", "t2", "p2"), rows2)
    print(f"wrote densities to {args.out}")
    return 0


def _densities(times, family, profile):
    """Joint densities of the ``(count, n)`` time matrix, one per row."""
    return np.exp(pr.log_likelihood_batch(times, family, profile))


def cmd_fisher(args) -> int:
    scn = _load_scenario(args.config)
    fam = _family(args.family, scn)
    prof = it.build_profile(scn, t_max=args.t_max, dt=args.dt)
    # conditioning on n detections that happen with probability 0 is
    # undefined: such a row leaves I_n_cond empty
    rows = [(n, scn.r0, rep.value, rep.conditional if rep.p_tot > 0.0 else "", rep.p_tot,
             rep.noevent_part)
            for n, rep in zip(args.n_list, fi.fisher_info_many(args.n_list, fam, prof))]
    _write_rows(args.out, ("n", "r0", "I_n", "I_n_cond", "p_n_tot", "noevent_part"), rows)
    print(f"wrote {len(rows)} information rows to {args.out}")
    return 0


def cmd_sweep_density(args) -> int:
    scn = _load_scenario(args.config)
    if not scn.beam:
        raise ConfigError("the density sweep runs in beam mode")
    if not args.r0_list:
        raise ConfigError("--r0-list must name at least one density")
    fam = _family(args.family, scn)
    info = fi.density_sweep(args.n_list, args.r0_list, fam, scn, t_max=args.t_max, dt=args.dt)
    rows = [(fam.kind, n, r0, float(info[i, j]))
            for i, n in enumerate(args.n_list) for j, r0 in enumerate(args.r0_list)]
    _write_rows(args.out, ("family", "n", "r0", "I_n"), rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_sample(args) -> int:
    scn = _load_scenario(args.config)
    fam = _family(args.family, scn)
    prof = it.build_profile(scn, t_max=args.t_max, dt=args.dt, derivative=False)
    batch = pr.sample_batch(args.n, fam, prof, args.count, args.seed)
    with _output(args.out) as fh:
        fh.write("# n_detected,t_1..t_k,terminated\n")
        for row, k in zip(batch.times, batch.n_detected.tolist()):
            parts = [str(k)]
            parts += [f"{t:.12g}" for t in row[:k]]
            parts.append("1" if k < args.n else "0")
            fh.write(",".join(parts) + "\n")
    print(f"wrote {args.count} records (seed {args.seed}) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    checks = list(vf.INVARIANT_CHECKS)
    if not args.quick:
        checks += vf.ACCEPTANCE_CHECKS
    else:
        checks += [c for c in vf.ACCEPTANCE_CHECKS if c is not vf.check_mc_vs_quadrature]
    results = vf.run_checks(checks)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 4 if failed else 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call of :func:`main` gets a fresh namespace."""
    top = argparse.ArgumentParser(prog="qarrival",
                                  description="arrival-time statistics for absorptive detectors")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key=value scenario file")
        p.add_argument("--t-max", type=float, default=None, help="tabulation horizon")
        p.add_argument("--dt", type=float, default=None, help="tabulation step")

    p = sub.add_parser("intensity", help="omega/Omega traces for detector-width and "
                                         "particle-number sweeps")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--eps-list", default="", help="comma list of detector widths")
    p.add_argument("--navg-list", default="", help="comma list of mean particle numbers")
    p.add_argument("--include-beam", action="store_true")
    p.add_argument("--points", type=int, default=2000, help="rows per curve")
    p.set_defaults(func=cmd_intensity)

    p = sub.add_parser("density", help="first/second arrival densities (beam)")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--families", default="coherent,quasifree")
    p.add_argument("--r0-list", default="")
    p.add_argument("--points", type=int, default=800)
    p.add_argument("--pair-out", default="", help="optional two-arrival grid CSV")
    p.add_argument("--pair-points", type=int, default=60)
    p.set_defaults(func=cmd_density, t_max=30.0)

    p = sub.add_parser("fisher", help="information vs detection count")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="coherent")
    p.add_argument("--n-list", default="1,2,3,4,5")
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("sweep-density", help="information over an (n, r0) grid")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="coherent")
    p.add_argument("--n-list", default="1,2,3,5,8")
    p.add_argument("--r0-list", default="0,0.01,0.1,1,10,56.42,100")
    p.set_defaults(func=cmd_sweep_density)

    p = sub.add_parser("sample", help="draw arrival records")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="coherent")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run invariants and acceptance checks")
    p.add_argument("--quick", action="store_true",
                   help="skip the long Monte Carlo comparison")
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
    except QArrivalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import csv
import errno
import hashlib
import io
import math
import os

import numpy as np
import pytest

from qarrival import cli
from qarrival import verify as vf
from qarrival.cli import main
from qarrival.errors import ModeError
from qarrival.intensity import build_profile
from qarrival.scenario import Scenario

BEAM_CONFIG = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0,
                       navg=math.inf, r0=56.42).to_config()
FINITE_CONFIG = Scenario(m=1.0, a=0.1, eps=1.0, p0=1.0, x0=-20.0,
                         dp=math.sqrt(0.5), navg=100.0, r0=56.42).to_config()
# the navg = 100 member of the beam family at a point detector
PACKET_CONFIG = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0, navg=math.inf,
                         r0=56.42).at_navg(100.0).to_config()


@pytest.fixture
def beam_cfg(tmp_path):
    path = tmp_path / "beam.cfg"
    path.write_text(BEAM_CONFIG)
    return str(path)


@pytest.fixture
def finite_cfg(tmp_path):
    path = tmp_path / "finite.cfg"
    path.write_text(FINITE_CONFIG)
    return str(path)


def _header(path):
    with open(path) as fh:
        return fh.readline().strip()


class TestIntensityCommand:
    def test_beam_trace(self, beam_cfg, tmp_path):
        out = tmp_path / "intensity.csv"
        rc = main(["intensity", "--config", beam_cfg, "--out", str(out),
                   "--t-max", "20", "--points", "100"])
        assert rc == 0
        assert _header(out) == "curve,t,omega,Omega,domega_dp0"
        lines = out.read_text().splitlines()
        assert len(lines) > 50
        first = lines[1].split(",")
        assert first[0] == "beam"
        assert float(first[2]) == pytest.approx(5.642)

    def test_eps_sweep(self, finite_cfg, tmp_path):
        out = tmp_path / "curves.csv"
        with pytest.warns(UserWarning, match="decays too slowly"):
            rc = main(["intensity", "--config", finite_cfg, "--out", str(out),
                       "--eps-list", "1.0,0.5", "--t-max", "10", "--dt", "0.01",
                       "--points", "50"])
        assert rc == 0
        labels = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert labels == {"eps=1", "eps=0.5"}

    def test_eps_sweep_on_beam_config_rejected(self, beam_cfg, tmp_path):
        rc = main(["intensity", "--config", beam_cfg, "--out",
                   str(tmp_path / "x.csv"), "--eps-list", "1.0"])
        assert rc == 2

    @pytest.mark.filterwarnings("ignore:intensity tail decays too slowly")
    def test_navg_sweep_and_base_curve(self, finite_cfg, tmp_path):
        # a --navg-list curve per value, then the beam when asked for;
        # without any list flag the config itself is the one "base" curve
        swept, base = tmp_path / "swept.csv", tmp_path / "base.csv"
        grid = ["--t-max", "10", "--dt", "0.01", "--points", "50"]
        assert main(["intensity", "--config", finite_cfg, "--out", str(swept),
                     "--navg-list", "50,200", "--include-beam"] + grid) == 0
        assert main(["intensity", "--config", finite_cfg, "--out", str(base)] + grid) == 0
        rows = [line.split(",") for line in swept.read_text().splitlines()[1:]]
        labels = [r[0] for r in rows]
        assert list(dict.fromkeys(labels)) == ["navg=50", "navg=200", "beam"]
        base_rows = [line.split(",") for line in base.read_text().splitlines()[1:]]
        assert {r[0] for r in base_rows} == {"base"}
        # 1001 nodes at stride 1001 // 50 = 20: 51 rows per finite curve
        assert labels.count("navg=50") == labels.count("navg=200") == len(base_rows) == 51
        prof = build_profile(Scenario.from_config(FINITE_CONFIG).at_navg(200.0),
                             t_max=10.0, dt=0.01)
        navg200 = [r for r in rows if r[0] == "navg=200"]
        assert [float(r[1]) for r in navg200] == [float(f"{t:.10g}") for t in prof.t[::20]]
        assert [float(r[2]) for r in navg200] == [float(f"{w:.10g}") for w in prof.omega[::20]]


class TestDensityCommand:
    def test_first_arrival_table(self, beam_cfg, tmp_path):
        out = tmp_path / "density.csv"
        rc = main(["density", "--config", beam_cfg, "--out", str(out),
                   "--r0-list", "56.42", "--points", "200", "--t-max", "10"])
        assert rc == 0
        assert _header(out) == "family,r0,t,p1"
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        coh0 = next(r for r in rows if r[0] == "coherent")
        qf0 = next(r for r in rows if r[0] == "quasifree")
        # p1(0) = a r0, family independent
        assert float(coh0[3]) == pytest.approx(5.642)
        assert float(qf0[3]) == pytest.approx(5.642)
        # coherent exceeds quasi-free at small times (before the mass builds up)
        t_pick = rows[1][2]
        coh_val = next(float(r[3]) for r in rows if r[0] == "coherent" and r[2] == t_pick
                       and float(r[2]) > 0)
        qf_val = next(float(r[3]) for r in rows if r[0] == "quasifree" and r[2] == t_pick
                      and float(r[2]) > 0)
        assert coh_val > qf_val

    def test_first_arrival_normalised(self, beam_cfg, tmp_path):
        out = tmp_path / "density.csv"
        rc = main(["density", "--config", beam_cfg, "--out", str(out),
                   "--r0-list", "56.42", "--families", "coherent",
                   "--points", "4000", "--t-max", "40"])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        ts = [float(r[2]) for r in rows]
        p1 = [float(r[3]) for r in rows]
        import numpy as np
        mass = np.trapezoid(p1, ts)
        assert mass == pytest.approx(1.0, abs=2e-3)

    def test_first_arrival_matches_profile(self, beam_cfg, tmp_path):
        # coherent p1 = omega exp(-Omega) of the tabulated beam profile, whose
        # first cell carries the sqrt(t) cusp; CSV values keep 10 digits
        out = tmp_path / "density.csv"
        rc = main(["density", "--config", beam_cfg, "--out", str(out),
                   "--r0-list", "56.42", "--families", "coherent",
                   "--points", "300", "--t-max", "10"])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        t = np.linspace(0.0, 10.0, 300)  # exact nodes; the CSV rounds them too
        np.testing.assert_allclose([float(r[2]) for r in rows], t, rtol=1e-9)
        p1 = np.array([float(r[3]) for r in rows])
        prof = build_profile(Scenario.from_config(BEAM_CONFIG), t_max=10)
        np.testing.assert_allclose(p1, prof.omega_at(t) * np.exp(-prof.Omega_at(t)),
                                   rtol=1e-9, atol=0.0)

    def test_pair_grid(self, beam_cfg, tmp_path):
        out = tmp_path / "d1.csv"
        out2 = tmp_path / "d2.csv"
        rc = main(["density", "--config", beam_cfg, "--out", str(out),
                   "--pair-out", str(out2), "--pair-points", "12",
                   "--points", "50", "--t-max", "5"])
        assert rc == 0
        assert _header(out2) == "family,r0,t1,t2,p2"
        rows = [line.split(",") for line in out2.read_text().splitlines()[1:]]
        assert all(float(r[3]) > float(r[2]) for r in rows)


class TestFisherCommand:
    def test_beam_table_increasing(self, beam_cfg, tmp_path):
        out = tmp_path / "fisher.csv"
        rc = main(["fisher", "--config", beam_cfg, "--out", str(out),
                   "--n-list", "1,2,3"])
        assert rc == 0
        assert _header(out) == "n,r0,I_n,I_n_cond,p_n_tot,noevent_part"
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        vals = [float(r[2]) for r in rows]
        assert vals[0] < vals[1] < vals[2]
        assert all(float(r[4]) == 1.0 for r in rows)

    def test_sweep(self, beam_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep-density", "--config", beam_cfg, "--out", str(out),
                   "--n-list", "1,2", "--r0-list", "0,0.001"])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        sparse = {(r[1], r[2]): float(r[3]) for r in rows}
        assert sparse[("1", "0")] == pytest.approx(0.00907, abs=1e-5)
        assert sparse[("2", "0")] == pytest.approx(2 * 0.0090703, abs=2e-5)


class TestSampleCommand:
    def test_deterministic_output(self, beam_cfg, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["sample", "--config", beam_cfg, "--out", str(out),
                       "--n", "3", "--count", "200", "--seed", "11",
                       "--t-max", "30"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, beam_cfg, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["sample", "--config", beam_cfg, "--out", str(a), "--n", "2",
              "--count", "50", "--seed", "1", "--t-max", "30"])
        main(["sample", "--config", beam_cfg, "--out", str(b), "--n", "2",
              "--count", "50", "--seed", "2", "--t-max", "30"])
        assert a.read_bytes() != b.read_bytes()

    def test_record_format(self, beam_cfg, tmp_path):
        out = tmp_path / "records.csv"
        main(["sample", "--config", beam_cfg, "--out", str(out), "--n", "2",
              "--count", "10", "--seed", "3", "--t-max", "30"])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        for line in lines[1:]:
            parts = line.split(",")
            n_det = int(parts[0])
            assert parts[-1] in ("0", "1")
            assert len(parts) == n_det + 2


# sha256 of CSVs that performance work must leave byte for byte as they are;
# both sample runs span more than one sampler block, the packet run holds
# 186 terminated records
PINNED_CSVS = {
    "sample-beam": (
        ["sample", "--config", "{beam}", "--n", "3", "--count", "30000", "--seed", "11"],
        "e98fd0139a8b7c417ae430966d096ac45232daf874b7692dfd9c8e0d48ed8c58"),
    "sample-packet": (
        ["sample", "--config", "{packet}", "--n", "5", "--count", "20000", "--seed", "5",
         "--t-max", "45", "--dt", "0.01"],
        "097c3864026c2a86e68cfa5229c0ce2cf45279deb6302bd51f6f09b11864d957"),
    "sweep-coherent": (
        ["sweep-density", "--config", "{beam}", "--family", "coherent"],
        "38ea0bd371a8500dc9e2c9e14184c663529945b678a8c1647c0605106c04b0b3"),
    "sweep-quasifree": (
        ["sweep-density", "--config", "{beam}", "--family", "quasifree"],
        "db93b1cff58d2092d50fdc50994bbd17bf44ba352afe656e2810a0859cd0dd6b"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CSVS))
def test_pinned_csv_bytes(name, beam_cfg, tmp_path):
    argv, digest = PINNED_CSVS[name]
    packet = tmp_path / "packet.cfg"
    packet.write_text(PACKET_CONFIG)
    out = tmp_path / "out.csv"
    argv = [a.format(beam=beam_cfg, packet=packet) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestErrors:
    def test_missing_config(self, tmp_path):
        rc = main(["fisher", "--config", str(tmp_path / "none.cfg"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m=1\nwhat=huh\n")
        rc = main(["fisher", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_family(self, beam_cfg, tmp_path):
        rc = main(["fisher", "--config", beam_cfg, "--out", str(tmp_path / "x.csv"),
                   "--family", "thermalish"])
        assert rc == 2

    def test_nan_momentum(self, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(FINITE_CONFIG.replace("p0=1.0", "p0=nan"))
        rc = main(["fisher", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                   "--t-max", "10", "--dt", "0.01"])
        assert rc == 2

    @pytest.mark.parametrize("extra, match", [
        ("mode=beam", "mode=beam requires navg=inf"),
        ("navg=inf\nmode=beam", "point detector"),
    ])
    def test_beam_mode_on_finite_config(self, tmp_path, capsys, extra, match):
        # the finite config's eps = 1.0 and navg = 100 are not overwritten
        cfg = tmp_path / "beam.cfg"
        cfg.write_text(FINITE_CONFIG + extra + "\n")
        rc = main(["fisher", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert match in err

    @pytest.mark.parametrize("key, value", [("dp", "1e-300"), ("p0", "1e300"),
                                            ("dp", "1e-100"), ("eps", "1e200"),
                                            ("x0", "-1e300"), ("x0", "1e300")])
    def test_drive_constants_out_of_range(self, tmp_path, capsys, key, value):
        # dp = 1e-300 divided by zero and p0 = 1e300 overflowed in the
        # Gaussian drive, dp = 1e-100 wrote I_n = nan with exit 0,
        # eps = 1e200 overflowed in the detector kernel, and x0 = -1e300
        # warned "invalid value" in the drive and wrote I_n = 0 and
        # I_n_cond = nan with exit 0; a repeated key overrides the earlier one
        cfg = tmp_path / "scale.cfg"
        cfg.write_text(FINITE_CONFIG + f"{key}={value}\n")
        rc = main(["fisher", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                   "--n-list", "1,2", "--t-max", "10", "--dt", "0.01"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert f"{key}=" in err

    @pytest.mark.parametrize("key, value", [
        ("p0", "1e-300"), ("p0", "5e-324"), ("r0", "5e-324"), ("a", "5e-324"),
        ("m", "1e154"), ("a", "1e154"), ("p0", "1e154"),
        ("m", "1e300"), ("a", "1e300"), ("p0", "1e300")])
    def test_beam_constants_out_of_range(self, tmp_path, capsys, key, value):
        # the beam twin of test_drive_constants_out_of_range: p0 = 1e-300 and
        # r0 = 5e-324 divided by a zero omega_inf, a = 5e-324 took the log of
        # a zero mass, and the 1e154 and 1e300 values overflowed in
        # (p0 + a m/2)^3, each with a traceback
        cfg = tmp_path / "scale.cfg"
        cfg.write_text(BEAM_CONFIG + f"{key}={value}\n")
        rc = main(["fisher", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                   "--n-list", "1,2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert f"{key}=" in err

    @pytest.mark.parametrize("extra", ["r0=1e300", "p0=1e-170\nr0=1e300"])
    def test_dense_beam_overflow_exits_3(self, tmp_path, capsys, extra):
        # both overflow in the beam tail, in its constants or in the coherent
        # tail; each printed numpy's overflow warning before the exit, which
        # the suite makes an error
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(BEAM_CONFIG + extra + "\n")
        rc = main(["fisher", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                   "--n-list", "1,2"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numerical tolerance failure:") and err.count("\n") == 1

    def test_beam_negative_momentum(self, tmp_path):
        cfg = tmp_path / "back.cfg"
        cfg.write_text(BEAM_CONFIG.replace("p0=1.0", "p0=-1.0"))
        rc = main(["fisher", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_negative_seed(self, beam_cfg, tmp_path):
        rc = main(["sample", "--config", beam_cfg, "--out", str(tmp_path / "x.csv"),
                   "--n", "2", "--count", "10", "--seed", "-1", "--t-max", "30"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["fisher", "--t-max", "-5"],
        ["fisher", "--dt", "0"],
        ["fisher", "--dt", "nan"],
        ["density", "--t-max", "0"],
        # over the node budget: ValueError, MemoryError or ArrayMemoryError
        # tracebacks before the budget was checked
        ["fisher", "--dt", "1e-300"],
        ["fisher", "--dt", "1e-8"],
        ["density", "--t-max", "1e7"],
        ["sample", "--count", "100000000000"],
        ["sample", "--n", "100000000", "--count", "10"],
    ])
    def test_bad_grid_flags(self, beam_cfg, tmp_path, capsys, argv):
        rc = main(argv + ["--config", beam_cfg, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        [cmd, "--n-list", bad]
        for cmd in ("fisher", "sweep-density")
        for bad in ("1.5", "0", "-2", "1,nan", "2,inf", "")
    ] + [["sample", "--n", "0"], ["sample", "--n", "-3"]])
    def test_bad_detection_counts(self, beam_cfg, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        rc = main(argv + ["--config", beam_cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["density", "--points", "0"],
        ["intensity", "--points", "0", "--t-max", "5"],
        ["intensity", "--points", "-3", "--t-max", "5"],
        ["density", "--pair-points", "0", "--pair-out", "{tmp}/pair.csv"],
        ["sample", "--count", "-5"],
        ["sample", "--count", "0"],
        ["fisher", "--out", "{tmp}/missing/x.csv"],
        ["sample", "--out", "{tmp}/missing/x.csv"],
        ["density", "--pair-out", "{tmp}/missing/pair.csv"],
        ["fisher", "--out", "{tmp}"],
    ])
    def test_bad_output_flags(self, beam_cfg, tmp_path, capsys, argv):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "x.csv")]
        rc = main(argv + ["--config", beam_cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["density", "--families", "bogus"],
        ["density", "--families", "coherent,fock", "--pair-out", "{tmp}/pair.csv"],
        ["fisher", "--family", "fock"],
        ["sweep-density", "--family", "fock"],
        ["sample", "--family", "fock"],
    ])
    def test_bad_family_before_any_profile(self, beam_cfg, tmp_path, capsys, monkeypatch,
                                           argv):
        # a beam holds infinitely many particles, more than any Fock(N) has;
        # its fixed-number limit is the coherent family
        def fail(*args, **kwargs):
            raise AssertionError("built a profile before checking the family")

        monkeypatch.setattr(cli.it, "build_profile", fail)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        rc = main(argv + ["--config", beam_cfg, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        if "fock" in argv[2]:
            assert "coherent family" in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["fisher", "--n-list", "1"],
        ["sample", "--n", "2", "--count", "10", "--t-max", "30"],
    ])
    def test_write_failure(self, beam_cfg, tmp_path, capsys, monkeypatch, argv):
        # a disk that fills up while the output is written
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fake_open(path, mode="r", *rest, **kw):
            return FullDisk() if "w" in mode else open(path, mode, *rest, **kw)

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        rc = main(argv + ["--config", beam_cfg, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error: cannot write") and err.count("\n") == 1


class TestExitCodes:
    """Exit 3 (numerical tolerance), exit 1 (other library errors) and the
    beam-only subcommands, each with a one-line message and no output."""

    def test_tolerance_failure_exits_3(self, tmp_path, capsys):
        # a 1-unit step is too coarse for I_2 on the r0 = 1 beam
        cfg = tmp_path / "r1.cfg"
        cfg.write_text(BEAM_CONFIG.replace("r0=56.42", "r0=1.0"))
        out = tmp_path / "x.csv"
        rc = main(["fisher", "--config", str(cfg), "--out", str(out), "--dt", "1",
                   "--n-list", "1,2"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numerical tolerance failure:") and err.count("\n") == 1
        assert "at n=2" in err
        assert not out.exists()

    def test_non_finite_information_exits_3(self, tmp_path, capsys):
        # navg = 1e300 overflows the information integrand: I_n = nan was
        # written with exit 0.  Building the profile warns once, for the short
        # grid's tail fit; numpy's overflow warning from dOmega~ reached
        # stderr too before the exit-3 line
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(FINITE_CONFIG + "navg=1e300\n")
        out = tmp_path / "x.csv"
        with pytest.warns(UserWarning, match="decays too slowly") as caught:
            rc = main(["fisher", "--config", str(cfg), "--out", str(out),
                       "--n-list", "1,2", "--t-max", "10", "--dt", "0.01"])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numerical tolerance failure:") and err.count("\n") == 1
        assert "at n=1 " in err and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, flags", [("", ["--t-max", "1e-3", "--dt", "1e-5"]),
                                              ("m=1e-300\n", ["--t-max", "10", "--dt", "0.01"])])
    def test_conditional_at_zero_probability_is_empty(self, tmp_path, capsys, extra, flags):
        # p_n_tot is 0 when nothing arrives within t_max, or when m = 1e-300
        # keeps the packet from spreading: I_n_cond was written as nan
        cfg = tmp_path / "none.cfg"
        cfg.write_text(FINITE_CONFIG + extra)
        out = tmp_path / "x.csv"
        with pytest.warns(UserWarning, match="decays too slowly"):
            rc = main(["fisher", "--config", str(cfg), "--out", str(out),
                       "--n-list", "1,2"] + flags)
        assert rc == 0
        text = out.read_text()
        assert "nan" not in text
        rows = list(csv.DictReader(text.splitlines()))
        assert [r["I_n_cond"] for r in rows] == ["", ""]
        assert [r["p_n_tot"] for r in rows] == ["0", "0"]
        assert all(math.isfinite(float(r["I_n"])) for r in rows)

    def test_library_error_exits_1(self, beam_cfg, tmp_path, capsys, monkeypatch):
        # no flag reaches a ModeError today; any QArrivalError that is not a
        # configuration or tolerance error maps to exit 1
        def raise_mode(*args, **kwargs):
            raise ModeError("no such mode")

        monkeypatch.setattr(cli.fi, "fisher_info_many", raise_mode)
        out = tmp_path / "x.csv"
        rc = main(["fisher", "--config", beam_cfg, "--out", str(out), "--n-list", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: no such mode\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["density", "--config", "{finite}"],
        ["sweep-density", "--config", "{finite}"],
        ["density", "--config", "{beam}", "--r0-list", "1,dense"],
        ["sweep-density", "--config", "{beam}", "--r0-list", "0,x"],
        ["sweep-density", "--config", "{beam}", "--r0-list", ","],
        ["sweep-density", "--config", "{beam}", "--r0-list", ""],
    ])
    def test_beam_only_and_bad_r0_list_exit_2(self, beam_cfg, finite_cfg, tmp_path, capsys,
                                              argv):
        argv = [arg.format(beam=beam_cfg, finite=finite_cfg) for arg in argv]
        rc = main(argv + ["--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))


    @pytest.mark.parametrize("navg_list", ["0", "inf,nan", "-5", "5,-inf"])
    def test_bad_navg_list_exit_2(self, finite_cfg, tmp_path, capsys, navg_list):
        # a mean particle number must be > 0: 0 used to divide by zero in
        # Scenario.at_navg, and NaN was reported as a bad dp
        out = tmp_path / "x.csv"
        rc = main(["intensity", "--config", finite_cfg, "--out", str(out),
                   "--navg-list", navg_list, "--t-max", "5", "--dt", "0.01"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "navg" in err and "dp" not in err
        assert not out.exists()


# (base config, appended line): each breaks one rule of the config format or
# of Scenario; a repeated key overrides the earlier one
BAD_CONFIGS = [
    (FINITE_CONFIG, "m=0"),
    (FINITE_CONFIG, "a=-0.1"),
    (FINITE_CONFIG, "eps=-1"),
    (FINITE_CONFIG, "navg=0"),
    (FINITE_CONFIG, "dp=0"),
    (BEAM_CONFIG, "r0=0"),
    (FINITE_CONFIG, "just words"),
    (FINITE_CONFIG, "mode=pulsed"),
    (FINITE_CONFIG, "a=fast"),
    (FINITE_CONFIG, "navg=inf"),
]


@pytest.mark.parametrize("base, extra", BAD_CONFIGS,
                         ids=[extra for _, extra in BAD_CONFIGS])
def test_bad_config_file_exits_2(tmp_path, capsys, base, extra):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(base + extra + "\n")
    out = tmp_path / "x.csv"
    rc = main(["fisher", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not out.exists()


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "16/16 checks passed"
        assert len(lines) == 17 and all(line.startswith("[PASS] ") for line in lines[:-1])

    def test_failing_check_exits_4(self, capsys, monkeypatch):
        def check_fails():
            return vf.CheckResult("always-fails", False, "stub")

        monkeypatch.setattr(vf, "ACCEPTANCE_CHECKS", vf.ACCEPTANCE_CHECKS + [check_fails])
        assert main(["verify", "--quick"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == "[FAIL] always-fails (0.0s): stub"
        assert lines[-1] == "16/17 checks passed"

    @pytest.mark.parametrize("quick", [False, True])
    def test_check_selection(self, monkeypatch, quick):
        # --quick leaves out the Monte Carlo comparison and nothing else
        ran = []
        monkeypatch.setattr(cli.vf, "run_checks", lambda checks: ran.extend(checks) or [])
        assert main(["verify"] + (["--quick"] if quick else [])) == 0
        every = vf.INVARIANT_CHECKS + vf.ACCEPTANCE_CHECKS
        assert ran == [c for c in every if not (quick and c is vf.check_mc_vs_quadrature)]
        assert len(ran) == 16 + (not quick)


def test_parser_built_once_without_leaking_defaults(beam_cfg, tmp_path, monkeypatch):
    # one parser serves every call; a subcommand's defaults (density's
    # t_max = 30) stay out of the next call's namespace
    grids = []

    def spy(scn, t_max=None, dt=None, **kw):
        grids.append((t_max, dt))
        return build_profile(scn, t_max=t_max, dt=dt, **kw)

    monkeypatch.setattr(cli.it, "build_profile", spy)
    parser = cli.build_parser()
    out = str(tmp_path / "x.csv")
    assert main(["density", "--config", beam_cfg, "--out", out, "--points", "5"]) == 0
    assert main(["fisher", "--config", beam_cfg, "--out", out, "--n-list", "1"]) == 0
    assert main(["density", "--config", beam_cfg, "--out", out, "--points", "5",
                 "--dt", "0.01"]) == 0
    assert main(["fisher", "--config", beam_cfg, "--out", out, "--n-list", "1"]) == 0
    assert grids == [(30.0, None), (None, None), (30.0, 0.01), (None, None)]
    assert cli.build_parser() is parser

import math

import numpy as np
import pytest

from qarrival.cli import main
from qarrival.intensity import build_profile
from qarrival.scenario import Scenario

BEAM_CONFIG = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0,
                       navg=math.inf, r0=56.42).to_config()
FINITE_CONFIG = Scenario(m=1.0, a=0.1, eps=1.0, p0=1.0, x0=-20.0,
                         dp=math.sqrt(0.5), navg=100.0, r0=56.42).to_config()


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
    ])
    def test_bad_grid_flags(self, beam_cfg, tmp_path, capsys, argv):
        rc = main(argv + ["--config", beam_cfg, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1

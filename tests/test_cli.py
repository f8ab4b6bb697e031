"""End-to-end CLI tests: argument handling, stores, exit codes, reports.

Everything drives :func:`hks.cli.dispatch` in-process; one test covers the
installed entry point via ``python -m hks.cli``.  Exit code contract:
0 success, 1 a measured check failed or the integrator aborted, 2 usage.
"""

import contextlib
import functools
import io
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import UNDER_RESOLVED_V0, build_data, v0_warning
from hks import ksf, probe, solver
from hks.cli import build_parser, dispatch
from hks.littlewood_paley import BesovParams, besov_norm, make_partition
from hks.spectral import Field, band_limited_noise, make_grid
from hks.store import ResultStore


def run(argv, capsys):
    rc = dispatch([str(a) for a in argv])
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.fixture(scope="module")
def probe_store(tmp_path_factory):
    """The exit code and store of `hks probe <argv>`, run once per module and
    argv, with its output discarded, so that tests reading the same store
    share one run."""
    @functools.cache
    def run_once(argv):
        out = tmp_path_factory.mktemp("probe") / "store"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = dispatch(["probe", *argv, "--outdir", str(out)])
        return rc, out
    return lambda argv: run_once(tuple(map(str, argv)))


# ---------------------------------------------------------------------------
# KSF1 container


class TestKsf:
    def _sample(self):
        g = make_grid(2, 1, 32)
        rng = np.random.default_rng(7)
        return g, Field(g, rng.standard_normal(g.shape))

    def test_roundtrip_bit_exact(self, tmp_path):
        g, f = self._sample()
        path = tmp_path / "f.ksf"
        ksf.write_field(path, f)
        back = ksf.read_field(path)
        assert (back.grid.d, back.grid.M, back.grid.N) == (2, 1, 32)
        assert back.values.dtype == np.float64
        assert back.values.tobytes() == f.values.tobytes()

    def test_read_onto_matching_grid(self, tmp_path):
        g, f = self._sample()
        path = tmp_path / "f.ksf"
        ksf.write_field(path, f)
        back = ksf.read_field(path, grid=g)
        assert back.grid is g

    def test_rejects_bad_magic(self, tmp_path):
        g, f = self._sample()
        path = tmp_path / "f.ksf"
        ksf.write_field(path, f)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not a KSF1 file"):
            ksf.read_field(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "f.ksf"
        path.write_bytes(b"KS")
        with pytest.raises(ValueError, match="not a KSF1 file"):
            ksf.read_field(path)

    def test_rejects_reserved_word(self, tmp_path):
        path = tmp_path / "f.ksf"
        path.write_bytes(b"KSF1" + struct.pack("<IIII", 1, 1, 4, 9) + b"\0" * 32)
        with pytest.raises(ValueError, match="reserved header word"):
            ksf.read_field(path)

    def test_rejects_invalid_geometry(self, tmp_path):
        path = tmp_path / "f.ksf"
        path.write_bytes(b"KSF1" + struct.pack("<IIII", 0, 1, 16, 0) + b"\0" * 8)
        with pytest.raises(ValueError, match="invalid geometry"):
            ksf.read_field(path)

    def test_rejects_header_the_grid_rejects(self, tmp_path):
        # N = 8 passes the bare field checks but is not a valid Grid; the
        # error names the file and comes before any payload is read.
        path = tmp_path / "f.ksf"
        path.write_bytes(b"KSF1" + struct.pack("<IIII", 1, 1, 8, 0))
        with pytest.raises(ValueError, match="power of two") as exc:
            ksf.read_field(path)
        assert str(exc.value).startswith(f"{path}: invalid geometry")

    def test_rejects_short_payload(self, tmp_path):
        g, f = self._sample()
        path = tmp_path / "f.ksf"
        ksf.write_field(path, f)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload holds"):
            ksf.read_field(path)

    def test_rejects_grid_mismatch(self, tmp_path):
        g, f = self._sample()
        path = tmp_path / "f.ksf"
        ksf.write_field(path, f)
        with pytest.raises(ValueError, match="does not match the target grid"):
            ksf.read_field(path, grid=make_grid(1, 1, 64))


# ---------------------------------------------------------------------------
# Argument handling


class TestParsing:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_probe_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["probe"])
        assert exc.value.code == 2

    def test_extended_index_accepts_inf(self):
        args = build_parser().parse_args(["norms", "--in", "x", "--p", "inf"])
        assert args.p == float("inf")

    def test_extended_index_rejects_below_one(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["norms", "--in", "x", "--p", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["norms", "--in", "x", "--p", "nan"],
                                      ["norms", "--in", "x", "--r", "nan"],
                                      ["probe", "rates", "--p", "nan"]],
                             ids=["norms-p", "norms-r", "rates-p"])
    def test_extended_index_rejects_nan(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be >= 1 or inf" in capsys.readouterr().err

    def test_no_threads_flag(self, capsys):
        # the inflation sweep runs one trajectory: there is no pool to size
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["probe", "inflation", "--threads", "2",
                                       "--outdir", "y"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_time_list_rejects_garbage(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["evolve", "--in", "x", "--t", "1", "--snapshots", "a,b",
                 "--outdir", "y"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# construct / norms


class TestConstructNorms:
    def test_construct_writes_store(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc, stdout, _ = run(["construct", "--n", 2048, "--nmax", 5,
                             "--outdir", out], capsys)
        assert rc == 0
        for name in ("u0", "S0", "v0"):
            assert (out / "fields" / f"{name}.ksf").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "hks-store-v1"
        assert manifest["config"]["n"] == 2048
        assert manifest["config"]["nmax"] == 5
        assert sorted(manifest["outputs"]) == [
            "fields/S0.ksf", "fields/u0.ksf", "fields/v0.ksf", "summary.json"]
        assert "max|u0|" in stdout
        # the stored field is exactly the in-process construction
        data = build_data(1, 1, 2048, 5)
        back = ksf.read_field(out / "fields" / "u0.ksf")
        assert np.array_equal(back.values, data.u0.values)

    def test_construct_refuses_nonempty(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run(["construct", "--n", 2048, "--nmax", 5,
                    "--outdir", out], capsys)[0] == 0
        rc, _, err = run(["construct", "--n", 2048, "--nmax", 5,
                          "--outdir", out], capsys)
        assert rc == 2
        assert "not empty" in err
        rc, _, _ = run(["construct", "--n", 2048, "--nmax", 5,
                        "--outdir", out, "--force"], capsys)
        assert rc == 0

    def test_norms_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "c"
        run(["construct", "--n", 2048, "--nmax", 5, "--outdir", out], capsys)
        rc, stdout, _ = run(["norms", "--in", out / "fields" / "u0.ksf"],
                            capsys)
        assert rc == 0
        lines = stdout.splitlines()
        printed = float(lines[0].split(": ")[1])
        data = build_data(1, 1, 2048, 5)
        part = make_partition(data.grid)
        expected = float(besov_norm(part, data.u0, BesovParams(2.0, 2.0)))
        assert printed == expected
        assert lines[1] == "resolved: True"
        assert lines[2] == "j,profile"
        assert lines[3].startswith("-1,")

    def test_norms_missing_file(self, tmp_path, capsys):
        rc, _, err = run(["norms", "--in", tmp_path / "nope.ksf"], capsys)
        assert rc == 2
        assert "file not found" in err


# ---------------------------------------------------------------------------
# evolve


class TestEvolveCli:
    def test_snapshots_and_diagnostics(self, tmp_path, capsys):
        cdir, edir = tmp_path / "c", tmp_path / "e"
        run(["construct", "--n", 2048, "--nmax", 5, "--outdir", cdir], capsys)
        u0 = cdir / "fields" / "u0.ksf"
        rc, stdout, _ = run(["evolve", "--in", u0, "--t", "1e-3",
                             "--snapshots", "5e-4", "--dt", "2.5e-4",
                             "--outdir", edir], capsys)
        assert rc == 0
        assert "4 steps, 3 states" in stdout
        for idx in range(3):
            assert (edir / "fields" / f"u_{idx:03d}.ksf").is_file()
        # snapshot zero is the unmodified input
        assert (edir / "fields" / "u_000.ksf").read_bytes() == u0.read_bytes()
        table = (edir / "tables" / "diagnostics.csv").read_text().splitlines()
        assert table[0] == "step,t,dt,mean,max_abs,max_speed"
        assert len(table) == 1 + 4
        manifest = json.loads((edir / "manifest.json").read_text())
        assert manifest["config"]["times"] == [0.0, 0.0005, 0.001]

    def test_snapshot_beyond_horizon(self, tmp_path, capsys):
        cdir = tmp_path / "c"
        run(["construct", "--n", 2048, "--nmax", 5, "--outdir", cdir], capsys)
        rc, _, err = run(["evolve", "--in", cdir / "fields" / "u0.ksf",
                          "--t", "1e-3", "--snapshots", "2e-3",
                          "--outdir", tmp_path / "e"], capsys)
        assert rc == 2
        assert "snapshot times" in err

    @pytest.mark.parametrize("flags, message", [
        (["--t", "inf"], "t_final must be positive and finite"),
        (["--t", "1e-3", "--snapshots", "nan"], "snapshot times"),
        (["--t", "1e-3", "--eps", "nan"], "eps must be nonnegative and finite"),
        (["--t", "0.01", "--dt", "inf"], "dt must be positive and finite"),
    ])
    def test_non_finite_config_rejected_before_the_store(self, tmp_path, capsys,
                                                         flags, message):
        cdir = tmp_path / "c"
        run(["construct", "--n", 2048, "--nmax", 5, "--outdir", cdir], capsys)
        rc, _, err = run(["evolve", "--in", cdir / "fields" / "u0.ksf", *flags,
                          "--outdir", tmp_path / "e"], capsys)
        assert rc == 2
        assert message in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("kmax, crosses", [(120, True), (40, False)])
    def test_reports_unevolved_share(self, tmp_path, capsys, kmax, crosses):
        # N = 256 keeps |k| <= 85: noise up to k = 120 crosses the cutoff
        g = make_grid(1, 1, 256)
        values = 0.2 + 0.05 * band_limited_noise(g, kmax, seed=47).values
        path, edir = tmp_path / "u.ksf", tmp_path / "e"
        ksf.write_field(path, Field(g, values))
        rc, stdout, _ = run(["evolve", "--in", path, "--t", "1e-3",
                             "--dt", "5e-4", "--outdir", edir], capsys)
        assert rc == 0
        line, = [ln for ln in stdout.splitlines() if ln.startswith("unevolved share")]
        share = float(line.rsplit(" ", 1)[1])
        manifest = json.loads((edir / "manifest.json").read_text())
        assert manifest["config"]["unevolved_share"] == share
        power = np.abs(np.fft.fft(values)) ** 2
        above = np.abs(np.fft.fftfreq(256, 1 / 256)) > 85
        assert share == pytest.approx(power[above].sum() / power.sum(),
                                      rel=1e-9, abs=1e-25)
        assert (share > 1e-4) == crosses

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exits_one(self, tmp_path, capsys):
        g = make_grid(1, 1, 256)
        path = tmp_path / "noise.ksf"
        noise = band_limited_noise(g, 60, seed=44)
        ksf.write_field(path, noise)
        edir = tmp_path / "e"
        rc, _, err = run(["evolve", "--in", path, "--t", "10", "--dt", "10",
                          "--outdir", edir], capsys)
        assert rc == 1
        assert "error:" in err
        assert (edir / "manifest.json").is_file()
        assert not list((edir / "fields").glob("u_*.ksf"))
        # the share is known before the first step, so the aborted run records it
        manifest = json.loads((edir / "manifest.json").read_text())
        power = np.abs(np.fft.fft(noise.values)) ** 2
        above = np.abs(np.fft.fftfreq(256, 1 / 256)) > 85
        assert manifest["config"]["unevolved_share"] == pytest.approx(
            power[above].sum() / power.sum(), rel=1e-9, abs=1e-25)
        summary = json.loads((edir / "summary.json").read_text())
        assert summary == {"error": err.strip().removeprefix("error: "), "pass": False}
        _, stdout, _ = run(["report", "--store", edir], capsys)
        assert f"- error: {summary['error']}" in stdout
        assert stdout.rstrip().endswith("**Overall: FAIL**")


# ---------------------------------------------------------------------------
# probe subcommands


class TestProbeRatesCli:
    def test_sweep_and_determinism(self, tmp_path, capsys):
        argv = ["probe", "rates", "--n", 4096, "--nmax", 5,
                "--times", "1e-4,2e-4,5e-4,1e-3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--outdir", a], capsys)[0] == 0
        assert run(argv + ["--outdir", b], capsys)[0] == 0

        table = (a / "tables" / "rates.csv").read_text().splitlines()
        assert table[0] == "j,t,dev_s,dev_s1,dev_s2,h_s2,block_j,tv0_block_j"
        assert len(table) == 1 + 4
        row = table[1].split(",")
        assert row[0] == "" and row[6] == "" and row[7] == ""

        summary = json.loads((a / "summary.json").read_text())
        assert summary["pass"] is True
        assert 0.8 <= summary["slope_dev_s1"] <= 1.2
        assert 1.7 <= summary["slope_h_s2"] <= 2.3

        # identical configuration, byte-identical results
        for name in ("tables/rates.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["config"] == mb["config"]
        assert ma["outputs"] == mb["outputs"]

    def test_failed_sweep_writes_summary_and_manifest(self, tmp_path, capsys):
        # the step budget fails the lane: the store holds the error and the
        # configuration, and no tables
        out = tmp_path / "rates"
        rc, _, err = run(["probe", "rates", "--n", 2048, "--nmax", 5,
                          "--times", "1e3,1e4,1e5,1e6", "--outdir", out], capsys)
        assert rc == 1
        assert err.startswith("error: reaching t=1e+06 from t=0")
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"error": err[len("error: "):].rstrip("\n"), "pass": False}
        assert json.loads((out / "manifest.json").read_text())["config"]["times"] == [
            1e3, 1e4, 1e5, 1e6]
        _, stdout, _ = run(["report", "--store", out], capsys)
        assert stdout.rstrip().endswith("**Overall: FAIL**")
        assert f"- error: {summary['error']}\n" in (out / "report.md").read_text()


class TestProbeInflationCli:
    def test_single_block_sweep(self, tmp_path, capsys):
        out = tmp_path / "inf"
        rc, stdout, _ = run(["probe", "inflation", "--n", 8192, "--nmax", 6,
                             "--jmin", 5, "--jmax", 5, "--eps0", "2.0",
                             "--outdir", out], capsys)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["min_dev"] == pytest.approx(3.8194573043636595,
                                                   rel=1e-9)
        assert summary["kappa"] == pytest.approx(1.0254355290936037, rel=1e-9)
        table = (out / "tables" / "inflation.csv").read_text().splitlines()
        assert len(table) == 2
        assert table[1].split(",")[0] == "5"
        assert "min_dev" in stdout

    def test_failed_sweep_keeps_partial_records(self, tmp_path, capsys,
                                                monkeypatch):
        rec = probe.InflationRecord(j=5, t=0.0625, dev_s=1.0, dev_s1=0.5,
                                    dev_s2=0.25, h_s2=0.1, block_j=0.9,
                                    tv0_block_j=0.95, h_block_j=0.05)

        def explode(*args, **kwargs):
            raise probe.InflationError("stage blew up", records=[rec])

        monkeypatch.setattr(probe, "inflation_sweep", explode)
        out = tmp_path / "inf"
        # block 5 lies in [5, n_max-1], so the range passes the CLI's check
        rc, _, err = run(["probe", "inflation", "--n", 4096, "--nmax", 6,
                          "--jmin", 5, "--jmax", 5, "--outdir", out], capsys)
        assert rc == 1
        assert "stage blew up" in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is False
        assert "stage blew up" in summary["error"]
        table = (out / "tables" / "inflation.csv").read_text().splitlines()
        assert len(table) == 2
        assert table[1].startswith("5,0.0625,1.0,")


class TestProbeJkCli:
    def test_default_geometry_passes(self, tmp_path, capsys):
        # the v0 profile is judged although besov_norm reports v0 as
        # under-resolved at this geometry (ROADMAP item 3); the warning is
        # asserted, from the pool's worker that computes the profile
        out = tmp_path / "jk"
        with pytest.warns(UserWarning, match="under-resolved"):
            rc, stdout, _ = run(["probe", "jk", "--outdir", out], capsys)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert 2.7 <= summary["slope_j1"] <= 3.3
        assert summary["v0_slope"] == pytest.approx(0.911097712156039,
                                                    rel=1e-9)
        assert summary["commutator_slope"] <= 0.3
        assert summary["k_zero"] is True
        assert summary["anchor_rel_error"] <= 1e-10
        for name in ("jk", "commutator", "v0_profile"):
            assert (out / "tables" / f"{name}.csv").is_file()
        assert "slope_j1" in stdout

    @pytest.mark.parametrize("d,n,nmax,jmin,jmax",
                             [(1, 2048, 5, 4, 5), (2, 1024, 4, 3, 4)], ids=["d1", "d2"])
    def test_api_and_cli_judge_the_same_numbers(self, d, n, nmax, jmin, jmax, probe_store):
        # besov_norm reports v0 as under-resolved at the d = 1 geometry; the
        # warning is asserted there.  The d = 2 store is the one that
        # TestReportCli's jk-d2 case reads
        with v0_warning(d):
            rc, out = probe_store(["jk", "--d", d, "--n", n, "--nmax", nmax,
                                   "--jmin", jmin, "--jmax", jmax])
        with v0_warning(d):
            sweep = probe.jk_sweep(build_data(d, 1, n, nmax), BesovParams(2.0, 2.0),
                                   range(jmin, jmax + 1))
        summary = json.loads((out / "summary.json").read_text())
        assert summary.pop("pass") is sweep.passed
        assert summary == sweep.summary
        assert rc == (0 if sweep.passed else 1)

    def test_d2_summary_judged_without_the_dimension(self, probe_store):
        # the summary says which case it is: k_slope only at d >= 2
        _, out = probe_store(["jk", "--d", 2, "--n", 1024, "--nmax", 4,
                              "--jmin", 3, "--jmax", 4])
        summary = json.loads((out / "summary.json").read_text())
        names = [c.name for c in probe.checks(summary)]
        assert "k_slope" in names
        assert "v0_slope" in summary and "v0_slope" not in names

    def test_narrow_window_rejected(self, tmp_path, capsys):
        rc, _, err = run(["probe", "jk", "--n", 2048, "--nmax", 5,
                          "--jmin", 5, "--jmax", 5,
                          "--outdir", tmp_path / "jk"], capsys)
        assert rc == 2
        assert "fewer than two" in err

    @UNDER_RESOLVED_V0
    def test_usage_error_leaves_no_store(self, tmp_path, capsys):
        # a window above n_max is rejected before any data is built, and
        # the corrected run can reuse the directory without --force
        out = tmp_path / "jk"
        rc, _, err = run(["probe", "jk", "--n", 2048, "--nmax", 5,
                          "--jmin", 8, "--jmax", 9, "--outdir", out], capsys)
        assert rc == 2
        assert "fewer than two" in err
        assert not out.exists() or not any(out.iterdir())
        rc, _, err = run(["probe", "jk", "--n", 2048, "--nmax", 5,
                          "--jmin", 4, "--jmax", 5, "--outdir", out], capsys)
        assert "not empty" not in err
        assert rc in (0, 1)
        assert (out / "summary.json").is_file()

    def test_partition_range_checked_before_the_store(self, tmp_path, capsys):
        # jmax above the grid's partition is rejected before any data is built
        out = tmp_path / "jk"
        rc, _, err = run(["probe", "jk", "--n", 2048, "--nmax", 5,
                          "--jmin", 4, "--jmax", 30, "--outdir", out], capsys)
        assert rc == 2
        assert "block range outside the partition" in err
        assert not out.exists()


NO_BLOCK_2 = "lemma suite needs blocks up to j=2; the partition stops at j_max="


class TestLemmasCli:
    def test_alias_prints_checks(self, capsys):
        rc, stdout, _ = run(["lemmas", "--n", 256], capsys)
        assert rc == 0
        lines = stdout.splitlines()
        assert lines[0] == "check,passed,detail"
        # N=256 resolves no cross-resolution commutator family
        assert len(lines) == 1 + 7
        assert all(",pass," in line for line in lines[1:])
        assert lines[1].startswith("partition_sum,")

    def test_store_written(self, tmp_path, capsys):
        out = tmp_path / "lem"
        rc, _, _ = run(["probe", "lemmas", "--n", 256, "--outdir", out],
                       capsys)
        assert rc == 0
        table = (out / "tables" / "lemmas.csv").read_text().splitlines()
        assert len(table) == 1 + 7
        assert json.loads((out / "summary.json").read_text())["pass"] is True

    def test_nonempty_store_refused_before_the_suite(self, tmp_path, capsys):
        out = tmp_path / "lem"
        out.mkdir()
        (out / "keep").write_text("keep")
        rc, stdout, err = run(["probe", "lemmas", "--n", 256, "--outdir", out], capsys)
        assert rc == 2
        assert stdout == ""
        assert "is not empty" in err
        assert sorted(p.name for p in out.iterdir()) == ["keep"]

    @pytest.mark.parametrize("argv,message", [
        (["--n", 128], f"{NO_BLOCK_2}1"),
        (["--d", 2, "--n", 64], f"{NO_BLOCK_2}0"),
        (["--d", 2, "--n", 128], f"{NO_BLOCK_2}1"),
        (["--m", 4, "--n", 256], f"{NO_BLOCK_2}0"),
        (["--n", 256, "--seed", -1], "seed must be non-negative, got -1"),
    ], ids=["n128", "d2-n64", "d2-n128", "m4-n256", "negative-seed"])
    def test_rejected_before_the_store(self, argv, message, tmp_path, capsys, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("lemma suite run before the arguments were checked")

        monkeypatch.setattr(probe, "lemma_suite", no_suite)
        out = tmp_path / "lem"
        rc, stdout, err = run(["probe", "lemmas", *argv, "--outdir", out], capsys)
        assert rc == 2
        assert f"error: {message}" in err
        assert stdout == ""
        assert not out.exists()


class TestManifests:
    def test_config_records_only_what_is_read(self, tmp_path, capsys):
        # --seed is accepted by every command, but only the lemma suite
        # draws from it
        rates, lemmas = tmp_path / "rates", tmp_path / "lem"
        assert run(["probe", "rates", "--n", 2048, "--nmax", 5, "--seed", 7,
                    "--times", "1e-4,2e-4,5e-4,1e-3", "--outdir", rates],
                   capsys)[0] == 0
        config = json.loads((rates / "manifest.json").read_text())["config"]
        assert "seed" not in config and "threads" not in config
        assert run(["probe", "lemmas", "--n", 256, "--seed", 7,
                    "--outdir", lemmas], capsys)[0] == 0
        config = json.loads((lemmas / "manifest.json").read_text())["config"]
        assert config["seed"] == 7 and "threads" not in config

    def test_create_makes_only_the_root(self, tmp_path):
        store = ResultStore.create(tmp_path / "s")
        assert store.root.is_dir() and not any(store.root.iterdir())


class TestUsageErrorsBeforeTheStore:
    @pytest.mark.parametrize("argv,message", [
        (["rates", "--p", 1], "s - 1 > d/p"),
        (["rates", "--times", "1e-3,2e-3,4e-3,8e-3"], "decade"),
        (["inflation"], r"[5, n_max-1] = [5, 4]"),
        (["inflation", "--jmin", 5, "--jmax", 4], "empty block range"),
        (["calibrate"], "[3, n_max] = [3, 5]"),
        (["calibrate", "--jmin", 4, "--jmax", 5, "--eps0", 0], "eps0 must be positive"),
        (["rates", "--times", "1e-4,1e-4,1e-3,1e-2"], "duplicate output times"),
        (["rates", "--times", "1e-4,nan,1e-3,1e-2"], "output times must be positive and finite"),
        (["calibrate", "--jmin", 4, "--jmax", 5, "--eps0", "nan"], "eps0 must be positive"),
        # later flags override the --n 2048 --nmax 5 the test puts first
        (["rates", "--cfl", 2], "cfl must lie in (0, 1]"),
        (["rates", "--nmax", 6], "n_max=6 outside [3, j_max=5]"),
        (["inflation", "--n", 4096, "--nmax", 6, "--jmin", 5, "--jmax", 5, "--cfl", 2],
         "cfl must lie in (0, 1]"),
        (["calibrate", "--jmin", 4, "--jmax", 5, "--cfl", 2], "cfl must lie in (0, 1]"),
        (["jk", "--nmax", 6, "--jmin", 4, "--jmax", 5], "n_max=6 outside [3, j_max=5]"),
        (["jk", "--s", "nan"], "s must be finite, got nan"),
        (["rates", "--s", "inf"], "s must be finite, got inf"),
        (["inflation", "--s=-inf"], "s must be finite, got -inf"),
        (["calibrate", "--s", "nan"], "s must be finite, got nan"),
    ], ids=["rates-p", "rates-times", "inflation-range", "inflation-empty",
            "calibrate-range", "calibrate-eps0", "rates-duplicate-times",
            "rates-nan-time", "calibrate-nan-eps0", "rates-cfl", "rates-nmax",
            "inflation-cfl", "calibrate-cfl", "jk-nmax", "jk-nan-s", "rates-inf-s",
            "inflation-minus-inf-s", "calibrate-nan-s"])
    def test_rejected_before_store_and_data(self, argv, message, tmp_path,
                                            capsys, monkeypatch):
        def no_data(args):
            raise AssertionError("initial data built before the arguments were checked")

        monkeypatch.setattr("hks.cli._build_data", no_data)
        out = tmp_path / "store"
        rc, _, err = run(["probe", *argv[:1], "--n", 2048, "--nmax", 5,
                          *argv[1:], "--outdir", out], capsys)
        assert rc == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,under", [
        (["construct", "--n", 2048, "--nmax", 5, "--outdir"], ""),
        (["probe", "rates", "--n", 2048, "--nmax", 5, "--outdir"], "sub"),
        (["report", "--store"], ""),
    ], ids=["construct-file", "rates-under-file", "report-file"])
    def test_directory_that_is_a_file(self, argv, under, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        target = afile / under if under else afile
        rc, _, err = run([*argv, target], capsys)
        assert rc == 2
        assert f"error: {target} is not a directory" in err
        assert afile.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_construct_checks_nmax_before_the_store(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc, _, err = run(["construct", "--n", 2048, "--nmax", 6, "--outdir", out], capsys)
        assert rc == 2
        assert "n_max=6 outside [3, j_max=5]" in err
        assert not out.exists()

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
    def test_construct_checks_s_before_the_store(self, s, tmp_path, capsys, monkeypatch):
        def no_data(args):
            raise AssertionError("initial data built before the arguments were checked")

        monkeypatch.setattr("hks.cli._build_data", no_data)
        out = tmp_path / "c"
        rc, _, err = run(["construct", "--n", 2048, "--nmax", 5, f"--s={s}",
                          "--outdir", out], capsys)
        assert rc == 2
        assert f"s must be finite, got {s}" in err
        assert not out.exists()

    def test_construct_checks_m_for_d_before_the_store(self, tmp_path, capsys,
                                                         monkeypatch):
        def no_data(args):
            raise AssertionError("initial data built before the arguments were checked")

        monkeypatch.setattr("hks.cli._build_data", no_data)
        out = tmp_path / "c"
        rc, _, err = run(["construct", "--d", 3, "--n", 512, "--nmax", 3,
                          "--outdir", out], capsys)
        assert rc == 2
        assert "raise M (need M >= 2)" in err
        assert not out.exists()


class TestCalibrateCli:
    def test_immediate_pass(self, tmp_path, capsys):
        out = tmp_path / "cal"
        rc, stdout, _ = run(["probe", "calibrate", "--n", 8192, "--nmax", 6,
                             "--jmin", 5, "--jmax", 5, "--outdir", out],
                            capsys)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["eps0"] == probe.DEFAULT_EPS0
        assert len(summary["attempts"]) == 1
        assert f"calibrated eps0 = {probe.DEFAULT_EPS0!r}" in stdout

    def test_failed_attempt_prints_its_reason(self, tmp_path, capsys, monkeypatch):
        # at eps0 = 1e9 and 5e8 the CFL lane is over its step budget
        monkeypatch.setattr(probe, "CALIBRATION_MAX_HALVINGS", 1)
        rc, stdout, _ = run(["probe", "calibrate", "--n", 2048, "--nmax", 5,
                             "--jmin", 4, "--jmax", 5, "--eps0", 1e9,
                             "--outdir", tmp_path / "cal"], capsys)
        assert rc == 1
        lines = stdout.splitlines()
        for eps0, line in zip((1e9, 5e8), lines):
            assert line.startswith(f"eps0 = {eps0!r}: fail (j4 blow-up: reaching t=")
            assert line.endswith(f"budget of {solver.MAX_LANE_STEPS} steps)")
        assert lines[2] == "calibrated eps0 = 500000000.0"

    def test_rejects_nonpositive_eps0(self, tmp_path, capsys):
        rc, _, err = run(["probe", "calibrate", "--n", 2048, "--nmax", 5,
                          "--eps0", -1, "--outdir", tmp_path / "cal"], capsys)
        assert rc == 2
        assert "eps0 must be positive" in err

    def test_rejects_blocks_without_packet(self, tmp_path, capsys):
        # the default range 5..8 reaches past the datum's top packet n_max = 5
        rc, _, err = run(["probe", "calibrate", "--n", 2048, "--nmax", 5,
                          "--outdir", tmp_path / "cal"], capsys)
        assert rc == 2
        assert "block range must lie in [3, n_max] = [3, 5]" in err


# ---------------------------------------------------------------------------
# report


class TestReportCli:
    def test_report_on_rates_store(self, tmp_path, capsys):
        out = tmp_path / "rates"
        run(["probe", "rates", "--n", 4096, "--nmax", 5,
             "--times", "1e-4,2e-4,5e-4,1e-3", "--outdir", out], capsys)
        rc, stdout, _ = run(["report", "--store", out], capsys)
        assert rc == 0
        text = (out / "report.md").read_text()
        assert stdout.strip() == text.strip()
        assert text.startswith("# Run report")
        assert "## Table: rates" in text
        assert "- slope_dev_s1 = " in text
        assert "band [0.8, 1.2]: PASS" in text
        assert "**Overall: PASS**" in text

    @staticmethod
    def _jk_store_2d(root, **summary):
        store = ResultStore.create(root)
        store.write_summary({"slope_j1": 3.04, "v0_slope": 2.98,
                             "commutator_slope": 0.1,
                             "anchor_rel_error": 1.4e-15, "c0": 0.32,
                             "delta": 0.037, "k_slope": -0.15, "pass": True,
                             **summary})
        store.write_manifest(["probe", "jk", "--d", "2"], {"d": 2})

    def test_report_judges_d2_jk_store_on_k_slope(self, tmp_path, capsys):
        out = tmp_path / "jk2"
        self._jk_store_2d(out)
        rc, stdout, _ = run(["report", "--store", out], capsys)
        assert rc == 0
        assert "- k_slope = -0.15, band [-inf, 0.3]: PASS" in stdout
        assert "v0_slope = 2.98" not in stdout
        assert stdout.rstrip().endswith("**Overall: PASS**")

    def test_report_judges_d2_jk_store_without_its_manifest(self, tmp_path, capsys):
        out = tmp_path / "jk2"
        self._jk_store_2d(out)
        (out / "manifest.json").unlink()
        rc, stdout, _ = run(["report", "--store", out], capsys)
        assert rc == 0
        assert "- k_slope = -0.15, band [-inf, 0.3]: PASS" in stdout
        assert "v0_slope = 2.98" not in stdout
        assert stdout.rstrip().endswith("**Overall: PASS**")

    def test_report_fails_d2_k_slope_out_of_band(self, tmp_path, capsys):
        out = tmp_path / "jk2"
        self._jk_store_2d(out, k_slope=0.5)
        rc, stdout, _ = run(["report", "--store", out], capsys)
        assert rc == 0
        assert "- k_slope = 0.5, band [-inf, 0.3]: FAIL" in stdout
        assert "**Overall: FAIL**" in stdout

    @UNDER_RESOLVED_V0
    @pytest.mark.parametrize("argv", [
        ["rates", "--n", 4096, "--nmax", 5, "--times", "1e-4,2e-4,5e-4,1e-3"],
        ["inflation", "--n", 8192, "--nmax", 6, "--jmin", 5, "--jmax", 5,
         "--eps0", "2.0"],
        ["jk"],
        ["jk", "--n", 8192, "--nmax", 6, "--jmin", 4, "--jmax", 6],
        ["jk", "--d", 2, "--n", 1024, "--nmax", 4, "--jmin", 3, "--jmax", 4],
    ], ids=["rates", "inflation", "jk", "jk-fail", "jk-d2"])
    def test_exit_code_agrees_with_report(self, argv, probe_store, capsys):
        # the jk-d2 store is the one TestProbeJkCli's d2 case judges
        rc, out = probe_store(argv)
        assert rc in (0, 1)
        _, stdout, _ = run(["report", "--store", out], capsys)
        overall = "PASS" if rc == 0 else "FAIL"
        assert stdout.rstrip().endswith(f"**Overall: {overall}**")

    def test_report_judges_construct_and_evolve_stores(self, tmp_path, capsys):
        cdir, edir = tmp_path / "c", tmp_path / "e"
        run(["construct", "--n", 2048, "--nmax", 5, "--outdir", cdir], capsys)
        run(["evolve", "--in", cdir / "fields" / "u0.ksf", "--t", "1e-3",
             "--dt", "5e-4", "--outdir", edir], capsys)
        for store, fields in ((cdir, ("S0", "u0", "v0")), (edir, ("u_000", "u_001"))):
            rc, stdout, _ = run(["report", "--store", store], capsys)
            assert rc == 0
            assert "_no results" not in stdout
            assert "## Missing" not in stdout
            assert "\n".join(f"- fields/{name}.ksf" for name in fields) in stdout
            assert stdout.rstrip().endswith("**Overall: PASS**")
        assert "## Table: diagnostics" in (edir / "report.md").read_text()

    def test_report_empty_store(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        rc, stdout, _ = run(["report", "--store", out], capsys)
        assert rc == 0
        assert "_no results: manifest.json missing_" in stdout
        assert "_no results: no tables present_" in stdout
        assert "## Missing" in stdout
        assert "**Overall" not in stdout

    def test_report_missing_dir(self, tmp_path, capsys):
        rc, _, err = run(["report", "--store", tmp_path / "nope"], capsys)
        assert rc == 2
        assert "file not found" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hks.cli", "lemmas", "--n", "256"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("check,passed,detail")

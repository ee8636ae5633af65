"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bacdetect import __version__, cli, permutation, surface_io
from bacdetect.cli import (
    EXIT_DETECTED,
    EXIT_ERROR,
    EXIT_MARGINAL,
    EXIT_NONE,
    build_parser,
    main,
)
from bacdetect.surface_io import HeightMatrix, StageRecord, SurfaceDataError, load_report
from conftest import rough_stage, sphere_cap, write_stage_dir


def _improved_pair(tmp_path, rng):
    """Two stage directories where the later stage is clearly smoother."""
    prev = rough_stage(rng, "stage1", n_loc=7, scale=1.0)
    curr = rough_stage(rng, "stage2", n_loc=7, scale=0.2)
    return (write_stage_dir(tmp_path, "stage1", prev),
            write_stage_dir(tmp_path, "stage2", curr))


DECIDE_FLAGS = ["--no-calibrate", "--grid-size", "120", "--permutations", "400",
                "--seed", "5"]


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_pyproject_version_is_package_version(self):
        # a regex, not tomllib, which Python 3.10 lacks
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == __version__

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_usage_error_exits_two_before_work(self, tmp_path, capsys):
        # argparse rejects the value before any stage is read
        with pytest.raises(SystemExit) as exc:
            main(["decide", str(tmp_path / "gone"), str(tmp_path / "gone2"),
                  "--seed", "foo"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_flat_option_removed(self, tmp_path, capsys):
        # one form fit covers spheres and planes; the old switch is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["decide", str(tmp_path / "a"), str(tmp_path / "b"), "--flat"])
        assert exc.value.code == 2
        assert "--flat" in capsys.readouterr().err

    def test_exhaustive_option_removed(self, tmp_path, capsys):
        # decide enumerates on its own wherever every labeling fits --permutations
        with pytest.raises(SystemExit) as exc:
            main(["decide", str(tmp_path / "a"), str(tmp_path / "b"), "--exhaustive"])
        assert exc.value.code == 2
        assert "--exhaustive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["decide", "p", "c", "--tau", "0.7"],
        ["decide", "p", "c", "--alpha", "5"],
        ["decide", "p", "c", "--grid-size", "1"],
        ["bac", "p", "--tau", "0.7"],
        ["bac", "p", "--grid-size", "1"],
    ])
    def test_settings_checked_before_any_stage_is_read(self, monkeypatch, capsys, argv):
        calls = []
        monkeypatch.setattr(cli, "open_stage", calls.append)
        assert main(argv) == EXIT_ERROR
        assert calls == []
        assert capsys.readouterr().out == ""

    # decide's missing directory is tested in TestDecide
    @pytest.mark.parametrize("argv, name, reason", [
        (["sa", "s"], "missing/x.txt", "no directory"),
        (["bac", "s"], "missing/x.txt", "no directory"),
        (["sa", "s"], ".", "it is a directory"),
        (["bac", "s"], ".", "it is a directory"),
        (["decide", "p", "c"], ".", "it is a directory"),
    ])
    def test_unwritable_output_rejected_before_any_stage_is_read(
            self, tmp_path, monkeypatch, capsys, argv, name, reason):
        calls = []
        monkeypatch.setattr(cli, "open_stage", calls.append)
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == EXIT_ERROR
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write" in captured.err and reason in captured.err

    def test_random_seed_accepted(self):
        args = build_parser().parse_args(["simulate", "--seed", "random"])
        assert isinstance(args.seed, int)

    def test_commands_run_without_scipy(self, tmp_path, rng, capsys):
        # the runtime needs numpy alone: with scipy made unimportable, decide,
        # bac and simulate exit and print exactly as they do in this process,
        # and no scipy module is loaded, lazily or otherwise
        prev, curr = _improved_pair(tmp_path, rng)
        runs = [["decide", str(prev), str(curr), *DECIDE_FLAGS, "--out", str(tmp_path / "r.json")],
                ["bac", str(prev), "--no-calibrate", "--grid-size", "40"],
                ["simulate", *TestSimulate.SIM_FLAGS]]
        expected = []
        for argv in runs:
            code = main(argv)
            expected.append([code, capsys.readouterr().out])
        assert expected[0][0] == EXIT_DETECTED
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        script = (
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from bacdetect import cli\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        out.append([cli.main(argv), buf.getvalue()])\n"
            "loaded = [m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod]\n"
            "print(json.dumps([out, loaded]))\n")
        res = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        out, loaded = json.loads(res.stdout)
        assert out == expected
        assert loaded == []


class TestSa:
    def test_table_output(self, tmp_path, rng, capsys):
        d = write_stage_dir(tmp_path, "s1", rough_stage(rng, "s1", n_loc=3))
        assert main(["sa", str(d), "--no-calibrate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "location\tsa_um"
        assert len(lines) == 5  # header + 3 locations + median
        assert lines[-1].startswith("median\t")

    def test_output_file(self, tmp_path, rng):
        d = write_stage_dir(tmp_path, "s1", rough_stage(rng, "s1", n_loc=3))
        out = tmp_path / "sa.tsv"
        assert main(["sa", str(d), "--no-calibrate", "--out", str(out)]) == 0
        assert out.read_text().startswith("location")


class TestBac:
    def test_row_count_matches_grid(self, tmp_path, rng, capsys):
        d = write_stage_dir(tmp_path, "s1", rough_stage(rng, "s1"))
        assert main(["bac", str(d), "--no-calibrate", "--grid-size", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 65  # header + m rows

    def test_constant_curves_collapse_bands(self, tmp_path, capsys):
        locs = [HeightMatrix(z=np.full((6, 6), 2.0), location_id=f"l{i}")
                for i in range(4)]
        rec = StageRecord(stage_id="s", locations=locs)
        d = write_stage_dir(tmp_path, "s", rec)
        assert main(["bac", str(d), "--no-calibrate", "--grid-size", "16"]) == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            _, mean, var, lo, hi = line.split("\t")
            assert float(var) == 0.0
            assert float(lo) == float(mean) == float(hi) == 2.0

    def test_band_half_width_formula(self, tmp_path, rng, capsys):
        from scipy.stats import t as t_dist

        rec = rough_stage(rng, "s1", n_loc=9)
        d = write_stage_dir(tmp_path, "s1", rec)
        assert main(["bac", str(d), "--no-calibrate", "--grid-size", "32",
                     "--confidence", "0.967"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[5]
        _, mean, var, lo, hi = map(float, line.split("\t"))
        half = t_dist.ppf(0.5 + 0.967 / 2, 8) * np.sqrt(var / 9)
        # columns carry 6 significant digits, so compare at print precision
        assert hi - mean == pytest.approx(half, abs=5e-4)
        assert mean - lo == pytest.approx(half, abs=5e-4)


    def test_confidence_outside_unit_interval_rejected(self, tmp_path, rng, capsys):
        d = write_stage_dir(tmp_path, "s1", rough_stage(rng, "s1"))
        for level in ("1.5", "0", "1", "-0.2"):
            assert main(["bac", str(d), "--no-calibrate", "--grid-size", "16",
                         "--confidence", level]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "confidence" in captured.err


class TestDecide:
    def test_improvement_detected_exit_zero(self, tmp_path, rng):
        prev, curr = _improved_pair(tmp_path, rng)
        out = tmp_path / "report.json"
        code = main(["decide", str(prev), str(curr), *DECIDE_FLAGS,
                     "--out", str(out)])
        assert code == EXIT_DETECTED
        payload = json.loads(out.read_text())
        assert payload["overall"] == "improvement_detected"
        assert payload["recommendation"] == "continue"

    def test_one_row_scan_named_in_calibration_error(self, tmp_path, rng, capsys):
        # the plane through a one-row scan is vertical and gives its pixels no
        # height; the error names the scan instead of failing at the BAC
        prev = rough_stage(rng, "s1", n_loc=3, rows=20)
        curr = rough_stage(rng, "s2", n_loc=3, rows=20)
        prev.locations[1] = HeightMatrix(z=rng.standard_normal((1, 30)), location_id="loc01")
        dirs = [str(write_stage_dir(tmp_path, r.stage_id, r)) for r in (prev, curr)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["decide", *dirs, "--permutations", "50"])
        assert code == EXIT_ERROR
        assert "loc01: the fitted surface has no height" in capsys.readouterr().err
        assert caught == []

    def test_null_pair_exit_none(self, tmp_path, rng):
        prev = write_stage_dir(tmp_path, "s1", rough_stage(rng, "s1", n_loc=7))
        curr = write_stage_dir(tmp_path, "s2", rough_stage(rng, "s2", n_loc=7))
        out = tmp_path / "report.json"
        code = main(["decide", str(prev), str(curr), *DECIDE_FLAGS,
                     "--out", str(out)])
        assert code == EXIT_NONE

    def test_self_comparison_never_significant(self, tmp_path, rng):
        # feeding one directory twice duplicates every curve; the 2^J
        # perfectly paired relabelings tie with the observed statistic, so
        # the corrected p can reach at most the marginal band, never the
        # significant one, and the p equals that tie mass.  The default
        # 50,000 permutations cover all C(14, 7) = 3,432 labelings, so the
        # decide enumerates them
        d = write_stage_dir(tmp_path, "s1", rough_stage(rng, "s1", n_loc=7))
        out = tmp_path / "report.json"
        code = main(["decide", str(d), str(d), "--no-calibrate", "--grid-size",
                     "120", "--out", str(out)])
        assert code != EXIT_DETECTED
        payload = json.loads(out.read_text())
        assert payload["provenance"]["exhaustive"] is True
        tie_mass = 2**7 / 3432  # C(14, 7) relabelings, 2^7 perfect pairings
        assert payload["families"]["upper_tail"]["corrected_p"] >= tie_mass - 1e-6

    def _decide_3_3(self, tmp_path, rng, permutations):
        """A decide on 3 + 3 locations, whose C(6, 3) = 20 labelings it may enumerate."""
        dirs = [str(write_stage_dir(tmp_path, s, rough_stage(rng, s, n_loc=3)))
                for s in ("s1", "s2")]
        out = tmp_path / "report.json"
        code = main(["decide", *dirs, "--no-calibrate", "--grid-size", "40",
                     "--permutations", str(permutations), "--out", str(out)])
        assert code in (EXIT_DETECTED, EXIT_MARGINAL, EXIT_NONE)
        return json.loads(out.read_text())

    # 20 enumerates all C(6, 3) labelings; 19 samples and writes no key
    @pytest.mark.parametrize("permutations, exhaustive", [(20, True), (19, False)])
    def test_enumerates_exactly_when_every_labeling_fits_the_budget(
            self, tmp_path, rng, permutations, exhaustive):
        payload = self._decide_3_3(tmp_path, rng, permutations)
        used = [f["n_permutations_used"] for f in payload["families"].values()]
        assert used == [permutations] * 3
        assert payload["provenance"].get("exhaustive", False) is exhaustive

    def test_enumeration_within_the_budget_passes_the_engine_cap(
            self, tmp_path, rng, monkeypatch):
        # the engine refuses to enumerate past its cap only where sampling
        # would draw fewer relabelings
        monkeypatch.setattr(permutation, "_MAX_EXHAUSTIVE", 10)
        payload = self._decide_3_3(tmp_path, rng, 20)
        assert [f["n_permutations_used"] for f in payload["families"].values()] == [20] * 3

    def test_negative_seed_rejected_before_reading_a_stage(self, tmp_path, capsys):
        code = main(["decide", str(tmp_path / "gone"), str(tmp_path / "gone2"),
                     "--seed", "-1", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "seed must be an integer" in err and "gone" not in err
        assert not (tmp_path / "r.json").exists()

    def test_missing_report_directory_rejected_before_any_stage_is_read(
            self, tmp_path, monkeypatch, capsys):
        def unread(path):
            raise AssertionError(f"stage {path} was read")
        monkeypatch.setattr(cli, "open_stage", unread)
        out = tmp_path / "missing_dir" / "r.json"
        code = main(["decide", "p", "c", "--out", str(out)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write report to {out}" in captured.err
        assert not out.parent.exists()

    @pytest.mark.parametrize("broken", ["prev", "curr"])
    @pytest.mark.parametrize("fault", ["missing last file", "one location"])
    def test_stage_checks_run_before_any_scan_is_parsed(
            self, tmp_path, rng, monkeypatch, capsys, broken, fault):
        dirs = dict(zip(("prev", "curr"), _improved_pair(tmp_path, rng)))
        d = dirs[broken]
        names = sorted(f.name for f in d.iterdir())
        if fault == "one location":
            for name in names[1:]:
                (d / name).unlink()
            names = names[:1]
            named = f"stage {d.name!r} has 1"
        else:
            names.append("loc99.csv")
            named = str(d / "loc99.csv")
        (d / "manifest.json").write_text(json.dumps({"files": names}))
        parsed = []
        read = surface_io._read_matrix_file
        monkeypatch.setattr(surface_io, "_read_matrix_file",
                            lambda path: parsed.append(path) or read(path))
        code = main(["decide", str(dirs["prev"]), str(dirs["curr"]), *DECIDE_FLAGS,
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_ERROR
        assert named in capsys.readouterr().err
        assert parsed == []

    def test_missing_directory_errors(self, tmp_path):
        code = main(["decide", str(tmp_path / "gone"), str(tmp_path / "gone2"),
                     "--no-calibrate", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_ERROR
        assert code > 100

    def test_report_subcommand_round_trip(self, tmp_path, rng, capsys):
        prev, curr = _improved_pair(tmp_path, rng)
        out = tmp_path / "report.json"
        main(["decide", str(prev), str(curr), *DECIDE_FLAGS, "--out", str(out)])
        first = capsys.readouterr().out
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out.strip() in first

    def test_report_of_0_2_2_pooled_decide_is_printed(self, tmp_path, rng, capsys):
        # reports from 0.2.2 on may carry the t test they used
        prev, curr = _improved_pair(tmp_path, rng)
        out = tmp_path / "report.json"
        main(["decide", str(prev), str(curr), *DECIDE_FLAGS, "--out", str(out)])
        payload = json.loads(out.read_text())
        payload["provenance"]["t_test"] = "pooled"
        payload["tool"]["version"] = "0.2.2"
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "recommendation:" in capsys.readouterr().out
        assert load_report(out).provenance["t_test"] == "pooled"

    # a str is the file's raw text; anything else is written as JSON
    @pytest.mark.parametrize("payload", [{"schema": "x"}, [1, 2], "", "{not json"])
    def test_report_of_wrong_shape_exits_error(self, tmp_path, capsys, payload):
        path = tmp_path / "odd.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert main(["report", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path} is not a bacdetect report" in captured.err

    # a str is the manifest's raw text; anything else is written as JSON
    @pytest.mark.parametrize("manifest", [["a.csv"], {"files": "a.csv"}, "", "{not json"])
    def test_manifest_of_wrong_shape_exits_error(self, tmp_path, rng, capsys, manifest):
        prev, curr = _improved_pair(tmp_path, rng)
        (curr / "manifest.json").write_text(
            manifest if isinstance(manifest, str) else json.dumps(manifest))
        code = main(["decide", str(prev), str(curr), *DECIDE_FLAGS,
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(curr / "manifest.json") in captured.err


class TestCalibrate:
    def test_writes_calibrated_matrices(self, tmp_path, rng):
        locs = []
        for i in range(3):
            cap = sphere_cap(30, 40, 0.359, 0.369, (7.0, 5.5, 80.0), 1688.0,
                             texture=0.02 * rng.standard_normal((30, 40)))
            cap.location_id = f"loc{i}"
            locs.append(cap)
        rec = StageRecord(stage_id="s", locations=locs)
        d = write_stage_dir(tmp_path, "raw", rec)
        out = tmp_path / "cal"
        assert main(["calibrate", str(d), "--out", str(out)]) == 0
        files = sorted(out.glob("*.csv"))
        assert len(files) == 3
        z = np.loadtxt(files[0], delimiter=",")
        assert abs(z.mean()) < 0.02

    def test_two_scans_of_one_location_write_nothing(self, tmp_path, rng, capsys):
        d = tmp_path / "raw"
        d.mkdir()
        for name in ("loc1.csv", "loc1.txt", "loc2.csv"):
            cap = sphere_cap(30, 40, 0.359, 0.369, (7.0, 5.5, 80.0), 1688.0,
                             texture=0.02 * rng.standard_normal((30, 40)))
            np.savetxt(d / name, cap.z, delimiter=",")
        out = tmp_path / "cal"
        assert main(["calibrate", str(d), "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "loc1.csv" in captured.err and "loc1.txt" in captured.err
        assert not out.exists()

    def test_out_under_a_file_rejected_before_any_stage_is_read(
            self, tmp_path, monkeypatch, capsys):
        def unread(path):
            raise AssertionError(f"stage {path} was read")
        monkeypatch.setattr(cli, "load_stage", unread)
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub"
        assert main(["calibrate", "s1", "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Not a directory" in captured.err and str(out) in captured.err

    def test_directories_made_for_out_removed_when_the_stage_fails(
            self, tmp_path, monkeypatch, capsys):
        def unreadable(path):
            raise SurfaceDataError(f"stage {path} is unreadable")
        monkeypatch.setattr(cli, "load_stage", unreadable)
        out = tmp_path / "new" / "sub"
        assert main(["calibrate", "s1", "--out", str(out)]) == EXIT_ERROR
        assert "stage s1 is unreadable" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


class TestSimulate:
    SIM_FLAGS = ["--runs", "2", "--input-points", "30", "--permutations", "100",
                 "--seed", "7", "--n", "4"]

    def test_deterministic_output(self, tmp_path, capsys):
        assert main(["simulate", *self.SIM_FLAGS]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", *self.SIM_FLAGS]) == 0
        assert capsys.readouterr().out == first

    def test_single_run_rates_binary(self, capsys):
        assert main(["simulate", "--runs", "1", "--input-points", "30",
                     "--permutations", "100", "--n", "4"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split()
        assert float(row[2]) in (0.0, 1.0)
        assert float(row[3]) in (0.0, 1.0)

    def test_json_output(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", *self.SIM_FLAGS, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "bacdetect-simulation-v1"
        assert payload["rows"][0]["n_curves"] == 4

    def test_invalid_value_prints_nothing(self, capsys):
        for flags, word in ((["--tau", "0.6"], "tau"), (["--seed", "-5"], "seed"),
                            (["--input-points", "1"], "input points"),
                            (["--sigma-eps", "nan"], "sigma_eps")):
            assert main(["simulate", *flags, "--runs", "1"]) == EXIT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert word in captured.err

    def test_failed_run_prints_no_header(self, capsys):
        # the two input points pass the settings check, then fail in the run
        assert main(["simulate", "--runs", "1", "--input-points", "2",
                     "--permutations", "50"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_runs_missing_a_tail_are_skipped(self, tmp_path, capsys):
        # with 12 points a run misses a tau = 0.25 tail with probability ~6%
        out = tmp_path / "sim.json"
        assert main(["simulate", "--runs", "50", "--input-points", "12",
                     "--permutations", "50", "--n", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"][0]["runs"] < 50
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(), row.split()))["runs"] == "48"

    def test_missing_output_directory_fails_before_any_run(
            self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "estimate_type2", calls.append)
        out = tmp_path / "missing" / "x.json"
        assert main(["simulate", *self.SIM_FLAGS, "--out", str(out)]) == EXIT_ERROR
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write results to {out}" in captured.err

    def test_invalid_later_row_fails_before_any_run(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "estimate_type2", calls.append)
        assert main(["simulate", "--n", "9", "1", "--runs", "1"]) == EXIT_ERROR
        assert calls == []
        assert capsys.readouterr().out == ""

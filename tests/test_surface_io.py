"""Stage ingestion, cleaning policy, and report persistence."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bacdetect import surface_io
from bacdetect.decision import DecisionConfig, decide
from bacdetect.permutation import PermutationConfig
from bacdetect.roughness import build_stage_sample, default_grid
from bacdetect.surface_io import (
    DEFAULT_DX_UM,
    DEFAULT_DY_UM,
    HeightMatrix,
    StageRecord,
    SurfaceDataError,
    _is_whitespace,
    _read_matrix_file,
    load_report,
    load_stage,
    save_report,
)
from conftest import rough_stage, write_stage_dir


class TestHeightMatrix:
    def test_defaults_and_geometry(self):
        m = HeightMatrix(z=np.zeros((2, 3)))
        assert (m.dx, m.dy) == (DEFAULT_DX_UM, DEFAULT_DY_UM)
        xx, yy = m.coordinates()
        assert xx.shape == (2, 3)
        assert xx[0, 1] == pytest.approx(DEFAULT_DX_UM)
        assert yy[1, 0] == pytest.approx(DEFAULT_DY_UM)
        assert m.point_cloud().shape == (6, 3)

    def test_point_cloud_matches_coordinate_grids(self, rng):
        z = rng.standard_normal((5, 7))
        z[0, 0] = z[3, 4] = np.nan
        m = HeightMatrix(z=z, dx=0.3, dy=0.7)
        xx, yy = m.coordinates()
        mask = m.finite_mask()
        expected = np.column_stack([xx[mask], yy[mask], z[mask]])
        cloud = m.point_cloud()
        assert cloud.shape == (33, 3)
        assert cloud.tobytes() == expected.tobytes()
        assert cloud.T.flags.c_contiguous

    def test_invalid_shapes(self):
        with pytest.raises(SurfaceDataError):
            HeightMatrix(z=np.zeros(5))
        with pytest.raises(SurfaceDataError):
            HeightMatrix(z=np.zeros((2, 2)), dx=0.0)

    @pytest.mark.parametrize("dx, dy", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                        (1.0, -np.inf)])
    def test_non_finite_pitch(self, dx, dy):
        with pytest.raises(SurfaceDataError, match="finite and positive"):
            HeightMatrix(z=np.zeros((2, 2)), dx=dx, dy=dy)


class TestLoadStage:
    def test_single_location_rejected(self, tmp_path):
        d = tmp_path / "stage"
        d.mkdir()
        np.savetxt(d / "only.csv", np.ones((4, 4)), delimiter=",")
        with pytest.raises(SurfaceDataError, match="insufficient locations"):
            load_stage(d)

    def test_nan_cells_kept_and_counted(self, tmp_path, rng):
        z = rng.standard_normal((480, 640))
        z[7, 11] = z[100, 2] = z[0, 0] = z[250, 639] = z[479, 400] = np.nan
        d = tmp_path / "stage"
        d.mkdir()
        np.savetxt(d / "a.csv", z, delimiter=",")
        np.savetxt(d / "b.csv", rng.standard_normal((480, 640)), delimiter=",")
        rec = load_stage(d)
        a = rec.locations[0]
        assert a.location_id == "a"
        assert a.finite_heights().size == 307_195
        assert a.dropped_count == 5

    def test_excessive_nans_rejected(self, tmp_path, rng):
        z = rng.standard_normal((20, 20))
        z[:5, :] = np.nan  # 25% missing
        d = tmp_path / "stage"
        d.mkdir()
        np.savetxt(d / "a.csv", z, delimiter=",")
        np.savetxt(d / "b.csv", rng.standard_normal((20, 20)), delimiter=",")
        with pytest.raises(SurfaceDataError, match="corrupt"):
            load_stage(d)

    def test_locations_sorted_by_stem(self, tmp_path, rng):
        d = tmp_path / "stage"
        d.mkdir()
        for name in ("zz.csv", "aa.csv", "mm.csv", "bb.csv"):
            np.savetxt(d / name, rng.standard_normal((4, 4)), delimiter=",")
        rec = load_stage(d)
        assert [m.location_id for m in rec.locations] == ["aa", "bb", "mm", "zz"]

    def test_two_files_of_one_stem_rejected(self, tmp_path, rng):
        d = tmp_path / "stage"
        d.mkdir()
        for name in ("loc1.csv", "loc1.txt", "loc2.csv"):
            np.savetxt(d / name, rng.standard_normal((4, 4)), delimiter=",")
        with pytest.raises(SurfaceDataError, match="location 'loc1'") as err:
            load_stage(d)
        assert str(d / "loc1.csv") in str(err.value)
        assert str(d / "loc1.txt") in str(err.value)

    def test_manifest_file_listed_twice_rejected(self, tmp_path, rng):
        d = tmp_path / "stage"
        d.mkdir()
        for name in ("a.csv", "b.csv"):
            np.savetxt(d / name, rng.standard_normal((4, 4)), delimiter=",")
        (d / "manifest.json").write_text(json.dumps(
            {"stage_label": "x", "files": ["a.csv", "b.csv", "a.csv"]}))
        with pytest.raises(SurfaceDataError, match="location 'a'"):
            load_stage(d)

    def test_manifest_overrides_pitch(self, tmp_path, rng):
        d = tmp_path / "stage"
        d.mkdir()
        for name in ("a.csv", "b.csv"):
            np.savetxt(d / name, rng.standard_normal((4, 4)), delimiter=",")
        (d / "manifest.json").write_text(json.dumps(
            {"stage_label": "tool3", "files": ["a.csv", "b.csv"],
             "dx_um": 0.5, "dy_um": 0.25}))
        rec = load_stage(d)
        assert rec.stage_id == "tool3"
        assert all(m.dx == 0.5 and m.dy == 0.25 for m in rec.locations)

    def test_manifest_missing_file(self, tmp_path):
        d = tmp_path / "stage"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps(
            {"stage_label": "x", "files": ["gone.csv", "also_gone.csv"]}))
        with pytest.raises(SurfaceDataError, match="missing file"):
            load_stage(d)

    def test_whitespace_delimited(self, tmp_path, rng):
        d = tmp_path / "stage"
        d.mkdir()
        for name in ("a.txt", "b.txt"):
            np.savetxt(d / name, rng.standard_normal((4, 4)))
        rec = load_stage(d)
        assert rec.locations[0].z.shape == (4, 4)

    def test_commented_csv_header(self, tmp_path, rng):
        d = tmp_path / "stage"
        d.mkdir()
        for name in ("a.csv", "b.csv"):
            np.savetxt(d / name, rng.standard_normal((20, 30)), delimiter=",",
                       header="exported by profilometer")
        rec = load_stage(d)
        assert all(m.z.shape == (20, 30) for m in rec.locations)
        assert all(m.dropped_count == 0 for m in rec.locations)

    @pytest.mark.parametrize("cell", ["", "abc"])
    def test_malformed_cell_is_one_dropped_pixel(self, tmp_path, rng, cell):
        z = rng.standard_normal((20, 30))
        d = tmp_path / "stage"
        d.mkdir()
        np.savetxt(d / "a.csv", z, delimiter=",")
        np.savetxt(d / "b.csv", rng.standard_normal((20, 30)), delimiter=",")
        lines = (d / "a.csv").read_text().splitlines()
        row = lines[4].split(",")
        row[6] = cell
        lines[4] = ",".join(row)
        (d / "a.csv").write_text("\n".join(lines) + "\n")
        a = load_stage(d).locations[0]
        assert a.z.shape == (20, 30)
        assert a.dropped_count == 1
        assert np.isnan(a.z[4, 6])
        expected = z.copy()
        expected[4, 6] = np.nan
        assert np.array_equal(a.z, expected, equal_nan=True)

    def test_well_formed_files_skip_genfromtxt(self, tmp_path, rng,
                                                monkeypatch):
        z = rng.standard_normal((20, 30))
        z[2, 3] = np.nan
        d = tmp_path / "stage"
        d.mkdir()
        np.savetxt(d / "a.csv", z, delimiter=",")
        np.savetxt(d / "b.txt", rng.standard_normal((20, 30)))

        def refuse(*args, **kwargs):
            raise AssertionError("genfromtxt called on a well-formed file")

        monkeypatch.setattr(surface_io.np, "genfromtxt", refuse)
        a, b = load_stage(d).locations
        assert np.array_equal(a.z, z, equal_nan=True)
        assert a.dropped_count == 1
        assert b.z.shape == (20, 30)

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises(SurfaceDataError):
            load_stage(tmp_path / "nope")

    @pytest.mark.parametrize("manifest, message", [
        (["a.csv", "b.csv"], "is not a JSON object"),
        ({"files": "a.csv"}, "'files' must be a list of file names"),
        ({"files": ["a.csv", 2]}, "'files' must be a list of file names"),
        ({"files": ["a.csv", "b.csv"], "dx_um": None}, "pixel pitch must be a number"),
        ({"files": ["a.csv", "b.csv"], "dy_um": "abc"}, "pixel pitch must be a number"),
        ({"files": ["a.csv", "b.csv"], "stage_label": ["x", 1]},
         "'stage_label' must be a string"),
        ({"files": ["a.csv", "b.csv"], "dx_um": -1}, "'dx_um' pixel pitch must be a number"),
        ({"files": ["a.csv", "b.csv"], "dy_um": 0}, "'dy_um' pixel pitch must be a number"),
        ({"files": ["a.csv", "b.csv"], "dx_um": float("nan")},
         "'dx_um' pixel pitch must be a number"),
        ({"files": ["a.csv", "b.csv"], "dy_um": float("inf")},
         "'dy_um' pixel pitch must be a number"),
        ({"files": ["a.csv", "b.csv"], "dx_um": True}, "'dx_um' pixel pitch must be a number"),
        ({"files": ["a.csv", "b.csv"], "dy_um": "0.5"}, "'dy_um' pixel pitch must be a number"),
    ])
    def test_manifest_of_wrong_shape(self, tmp_path, rng, manifest, message):
        d = tmp_path / "stage"
        d.mkdir()
        for name in ("a.csv", "b.csv"):
            np.savetxt(d / name, rng.standard_normal((4, 4)), delimiter=",")
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SurfaceDataError, match=message) as err:
            load_stage(d)
        assert str(d / "manifest.json") in str(err.value)


# tokens a profilometer export or a hand edit can leave in a cell
_TOKENS = ["1", "-2.5", "nan", "inf", "1e400", "", "abc", "1_0", "0x10",
           '"1"', "#c", "\u0661"]


@st.composite
def _matrix_texts(draw):
    delimiter = draw(st.sampled_from([",", ", ", " ", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    n_cols = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.one_of(st.just(n_cols), st.integers(1, 5)))
        cells = draw(st.lists(st.sampled_from(_TOKENS),
                              min_size=width, max_size=width))
        trailing = draw(st.sampled_from(["", "", "", delimiter]))
        rows.append(delimiter.join(cells) + trailing)
    header = draw(st.sampled_from([None, None, "# header", "# a, b"]))
    if header:
        rows.insert(0, header)
    return newline.join(rows) + (newline if draw(st.booleans()) else "")


def _genfromtxt_reference(path):
    """The array, or the error message, of a plain genfromtxt read."""
    try:
        z = np.genfromtxt(path, delimiter=None if _is_whitespace(path) else ",",
                          ndmin=2)
    except ValueError as exc:
        return None, f"malformed matrix file {path}: {exc}"
    if z.size < 2:
        return None, f"malformed matrix file {path}: not rectangular"
    return z, None


class TestReadMatrixFile:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=300, deadline=None)
    @given(text=_matrix_texts())
    def test_matches_genfromtxt(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(text.encode())
        expected, message = _genfromtxt_reference(path)
        if expected is None:
            with pytest.raises(SurfaceDataError) as err:
                _read_matrix_file(path)
            assert str(err.value) == message
        else:
            z = _read_matrix_file(path)
            assert z.shape == expected.shape
            assert np.array_equal(z, expected, equal_nan=True)

    @pytest.mark.parametrize("text, shape", [("1\n2\n3\n4\n", (4, 1)),
                                             ("1,2,3\n", (1, 3)),
                                             ("1\n\n2\nabc\n", (3, 1))])
    def test_orientation_kept(self, tmp_path, text, shape):
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert _read_matrix_file(path).shape == shape

    def test_single_cell_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("5\n")
        with pytest.raises(SurfaceDataError, match="not rectangular"):
            _read_matrix_file(path)


def _small_record(rng):
    grid = default_grid(m=60)
    prev = build_stage_sample(rough_stage(rng, "stage1", scale=1.0), grid)
    curr = build_stage_sample(rough_stage(rng, "stage2", scale=0.3), grid)
    cfg = DecisionConfig(grid=grid,
                         perm=PermutationConfig(n_permutations=200, seed=42))
    return decide(prev, curr, cfg)


class TestReportPersistence:
    def test_round_trip_identity(self, tmp_path, rng):
        record = _small_record(rng)
        path = tmp_path / "report.json"
        save_report(record, path)
        loaded = load_report(path)
        assert loaded.to_dict() == record.to_dict()

    def test_provenance_echo(self, tmp_path, rng):
        record = _small_record(rng)
        path = tmp_path / "report.json"
        save_report(record, path)
        payload = json.loads(path.read_text())
        assert payload["provenance"]["seed"] == 42
        assert payload["provenance"]["n_permutations"] == 200
        assert payload["schema"] == "bacdetect-report-v1"

    def test_numpy_integer_settings(self, tmp_path):
        # numpy integers are stored as plain ints: the report is the same
        paths = []
        for n, seed in ((200, 42), (np.int64(200), np.int64(42))):
            rng = np.random.default_rng(12345)
            grid = default_grid(m=60)
            prev = build_stage_sample(rough_stage(rng, "stage1", scale=1.0), grid)
            curr = build_stage_sample(rough_stage(rng, "stage2", scale=0.3), grid)
            cfg = DecisionConfig(grid=grid, perm=PermutationConfig(n_permutations=n, seed=seed))
            paths.append(tmp_path / f"report{len(paths)}.json")
            save_report(decide(prev, curr, cfg), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unserializable_record_leaves_file_unchanged(self, tmp_path, rng):
        record = _small_record(rng)
        path = tmp_path / "report.json"
        save_report(record, path)
        before = path.read_bytes()
        bad = replace(record, provenance={**record.provenance, "seed": object()})
        with pytest.raises(TypeError):
            save_report(bad, path)
        assert path.read_bytes() == before

    def test_write_failure(self, tmp_path, rng):
        record = _small_record(rng)
        with pytest.raises(SurfaceDataError):
            save_report(record, tmp_path / "no_such_dir" / "r.json")

    def test_missing_report(self, tmp_path):
        with pytest.raises(SurfaceDataError):
            load_report(tmp_path / "absent.json")

    @pytest.mark.parametrize("payload", [
        {"schema": "x"}, [1, 2], "text", None,
        {"stage_prev": "a", "stage_curr": "b", "families": []},
    ])
    def test_payload_of_wrong_shape(self, tmp_path, payload):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SurfaceDataError, match="is not a bacdetect report") as err:
            load_report(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("families.variance.corrected_p", "0.5"),
        ("families.variance.corrected_p", True),
        ("families.upper_tail.observed_stat", None),
        ("families.lower_tail.n_permutations_used", 200.0),
        ("families.lower_tail.degenerate_points", "0"),
        ("families.upper_tail.statistic_kind", 1),
        ("families.upper_tail.verdict", 1),
        ("stage_prev", {"a": 1}),
        ("stage_curr", ["b"]),
        ("overall", None),
        ("recommendation", 0),
        ("provenance", [1, 2]),
        ("schema", "something-else-v9"),
    ])
    def test_field_of_wrong_type(self, tmp_path, rng, field, value):
        path = tmp_path / "report.json"
        save_report(_small_record(rng), path)
        payload = json.loads(path.read_text())
        *parents, key = field.split(".")
        node = payload
        for name in parents:
            node = node[name]
        node[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SurfaceDataError, match="is not a bacdetect report") as err:
            load_report(path)
        assert str(path) in str(err.value)
        assert f"{field} must be" in str(err.value)


class TestStageRecord:
    def test_minimum_two_locations(self):
        with pytest.raises(SurfaceDataError, match="insufficient"):
            StageRecord(stage_id="s", locations=[HeightMatrix(z=np.zeros((2, 2)))])

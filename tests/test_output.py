"""Deterministic CSV output: value formatting, atomic writes, and layout."""

import numpy as np
import pytest

from apeuler.mesh import Mesh, MeshSpec
from apeuler.output import atomic_write_text, format_value, write_csv, write_field_csv


def test_format_value_float_roundtrips_exactly(rng):
    for v in [0.1, 1.0 / 3.0, 1e-300, -2.5e17, np.float64(np.pi),
              *rng.standard_normal(20)]:
        assert float(format_value(v)) == float(v)


def test_format_value_ints_and_strings():
    assert format_value(42) == "42"
    assert format_value(np.int64(-7)) == "-7"
    assert format_value(True) == "1"          # bools write as integers
    assert format_value("label") == "label"


def test_atomic_write_creates_parents_and_cleans_tmp(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.csv"
    out = atomic_write_text(target, "hello\n")
    assert out == target
    assert target.read_text() == "hello\n"
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_atomic_write_lf_line_endings(tmp_path):
    target = tmp_path / "lines.csv"
    atomic_write_text(target, "a\nb\n")
    assert target.read_bytes() == b"a\nb\n"


def test_write_csv_layout(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b"],
                     [(1, 0.5), (2, 1.0 / 3.0)], config_hash="cafe0123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=cafe0123"
    assert lines[1] == "a,b"
    assert lines[2].startswith("1,0.5")
    assert float(lines[3].split(",")[1]) == 1.0 / 3.0
    assert len(lines) == 4


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="width"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [(1,)], config_hash="x")


def test_write_csv_overwrite_is_deterministic(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [(1,)], config_hash="h")
    first = path.read_bytes()
    write_csv(path, ["a"], [(1,)], config_hash="h")
    assert path.read_bytes() == first


def test_write_field_csv_layout(tmp_path, mesh2):
    rho = np.array([1.0, 2.0, 3.0, 4.0])
    path = write_field_csv(tmp_path / "f.csv", mesh2, {"rho": rho},
                           config_hash="h")
    lines = path.read_text().splitlines()
    assert lines[1] == "i,j,x,y,rho"
    # row-major: cell 1 is (i=1, j=0) centred at (0.75, 0.25)
    assert lines[3] == "1,0,0.75,0.25,2"
    assert len(lines) == 2 + mesh2.ncells


def test_write_field_csv_rows_match_format_value(tmp_path):
    mesh = Mesh(MeshSpec(3, 2))
    edge = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 1.0 / 3.0])
    fields = {"a": edge, "b": edge[::-1] * -2.5e17}
    path = write_field_csv(tmp_path / "f.csv", mesh, fields, config_hash="h")
    rows = zip(range(mesh.ncells), mesh.cell_x.tolist(), edge.tolist(),
               fields["b"].tolist())
    expect = [",".join([format_value(k % 3), format_value(k // 3),
                        *(format_value(v) for v in (*xy, a, b))])
              for k, xy, a, b in rows]
    lines = path.read_text().splitlines()
    assert lines[2:] == expect
    assert "nan" in lines[2] and ",-0," in lines[5] and "-inf" in lines[4]


def test_write_field_csv_rejects_bad_shape(tmp_path, mesh2):
    with pytest.raises(ValueError, match="shape"):
        write_field_csv(tmp_path / "f.csv", mesh2,
                        {"rho": np.zeros(3)}, config_hash="h")

"""The byte-identity contract: every output file of ``apeuler run`` on the
recorded configs, and every recorded trajectory, hashes as committed in
``digests.json`` (written by ``record_digests.py``); and that script's
``--compare`` report on a moved column or file, each named once."""

import json
import shutil

import pytest

import record_digests
from apeuler.output import write_csv


def test_outputs_match_recorded_digests(tmp_path):
    record = json.loads(record_digests.DIGESTS.read_text())
    recorded_env, env = record["environment"], record_digests.environment()
    where = (f"recorded on numpy {recorded_env['numpy']} with CPU features "
             f"{recorded_env['cpu_features']}; this is numpy {env['numpy']} "
             f"with {env['cpu_features']}")
    if env != recorded_env:
        pytest.skip(f"digests are defined for one numpy and CPU: {where}")

    digests = record_digests.compute(tmp_path)
    expected = record["digests"]
    moved = sorted(k for k in expected.keys() | digests.keys()
                   if expected.get(k) != digests.get(k))
    assert not moved, (
        f"{len(moved)} of {len(expected)} digests moved ({where}); a change "
        f"that means to move them re-records with tests/record_digests.py: "
        f"{moved}")


def test_compare_reports_columns_and_files_one_side_has(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    # a dropped column, the shared ones unchanged
    write_csv(old / "runs" / "diagnostics.csv", ("step", "t", "iters"),
              [(1, 0.5, 1), (2, 1.0, 1)], "h")
    write_csv(new / "runs" / "diagnostics.csv", ("step", "t"),
              [(1, 0.5), (2, 1.0)], "h")
    # shared columns matched by name, not position
    write_csv(old / "fields.csv", ("u", "v"), [(1.0, 2.0), (3.0, 4.0)], "h")
    write_csv(new / "fields.csv", ("v", "u", "w"),
              [(2.0, 1.0, 0.0), (4.0, 3.3, 0.0)], "h")
    write_csv(old / "same.csv", ("t",), [(0.5,)], "h")
    write_csv(new / "same.csv", ("t",), [(0.5,)], "h")
    write_csv(old / "series.csv", ("t",), [(0.5,), (1.0,)], "h")
    write_csv(new / "series.csv", ("t",), [(0.5,)], "h")
    write_csv(new / "added.csv", ("t",), [(0.5,)], "h")

    assert record_digests.compare(old, new) == [
        "fields.csv: 1.00e-01 (u); only in NEW: w",
        "runs/diagnostics.csv: 0.00e+00; only in OLD: iters",
        "series.csv: layout differs",
        f"added.csv: missing in {old}",
    ]


def test_compare_names_a_moved_tiny_file_once(tmp_path):
    # the one- and two-worker bundles agree, so only one is kept and a
    # file that moves is reported once
    old, new = tmp_path / "old", tmp_path / "new"
    record_digests.tiny_bundle("compressible", old)
    assert sorted(p.name for p in old.iterdir()) == [
        "tiny_compressible_w1", "tiny_compressible_w1.cfg"]
    shutil.copytree(old, new)
    write_csv(new / "tiny_compressible_w1" / "tables" / "div_residual.csv",
              ("eps",), [(0.5,)], "h")
    assert record_digests.compare(old, new) == [
        "tiny_compressible_w1/tables/div_residual.csv: layout differs"]

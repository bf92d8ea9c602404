"""The byte-identity contract: every output file of ``apeuler run`` on the
recorded configs, and every recorded trajectory, hashes as committed in
``digests.json`` (written by ``record_digests.py``)."""

import json

import pytest

import record_digests


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

"""The README's examples stay runnable: every ``key = value`` block parses
as a config and every ``apeuler run`` example line is accepted by the CLI's
parser, so a removed key or flag cannot linger in the docs.  The
``diagnostics.csv`` columns it lists are those the step records write."""

import re
import shlex
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from apeuler import cli
from apeuler.compressible import StepDiagnostics
from apeuler.config import parse_config_text
from apeuler.incompressible import IncompStepDiagnostics

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")

#: (language tag, body) of every fenced block
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", TEXT, re.M | re.S)

CONFIG_BLOCKS = [body for lang, body in FENCES
                 if not lang and re.search(r"^\w+ *=", body, re.M)]

#: each ``apeuler run`` line of a fenced block, its comment cut off
RUN_LINES = [line.split("#", 1)[0].strip()
             for _, body in FENCES for line in body.splitlines()
             if line.strip().startswith("apeuler run")]


def test_readme_has_examples():
    # the extraction itself must keep finding what it checks
    assert CONFIG_BLOCKS and RUN_LINES


@pytest.mark.parametrize("block", CONFIG_BLOCKS)
def test_readme_config_block_parses(block):
    parse_config_text(block, source="README.md")


@pytest.mark.parametrize("line", RUN_LINES)
def test_readme_run_line_parses(line):
    argv = shlex.split(line)[1:]
    # the shell redirection is not the program's
    if ">" in argv:
        argv = argv[:argv.index(">")]
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README example rejected by the CLI parser: {line}")


@pytest.mark.parametrize("scheme, cls", [
    ("compressible", StepDiagnostics),
    ("limit", IncompStepDiagnostics),
])
def test_readme_lists_diagnostics_columns(scheme, cls):
    listed = re.findall(rf"^ *- {scheme} columns:\s*`([\w,]+)`", TEXT, re.M)
    assert listed == [",".join(f.name for f in fields(cls)
                               if f.default is MISSING)]

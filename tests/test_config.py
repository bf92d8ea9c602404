"""Config format: parsing, validation, canonical rendering round-trips, and
the provenance hash."""

import dataclasses

import pytest

from apeuler.config import (
    ConfigError,
    ExperimentConfig,
    comp_config,
    config_hash,
    default_config,
    incomp_config,
    load_config,
    parse_config_text,
    render_config,
)


def test_defaults_are_valid():
    cfg = default_config()
    assert cfg.mode == "compressible"
    assert cfg.grids == (32, 64, 128)
    assert cfg.ref_grid == 512
    assert cfg.eps[0] == 1.0 and cfg.eps[-1] == 1e-4


def test_parse_overrides_and_comments():
    text = """
    # sweep setup
    mode = convergence_study
    grids = 16, 32   # two levels
    eps = 1.0, 1e-2
    ref_grid = 64
    workers = 4
    dt_max = 0.001
    """
    cfg = parse_config_text(text)
    assert cfg.mode == "convergence_study"
    assert cfg.grids == (16, 32)
    assert cfg.eps == (1.0, 1e-2)
    assert cfg.ref_grid == 64
    assert cfg.workers == 4
    assert cfg.dt_max == 0.001
    # untouched fields keep their defaults
    assert cfg.gamma == 2.0


def test_parse_none_for_optional_fields():
    cfg = parse_config_text("dt_max = none\n")
    assert cfg.dt_max is None
    base = parse_config_text("dt_max = 0.5\n")
    assert parse_config_text("dt_max = NONE\n", base=base).dt_max is None


def test_parse_error_reports_line_numbers():
    with pytest.raises(ConfigError, match=r"myfile:3"):
        parse_config_text("mode = compressible\n\nnot an assignment\n",
                          source="myfile")
    with pytest.raises(ConfigError, match=r"<config>:1: unknown key"):
        parse_config_text("grdis = 32\n")
    with pytest.raises(ConfigError, match=r"<config>:2: bad value for 'gamma'"):
        parse_config_text("mode = compressible\ngamma = two\n")


def test_parse_layers_on_base():
    base = parse_config_text("grids = 16,32\nref_grid = 64\n")
    cfg = parse_config_text("t_final = 0.01\n", base=base)
    assert cfg.grids == (16, 32)
    assert cfg.t_final == 0.01


#: keys and modes the experiment config no longer has, with the error they
#: now give: the inner-solver knobs and the limit scheme's own eta are left
#: to the per-run configs, and the asymptotic study is `compressible`
REMOVED = {
    "eta = 0.5": "unknown key",
    "picard_max_iter = 0": "unknown key",
    "picard_tol = 1e-9": "unknown key",
    "transport_tol = 1e-9": "unknown key",
    "transport_max_iter = 10": "unknown key",
    "pressure_tol = 1e-8": "unknown key",
    "mode = asymptotic_study": "mode must be one of",
}


@pytest.mark.parametrize("text", [
    "mode = supersonic",
    "grids = ",
    "grids = 32,48",            # 48/32 not a power of two
    "grids = 64,32",            # not increasing
    "grids = 32,32",            # duplicate
    "grids = 1,2",              # below minimum size
    "ref_grid = 64",            # smaller than finest grid (128)
    "ref_grid = 384",           # not a power-of-two multiple
    "eps = 1.0,-0.5",
    "eps = 1.0,1.0",            # repeated table rows and manifest entries
    "eps = 0.1,0.1000001",      # same run directory comp_k*_eps0.1
    "gamma = 1.0",
    "t_final = 0.0",
    "output_count = 1",
    "workers = 0",
    "dt_max = 0",
    "dt_max = -0.001",
    "cfl_fraction = 1.5",
    "eta_margin = 0.9",
    *REMOVED,
])
def test_validation_rejections(text):
    with pytest.raises(ConfigError, match=REMOVED.get(text)):
        parse_config_text(text + "\n")


def test_render_parse_roundtrip():
    cfg = parse_config_text(
        "mode = incompressible\ngrids = 16,32\nref_grid = 64\n"
        "eps = 1.0,0.01\nt_final = 0.015\ndt_max = none\nworkers = 3\n")
    again = parse_config_text(render_config(cfg))
    assert again == cfg
    # every field appears exactly once, in declaration order
    keys = [line.split(" = ")[0] for line in render_config(cfg).splitlines()]
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_config_hash_stability_and_sensitivity():
    a = default_config()
    assert config_hash(a) == config_hash(default_config())
    assert len(config_hash(a)) == 16
    # where and on how many processes a study runs does not name its results
    assert config_hash(parse_config_text("outdir = elsewhere\n")) == \
        config_hash(a)
    assert config_hash(parse_config_text("workers = 2\n")) == config_hash(a)
    # what the study computes does
    assert config_hash(parse_config_text("t_final = 0.01\n")) != \
        config_hash(a)
    assert config_hash(parse_config_text("eta_margin = 1.1\n")) != \
        config_hash(a)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")
    p = tmp_path / "run.cfg"
    p.write_text("grids = 16,32\nref_grid = 32\n", encoding="utf-8")
    assert load_config(p).grids == (16, 32)


def test_scheme_config_passthrough():
    cfg = parse_config_text(
        "gamma = 1.4\nt_final = 0.01\ncfl_fraction = 0.5\n"
        "eta_margin = 1.2\ndt_max = 0.001\n")
    cc = comp_config(cfg, eps=1e-3)
    assert cc.gamma == 1.4 and cc.eps == 1e-3
    ic = incomp_config(cfg)
    for run in (cc, ic):
        assert run.t_final == 0.01 and run.cfl_fraction == 0.5
        assert run.eta_margin == 1.2 and run.dt_max == 0.001
    # the limit scheme's eta is the compressible rule at rho = 1
    assert ic.eta == 1.5 * cfg.eta_margin

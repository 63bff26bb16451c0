import dataclasses
import importlib
import json
import os
import sys
import time

import numpy as np
import pytest

from conftest import perfbench_workloads
from faddeev_ep import dtn_maps
from faddeev_ep.cli import main as cli_main
from faddeev_ep.dtn_maps import assemble_Fn, fn_key, standard_conductive
from faddeev_ep.geometry import make_circle, make_ellipse, sample
from faddeev_ep.green import KPoint
from faddeev_ep.harness import OperatorCache, RunConfig, build_potential, kgrid_points, run
from faddeev_ep.transform import trace_u


def test_config_roundtrip_lossless():
    cfg = RunConfig(detectors=["sigma_scan"], lam=0.05, n_nodes=64,
                    kgrid={"type": "logpolar", "rmin": 1e-2, "rmax": 0.5, "nr": 3, "nphi": 2})
    doc = cfg.to_dict()
    back = RunConfig.from_dict(json.loads(json.dumps(doc)))
    assert back.to_dict() == doc
    assert back.config_hash() == cfg.config_hash()


#: config_hash and fn_key of the perfbench workloads at seed 0, as hashlib computed them at 0.1.7
WORKLOAD_DIGESTS = {
    "locus": ("fcd6a0e2b98c2faa", "56141dddbf2f232a0d1e9bfe8611fdf97683726daf34366d2f1c61734b15378c"),
    "scan": ("4589bf8e549137c9", "9cbe76c22b7b4f988101095de0b9f65125ccf3041c9e0f5447bcc890302ecb51"),
    "interior256": ("d855de4cd9bcb076", "35c9b36b339a19858cbee73d830114d62c52dc7d3a3e1b2789a9cea2a8877aec"),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_config_hash_and_fn_key_are_pinned(name):
    """The run directories and the operator store's keys do not move with the SHA-256 in use."""
    cfg = RunConfig.from_dict(perfbench_workloads().config(name, 0))
    _, family = build_potential(cfg)
    nodes = sample(make_circle(1.0), cfg.n_nodes)
    assert (cfg.config_hash(), fn_key(nodes, family.at(cfg.lam))) == WORKLOAD_DIGESTS[name]


def test_config_rejects_unknown_fields_and_detectors():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"not_a_field": 1})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"detectors": ["warp_drive"]})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"n_nodes": 17})


def test_config_rejects_per_run_tolerances():
    """The tolerances and the xi_fit grid are module constants, not config fields."""
    for doc in ({"tolerances": {}}, {"tolerances": {"tol_neg": 1e-3}}, {"xi_points": 5}):
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_dict(doc)


def test_summary_reports_the_tolerances_in_force(tmp_path):
    from faddeev_ep.boundary_ops import SINGULARITY_THRESHOLD
    from faddeev_ep.disk_solver import CONDITION_LIMIT
    from faddeev_ep.exceptional import TOL_KER_REL, TOL_NEG
    from faddeev_ep.transform import CONDITION_CAP

    manifest = run(RunConfig(detectors=[], outdir=str(tmp_path)))
    summary = json.loads((tmp_path / manifest.config_hash / "summary.json").read_text())
    assert summary["tolerances"] == {
        "tol_ker_rel": TOL_KER_REL, "tol_neg": TOL_NEG,
        "singularity_threshold": SINGULARITY_THRESHOLD,
        "condition_limit": CONDITION_LIMIT, "condition_cap": CONDITION_CAP,
    }


def test_build_potential_kinds():
    """A conductive kind carries its conductivity q and a perturbation family; the
    absorbing and zero kinds carry neither.  Each is checked by its values."""
    z = np.array([0.0, 0.3 + 0.4j])
    base, family = build_potential(RunConfig())
    assert base.q_fn is not None and family is not None and family.at(0.0) is base
    assert base.eval(z)[0] == pytest.approx(4.0, rel=1e-12)   # q = 1 + 2(1 - r^2)^3: n(0) = 4
    np.testing.assert_allclose(family.at(0.05).eval(z) - base.eval(z), 0.05 * family.omega_fn(z), rtol=1e-13)
    base, family = build_potential(RunConfig(potential={"kind": "absorbing", "delta": 0.5}))
    assert base.q_fn is None and family is None
    np.testing.assert_array_equal(base.eval(z), 0.5j)
    base, family = build_potential(RunConfig(potential={"kind": "zero"}))
    assert base.q_fn is None and family is None
    np.testing.assert_array_equal(base.eval(z), 0.0)


@pytest.mark.parametrize("doc, message", [
    ({"potential": {"kind": "conductive", "amplitdue": 5.0}}, "amplitdue"),
    ({"omega": {"profile": "poly_cos", "cos_cof": 0.5}}, "cos_cof"),
    ({"potential": {"kind": "absorbing", "delta": -1.0}}, "delta must be positive"),
    ({"potential": {"kind": "raster"}}, "path"),
])
def test_cli_run_rejects_a_bad_potential_or_profile(tmp_path, capsys, doc, message):
    """A misspelled builder parameter, a non-positive absorption and a raster without its
    path are config errors (exit 1), found before anything runs."""
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({**doc, "detectors": [], "outdir": str(tmp_path / "runs")}))
    assert cli_main(["run", str(cfgpath)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("raster, message", [
    ({"re": [[1.0] * 3] * 3, "im": [[5.0]]}, "im (1, 1)"),   # would broadcast and add 5i everywhere
    ({"re": [[1.0, 2.0, 3.0]]}, "re (1, 3)"),                # one row: n = 0 at every point inside
    ({"re": [[1.0] * 2] * 2, "dx": 0.0}, "dx 0.0"),          # divides by zero: n = 0
    ({"re": [[1.0] * 2] * 2, "dy": float("nan")}, "dy nan"),
    ({"re": [[1.0] * 2] * 2, "x0": float("nan")}, "x0 nan"),   # every index is out of range: n = 0
    ({"re": [[1.0, float("nan")], [1.0, 1.0]]}, "finite re and im"),   # every mode dropped: F_n of n = 0
])
def test_cli_run_refuses_a_malformed_raster(tmp_path, capsys, raster, message):
    """A raster under 2 x 2, an im shaped unlike re, a value or a step that is not finite (the step
    positive), or an origin that is not finite is a config error (exit 1), found before the run
    directory is written."""
    path = tmp_path / "n.json"
    path.write_text(json.dumps({"x0": -1.0, "y0": -1.0, "dx": 1.0, "dy": 1.0, **raster}))
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({"potential": {"kind": "raster", "path": str(path)}, "detectors": [],
                                   "outdir": str(tmp_path / "runs")}))
    assert cli_main(["run", str(cfgpath)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not (tmp_path / "runs").exists()


def test_a_raster_config_reads_its_json_once_per_run(tmp_path, monkeypatch):
    """Checking a config and running it build the potential once: the raster is read once."""
    raster = tmp_path / "n.json"
    raster.write_text(json.dumps({"x0": -1.0, "y0": -1.0, "dx": 2.0, "dy": 2.0, "re": [[1.0] * 2] * 2}))
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({"potential": {"kind": "raster", "path": str(raster)}, "detectors": [],
                                   "outdir": str(tmp_path / "runs")}))
    reads, load = [], json.load

    def counted(fh, *args, **kwargs):
        reads.append(fh.name)
        return load(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counted)
    assert cli_main(["run", str(cfgpath)]) == 0
    assert reads == [str(cfgpath), str(raster)]


@pytest.mark.parametrize("name, spec", [("potential", {"kind": "raster"}), ("curve", {"name": "fourier"})])
def test_a_config_builds_nothing_until_it_runs(tmp_path, capsys, name, spec):
    """from_dict checks the fields only: a raster or a curve whose file is missing is found by
    the run, which builds both before it writes anything, as a config error (exit 1)."""
    doc = {name: {**spec, "path": str(tmp_path / "missing.json")}, "detectors": [],
           "outdir": str(tmp_path / "runs")}
    RunConfig.from_dict(doc)
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(doc))
    assert cli_main(["run", str(cfgpath)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_a_run_leaves_the_config_its_fields_only(tmp_path):
    cfg = RunConfig.from_dict({"detectors": [], "outdir": str(tmp_path)})
    run(cfg)
    assert set(vars(cfg)) == set(RunConfig.__dataclass_fields__)


def _cli_config(tmp_path, *flags):
    """Run a small scan from the command line; return its config.json and scan.csv."""
    argv = ["scan", "--n", "32", "--rmin", "0.05", "--rmax", "0.5", "--nr", "2", "--nphi", "1",
            "--workers", "1", "--no-cache", "--outdir", str(tmp_path), *flags]
    assert cli_main(argv) == 0
    (rundir,) = tmp_path.iterdir()
    return json.loads((rundir / "config.json").read_text()), (rundir / "scan.csv").read_bytes()


def test_cli_writes_only_the_builder_flags_given(tmp_path):
    """A flagless scan names no potential and no omega, and the builders' defaults give
    the scan that spelling every parameter out gives; a flag given is written as given."""
    cfg, csv = _cli_config(tmp_path / "flagless")
    assert "potential" not in cfg and "omega" not in cfg
    spelled = RunConfig.from_dict({**cfg, "outdir": str(tmp_path / "spelled"),
                                   "potential": {"kind": "conductive", "amplitude": 2.0, "power": 3},
                                   "omega": {"profile": "radial_poly", "amplitude": 1.0, "power": 3}})
    manifest = run(spelled)
    assert (tmp_path / "spelled" / manifest.config_hash / "scan.csv").read_bytes() == csv
    cfg, _ = _cli_config(tmp_path / "absorbing", "--potential", "absorbing")
    assert cfg["potential"] == {"kind": "absorbing"}
    cfg, _ = _cli_config(tmp_path / "delta", "--potential", "absorbing", "--delta", "0.5")
    assert cfg["potential"] == {"kind": "absorbing", "delta": 0.5}


def test_cli_rejects_a_flag_its_builder_does_not_take(tmp_path, capsys):
    """--delta on a conductive run, --a on a circle, an ellipse without its axes and an omega
    on an absorbing potential are config errors, found before anything is written: no flag
    is dropped silently and no axis is filled in."""
    for flags in (["--delta", "0.5"], ["--curve", "circle", "--a", "1.5"], ["--curve", "ellipse"],
                  ["--potential", "absorbing", "--omega-cos", "0.3"]):
        assert cli_main(["scan", "--n", "32", *flags, "--outdir", str(tmp_path)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, detector", [("scan", "sigma_scan"), ("locus", "locus"), ("transform", "transform")])
def test_a_flagless_command_writes_only_its_detector(tmp_path, monkeypatch, capsys, command, detector):
    """No flag has a default of its own: a command given no flags writes a config.json that names
    its detector alone, and RunConfig's defaults supply every other field.  The flagless locus,
    at RunConfig's lam = 0, is a config error found before anything is written."""
    monkeypatch.chdir(tmp_path)
    if command == "locus":
        assert cli_main([command]) == 1
        assert "config error: locus tracing expects 0 < lambda" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        return
    cli_main([command])
    (config,) = (tmp_path / "runs").glob("*/config.json")
    doc = json.loads(config.read_text())
    assert doc == {"detectors": [detector]}
    assert RunConfig.from_dict(doc) == RunConfig(detectors=[detector])


def test_config_refuses_a_locus_outside_the_small_lambda_range():
    """The locus detector's lambda range is a config check, the one trace_locus makes."""
    for lam in (0.0, -0.05, 0.2):
        with pytest.raises(ValueError, match="locus tracing expects"):
            RunConfig.from_dict({"detectors": ["locus"], "lam": lam})
    assert RunConfig.from_dict({"detectors": ["locus"], "lam": 0.1}).lam == 0.1
    assert RunConfig.from_dict({"detectors": ["sigma_scan"], "lam": 0.2}).lam == 0.2


@pytest.mark.parametrize("command, flags, name", [("scan", ["--nr", "2"], "kgrid"),
                                                  ("transform", ["--nk", "3"], "transform_krange")])
def test_cli_completes_a_partly_given_grid_from_the_config_default(tmp_path, command, flags, name):
    """The grid flag given is written into RunConfig's default grid; no other field is written."""
    assert cli_main([command, "--n", "32", *flags, "--no-cache", "--outdir", str(tmp_path)]) == 0
    (config,) = tmp_path.glob("*/config.json")
    doc = json.loads(config.read_text())
    assert set(doc) == {"detectors", "n_nodes", "use_cache", "outdir", name}
    key = "nr" if name == "kgrid" else "n"
    assert doc[name] == {**getattr(RunConfig(), name), key: int(flags[1])}


def _run_json(tmp_path, doc):
    """Run a config document through ``faddeev-ep run``; return its exit code and run directory."""
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({"n_nodes": 32, "use_cache": False, "outdir": str(tmp_path / "runs"), **doc}))
    code = cli_main(["run", str(cfgpath)])
    return code, next((tmp_path / "runs").iterdir(), None) if (tmp_path / "runs").exists() else None


def test_a_partial_transform_krange_in_json_runs_as_on_the_command_line(tmp_path):
    """A transform_krange without phi takes the default phi = 0.9, as the flags do: the JSON
    config and the flags name one run directory."""
    code, rundir = _run_json(tmp_path, {"detectors": ["transform"],
                                        "transform_krange": {"rmin": 1e-6, "rmax": 1e-2, "n": 4}})
    assert code == 0
    argv = ["transform", "--n", "32", "--no-cache", "--rmin", "1e-6", "--rmax", "1e-2", "--nk", "4",
            "--outdir", str(tmp_path / "runs")]
    assert cli_main(argv) == 0
    assert list((tmp_path / "runs").iterdir()) == [rundir]
    rows = (rundir / "transform.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        re, im = map(float, row.split(",")[:2])
        assert np.angle(complex(re, im)) == pytest.approx(0.9, abs=1e-12)


def test_a_partial_parity_eps_in_json_scales_by_the_prediction(tmp_path):
    """parity_eps without scale brackets the predicted locus (the default scale), so the
    parity jump across it is found."""
    code, rundir = _run_json(tmp_path, {"detectors": ["parity"], "lam": 0.05,
                                        "parity_eps": {"eps_a": 0.5, "eps_b": 2.0}})
    assert code == 0
    summary = json.loads((rundir / "summary.json").read_text())
    assert summary["parity"]["evidence"] is True
    assert summary["config"]["parity_eps"]["scale"] == "prediction"
    assert summary["parity"]["scale"] == "prediction"


def test_a_parity_run_without_a_prediction_records_the_absolute_scale(tmp_path):
    """At lam <= 0 there is no locus prediction, so the prediction scale falls back to the
    absolute eps, and the summary records the scale applied."""
    code, rundir = _run_json(tmp_path, {"detectors": ["parity"], "lam": -0.05})
    assert code == 0
    summary = json.loads((rundir / "summary.json").read_text())
    assert summary["config"]["parity_eps"]["scale"] == "prediction"
    assert summary["parity"]["scale"] == "absolute"
    assert summary["parity"]["bracket_eps"] is None


def test_a_partial_logpolar_kgrid_in_json_is_completed(tmp_path):
    code, rundir = _run_json(tmp_path, {"detectors": ["sigma_scan"], "kgrid": {"nr": 2, "nphi": 2}})
    assert code == 0
    assert len((rundir / "scan.csv").read_text().splitlines()) == 1 + 4
    assert RunConfig(kgrid={"nr": 2, "nphi": 2}).kgrid == {**RunConfig().kgrid, "nr": 2, "nphi": 2}


@pytest.mark.parametrize("doc", [{"parity_eps": {"Phi": 0.3}},
                                 {"transform_krange": {"rmin": 1e-5, "nr": 3}},
                                 {"kgrid": {"type": "list", "values": [[0.1, 0.0]], "rmin": 0.1}},
                                 {"kgrid": {"type": "list"}},
                                 {"kgrid": [[0.1, 0.0]]}])
def test_a_key_a_dict_field_does_not_take_is_a_config_error(tmp_path, capsys, doc):
    """A misspelled or foreign key, a list kgrid without its values and a dict field that is
    not a dict are config errors (exit 1), found before anything is written."""
    code, rundir = _run_json(tmp_path, {**doc, "detectors": []})
    assert code == 1 and rundir is None
    assert "config error:" in capsys.readouterr().err
    with pytest.raises(ValueError):
        RunConfig(**doc)


@pytest.mark.parametrize("doc", [{"kgrid": {"type": "spiral"}, "detectors": ["sigma_scan"]},
                                 {"parity_eps": {"scale": "predicton"}, "lam": 0.05, "detectors": ["parity"]}],
                         ids=["kgrid_type", "parity_scale"])
def test_a_value_outside_a_key_s_choices_is_a_config_error(tmp_path, capsys, doc):
    """A kgrid type other than logpolar or list, and a parity_eps scale other than prediction
    or absolute, are config errors found before anything is written: a misspelled scale ran
    as absolute, and an unknown kgrid type failed only the scan, after the run directory."""
    code, rundir = _run_json(tmp_path, doc)
    assert code == 1 and rundir is None
    assert "config error:" in capsys.readouterr().err
    with pytest.raises(ValueError, match="must be one of"):
        RunConfig(**doc)


@pytest.mark.parametrize("doc", [{"workers": 0, "detectors": ["sigma_scan"]},
                                 {"workers": -2, "detectors": ["sigma_scan"]},
                                 {"locus_angles": 0, "lam": 0.05, "detectors": ["locus"]},
                                 {"locus_angles": 2.5, "lam": 0.05, "detectors": ["locus"]},
                                 {"kgrid": {"nr": 0}, "detectors": ["sigma_scan"]},
                                 {"kgrid": {"nphi": 1.5}, "detectors": ["sigma_scan"]},
                                 {"transform_krange": {"n": -1}, "detectors": ["transform"]},
                                 {"transform_krange": {"n": True}, "detectors": ["transform"]}],
                         ids=["workers_0", "workers_neg", "angles_0", "angles_frac", "nr_0", "nphi_frac",
                              "krange_n_neg", "krange_n_bool"])
def test_a_count_that_is_not_a_positive_int_is_a_config_error(tmp_path, capsys, doc):
    """workers, locus_angles, the kgrid's nr and nphi and the transform's n count things: zero, a
    negative or a fractional count is a config error found before anything is written.  Before,
    workers = 0 ran and recorded the scan's ValueError, locus_angles = 0 failed inside the detector,
    and locus_angles = 2.5 traced 3 rays 2 pi / 2.5 apart."""
    code, rundir = _run_json(tmp_path, doc)
    assert code == 1 and rundir is None
    assert "counts must be positive ints" in capsys.readouterr().err
    with pytest.raises(ValueError, match="counts must be positive ints"):
        RunConfig.from_dict(doc)


def test_a_config_is_frozen_and_a_changed_copy_is_checked_again(tmp_path):
    """A field assigned after construction used to skip every check: workers = 0 then ran and wrote
    its run directory.  A RunConfig is frozen, and dataclasses.replace checks the copy again."""
    cfg = RunConfig(detectors=["sigma_scan"], n_nodes=32, outdir=str(tmp_path))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.workers = 0
    with pytest.raises(ValueError, match="counts must be positive ints"):
        dataclasses.replace(cfg, workers=0)
    assert cfg.workers == 4 and not any(tmp_path.iterdir())


def test_cli_run_outdir_places_the_run(tmp_path):
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({"detectors": [], "outdir": str(tmp_path / "given")}))
    assert cli_main(["run", str(cfgpath), "--outdir", str(tmp_path / "moved")]) == 0
    moved = RunConfig.from_dict({"detectors": [], "outdir": str(tmp_path / "moved")})
    assert (tmp_path / "moved" / moved.config_hash() / "summary.json").exists()
    assert not (tmp_path / "given").exists()


def test_cli_validate_takes_only_the_curve_flags_and_n(capsys):
    with pytest.raises(SystemExit):
        cli_main(["validate", "--n", "32", "--potential", "absorbing"])
    assert "unrecognized arguments: --potential absorbing" in capsys.readouterr().err


def test_kgrid_points():
    pts = kgrid_points({"type": "logpolar", "rmin": 0.1, "rmax": 1.0, "nr": 3, "nphi": 4})
    assert len(pts) == 12
    pts = kgrid_points({"type": "list", "values": [[0.1, 0.0], [0.0, 0.2]]})
    assert len(pts) == 2 and pts[1].k == pytest.approx(0.2j)


def test_empty_detector_list_is_noop(tmp_path):
    cfg = RunConfig(detectors=[], outdir=str(tmp_path))
    manifest = run(cfg)
    assert manifest.detector_errors == {}
    assert manifest.timings.get("fn_assembly") is None or manifest.timings["fn_assembly"] >= 0
    outdir = tmp_path / manifest.config_hash
    assert (outdir / "summary.json").exists()
    assert (outdir / "manifest.json").exists()


def _scan_config(tmp_path, use_cache=True, seed=0):
    return RunConfig(
        detectors=["sigma_scan"],
        kgrid={"type": "logpolar", "rmin": 1e-2, "rmax": 0.5, "nr": 3, "nphi": 2},
        outdir=str(tmp_path),
        seed=seed,
        workers=2,
        use_cache=use_cache,
    )


def test_scan_run_deterministic(tmp_path):
    cfg = _scan_config(tmp_path / "a")
    m1 = run(cfg)
    csv1 = (tmp_path / "a" / m1.config_hash / "scan.csv").read_bytes()
    cfg2 = _scan_config(tmp_path / "b")
    m2 = run(cfg2)
    csv2 = (tmp_path / "b" / m2.config_hash / "scan.csv").read_bytes()
    assert csv1 == csv2
    assert not m1.detector_errors


def test_cache_transparency(tmp_path):
    m_cached = run(_scan_config(tmp_path / "with"))
    m_plain = run(RunConfig(**{**_scan_config(tmp_path / "without").to_dict(), "use_cache": False}))
    a = (tmp_path / "with" / m_cached.config_hash / "scan.csv").read_bytes()
    b = (tmp_path / "without" / m_plain.config_hash / "scan.csv").read_bytes()
    assert a == b


def test_cache_speedup_and_eviction(tmp_path):
    """Reading the stored F_n for a fresh Potential of equal values (sampled beforehand) is
    >= 10x faster than solving it; corruption rebuilds."""
    cache = OperatorCache(tmp_path / "cache")
    nodes = sample(make_circle(1.0), 128)

    def pot():
        return standard_conductive(amplitude=1.5, power=4)  # not shared with other tests

    t0 = time.perf_counter()
    assemble_Fn(nodes, pot(), store=cache)
    cold = time.perf_counter() - t0

    fresh = pot()
    fn_key(nodes, fresh)   # its samples and their digest, kept on it
    t0 = time.perf_counter()
    assemble_Fn(nodes, fresh, store=cache)
    warm = time.perf_counter() - t0
    assert cold >= 10 * warm

    # corrupt the entry: it must be evicted and rebuilt with identical values
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1
    blob = bytearray(files[0].read_bytes())
    blob[-3] ^= 0xFF
    files[0].write_bytes(bytes(blob))
    mat = assemble_Fn(nodes, pot(), store=cache).matrix
    np.testing.assert_array_equal(mat, assemble_Fn(nodes, pot()).matrix)


def test_full_run_locus_and_manifest(tmp_path):
    cfg = RunConfig(
        detectors=["validate", "locus", "parity"],
        lam=0.05,
        locus_angles=4,
        outdir=str(tmp_path),
    )
    manifest = run(cfg)
    assert manifest.validation_passed
    assert not manifest.detector_errors
    outdir = tmp_path / manifest.config_hash
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["locus"]["max_ratio_error"] <= 0.3
    assert summary["locus"]["rays_traced"] == 1   # radial n on the circle: one ray, fanned out
    assert summary["parity"]["evidence"] is True
    inventory = json.loads((outdir / "manifest.json").read_text())["files"]
    assert set(inventory) >= {"config.json", "locus.csv", "summary.json"}


def test_validate_runs_on_the_run_nodes(tmp_path, monkeypatch):
    """A run samples its curve at N once: validate reads the run's own NodeSet
    (and its k-independent operators) and samples only the 2N set of its own."""
    from faddeev_ep import geometry, harness, validate

    sizes = []

    def counted(curve, n):
        sizes.append(n)
        return geometry.sample(curve, n)

    for mod in (harness, validate):
        monkeypatch.setattr(mod, "sample", counted)
    manifest = run(RunConfig(detectors=["validate", "locus"], lam=0.05, locus_angles=2, n_nodes=64,
                             use_cache=False, outdir=str(tmp_path)))
    assert manifest.validation_passed and not manifest.detector_errors
    assert sorted(sizes) == [64, 128]


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    assert cli_main(["validate", "--n", "64"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", str(bad)]) == 1

    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({"detectors": [], "outdir": str(tmp_path / "runs")}))
    assert cli_main(["run", str(cfgpath)]) == 0


def test_cli_validate_reads_a_fourier_curve(tmp_path, capsys):
    """The unit circle as a Fourier table validates like --curve circle; without the
    table the command is a config error, not a traceback."""
    curve = tmp_path / "c.json"
    curve.write_text(json.dumps({"coeffs": {"1": [1.0, 0.0]}}))
    assert cli_main(["validate", "--curve", "fourier", "--curve-json", str(curve), "--n", "64"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert cli_main(["validate", "--curve", "fourier", "--n", "64"]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs", [{"1": [1.0]}, {"1": 1.0}, {"1": [1.0, "x"]}, {"1": [1.0, float("nan")]}],
                         ids=["short", "scalar", "string", "nan"])
def test_cli_refuses_a_malformed_fourier_coefficient(tmp_path, capsys, coeffs):
    """A Fourier coefficient that is not a pair [re, im] of finite numbers is a config error naming it."""
    curve = tmp_path / "c.json"
    curve.write_text(json.dumps({"coeffs": {"0": [0.0, 0.0], **coeffs}}))
    assert cli_main(["validate", "--curve", "fourier", "--curve-json", str(curve), "--n", "32"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "coefficient '1'" in err


@pytest.mark.parametrize("curve", [["--curve", "circle", "--radius", "1.25"],
                                   ["--curve", "ellipse", "--a", "1.5", "--b", "1.0"]])
def test_cli_validate_passes_off_the_unit_circle(capsys, curve):
    """The constants block of S_k^0 is 1/eps + c for a curve constant c, which is
    -(nu/2pi) ln R on a centred circle and 0 only on the unit circle."""
    assert cli_main(["validate", *curve, "--n", "64"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_validate_checks_F0_on_harmonic_traces(monkeypatch):
    """A wrong K' in F_0 = (K' + I/2) B^{-1} fails the harmonic-trace check.  It cancels in
    F_0 - F_b^out = B^{-1} P_perp, so the identity (F_0 - F_b^out) B = I on mean-free, which
    that check replaced, passes the same mutation."""
    from faddeev_ep import dtn_maps
    from faddeev_ep.boundary_ops import assemble_B, mean_projectors
    from faddeev_ep.validate import run_validation

    name = "F_0 maps Re, Im z^m (m = 1..4) to their normal derivatives"
    assert {c.name: c for c in run_validation(sample(make_ellipse(1.5, 1.0), 64))}[name].passed
    kprime = dtn_maps.adjoint_double_layer
    monkeypatch.setattr(dtn_maps, "adjoint_double_layer", lambda nodes: 1.01 * kprime(nodes))
    nodes = sample(make_ellipse(1.5, 1.0), 64)
    assert not {c.name: c for c in run_validation(nodes)}[name].passed
    binv = dtn_maps.assemble_F0(nodes).matrix - dtn_maps.assemble_Fout_bounded(nodes).matrix
    _, pp = mean_projectors(nodes)
    assert np.linalg.norm((binv @ assemble_B(nodes).matrix - pp) @ pp, 2) <= 1e-8


def test_validate_checks_Fout_bounded_on_exterior_harmonics():
    """A B^{-1} off by 1% fails F_b^out on the traces of Re, Im z^-m (about 1e-2).  The check
    it replaced, F^out(0) 1 = 0, reads P_perp (F_0 - B^{-1}) P_perp 1, which vanishes by
    construction and passes the same mutation.  The mutation is made to the NodeSet's one B^{-1},
    which F_0, F_b^out and S_ref^{-1} all read."""
    from faddeev_ep.boundary_ops import invert_on_meanfree
    from faddeev_ep.validate import run_validation

    name = "F_b^out maps Re, Im z^-m (m = 1..4) to their normal derivatives"
    assert {c.name: c for c in run_validation(sample(make_circle(1.0), 64))}[name].passed
    nodes = sample(make_circle(1.0), 64)
    nodes.memo["meanfree_inverse"] = 1.01 * invert_on_meanfree(nodes)
    assert {c.name: c for c in run_validation(nodes)}[name].measured >= 1e-3
    assert np.max(np.abs(dtn_maps.assemble_Fout_zero(nodes).matrix @ np.ones(64))) <= 1e-8


def test_validate_checks_S_k_against_its_closed_form_jump(monkeypatch):
    """A wrong Green remainder in S_k, here assemble_S's Gauss-Legendre weights for Ein scaled
    by 1.01 (which scales N(w) by 1.01), fails F_0 S_k = K_k' + I/2, whose K_k' is closed-form.
    F^out(k) = F_0 - S_k^{-1} is built from the same S_k, so the identity
    (F_0 - F^out(k)) S_k = I, which that check replaced, passes the same mutation."""
    from faddeev_ep import boundary_ops
    from faddeev_ep.dtn_maps import assemble_F0, assemble_Fout
    from faddeev_ep.validate import run_validation

    name = "F_0 S_k = K_k' + I/2 on cos mt, sin mt (m = 0..4)"
    assert {c.name: c for c in run_validation(sample(make_circle(1.0), 64))}[name].passed
    rule = boundary_ops.gauss_legendre
    monkeypatch.setattr(boundary_ops, "gauss_legendre", lambda m: (rule(m)[0], 1.01 * rule(m)[1]))
    nodes = sample(make_circle(1.0), 64)
    assert {c.name: c for c in run_validation(nodes)}[name].measured >= 1e-3
    f0 = assemble_F0(nodes).matrix
    for i, r in enumerate(np.geomspace(1e-3, 1.0, 10)):
        ws = boundary_ops.KWorkspace(KPoint.from_polar_log(np.log(r), (i % 4) * np.pi / 3), nodes)
        resid = (f0 - assemble_Fout(ws, nodes).matrix) @ ws.s.matrix - np.eye(64)
        assert np.linalg.norm(resid, 2) <= 1e-8


@pytest.mark.parametrize("curve", [make_circle(1.0), make_ellipse(1.5, 1.0)], ids=["circle", "ellipse"])
def test_validate_checks_the_inverse_of_S_k_through_its_blocks(monkeypatch, curve):
    """The update of S_k^{-1} without its last column of X, the constant column that carries ln|k|,
    inverts S_ref + (the other Ein terms) instead of S_k (its Newton step too): its constants block is then off eps by more
    than eps itself (8.2 eps on the ellipse, 11 eps on the circle), and the cc check fails.  Its perp block then takes the coupling (B^{-1} p)(b B^{-1}) with weight 1 for
    eps/(1 + s eps); that fails the perp check off circles, where b and p are not 0."""
    from faddeev_ep import boundary_ops
    from faddeev_ep.validate import run_validation

    names = ("cc of S_k^{-1} = eps/(1 + s eps), relative to eps",
             "perp block of S_k^{-1} = B^{-1} + cc (B^{-1} p)(b B^{-1})")
    assert all({c.name: c for c in run_validation(sample(curve, 64))}[name].passed for name in names)
    update = boundary_ops.updated_inverse
    monkeypatch.setattr(boundary_ops, "updated_inverse", lambda ref_inv, u, vt, mat, *args: update(
        ref_inv, u[:, :-1], vt[:-1], lambda: mat() - np.outer(u[:, -1], vt[-1]), *args))
    nodes = sample(curve, 64)
    checks = {c.name: c for c in run_validation(nodes)}
    assert checks[names[0]].measured >= 1.0
    assert checks[names[1]].passed == nodes.centred_circle


def test_cli_scan_subcommand(tmp_path, capsys):
    rc = cli_main([
        "scan", "--n", "64", "--rmin", "0.05", "--rmax", "0.5", "--nr", "2", "--nphi", "2",
        "--outdir", str(tmp_path), "--workers", "1",
    ])
    assert rc == 0
    runs = [d for d in (tmp_path).iterdir() if (d / "scan.csv").exists()]
    assert len(runs) == 1
    header = (runs[0] / "scan.csv").read_text().splitlines()[0]
    assert header == "k_re,k_im,eps,sigma_min_A,eig_near_zero,sigma_min_P,n_minus,flags"


def test_lambda_perturbs_only_a_conductive_potential(tmp_path):
    doc = {"potential": {"kind": "absorbing", "delta": 1.0}, "lam": 0.05,
           "detectors": ["sigma_scan"], "outdir": str(tmp_path)}
    with pytest.raises(ValueError, match="conductive"):
        RunConfig.from_dict(doc)
    with pytest.raises(ValueError, match="conductive"):
        run(RunConfig(**doc))
    assert cli_main(["scan", "--potential", "absorbing", "--lam", "0.05", "--outdir", str(tmp_path)]) == 1
    assert not any(tmp_path.iterdir())
    assert RunConfig.from_dict({**doc, "lam": 0.0}).lam == 0.0
    with pytest.raises(ValueError, match="conductive"):
        RunConfig.from_dict({**doc, "lam": 0.0, "omega": {"profile": "poly_cos"}})


def test_cli_subcommand_config_error_exits_1(tmp_path, capsys):
    assert cli_main(["scan", "--n", "33", "--outdir", str(tmp_path)]) == 1
    assert "n_nodes must be even" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("curve, message", [({"name": "ellipse"}, "incomplete"),
                                            ({"name": "trefoil"}, "unknown curve name")])
def test_cli_run_rejects_a_bad_curve_before_running(tmp_path, capsys, curve, message):
    """An ellipse without its axes, or an unknown curve name, is a config error (exit 1)."""
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({"curve": curve, "detectors": [], "outdir": str(tmp_path / "runs")}))
    assert cli_main(["run", str(cfgpath)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not (tmp_path / "runs").exists()


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FADDEEV_EP_CACHE", str(tmp_path / "envcache"))
    cfg = _scan_config(tmp_path / "runs")
    run(cfg)
    assert (tmp_path / "envcache").exists()


def _count_calls(monkeypatch, module, name):
    """Record the first argument of every call of a package function, through
    every module binding that holds it."""
    fn = getattr(importlib.import_module(f"faddeev_ep.{module}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "faddeev_ep" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_one_assembly_per_scan_point_and_one_trace_per_transform_point(tmp_path, monkeypatch):
    """Every scan and transform point builds its Ein factors and S_k once, and inverts that S_k once."""
    factor_calls = _count_calls(monkeypatch, "boundary_ops", "_ein_factors")
    s_calls = _count_calls(monkeypatch, "boundary_ops", "assemble_S")
    inv_calls = _count_calls(monkeypatch, "boundary_ops", "invert_S")
    p_calls = _count_calls(monkeypatch, "exceptional", "assemble_P")
    u_calls = _count_calls(monkeypatch, "transform", "trace_u")
    cfg = RunConfig(n_nodes=64, detectors=["sigma_scan", "transform"], outdir=str(tmp_path), workers=2,
                    kgrid={"type": "list", "values": [[0.3, 0.2], [0.0, 0.7], [4.0, 0.0]]},
                    transform_krange={"rmin": 1e-4, "rmax": 1e-2, "n": 3, "phi": 0.9})
    manifest = run(cfg)
    assert not manifest.detector_errors
    assert len({(k.log_abs, k.phi) for k in s_calls}) == len(s_calls) == 3 + 3
    assert factor_calls == s_calls
    assert len(inv_calls) == 3 + 3 and len(p_calls) == 3 + 3   # the transform builds P through assemble_P
    assert len({(k.log_abs, k.phi) for k in u_calls}) == len(u_calls) == 3
    rows = (tmp_path / manifest.config_hash / "transform.csv").read_text().splitlines()[1:]
    log_abs = [float(r.split(",")[2]) for r in rows]
    assert log_abs == sorted(log_abs) and len(log_abs) == 3   # config order, inner to outer


def test_a_two_worker_scan_builds_the_laplace_pieces_once(tmp_path, monkeypatch):
    """run builds F_0, and with it the NodeSet's log kernel and B^{-1}, before the scan's two threads
    start, so no thread finds the memo empty: one B^{-1} in all, which S_ref^{-1} reads too.  Each
    B^{-1} forms B once (assemble_B), and each B is slowed by 0.1 s, so two threads that both found
    the memo empty would both be counted."""
    from faddeev_ep import boundary_ops

    calls = _count_calls(monkeypatch, "boundary_ops", "assemble_B")
    counted = boundary_ops.assemble_B
    monkeypatch.setattr(boundary_ops, "assemble_B", lambda nodes: time.sleep(0.1) or counted(nodes))
    cfg = RunConfig(n_nodes=64, detectors=["sigma_scan"], outdir=str(tmp_path), workers=2,
                    kgrid={"type": "list", "values": [[0.3, 0.2], [0.0, 0.7], [0.5, 0.0], [0.1, 0.1]]})
    manifest = run(cfg)
    assert not manifest.detector_errors
    assert len(calls) == 1


def test_a_two_worker_scan_builds_the_layer_reference_once(tmp_path, monkeypatch):
    """run builds the NodeSet's G = S_ref^{-1} before the scan's two threads start.  Its build is
    the one caller of BlockForm.reassemble, slowed by 0.1 s, so two threads that both found the
    memo without it would both be counted."""
    from faddeev_ep import boundary_ops

    calls = []
    reassemble = boundary_ops.BlockForm.reassemble
    monkeypatch.setattr(boundary_ops.BlockForm, "reassemble",
                        lambda self: calls.append(self) or time.sleep(0.1) or reassemble(self))
    cfg = RunConfig(n_nodes=64, detectors=["sigma_scan"], outdir=str(tmp_path), workers=2,
                    kgrid={"type": "list", "values": [[0.3, 0.2], [0.0, 0.7], [0.5, 0.0], [0.1, 0.1]]})
    manifest = run(cfg)
    assert not manifest.detector_errors
    assert len(calls) == 1


def test_xi_fit_grid_is_served_by_the_disk_cache(tmp_path, monkeypatch):
    """The run routes the F_n of every lambda of the xi_fit grid through its store:
    a second run on the same cache directory solves no interior problem."""
    from faddeev_ep.disk_solver import DiskDtnSolver

    cfg = RunConfig(n_nodes=64, detectors=["xi_fit"], outdir=str(tmp_path / "runs"),
                    cache_dir=str(tmp_path / "cache"))
    first = run(cfg)   # the second run builds its own Potential objects, with empty memos
    solves = []
    dtn_matrix = DiskDtnSolver.dtn_matrix

    def counted(self, *args, **kwargs):
        solves.append(args)
        return dtn_matrix(self, *args, **kwargs)

    monkeypatch.setattr(DiskDtnSolver, "dtn_matrix", counted)
    second = run(cfg)
    assert not first.detector_errors and not second.detector_errors
    assert solves == []
    summaries = [json.loads((tmp_path / "runs" / m.config_hash / "summary.json").read_text()) for m in (first, second)]
    assert summaries[0]["xi_fit"] == summaries[1]["xi_fit"]


def test_an_Fn_solved_without_a_store_is_still_written_to_the_cache_directory(tmp_path):
    """An F_n solved earlier without a store, on a Potential of equal values, does not keep
    the run's cache directory empty: all five F_n of an N = 64 xi_fit run (the base potential
    at lambda = 0 and the four nonzero lambdas of the grid) land on disk."""
    cfg = RunConfig(n_nodes=64, detectors=["xi_fit"], outdir=str(tmp_path / "runs"),
                    cache_dir=str(tmp_path / "cache"))
    base, _ = build_potential(cfg)
    assemble_Fn(sample(make_circle(1.0), 64), base)
    assert not run(cfg).detector_errors
    assert len(list((tmp_path / "cache").glob("*.op"))) == 5


def test_a_transform_run_records_its_worst_route_residual(tmp_path):
    """Every transform point solves both routes; the run keeps the worst cross-route residual (A10's
    quantity, on the run's own points) in summary.json, and transform.csv keeps its columns."""
    cfg = RunConfig(n_nodes=32, detectors=["transform"], outdir=str(tmp_path), use_cache=False,
                    transform_krange={"n": 4})
    manifest = run(cfg)
    outdir = tmp_path / manifest.config_hash
    recorded = json.loads((outdir / "summary.json").read_text())["transform"]["max_route_residual"]
    pot, _ = build_potential(cfg)
    nodes = sample(make_circle(1.0), 32)
    tk = cfg.transform_krange
    expected = max(trace_u(KPoint.from_polar_log(np.log(r), tk["phi"]), pot, nodes).residual
                   for r in np.geomspace(tk["rmin"], tk["rmax"], tk["n"]))
    assert recorded == expected and 0 < recorded < 1e-6
    header = (outdir / "transform.csv").read_text().splitlines()[0]
    assert header == "k_re,k_im,log_abs_k,t_re,t_im,bound_product"


def test_refused_transform_point_is_a_detector_error(tmp_path):
    cfg = RunConfig(n_nodes=64, detectors=["transform"], outdir=str(tmp_path),
                    transform_krange={"rmin": 1e-2, "rmax": 4.0, "n": 3, "phi": 0.0})
    manifest = run(cfg)
    assert manifest.detector_errors["transform"].startswith("NearSingularError")
    assert not (tmp_path / manifest.config_hash / "transform.csv").exists()


def test_unsupported_curve_is_recorded_not_raised(tmp_path):
    """F_n exists only on the unit disk: on a radius-2 circle the detectors record
    the refusal (per row for the scan) instead of run raising before them."""
    cfg = RunConfig(curve={"name": "circle", "radius": 2.0}, n_nodes=32, outdir=str(tmp_path),
                    detectors=["sigma_scan", "parity"], kgrid={"type": "list", "values": [[0.3, 0.0]]})
    manifest = run(cfg)
    assert "fn_assembly" not in manifest.timings
    assert manifest.detector_errors["parity"].startswith("NotImplementedError")
    rows = (tmp_path / manifest.config_hash / "scan.csv").read_text().splitlines()
    assert rows[1].endswith("criterion_failed:NotImplementedError;parity_failed:NotImplementedError")


def test_a_raster_with_real_angular_modes_and_a_complex_n_scans(tmp_path):
    """A 9 x 9 raster of 1 + 0.3i y on a grid symmetric in y has real angular modes; its complex
    F_n used to be refused as having lost realness, failing every detector that reads F_n."""
    y = np.linspace(-1.0, 1.0, 9)
    raster = tmp_path / "tilted.json"
    raster.write_text(json.dumps({"x0": -1.0, "y0": -1.0, "dx": 0.25, "dy": 0.25,
                                  "re": [[1.0] * 9] * 9, "im": [[0.3 * v] * 9 for v in y]}))
    cfg = RunConfig(n_nodes=32, potential={"kind": "raster", "path": str(raster)}, outdir=str(tmp_path / "runs"),
                    detectors=["sigma_scan"], use_cache=False, kgrid={"type": "list", "values": [[0.3, 0.0]]})
    with pytest.warns(UserWarning, match="real potentials"):   # n^- of a complex n, recorded anyway
        manifest = run(cfg)
    assert manifest.detector_errors == {}
    rows = (tmp_path / "runs" / manifest.config_hash / "scan.csv").read_text().splitlines()
    assert len(rows) == 2


def test_resonant_potential_is_a_detector_error_not_a_traceback(tmp_path):
    """A raster of constant j01^2 makes the interior solve near-resonant: the up-front F_n
    refusal is recorded for each detector that reads F_n, validate still runs, and
    summary.json and manifest.json are written."""
    from scipy.special import jn_zeros

    value = jn_zeros(0, 1)[0] ** 2
    raster = tmp_path / "resonant.json"
    raster.write_text(json.dumps({"x0": -1.0, "y0": -1.0, "dx": 2.0, "dy": 2.0, "re": [[value] * 2] * 2}))
    cfg = RunConfig(n_nodes=32, potential={"kind": "raster", "path": str(raster)}, outdir=str(tmp_path / "runs"),
                    detectors=["validate", "sigma_scan", "parity"], use_cache=False,
                    kgrid={"type": "list", "values": [[0.3, 0.0]]})
    manifest = run(cfg)
    assert sorted(manifest.detector_errors) == ["parity", "sigma_scan"]
    assert all(e.startswith("InteriorResonanceError") for e in manifest.detector_errors.values())
    assert manifest.validation_passed is not None
    outdir = tmp_path / "runs" / manifest.config_hash
    assert (outdir / "summary.json").exists() and (outdir / "manifest.json").exists()
    assert not (outdir / "scan.csv").exists()


#: every potential class the harness builds, as its config fields; a raster's grid is written per test
CLASSES = {
    "zero": {"potential": {"kind": "zero"}},
    "conductive": {"lam": 0.05},
    "conductive_poly_cos": {"lam": 0.05, "omega": {"profile": "poly_cos"}},
    "absorbing": {"potential": {"kind": "absorbing"}},
    "raster_real": {"potential": {"kind": "raster"}},
    "raster_complex": {"potential": {"kind": "raster"}},
}
ALL_DETECTORS = ("validate", "sigma_scan", "locus", "xi_fit", "parity", "transform")
#: the scan flags a row may carry besides its numbers; a *_failed flag is an error, not a refusal
SCAN_FLAGS = {"kernel", "ed_refused", "near_exceptional"}


def _class_config(tmp_path, name: str) -> dict:
    """The N = 32 config of one class, with three scan points, two locus rays and four transform points."""
    doc = {"n_nodes": 32, "use_cache": False, "workers": 1, "locus_angles": 2, "outdir": str(tmp_path / "runs"),
           "kgrid": {"type": "list", "values": [[0.3, 0.0], [0.05, 0.05], [1.0, 0.5]]},
           "transform_krange": {"n": 4}, **CLASSES[name]}
    if name.startswith("raster"):
        rng = np.random.default_rng(5)
        raster = {"x0": -1.0, "y0": -1.0, "dx": 0.5, "dy": 0.5, "re": rng.uniform(0.5, 1.5, (5, 5)).tolist()}
        if name == "raster_complex":
            raster["im"] = rng.uniform(0.1, 0.5, (5, 5)).tolist()
        (tmp_path / "raster.json").write_text(json.dumps(raster))
        doc["potential"] = {"kind": "raster", "path": str(tmp_path / "raster.json")}
    return doc


def _reject(constant):
    raise AssertionError(f"summary.json holds {constant}")


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_every_potential_class_reaches_every_detector(tmp_path, recwarn, name):
    """ROADMAP 17, first slice: each class asks for all six detectors.  Only a conductive potential
    takes lam > 0, so any other class gets the locus's config error and runs the other five, where
    xi_fit records that it needs a conductive base.  Every other cell answers with finite numbers,
    and the one warning is n^-'s for a complex P(k)."""
    doc = _class_config(tmp_path, name)
    detectors = list(ALL_DETECTORS)
    errors = {}
    if "lam" not in doc:
        with pytest.raises(ValueError, match="locus tracing expects 0 < lambda"):
            RunConfig(detectors=detectors, **doc)
        detectors.remove("locus")
        errors = {"xi_fit": "ValueError: xi_fit detector needs a conductive base potential"}
    manifest = run(RunConfig(detectors=detectors, **doc))
    assert manifest.detector_errors == errors and manifest.validation_passed
    outdir = tmp_path / "runs" / manifest.config_hash
    summary = json.loads((outdir / "summary.json").read_text(), parse_constant=_reject)
    assert {"validation" if d == "validate" else d for d in detectors} - set(errors) <= set(summary)
    assert summary["transform"]["valid"] and summary["sigma_scan"]["points"] == 3
    rows = (outdir / "scan.csv").read_text().splitlines()[1:]
    for row in rows:
        *numbers, flags = row.split(",")
        assert all(np.isfinite(float(v)) for v in numbers) and set(filter(None, flags.split(";"))) <= SCAN_FLAGS
    for table in ("transform.csv", "locus.csv"):
        if (outdir / table).exists():
            body = [v for row in (outdir / table).read_text().splitlines()[1:] for v in row.split(",")]
            assert body and all(np.isfinite(float(v)) for v in body), table
    assert {str(w.message) for w in recwarn} <= {
        "n^- is defined for real potentials; counts for complex n are not meaningful"}


@pytest.mark.parametrize("name", ["zero", "conductive", "conductive_poly_cos", pytest.param(
    "raster_real", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a real n whose samples are not "
                                           "mirror-symmetric is solved in complex arithmetic"))])
def test_a_real_class_gets_a_real_Fn(tmp_path, name):
    """A real potential has a real F_n, so a real P(k) and a count n^- that does not warn."""
    pot, _ = build_potential(RunConfig(**_class_config(tmp_path, name)))
    assert np.isrealobj(assemble_Fn(sample(make_circle(1.0), 32), pot).matrix)

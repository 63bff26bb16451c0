"""Command-line entry point: faddeev-ep run | validate | scan | locus | parity | transform.

``scan``, ``locus``, ``parity`` and ``transform`` write their flags into a config
document and run it as ``faddeev-ep run`` runs a config file.  The potential and
perturbation flags have no defaults here: a spec holds only the flags given, and
the builders supply the rest.

Exit codes: 0 success, 1 config/setup error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .geometry import curve_by_name, sample
from .harness import RunConfig, run
from .validate import run_validation


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curve", default="circle", help="circle | ellipse | kite | fourier")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--a", type=float, default=2.0, help="ellipse semi-axis a")
    p.add_argument("--b", type=float, default=1.0, help="ellipse semi-axis b")
    p.add_argument("--curve-json", default=None, help="Fourier-coefficient JSON for --curve fourier")
    p.add_argument("--n", type=int, default=128, help="boundary node count (even)")
    p.add_argument("--outdir", default="runs")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--potential", help="conductive | absorbing | zero | raster")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--power", type=int)
    p.add_argument("--delta", type=float, help="absorption strength")
    p.add_argument("--raster", help="raster JSON path for --potential raster")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.0, help="perturbation strength")
    p.add_argument("--omega", help="radial_poly | poly_cos")
    p.add_argument("--omega-cos", type=float, help="cos-theta coefficient of the perturbation")


# flag -> (config field, builder keyword)
_BUILDER_FLAGS = {"potential": ("potential", "kind"), "amplitude": ("potential", "amplitude"),
                  "power": ("potential", "power"), "delta": ("potential", "delta"),
                  "raster": ("potential", "path"), "omega": ("omega", "profile"),
                  "omega_cos": ("omega", "cos_coeff")}


def _curve_dict(args) -> dict:
    if args.curve == "circle":
        return {"name": "circle", "radius": args.radius}
    if args.curve == "ellipse":
        return {"name": "ellipse", "a": args.a, "b": args.b}
    if args.curve == "kite":
        return {"name": "kite"}
    if args.curve == "fourier":
        if not args.curve_json:
            raise ValueError("--curve fourier needs --curve-json")
        return {"name": "fourier", "path": args.curve_json}
    raise ValueError(f"unknown curve {args.curve!r}")


def _config_doc(args) -> dict:
    """The config document of a scan, locus, parity or transform command.  A builder
    flag that is not given is left out, so the config's or the builder's default holds."""
    doc = {"curve": _curve_dict(args), "n_nodes": args.n, "lam": args.lam, "outdir": args.outdir,
           "detectors": ["sigma_scan" if args.command == "scan" else args.command],
           "workers": args.workers, "use_cache": not args.no_cache}
    for flag, (name, key) in _BUILDER_FLAGS.items():
        if getattr(args, flag) is not None:
            doc.setdefault(name, {})[key] = getattr(args, flag)
    if args.command == "scan":
        doc["kgrid"] = {"type": "logpolar", "rmin": args.rmin, "rmax": args.rmax, "nr": args.nr, "nphi": args.nphi}
    if args.command == "locus":
        doc["locus_angles"] = args.angles
    if args.command == "transform":
        doc["transform_krange"] = {"rmin": args.rmin, "rmax": args.rmax, "n": args.nk, "phi": args.phi}
    return doc


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="faddeev-ep",
                                     description="Exceptional-point detectors for the zero-energy "
                                                 "Faddeev scattering problem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run configuration")
    p_run.add_argument("config", help="path to config.json")
    p_run.add_argument("--outdir", default=None, help="override the config's output directory")

    p_val = sub.add_parser("validate", help="run the operator-identity suite")
    _add_common(p_val)

    for name, helptext in [
        ("scan", "sigma_min / parity scan over a k-grid"),
        ("locus", "trace the exceptional locus eps*(phi)"),
        ("parity", "parity test across the predicted locus"),
        ("transform", "scattering transform t(k) along a k-sequence"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "scan":
            p.add_argument("--rmin", type=float, default=1e-3)
            p.add_argument("--rmax", type=float, default=1.0)
            p.add_argument("--nr", type=int, default=16)
            p.add_argument("--nphi", type=int, default=8)
        if name == "locus":
            p.add_argument("--angles", type=int, default=16)
        if name == "transform":
            p.add_argument("--rmin", type=float, default=1e-6)
            p.add_argument("--rmax", type=float, default=1e-2)
            p.add_argument("--nk", type=int, default=9)
            p.add_argument("--phi", type=float, default=0.9)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = RunConfig.from_json(args.config)
            if args.outdir:
                cfg.outdir = args.outdir
        elif args.command == "validate":
            checks = run_validation(sample(curve_by_name(**_curve_dict(args)), args.n))
            for c in checks:
                print(c.line())
            return 0 if all(c.passed for c in checks) else 2
        else:
            cfg = RunConfig.from_dict(_config_doc(args))
        manifest = run(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"config_hash": manifest.config_hash, "timings": manifest.timings,
                      "errors": manifest.detector_errors}, indent=2, sort_keys=True))
    if manifest.validation_passed is False:
        return 2
    if manifest.detector_errors:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: faddeev-ep run | validate | scan | locus | parity | transform.

``scan``, ``locus``, ``parity`` and ``transform`` write their flags into a config
document through one table, :data:`_FLAGS`, and run it as ``faddeev-ep run`` runs
a config file.  No flag has a default of its own: a flag that is not given is
left out of the document, so RunConfig's field defaults and the builders'
signatures are the only defaults.  ``validate`` takes the curve flags and
``--n`` only, and builds its node set from the same document.

Exit codes: 0 success, 1 config/setup error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .geometry import sample
from .harness import RunConfig, build_curve, run
from .validate import run_validation

# flags -> (config field, key in that field's dict or None for the field itself, argparse keywords)
_CURVE_FLAGS = {
    "--curve": ("curve", "name", {"help": "circle | ellipse | kite | fourier"}),
    "--radius": ("curve", "radius", {"type": float, "help": "circle radius"}),
    "--a": ("curve", "a", {"type": float, "help": "ellipse semi-axis a"}),
    "--b": ("curve", "b", {"type": float, "help": "ellipse semi-axis b"}),
    "--curve-json": ("curve", "path", {"help": "Fourier-coefficient JSON for --curve fourier"}),
    "--n": ("n_nodes", None, {"type": int, "help": "boundary node count (even)"}),
}
_RUN_FLAGS = {
    **_CURVE_FLAGS,
    "--outdir": ("outdir", None, {}),
    "--workers": ("workers", None, {"type": int, "help": "threads of the scan"}),
    "--no-cache": ("use_cache", None, {"action": "store_const", "const": False}),
    "--potential": ("potential", "kind", {"help": "conductive | absorbing | zero | raster"}),
    "--amplitude": ("potential", "amplitude", {"type": float}),
    "--power": ("potential", "power", {"type": int}),
    "--delta": ("potential", "delta", {"type": float, "help": "absorption strength"}),
    "--raster": ("potential", "path", {"help": "raster JSON path for --potential raster"}),
    "--lam --lambda": ("lam", None, {"type": float, "help": "perturbation strength"}),
    "--omega": ("omega", "profile", {"help": "radial_poly | poly_cos"}),
    "--omega-cos": ("omega", "cos_coeff", {"type": float, "help": "cos-theta coefficient of the perturbation"}),
}
_FLAGS = {
    "validate": _CURVE_FLAGS,
    "scan": {**_RUN_FLAGS,
             "--rmin": ("kgrid", "rmin", {"type": float}),
             "--rmax": ("kgrid", "rmax", {"type": float}),
             "--nr": ("kgrid", "nr", {"type": int}),
             "--nphi": ("kgrid", "nphi", {"type": int})},
    "locus": {**_RUN_FLAGS,
              "--angles": ("locus_angles", None, {"type": int})},
    "parity": _RUN_FLAGS,
    "transform": {**_RUN_FLAGS,
                  "--rmin": ("transform_krange", "rmin", {"type": float}),
                  "--rmax": ("transform_krange", "rmax", {"type": float}),
                  "--nk": ("transform_krange", "n", {"type": int}),
                  "--phi": ("transform_krange", "phi", {"type": float})},
}
_HELP = {"validate": "run the operator-identity suite",
         "scan": "sigma_min / parity scan over a k-grid",
         "locus": "trace the exceptional locus eps*(phi)",
         "parity": "parity test across the predicted locus",
         "transform": "scattering transform t(k) along a k-sequence"}


def _dest(flags: str) -> str:
    return flags.split()[0][2:].replace("-", "_")


def _config_doc(args) -> dict:
    """The config document of a command: each flag given is written under its field, and
    RunConfig lays a dict field given in part over that field's default."""
    doc = {}
    if args.command != "validate":
        doc["detectors"] = ["sigma_scan" if args.command == "scan" else args.command]
    for flags, (name, key, _) in _FLAGS[args.command].items():
        value = getattr(args, _dest(flags))
        if value is None:
            continue
        if key is None:
            doc[name] = value
        else:
            doc.setdefault(name, {})[key] = value
    return doc


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="faddeev-ep",
                                     description="Exceptional-point detectors for the zero-energy "
                                                 "Faddeev scattering problem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run configuration")
    p_run.add_argument("config", help="path to config.json")
    p_run.add_argument("--outdir", help="override the config's output directory")

    for name, flags in _FLAGS.items():
        p = sub.add_parser(name, help=_HELP[name])
        for names, (_, _, kwargs) in flags.items():
            p.add_argument(*names.split(), dest=_dest(names), **kwargs)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = RunConfig.from_json(args.config)
            if args.outdir:
                cfg.outdir = args.outdir
        else:
            cfg = RunConfig.from_dict(_config_doc(args))
        if args.command == "validate":
            checks = run_validation(sample(build_curve(cfg), cfg.n_nodes))
            for c in checks:
                print(c.line())
            return 0 if all(c.passed for c in checks) else 2
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

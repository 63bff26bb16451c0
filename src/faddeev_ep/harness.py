"""Batch experiment driver: configs, operator cache, detectors, artifacts.

A run is described by a JSON-serializable RunConfig.  Its field defaults and
the builders' signatures are the only defaults: a config document names only
what differs from them, and the curve, potential and omega specs hold only the
builder parameters given.  :func:`run` builds the curve and the potential once,
before it writes anything.  Outputs land in <outdir>/<confighash>/ as
plot-ready CSV files plus config.json (the document), summary.json (every
field, tolerance and grid parameter in force) and manifest.json (config hash,
versions, timings, file checksums, embedded validation results).  Re-running
an identical config reproduces the CSV files byte for byte.
"""

from __future__ import annotations

import csv
import json
import logging
import numbers
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, sha256
from .boundary_ops import SINGULARITY_THRESHOLD, NearSingularError, OperatorCache, layer_reference
from .disk_solver import CONDITION_LIMIT, InteriorResonanceError
from .dtn_maps import (
    PerturbedFamily,
    Potential,
    absorbing_potential,
    assemble_F0,
    assemble_Fn,
    fn_supported,
    omega_poly_cos,
    omega_radial_poly,
    raster_potential,
    standard_conductive,
    zero_potential,
)
from .exceptional import (
    TOL_KER_REL,
    TOL_NEG,
    ScanResult,
    check_locus_lambda,
    mu_for_family,
    fit_xi,
    parity_path,
    scan,
    trace_locus,
)
from .geometry import BoundaryCurve, curve_by_name, sample
from .green import KPoint
from .transform import CONDITION_CAP, bound_check
from .validate import run_validation

__all__ = ["RunConfig", "RunManifest", "OperatorCache", "run", "build_curve", "build_potential", "kgrid_points"]

log = logging.getLogger("faddeev_ep")

_DETECTORS = ("validate", "sigma_scan", "locus", "xi_fit", "parity", "transform")

CACHE_ENV_VAR = "FADDEEV_EP_CACHE"

# the xi_fit grid: lambda in [-0.05, 0.05] and eps in [0, 0.05], 5 points each
_XI_LAMBDAS = np.linspace(-0.05, 0.05, 5)
_XI_EPSS = np.linspace(0.0, 0.05, 5)

# the dict fields, and those of them whose keys are builder parameters
_DICT_FIELDS = ("curve", "potential", "omega", "kgrid", "parity_eps", "transform_krange")
_BUILT_FIELDS = ("curve", "potential", "omega")
# the dict-field keys that take one of a fixed set of values
_CHOICES = {("kgrid", "type"): ("logpolar", "list"), ("parity_eps", "scale"): ("prediction", "absolute")}


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of one batch run; every field has a default.  The
    curve, potential and omega defaults name only the curve, the kind and the
    profile, so each builder parameter has its default in the builder's signature
    alone.  Frozen, so every field passes ``__post_init__``: ``dataclasses.replace`` checks again."""

    curve: dict = field(default_factory=lambda: {"name": "circle"})
    n_nodes: int = 128
    potential: dict = field(default_factory=lambda: {"kind": "conductive"})
    lam: float = 0.0
    omega: dict = field(default_factory=lambda: {"profile": "radial_poly"})
    kgrid: dict = field(default_factory=lambda: {"type": "logpolar", "rmin": 1e-3, "rmax": 1.0, "nr": 16, "nphi": 8})
    detectors: list = field(default_factory=lambda: ["validate"])
    locus_angles: int = 16
    parity_eps: dict = field(default_factory=lambda: {"eps_a": 0.5, "eps_b": 2.0, "phi": 0.0, "scale": "prediction"})
    transform_krange: dict = field(default_factory=lambda: {"rmin": 1e-6, "rmax": 1e-2, "n": 9, "phi": 0.9})
    outdir: str = "runs"
    seed: int = 0
    workers: int = 4
    use_cache: bool = True
    cache_dir: str = ""

    def __post_init__(self) -> None:
        """Lay each dict field over its default, so a dict given in part means what the
        same flags mean on the command line, and check every field: an invalid config is
        a ValueError here, before :func:`run` writes anything.  A key a dict field does
        not take is an error.  The curve, potential and omega take their builder's
        parameters, which the builders check when :func:`run` builds them, once; a list
        kgrid takes exactly its type and values, and the kgrid type and the parity_eps
        scale take one of their _CHOICES."""
        for name in _DICT_FIELDS:
            given, default = getattr(self, name), self.__dataclass_fields__[name].default_factory()
            if not isinstance(given, dict):
                raise ValueError(f"config field {name} must be a dict, got {given!r}")
            if name == "kgrid" and given.get("type") == "list":
                if set(given) != {"type", "values"}:
                    raise ValueError(f"a list kgrid takes exactly the keys type and values, got {sorted(given)}")
                continue
            foreign = set() if name in _BUILT_FIELDS else set(given) - set(default)
            if foreign:
                raise ValueError(f"{name} takes no key {sorted(foreign)}; its keys are {sorted(default)}")
            object.__setattr__(self, name, {**default, **given})
        for (name, key), valid in _CHOICES.items():
            if getattr(self, name)[key] not in valid:
                raise ValueError(f"{name} {key} must be one of {valid}, got {getattr(self, name)[key]!r}")
        unknown = [d for d in self.detectors if d not in _DETECTORS]
        if unknown:
            raise ValueError(f"unknown detectors {unknown}; valid: {_DETECTORS}")
        if "locus" in self.detectors:
            check_locus_lambda(self.lam)
        if self.n_nodes < 16 or self.n_nodes % 2:
            raise ValueError(f"n_nodes must be even and >= 16, got {self.n_nodes}")
        counts = {"workers": self.workers, "locus_angles": self.locus_angles,
                  "transform_krange n": self.transform_krange["n"]}
        if self.kgrid["type"] == "logpolar":
            counts.update({"kgrid nr": self.kgrid["nr"], "kgrid nphi": self.kgrid["nphi"]})
        bad = {name: v for name, v in counts.items()
               if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1}
        if bad:
            raise ValueError(f"counts must be positive ints, got {bad}")
        kind, no_omega = self.potential["kind"], self.__dataclass_fields__["omega"].default_factory()
        if kind != "conductive" and (self.lam != 0.0 or self.omega != no_omega):
            raise ValueError(f"lam = {self.lam} and omega {self.omega} perturb a conductive potential "
                             f"only; a {kind!r} potential needs lam = 0 and no omega")

    def to_dict(self) -> dict:
        """The config document: the fields that differ from their defaults."""
        default = RunConfig()
        return {k: v for k, v in asdict(self).items() if v != getattr(default, k)}

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    config_hash: str
    versions: dict
    timings: dict
    files: dict
    validation_passed: bool | None
    detector_errors: dict


_POTENTIALS = {"zero": zero_potential, "conductive": standard_conductive,
               "absorbing": absorbing_potential, "raster": raster_potential}
_PROFILES = {"radial_poly": omega_radial_poly, "poly_cos": omega_poly_cos}


def build_curve(cfg: RunConfig) -> BoundaryCurve:
    """The config's curve; a missing, unknown or foreign parameter is a ValueError."""
    try:
        return curve_by_name(**cfg.curve)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"curve {cfg.curve} is incomplete or takes no such parameter "
                         f"({type(exc).__name__}: {exc})") from None


def build_potential(cfg: RunConfig) -> tuple[Potential, PerturbedFamily | None]:
    """Materialize the potential (and, for a conductive one, its perturbation
    family) from a config; every other key of a spec is its builder's parameter,
    and a key the builder does not take, or lacks, is a ValueError."""
    spec, om = dict(cfg.potential), dict(cfg.omega)
    kind, profile = spec.pop("kind"), om.pop("profile")
    if kind not in _POTENTIALS:
        raise ValueError(f"unknown potential kind {kind!r}; valid: {sorted(_POTENTIALS)}")
    if kind == "conductive" and profile not in _PROFILES:
        raise ValueError(f"unknown omega profile {profile!r}; valid: {sorted(_PROFILES)}")
    try:
        base = _POTENTIALS[kind](**spec)
        omega = _PROFILES[profile](**om) if kind == "conductive" else None
    except (KeyError, TypeError) as exc:   # a missing, misspelled or unknown parameter
        raise ValueError(f"potential {cfg.potential} or omega {cfg.omega} does not fit its "
                         f"builder ({type(exc).__name__}: {exc})") from None
    return base, None if omega is None else PerturbedFamily(base, omega)


def kgrid_points(spec: dict) -> list[KPoint]:
    if spec["type"] == "logpolar":
        radii = np.geomspace(spec["rmin"], spec["rmax"], spec["nr"])
        phis = 2 * np.pi * np.arange(spec["nphi"]) / spec["nphi"]
        return [KPoint.from_polar_log(np.log(r), p) for r in radii for p in phis]
    if spec["type"] == "list":
        return [KPoint.from_k(complex(re, im)) for re, im in spec["values"]]
    raise ValueError(f"unknown kgrid type {spec['type']!r}")


def _cell(x) -> str:
    """One CSV cell: None is empty, a string itself, an int its str, any other number repr(float(x))."""
    if x is None:
        return ""
    return str(x) if isinstance(x, (str, int)) else repr(float(x))


def _write_csv(path, header, rows) -> None:
    """A CSV file, every run file's one writer; each cell as :func:`_cell` writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def run(config: RunConfig) -> RunManifest:
    """Execute the requested detectors and write all artifacts.

    Partial detector failures are recorded in the manifest; only config
    and setup errors raise.  The fields were checked when the config was
    made; the curve and the potential are built before anything is written.
    """
    base, family = build_potential(config)
    nodes = sample(build_curve(config), config.n_nodes)
    chash = config.config_hash()
    outdir = os.path.join(config.outdir, chash)
    os.makedirs(outdir, exist_ok=True)

    cache = None
    if config.use_cache:
        cache = OperatorCache(config.cache_dir or os.environ.get(CACHE_ENV_VAR)
                              or os.path.join(config.outdir, "cache"))

    pot = base if family is None else family.at(config.lam)

    timings: dict[str, float] = {}
    # assembly phase: the interior solve dominates; run it through the
    # operator store up front so detector timings measure detector work.
    # xi_fit reads F_n at every lambda of its grid and at lambda = 0.
    # Where F_n is unsupported the detectors meet and record the refusal; a
    # near-resonant F_n is recorded here for every detector that reads it
    # (xi_fit alone when only one of its lambdas is refused), without re-solving.
    # F_0 builds the NodeSet's log kernel and Laplace pieces here, once, before
    # the scan's threads would each find them missing.
    fn_pots = [pot]
    if "xi_fit" in config.detectors and family is not None:
        fn_pots += [family.at(lam) for lam in (0.0, *_XI_LAMBDAS)]
    needs_fn = [d for d in config.detectors if d != "validate"]
    errors: dict[str, str] = {}
    if needs_fn and fn_supported(nodes):
        t0 = time.perf_counter()
        try:
            for p in fn_pots:
                assemble_Fn(nodes, p, store=cache)
        except InteriorResonanceError as exc:
            refused = needs_fn if p is pot else ["xi_fit"]
            errors.update((d, f"{type(exc).__name__}: {exc}") for d in refused)
            log.warning("F_n refused for %s: %s", refused, exc)
        assemble_F0(nodes)   # after the solves, so that it does not raise their peak memory
        timings["fn_assembly"] = round(time.perf_counter() - t0, 3)
    summary: dict = {
        "config": asdict(config),
        "config_hash": chash,
        "tolerances": {"tol_ker_rel": TOL_KER_REL, "tol_neg": TOL_NEG,
                       "singularity_threshold": SINGULARITY_THRESHOLD,
                       "condition_limit": CONDITION_LIMIT, "condition_cap": CONDITION_CAP},
        "n_nodes": config.n_nodes,
        "curve": nodes.curve.key(),
        "boundary_length": nodes.length,
        "seed": config.seed,
    }
    validation_passed = None

    with open(os.path.join(outdir, "config.json"), "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)

    for detector in config.detectors:
        if detector in errors:
            continue
        t0 = time.perf_counter()
        try:
            if detector == "validate":
                checks = run_validation(nodes)
                validation_passed = all(c.passed for c in checks)
                summary["validation"] = [
                    {"name": c.name, "passed": c.passed, "measured": c.measured, "threshold": c.threshold}
                    for c in checks
                ]
                for c in checks:
                    print(c.line())
            elif detector == "sigma_scan":
                points = kgrid_points(config.kgrid)
                try:   # G = S_ref^{-1} before the threads, which would each find it missing
                    layer_reference(nodes)
                except NearSingularError:
                    pass   # every point meets the refusal and records it by itself
                # chunked order-preserving parallel map; rows come out sorted
                # by grid index regardless of completion order
                from concurrent.futures import ThreadPoolExecutor   # here only: no other detector runs a pool

                size = max(1, (len(points) + config.workers - 1) // max(1, config.workers))
                parts = [points[i : i + size] for i in range(0, len(points), size)]
                with ThreadPoolExecutor(max_workers=config.workers) as pool:
                    chunks = list(pool.map(lambda pts: scan(pts, pot, nodes), parts))
                results: list[ScanResult] = [r for chunk in chunks for r in chunk]
                _write_csv(os.path.join(outdir, "scan.csv"),
                           ["k_re", "k_im", "eps", "sigma_min_A", "eig_near_zero", "sigma_min_P", "n_minus", "flags"],
                           [(r.k.k.real, r.k.k.imag, r.eps, r.sigma_min_A, r.eig_near_zero, r.sigma_min_P,
                             r.n_minus, ";".join(r.flags)) for r in results])
                finite = [r.sigma_min_A for r in results if r.sigma_min_A is not None]
                summary["sigma_scan"] = {
                    "points": len(results),
                    "min_sigma_A": min(finite) if finite else None,
                    "refusals": sum(1 for r in results if "ed_refused" in r.flags),
                    "kernel_hits": sum(1 for r in results if "kernel" in r.flags),
                }
            elif detector == "locus":
                if family is None:
                    raise ValueError("locus detector needs a conductive base potential with a perturbation profile")
                angles = 2 * np.pi * np.arange(config.locus_angles) / config.locus_angles
                locus = trace_locus(config.lam, family, nodes, angles)
                _write_csv(os.path.join(outdir, "locus.csv"), ["phi", "eps_star", "ratio_error"],
                           zip(locus.angles, locus.eps_star, locus.ratio_errors))
                summary["locus"] = {
                    "lambda": config.lam, "mu": locus.mu, "prediction": locus.prediction,
                    "mean_eps": locus.mean_eps, "max_ratio_error": locus.max_ratio_error,
                    "rays_traced": locus.rays_traced, "failures": list(locus.failures),
                }
            elif detector == "xi_fit":
                if family is None:
                    raise ValueError("xi_fit detector needs a conductive base potential")
                curve_fit = fit_xi(family, nodes, _XI_LAMBDAS, _XI_EPSS)
                summary["xi_fit"] = {
                    "a": curve_fit.a, "b": curve_fit.b, "residual": curve_fit.residual,
                    "xi00": curve_fit.xi00, "mu": mu_for_family(family),
                    "nu": nodes.length, "lambdas": _XI_LAMBDAS.tolist(), "eps": _XI_EPSS.tolist(),
                }
            elif detector == "parity":
                pe = config.parity_eps
                scale, applied = 1.0, "absolute"   # without a prediction (lam <= 0, no family) eps is absolute
                if pe["scale"] == "prediction" and family is not None and config.lam > 0:
                    scale, applied = mu_for_family(family) * config.lam / nodes.length, "prediction"
                k_a = KPoint.from_eps(pe["eps_a"] * scale, pe["phi"], nodes.length)
                k_b = KPoint.from_eps(pe["eps_b"] * scale, pe["phi"], nodes.length)
                verdict = parity_path(k_a, k_b, pot, nodes)
                summary["parity"] = {
                    "evidence": verdict.evidence,
                    "message": verdict.message,
                    "n_minus_a": verdict.record_a.n_minus,
                    "n_minus_b": verdict.record_b.n_minus,
                    "bracket_eps": [p.eps(nodes.length) for p in verdict.bracket] if verdict.bracket else None,
                    "flags": list(verdict.flags),
                    "scale": applied,
                }
            elif detector == "transform":
                tk = config.transform_krange
                pts = [KPoint.from_polar_log(np.log(r), tk["phi"])
                       for r in np.geomspace(tk["rmin"], tk["rmax"], tk["n"])]
                rep = bound_check(pot, pts, nodes)
                if rep.failures:
                    raise NearSingularError("; ".join(rep.failures))
                t_at = {tv.k: tv for tv in rep.values}
                _write_csv(os.path.join(outdir, "transform.csv"),
                           ["k_re", "k_im", "log_abs_k", "t_re", "t_im", "bound_product"],
                           [(p.k.real, p.k.imag, p.log_abs, tv.t.real, tv.t.imag, tv.bound_product)
                            for p, tv in zip(pts, map(t_at.get, pts))])
                summary["transform"] = {
                    "sup_bound_product": rep.sup,
                    "max_route_residual": max(tv.residual for tv in rep.values),
                    "increments_non_increasing": rep.increments_non_increasing,
                    "valid": rep.valid,
                    "failures": list(rep.failures),
                }
        except Exception as exc:
            errors[detector] = f"{type(exc).__name__}: {exc}"
            log.warning("detector %s failed: %s", detector, errors[detector])
        timings[detector] = round(time.perf_counter() - t0, 3)

    summary["timings_seconds"] = timings
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=str)

    files = {}
    for name in sorted(os.listdir(outdir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = sha256(fh.read()).hexdigest()

    manifest = RunManifest(
        config_hash=chash,
        versions={"faddeev_ep": __version__, "numpy": np.__version__},
        timings=timings,
        files=files,
        validation_passed=validation_passed,
        detector_errors=errors,
    )
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
    return manifest

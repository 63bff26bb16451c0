"""Write ``reference_seed0.json``: the seed-0 outputs of every workload and their tolerances.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change is meant to alter the numbers; the reference is
what later commits are checked against.  Each tolerance is derived from the
solver tolerance of the quantity it guards, read from the package.
"""

from __future__ import annotations

import inspect
import json
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads
from check import REFERENCE, _rows, invariants

from faddeev_ep import exceptional, transform

# relative spacing of the closed-form grids (k, phi, ln|k|, eps): a few ulps
GRID = {"rel": 1e-12, "abs": 1e-18, "why": "closed-form grid value; a few ulps"}
EXACT = {"exact": True, "why": "count, flag or verdict: must match exactly"}

SUMMARY_KEYS = {
    "locus": ["locus.mean_eps", "locus.max_ratio_error", "locus.failures", "xi_fit.a", "xi_fit.b",
              "parity.evidence", "parity.n_minus_a", "parity.n_minus_b", "parity.bracket_eps"],
    "scan": ["sigma_scan.points", "sigma_scan.refusals", "sigma_scan.kernel_hits", "sigma_scan.min_sigma_A"],
    "interior256": ["transform.sup_bound_product", "transform.valid", "transform.increments_non_increasing"],
}


def tolerances(summaries: dict) -> dict:
    xtol_rel = inspect.signature(exceptional.trace_locus).parameters["xtol_rel"].default
    prediction = summaries["locus"]["locus"]["prediction"]
    eps_abs = 2 * xtol_rel * prediction
    brentq = {"abs": eps_abs, "why": f"2 x brentq xtol = 2 x xtol_rel ({xtol_rel:g}) x prediction ({prediction:.6g})"}
    ratio = {"abs": 2 * xtol_rel, "why": "eps* tolerance divided by the prediction"}
    dense = {"rel": exceptional.TOL_KER_REL / 10,
             "why": f"a tenth of the kernel criterion's resolution TOL_KER_REL = {exceptional.TOL_KER_REL:g}"}
    solve = {"rel": transform.CONDITION_CAP * sys.float_info.epsilon,
             "why": f"CONDITION_CAP ({transform.CONDITION_CAP:g}) x machine epsilon of the dense trace solves; t relative to |t|"}
    br = summaries["locus"]["parity"]["bracket_eps"]
    cell = {"abs": abs(br[1] - br[0]), "why": "one bisection cell of parity_path (resolution 1/256 of the path)"}
    return {
        "locus.csv:phi": GRID, "locus.csv:eps_star": brentq, "locus.csv:ratio_error": ratio,
        "scan.csv:k_re": GRID, "scan.csv:k_im": GRID, "scan.csv:eps": GRID,
        "scan.csv:sigma_min_A": dense, "scan.csv:eig_near_zero": dense, "scan.csv:sigma_min_P": dense,
        "scan.csv:n_minus": EXACT, "scan.csv:flags": EXACT,
        "transform.csv:k_re": GRID, "transform.csv:k_im": GRID, "transform.csv:log_abs_k": GRID,
        "transform.csv:t_re": solve, "transform.csv:t_im": solve, "transform.csv:bound_product": solve,
        "summary:locus.mean_eps": brentq, "summary:locus.max_ratio_error": ratio, "summary:locus.failures": EXACT,
        "summary:xi_fit.a": dense, "summary:xi_fit.b": dense,
        "summary:parity.evidence": EXACT, "summary:parity.n_minus_a": EXACT, "summary:parity.n_minus_b": EXACT,
        "summary:parity.bracket_eps": cell,
        "summary:sigma_scan.points": EXACT, "summary:sigma_scan.refusals": EXACT,
        "summary:sigma_scan.kernel_hits": EXACT, "summary:sigma_scan.min_sigma_A": dense,
        "summary:transform.sup_bound_product": solve, "summary:transform.valid": EXACT,
        "summary:transform.increments_non_increasing": EXACT,
    }


def main() -> None:
    out = {"about": "Seed-0 outputs of each workload, produced by perfbench/make_reference.py; "
                    "tolerances are abs + rel * |reference| per CSV column and summary value.",
           "workloads": {}}
    summaries = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in workloads.NAMES:
            cfg = {**workloads.config(name, 0), "cache_dir": str(Path(tmp) / name)}
            resp = run.one_repeat(cfg, Path(tmp), False, time.monotonic() + run.RUN_LIMIT_S)
            if resp.get("failures") or resp["manifest"]["detector_errors"]:
                raise SystemExit(f"{name}: {resp.get('failures') or resp['manifest']['detector_errors']}")
            outputs = resp["outputs"]
            if invariants(name, outputs):
                raise SystemExit(f"{name}: {invariants(name, outputs)}")
            summary = outputs["summary.json"]
            summaries[name] = summary
            out["workloads"][name] = {
                "config": workloads.config(name, 0),
                "csv": {f: _rows(t) for f, t in outputs.items() if f.endswith(".csv")},
                "summary": {k: summary[k.split(".")[0]][k.split(".")[1]] for k in SUMMARY_KEYS[name]},
            }
    out["tolerances"] = tolerances(summaries)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()

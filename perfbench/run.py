"""Benchmark runner: ``faddeev_ep.harness.run`` on named workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload locus --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 24 --trace 1

Each repeat is one ``harness.run`` call in a fresh worker process
(``worker.py``) with BLAS pinned to one thread.  Workloads with a warm disk
cache first run a discarded warm-up repeat that fills it; after that,
repeats run until ``--seconds`` is used up (at least three).  Every repeat
is checked for correctness (``check.py``); a repeat that records a detector
error, crashes or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics of untraced repeats: the
median of ``wall_s``, ``cpu_s``, ``setup_s`` (worker start until ``run`` is
called: interpreter start, imports, building the config) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced repeats
(``tracing.py``) and reports the per-layer metrics listed in
``metrics.json``, each the median over the traced repeats, plus the tracing
overhead against the untraced median.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give each
metric with its quartiles and sample count, ``failed_frac`` and the
environment.  The full record of the run (every repeat, the environment,
the generated config) is written to ``.perfbench/`` under the repository
root, and with tracing the spans of the last traced repeat next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

#: end-to-end metrics and their units; BENCHMARK.json lists the same names
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MIN_REPEATS = 3
#: every worker is stopped after this many seconds; a whole run stays under 180 s
RUN_LIMIT_S = 170.0


#: per-layer metrics of the traced run: name, unit, exactness and what each should move
PER_LAYER = json.loads((HERE / "metrics.json").read_text())["per_layer"]
LAYER_UNITS = {s["name"]: s["unit"] for s in PER_LAYER}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def one_repeat(cfg: dict, work: Path, trace: bool, deadline: float, spans: Path | None = None) -> dict:
    """Run one worker process; returns its response with ``setup_s`` and ``failures`` added."""
    d = Path(tempfile.mkdtemp(dir=work))
    req, resp_path, log = d / "request.json", d / "response.json", d / "worker.log"
    req.write_text(json.dumps({"config": {**cfg, "outdir": str(d / "out")}, "trace": trace,
                               "spans": str(spans) if spans else None}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t_spawn = time.monotonic()
    try:
        with open(log, "w") as fh:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(req), str(resp_path)],
                                  env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - t_spawn))
        failed = proc.returncode != 0
    except subprocess.TimeoutExpired:
        failed = True
    if failed:
        tail = log.read_text()[-2000:]
        return {"failures": [f"worker failed after {time.monotonic() - t_spawn:.1f} s: {tail}"]}
    resp = json.loads(resp_path.read_text())
    resp["setup_s"] = resp["t_ready"] - t_spawn
    resp["traced"] = trace
    shutil.rmtree(d / "out", ignore_errors=True)
    return resp


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repeats of one workload; returns the run record."""
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    base = workloads.config(name, seed)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    spans_path = out_dir / f"{tag}.spans.jsonl"
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    repeats, warmup = [], None
    try:
        shared_cache = work / "cache"
        if workloads.WARM_CACHE[name]:
            warm_cfg = {**base, "cache_dir": str(shared_cache), **workloads.warmup_overrides()}
            warmup = one_repeat(warm_cfg, work, False, deadline)
            if not warmup.get("failures"):
                errors = warmup["manifest"]["detector_errors"]
                warmup["failures"] = [f"warm-up detector error {d}: {e}" for d, e in errors.items()]
        start = time.monotonic()
        while True:
            traced = trace and len(repeats) % 2 == 1
            cache = shared_cache if workloads.WARM_CACHE[name] else Path(tempfile.mkdtemp(dir=work))
            cfg = {**base, "cache_dir": str(cache)}
            rep = one_repeat(cfg, work, traced, deadline, spans_path if traced else None)
            if not rep.get("failures"):
                rep["failures"] = check.check(name, seed, rep)
                if traced and rep["min_self_s"] < -1e-9:
                    rep["failures"].append(f"negative self time {rep['min_self_s']:.3g} s")
            repeats.append(rep)
            if "wall_s" not in rep:
                break   # a crashed or timed-out worker: stop early
            elapsed = time.monotonic() - start
            mean_len = elapsed / len(repeats)
            if len(repeats) >= MIN_REPEATS and elapsed + 0.5 * mean_len >= seconds:
                break
            if time.monotonic() + 1.5 * mean_len > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = ([warmup] if warmup else []) + repeats
    failed = sum(1 for r in everything if r.get("failures"))
    timed = [r for r in repeats if "wall_s" in r and not r["traced"]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workloads.WHY[name], "config": base,
        "attempted": len(everything), "failed": failed,
        "failed_frac": failed / len(everything),
        "failures": [f for r in everything for f in r.get("failures", [])],
        "commit": git_commit(),
        "env": next((r["env"] for r in everything if "env" in r), None),
        "repeats": [{k: r.get(k) for k in ("traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                           "loadavg_before", "loadavg_after", "failures")}
                    for r in everything],
        "end_to_end": {},
        "layers": {},
        "run_s": time.monotonic() - t0,
    }
    setups = [r["setup_s"] for r in everything if "setup_s" in r]
    if timed:
        for m in END_TO_END:
            values = setups if m == "setup_s" else [r[m] for r in timed]
            record["end_to_end"][m] = quartiles(values)
    traced_reps = [r for r in repeats if r.get("traced") and "layers" in r]
    if traced_reps and timed:
        for key in LAYER_UNITS:
            if key == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced_reps)
                         - record["end_to_end"]["wall_s"]["median"])
            else:
                value = statistics.median(r["layers"][key] for r in traced_reps)
            record["layers"][key] = value
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    record["record_file"] = str((out_dir / f"{tag}.json").relative_to(ROOT))
    return record


def _env_line(env: dict | None, commit: str | None) -> str:
    if not env:
        return "  env: unavailable (no worker finished)"
    blas = env["blas_scipy"]["blas"]
    threads = ", ".join(f"{k}={v}" for k, v in env["threads_env"].items() if v is not None)
    v = env["versions"]
    return (f"  env: nproc {env['nproc']}, BLAS {blas['name']} {blas['version']} ({threads}), "
            f"numpy {v['numpy']}, scipy {v['scipy']}, faddeev_ep {v['faddeev_ep']}, commit {commit or 'unknown'}")


def report(rec: dict) -> None:
    print(f"[{rec['workload']} seed {rec['seed']} trace {int(rec['trace'])}] {rec['why']}")
    for m, st in rec["end_to_end"].items():
        print(f"  {m:<12} {st['median']:10.4f} {END_TO_END[m]:<3} q1 {st['q1']:.4f}  q3 {st['q3']:.4f}  n={st['n']}")
    print(f"  {'failed_frac':<12} {rec['failed_frac']:10.4f}     ({rec['failed']} of {rec['attempted']} repeats)")
    for key, value in rec["layers"].items():
        print(f"  {key:<52} {value:14.6g} {LAYER_UNITS[key]}")
    for f in rec["failures"]:
        print(f"  FAILED: {f}")
    print(_env_line(rec["env"], rec["commit"]))
    print(f"  record: {rec['record_file']}")


def metrics_of(rec: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in rec["layers"].items()}
    return {m: {"value": st["median"], "unit": END_TO_END[m]} for m, st in rec["end_to_end"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "faddeev_ep" / "harness.py").is_file():
        print(f"no faddeev_ep sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = list(workloads.NAMES) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for rec in records:
        report(rec)
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        metrics.update({prefix + k: v for k, v in metrics_of(rec, bool(args.trace)).items()})
    wanted = len(LAYER_UNITS) if args.trace else len(END_TO_END)
    complete = all(len(metrics_of(r, bool(args.trace))) == wanted for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())

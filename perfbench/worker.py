"""One benchmark repeat in a fresh process: ``python3 worker.py REQUEST RESPONSE``.

REQUEST is a JSON file ``{"config": {...}, "trace": bool, "spans": path|null}``.
The worker pins BLAS and OpenMP to one thread unless the caller already set
them, imports the package, builds the ``RunConfig``, and calls
``faddeev_ep.harness.run`` once.  It writes RESPONSE, a JSON file with the
``time.monotonic()`` instant just before ``run`` (the runner subtracts its
own spawn instant to get the set-up time), the wall and CPU seconds of the
call, peak RSS, the load average before and after, the run's summary,
manifest and CSV outputs, and the environment.  With tracing on it adds the
per-layer metrics and writes the spans to the given path.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import faddeev_ep  # noqa: E402
from faddeev_ep.harness import RunConfig  # noqa: E402


def _blas(show_config) -> dict:
    deps = show_config(mode="dicts").get("Build Dependencies", {})
    return {lib: {k: deps.get(lib, {}).get(k) for k in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack")}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_numpy": _blas(np.show_config),
        "blas_scipy": _blas(scipy.show_config),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "faddeev_ep": faddeev_ep.__version__},
    }


def _outputs(outdir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name)) as fh:
            out[name] = json.load(fh) if name.endswith(".json") else fh.read()
    return out


def main(request_path: str, response_path: str) -> None:
    with open(request_path) as fh:
        req = json.load(fh)
    cfg = RunConfig.from_dict(req["config"])
    tracer = None
    if req["trace"]:
        from tracing import Tracer  # perfbench/tracing.py, next to this file

        tracer = Tracer(run_id=f"{cfg.config_hash()}-{os.getpid()}")
        tracer.install()
    from faddeev_ep import harness

    load0 = os.getloadavg()
    t_ready = time.monotonic()
    c0 = time.process_time()
    w0 = time.perf_counter()
    manifest = harness.run(cfg)
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    load1 = os.getloadavg()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    resp = {
        "t_ready": t_ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
        "loadavg_before": load0, "loadavg_after": load1,
        "manifest": asdict(manifest),
        "outputs": _outputs(os.path.join(cfg.outdir, manifest.config_hash)),
        "env": environment(),
    }
    if tracer is not None:
        from tracing import layer_metrics, min_self_time

        resp["layers"] = layer_metrics(tracer.spans)
        resp["min_self_s"] = min_self_time(tracer.spans)
        resp["spans"] = len(tracer.spans)
        if req.get("spans"):
            tracer.dump(req["spans"])
    with open(response_path, "w") as fh:
        json.dump(resp, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

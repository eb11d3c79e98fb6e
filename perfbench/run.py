"""lemnilab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh Python
processes (see worker.py) with one worker and BLAS/OpenMP threads pinned to
1.  --seed 0 selects each workload's committed pipeline seed, whose rows are
gated byte for byte against results/; any other value is the pipeline seed.
With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones.  The line before it is the run manifest, and
perfbench/out/<workload>-seed<N>-trace<T>.json keeps the manifest, the
per-unit times, the fallback counters with their bases and, when traced,
every span.  Exits 0 when the gate passes, 1 when it fails or a worker
dies, and 2 when the checkout holds no lemnilab source.
"""

import os

_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({k: "1" for k in _THREADS})  # before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import PER_LAYER, host_probe  # noqa: E402
from workloads import WORKLOADS, pipeline_seed  # noqa: E402

SETUP_PROBES = 2  # extra set-up-only processes; the main worker adds one
DEADLINE_S = 170.0  # whole run, within the 180 s a run may take

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, src).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit():
    try:
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    top_head = r.stdout.split()
    if r.returncode or len(top_head) != 2 or not os.path.samefile(top_head[0], ROOT):
        return None  # not a git checkout of its own
    return top_head[1]


def _noise_probe() -> dict:
    """Host-speed reference before the run: fixed GEMM and loop timings."""
    gemm, loop = host_probe(600, 20, 1_000_000)
    return {"gemm_600x600_x20_s": gemm, "pyloop_1e6_s": loop}


def _manifest(args, w, seed, window) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": w.name,
        "experiment": w.experiment,
        "n": w.n,
        "bench_seed": args.seed,
        "pipeline_seed": seed,
        "trial_window": [0, window],
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in _THREADS + ("LEMNILAB_WORKERS",)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": os.getloadavg()[0],
    }


def _worker(args, w, seed, window, setup_only, timeout) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", w.name, "--seed", str(seed), "--window", str(window),
           "--trace", str(args.trace),
           "--root", ROOT, "--spawn-time", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       cwd=ROOT, timeout=max(timeout, 1.0))
    if r.returncode:
        raise RuntimeError("worker exited %d: %s" % (r.returncode, r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t0 = perf_counter()
    w = WORKLOADS[args.workload]
    needed = [os.path.join("src", "lemnilab", "experiments.py")]
    if not w.fixed_window:
        needed.append(w.committed_csv)
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("no lemnilab checkout here: missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    seed = pipeline_seed(w, args.seed)
    # a traced run spends the run length on two passes over the window
    window = w.window(args.seconds / 2 if args.trace else args.seconds)
    os.makedirs(OUT, exist_ok=True)
    manifest = _manifest(args, w, seed, window)
    manifest["noise_probe"] = _noise_probe()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                left = DEADLINE_S - (perf_counter() - t0)
                setups.append(_worker(args, w, seed, window, True, left)["setup_s"])
        res = _worker(args, w, seed, window, False, DEADLINE_S - (perf_counter() - t0))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print("benchmark run failed: %s" % e, file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    manifest["loadavg_1m_after"] = os.getloadavg()[0]
    manifest["setup_samples_s"] = setups
    manifest["rows_sha256"] = res["digest"]
    manifest["passes"] = len(res["pass_walls"])

    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
        metrics["tracing.overhead_frac"] = {"value": res["tracing_overhead_frac"], "unit": "ratio"}
        manifest["traced_units"] = res["traced_units"]
    else:
        manifest["tail_percentile"] = res["tail_percentile"]
        manifest["samples"] = res["attempted"]
        res["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    correct = not res["errors"]
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = dict(manifest=manifest, result=result, errors=res["errors"],
                  failed_frac=res["failed"] / res["attempted"],
                  raw_trials_per_s=res.get("raw_trials_per_s"),
                  raw_trial_s_p50=res.get("raw_trial_s_p50"),
                  raw_trial_s_tail=res.get("raw_trial_s_tail"),
                  pass_walls=res["pass_walls"], unit_s=res["unit_s"],
                  scaled_unit_s=res.get("scaled_unit_s"),
                  fallbacks=res.get("fallbacks"), spans=res.get("spans"))
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (w.name, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh)
    for e in res["errors"]:
        print("gate: %s" % e, file=sys.stderr)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

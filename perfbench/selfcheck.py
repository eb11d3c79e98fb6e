"""Self-check of the benchmark's gate and tracing wrappers.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Shows that (1) the gate passes the
committed-seed rows and fails when one digit of one row is changed, when a
row breaks the Morse bound or is flagged at another seed, and when a local
trial is rejected, and (2) a traced pass writes the same bytes as an
untraced pass of the same window on every workload.
Takes about a minute; exits 1 if any check fails.
"""

import os

os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# small windows keep the check short; local and construct have fixed ones
SMALL = {"pair-n200": 2, "length-n25": 10, "real-n50": 1}


def _rewrite(path, old, new):
    with open(path) as fh:
        text = fh.read()
    if old not in text:
        raise ValueError("%r not found in %s" % (old, path))
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def _gate_catches_tampering(w, seed, tamper) -> list:
    """Errors the gate reports after one row is altered (empty: missed)."""
    from lemnilab import experiments

    outdir = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(HERE, "out"))
    try:
        experiments.run(experiments.ExperimentConfig(
            w.experiment, [w.n], trials=5, seed=seed, output_dir=outdir))
        clean = gate.check(w, seed, 5, outdir, ROOT)["errors"]
        if clean:
            return ["clean rows rejected: %s" % clean]
        path = os.path.join(outdir, os.path.basename(w.committed_csv))
        with open(path) as fh:
            header, row = fh.readline(), fh.readline().rstrip("\n")
        names = header.strip().split(",")
        fields = row.split(",")
        col = dict(zip(names, fields))
        if tamper == "digit":
            # one digit of the length column
            last = col["length"][-1]
            fields[names.index("length")] = col["length"][:-1] + ("1" if last != "1" else "2")
        elif tamper == "morse":
            # b0 far above nu/2 + loops
            fields[names.index("b0")] = str(int(col["nu"]) + 1)
        else:
            # the row run_trial writes when tracing raises
            for k in ("nu", "b0", "loops", "crossings"):
                fields[names.index(k)] = "-1"
            fields[names.index("length")] = "nan"
            fields[names.index("flags")] = "degenerate"
        _rewrite(path, row, ",".join(fields))
        return gate.check(w, seed, 5, outdir, ROOT)["errors"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _gate_catches_rejection() -> list:
    """Errors the gate reports on a local summary with one rejected trial."""
    w = WORKLOADS["local-n100"]
    outdir = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(HERE, "out"))
    try:
        summary = {"rows": [{"trials_used": 99, "rejected": 1, "estimate": 0.25}]}
        with open(os.path.join(outdir, "local-arrangement_summary.json"), "w") as fh:
            json.dump(summary, fh)
        open(os.path.join(outdir, "local-arrangement_summary.csv"), "w").close()
        return gate.check(w, 7, 100, outdir, ROOT)["errors"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main() -> int:
    import lemnilab.constructor  # noqa: F401  (patched like the other modules)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    ok = True
    w = WORKLOADS["length-n25"]
    cases = [
        ("seed %d, one digit changed" % w.default_seed,
         lambda: _gate_catches_tampering(w, w.default_seed, "digit")),
        ("seed 7, Morse bound broken", lambda: _gate_catches_tampering(w, 7, "morse")),
        ("seed 7, trial flagged", lambda: _gate_catches_tampering(w, 7, "flagged")),
        ("local, seed 7, trial rejected", _gate_catches_rejection),
    ]
    for what, case in cases:
        errors = case()
        caught = bool(errors) and not errors[0].startswith("clean rows")
        ok &= caught
        print("gate, %s: %s" % (what, "rejected" if caught else "MISSED"))
        for e in errors:
            print("    %s" % e)
    for name, wl in WORKLOADS.items():
        window = SMALL.get(name, wl.fixed_window)
        runs = [worker._run_pass(wl, wl.default_seed, window, ROOT, traced)
                for traced in (False, True)]
        same = runs[0]["digest"] == runs[1]["digest"]
        errors = runs[0]["errors"] + runs[1]["errors"]
        ok &= same and not errors
        print("tracing, %s, %d units: rows %s, gate %s" % (
            name, window, "identical" if same else "DIFFER",
            "passed" if not errors else "FAILED: %s" % errors))
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

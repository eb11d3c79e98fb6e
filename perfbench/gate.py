"""Correctness gate for one pass of a workload.

At every seed, no trial may be flagged (degenerate, tangency, topology or
axis), no local trial rejected and no construct form left unverified.  At a
workload's committed seed every trial row must also equal, byte for byte,
the row with the same index in the committed results/ CSV; local-n100 must
reproduce its recorded hit count and trials_used; construct-6 must
round-trip and certify every form.  At any other seed the rows must satisfy
the Morse bound (b0 <= nu/2 + loops) and b0 <= n, and the run records a
digest of them, which must agree across all passes of one run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

from workloads import CONSTRUCT_FORMS, LOCAL_EXPECTED, Workload


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _lines(path: str) -> list:
    with open(path, newline="") as fh:
        return fh.read().split("\n")


def check(w: Workload, seed: int, window: int, outdir: str, root: str) -> dict:
    """{"errors": [...], "failed": flagged units, "digest": sha256}."""
    if w.experiment == "local-arrangement":
        return _check_local(w, seed, window, outdir)
    if w.experiment == "construct":
        return _check_construct(outdir)
    return _check_trials(w, seed, window, outdir, root)


def _check_trials(w, seed, window, outdir, root):
    path = os.path.join(outdir, os.path.basename(w.committed_csv))
    errors = []
    got = _lines(path)
    rows = list(csv.DictReader(got))
    if len(rows) != window:
        errors.append("%d rows, expected %d" % (len(rows), window))
    flagged = [i for i, r in enumerate(rows) if r["flags"]]
    if flagged:
        errors.append("%d flagged trials: %s" % (
            len(flagged), ", ".join("%d (%s)" % (i, rows[i]["flags"]) for i in flagged[:10])))
    if seed == w.default_seed:
        want = _lines(os.path.join(root, w.committed_csv))[: window + 1]
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                errors.append("row %d differs from %s: %r != %r"
                              % (i - 1, w.committed_csv, a, b))
    else:
        for i, r in enumerate(rows):
            if (int(r["n"]), int(r["trial"]), int(r["seed"])) != (w.n, i, seed):
                errors.append("row %d has n, trial, seed %s, %s, %s"
                              % (i, r["n"], r["trial"], r["seed"]))
        good = [r for r in rows if not r["flags"]]  # flagged ones failed above
        morse = sum(1 for r in good
                    if int(r["b0"]) > int(r["nu"]) / 2 + int(r["loops"]))
        over = sum(1 for r in good if int(r["b0"]) > w.n)
        if morse or over:
            errors.append("morse_violations=%d b0_over_degree=%d" % (morse, over))
    return {"errors": errors, "failed": len(flagged), "digest": _digest(path)}


def _check_local(w, seed, window, outdir):
    path = os.path.join(outdir, "local-arrangement_summary.json")
    with open(path) as fh:
        (row,) = json.load(fh)["rows"]
    used, rejected = row["trials_used"], row["rejected"]
    hits = round(row["estimate"] * used)
    got = {"hits": hits, "trials_used": used, "rejected": rejected}
    errors = []
    if rejected:
        errors.append("%d local trials rejected" % rejected)
    if seed == w.default_seed:
        if got != LOCAL_EXPECTED:
            errors.append("local summary %s, expected %s" % (got, LOCAL_EXPECTED))
    elif used != window or not 0 <= hits <= used:
        errors.append("inconsistent local summary %s" % (got,))
    csv_path = os.path.join(outdir, "local-arrangement_summary.csv")
    return {"errors": errors, "failed": rejected, "digest": _digest(csv_path)}


def _check_construct(outdir):
    with open(os.path.join(outdir, "construct_summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r["statistic"] for r in rows if r["flags"] or float(r["estimate"]) != 1.0]
    errors = []
    if len(rows) != CONSTRUCT_FORMS:
        errors.append("%d forms, expected %d" % (len(rows), CONSTRUCT_FORMS))
    if bad:
        errors.append("not round-tripped and certified: %s" % ", ".join(bad))
    pairs = os.path.join(outdir, "construct_pairs.json")
    return {"errors": errors, "failed": len(bad), "digest": _digest(pairs)}

"""The microbenchmarks in bench/ import private names of the package
(tracer._densify, _edge_roots, _link_cycles, _ARC_STEP, constructor._add_circle)
and replay the ray_solve calls of geomstats and constructor; running each
once makes a rename fail here instead of leaving them broken."""

import os
import subprocess
import sys

import pytest

pytest.importorskip("pytest_benchmark")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_suite_runs():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stdout[-3000:] + r.stderr[-3000:]

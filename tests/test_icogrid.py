import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from lemnilab import icogrid

build = icogrid.icosphere.__wrapped__  # uncached, so the tests leave the cache alone

# SHA-256 of verts, edges and tri_edges (.tobytes()) and mean_edge_length.hex()
# of the grids built by the face-by-face construction this one replaced
GOLDEN = {
    1: ("25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
        "a7c0408d8d770b057faba5b55ed530c3104b4e8fdb813eda27a4386d82455f2a",
        "dcde5c606aaabbb421cfdf763393d00add40de61fa20c5dcf275c412479f3c13",
        "0x1.1b6e192ebbe43p+0"),
    2: ("76204e2ed98e365810c8a69e0606d4deb5a8b3fbb5c95e3a18f8b86047ace3c6",
        "99a09afdd29e551ec6a8aa1370a697e5677bb917633119f4765ed8f90721ffa2",
        "b16a17eef855e2a85886b47d01f2dc6830a2aa15f0f78378aa403f9c0344c5f4",
        "0x1.2e90884c45792p-1"),
    5: ("2687cd6711e5304ace649d4ea83e44ad01082bb33706a5fbc397890a81cd6fae",
        "c8f2d5fcc1c2f303fe2cb31ec1a5c0097e516cb8bf23fed9fd5b1d96e2c40dd9",
        "5e6a093cf0aef6feeba9b75a2bada5fa834bd3bde67906e88dfb0caf9c30d8ad",
        "0x1.eb6e83adefad4p-3"),
    64: ("8d87fdec65bdbf2c26caab7a314fd9c1df03ed93c059719d51ebe536ddae8190",
         "b6cf6d1d3d7b7881e35865b5621e1a922f7323bf6f1cc4415a0f0eb3216ed0ca",
         "69fad396a83716388c1be70dc2d93173ea80a9ce8693bab7b8ea4833ba0e59be",
         "0x1.33fe5ca0830cbp-6"),
    78: ("3efb247f5babbfd21b58833bf27c1618ff66ebba23c77471a65b15e1d7940e41",
         "db5d1031c5032c7ca002d28a038bed4734c3ee5e8fdbb3d961c7a436f813d651",
         "ef41441de2ee86bdf5252d7b7d7a5df5be7d2d9f76889d55a2e815584a245016",
         "0x1.f96d9d52dcfa4p-7"),
}


@pytest.mark.parametrize("nu", [1, 2, 5, 17])
def test_structure(nu):
    g = build(nu)
    V, E, T = 10 * nu * nu + 2, 30 * nu * nu, 20 * nu * nu
    assert g.verts.shape == (V, 3) and g.edges.shape == (E, 2) and g.tri_edges.shape == (T, 3)
    assert g.edges.dtype == g.tri_edges.dtype == np.int64
    assert np.allclose(np.linalg.norm(g.verts, axis=1), 1.0)
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    assert np.all(e0 < e1)
    assert np.all((e0[1:] > e0[:-1]) | ((e0[1:] == e0[:-1]) & (e1[1:] > e1[:-1])))
    assert np.all(np.bincount(g.tri_edges.ravel(), minlength=E) == 2)
    # the three edges of a row visit three distinct vertices twice each
    ends = np.sort(g.edges[g.tri_edges].reshape(T, 6), axis=1)
    assert np.all(ends[:, 0::2] == ends[:, 1::2])
    assert np.all((ends[:, 0] < ends[:, 2]) & (ends[:, 2] < ends[:, 4]))


@pytest.mark.parametrize("nu", sorted(GOLDEN))
def test_golden_digests(nu):
    g = build(nu)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (g.verts, g.edges, g.tri_edges))
    assert got + (g.mean_edge_length.hex(),) == GOLDEN[nu]


_TRACE_FAULTS = """
import resource
from lemnilab.ensemble import sample_rational_pair
from lemnilab.experiments import trial_stream
from lemnilab.icogrid import icosphere
from lemnilab.tracer import TraceOptions, trace

pairs = [sample_rational_pair(200, trial_stream(202, 200, i)) for i in range(21)]
for nu in (78, 156):
    icosphere(nu)
    trace(pairs[0], TraceOptions(nu))
faults = 0
for rp in pairs[1:]:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trace(rp)
    faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / (len(pairs) - 1))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
def test_traces_reuse_freed_pages():
    """A process that has built only the n=200 grids (nu = 78 and its 2x
    fallback) and traced once at each must trace without page faults: every
    trace frees 12-17 MB of grid-sized temporaries, which glibc keeps only
    while its mmap and trim thresholds sit at their caps."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(icogrid.__file__)))
    out = subprocess.run([sys.executable, "-c", _TRACE_FAULTS], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout.split()[-1]) < 100

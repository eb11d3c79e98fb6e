import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from lemnilab import icogrid
from lemnilab.topology import local_disk
from lemnilab.tracer import default_options

build = icogrid._lattice  # the unrotated grid; uncached, so the tests leave the cache alone

# SHA-256 of verts, edges and tri_edges (.tobytes()) and mean_edge_length.hex()
# of the unrotated grids built by the face-by-face construction that the
# sort-based edge numbering replaced
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
# the same digests of the grids built by the sort-based edge numbering this
# one replaced: every construct-6 frequency, 2 x 78, and nu = 3, 4, 6 and 7,
# whose faces hold 1, 3, 10 and 15 interior points
GOLDEN.update({
    3: ("58b0fa2946bd1f774fffd8d1185626c0dd7440e4ce7c3d85207a1ba17b329f1c",
        "f090464034e37843a7d6342ce370cd58bb05016c92c97e38fe61a6605d28a00d",
        "360b7b68fae1c605bf423bc92465c2c649a27087e74cde960d66c12db16af500",
        "0x1.977b909622373p-2"),
    4: ("93358e2e63bdbd5694b3c0cc9c0dd1619fd62e8ecdc4642c8044550642388a07",
        "0fbb8f7bffe4bf088b8ff021b1cf7616e6bf2a531529b2a2f504aa07465f8bfd",
        "3d0702d8aa814612c86d25321e20bba5184ab8577d1b0e9eff09d820b3dc6c81",
        "0x1.32a96fa877bafp-2"),
    6: ("3f9ec391b430059e82431fb338dc7d8f70495272d06ee4905919b03efaae4bbe",
        "a42bb35ff135fc829db3f9915cbbe06bdfecc4740facc083490bb02b8b7307f7",
        "c29d0590b4b1a2d2f75a867727736a4a4fd32aa0dc7803f28a7fb0f937f5a681",
        "0x1.99e00a911843dp-3"),
    7: ("596a62cfbc55a5526c19ba00c59eb0b7d90873070d06aac9385e2bc088519ad0",
        "2d3582a8a133ab3170a2b8cfbf86a20cff2a91ee1ddca4e4495f8db37d198c02",
        "e64405a99e92f0e1b47afa69ef359b6c3a1228afc89e59dc1d05cc8979b47f10",
        "0x1.5f8062c7e75ddp-3"),
    96: ("a96275953e9afd69fe8c657d74fa9a10e3e04eed0b57604b6af2ce96ae5de7c4",
         "228be20f29a3ebdb9603a05faf24f7bbb62efad1b89998af6efd9bbef8dc5eca",
         "7a2be88d31e438ecddcf68c4e8e1f3d209f032df06652203035087fde3a23ae1",
         "0x1.9aa977ae1c3e7p-7"),
    102: ("128a3ad94d066f5eb41f8667109dbf2a96ed4f452ef684caa102d78735594537",
          "eacf0288384046f2b6e8e2feb4603e272364c5c76bd1f68b4965f6d1a814e89b",
          "ab1f41e1c014f3243c136b5fe1b4c4ad7118762273ec53abb068e6ba30c0ab50",
          "0x1.8281774320cc2p-7"),
    120: ("3c9baa2f0c44c4d04b62f95e37e76f80cda5b413552b452430e9fdc4ff206bc8",
          "e2da3286209c40dbaa2f64bc5ba97ca0881a7e68c9685e583153924070b4a199",
          "cb32bb8a52cf20622992a29ddbef4f5f8b99e3a5a3f218a552ccd3f536a7c606",
          "0x1.4887cd0b7fb3bp-7"),
    125: ("c3b2f69b697cd47e94d644f402b26cda2a658e327d8aabc1f132c6b7fffd25f2",
          "6541f6036ac7e39823084f3705a6b15d7c901d8dea8e5ab965973fd7692774d6",
          "2811e44dba3ba8a3ae8a16c141c85074dea38645e5561e11aa041e4181c71305",
          "0x1.3b63ade5aab4cp-7"),
    127: ("62a1a88d6a69b7b8b59c135510b0e418cdca5087cddfe7507fb4115b9e0d0c6e",
          "bd294d17cd37d647337076deb044fdfc12c7bad1661aff3b57375e6341ca3d9b",
          "c3572859b8f4a1536cc9150d75c849298a1e03efb247b75146d5fc0e210d2495",
          "0x1.366c33023252fp-7"),
    128: ("9a8c15d4da1a29a7dd3672cf6aeb906f680eda66d329bbca0bedc51fc452a733",
          "65f114e6853ca14bb0f4302d9ff799d7b42421696ca9ad12d0917743a8ccd197",
          "3a8f8b7e8ea9e8b210f06eb75b5de4b754d5eb56670abcc97625b5326b627f98",
          "0x1.33ff5bf4a4df9p-7"),
    145: ("f551b9264454c76b89772e75cafec225d5a3728206bebf0990cc11a66b2cb10c",
          "f3228671556c6f686261ba57e98d4c83071813f945ff646618cd02f319465ac1",
          "da4ed0452ee8251ab0f5b71a797a81f7b0c0277d24b01a3efbeae2fa64eb8c00",
          "0x1.0fe34036ba3e8p-7"),
    156: ("e94a911b685b401ab8016b9f763d4bedf297961c62031ce35a6fb82ae967e5b8",
          "9abc21368f730a1f5d406273427c335fd9357b6657751cd2ad9fa81f8ba69859",
          "8de4ec9129af7b639df2104a31a8626e03804ef6d0451fc9058d7f8b22d8d483",
          "0x1.f96eb768f35e5p-8"),
    202: ("682f6f7a9b50c2091bd4ad217916518705efd7c88e3bc71d514d7a98663fbbd5",
          "c3c1da96bad7f2355b102e68f35a11da91413083f56a076e400b247f6e095a7a",
          "92eb237e00dd7c8130f4f168bbc0cd0371c75a31649ffb0c64f42d16eee7c15e",
          "0x1.86559e46da75ep-8"),
    222: ("d89894ae89c9675eb77e96b16c442307defd5c99b001199304c9e208df33b69f",
          "7ec4b7329904d180c5282adf776da6544e4dfa4690316500e434245d98ca5490",
          "273db5f12f26dc837f236fe3c42fb3aa4a245a40e7473b7ef97569e6b90d4e27",
          "0x1.632b5638b70ccp-8"),
    264: ("b8602696b3cab449eb6a1599f1bf79797e0bbab43348d22427837781907ca36f",
          "2b6eb5b25be9bcc04845af2d6f165609affb2089dc9f948583222d696c2405cf",
          "bff58b8bfb2c9ee2d0a030325fc407273cde81321b05a5c91466527f4daef025",
          "0x1.2aaa4ab8b31aap-8"),
    280: ("a65e0cb3344a745f33a97b75073147922d1a9083bc2b3224f63de3679515bfb8",
          "ffaa49003142cb8b2dfc1efeb457784e67a01ce1009e1e9d5913547f142d6d23",
          "cf06289d275bc510bc787a83a6585ee002aac6039ae27ec28dd72d49aadfd9fc",
          "0x1.1999412b0e5b5p-8"),
})


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 6, 17])
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


def test_frequency_must_be_an_integer():
    for nu in (2.0, 2.5, True, False, "3", None):
        with pytest.raises(ValueError, match=re.escape(repr(nu))):
            build(nu)
    g, ref = build(np.int64(3)), build(3)  # numpy integers are integers
    assert g.nu == 3 and np.array_equal(g.verts, ref.verts)
    assert np.array_equal(g.edges, ref.edges) and np.array_equal(g.tri_edges, ref.tri_edges)


@pytest.mark.parametrize("nu", [5, 78])
def test_icosphere_is_the_rotated_lattice(nu):
    # the grid every trace reads: the lattice's vertices turned by the
    # jitter, its edges, triangles and edge lengths as built
    g, lat = icogrid.icosphere.__wrapped__(nu), build(nu)
    assert np.array_equal(g.verts, icogrid.GRID_JITTER.apply(lat.verts))
    assert np.array_equal(g.edges, lat.edges) and np.array_equal(g.tri_edges, lat.tri_edges)
    assert (g.nu, g.mean_edge_length, g.max_edge_length) == (
        lat.nu, lat.mean_edge_length, lat.max_edge_length)


def _raster_pairs(grid):
    """The sorted (lo, hi) vertex ids of every two neighbouring cells of
    grid's raster, at +-(1, 0), +-(0, 1) and +-(1, -1), that hold one."""
    r = grid.raster
    t = r.scatter(np.arange(grid.n_vertices), -1)
    assert t.shape == r.shape
    cells = np.flatnonzero(t >= 0)
    # every vertex has a cell, and gather inverts scatter
    assert np.array_equal(r.gather(t), np.arange(grid.n_vertices))
    many = np.bincount(t.ravel()[cells])[t.ravel()[cells]] > 1
    seams = r.seams()
    assert np.array_equal(np.sort(seams[0]), cells[many])
    assert np.array_equal(seams[1], t.ravel()[seams[0]])
    out = []
    for a, b in ((t[:-1], t[1:]), (t[:, :-1], t[:, 1:]), (t[:-1, 1:], t[1:, :-1])):
        both = (a >= 0) & (b >= 0)
        out.append(np.stack([np.minimum(a[both], b[both]), np.maximum(a[both], b[both])], axis=1))
    return np.unique(np.concatenate(out), axis=0)


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 64, 96])
def test_raster_neighbours_are_the_edges(nu):
    g = build(nu)
    assert np.array_equal(_raster_pairs(g), g.edges)


@pytest.mark.parametrize("rho, k", [(3.0, 1), (3.0, 2), (7.0, 1), (7.0, 2)])
def test_cap_raster_neighbours_are_the_cap_edges(rho, k):
    # the local stage's caps at nu and 2 nu
    n = 100
    g = icogrid.cap_grid(k * default_options(n).grid_resolution, *local_disk(n, rho)[0])
    assert isinstance(g.raster, icogrid.TableRaster)
    assert np.array_equal(_raster_pairs(g), np.unique(g.edges, axis=0))


def test_raster_of_a_cap_of_radius_near_pi():
    # the crop keeps every block, with cells off the cap among them: a
    # table read through their -1 would pair them with the last vertex
    g = icogrid.cap_grid(96, (0.48, -0.6, 0.64), math.pi - 0.05)
    t = g.raster.scatter(np.arange(g.n_vertices), -1)
    assert 0 < np.count_nonzero(t < 0) and g.n_vertices < 10 * 96 * 96 + 2
    assert np.array_equal(_raster_pairs(g), np.unique(g.edges, axis=0))


def test_raster_of_an_empty_cap():
    g = icogrid.cap_grid(64, (0.0, 0.0, 1.0), 1e-6)
    assert g.n_vertices == 0 and len(_raster_pairs(g)) == 0


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

import numpy as np

from lemnilab.ensemble import (
    RandomStream,
    RationalPair,
    binomial_std,
    exponents,
    multinomial_std,
    real_kostlan_std,
    rotate_pair,
    sample_kostlan,
    sample_rational_pair,
    sample_real_kostlan,
    sqrt_binomial,
)
from lemnilab.sphere import Rotation


def test_sqrt_binomial_values():
    assert np.allclose(sqrt_binomial(4, np.arange(5)) ** 2, [1, 4, 6, 4, 1])
    # lgamma route stays accurate at larger n
    assert abs(sqrt_binomial(50, 25) ** 2 - 126410606437752.0) < 1e3


def test_coefficient_variance_matches_binomial():
    # E |a_2|^2 = C(4, 2) = 6 at degree 4
    draws = np.array(
        [sample_kostlan(4, RandomStream(11).substream(i)).coeffs[2]
         for i in range(4000)]
    )
    var = np.mean(np.abs(draws) ** 2)
    assert abs(var - 6.0) < 6.0 * 5 / np.sqrt(4000)
    assert abs(np.mean(draws)) < 5 * np.sqrt(6.0 / 4000)


def test_real_kostlan_variance():
    # exponent (1, 1, 0) at degree 2 has multinomial coefficient 2
    exps = exponents(2)
    idx = int(np.where((exps == (1, 1, 0)).all(axis=1))[0][0])
    assert abs(multinomial_std(2, exps)[idx] ** 2 - 2.0) < 1e-12
    draws = np.array(
        [sample_real_kostlan(2, RandomStream(12).substream(i)).coeffs[idx]
         for i in range(4000)]
    )
    assert abs(np.var(draws) - 2.0) < 2.0 * 5 / np.sqrt(4000)


def test_determinism_and_substream_independence():
    a = sample_rational_pair(7, RandomStream(99).substream(3))
    b = sample_rational_pair(7, RandomStream(99).substream(3))
    c = sample_rational_pair(7, RandomStream(99).substream(4))
    assert np.array_equal(a.p.coeffs, b.p.coeffs)
    assert np.array_equal(a.q.coeffs, b.q.coeffs)
    assert not np.array_equal(a.p.coeffs, c.p.coeffs)


def test_nested_substreams_distinct():
    s = RandomStream(5)
    g1 = s.substream(1).substream(2).generator().normal(size=8)
    g2 = s.substream(2).substream(1).generator().normal(size=8)
    assert not np.allclose(g1, g2)


def test_rotate_pair_identity_and_inverse():
    rp = sample_rational_pair(9, RandomStream(3))
    same = rotate_pair(rp, Rotation.identity())
    assert np.allclose(same.p.coeffs, rp.p.coeffs, atol=1e-12)
    g = np.random.default_rng(17)
    r = Rotation.random(g)
    back = rotate_pair(rotate_pair(rp, r), r.inverse())
    # rotation acts projectively; compare up to the common scalar
    lam = back.p.coeffs[-1] / rp.p.coeffs[-1]
    assert np.allclose(back.p.coeffs, lam * rp.p.coeffs, atol=1e-9)
    assert np.allclose(back.q.coeffs, lam * rp.q.coeffs, atol=1e-9)


def test_rotation_invariance_of_variance_profile():
    # rotated ensemble draws keep the binomial variance profile
    g = np.random.default_rng(23)
    r = Rotation.random(g)
    n = 5
    acc = np.zeros(n + 1)
    trials = 3000
    for i in range(trials):
        rp = sample_rational_pair(n, RandomStream(71).substream(i))
        rot = rotate_pair(rp, r)
        acc += np.abs(rot.p.coeffs) ** 2
    profile = acc / trials
    target = sqrt_binomial(n, np.arange(n + 1)) ** 2
    assert np.max(np.abs(profile / target - 1.0)) < 0.2


def test_pair_json_round_trip():
    rp = sample_rational_pair(6, RandomStream(8))
    back = RationalPair.from_json(rp.to_json())
    assert np.array_equal(back.p.coeffs, rp.p.coeffs)
    assert np.array_equal(back.q.coeffs, rp.q.coeffs)


def test_per_degree_tables_are_cached_read_only_and_unchanged():
    # each degree's exponents and coefficient scales are built once, shared
    # read-only, and hold the bits of the uncached formulas
    for n in (1, 7, 50):
        want = np.array([(a, b, n - a - b) for a in range(n + 1) for b in range(n - a + 1)])
        tables = [
            (exponents, want),
            (binomial_std, sqrt_binomial(n, np.arange(n + 1))),
            (real_kostlan_std, multinomial_std(n, want)),
        ]
        for table, ref in tables:
            a = table(n)
            assert a is table(n) and not a.flags.writeable
            assert a.dtype == ref.dtype and np.array_equal(a, ref)

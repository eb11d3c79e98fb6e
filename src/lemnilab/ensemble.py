"""Random polynomial ensembles with binomial / multinomial variance profiles.

Coefficients are complex Gaussians with E|a_k|^2 = C(n, k) (one complex
variable) or real Gaussians with variance n!/(a! b! c!) (homogeneous in
three real variables).  Sampling is driven by counter-based streams so a
trial's draws are reproducible regardless of scheduling.  Sampling and
the curves' data only: what an evaluator builds from them is its field's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .sphere import Rotation

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (used to derive substream indices)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomStream:
    """A (seed, index) pair naming one independent Philox stream."""

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=[self.seed & _MASK64, self.index & _MASK64])
        )

    def substream(self, k: int) -> "RandomStream":
        """A derived stream, statistically independent of this one."""
        return RandomStream(self.seed, _splitmix64((self.index & _MASK64) ^ _splitmix64(k + 1)))


def sqrt_binomial(n: int, k) -> np.ndarray:
    """sqrt(C(n, k)) in floating point, stable up to n ~ 1000."""
    k = np.asarray(k, dtype=float)
    return np.exp(0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a table cached per degree is shared by every
    caller."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=8)
def binomial_std(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n: the coefficient scales of the complex
    ensemble of degree n."""
    return _read_only(sqrt_binomial(n, np.arange(n + 1)))


@dataclass(frozen=True, eq=False)
class KostlanPolynomial:
    """A degree-n polynomial sum a_k z^k in the monomial basis."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.degree + 1,):
            raise ValueError("coeffs must have exactly degree+1 entries")
        object.__setattr__(self, "coeffs", c)

    def variance_profile(self) -> np.ndarray:
        """E|a_k|^2 of the ensemble this degree belongs to: C(n, k)."""
        return binomial_std(self.degree) ** 2

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }

    @staticmethod
    def from_json(d: dict) -> "KostlanPolynomial":
        coeffs = np.array([complex(re, im) for re, im in d["coeffs"]])
        return KostlanPolynomial(d["degree"], coeffs)


@dataclass(frozen=True, eq=False)
class RationalPair:
    """An ordered pair (p, q) of equal degree defining f = |p|^2 - |q|^2."""

    p: KostlanPolynomial
    q: KostlanPolynomial

    def __post_init__(self):
        if self.p.degree != self.q.degree:
            raise ValueError("p and q must have equal degree")
        if not np.any(self.q.coeffs):
            raise ValueError("q must not be identically zero")

    @property
    def degree(self) -> int:
        return self.p.degree

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "q": self.q.to_json()}

    @staticmethod
    def from_json(d: dict) -> "RationalPair":
        return RationalPair(
            KostlanPolynomial.from_json(d["p"]), KostlanPolynomial.from_json(d["q"])
        )


@dataclass(frozen=True, eq=False)
class RealKostlanPolynomial:
    """Homogeneous real polynomial sum c_abc x^a y^b z^c, a+b+c = n."""

    degree: int
    coeffs: np.ndarray  # aligned with exponents(degree)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        n = self.degree
        if c.shape != ((n + 1) * (n + 2) // 2,):
            raise ValueError("need exactly (n+1)(n+2)/2 coefficients")
        object.__setattr__(self, "coeffs", c)


@lru_cache(maxsize=8)
def exponents(n: int) -> np.ndarray:
    """All (a, b, c) with a+b+c = n, lexicographic in (a, b)."""
    out = [(a, b, n - a - b) for a in range(n + 1) for b in range(n - a + 1)]
    return _read_only(np.array(out, dtype=np.int64))


def multinomial_std(n: int, exps: np.ndarray) -> np.ndarray:
    """sqrt(n!/(a! b! c!)) per exponent row."""
    e = np.asarray(exps, dtype=float)
    return np.exp(0.5 * (gammaln(n + 1) - gammaln(e + 1).sum(axis=1)))


@lru_cache(maxsize=8)
def real_kostlan_std(n: int) -> np.ndarray:
    """multinomial_std over exponents(n): the coefficient scales of the
    real ensemble of degree n."""
    return _read_only(multinomial_std(n, exponents(n)))


def sample_kostlan(n: int, stream: RandomStream) -> KostlanPolynomial:
    """Draw from the complex ensemble: a_k ~ N_C(0, C(n, k))."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    rng = stream.generator()
    sd = binomial_std(n) / np.sqrt(2.0)
    re = rng.normal(size=n + 1)
    im = rng.normal(size=n + 1)
    return KostlanPolynomial(n, sd * (re + 1j * im))


def sample_rational_pair(n: int, stream: RandomStream) -> RationalPair:
    """p and q drawn independently (separate substreams)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    p = sample_kostlan(n, stream.substream(0))
    q = sample_kostlan(n, stream.substream(1))
    return RationalPair(p, q)


def sample_real_kostlan(n: int, stream: RandomStream) -> RealKostlanPolynomial:
    if n < 1:
        raise ValueError("degree must be >= 1")
    rng = stream.generator()
    sd = real_kostlan_std(n)
    return RealKostlanPolynomial(n, sd * rng.normal(size=len(sd)))


def _linear_powers(a: complex, b: complex, n: int) -> list[np.ndarray]:
    """Coefficient vectors of (a z + b)^k for k = 0..n."""
    powers = [np.array([1.0 + 0j])]
    lin = np.array([b, a], dtype=complex)
    for _ in range(n):
        powers.append(np.convolve(powers[-1], lin))
    return powers


def mobius_polynomials(
    coeff_rows: list[np.ndarray], n: int, a: complex, b: complex, c: complex, d: complex
) -> list[np.ndarray]:
    """Pull degree-n polynomials back by the Mobius map (a z + b)/(c z + d).

    Each input row maps to the coefficients of
    sum_k row[k] (a z + b)^k (c z + d)^(n-k).
    """
    u_pows = _linear_powers(a, b, n)
    v_pows = _linear_powers(c, d, n)
    basis = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        basis[k] = np.convolve(u_pows[k], v_pows[n - k])
    return [np.asarray(row, dtype=complex) @ basis for row in coeff_rows]


def rotate_pair(rp: RationalPair, r: Rotation) -> RationalPair:
    """The pair whose lemniscate is the r-rotated lemniscate of rp.

    Composing with the inverse Mobius map, the SU(2) action of r^-1
    (lam z + mu)/(-conj(mu) z + conj(lam)), pulls the field back, so the
    new field satisfies f_new(x) = f_old(r^-1 x) on the sphere.
    """
    n = rp.degree
    (a, b), (c, d) = r.inverse().su2()
    pc, qc = mobius_polynomials([rp.p.coeffs, rp.q.coeffs], n, a, b, c, d)
    return RationalPair(KostlanPolynomial(n, pc), KostlanPolynomial(n, qc))

"""Closed-form expected values for lemniscate length and meridian tangents.

Both observables reduce to densities of Hermitian quadratic forms in the
polynomial coefficients; the characteristic function of such a form is an
explicit determinant, so the densities come out of Fourier inversion by
residues.  Every closed form here has an independent quadrature companion
(suffix _quadrature) that never shares code with it; verify_chain runs the
whole cascade and reports per-step relative errors and the measured
inter-step constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import erfcx, gammaln, k0


@dataclass(frozen=True)
class HermitianFormSpec:
    """q(v) = v Q conj(v)^T with v complex Gaussian, Var(v_j) = L_jj."""

    Q: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=complex)
        L = np.asarray(self.L, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if np.max(np.abs(Q - Q.conj().T)) > 1e-12:
            raise ValueError("Q must be Hermitian")
        if L.shape != Q.shape or np.max(np.abs(L - np.diag(np.diag(L)))) > 0:
            raise ValueError("L must be diagonal, same size as Q")
        if np.any(np.diag(L) <= 0):
            raise ValueError("L must have positive diagonal")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "L", L)


def char_function(spec: HermitianFormSpec, sign: int = +1) -> complex:
    """E exp(+/- i q(a)) = 1/det(I -/+ i L Q)."""
    k = spec.Q.shape[0]
    return 1.0 / np.linalg.det(np.eye(k) - 1j * sign * (spec.L @ spec.Q))


def char_product(spec: HermitianFormSpec) -> float:
    """E exp(i q(a)) E exp(-i q(b)): real, in (0, 1]."""
    v = char_function(spec, +1) * char_function(spec, -1)
    return float(v.real)


def length_form(n: int, s: float, t: float) -> HermitianFormSpec:
    """The 2x2 form s*|p(0)|^2-part + t*(first derivative)-part."""
    Q = np.array([[s, t / 2.0], [t / 2.0, 0.0]], dtype=complex)
    return HermitianFormSpec(Q, np.diag([1.0, float(n)]))


def length_char_product(n: int, s: float, t: float) -> float:
    return 1.0 / ((1.0 + n * t * t / 4.0) ** 2 + s * s)


def _binom(n: int, k: int) -> float:
    return math.exp(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def tangent_form(n: int, s: float, t: float, u: float, w: float) -> HermitianFormSpec:
    """The 3x3 form mixing the field, its first and second meridian
    derivatives, with coefficient variances (1, n, C(n,2))."""
    Q = np.array(
        [
            [s, t - 1j * u, w],
            [t + 1j * u, 2.0 * w, 0.0],
            [w, 0.0, 0.0],
        ],
        dtype=complex,
    )
    return HermitianFormSpec(Q, np.diag([1.0, float(n), _binom(n, 2)]))


def length_density(n: int) -> Callable[[float], float]:
    """x2 -> rho(0, x2) = (1/(2 sqrt n)) exp(-2|x2|/sqrt n)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    rn = math.sqrt(n)

    def rho(x2: float) -> float:
        return math.exp(-2.0 * abs(x2) / rn) / (2.0 * rn)

    return rho


def length_density_quadrature(n: int, x2: float) -> float:
    """Oracle: 2D Fourier inversion of the characteristic function.

    rho(0, x2) = (1/4pi^2) int int cos(t x2) / ((1+n t^2/4)^2 + s^2) ds dt,
    with the s integral done by quad on (-inf, inf) first.
    """

    def inner(t):
        # substitute s = A u so the integrand keeps a uniform scale; the
        # raw form is vanishingly small at large t and quad's absolute
        # tolerance would short-circuit the tail there
        A = 1.0 + n * t * t / 4.0
        val, _ = integrate.quad(
            lambda u: 1.0 / (A * (1.0 + u * u)), -np.inf, np.inf
        )
        return val

    # the inner integral only decays like 1/t^2, so the outer transform
    # is summed over doubling segments until a segment is negligible
    def segment(a, b):
        if x2 == 0.0:
            val, _ = integrate.quad(inner, a, b, limit=400)
        else:
            val, _ = integrate.quad(
                inner, a, b, weight="cos", wvar=abs(x2), limit=400
            )
        return val

    total = segment(0.0, 50.0)
    a = 50.0
    while a < 1e9:
        piece = segment(a, 2.0 * a)
        total += piece
        a *= 2.0
        if abs(piece) <= 1e-13 * (1.0 + abs(total)):
            break
    return 2.0 * total / (4.0 * math.pi**2)


def length_constant(n: int) -> float:
    """C(n) = int |x2| rho(0, x2) dx2 = sqrt(n)/4."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return math.sqrt(n) / 4.0


def length_constant_quadrature(n: int) -> float:
    rho = length_density(n)
    val, _ = integrate.quad(lambda x: abs(x) * rho(x), -np.inf, np.inf)
    return val


def expected_length(n: int) -> float:
    """E |Gamma| = 2 pi^2 C(n) = (pi^2/2) sqrt(n)."""
    return 2.0 * math.pi**2 * length_constant(n)


def tangent_char_chain(n: int) -> dict:
    """The cascade of partially integrated characteristic functions.

    Fpm(s,t,u,w,sign) is the closed-form factor; F2 absorbs the s
    integration, F3 the t integration (up to pi^2/n), F4 the (u, h1)
    double transform (up to 4n).
    """
    if n < 2:
        raise ValueError("degree must be >= 2")

    def Fpm(s, t, u, w, sign=+1):
        re = (
            1.0
            + n * t * t
            + n * u * u
            - 2.0 * n * s * w
            - n * w * w / 2.0
            - n * n * w * w / 2.0
        )
        im = n * n * w**3 - n**3 * w**3 - 2.0 * n * w - s
        return 1.0 / (re + 1j * sign * im)

    def F2(t, u, w):
        return (2.0 * math.pi) / (
            2.0
            + 2.0 * n * (t * t + u * u)
            + n * (9.0 * n - 1.0) * w * w
            + 4.0 * (n - 1.0) * n**3 * w**4
        )

    def F3(u, w):
        return (
            u * u
            + 1.0 / n
            + (9.0 * n - 1.0) * w * w / 2.0
            + 2.0 * (n - 1.0) * n * n * w**4
        ) ** (-0.5)

    def F4(w):
        return 2.0 / (
            2.0 + n * w * w * (-1.0 + n * (9.0 + 4.0 * (-1.0 + n) * n * w * w))
        )

    return {"Fpm": Fpm, "F2": F2, "F3": F3, "F4": F4}


def _det_product(n: int, s: float, t: float, u: float, w: float) -> float:
    # oracle path: determinants, no shared algebra with the chain formulas
    return char_product(tangent_form(n, s, t, u, w))


_CHAIN_SEED = 7  # key of verify_chain's stream of quadrature points


def verify_chain(n: int, n_points: int = 20) -> dict:
    """Check every reduction step of the tangent cascade by quadrature.

    Returns per-step max relative errors plus the measured inter-step
    constants.  The literal Fpm display is compared against the
    determinant characteristic function; the product form F+ F- is the
    authoritative integrand either way.
    """
    ch = tangent_char_chain(n)
    rng = np.random.Generator(np.random.Philox(key=[_CHAIN_SEED, 0]))
    pts = rng.uniform(-0.5, 0.5, size=(n_points, 4))
    pts[:, 3] *= 2.0 / n  # keep w in the region where F4 is not negligible

    report = {"n": n}

    # literal F+- vs determinant char function, and their products
    err_lit = 0.0
    err_prod = 0.0
    for s, t, u, w in pts:
        det_p = char_function(tangent_form(n, s, t, u, w), +1)
        lit_p = ch["Fpm"](s, t, u, w, +1)
        err_lit = max(err_lit, abs(det_p - lit_p) / abs(det_p))
        prod_det = _det_product(n, s, t, u, w)
        prod_lit = (ch["Fpm"](s, t, u, w, +1) * ch["Fpm"](s, t, u, w, -1)).real
        err_prod = max(err_prod, abs(prod_det - prod_lit) / abs(prod_det))
    report["literal_vs_det_factor"] = err_lit
    report["literal_vs_det_product"] = err_prod

    # s integration: int F+F- ds = F2(t,u,w)
    err_s = 0.0
    for _, t, u, w in pts:
        val, _ = integrate.quad(
            lambda s: _det_product(n, s, t, u, w), -np.inf, np.inf, limit=200
        )
        ref = ch["F2"](t, u, w)
        err_s = max(err_s, abs(val - ref) / abs(ref))
    report["s_step"] = err_s

    # t integration: int F2 dt = c * F3(u,w); measure c (analytic pi^2/n)
    consts = []
    for _, _, u, w in pts:
        val, _ = integrate.quad(
            lambda t: ch["F2"](t, u, w), -np.inf, np.inf, limit=200
        )
        consts.append(val / ch["F3"](u, w))
    consts = np.array(consts)
    report["t_step_constant"] = float(consts.mean())
    report["t_step_constant_spread"] = float(
        (consts.max() - consts.min()) / consts.mean()
    )
    report["t_step_constant_vs_pi2_over_n"] = float(
        abs(consts.mean() - math.pi**2 / n) / (math.pi**2 / n)
    )

    # (u, h1) double transform: int |h1| (int e^{-i h1 u} F3 du) dh1
    #   = int |h1| 2 K0(|h1| / F3(0,w)) dh1 = 4 F3(0,w)^2 = 4n F4(w)
    err_u = 0.0
    for _, _, _, w in pts:
        a = 1.0 / ch["F3"](0.0, w)
        val, _ = integrate.quad(lambda h: 2.0 * h * 2.0 * k0(a * h), 0.0, np.inf)
        ref = 4.0 * n * ch["F4"](w)
        err_u = max(err_u, abs(val - ref) / abs(ref))
    report["u_h1_step"] = err_u

    # endpoint: (1/4pi) int |h2| int e^{-i h2 w} F4(w) dw dh2.  The |h2|
    # transform of an even smooth integrable function collapses to a
    # finite-part identity, int |h| e^{-ihw} dh = -2/w^2, leaving one
    # ordinary integral: (1/pi) int_0^inf (F4(0) - F4(w)) / w^2 dw.
    F4 = ch["F4"]
    val, _ = integrate.quad(
        lambda w: (F4(0.0) - F4(w)) / (w * w), 0.0, np.inf, limit=400
    )
    num = val / math.pi
    exact = exact_meridian_expectation(n)
    report["endpoint_quadrature"] = num
    report["endpoint_closed_form"] = exact
    report["endpoint_rel_err"] = abs(num - exact) / exact
    return report


def exact_meridian_expectation(n: int) -> float:
    """The paper's chain endpoint in closed form: partial fractions of F4.

    With A = 4(n-1)n^3, B = n(9n-1) the denominator of F4 factors as
    A (w^2+alpha)(w^2+beta); each Lorentzian contributes 2pi a^{-3/2} to
    the |h2|-weighted Fourier mass, giving
    (1/(A (beta-alpha))) (alpha^{-3/2} - beta^{-3/2}).

    This equals n c((n-1)/(4n)) (see meridian_constant): tangent_form
    weights the second meridian derivative by the Taylor coefficient a_2
    where p''(0) = 2 a_2, so its variance is a quarter of the true one.
    The true mean is meridian_expectation(n) = n c(1 - 1/n).
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    A = 4.0 * (n - 1.0) * n**3
    B = n * (9.0 * n - 1.0)
    sq = math.sqrt(B * B - 8.0 * A)
    alpha = (B - sq) / (2.0 * A)
    beta = (B + sq) / (2.0 * A)
    return (alpha**-1.5 - beta**-1.5) / (A * (beta - alpha))


def tangent_asymptotic_constant() -> float:
    """The paper's chain limit of E nu / n: (32 - sqrt 2)/28 = c(1/4).

    The limit of exact_meridian_expectation(n)/n, which carries a quarter
    of the second-derivative variance; the true limit is
    tangent_limit_constant() = c(1) = 2 - sqrt2/2.
    """
    return (32.0 - math.sqrt(2.0)) / 28.0


def component_upper_constant() -> float:
    """The paper's asymptotic upper bound on E b0 / n: half its chain
    tangent constant, (32 - sqrt 2)/56 = c(1/4)/2."""
    return tangent_asymptotic_constant() / 2.0


def meridian_constant(a: float) -> float:
    """c(a) = E[|D| sqrt(a E + D^2)] = 1 + a / (2 + sqrt(2a)), for
    D ~ N(0,1) and E ~ Exp(1).

    The one-point Kac-Rice integral for meridian tangents at a point
    whose meridian is a geodesic (the chart origin, Var a_k = C(n,k)),
    conditioned on f = 0 and on a vanishing meridian derivative; the same
    conditioning reproduces E |Gamma| = (pi^2/2) sqrt n.  At degree n
    the mean count is n c(1 - 1/n).
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    return 1.0 + a / (2.0 + math.sqrt(2.0 * a))


def meridian_constant_quadrature(a: float) -> float:
    """Oracle for c(a), sharing nothing with the closed form or the chain.

    The E-integral of sqrt(a E + D^2) is |D| + (1/2) sqrt(pi a)
    erfcx(|D| / sqrt a); the remaining expectation over D is a 1-D quad
    against the half-normal density.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    ra = math.sqrt(a)

    def integrand(d):
        inner = d + (0.5 * math.sqrt(math.pi * a) * erfcx(d / ra) if a > 0 else 0.0)
        return d * inner * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * d * d)

    val, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
    return val


def meridian_expectation(n: int) -> float:
    """E nu_n = n c(1 - 1/n): mean number of meridian tangents at degree n."""
    if n < 2:
        raise ValueError("degree must be >= 2")
    return n * meridian_constant(1.0 - 1.0 / n)


def tangent_limit_constant() -> float:
    """lim E nu_n / n = c(1) = 2 - sqrt2/2."""
    return 2.0 - math.sqrt(2.0) / 2.0


def tangent_tau_integrand(tau: float) -> float:
    """Closed form of the inner cosine transform in the n -> inf limit:
    (pi/7)(4 e^{-|tau|/2} - sqrt2 e^{-sqrt2 |tau|})."""
    t = abs(tau)
    return (math.pi / 7.0) * (
        4.0 * math.exp(-t / 2.0) - math.sqrt(2.0) * math.exp(-math.sqrt(2.0) * t)
    )


def _cos_transform(fn, tau: float, cut: float) -> float:
    """int_R cos(tau v) fn(v) dv for even fn, truncated where fn is tiny.

    The cutoff is doubled until the result stabilizes to 1e-12.
    """
    prev = None
    while True:
        if tau == 0.0:
            val, _ = integrate.quad(fn, 0.0, cut, limit=400)
        else:
            val, _ = integrate.quad(fn, 0.0, cut, weight="cos", wvar=tau, limit=400)
        val *= 2.0
        if prev is not None and abs(val - prev) <= 1e-12 * (1.0 + abs(val)):
            return val
        prev = val
        cut *= 2.0
        if cut > 1e9:
            return val


def tangent_tau_integrand_quadrature(tau: float) -> float:
    """Oracle for the inner transform: int cos(tau v) 2/(2+9v^2+4v^4) dv."""
    return _cos_transform(
        lambda v: 2.0 / (2.0 + 9.0 * v * v + 4.0 * v**4), tau, 50.0
    )


def tangent_asymptotic_quadrature() -> float:
    """The limiting double integral, evaluated numerically:

    pi * (1/4pi^2) int |tau| (int cos(tau v) 2/(2+9v^2+4v^4) dv) dtau.

    The inner transform decays like e^{-|tau|/2}, so the tau range is
    truncated at 70 (tail below 1e-14) and doubled once for safety.
    """
    prev = None
    cut = 70.0
    while True:
        val, _ = integrate.quad(
            lambda tau: 2.0 * tau * tangent_tau_integrand_quadrature(tau),
            0.0,
            cut,
            limit=400,
        )
        if prev is not None and abs(val - prev) <= 1e-10 * (1.0 + abs(val)):
            return val / (4.0 * math.pi)
        prev = val
        cut *= 2.0


def tail_bound(ell: int, n: int, rho: float) -> float:
    """M_{ell,n}: sum over k = ell+1..n of
    rho^k sqrt(2/(pi k!)) (1 + sqrt2 k)."""
    if not 0 <= ell <= n:
        raise ValueError("need 0 <= ell <= n")
    total = 0.0
    for k in range(ell + 1, n + 1):
        amp = math.exp(k * math.log(rho) - 0.5 * gammaln(k + 1)) if rho > 0 else 0.0
        total += amp * math.sqrt(2.0 / math.pi) * (1.0 + math.sqrt(2.0) * k)
    return total


def markov_bound(m: float, delta: float) -> float:
    """The companion probability lower bound 1 - 2 M / delta."""
    return 1.0 - 2.0 * m / delta


def kostlan_expected_length(n: int) -> float:
    """E length of the real Kostlan zero set on S^2: 2 pi sqrt(n).

    Kac-Rice: f(x) ~ N(0, 1) is independent of its tangential gradient
    ~ N(0, n I_2), so the length per unit area is
    E|grad f| p_f(0) = sqrt(n pi/2) / sqrt(2 pi) = sqrt(n)/2, times 4 pi.
    """
    return 2.0 * math.pi * math.sqrt(n)


def kostlan_meridian_expectation(n: int) -> float:
    """E nu_K = (4 sqrt2 / pi) sqrt(n(n-1)) for the real plane ensemble."""
    if n < 2:
        raise ValueError("degree must be >= 2")
    return 4.0 * math.sqrt(2.0) / math.pi * math.sqrt(n * (n - 1.0))


def kostlan_density_integral(n: int) -> float:
    """The cited value of int |h1 h2| rho_K dh: (sqrt2/pi^2) sqrt(n(n-1))."""
    return math.sqrt(2.0) / math.pi**2 * math.sqrt(n * (n - 1.0))


def kostlan_density_quadrature(n: int) -> float:
    """Quadrature of |h1 h2| against the displayed rho_K
    (1/(2 pi sqrt n)) exp(-h1^2/n) exp(-h2^2/(n(n-1))).

    The display is not a normalized density; this integral does not
    reproduce kostlan_density_integral, and verify_kostlan reports the
    measured ratio between the two.
    """
    pref = 1.0 / (2.0 * math.pi * math.sqrt(n))
    i1, _ = integrate.quad(lambda h: 2.0 * h * math.exp(-h * h / n), 0.0, np.inf)
    i2, _ = integrate.quad(
        lambda h: 2.0 * h * math.exp(-h * h / (n * (n - 1.0))), 0.0, np.inf
    )
    return pref * i1 * i2


def kostlan_corrected_quadrature(n: int) -> float:
    """Quadrature of |h1 h2| against the joint density slice derived from
    the coefficient variances themselves.

    For the real ensemble at the point (0,0,1) the four jet variables
    (p, dp/dx, dp/dy, d2p/dx2) are independent centered Gaussians with
    variances (1, n, n, 2n(n-1)); the slice at (0, 0, h1, h2) is the
    product of the first two normal densities at 0 and the last two at
    h1, h2.  Its |h1 h2| integral reproduces the cited closed form,
    which pins the displayed exponential down to missing normalization
    factors.
    """
    s1sq = float(n)
    s2sq = 2.0 * n * (n - 1.0)
    pref = (1.0 / math.sqrt(2.0 * math.pi)) * (1.0 / math.sqrt(2.0 * math.pi * n))
    i1, _ = integrate.quad(
        lambda h: 2.0
        * h
        * math.exp(-h * h / (2.0 * s1sq))
        / math.sqrt(2.0 * math.pi * s1sq),
        0.0,
        np.inf,
    )
    i2, _ = integrate.quad(
        lambda h: 2.0
        * h
        * math.exp(-h * h / (2.0 * s2sq))
        / math.sqrt(2.0 * math.pi * s2sq),
        0.0,
        np.inf,
    )
    return pref * i1 * i2


def verify_kostlan(n: int) -> dict:
    """Compare the density integrals against the cited closed form.

    The corrected slice (coefficient-variance Gaussians) should match to
    quadrature accuracy; the displayed exponential is unnormalized and
    its ratio to the cited value is reported as-is.
    """
    quad_val = kostlan_density_quadrature(n)
    cited = kostlan_density_integral(n)
    corrected = kostlan_corrected_quadrature(n)
    return {
        "n": n,
        "displayed_density_integral": quad_val,
        "corrected_density_integral": corrected,
        "cited_integral": cited,
        "ratio": quad_val / cited,
        "corrected_rel_err": abs(corrected - cited) / cited,
        "expectation": kostlan_meridian_expectation(n),
    }

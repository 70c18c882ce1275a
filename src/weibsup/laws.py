"""Symmetric laws with tail P(|X| > t) = exp(-t^r) and their moment machinery.

Closed-form absolute moments are E|X|^p = Gamma(1 + p/r).  The conjugate
exponent s, defined by 1/s = 1/r - 1/2, is the tail exponent of the magnitude
law Y for which |gY| (g standard Gaussian, independent of Y) matches the tail
of |X| up to constants; ``product_tail`` computes P(|gY| >= t) by quadrature
and ``coupled_quantiles`` realizes the monotone coupling of the two laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RandomStream

__all__ = [
    "QuadratureError",
    "QuantileInversionError",
    "WeibullLaw",
    "MomentFunctional",
    "conjugate_exponent",
    "abs_weibull",
    "symmetric_weibull",
    "sample_symmetric_weibull",
    "exact_abs_moment",
    "sup_norm_moment_bound",
    "lp_norm_moment_bound",
    "product_tail",
    "coupled_quantiles",
]


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""


class QuantileInversionError(RuntimeError):
    """Survival-function inversion failed to bracket or converge."""


def conjugate_exponent(r: float) -> float:
    """s with 1/s = 1/r - 1/2; infinite at r = 2."""
    if not 0.0 < r <= 2.0:
        raise ValueError(f"r must lie in (0, 2], got {r}")
    if r == 2.0:
        return math.inf
    return 2.0 * r / (2.0 - r)


@dataclass(frozen=True)
class WeibullLaw:
    """Symmetric driver law with tail exp(-t^r), 0 < r <= 2."""

    r: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r <= 2.0:
            raise ValueError(f"r must lie in (0, 2], got {self.r}")
        object.__setattr__(self, "r", float(self.r))

    @property
    def s(self) -> float:
        return conjugate_exponent(self.r)

    def quantile_abs(self, u):
        """Quantile of |X| at probability u: solves 1 - exp(-q^r) = u."""
        uv = np.asarray(u, dtype=np.float64)
        if np.any(uv < 0.0) or np.any(uv >= 1.0):
            raise ValueError("quantile level must lie in [0, 1)")
        q = (-np.log1p(-uv)) ** (1.0 / self.r)
        return float(q) if np.isscalar(u) or uv.ndim == 0 else q


def abs_weibull(rng: np.random.Generator, exponent: float, size=None):
    """|X| with tail exp(-t^exponent), by inverse CDF from one uniform."""
    if not exponent > 0.0:
        raise ValueError(f"tail exponent must be positive, got {exponent}")
    u = rng.random(size)
    return (-np.log1p(-u)) ** (1.0 / exponent)


def symmetric_weibull(rng: np.random.Generator, exponent: float, size=None):
    """Symmetric X with P(|X| > t) = exp(-t^exponent); independent sign."""
    mag = abs_weibull(rng, exponent, size)
    # u - 0.5 is negative exactly when u < 0.5, and +0.0 at u = 0.5
    return np.copysign(mag, rng.random(size) - 0.5)


def sample_symmetric_weibull(law: WeibullLaw, stream: RandomStream, size=None):
    return symmetric_weibull(stream.generator(), law.r, size)


def exact_abs_moment(r: float, p: float) -> float:
    """E|X|^p = Gamma(1 + p/r) for the tail exp(-t^r)."""
    if not r > 0.0:
        raise ValueError(f"r must be positive, got {r}")
    if p < 0.0:
        raise ValueError(f"moment order must be nonnegative, got {p}")
    return math.gamma(1.0 + p / r)


@dataclass(frozen=True)
class MomentFunctional:
    """Value of a p-th moment upper bound for sum_k t_k X_k (constants omitted)."""

    p: float
    value: float
    kind: str

    _KINDS = ("sup_norm_bound", "lp_norm_bound")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.p >= 2.0:
            raise ValueError(f"moment order must be >= 2, got {self.p}")
        if not self.value >= 0.0:
            raise ValueError(f"value must be nonnegative, got {self.value}")


def sup_norm_moment_bound(t, p: float, r: float) -> MomentFunctional:
    """sqrt(p)*||t||_2 + p^(1/r)*||t||_inf."""
    if not p >= 2.0:
        raise ValueError(f"moment order must be >= 2, got {p}")
    if not 0.0 < r <= 2.0:
        raise ValueError(f"r must lie in (0, 2], got {r}")
    tv = np.asarray(t, dtype=np.float64)
    l2 = float(np.sqrt(np.sum(tv * tv)))
    linf = float(np.max(np.abs(tv))) if tv.size else 0.0
    value = math.sqrt(p) * l2 + p ** (1.0 / r) * linf
    return MomentFunctional(p=p, value=value, kind="sup_norm_bound")


def lp_norm_moment_bound(t, p: float, r: float) -> MomentFunctional:
    """Gamma(1+p/r)^(1/p)*||t||_p + sqrt(p)*Gamma(1+2/r)^(1/2)*||t||_2.

    This is the two-term moment functional evaluated with the exact Weibull
    moments of the summands t_k X_k.
    """
    if not p >= 2.0:
        raise ValueError(f"moment order must be >= 2, got {p}")
    if not 0.0 < r <= 2.0:
        raise ValueError(f"r must lie in (0, 2], got {r}")
    tv = np.asarray(t, dtype=np.float64)
    lp = float(np.sum(np.abs(tv) ** p) ** (1.0 / p))
    l2 = float(np.sqrt(np.sum(tv * tv)))
    value = exact_abs_moment(r, p) ** (1.0 / p) * lp + math.sqrt(p) * math.sqrt(
        exact_abs_moment(r, 2.0)
    ) * l2
    return MomentFunctional(p=p, value=value, kind="lp_norm_bound")


def product_tail(r: float, t: float, quadrature_tol: float = 1e-8) -> float:
    """P(|gY| >= t) for g standard Gaussian independent of Y with tail exp(-y^s).

    Substituting u = y^s turns the magnitude mass into exp(-u) du on (0, inf):
    the integrand is erfc(t / (sqrt(2) u^(1/s))) exp(-u).  The domain is
    truncated where the remaining mass drops below quadrature_tol/10.
    """
    if not 0.0 < r < 2.0:
        raise ValueError(f"r must lie in (0, 2), got {r}")
    if t < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    if not quadrature_tol > 0.0:
        raise ValueError("quadrature tolerance must be positive")
    if t == 0.0:
        return 1.0
    from scipy import integrate

    s = conjugate_exponent(r)
    u_max = math.log(10.0 / quadrature_tol)
    sqrt2 = math.sqrt(2.0)

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return math.erfc(t / (sqrt2 * u ** (1.0 / s))) * math.exp(-u)

    hint = min(max(t**s, 0.25), 0.75 * u_max)
    value, err = integrate.quad(
        integrand,
        0.0,
        u_max,
        epsabs=0.5 * quadrature_tol,
        epsrel=1e-12,
        limit=400,
        points=[hint],
    )
    achieved = err + 0.1 * quadrature_tol
    if achieved > quadrature_tol:
        raise QuadratureError(
            f"quadrature reached absolute tolerance {achieved:.3e} "
            f"(requested {quadrature_tol:.3e})"
        )
    return min(max(value, 0.0), 1.0)


def coupled_quantiles(
    r: float, u: float, quadrature_tol: float = 1e-10
) -> tuple[float, float]:
    """Quantiles of |X| and |gY| at the same level u; the monotone coupling.

    x solves 1 - exp(-x^r) = u; gy solves P(|gY| >= gy) = 1 - u, inverted
    numerically from ``product_tail`` by bracketing and Brent's method.
    """
    if not 0.0 < r < 2.0:
        raise ValueError(f"r must lie in (0, 2), got {r}")
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {u}")
    from scipy import optimize

    x = (-math.log1p(-u)) ** (1.0 / r)
    target = 1.0 - u

    def gap(q: float) -> float:
        return product_tail(r, q, quadrature_tol) - target

    hi = 1.0
    for _ in range(80):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise QuantileInversionError(f"failed to bracket the quantile at u={u}")
    try:
        gy = optimize.brentq(gap, 0.0, hi, xtol=1e-12, rtol=1e-12, maxiter=200)
    except RuntimeError as exc:
        raise QuantileInversionError(str(exc)) from exc
    return x, float(gy)

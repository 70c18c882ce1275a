import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from weibsup.core import RandomStream
from weibsup.laws import (
    MomentFunctional,
    QuadratureError,
    WeibullLaw,
    abs_weibull,
    conjugate_exponent,
    sup_norm_moment_bound,
    coupled_quantiles,
    exact_abs_moment,
    lp_norm_moment_bound,
    product_tail,
    sample_symmetric_weibull,
    symmetric_weibull,
)


def quadrature_abs_moment(r: float, p: float) -> float:
    """Independent oracle: E|X|^p = int_0^inf p t^(p-1) exp(-t^r) dt."""
    val, err = integrate.quad(
        lambda t: p * t ** (p - 1.0) * math.exp(-(t**r)), 0.0, np.inf, limit=300
    )
    assert err < 1e-6 * max(1.0, val)
    return val


class TestConjugate:
    def test_values(self):
        assert conjugate_exponent(1.0) == 2.0
        assert conjugate_exponent(0.5) == pytest.approx(2.0 / 3.0)
        assert math.isinf(conjugate_exponent(2.0))

    def test_defining_identity(self):
        for r in (0.3, 0.75, 1.2, 1.9):
            s = conjugate_exponent(r)
            assert 1.0 / s == pytest.approx(1.0 / r - 0.5)

    def test_domain(self):
        for bad in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                conjugate_exponent(bad)


class FixedUniforms:
    """Generator stand-in: each ``random`` call returns the next given draw."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self, size=None):
        return self._draws.pop(0)


class TestSampler:
    def test_quantile_zero(self):
        assert WeibullLaw(1.0).quantile_abs(0.0) == 0.0

    def test_median_r1(self):
        # solve exp(-t) = 1/2
        assert WeibullLaw(1.0).quantile_abs(0.5) == pytest.approx(math.log(2.0))

    def test_median_r_half(self):
        # solve exp(-sqrt(t)) = 1/2
        assert WeibullLaw(0.5).quantile_abs(0.5) == pytest.approx(math.log(2.0) ** 2)

    def test_law_domain(self):
        with pytest.raises(ValueError):
            WeibullLaw(0.0)
        with pytest.raises(ValueError):
            WeibullLaw(2.1)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_empirical_cdf_matches(self, r):
        x = np.abs(sample_symmetric_weibull(WeibullLaw(r), RandomStream(21, 3), size=30_000))
        ks = stats.kstest(x, lambda t: 1.0 - np.exp(-np.clip(t, 0.0, None) ** r)).statistic
        assert ks < 0.02

    def test_symmetry(self):
        x = sample_symmetric_weibull(WeibullLaw(1.0), RandomStream(22), size=30_000)
        assert abs(float(np.mean(np.sign(x))) ) < 0.02

    def test_sign_matches_where_formula_bitwise(self):
        # every magnitude uniform (0 gives a zero magnitude) against sign uniforms
        # at 0, just below 0.5, at 0.5, just above 0.5 and near 1
        mag_u, sign_u = np.meshgrid(
            [0.0, 0.25, 0.9],
            [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.999],
        )
        for r in (0.5, 1.0, 2.0):
            mag = abs_weibull(FixedUniforms(mag_u), r, mag_u.shape)
            expected = np.where(sign_u < 0.5, -1.0, 1.0) * mag
            got = symmetric_weibull(FixedUniforms(mag_u, sign_u), r, mag_u.shape)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
        # a zero magnitude with a negative sign is -0.0
        assert np.signbit(got[0, 0]) and got[0, 0] == 0.0

    def test_scalar_draw_is_float64(self):
        assert type(symmetric_weibull(np.random.default_rng(3), 1.0)) is np.float64
        got = symmetric_weibull(FixedUniforms(0.25, 0.2), 1.0)
        assert type(got) is np.float64
        assert got == math.log1p(-0.25)  # sign uniform 0.2 < 0.5: negative

    def test_reproducible(self):
        a = sample_symmetric_weibull(WeibullLaw(0.7), RandomStream(5, 1), size=100)
        b = sample_symmetric_weibull(WeibullLaw(0.7), RandomStream(5, 1), size=100)
        assert np.array_equal(a, b)


class TestExactMoments:
    def test_r1_p1(self):
        assert exact_abs_moment(1.0, 1.0) == pytest.approx(quadrature_abs_moment(1.0, 1.0))
        assert exact_abs_moment(1.0, 1.0) == pytest.approx(1.0)

    def test_gamma2_identity(self):
        assert exact_abs_moment(2.0, 2.0) == 1.0

    def test_r_half_p1(self):
        assert exact_abs_moment(0.5, 1.0) == pytest.approx(quadrature_abs_moment(0.5, 1.0))
        assert exact_abs_moment(0.5, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("p", [0.5, 2.0, 3.5])
    def test_matches_quadrature(self, r, p):
        assert exact_abs_moment(r, p) == pytest.approx(quadrature_abs_moment(r, p), rel=1e-7)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            exact_abs_moment(1.0, -0.5)

    def test_mc_moments_within_three_stderr(self):
        stream = RandomStream(404)
        for i, r in enumerate((0.5, 1.0, 2.0)):
            x = np.abs(symmetric_weibull(stream.child(i).generator(), r, 50_000))
            for p in (1.0, 2.0, 4.0):
                vals = x**p
                se = vals.std(ddof=1) / math.sqrt(vals.size)
                assert abs(vals.mean() - exact_abs_moment(r, p)) < 3.0 * se

    def test_moment_lower_bound_remark(self):
        # E|X|^p >= t^p P(|X| >= t) at t = p^(1/r) gives ||X||_p >= p^(1/r)/e
        for r in (0.5, 1.0, 2.0):
            for p in (2.0, 4.0, 8.0, 16.0):
                assert exact_abs_moment(r, p) ** (1.0 / p) >= p ** (1.0 / r) / math.e


class TestMomentFunctionals:
    def test_sup_norm_unit_vector(self):
        mf = sup_norm_moment_bound([1.0, 0.0, 0.0], p=4.0, r=1.0)
        assert mf.value == pytest.approx(2.0 + 4.0)
        assert mf.kind == "sup_norm_bound"

    def test_sup_norm_zero_vector(self):
        assert sup_norm_moment_bound([0.0, 0.0], p=2.0, r=1.0).value == 0.0

    def test_sup_norm_ones(self):
        mf = sup_norm_moment_bound([1.0, 1.0, 1.0, 1.0], p=2.0, r=0.5)
        assert mf.value == pytest.approx(math.sqrt(2.0) * 2.0 + 4.0)

    def test_lp_norm_unit_vector(self):
        mf = lp_norm_moment_bound([1.0], p=2.0, r=1.0)
        assert mf.value == pytest.approx(math.sqrt(2.0) * (1.0 + math.sqrt(2.0)))
        assert mf.kind == "lp_norm_bound"

    def test_lp_norm_zero(self):
        assert lp_norm_moment_bound([0.0, 0.0], p=4.0, r=1.0).value == 0.0

    def test_lp_norm_r2(self):
        mf = lp_norm_moment_bound([1.0, 0.0, 0.0], p=4.0, r=2.0)
        assert mf.value == pytest.approx(2.0 ** 0.25 + 2.0)

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            sup_norm_moment_bound([1.0], p=1.5, r=1.0)
        with pytest.raises(ValueError):
            lp_norm_moment_bound([1.0], p=1.0, r=1.0)
        with pytest.raises(ValueError):
            MomentFunctional(p=1.0, value=0.0, kind="lp_norm_bound")

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8
        ),
        p=st.floats(min_value=2.0, max_value=32.0),
        r=st.floats(min_value=0.2, max_value=2.0),
    )
    def test_lp_chain_inequality(self, t, p, r):
        # the norm-interpolation step behind the infinity-norm reduction:
        # p^(1/r) ||t||_p <= e^((2-r)/r) (sqrt(p) ||t||_2 + p^(1/r) ||t||_inf),
        # hence the two-term sums differ by at most a 1 + e^((2-r)/r) factor
        tv = np.asarray(t)
        lp = float(np.sum(np.abs(tv) ** p) ** (1.0 / p))
        l2 = float(np.sqrt(np.sum(tv * tv)))
        linf = float(np.max(np.abs(tv)))
        rhs = math.sqrt(p) * l2 + p ** (1.0 / r) * linf
        factor = math.exp((2.0 - r) / r)
        assert p ** (1.0 / r) * lp <= factor * rhs * (1.0 + 1e-12)
        lhs_sum = math.sqrt(p) * l2 + p ** (1.0 / r) * lp
        assert lhs_sum <= (1.0 + factor) * rhs * (1.0 + 1e-12)


class TestProductTail:
    def test_t_zero(self):
        assert product_tail(1.0, 0.0) == 1.0

    def test_sandwich_r1_t2(self):
        v = product_tail(1.0, 2.0)
        assert math.exp(-4.0) <= v <= 2.0 * math.exp(-1.0)

    def test_sandwich_r_half_t4(self):
        v = product_tail(0.5, 4.0, 1e-8)
        assert math.exp(-2.0 * 2.0) <= v <= 2.0 * math.exp(-1.0)

    def test_sandwich_grid(self):
        for r in (0.5, 0.75, 1.0):
            for t in np.arange(2.0, 8.01, 1.0):
                v = product_tail(r, float(t), 1e-8)
                assert math.exp(-2.0 * t**r) <= v <= 2.0 * math.exp(-(t**r) / 2.0)

    def test_monotone_in_t(self):
        vals = [product_tail(0.75, t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureError, match="tolerance"):
            product_tail(1.0, 2.0, quadrature_tol=1e-300)

    def test_r_domain(self):
        with pytest.raises(ValueError):
            product_tail(2.0, 1.0)


class TestCoupledQuantiles:
    def test_origin_limit(self):
        x, gy = coupled_quantiles(1.0, 1e-9)
        assert x == pytest.approx(0.0, abs=1e-8)
        assert gy == pytest.approx(0.0, abs=1e-3)

    def test_median_r1(self):
        x, gy = coupled_quantiles(1.0, 0.5)
        assert x == pytest.approx(math.log(2.0))
        # gy is the median of |gY|: its survival must be 1/2
        assert product_tail(1.0, gy) == pytest.approx(0.5, abs=1e-7)

    def test_monotone_coupling_grid(self):
        # the empirical coupling constants are recorded, not asserted
        grid = (0.5, 0.9, 0.99, 0.999)
        pairs = [coupled_quantiles(1.0, u) for u in grid]
        c_fwd = max(gy / (1.0 + x) for x, gy in pairs)
        c_bwd = max(x / (1.0 + gy) for x, gy in pairs)
        assert math.isfinite(c_fwd) and c_fwd > 0.0
        assert math.isfinite(c_bwd) and c_bwd > 0.0
        xs = [p[0] for p in pairs]
        gys = [p[1] for p in pairs]
        assert xs == sorted(xs) and gys == sorted(gys)

    def test_u_domain(self):
        with pytest.raises(ValueError):
            coupled_quantiles(1.0, 0.0)
        with pytest.raises(ValueError):
            coupled_quantiles(1.0, 1.0)

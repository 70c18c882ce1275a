import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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


class FixedDraws:
    """Generator stand-in: ``standard_exponential`` returns a copy of the given
    exponentials and ``bytes`` the given sign bytes, asked for by exact length."""

    def __init__(self, exponentials, sign_bytes=b""):
        self._exponentials = exponentials
        self._sign_bytes = sign_bytes

    def standard_exponential(self, size=None):
        return np.array(self._exponentials) if size is not None else self._exponentials

    def bytes(self, length):
        assert length == len(self._sign_bytes)
        return self._sign_bytes


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
        # every exponential (0 gives a zero magnitude) under both sign bits; entry i
        # is negative exactly when bit i of the sign bytes, most significant first,
        # is set, and the padding bits of the last byte (all set here) are unused
        exps = np.array([[0.0, 0.0, 0.25, 0.25, 0.9], [0.9, 3.0, 3.0, 7.5, 7.5]])
        sign_bits = np.array([[1, 0, 0, 1, 1], [0, 0, 1, 1, 0]])
        sign_bytes = bytes([0b10011001, 0b10111111])
        for r in (0.5, 1.0, 2.0):
            mag = abs_weibull(FixedDraws(exps), r, exps.shape)
            assert np.array_equal(mag, exps ** (1.0 / r))
            expected = np.where(sign_bits == 1, -1.0, 1.0) * mag
            got = symmetric_weibull(FixedDraws(exps, sign_bytes), r, exps.shape)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
        # a zero magnitude with a set sign bit is -0.0, with a clear one +0.0
        assert np.signbit(got[0, 0]) and got[0, 0] == 0.0
        assert not np.signbit(got[0, 1]) and got[0, 1] == 0.0

    def test_scalar_draw_is_float64(self):
        assert type(symmetric_weibull(np.random.default_rng(3), 1.0)) is np.float64
        got = symmetric_weibull(FixedDraws(0.25, b"\x80"), 1.0)
        assert type(got) is np.float64
        assert got == -0.25  # first sign bit set: negative
        got = symmetric_weibull(FixedDraws(0.25, b"\x7f"), 1.0)
        assert type(got) is np.float64
        assert got == 0.25  # first sign bit clear: positive

    @pytest.mark.parametrize("size, shape", [(None, ()), (0, (0,)), (1, (1,)), (7, (7,)),
                                             (9, (9,)), ((3, 5), (3, 5))])
    def test_sizes_keep_their_shape_and_dtype(self, size, shape):
        for draw in (abs_weibull, symmetric_weibull):
            x = draw(np.random.default_rng(8), 1.5, size)
            assert np.shape(x) == shape and x.dtype == np.float64
            assert (type(x) is np.float64) == (size is None)

    def test_exponent_one_is_the_exponential_draw(self):
        got = abs_weibull(np.random.default_rng(9), 1.0, 1000)
        assert got.tobytes() == np.random.default_rng(9).standard_exponential(1000).tobytes()

    def test_signs_are_independent_of_magnitudes(self):
        x = symmetric_weibull(np.random.default_rng(10), 0.7, 200_000)
        above = np.abs(x) > np.median(np.abs(x))
        negative = np.signbit(x)
        table = [[np.sum(above & negative), np.sum(above & ~negative)],
                 [np.sum(~above & negative), np.sum(~above & ~negative)]]
        assert stats.chi2_contingency(table, correction=False).pvalue > 1e-4

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

    @pytest.mark.parametrize("r, p", [(0.001, 1.0), (0.01, 2.0), (1e-300, 1e10)])
    def test_overflow_raises_value_error(self, r, p):
        # Gamma(1 + p/r) past float64, or p/r itself past it
        with pytest.raises(ValueError, match=r"Gamma\(1 \+ p/r\) at r=.* overflows float64"):
            exact_abs_moment(r, p)

    def test_largest_finite_values_keep_their_bits(self):
        assert exact_abs_moment(0.006, 1.0) == math.gamma(1.0 + 1.0 / 0.006)

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

    def test_sup_norm_overflow_raises_value_error(self):
        with pytest.raises(ValueError, match=r"p\^\(1/r\) at r=0.01, p=10000.0 overflows float64"):
            sup_norm_moment_bound([1.0], p=1e4, r=0.01)

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

    @settings(max_examples=100, deadline=None)
    @given(
        powers=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8),
        p=st.floats(min_value=2.0, max_value=32.0),
        r=st.floats(min_value=0.5, max_value=2.0),
    )
    @example(powers=[200.0], p=2.0, r=1.0)
    @example(powers=[-200.0], p=2.0, r=1.0)
    def test_sup_norm_terms_are_the_norms_of_t_at_any_scale(self, powers, p, r):
        t = np.array([(-1.0) ** k * 10.0**e for k, e in enumerate(powers)])
        # the hand-written norms, of t unit scaled by a power of two and scaled back
        exp = math.frexp(np.abs(t).max())[1]
        unit = np.ldexp(t, -exp)
        l2 = math.ldexp(float(np.sqrt(np.sum(unit * unit))), exp)
        linf = float(np.max(np.abs(t)))
        if 1e-150 < np.abs(t).min() and linf < 1e150:  # where they need no scaling
            assert l2 == float(np.sqrt(np.sum(t * t)))
        expected = math.sqrt(p) * l2 + p ** (1.0 / r) * linf
        assert sup_norm_moment_bound(t, p, r).value == expected

    def test_lp_norm_keeps_its_l2_term_where_squares_underflow(self):
        # t's squares underflow, but both terms are taken at t scaled to the unit:
        # Gamma(2)^(1/2) * ||t||_2 + sqrt(p) * sqrt(Gamma(2)) * ||t||_2 with p = 2
        mf = lp_norm_moment_bound([1e-200, 1e-200], p=2.0, r=2.0)
        expected = (1.0 + math.sqrt(2.0)) * math.sqrt(2.0) * 1e-200
        assert mf.value == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", [400, 1000])
    def test_lp_norm_scales_where_the_powers_overflow(self, k):
        # (2^400)^3 overflows float64; ||t||_3 does not
        t = np.array([1.0, -0.5, 0.25])
        mf = lp_norm_moment_bound(np.ldexp(t, k), p=3.0, r=1.0)
        assert mf.value == math.ldexp(lp_norm_moment_bound(t, p=3.0, r=1.0).value, k)

    @pytest.mark.parametrize("bound", [sup_norm_moment_bound, lp_norm_moment_bound])
    def test_empty_t_is_rejected(self, bound):
        with pytest.raises(ValueError, match="^points need at least one coordinate$"):
            bound([], p=2.0, r=1.0)

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


@pytest.mark.parametrize("call, message", [
    (lambda: WeibullLaw(1.0).quantile_abs(1.0), "quantile level must lie in [0, 1)"),
    (lambda: abs_weibull(np.random.default_rng(0), 0.0), "tail exponent must be positive, got 0.0"),
    (lambda: exact_abs_moment(0.0, 1.0), "r must be positive, got 0.0"),
    (lambda: MomentFunctional(p=2.0, value=1.0, kind="l3"), "unknown kind 'l3'"),
    (lambda: MomentFunctional(p=2.0, value=-1.0, kind="lp_norm_bound"),
     "value must be nonnegative, got -1.0"),
    (lambda: sup_norm_moment_bound([1.0], 2.0, 3.0), "r must lie in (0, 2], got 3.0"),
    (lambda: lp_norm_moment_bound([1.0], 2.0, 0.0), "r must lie in (0, 2], got 0.0"),
    (lambda: sup_norm_moment_bound([1e308], 2.0, 1.0),
     "sup_norm_bound at r=1.0, p=2.0 overflows float64"),
    (lambda: lp_norm_moment_bound([1e308], 8.0, 0.1),
     "lp_norm_bound at r=0.1, p=8.0 overflows float64"),
    (lambda: product_tail(1.0, -1.0), "threshold must be nonnegative, got -1.0"),
    (lambda: product_tail(1.0, 1.0, quadrature_tol=0.0), "quadrature tolerance must be positive"),
    (lambda: coupled_quantiles(2.0, 0.5), "r must lie in (0, 2), got 2.0"),
], ids=["quantile_level", "abs_weibull_exponent", "moment_r", "functional_kind",
        "functional_value", "sup_norm_r", "lp_norm_r", "sup_norm_overflow",
        "lp_norm_overflow", "tail_threshold", "tail_tolerance",
        "coupling_r"])
def test_malformed_inputs_raise_one_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_weibull_law_s_is_the_conjugate_exponent():
    assert WeibullLaw(1.0).s == 2.0 and WeibullLaw(2.0).s == math.inf

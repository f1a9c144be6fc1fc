import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from commcalc import decfun as df


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestEval:
    def test_constant(self):
        f = df.const(3.0)
        assert f(5.0) == 3.0

    def test_sqrt_profile(self):
        f = df.power_fun(1.0, 0.5, hi=1.0)
        assert close(f(0.25), 2.0)
        assert f(2.0) == 0.0

    def test_power_log(self):
        f = df.make([df.Seg(0.0, 0.25, (df.Term(1.0, 1.0, 2.0),))],
                    validate=False)
        t = math.exp(-4.0)
        assert close(f(t), math.exp(4.0) / 16.0)

    def test_domain_errors(self):
        f = df.const(1.0, domain_hi=1.0)
        with pytest.raises(df.DomainError):
            f(0.0)
        with pytest.raises(df.DomainError):
            f(1.5)

    def test_right_continuity(self):
        f = df.step_fun([(1.0, 3.0), (2.0, 1.0)])
        assert f(1.0) == 1.0
        assert f(1.0 - 1e-12) == 3.0


class TestCombine:
    def test_product_exponent_addition(self):
        f = df.power_fun(1.0, 0.5)
        g = df.power_fun(1.0, 1.0 / 3.0)
        p = df.combine(f, g, "product")
        for t in [0.1, 1.0, 7.0]:
            assert close(p(t), t ** (-5.0 / 6.0))

    def test_sum_vs_omega_b_reciprocal(self):
        s = df.combine(df.const(1.0), df.power_fun(1.0, 1.0), "sum")
        for t in np.geomspace(2.0 ** -32, 2.0 ** 32, 64):
            assert close(s(t), (1.0 + t) / t)

    def test_mixed_domain_error(self):
        with pytest.raises(df.DomainError):
            df.combine(df.const(1.0), df.const(1.0, domain_hi=1.0), "sum")

    def test_pointwise_semantics_grid(self):
        rng = np.random.default_rng(7)
        f = df.combine(df.power_fun(2.0, 0.25), df.const(0.5), "sum")
        g = df.power_fun(1.0, 0.75)
        grid = np.exp(rng.uniform(-20, 20, size=256))
        for kind, op in [("sum", lambda a, b: a + b),
                         ("product", lambda a, b: a * b)]:
            h = df.combine(f, g, kind)
            for t in grid:
                assert close(h(t), op(f(t), g(t)))


class TestProbes:
    def test_head_probes_start_at_the_least_float(self):
        # on (0, 1e-310) 2^-60 hi underflows to 0; the probes start at
        # 5e-324, so a rise and a negative value are still caught
        with pytest.raises(df.DomainError, match="not nonincreasing"):
            df.make([df.Seg(0.0, 1e-310, (df.Term(1e300, -1.0),))])
        with pytest.raises(df.DomainError, match="not nonincreasing"):
            df.make([df.Seg(0.0, 1e-310, (df.Term(-1.0),))])
        # no float lies inside (0, 5e-324): there is nothing to probe
        f = df.make([df.Seg(0.0, 5e-324, (df.Term(1e300, -1.0),))])
        assert f.segs[0].hi == 5e-324
        assert df.dominated_by(f, f) == 1.0


class TestDilate:
    def test_constant_fixed(self):
        f = df.const(2.5)
        assert df.dilate2(f, 3)(1.0) == 2.5

    def test_inverse_power(self):
        f = df.power_fun(1.0, 1.0)
        g = df.dilate2(f, 1)
        assert close(g(1.0), 2.0)

    def test_indicator(self):
        f = df.step_fun([(1.0, 1.0)])
        g = df.dilate2(f, 1)
        assert g(1.5) == 1.0
        assert g(2.5) == 0.0

    @given(st.integers(min_value=-20, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_exact(self, k):
        f = df.make([df.Seg(0.0, 0.25, (df.Term(1.0, 1.0, 2.0),)),
                     df.Seg(0.25, 4.0, (df.Term(1.1, 0.0, 0.0),)),
                     df.Seg(4.0, df.INF, (df.Term(4.4, 1.5, 0.0),))],
                    validate=False)
        assert df.dilate2(df.dilate2(f, k), -k) == f


class TestIntegral:
    def test_sqrt_head(self):
        f = df.power_fun(1.0, 0.5, hi=1.0)
        assert close(df.integral(f, 0, 1), 2.0)

    def test_log_square(self):
        f = df.make([df.Seg(0.0, 0.5, (df.Term(1.0, 1.0, 2.0),))],
                    validate=False)
        assert close(df.integral(f, 0, 0.5), 1.0 / math.log(2.0))

    def test_log_divergence(self):
        f = df.make([df.Seg(0.0, 0.5, (df.Term(1.0, 1.0, 1.0),))],
                    validate=False)
        assert df.integral(f, 0, 0.5) == df.INF

    def test_power_divergence_at_0(self):
        assert df.integral(df.power_fun(1.0, 1.25, hi=1.0), 0, 1) == df.INF
        assert df.integral(df.power_fun(1.0, 0.95, hi=1.0), 0, 1) < df.INF

    def test_tail_divergence(self):
        f = df.power_fun(1.0, 1.0)
        assert df.integral(f, 0, df.INF) == df.INF
        assert df.integral(df.power_fun(1.0, 2.0), 1, df.INF) < df.INF

    def test_additive_over_splits(self):
        f = df.combine(df.power_fun(1.0, 0.5, hi=2.0), df.const(0.25, ), "sum")
        whole = df.integral(f, 0.1, 10.0)
        parts = df.integral(f, 0.1, 1.3) + df.integral(f, 1.3, 10.0)
        assert abs(whole - parts) < 1e-10

    # float.hex of integral(f, lo, hi) and _seg_integral(terms, lo, hi),
    # f the profile of the terms on (lo, hi), pinned when integral still
    # took a power p and a log1p switch: dropping them (p = 1 only) keeps
    # every bit on each branch of _term_integral.  The cases with a log
    # term and g != 1 are pinned on the incomplete Gamma, each within
    # 2.8e-15 of mpmath at 60 digits
    @pytest.mark.parametrize("terms, lo, hi, whole, seg", [
        # d = 0, g = 1
        ((df.Term(2.0, 1.0),), 0.5, 3.0,
         "0x1.cab0bfa2a2002p+1", "0x1.cab0bfa2a2002p+1"),
        ((df.Term(2.0, 1.0, 0.0, 0.7),), 1e-3, 40.0,
         "0x1.dabaaf369a7a7p+3", "0x1.dabaaf369a7a7p+3"),
        # d = 0, g near 1
        ((df.Term(1.5, 1.0 + 1e-6),), 0.25, 40.0,
         "0x1.e73753fd6ae2dp+2", "0x1.e73753fd6ae2dp+2"),
        ((df.Term(1.0, 1.0 + 2.0 ** -9, 0.0, 3.0),), 2.0, df.INF,
         "0x1.804de1507a9ecp+10", "0x1.804de1507a9ecp+10"),
        ((df.Term(1.0, 1.0 - 1e-12),), 1e-3, 0.5,
         "0x1.8dbc239b05083p+2", "0x1.8dbc239b05083p+2"),
        # d = 0 elsewhere
        ((df.Term(3.0, 0.5),), 0.0, 1.0,
         "0x1.8000000000000p+2", "0x1.8000000000000p+2"),
        ((df.Term(1.0, 2.0, 0.0, 0.5),), 1.5, df.INF,
         "0x1.5555555555555p-3", "0x1.5555555555555p-3"),
        ((df.Term(0.75),), 0.0, 2.5,
         "0x1.e000000000000p+0", "0x1.e000000000000p+0"),
        # g = 1 with a log factor
        ((df.Term(1.0, 1.0, 2.0),), 0.0, 0.5,
         "0x1.71547652b82fep+0", "0x1.71547652b82fep+0"),
        ((df.Term(1.0, 1.0, 1.0, 2.0),), 3.0, 50.0,
         "0x1.10b40502ac262p-2", "0x1.10b40502ac262p-2"),
        ((df.Term(0.5, 1.0, 1.5),), math.exp(2.0), df.INF,
         "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp-1"),
        ((df.Term(1.0, 1.0, -1.0),), 1e-6, 0.25,
         "0x1.79e49e425822ap+6", "0x1.79e49e425822ap+6"),
        # a log term with g != 1: an incomplete Gamma
        ((df.Term(1.0, 0.5, 2.0),), 0.0, math.exp(-3.0),
         "0x1.8f3a4e9fe2cb2p-6", "0x1.8f3a4e9fe2cb2p-6"),
        ((df.Term(2.0, 1.5, -1.0),), math.e, df.INF,
         "0x1.d1d0c7aa7610ep+2", "0x1.d1d0c7aa7610ep+2"),
        # several terms
        ((df.Term(1.0, 0.5, 2.0), df.Term(0.5, 0.25)), 0.0, math.exp(-3.0),
         "0x1.839df9982707cp-4", "0x1.839df9982707cp-4"),
        ((df.Term(0.5, 0.5), df.Term(0.25)), 0.1, 10.0,
         "0x1.548c14daf0f7fp+2", "0x1.548c14daf0f7fp+2"),
        ((df.Term(1.0, 2.0, 1.0), df.Term(1.0, 1.5), df.Term(0.5, 3.0)),
         math.e, df.INF, "0x1.775e10c058408p+0", "0x1.775e10c058408p+0"),
        # two scales (make sorts the terms; two addends sum alike in
        # either order)
        ((df.Term(1.0, 0.5, 2.0), df.Term(1.0, 0.5, 2.0, 0.5)), 0.0, 0.1,
         "0x1.d1a2dc7fcdeefp-4", "0x1.d1a2dc7fcdeefp-4"),
        ((df.Term(1.0, 1.2, 2.0, 2.0), df.Term(3.0, 1.1, 0.0, 5.0)), 8.0,
         df.INF, "0x1.1fa41a7ae0b7fp+7", "0x1.1fa41a7ae0b7fp+7"),
    ])
    def test_integral_keeps_its_bits(self, terms, lo, hi, whole, seg):
        f = df.make([df.Seg(lo, hi, terms)], validate=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert df.integral(f, lo, hi).hex() == whole
            assert df._seg_integral(terms, lo, hi).hex() == seg

    # a log band across its scale is its two sides; it read 0.0 when one
    # side's closed form took the whole band
    @pytest.mark.parametrize("g", [0.5, 0.0, 1.0])
    def test_log_band_across_its_scale(self, g):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.quad(
                lambda t: t ** -g * abs(mpmath.log(t)) ** -0.5, [0.5, 1, 2]))
        tm = df.Term(1.0, g, 0.5)
        f = df.make([df.Seg(0.5, 2.0, (tm,))], validate=False)
        for v in (df._term_integral(tm, 0.5, 2.0), df.integral(f, 0.5, 2.0)):
            assert abs(v - ref) <= 1e-15 * ref

    # |log(t/s)|^-d with d >= 1 is not integrable at t = s: a band across
    # s or with an edge on it is infinite, with c's sign (for g = 1 such a
    # band read a finite value or raised)
    @pytest.mark.parametrize("c, g, d, lo, hi", [
        (c, g, d, lo, hi) for c in (1.0, -1.0) for g in (1.0, 0.5)
        for d in (1.0, 1.5)
        for lo, hi in ((0.5, 2.0), (0.5, 1.0), (1.0, 2.0))])
    def test_log_band_divergent_at_its_scale(self, c, g, d, lo, hi):
        v = df._term_integral(df.Term(c, g, d), lo, hi)
        assert v == math.copysign(df.INF, c)

    NEAR_ONE = [1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-6]

    @pytest.mark.parametrize("g, lo, hi", [
        (g, lo, hi) for g in NEAR_ONE
        for lo, hi in [(1.0, 2.0), (1e-3, 0.5), (3.0, 1e5), (2.0, df.INF)]
        if hi < df.INF or g > 1.0])
    def test_power_near_one_keeps_full_precision(self, g, lo, hi):
        # (hi^e - lo^e) / e cancels for e = 1 - g near 0: 2.1e-5 relative
        # error on (1, 2) at g = 1 + 1e-12
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            e = 1 - mpmath.mpf(g)
            top = 0 if hi == df.INF else mpmath.mpf(hi) ** e
            ref = float((top - mpmath.mpf(lo) ** e) / e)
        v = df._term_integral(df.Term(1.0, g), lo, hi)
        assert abs(v - ref) <= 1e-15 * ref


def band_integral_ref(tm, lo, hi):
    """mpmath.quad at 60 digits of the term over (lo, hi), on one side of
    its scale s: c s int e^phi(v) dv, phi(v) = a v - k e^v in v = log w,
    w = |log(t/s)|, a = 1 - d, k = 1 - g below s and g - 1 above.  phi
    moves by at most 32 on each piece and is shifted by its largest value
    there, as quad's tolerance is absolute; an end band stops 120 / k past
    the integrand's peak, where its rest is below e^-100 of it."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        c, g, d, s = map(mpmath.mpf, (tm.coeff, tm.pow, tm.logpow, tm.scale))
        k, a = (1 - g if hi <= tm.scale else g - 1), 1 - d
        w1, w2 = sorted(abs(mpmath.log(t / s)) if 0 < t < df.INF
                        else mpmath.inf for t in map(mpmath.mpf, (lo, hi)))
        if w2 == mpmath.inf:
            w2 = max(w1, a / k) + 120 / k
        pts = [mpmath.log(w1)]
        while pts[-1] < mpmath.log(w2):
            pts.append(pts[-1] + 32 / (abs(a) + abs(k) * w1 + 1))
            w1 = mpmath.exp(pts[-1])
        pts[-1] = mpmath.log(w2)

        def phi(v):
            return a * v - k * mpmath.exp(v)

        top = max(map(phi, pts))
        return c * s * mpmath.exp(top) * mpmath.quad(
            lambda v: mpmath.exp(phi(v) - top), pts)


@st.composite
def power_log_bands(draw):
    """A term c (t/s)^-g |log(t/s)|^-d with g != 1 and d != 0, and a band
    on one side of s, its near edge at |log(t/s)| = w: an integrable end
    band, a band at least a quarter octave wide, or a narrower one."""
    g = draw(st.sampled_from([1.0 - 1e-5, 1.0 + 1e-5]) | st.floats(0.01, 2.99))
    d = draw(st.floats(-3.0, 3.0) | st.floats(-60.0, 10.0))
    assume(g != 1.0 and d != 0.0)
    tm = df.Term(draw(st.floats(5e-324, 1e300)), g, d,
                 draw(st.floats(1e-3, 1e3)))
    below, w = draw(st.booleans()), draw(st.floats(1e-3, 700.0))
    width = draw(st.sampled_from([df.INF]) | st.floats(0.25, 50.0)
                 | st.floats(1e-4, 0.25))
    if below:
        hi = tm.scale * math.exp(-w)
        lo = hi * math.exp(-width)
    else:
        lo = tm.scale * math.exp(w)
        hi = lo * math.exp(width)
    # an end band (drawn, or where exp leaves the float range) is integrable
    assume(lo < hi and (lo > 0.0 or g < 1.0) and (hi < df.INF or g > 1.0))
    return tm, lo, hi


@settings(max_examples=80, deadline=None)
@given(power_log_bands())
# t^-1/2 |log t|^-2 on (0, e^-3): with 0.5 t^-0.25 its integral is
# 0.094633078554069842 (mpmath.quad at 30 digits in x = log t)
@example((df.Term(1.0, 0.5, 2.0), 0.0, math.exp(-3.0)))
# t^-0.99999 |log t|^-0.5 on (0, e^-2): 557.67, which scipy's quad read as
# -2.7426
@example((df.Term(1.0, 0.99999, 0.5), 0.0, math.exp(-2.0)))
# t^-0.99999 |log t| on (0, e^-2), where quad saw "roundoff error"
@example((df.Term(1.0, 0.99999, -1.0), 0.0, math.exp(-2.0)))
def test_band_integral_against_mpmath(band):
    # |error| <= 1e-11 |I'| + 2^-1074, I' the integral over the band
    # widened, on its side of s, to a ratio hi/lo of 2^(1/4) at least
    tm, lo, hi = band
    ref = band_integral_ref(tm, lo, hi)
    wide = ref
    if lo > 0.0 and hi < df.INF and hi / lo < 2.0 ** 0.25:
        wide = band_integral_ref(*((tm, hi * 2.0 ** -0.25, hi)
                                   if hi <= tm.scale else
                                   (tm, lo, lo * 2.0 ** 0.25)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            v = df._term_integral(tm, lo, hi)
        except OverflowError:
            assert ref > sys.float_info.max * (1.0 - 1e-11)
            return
    assert abs(v - ref) <= 1e-11 * abs(wide) + 2.0 ** -1074


class TestDominatedBy:
    def test_sqrt_vs_inv(self):
        f = df.power_fun(1.0, 0.5, hi=1.0, domain_hi=1.0)
        g = df.power_fun(1.0, 1.0, hi=1.0, domain_hi=1.0)
        c = df.dominated_by(f, g)
        assert c is not None and close(c, 1.0, tol=1e-6)

    def test_unbounded_ratio(self):
        f = df.power_fun(1.0, 1.0, hi=1.0, domain_hi=1.0)
        g = df.power_fun(1.0, 0.5, hi=1.0, domain_hi=1.0)
        assert df.dominated_by(f, g) is None

    def test_self(self):
        f = df.power_fun(2.0, 0.5)
        assert close(df.dominated_by(f, f), 1.0, tol=1e-6)

    def test_zero_of_g(self):
        f = df.const(1.0)
        g = df.step_fun([(1.0, 1.0)])
        assert df.dominated_by(f, g) is None
        assert close(df.dominated_by(g, f), 1.0, tol=1e-6)

    def test_bound_is_valid_on_grid(self):
        f = df.combine(df.power_fun(3.0, 0.25, domain_hi=1.0),
                       df.const(1.0, domain_hi=1.0), "sum")
        g = df.power_fun(1.0, 0.5, domain_hi=1.0)
        c = df.dominated_by(f, g)
        for t in np.geomspace(1e-12, 1.0 - 1e-9, 200):
            assert f(t) <= c * g(t) * (1 + 1e-9)
        # and on the infinite domain the constant tail blocks domination
        f2 = df.combine(df.power_fun(3.0, 0.25), df.const(1.0), "sum")
        assert df.dominated_by(f2, df.power_fun(1.0, 0.5)) is None


class TestMajorant:
    def test_already_decreasing(self):
        m = df.least_decreasing_majorant([(1.0, 3.0), (2.0, 1.0)])
        assert m(0.5) == 3.0
        assert m(1.5) == 3.0  # sup over samples at or beyond 1.0
        assert m(2.5) == 1.0

    def test_running_sup(self):
        m = df.least_decreasing_majorant([(1.0, 1.0), (2.0, 3.0)])
        for t in [0.5, 1.5, 2.0, 5.0]:
            assert m(t) == 3.0

    def test_dominates_samples(self):
        rng = np.random.default_rng(3)
        ts = np.sort(rng.uniform(0.1, 10.0, 30))
        vs = rng.uniform(0.0, 5.0, 30)
        m = df.least_decreasing_majorant(list(zip(ts, vs)))
        for t, v in zip(ts, vs):
            assert m(t) >= v

    def test_envelope_carries_end_terms(self):
        ts = [2.0 ** (j / 2) for j in range(-20, 1)]
        samples = [(t, 2.0 * t ** -0.5) for t in ts]
        head = (df.Term(1.0, 0.5),)
        # past the samples: the least c >= 1 keeping h nonincreasing
        f = df.envelope_majorant(samples, head=head)
        assert f.segs[0] == df.Seg(0.0, ts[0], (df.Term(2.0, 0.5),))
        # log-free terms cover the samples below reach
        f = df.envelope_majorant(samples, head=head, reach=1.0, hold=False)
        assert f.segs[0].hi == 1.0 and f(2.0 ** -30) == 2.0 * 2.0 ** 15
        for t, v in samples:
            assert f(t) >= v
        assert f(1.5) == 0.0
        # terms with a log factor start past the samples all the same
        logs = (df.Term(1.0, 0.5, -1.0),)
        f = df.envelope_majorant(samples, head=logs, reach=1.0)
        assert f.segs[0].hi == ts[0]
        # a tail: c t^-1 from the last sample on, steps before it
        tail = [(2.0 ** j, 3.0 / 2.0 ** j) for j in range(0, 11)]
        f = df.envelope_majorant(tail, tail=(df.Term(1.0, 1.0),))
        assert f.segs[-1] == df.Seg(2.0 ** 10, df.INF, (df.Term(3.0, 1.0),))
        assert f(0.5) == 3.0 and f(3.0) == 1.5


@given(
    st.lists(
        st.tuples(st.floats(0.01, 100.0), st.floats(0.0, 10.0)),
        min_size=1, max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_majorant_property(pairs):
    pairs = sorted({round(t, 6): v for t, v in pairs}.items())
    m = df.least_decreasing_majorant(pairs)
    for t, v in pairs:
        assert m(t) >= v - 1e-12
    vals = [m(t) for t in np.geomspace(0.005, 200.0, 50)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_an_underflowing_end_coefficient_is_the_least_float():
    # 1e-300 (t/1e-10)^-30: its coefficient 1e-300 * 1e-10^30 at 0
    # underflows, yet the end term is there, and so is its mean
    f = df.power_fun(1e-300, 30.0, hi=1e-20, scale=1e-10)
    assert df.dominant_at_0(f) == (30.0, 0.0, 5e-324)
    assert df.end_keys(f) == ((30.0, 0.0), df.BOTTOM)
    assert df.mean_term((4.0, 0.0, -5e-324)) == df.Term(-5e-324, 4.0, 0.0)

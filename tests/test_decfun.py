import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    def test_max_crossing_at_1(self):
        f = df.power_fun(1.0, 0.5)
        g = df.power_fun(1.0, 1.0)
        m = df.combine(f, g, "max")
        assert close(m(0.5), 2.0)
        assert close(m(4.0), 0.5)
        # crossing breakpoint near t=1
        assert any(abs(s.lo - 1.0) < 1e-9 for s in m.segs)

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
                         ("max", max),
                         ("product", lambda a, b: a * b)]:
            h = df.combine(f, g, kind)
            for t in grid:
                assert close(h(t), op(f(t), g(t)))


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
        f = df.power_fun(1.0, 0.5, hi=1.0)
        assert df.integral(f, 0, 1, p=2.5) == df.INF
        assert df.integral(f, 0, 1, p=1.9) < df.INF

    def test_tail_divergence(self):
        f = df.power_fun(1.0, 1.0)
        assert df.integral(f, 0, df.INF) == df.INF
        assert df.integral(f, 1, df.INF, p=2.0) < df.INF

    def test_additive_over_splits(self):
        f = df.combine(df.power_fun(1.0, 0.5, hi=2.0), df.const(0.25, ), "sum")
        whole = df.integral(f, 0.1, 10.0)
        parts = df.integral(f, 0.1, 1.3) + df.integral(f, 1.3, 10.0)
        assert abs(whole - parts) < 1e-10

    def test_log1p_constant(self):
        f = df.const(1.0, domain_hi=1.0)
        assert close(df.integral(f, 0, 1, log1p=True), math.log(2.0))

    def test_log1p_tail(self):
        assert df.integral(df.const(0.5), 0, df.INF, log1p=True) == df.INF
        f = df.power_fun(1.0, 2.0)
        assert df.integral(f, 0, df.INF, log1p=True) < df.INF

    # references: mpmath.quad at 30 digits in x = log t
    @pytest.mark.parametrize("terms, lo, hi, p, log1p, ref", [
        # log(1 + 1/(t log^2 t)) decays like 1/(t log^2 t): slow in t
        ((df.Term(1.0, 1.0, 2.0),), math.exp(3.0), df.INF, 1.0, True,
         0.33319168189933529),
        # two terms squared, one with no closed form
        ((df.Term(1.0, 0.5, 2.0), df.Term(0.5, 0.25)), 0.0, math.exp(-3.0),
         2.0, False, 0.19628107343909132),
        # log1p of a sum with two scales
        ((df.Term(1.0, 0.5, 2.0), df.Term(1.0, 0.5, 2.0, scale=0.5)), 0.0,
         0.1, 1.0, True, 0.075610939545997735),
    ])
    def test_quadrature_in_log_t(self, terms, lo, hi, p, log1p, ref):
        f = df.make([df.Seg(lo, hi, terms)], validate=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = df.integral(f, lo, hi, p=p, log1p=log1p)
        assert abs(v - ref) <= 1e-12 * ref


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

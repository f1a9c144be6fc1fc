import math

import numpy as np
import pytest
from scipy import integrate

from commcalc import decfun as df
from commcalc import modules as md


def fs_sqrt():
    return df.power_fun(1.0, 0.5, hi=1.0)


class TestContainsBasics:
    def test_fs_sqrt_in_L1_fs(self):
        v = md.contains(md.FsPart(md.Lp(1.0)), fs_sqrt())
        assert v.answer == "yes"

    def test_omega_b_proxy_in_Lp(self):
        w = md.omega_b_proxy()
        assert md.contains(md.Lp(2.0), w).answer == "yes"
        assert md.contains(md.Lp(1.0), w).answer == "no"
        assert md.contains(md.Lp(0.5), w).answer == "no"

    def test_zero_everywhere(self):
        z = df.zero()
        for I in [md.Lp(0.5), md.Llog(), md.F(), md.K(), md.M(),
                  md.Principal(df.power_fun(1.0, 1.0))]:
            assert md.contains(I, z).answer == "yes"

    def test_F_and_K(self):
        step = df.step_fun([(2.0, 1.0)])
        assert md.contains(md.F(), step).answer == "yes"
        assert md.contains(md.K(), step).answer == "yes"
        const = df.const(1.0)
        assert md.contains(md.F(), const).answer == "no"
        assert md.contains(md.K(), const).answer == "no"
        assert md.contains(md.M(), const).answer == "yes"
        unb = df.power_fun(1.0, 0.5, hi=1.0)
        assert md.contains(md.F(), unb).answer == "no"

    def test_llog(self):
        f = df.power_fun(1.0, 2.0)
        assert md.contains(md.Llog(), f).answer == "yes"
        assert md.contains(md.Llog(), df.const(1.0)).answer == "no"


class TestPrincipal:
    def test_direct_domination(self):
        I = md.Principal(df.power_fun(1.0, 1.0, hi=1.0))
        assert md.contains(I, fs_sqrt()).answer == "yes"

    def test_exponent_rejection(self):
        I = md.Principal(fs_sqrt())
        f = df.power_fun(1.0, 1.0, hi=1.0)
        assert md.contains(I, f).answer == "no"

    def test_dilation_needed(self):
        gen = df.step_fun([(1.0, 1.0)])
        I = md.Principal(gen)
        f = df.step_fun([(8.0, 0.5)])  # support 8 needs dilate by 2^3
        v = md.contains(I, f)
        assert v.answer == "yes"
        assert "dilate2(gen, 3)" in v.reason

    def test_dilation_past_64(self):
        # support 2^70 against a generator of support 1
        I = md.Principal(df.power_fun(1.0, 0.5, hi=1.0))
        v = md.contains(I, df.step_fun([(2.0 ** 70, 0.5)]))
        assert v.answer == "yes"
        assert "dilate2(gen, 70)" in v.reason

    def test_witness_where_the_generator_vanishes_at_its_end(self):
        # |log t| tends to 0 at 1: only g(t/2) is bounded below on (0, 1)
        g = df.make([df.Seg(0.0, 0.5, (df.Term(math.log(2.0)),)),
                     df.Seg(0.5, 1.0, (df.Term(1.0, 0.0, -1.0),))], 1.0)
        f = df.const(1.0, 1.0)
        v = md.contains(md.Principal(g), f)
        assert v.answer == "yes"
        assert "dilate2(gen, 1)" in v.reason
        for t in np.geomspace(2.0 ** -60, 1.0 - 2.0 ** -53, 1000):
            assert v.witness(t) >= f(t) * (1.0 - 1e-12)


class TestHereditaryProperties:
    def test_hereditarity_and_cone(self):
        rng = np.random.default_rng(11)
        mods = [md.Lp(0.5), md.Lp(2.0), md.K(), md.M(),
                md.Principal(df.power_fun(2.0, 0.75, hi=4.0))]
        for _ in range(20):
            gamma = rng.uniform(0.1, 2.0)
            hi = rng.uniform(0.5, 4.0)
            f = df.power_fun(rng.uniform(0.1, 3.0), gamma, hi=hi)
            g = df.scale_fun(f, rng.uniform(0.0, 1.0))
            for I in mods:
                vf = md.contains(I, f)
                if vf.answer == "yes":
                    assert md.contains(I, g).answer == "yes"
                    s = df.combine(f, g, "sum")
                    assert md.contains(I, s).answer == "yes"
                    assert md.contains(I, df.dilate2(f, 1)).answer == "yes"

    def test_product_soundness(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = df.power_fun(rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9),
                             hi=1.0)
            g = df.power_fun(rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9),
                             hi=1.0)
            for I, J in [(md.Lp(2.0), md.Lp(2.0)),
                         (md.Lp(1.0), md.M()),
                         (md.F(), md.M())]:
                if (md.contains(I, f).answer == "yes"
                        and md.contains(J, g).answer == "yes"):
                    IJ = md.product_module(I, J)
                    prod = df.combine(f, g, "product")
                    assert md.contains(IJ, prod).answer == "yes"


class TestProductRewrites:
    def test_holder(self):
        IJ = md.product_module(md.Lp(2.0), md.Lp(2.0))
        assert IJ.kind == "Lp" and IJ.p == 1.0

    def test_M_absorbs(self):
        assert md.product_module(md.M(), md.K()).kind == "K"

    def test_principal_product(self):
        I = md.Principal(df.power_fun(1.0, 0.25))
        J = md.Principal(df.power_fun(1.0, 0.5))
        IJ = md.product_module(I, J)
        assert IJ.kind == "Principal"
        assert abs(IJ.gen(2.0) - 2.0 ** -0.75) < 1e-12

    def test_F_product(self):
        IJ = md.product_module(md.F(), md.Lp(1.0))
        assert IJ.kind == "FsPart" and IJ.children[0].kind == "Lp"


class TestOmega:
    @pytest.mark.parametrize("p,fs_in,b_in", [
        (0.5, True, False),
        (1.0, False, False),
        (2.0, False, True),
    ])
    def test_lp_table(self, p, fs_in, b_in):
        a, b = md.omega_bools(md.Lp(p))
        assert a == fs_in and b == b_in

    def test_M(self):
        a, b = md.omega_bools(md.M())
        assert (a, b) == (False, True)


# t^-p L^-q heads on (0, e^-2) that are nonincreasing there (L = |log t|)
HEADS = [(0.0, 0.0), (0.0, -1.0), (0.5, 0.0), (0.5, -1.0), (0.5, 1.0),
         (1.0, 0.0), (1.0, -1.0), (1.0, 1.0), (1.0, 2.0),
         (2.0, 0.0), (2.0, -1.0), (2.0, 1.0), (2.0, 2.0)]
TAILS = ["zero", "const", (0.5, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 1.0),
         (2.0, 2.0)]


def grid_id(v):
    return v if isinstance(v, str) else "p%g_q%g" % v


def grid_generator(p, q, tail):
    """t^-p L^-q on (0, e^-2), half its end value up to e^2, then zero, a
    constant ("const") or t^-p2 L^-q2 (tail = (p2, q2)), each starting at
    half the level before it."""
    lo, hi = math.exp(-2.0), math.exp(2.0)
    head = df.Term(1.0, p, q)
    c = head.value(lo) / 2.0
    segs = [df.Seg(0.0, lo, (head,)), df.Seg(lo, hi, (df.Term(c),))]
    if tail == "const":
        segs.append(df.Seg(hi, df.INF, (df.Term(c / 2.0),)))
    elif tail != "zero":
        shape = df.Term(1.0, *tail)
        segs.append(df.Seg(hi, df.INF, (df.Term(c / 2.0 / shape.value(hi),
                                                 *tail),)))
    return df.make(segs)


def log_average(h, t):
    """exp(t^-1 int_0^t log h) for h with one term per segment, by
    quadrature in u = log s, segment by segment."""
    total = 0.0
    for seg in h.segs:
        hi = min(seg.hi, t)
        if hi <= seg.lo:
            break
        (tm,) = seg.terms

        def fn(u, tm=tm):
            w = u - math.log(tm.scale)
            logv = math.log(tm.coeff) - tm.pow * w
            if tm.logpow:
                logv -= tm.logpow * math.log(abs(w))
            return logv * math.exp(u)

        val, _ = integrate.quad(
            fn, math.log(seg.lo) if seg.lo > 0.0 else -math.inf,
            math.log(hi), epsabs=0.0, epsrel=1e-10, limit=200)
        total += val
    return math.exp(total / t)


class TestStability:
    def test_base_spaces(self):
        for I in [md.Lp(1.0), md.Llog(), md.M(), md.F(), md.K()]:
            assert md.geometrically_stable(I) == "yes"

    def test_principal_power(self):
        I = md.Principal(df.power_fun(1.0, 0.5, hi=1.0))
        assert md.geometrically_stable(I) == "yes"

    def test_composites(self):
        I = md.Sum(md.FsPart(md.Lp(0.5)), md.BPart(md.Lp(2.0)))
        assert md.geometrically_stable(I) == "yes"

    @pytest.mark.parametrize("tail", TAILS, ids=grid_id)
    @pytest.mark.parametrize("head", HEADS, ids=grid_id)
    def test_principal_grid(self, head, tail):
        # stable unless log(1 + h) fails to be integrable at infinity:
        # a constant tail, or t^-p L^-q with p < 1 or p = 1, q <= 1
        h = grid_generator(*head, tail)
        unstable = tail == "const" or (
            tail != "zero" and (tail[0] < 1.0 or tail == (1.0, 1.0)))
        expected = "no" if unstable else "yes"
        assert md.geometrically_stable(md.Principal(h)) == expected

    def test_log_average_follows_the_end_terms(self):
        # Karamata: g(t) / h(t) -> e^p at 0 and at oo, for the end term
        # c t^-p L^-q; the gap in log is about q / L at L = |log t|
        h = grid_generator(1.0, 1.0, (1.0, 2.0))
        for t, p, q in ((2.0 ** -30, 1.0, 1.0), (2.0 ** 30, 1.0, 2.0)):
            gap = math.log(log_average(h, t) / h(t)) - p
            assert abs(gap) <= 1.5 * q / abs(math.log(t))


class TestToII1:
    def test_lp(self):
        J = md.to_II1(md.Lp(1.0))
        assert J.kind == "Lp" and J.factor_type == "II_1"

    def test_K_becomes_M(self):
        assert md.to_II1(md.K()).kind == "M"

    def test_principal_truncates(self):
        I = md.Principal(df.power_fun(1.0, 0.5))
        J = md.to_II1(I)
        assert J.gen.domain_hi == 1.0
        assert abs(J.gen(0.25) - 2.0) < 1e-12


class TestSumNode:
    def test_split_assignment(self):
        I = md.Sum(md.FsPart(md.Lp(0.5)), md.BPart(md.Lp(2.0)))
        # head like t^-1|log t|^-2-free: use t^-1.5 head (in L_1/2 fs),
        # tail like t^-0.6 bounded (in L_2 b)
        f = df.combine(df.power_fun(1.0, 1.5, hi=1.0),
                       md.b_cut(df.power_fun(1.0, 0.6)), "max")
        v = md.contains(I, f)
        assert v.answer == "yes"

    def test_reject(self):
        I = md.Sum(md.FsPart(md.Lp(0.5)), md.BPart(md.Lp(2.0)))
        f = df.const(1.0)  # constant tail is in neither part
        assert md.contains(I, f).answer == "no"

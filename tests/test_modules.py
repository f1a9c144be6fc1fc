import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from commcalc import cli
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import modules as md
from commcalc import serialize as sz
from commcalc import specop as so
from commcalc.decfun import DomainError
from commcalc.specop import II_1, II_INF


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

    def test_omega_functions_are_shared_constants(self):
        assert md.omega_fs() is md.omega_fs()
        assert md.omega_fs(II_1) is md.omega_fs(II_1)
        assert md.omega_b_proxy() is md.omega_b_proxy()
        assert md.omega_fs().segs == df.power_fun(1.0, 1.0, hi=1.0).segs
        assert md.omega_fs(II_1).segs == df.power_fun(
            1.0, 1.0, domain_hi=1.0).segs
        assert md.omega_fs(II_1).domain_hi == 1.0
        assert md.omega_b_proxy().segs == df.make(
            [df.Seg(0.0, 1.0, (df.Term(1.0),)),
             df.Seg(1.0, df.INF, (df.Term(1.0, 1.0),))]).segs

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
        vfs, vb = md.omega_tests(md.Lp(p))
        assert (vfs.answer, vb.answer) == (("yes" if fs_in else "no"),
                                           ("yes" if b_in else "no"))

    def test_M(self):
        vfs, vb = md.omega_tests(md.M())
        assert (vfs.answer, vb.answer) == ("no", "yes")


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
        f = df.make([df.Seg(0.0, 1.0, (df.Term(1.0, 1.5),)),
                     df.Seg(1.0, df.INF, (df.Term(1.0, 0.6),))])
        v = md.contains(I, f)
        assert v.answer == "yes"

    def test_reject(self):
        I = md.Sum(md.FsPart(md.Lp(0.5)), md.BPart(md.Lp(2.0)))
        f = df.const(1.0)  # constant tail is in neither part
        assert md.contains(I, f).answer == "no"


# ---------------------------------------------------------------------------
# end thresholds against their references


@st.composite
def heads(draw):
    """(p, q) of a head t^-p L^-q that is nonincreasing on (0, e^-2)."""
    p = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 2.5])
             | st.floats(0.05, 3.0))
    q = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))
    assume(q <= 2.0 * p)  # L >= 2 there
    return p, q


@st.composite
def tails(draw):
    kind = draw(st.sampled_from(["zero", "const", "power"]))
    if kind != "power":
        return kind
    p = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5]) | st.floats(0.05, 3.0))
    q = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    assume(p > 0.0 or q > 0.0)
    return p, q


def modules():
    base = st.one_of(
        st.sampled_from([0.4, 0.5, 1.0, 2.0, 3.0]).map(md.Lp),
        st.sampled_from([md.Llog(), md.F(), md.K(), md.M()]),
        st.tuples(heads(), tails()).map(
            lambda ht: md.Principal(grid_generator(*ht[0], ht[1]))))
    return st.recursive(base, lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: md.Sum(*ab)),
        st.tuples(inner, inner).map(lambda ab: md.Product(*ab)),
        st.sampled_from([md.FsPart, md.BPart, md.Vanish]).flatmap(
            inner.map)), max_leaves=3)


def on_unit_interval(f):
    return df.make([df.Seg(s.lo, min(s.hi, 1.0), s.terms)
                    for s in f.segs if s.lo < 1.0], 1.0)


def bounded_tail(f):
    """min(f, f(1)): f's tail under a constant head."""
    segs = [df.Seg(0.0, 1.0, (df.Term(f(1.0)),))]
    segs += [df.Seg(max(s.lo, 1.0), s.hi, s.terms)
             for s in f.segs if s.hi > 1.0]
    return df.make(segs)


def diverges_at_0(dom, s):
    """The float-product rule for c t^-p L^-q, dom = (p, q, c), at 0."""
    if dom is None or dom[2] == 0.0:
        return False
    ps, qs = dom[0] * s, dom[1] * s
    return ps > 1.0 or (ps == 1.0 and qs <= 1.0)


def diverges_at_inf(dom, s):
    """The float-product rule at infinity."""
    if dom is None or dom[2] == 0.0:
        return False
    ps, qs = dom[0] * s, dom[1] * s
    return not (ps > 1.0 or (ps == 1.0 and qs > 1.0))


class TestEndThresholds:
    @settings(max_examples=300, deadline=None)
    @given(heads(), tails(), st.sampled_from(["free", "head", "tail"]),
           st.floats(0.2, 5.0), st.booleans())
    @example((2.5, 0.0), "zero", "free", 0.4, False)
    @example((2.5, 0.0), "zero", "free", 0.4, True)
    @example((0.5, 1.0), (2.5, 2.0), "tail", 1.0, False)
    def test_lp_follows_the_divergence_test(self, head, tail, at, p, ii1):
        # at the head's or the tail's boundary p g = 1 (up to rounding)
        # the log exponent decides
        if at == "head" and head[0] > 0.0:
            p = 1.0 / head[0]
        elif at == "tail" and tail not in ("zero", "const") and tail[0] > 0.0:
            p = 1.0 / tail[0]
        f = grid_generator(*head, tail)
        if ii1:
            f = on_unit_interval(f)
        v = md.contains(md.Lp(p, II_1 if ii1 else II_INF), f)
        diverges = diverges_at_0(df.dominant_at_0(f), p) \
            or f.domain_hi == df.INF \
            and diverges_at_inf(df.dominant_at_inf(f), p)
        assert (v.answer == "yes") == (not diverges)

    @settings(max_examples=300, deadline=None)
    @given(heads(), tails(), st.none() | st.tuples(heads(), tails()),
           st.floats(1e-3, 1e3), st.booleans())
    def test_stability_follows_the_log1p_divergence_test(self, head, tail,
                                                         other, c, ii1):
        # the reference is the divergence test of log(1 + h) at oo that
        # geometrically_stable read before: h's end term at oo has a
        # positive coefficient and is not integrable there
        h = df.scale_fun(grid_generator(*head, tail), c)
        if other is not None:
            h = df.combine(h, grid_generator(*other[0], other[1]), "sum")
        if ii1:
            h = on_unit_interval(h)
        dom = df.dominant_at_inf(h)
        log1p_diverges = h.domain_hi == df.INF and dom is not None \
            and dom[2] > 0.0 and diverges_at_inf(dom, 1.0)
        assert md.geometrically_stable(md.Principal(h)) \
            == ("no" if log1p_diverges else "yes")

    @settings(max_examples=150, deadline=None)
    @given(modules(), modules(), heads(), tails(), heads(), tails())
    def test_products_of_members_lie_in_the_product(self, A, B, h1, t1, h2,
                                                    t2):
        g, h = grid_generator(*h1, t1), grid_generator(*h2, t2)
        if md.contains(A, g) and md.contains(B, h):
            prod = df.combine(g, h, "product")
            assert md.contains(md.Product(A, B), prod).answer == "yes"

    @settings(max_examples=150, deadline=None)
    @given(modules(), modules(), heads(), tails())
    def test_sum_takes_each_end_from_either_summand(self, A, B, head, tail):
        f = grid_generator(*head, tail)
        ends = (df.clip(f, 0.0, 1.0), bounded_tail(f))
        expected = all(md.contains(A, e) or md.contains(B, e) for e in ends)
        assert (md.contains(md.Sum(A, B), f).answer == "yes") == expected

    @settings(max_examples=50, deadline=None)
    @given(heads(), tails())
    def test_zero_generator_holds_only_zero(self, head, tail):
        f = grid_generator(*head, tail)
        I = md.Principal(df.zero())
        # a bounded f with finite support too, and one vanishing near 0
        for g in (f, df.clip(f, 0.0, 1.0), bounded_tail(f),
                  df.step_fun([(2.0, 1.0)]), df.clip(f, 1.0, 2.0)):
            assert md.contains(I, g).answer == "no"
        assert md.contains(I, df.zero()).answer == "yes"
        I1 = md.Principal(df.zero(1.0))
        assert md.contains(I1, on_unit_interval(f)).answer == "no"

    def test_product_threshold_is_strict_where_a_factor_is(self):
        # <t^-1/2> L_2 at 0: t^-1 L^-q for q > 1/2 only, since h >= t^-1/2
        # L^-1/2 is not square integrable (L = |log t|)
        I = md.Product(md.Principal(df.power_fun(1.0, 0.5, hi=1.0)),
                       md.Lp(2.0))
        for q, answer in ((0.5, "no"), (0.6, "yes"), (0.4, "no")):
            f = df.power_fun(1.0, 1.0, q, hi=math.exp(-2.0))
            assert md.contains(I, f).answer == answer
        # attained times attained is attained: BPart(<t^-1/2>) is bounded
        # at 0, so the product holds t^-1/2 itself
        J = md.Product(md.Principal(df.power_fun(1.0, 0.5, hi=1.0)),
                       md.BPart(md.Principal(df.power_fun(1.0, 0.5))))
        assert md.contains(J, df.power_fun(1.0, 0.5, hi=1.0)).answer == "yes"


@st.composite
def nonvanishing_profiles(draw):
    """grid_generator's head and middle, then a constant tail level plus,
    optionally, a vanishing t^-p L^-q on top of it."""
    p, q = draw(heads())
    f = grid_generator(p, q, "const")
    tail = draw(tails())
    if tail in ("zero", "const"):
        return f
    last = f.segs[-1]
    c = last.terms[0].coeff
    shape = df.Term(1.0, *tail)
    # at most c at the start of the tail, where the level before is 2c
    extra = df.Term(c * draw(st.floats(0.01, 1.0)) / shape.value(last.lo),
                    *tail)
    return df.make(f.segs[:-1] + (df.Seg(last.lo, df.INF,
                                         (df.Term(c), extra)),))


@settings(max_examples=300, deadline=None)
@given(modules(), nonvanishing_profiles())
def test_a_module_holding_a_nonvanishing_profile_holds_one(I, f):
    # 1 has the bottom key at 0 and f's key at oo, and admission is
    # monotone in the key: member_IIinf relies on this past its bounded
    # shortcut
    assert df.limit_at_inf(f) > 0.0
    if md.contains(I, f).answer == "yes":
        assert md.contains(I, df.const(1.0)).answer == "yes"


# ---------------------------------------------------------------------------
# [I, J] and F + [I, M] are linear spaces, and modules are closed under
# positive scalars: T and 2^k T get the same answer


def decided(run, *args):
    """run(*args).answer, or None where it is inconclusive or refuses its
    input (a domain or float-range error, as the CLI reads them)."""
    try:
        answer = run(*args).answer
    except (DomainError, OverflowError):
        return None
    return None if answer == "inconclusive" else answer


@settings(max_examples=100, deadline=None)
@given(heads(), tails(), modules(), modules(), st.integers(-1074, 1023))
@example((0.0, -1.0), "zero", md.Lp(0.4), md.Lp(0.4), -33)
# band integrals of t^-p L^-q heads with p != 1 that scipy's quad got wrong,
# and a constant tail that an underflowing coefficient once deleted
@example((0.99999, -1.0), "zero", md.Lp(0.4), md.Lp(0.4), 0)
@example((0.5, -1.0), "zero", md.Lp(0.4), md.Lp(0.4), -1074)
@example((0.0, -1.0), "const", md.Lp(0.4), md.Lp(0.4), -1074)
def test_a_positive_multiple_keeps_its_answer(head, tail, I, J, k):
    T = so.make_op(grid_generator(*head, tail).segs)
    S = so.scale_op(T, 2.0 ** k)
    for run, mods in ((cm.member_IIinf, (I, J)), (cm.member_F_plus, (I,))):
        answers = decided(run, T, *mods), decided(run, S, *mods)
        if None not in answers:
            assert answers[0] == answers[1], run.__name__


@pytest.mark.parametrize("warn", [None, "error"], ids=["default", "error"])
def test_a_log_head_of_large_trace_is_not_a_member(tmp_path, warn):
    # t^-0.99999 |log t|^-0.5 on (0, e^-2), whose integral is 557.67, then
    # 1 on a band of length 2.7426: T >= 0 lies in L_1 with tau(T) ~ 560,
    # so T is not in [L_1, M] = L_1 cap ker tau.  A head integral of
    # -2.7426 (scipy's quad gave it) would read tau(T) = 0.  One fresh
    # process, with and without warnings as errors
    lo = math.exp(-2.0)
    T = so.make_op([df.Seg(0.0, lo, (df.Term(1.0, 0.99999, 0.5),)),
                    df.Seg(lo, lo + 2.7425545509844866, (df.Term(1.0),))])
    path = tmp_path / "query.json"
    path.write_text(json.dumps({"schema_version": sz.SCHEMA_VERSION,
                                "operator": sz.op_to_json(T),
                                "module_I": sz.module_to_json(md.Lp(1.0)),
                                "relation": "commutator"}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    if warn:
        env["PYTHONWARNINGS"] = warn
    proc = subprocess.run([sys.executable, "-m", "commcalc.cli", "member",
                           "--input", str(path)], capture_output=True,
                          env=env)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    assert json.loads(proc.stdout)["decision"]["answer"] == "not_member"


def one_term_op(hi, coeff, pow, logpow=0.0, scale=1.0):
    return so.make_op([df.Seg(0.0, hi, (df.Term(coeff, pow, logpow, scale),))])


# each answered member before an end coefficient that underflowed read as
# no end term (A, B), or before a trace below 1e-9 read as 0 (C)
SCALED_QUERIES = {
    # 1e-300 (t/1e-10)^-30 on (0, 1e-20): unbounded and not integrable
    # at 0, although 1e-300 * 1e-10^30 underflows
    "A_L1": (one_term_op(1e-20, 1e-300, 30.0, scale=1e-10), md.Lp(1.0),
             "F_plus"),
    "A_M": (one_term_op(1e-20, 1e-300, 30.0, scale=1e-10), md.M(),
            "F_plus"),
    # 1e-300 (t/1e-30)^-1 |log(t/1e-30)|^-1.5 on (0, 1e-40) against
    # [L_1, M]: tau(T) != 0 is forced on the head, 0 on the tail
    "B": (one_term_op(1e-40, 1e-300, 1.0, 1.5, 1e-30), md.Lp(1.0),
          "commutator"),
    # 1e-10 on (0, 1) against [F, M] = F cap ker tau: tau(T) = 1e-10
    "C": (one_term_op(1.0, 1e-10, 0.0), md.F(), "commutator"),
}


@pytest.mark.parametrize("name", sorted(SCALED_QUERIES))
def test_a_tiny_multiple_is_not_a_member(tmp_path, capsys, name):
    T, I, relation = SCALED_QUERIES[name]
    path = tmp_path / "query.json"
    path.write_text(json.dumps({"schema_version": sz.SCHEMA_VERSION,
                                "operator": sz.op_to_json(T),
                                "module_I": sz.module_to_json(I),
                                "relation": relation}))
    assert cli.main(["member", "--input", str(path)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["decision"]["answer"] \
        == "not_member"
    # and so is 2^200 T
    S = so.scale_op(T, 2.0 ** 200)
    dec = cm.member_F_plus(S, I) if relation == "F_plus" \
        else cm.member_IIinf(S, I, md.M())
    assert dec.answer == "not_member"

"""Piecewise power-log algebra of nonincreasing functions.

Functions live on (0, oo) or (0, 1) and are finite sums, per segment, of
terms coeff*(t/scale)^(-pow)*|log(t/scale)|^(-logpow).  The class is closed
under sum, max, product, and dyadic dilation, and supports exact integral
divergence tests from the exponents.
"""

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate, optimize

INF = math.inf

# segments carrying a log factor must keep |log(t/scale)| >= LOG_GUARD
LOG_GUARD = 1.0


class DomainError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Term:
    coeff: float
    pow: float = 0.0
    logpow: float = 0.0
    scale: float = 1.0

    def value(self, t):
        if self.coeff == 0.0:
            return 0.0
        u = t / self.scale
        v = self.coeff * u ** (-self.pow)
        if self.logpow:
            v *= abs(math.log(u)) ** (-self.logpow)
        if abs(v) == INF:
            # a float limit, never a value of the function
            raise OverflowError("term value overflows a float at t=%g" % t)
        return v


@dataclass(frozen=True)
class Seg:
    """Segment [lo, hi) carrying the sum of its terms.

    phase is the unimodular factor of an operator segment (see specop);
    profiles never read it, and make() rebuilds every segment with phase 1.
    """

    lo: float
    hi: float
    terms: tuple = ()
    phase: complex = 1.0

    def value(self, t):
        return sum(term.value(t) for term in self.terms)

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(term.pow == 0.0 and term.logpow == 0.0 for term in self.terms)

    def const_value(self):
        return sum(term.coeff for term in self.terms)


def _merge_terms(terms):
    out = {}
    for term in terms:
        if term.coeff == 0.0:
            continue
        key = (term.pow, term.logpow, term.scale)
        out[key] = out.get(key, 0.0) + term.coeff
    merged = tuple(
        Term(c, p, lp, s) for (p, lp, s), c in sorted(out.items()) if c != 0.0
    )
    return merged


def _check_log_guard(seg):
    for term in seg.terms:
        # log(t/scale) must keep one sign on [lo, hi)
        if term.logpow and seg.lo / term.scale < 1.0 < seg.hi / term.scale:
            raise DomainError(
                "log-power segment [%g, %g) straddles its scale %g"
                % (seg.lo, seg.hi, term.scale))


@dataclass(frozen=True)
class PLFun:
    domain_hi: float
    segs: tuple

    @functools.cached_property
    def breaks(self):
        return [s.lo for s in self.segs]

    @functools.cached_property
    def levels(self):
        """Level table behind specop.dist_fun, filled on demand."""
        return Levels(self.segs, self.domain_hi)

    def __call__(self, t):
        if not (0.0 < t < self.domain_hi):
            raise DomainError("t=%g outside domain (0, %g)" % (t, self.domain_hi))
        idx = bisect.bisect_right(self.breaks, t) - 1
        return self.segs[idx].value(t)

    def seg_at(self, t):
        idx = bisect.bisect_right(self.breaks, t) - 1
        return self.segs[idx]

    def is_zero(self):
        return all(s.is_zero() for s in self.segs)


def right_limit(seg, hi):
    """Value of a segment just left of its right end hi."""
    if hi == INF:
        return sum(tm.coeff for tm in seg.terms
                   if tm.pow == 0.0 and tm.logpow == 0.0)
    return seg.value(hi * (1 - 1e-14))


class Levels:
    """Bisection table for the measure of {f > x} or {f >= x} of a PLFun.

    A segment lies above level x when its right limit is > x (>= x when
    closed); a zero segment has limit 0.  The table keeps each segment's
    end (clipped to the domain) and the running minimum of the right
    limits, negated so that it ascends.  The first segment not above x is
    the first index at which the running minimum fails the same test, even
    where right limits rise within the rtol of _check_monotone.  The table
    grows only as far as the queries reach, so no segment is evaluated
    that a scan from the left would not evaluate, and it stops at a NaN
    limit.
    """

    def __init__(self, segs, domain_hi):
        # the segments, not the PLFun: no reference cycle through its cache
        self.segs, self.domain_hi = segs, domain_hi
        self.ends = []
        self.negmin = []
        self.complete = False

    def first_below(self, x, closed):
        """(k, D): the first segment not above x (or a NaN limit, or the
        end), and the end of the segment before it (0.0 for k == 0)."""
        neg = -x
        negmin = self.negmin
        while not self.complete and (
                not negmin
                or (negmin[-1] <= neg if closed else negmin[-1] < neg)):
            self._grow()
        if closed:
            k = bisect.bisect_right(negmin, neg)
        else:
            k = bisect.bisect_left(negmin, neg)
        return k, (self.ends[k - 1] if k else 0.0)

    def _grow(self):
        k = len(self.ends)
        if k == len(self.segs):
            self.complete = True
            return
        seg = self.segs[k]
        hi = min(seg.hi, self.domain_hi)
        neg = -right_limit(seg, hi)
        if neg != neg:
            self.complete = True
            return
        if self.negmin and self.negmin[-1] > neg:
            neg = self.negmin[-1]
        self.ends.append(hi)
        self.negmin.append(neg)


def make(segs, domain_hi=INF, validate=True):
    """Normalize a segment list into a PLFun covering (0, domain_hi)."""
    cleaned = []
    for seg in sorted(segs, key=lambda s: s.lo):
        if seg.hi <= seg.lo:
            continue
        terms = _merge_terms(seg.terms)
        cleaned.append(Seg(seg.lo, seg.hi, terms))
    if not cleaned or cleaned[0].lo > 0.0:
        cleaned.insert(0, Seg(0.0, cleaned[0].lo if cleaned else domain_hi, ()))
    # fill gaps with zero, check overlap
    out = []
    cursor = 0.0
    for seg in cleaned:
        if seg.lo > cursor:
            out.append(Seg(cursor, seg.lo, ()))
        elif seg.lo < cursor:
            raise DomainError("overlapping segments at %g" % seg.lo)
        out.append(seg)
        cursor = seg.hi
    if cursor < domain_hi:
        out.append(Seg(cursor, domain_hi, ()))
    elif cursor > domain_hi:
        raise DomainError("segments exceed domain end %g" % domain_hi)
    # merge adjacent identical
    merged = [out[0]]
    for seg in out[1:]:
        prev = merged[-1]
        if seg.terms == prev.terms:
            merged[-1] = Seg(prev.lo, seg.hi, prev.terms)
        else:
            merged.append(seg)
    f = PLFun(domain_hi, tuple(merged))
    if validate:
        for seg in merged:
            _check_log_guard(seg)
        _check_monotone(f)
    return f


def _probe_ends(lo, hi):
    """Ends of the probe range of a segment; None when the range is empty."""
    a = lo if lo > 0.0 else min(hi, 1.0) * 2.0 ** -60
    b = hi if hi < INF else max(a, 1.0) * 2.0 ** 60
    return None if a >= b else (a, b)


def _probe_points(lo, hi, n=17):
    ends = _probe_ends(lo, hi)
    if ends is None:
        return []
    a, b = ends
    return np.geomspace(a * (1 + 1e-12), b * (1 - 1e-12), n).tolist()


def _value_or_inf(seg, t):
    """seg.value(t), with a value beyond the float range read as +inf."""
    try:
        return seg.value(t)
    except OverflowError:
        return INF


def _check_monotone(f, rtol=1e-9):
    prev = INF
    for seg in f.segs:
        hi = min(seg.hi, f.domain_hi)
        if seg.is_const():
            ends = _probe_ends(seg.lo, hi)
            if ends is not None:
                # every probe point sees v: the first compares it with
                # prev, the others with v itself (fails when v < 0)
                v = seg.value(ends[0])
                for i, ref in enumerate((prev, v)):
                    if v > ref * (1 + rtol) + 1e-300:
                        raise DomainError("not nonincreasing near t=%g"
                                          % _probe_points(seg.lo, hi)[i])
                prev = v
        else:
            for t in _probe_points(seg.lo, hi):
                v = _value_or_inf(seg, t)
                if v > prev * (1 + rtol) + 1e-300:
                    raise DomainError("not nonincreasing near t=%g" % t)
                prev = v
        # junction: compare right limit of next seg against left value here
        if seg.hi < f.domain_hi:
            tj = seg.hi
            prev = min(prev, _value_or_inf(seg, tj * (1 - 1e-12)))


def zero(domain_hi=INF):
    return PLFun(domain_hi, (Seg(0.0, domain_hi, ()),))


def const(c, domain_hi=INF):
    if c == 0.0:
        return zero(domain_hi)
    return make([Seg(0.0, domain_hi, (Term(c),))], domain_hi)


def power_fun(coeff, pow, logpow=0.0, hi=None, domain_hi=INF, scale=1.0):
    """coeff*(t/scale)^(-pow)*|log(t/scale)|^(-logpow) on (0, hi), zero after."""
    if hi is None:
        hi = domain_hi
    return make([Seg(0.0, hi, (Term(coeff, pow, logpow, scale),))], domain_hi)


def step_fun(pairs, domain_hi=INF):
    """pairs = [(hi_1, v_1), (hi_2, v_2), ...]: v_1 on (0,hi_1), etc."""
    segs = []
    lo = 0.0
    for hi, v in pairs:
        segs.append(Seg(lo, hi, (Term(v),) if v else ()))
        lo = hi
    return make(segs, domain_hi)


# ---------------------------------------------------------------------------
# evaluation helpers


def support_hi(f):
    """Supremum of the support; INF when the function never vanishes."""
    end = 0.0
    for seg in f.segs:
        if not seg.is_zero():
            end = seg.hi
    return min(end, f.domain_hi)


def value_at_0(f):
    """Limit at 0+, possibly INF."""
    seg = f.segs[0]
    total = 0.0
    for term in seg.terms:
        if term.pow > 0.0 or (term.pow == 0.0 and term.logpow < 0.0):
            return INF
        if term.pow == 0.0 and term.logpow == 0.0:
            total += term.coeff
    return total


def limit_at_inf(f):
    """Limit at the right end of an infinite domain."""
    if f.domain_hi < INF:
        raise DomainError("limit_at_inf needs domain (0, oo)")
    seg = f.segs[-1]
    total = 0.0
    for term in seg.terms:
        if term.pow == 0.0 and term.logpow == 0.0:
            total += term.coeff
    return total


def _dominant(terms, at_zero):
    """The asymptotically dominant (pow, logpow, limit-coefficient) triple."""
    if not terms:
        return None
    if at_zero:
        key = lambda tm: (tm.pow, -tm.logpow)
    else:
        key = lambda tm: (-tm.pow, -tm.logpow)
    best = max(terms, key=key)
    # effective coefficient once the scale is absorbed: (t/s)^-g ~ s^g t^-g
    coeff = best.coeff * best.scale ** best.pow
    total = sum(
        tm.coeff * tm.scale ** tm.pow
        for tm in terms
        if (tm.pow, tm.logpow) == (best.pow, best.logpow)
    )
    return best.pow, best.logpow, total if total else coeff


def dominant_at_0(f):
    for seg in f.segs:
        if seg.lo == 0.0:
            return _dominant(seg.terms, at_zero=True)
    return None


def dominant_at_inf(f):
    seg = f.segs[-1]
    if seg.hi < INF:
        return None
    return _dominant(seg.terms, at_zero=False)


# ---------------------------------------------------------------------------
# combine


def _refine(f, g):
    """Common breakpoint partition; yields (lo, hi, f_terms, g_terms)."""
    if f.domain_hi != g.domain_hi:
        raise DomainError("mixed domains")
    cuts = sorted(set(f.breaks) | set(g.breaks))
    cuts.append(f.domain_hi)
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = _mid(lo, hi)
        yield lo, hi, f.seg_at(mid).terms, g.seg_at(mid).terms


def _mid(lo, hi):
    if hi == INF:
        return max(lo, 1.0) * 2.0
    if lo == 0.0:
        return hi / 2.0
    return math.sqrt(lo * hi)


def _product_terms(ts1, ts2):
    out = []
    for a in ts1:
        for b in ts2:
            if a.logpow and b.logpow and a.scale != b.scale:
                raise DomainError(
                    "product of log terms with different scales is outside the class"
                )
            scale = a.scale if a.logpow else (b.scale if b.logpow else 1.0)
            coeff = (
                a.coeff
                * b.coeff
                * (a.scale / scale) ** a.pow
                * (b.scale / scale) ** b.pow
            )
            out.append(Term(coeff, a.pow + b.pow, a.logpow + b.logpow, scale))
    return tuple(out)


def _diff_roots(ts1, ts2, lo, hi):
    """Crossing points of sum(ts1) - sum(ts2) inside (lo, hi)."""

    def d(t):
        return sum(tm.value(t) for tm in ts1) - sum(tm.value(t) for tm in ts2)

    pts = _probe_points(lo, hi, n=65)
    roots = []
    for a, b in zip(pts, pts[1:]):
        da, db = d(a), d(b)
        if da == 0.0:
            roots.append(a)
            continue
        if db == 0.0 or da * db > 0.0:
            continue
        r = optimize.brentq(d, a, b, xtol=1e-300, rtol=1e-12)
        roots.append(r)
    return sorted(set(roots))


def combine(f, g, kind):
    if f.domain_hi != g.domain_hi:
        raise DomainError("mixed domains")
    segs = []
    for lo, hi, ts1, ts2 in _refine(f, g):
        if kind == "sum":
            segs.append(Seg(lo, hi, ts1 + ts2))
        elif kind == "product":
            segs.append(Seg(lo, hi, _product_terms(ts1, ts2)))
        elif kind == "max":
            cuts = [lo] + _diff_roots(ts1, ts2, lo, hi) + [hi]
            for a, b in zip(cuts, cuts[1:]):
                if b <= a:
                    continue
                mid = _mid(a, b)
                v1 = sum(tm.value(mid) for tm in ts1)
                v2 = sum(tm.value(mid) for tm in ts2)
                segs.append(Seg(a, b, ts1 if v1 >= v2 else ts2))
        else:
            raise ValueError("unknown kind %r" % kind)
    return make(segs, f.domain_hi, validate=(kind != "max"))


def scale_fun(f, c):
    """Pointwise c*f for c >= 0."""
    if c < 0:
        raise DomainError("negative scalar")
    segs = [
        Seg(s.lo, s.hi, tuple(replace(tm, coeff=tm.coeff * c) for tm in s.terms))
        for s in f.segs
    ]
    return make(segs, f.domain_hi, validate=False)


def dilate2(f, k):
    """t -> f(t / 2^k)."""
    factor = 2.0 ** k
    if f.domain_hi < INF and k < 0:
        raise DomainError("negative dilation leaves the (0,1) domain")
    segs = []
    for s in f.segs:
        lo, hi = s.lo * factor, s.hi * factor
        if lo >= f.domain_hi:
            break
        terms = tuple(replace(tm, scale=tm.scale * factor) for tm in s.terms)
        segs.append(Seg(lo, min(hi, f.domain_hi), terms))
    return make(segs, f.domain_hi, validate=False)


def clip(f, a, b):
    """Restriction of f to (a, b), zero elsewhere; same domain."""
    segs = []
    for s in f.segs:
        lo, hi = max(s.lo, a), min(s.hi, b)
        if hi > lo:
            segs.append(Seg(lo, hi, s.terms))
    return make(segs, f.domain_hi, validate=False)


# ---------------------------------------------------------------------------
# integration


def _diverges_at_0(dom, p):
    if dom is None:
        return False
    g, d, c = dom
    if c == 0.0:
        return False
    gp, dp = g * p, d * p
    return gp > 1.0 or (gp == 1.0 and dp <= 1.0)


def _diverges_at_inf(dom, p):
    if dom is None:
        return False
    g, d, c = dom
    if c == 0.0:
        return False
    gp, dp = g * p, d * p
    return not (gp > 1.0 or (gp == 1.0 and dp > 1.0))


def mean_term(dom):
    """Exact class of |integral of f from the end to t| / t (or from a fixed
    point to t, where f is not integrable at the end) for the end term
    dom = (p, q, c), f ~ c t^-p L^-q with L = |log t|.  By Karamata's
    theorem (Bingham, Goldie, Teugels, Regular Variation, 1.5-1.6) it is
    c t^-p L^-q / |1 - p| for p != 1 and c t^-1 L^(1-q) / |1 - q| for
    p = 1, at 0 and at infinity alike; None for p = q = 1 (c log L / t).
    """
    p, q, c = dom
    if p != 1.0:
        return Term(c / abs(1.0 - p), p, q)
    if q != 1.0:
        return Term(c / abs(1.0 - q), 1.0, q - 1.0)
    return None


def _term_integral(tm, lo, hi, p):
    """Integral of (coeff*(t/s)^-g*|log(t/s)|^-d)^p over (lo, hi), finite case."""
    c = tm.coeff ** p
    g, d, s = tm.pow * p, tm.logpow * p, tm.scale
    if d == 0.0:
        # c * s^g * t^-g
        cc = c * s ** g
        if g == 1.0:
            return cc * (math.log(hi) - math.log(lo))
        e = 1.0 - g
        hi_part = 0.0 if (hi == INF and e < 0.0) else hi ** e
        return cc * (hi_part - lo ** e) / e
    if g == 1.0:
        # substitute u = log(t/s); u keeps constant sign on the segment
        u1 = math.log(lo / s) if lo > 0.0 else -INF
        u2 = math.log(hi / s) if hi < INF else INF

        def F(u):
            # antiderivative of |u|^-d, valid on each sign region
            if d == 1.0:
                if abs(u) == INF:
                    return math.copysign(INF, u)
                return math.copysign(math.log(abs(u)), u)
            e = 1.0 - d
            if abs(u) == INF:
                return 0.0 if e < 0.0 else math.copysign(INF, u)
            return math.copysign(abs(u) ** e, u) / e

        return c * (F(u2) - F(u1))
    return None  # no closed form


def _seg_integral(terms, lo, hi, p, log1p):
    if not terms:
        return 0.0
    if not log1p:
        if len(terms) == 1:
            v = _term_integral(terms[0], lo, hi, p)
            if v is not None:
                return v
        elif p == 1.0:
            vals = [_term_integral(tm, lo, hi, 1.0) for tm in terms]
            if all(v is not None for v in vals):
                return sum(vals)
    if log1p and len(terms) == 1 and terms[0].pow == 0.0 and terms[0].logpow == 0.0:
        if hi == INF:
            return INF if terms[0].coeff > 0.0 else 0.0
        return (hi - lo) * math.log1p(terms[0].coeff)
    return _log_quad(terms, lo, hi, p, log1p)


def _log_quad(terms, lo, hi, p, log1p):
    """Quadrature of (sum of terms)^p (or log(1 + sum)) over (lo, hi) in
    u = log(t/s), s the first term's scale, where dt = t du.  Each term
    times t^a (a = 1/p, or 1 for log1p) is c e^(-(g - a) u) |w|^-d up to
    constants, w = log(t/s_k), and its log is taken in that form, so the
    integrand is smooth, free of cancellation between g u and a u, and in
    the float range where t^-g is not."""
    a = 1.0 if log1p else 1.0 / p
    log_s = math.log(terms[0].scale)
    shifts = [log_s - math.log(tm.scale) for tm in terms]

    def fn(u):
        # ls: log of t^a times the sum of the terms at t = s e^u
        logs = [(math.log(abs(tm.coeff)) - (tm.pow - a) * u - tm.pow * sh
                 + a * log_s
                 - (tm.logpow * math.log(abs(u + sh)) if tm.logpow else 0.0),
                 tm.coeff) for tm, sh in zip(terms, shifts) if tm.coeff]
        top = max(lv for lv, _ in logs)
        tot = sum(math.copysign(math.exp(lv - top), c) for lv, c in logs)
        if tot <= 0.0:
            return 0.0
        ls = top + math.log(tot)
        if not log1p:
            return math.exp(p * ls)
        lv = ls - u - log_s  # log of the sum
        if lv > 0.0:  # log(1 + e^lv) = lv + log(1 + e^-lv)
            return (lv + math.log1p(math.exp(-lv))) * math.exp(u + log_s)
        x = math.exp(lv)
        return math.exp(ls) * (math.log1p(x) / x if x > 0.0 else 1.0)

    val, _ = integrate.quad(
        fn, math.log(lo) - log_s if lo > 0.0 else -INF,
        math.log(hi) - log_s if hi < INF else INF,
        epsabs=0.0, epsrel=1e-12, limit=500)
    return val


def diverges(f, a, b, p=1.0, log1p=False):
    """Whether the integral of f^p (or log(1+f)) over (a, b) diverges at an
    end of the domain, from the end exponents; (a, b) within the domain."""
    if a == 0.0 and not log1p and _diverges_at_0(dominant_at_0(f), p):
        return True
    if b < INF:
        return False
    dom = dominant_at_inf(f)
    if log1p:
        return dom is not None and dom[2] > 0.0 and _diverges_at_inf(dom, 1.0)
    return _diverges_at_inf(dom, p)


def integral(f, a, b, p=1.0, log1p=False):
    """Integral of f^p (or log(1+f)) over (a, b); +inf detected symbolically."""
    if not (0.0 <= a < b <= INF):
        raise DomainError("bad interval")
    b = min(b, f.domain_hi)
    if diverges(f, a, b, p, log1p):
        return INF
    total = 0.0
    for seg in f.segs:
        lo, hi = max(seg.lo, a), min(seg.hi, b)
        if hi <= lo or seg.is_zero():
            continue
        total += _seg_integral(seg.terms, lo, hi, p, log1p)
    return total


# ---------------------------------------------------------------------------
# domination


def dominated_by(f, g, probe=33):
    """Least C with f <= C*g pointwise, or None when no finite C exists."""
    if f.domain_hi != g.domain_hi:
        raise DomainError("mixed domains")
    if f.is_zero():
        return 0.0
    best = 0.0
    for lo, hi, tf, tg in _refine(f, g):
        if not tf:
            continue
        if not tg:
            return None
        if lo == 0.0:
            df = _dominant(tf, at_zero=True)
            dg = _dominant(tg, at_zero=True)
            if (df[0], -df[1]) > (dg[0], -dg[1]):
                return None
            if (df[0], df[1]) == (dg[0], dg[1]):
                best = max(best, df[2] / dg[2])
        if hi == INF:
            df = _dominant(tf, at_zero=False)
            dg = _dominant(tg, at_zero=False)
            if (-df[0], -df[1]) > (-dg[0], -dg[1]):
                return None
            if (df[0], df[1]) == (dg[0], dg[1]):
                best = max(best, df[2] / dg[2])

        def ratio(t):
            num = sum(tm.value(t) for tm in tf)
            den = sum(tm.value(t) for tm in tg)
            return num / den

        pts = _probe_points(lo, hi, n=probe)
        vals = [ratio(t) for t in pts]
        imax = int(np.argmax(vals))
        best = max(best, vals[imax])
        a = pts[max(imax - 1, 0)]
        b = pts[min(imax + 1, len(pts) - 1)]
        if b > a:
            res = optimize.minimize_scalar(
                lambda u: -ratio(math.exp(u)),
                bounds=(math.log(a), math.log(b)),
                method="bounded",
                options={"xatol": 1e-12},
            )
            best = max(best, -res.fun)
    return best


# ---------------------------------------------------------------------------
# majorants


def least_decreasing_majorant(samples, domain_hi=INF, tail="hold"):
    """Right-running supremum of the samples as a step PLFun.

    samples: list of (t, v) with strictly increasing t.  Value on
    [t_i, t_{i+1}) is sup of samples at or beyond t_i; held (or zeroed)
    past the last sample.
    """
    if not samples:
        raise DomainError("empty sample list")
    ts = [t for t, _ in samples]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("sample scales must be strictly increasing")
    sups = []
    run = 0.0
    for _, v in reversed(samples):
        run = max(run, v)
        sups.append(run)
    sups.reverse()
    segs = [Seg(0.0, ts[0], (Term(sups[0]),) if sups[0] else ())]
    for i in range(len(samples)):
        v = sups[i]
        if i + 1 < len(samples):
            hi = samples[i + 1][0]
        elif tail == "hold":
            hi = domain_hi
        else:
            # last sample still needs cover at its own point
            hi = min(ts[i] * (1 + 1e-9), domain_hi)
        segs.append(Seg(ts[i], hi, (Term(v),) if v else ()))
    return make(segs, domain_hi, validate=False)


def _scaled(terms, pairs):
    """The terms times the least c >= 1 keeping them >= v at each (t, v)."""
    c = 1.0
    for t, v in pairs:
        tv = sum(tm.value(t) for tm in terms)
        if v > c * tv and tv > 0.0:
            c = v / tv
    return tuple(replace(tm, coeff=tm.coeff * c) for tm in terms)


def envelope_majorant(samples, domain_hi=INF, head=(), tail=(), reach=None,
                      hold=True):
    """Decreasing majorant of the samples carrying the given end terms.

    The head (or tail) terms are the exact class of the sampled function at
    that end (mean_term).  Log-free, they cover the samples beyond reach,
    where the profile has that end term; with a log factor, or no reach,
    they start past the samples.  They are scaled by the least c >= 1 that
    keeps them above the samples they cover and the majorant nonincreasing;
    the step majorant (least_decreasing_majorant) covers the other samples.
    """
    ts = [t for t, _ in samples]
    ends = head or tail
    mode = "hold" if hold else "zero"
    if not ends:
        return least_decreasing_majorant(samples, domain_hi, mode)
    k = 0 if head else len(ts) - 1
    if reach is not None and not any(tm.logpow for tm in ends):
        k = min(bisect.bisect_left(ts, reach), len(ts) - 1)
    t = ts[k]
    if head:
        steps = least_decreasing_majorant(samples[k:], domain_hi, mode)
        ends = _scaled(ends, samples[:k] + [(t, steps(t))])
        segs = [Seg(0.0, t, ends)] + [replace(s, lo=max(s.lo, t))
                                      for s in steps.segs if s.hi > t]
    else:
        ends = _scaled(ends, samples[k:])
        top = (t, sum(tm.value(t) for tm in ends))
        steps = least_decreasing_majorant(samples[:k] + [top], domain_hi)
        segs = [replace(s, hi=min(s.hi, t)) for s in steps.segs if s.lo < t]
        segs.append(Seg(t, domain_hi, ends))
    return make(segs, domain_hi, validate=False)

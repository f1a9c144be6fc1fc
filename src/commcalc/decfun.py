"""Piecewise power-log algebra of nonincreasing functions.

Functions live on (0, oo) or (0, 1) and are finite sums, per segment, of
terms coeff*(t/scale)^(-pow)*|log(t/scale)|^(-logpow).  The class is closed
under sum, product, and dyadic dilation, and every band integral of a term
is in closed form: a power, a log or an incomplete Gamma (DLMF 8).

The order of end terms is kept here alone: end_keys reads the keys of f's
end terms at 0 and at oo, admits tests a key against a threshold, and
integrable(p) gives the thresholds at which |f|^p is integrable.
"""

import bisect
import functools
import math
import operator
from dataclasses import dataclass, replace
from itertools import count, repeat

import numpy as np

INF = math.inf

MONOTONE_RTOL = 1e-9  # a rise _check_monotone forgives as float noise
MONOTONE_ATOL = 4 * math.ulp(0.0)  # and the rounding of subnormal sums
PROBE_CACHE = 256  # probe ranges _probe_points keeps


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

    def values(self, ts):
        """value(t) for each t in ts without the overflow check: the same
        float operations, each mapped over ts at once."""
        if self.coeff == 0.0:
            return [0.0] * len(ts)
        us = list(map(operator.truediv, ts, repeat(self.scale)))
        vs = map(operator.mul, repeat(self.coeff),
                 map(pow, us, repeat(-self.pow)))
        if self.logpow:
            vs = map(operator.mul, vs,
                     map(pow, map(abs, map(math.log, us)),
                         repeat(-self.logpow)))
        return list(vs)


@dataclass(frozen=True)
class Seg:
    """Segment [lo, hi) carrying the sum of its terms.

    phase is the unimodular factor of an operator segment (see specop);
    profiles never read it, and tile() gives every profile segment phase 1.
    """

    lo: float
    hi: float
    terms: tuple = ()
    phase: complex = 1.0

    def value(self, t):
        return sum(term.value(t) for term in self.terms)

    def values(self, ts):
        """[self.value(t) for t in ts] (_terms_values)."""
        return _terms_values(self.terms, ts)

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(term.pow == 0.0 and term.logpow == 0.0 for term in self.terms)

    def const_value(self):
        return sum(term.coeff for term in self.terms)


def _terms_values(terms, ts):
    """[sum(tm.value(t) for tm in terms) for t in ts], each term evaluated
    on all of ts at once (Term.values); where a term fails or overflows,
    the list above raises Term.value's error at the first such t."""
    try:
        cols = [term.values(ts) for term in terms]
    except (ArithmeticError, ValueError):
        cols = None
    if cols is None or any(INF in map(abs, col) for col in cols):
        return [sum(tm.value(t) for tm in terms) for t in ts]
    return list(map(sum, zip(*cols))) if cols else [0] * len(ts)


def _merge_terms(terms):
    """The terms with equal (pow, logpow, scale) summed, zero sums dropped,
    in key order; terms already so come back as they are (_merged)."""
    if _merged(terms):
        return tuple(terms)
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


def _merged(terms):
    """Whether _merge_terms leaves the terms as they are: Terms with float
    coefficients, none 0 or NaN (0.0 + c is then c itself), in strictly
    ascending key order (so no two merge and sorting moves none)."""
    prev = None
    for tm in terms:
        c = tm.coeff
        if type(tm) is not Term or type(c) is not float or not c or c != c:
            return False
        key = (tm.pow, tm.logpow, tm.scale)
        if prev is not None and not prev < key:
            return False
        prev = key
    return True


def _check_log_guard(seg):
    for term in seg.terms:
        # log(t/scale) must keep one sign on [lo, hi)
        if term.logpow and seg.lo / term.scale < 1.0 < seg.hi / term.scale:
            raise DomainError("log-power segment [%g, %g) straddles its"
                              " scale %g" % (seg.lo, seg.hi, term.scale))
        if term.logpow > 0.0 and term.scale in (seg.lo, seg.hi):
            raise DomainError("log-power segment [%g, %g) has a pole at its"
                              " scale %g" % (seg.lo, seg.hi, term.scale))


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

    def values(self, ts):
        """[self(t) for t in ts] for ascending ts: the points of each
        segment at once (Seg.values), so an error is the one self(t) raises
        at the first point that fails."""
        breaks, segs, out = self.breaks, self.segs, []
        i, n = 0, len(ts)
        while i < n:
            t = ts[i]
            if not (0.0 < t < self.domain_hi):
                self(t)  # raises DomainError
            k = bisect.bisect_right(breaks, t) - 1
            end = segs[k + 1].lo if k + 1 < len(segs) else self.domain_hi
            j = bisect.bisect_left(ts, end, i)
            out += segs[k].values(ts[i:j])
            i = j
        return out

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
    """Bisection table for the measure of {f > x} of a PLFun.

    A segment lies above level x when its right limit is > x; a zero
    segment has limit 0.  The table keeps each segment's end (clipped to
    the domain) and the running minimum of the right limits, negated so
    that it ascends.  The first segment not above x is the first index at
    which the running minimum fails the same test, even where right limits
    rise within MONOTONE_RTOL.  The table grows only as far as the queries
    reach, so no segment is evaluated that a scan from the left would not
    evaluate, and it stops at a NaN limit.
    """

    def __init__(self, segs, domain_hi):
        # the segments, not the PLFun: no reference cycle through its cache
        self.segs, self.domain_hi = segs, domain_hi
        self.ends = []
        self.negmin = []
        self.complete = False

    def first_below(self, x):
        """(k, D): the first segment not above x (or a NaN limit, or the
        end), and the end of the segment before it (0.0 for k == 0)."""
        neg = -x
        negmin = self.negmin
        while not self.complete and (not negmin or negmin[-1] < neg):
            self._grow()
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
    return tile(normalize(segs), domain_hi, validate)


def normalize(segs):
    """Sorted by lo, empty intervals dropped, each segment's terms merged
    and its phase kept: the pass that specop.make_op shares.  A segment
    whose terms are already merged is kept as it is."""
    out = []
    for seg in sorted(segs, key=lambda s: s.lo):
        if seg.hi <= seg.lo:
            continue
        terms = _merge_terms(seg.terms)
        out.append(seg if terms is seg.terms and type(seg) is Seg
                   else Seg(seg.lo, seg.hi, terms, seg.phase))
    return out


def tile(segs, domain_hi=INF, validate=True):
    """PLFun of normalized segments: gaps zero-filled, adjacent identical
    segments merged, phases set to 1 (a float phase 1.0 is kept as is)."""
    out = []
    cursor = 0.0
    for seg in segs:
        if seg.lo > cursor:
            out.append(Seg(cursor, seg.lo, ()))
        elif seg.lo < cursor:
            raise DomainError("overlapping segments at %g" % seg.lo)
        out.append(seg if type(seg.phase) is float and seg.phase == 1.0
                   else Seg(seg.lo, seg.hi, seg.terms))
        cursor = seg.hi
    if cursor < domain_hi:
        out.append(Seg(cursor, domain_hi, ()))
    elif cursor > domain_hi:
        raise DomainError("segments exceed domain end %g" % domain_hi)
    merged = out[:1]
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
    """Ends of the probe range of a segment; None when the range is empty.
    A head segment probes from 2^-60 min(hi, 1), or from the least
    positive float where that underflows."""
    a = lo if lo > 0.0 else max(min(hi, 1.0) * 2.0 ** -60, math.ulp(0.0))
    b = hi if hi < INF else max(a, 1.0) * 2.0 ** 60
    return None if a >= b else (a, b)


@functools.lru_cache(maxsize=PROBE_CACHE)
def _probe_points(lo, hi, n=17):
    """n points spaced geometrically inside the probe range, as a tuple:
    a profile and the profiles derived from it share segment ends, so a
    range is probed again and again."""
    ends = _probe_ends(lo, hi)
    if ends is None:
        return ()
    a, b = ends
    return tuple(np.geomspace(a * (1 + 1e-12), b * (1 - 1e-12), n).tolist())


def _value_or_inf(seg, t):
    """seg.value(t), with a value beyond the float range read as +inf."""
    try:
        return seg.value(t)
    except OverflowError:
        return INF


def _ceiling(prev):
    """The most a value may rise above prev and still count as no rise:
    float noise relative to prev, and the rounding of a subnormal sum."""
    return prev * (1 + MONOTONE_RTOL) + MONOTONE_ATOL


def _check_monotone(f):
    """Refuse f where a probe value rises above the value before it
    (_ceiling) or lies below 0, naming the first such probe point.

    A non-constant segment is evaluated at its probe points at once
    (Seg.values); where that raises, the points are read one at a time, so
    a probe that fails comes before a later one that raises, and a value
    past the float range reads +inf."""
    prev = INF
    for seg in f.segs:
        hi = min(seg.hi, f.domain_hi)
        if seg.is_const():
            ends = _probe_ends(seg.lo, hi)
            if ends is not None:
                # every probe point sees v: the first compares it with
                # prev, the second finds it below 0
                v = seg.value(ends[0])
                for i, fails in enumerate((v > _ceiling(prev), v < 0.0)):
                    if fails:
                        raise DomainError("not nonincreasing near t=%g"
                                          % _probe_points(seg.lo, hi)[i])
                prev = v
        else:
            ts = _probe_points(seg.lo, hi)
            try:
                vs = seg.values(ts)
            except Exception:
                vs = map(functools.partial(_value_or_inf, seg), ts)
            for t, v in zip(ts, vs):
                if v > _ceiling(prev) or v < 0.0:
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


def dyadic_grid(lo_oct, hi_oct, ppo):
    """The points 2^(j/ppo) from 2^lo_oct to 2^hi_oct, ppo per octave."""
    return [2.0 ** (j / ppo) for j in range(lo_oct * ppo, hi_oct * ppo + 1)]


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
    return float(right_limit(f.segs[-1], INF))


def _nonzero(x, c):
    """x, a product or quotient of c != 0, or the least positive float with
    c's sign where it underflowed: an end term never vanishes by rounding."""
    return x if x else math.copysign(math.ulp(0.0), c)


def _dominant(terms, at_zero):
    """The asymptotically dominant (pow, logpow, limit-coefficient) triple."""
    if not terms:
        return None
    best = max(terms, key=lambda tm: end_key(tm.pow, tm.logpow, at_zero))
    # effective coefficient once the scale is absorbed: (t/s)^-g ~ s^g t^-g
    coeff = best.coeff * best.scale ** best.pow
    total = sum(
        tm.coeff * tm.scale ** tm.pow
        for tm in terms
        if (tm.pow, tm.logpow) == (best.pow, best.logpow)
    )
    return best.pow, best.logpow, _nonzero(total or coeff, best.coeff)


def dominant_at_0(f):
    return _dominant(f.segs[0].terms, at_zero=True)


def dominant_at_inf(f):
    seg = f.segs[-1]
    if seg.hi < INF:
        return None
    return _dominant(seg.terms, at_zero=False)


# ---------------------------------------------------------------------------
# the order of end terms
#
# The end term c t^-p L^-q (L = |log t|) is the key (p, -q) at 0 and
# (-p, -q) at oo, in lexicographic order: the larger the key, the larger
# the function at that end; BOTTOM where it vanishes (at oo: also on the
# (0, 1) domain).  A threshold (a, b, attained, s) admits (x, y) when
# (s x, s y, 0) < (a, b, attained): s is 1.0 except for integrable(p),
# where s = p.

BOTTOM = (-INF, -INF)


def end_key(p, q, at_zero):
    """The key of an end term c t^-p L^-q at 0 (at_zero) or at oo."""
    return (p, -q) if at_zero else (-p, -q)


def end_keys(f):
    """The keys of f's end terms at 0 and at oo, from the exponents of the
    terms there: a term's coefficient is never 0 (_merge_terms)."""
    head, tail = f.segs[0].terms, f.segs[-1]
    tail = tail.terms if tail.hi == INF else ()
    return (max(end_key(tm.pow, tm.logpow, True) for tm in head)
            if head else BOTTOM,
            max(end_key(tm.pow, tm.logpow, False) for tm in tail)
            if tail else BOTTOM)


def admits(t, key):
    """Whether the threshold t admits the end key."""
    a, b, attained, s = t
    return (key[0] * s, key[1] * s, 0) < (a, b, attained)


def integrable(p):
    """The thresholds (at 0, at oo) at which |f|^p is integrable: p times
    f's key lies below (1, -1) at 0 and below (-1, -1) at oo."""
    return (1.0, -1.0, 0, p), (-1.0, -1.0, 0, p)


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


def combine(f, g, kind):
    """Pointwise sum or product of f and g."""
    if f.domain_hi != g.domain_hi:
        raise DomainError("mixed domains")
    segs = []
    for lo, hi, ts1, ts2 in _refine(f, g):
        if kind == "sum":
            segs.append(Seg(lo, hi, ts1 + ts2))
        elif kind == "product":
            segs.append(Seg(lo, hi, _product_terms(ts1, ts2)))
        else:
            raise ValueError("unknown kind %r" % kind)
    return make(segs, f.domain_hi)


def scale_fun(f, c):
    """Pointwise c*f for c >= 0."""
    if c < 0:
        raise DomainError("negative scalar")
    segs = [
        Seg(s.lo, s.hi, tuple(Term(tm.coeff * c, tm.pow, tm.logpow, tm.scale)
                              for tm in s.terms))
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


def mean_term(dom):
    """Exact class of |integral of f from the end to t| / t (or from a fixed
    point to t, where f is not integrable at the end) for the end term
    dom = (p, q, c), f ~ c t^-p L^-q with L = |log t|.  By Karamata's
    theorem (Bingham, Goldie, Teugels, Regular Variation, 1.5-1.6) it is
    c t^-p L^-q / |1 - p| for p != 1 and c t^-1 L^(1-q) / |1 - q| for
    p = 1, at 0 and at infinity alike; None for p = q = 1 (c log L / t),
    which commutator.side_classes replaces by a bracket.
    """
    p, q, c = dom
    if p != 1.0:
        return Term(_nonzero(c / abs(1.0 - p), c), p, q)
    if q != 1.0:
        return Term(_nonzero(c / abs(1.0 - q), c), 1.0, q - 1.0)
    return None


def _term_integral(tm, lo, hi):
    """Integral of coeff*(t/s)^-g*|log(t/s)|^-d over (lo, hi) in closed
    form, a log band across s by its two sides: a power, a log or an
    incomplete Gamma (DLMF 8).  Past the float range: OverflowError."""
    c, g, d, s = tm.coeff, tm.pow, tm.logpow, tm.scale
    if d == 0.0:
        # c * s^g * t^-g
        cc = c * s ** g
        if g == 1.0:
            return cc * (math.log(hi) - math.log(lo))
        e = 1.0 - g
        if abs(e) < 2.0 ** -7 and lo > 0.0:
            # hi^e - lo^e cancels for g near 1; lo^e (e^(e L) - 1) does not
            r = hi / lo
            L = math.log(r) if r < INF else math.log(hi) - math.log(lo)
            return cc * lo ** e * math.expm1(e * L) / e
        hi_part = 0.0 if (hi == INF and e < 0.0) else hi ** e
        return cc * (hi_part - lo ** e) / e
    if lo < s < hi:
        return _term_integral(tm, lo, s) + _term_integral(tm, s, hi)
    if g == 1.0:
        if d >= 1.0 and s in (lo, hi):
            return math.copysign(INF, c)  # divergent at t = s
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
    # t = s e^-+w: c s e^(-k w) w^-d dw, k = 1 - g below s and g - 1 above;
    # x = |k| w: c s |k|^-a int e^(-+x) x^(a-1) dx with a = 1 - d, in logs
    k, a = (1.0 - g if hi <= s else g - 1.0), 1.0 - d
    x1, x2 = sorted(abs(k * _log_ratio(t, s)) if 0.0 < t < INF else INF
                    for t in (lo, hi))
    if x1 == x2:
        return 0.0
    if (x1 == 0.0 and a <= 0.0) or (x2 == INF and k < 0.0):
        return math.copysign(INF, c)  # divergent at t = s, or at 0 or oo
    pre = math.log(abs(c)) + math.log(s) - a * math.log(abs(k))
    # decaying (k > 0): a series below x0 (of positive terms for a > 1) and
    # the continued fraction above; growing: a positive series, whose value
    # overflows once a term passes e^(710 - pre)
    x0, parts = (max(1.0, a + 1.0) if k > 0.0 else INF), []
    if x1 < x0:
        x = min(x2, x0)
        parts.append(_log_sub(_log_lower(a, x), _log_lower(a, x1))
                     if a > 1.0 and k > 0.0 else _log_series(
                         a, x1, x, 1.0 if k < 0.0 else -1.0, 710 - pre))
    if x2 > x0:
        parts.append(_log_sub(_log_upper(a, max(x1, x0)), _log_upper(a, x2)))
    return math.copysign(math.exp(pre + np.logaddexp.reduce(parts)), c)


def _log_ratio(t, s):
    """log(t/s), from the two logs where t/s is not a normal float."""
    r = t / s
    return math.log(r) if 2 ** -1022 <= r < INF else math.log(t) - math.log(s)


def _log_sub(l1, l2):
    """log(e^l1 - e^l2), -inf where rounding leaves e^l2 >= e^l1."""
    return l1 + math.log(-math.expm1(l2 - l1)) if l2 < l1 else -INF


def _log_series(a, x1, x2, sign, cap):
    """log of sum_n sign^n int_x1^x2 x^(a+n-1) / n! dx, the integral of
    e^(sign x) x^(a-1) term by term, and OverflowError for sign 1 once a
    term passes e^cap.  Past n = 2 x2 each term is at most half the one
    before; for sign -1 the sum is >= e^-2x2 of the largest."""
    lx1 = math.log(x1) if x1 > 0.0 else -INF
    lx2, L = math.log(x2), math.log1p((x2 - x1) / x1) if x1 > 0.0 else INF
    top, tot = -INF, 0.0
    for n in count():
        m = a + n
        # log((x2^m - x1^m) / m), or log(L) where m = 0
        lt = -math.lgamma(n + 1.0) + (
            math.log(L) if m == 0.0 else
            m * lx2 + math.log(-math.expm1(-m * L)) - math.log(m) if m > 0
            else m * lx1 + math.log(-math.expm1(m * L)) - math.log(-m))
        if lt > top:
            if sign > 0.0 and lt > cap:
                raise OverflowError("band integral past the float range")
            tot, top = tot * math.exp(top - lt), lt
        tot += sign ** n * math.exp(lt - top)
        if n >= 2.0 * x2 and not lt > top - 45.0:
            return top + math.log(tot)


def _log_lower(a, x):
    """log gamma(a, x) for a > 1 and x <= a + 1 by its series of positive
    terms (DLMF 8.7.1), -inf at x = 0."""
    term = tot = 1.0 / a
    for n in count(1):
        term *= x / (a + n)
        tot += term
        if not term > tot * 2.0 ** -54:
            return -x + a * math.log(x) + math.log(tot) if x else -INF


def _log_upper(a, x):
    """log Gamma(a, x) for x >= max(1, a + 1), -inf at x = oo: Legendre's
    continued fraction (DLMF 8.9.2) by Lentz's method, which never reads
    Gamma(a) and so has no pole at a = 0, -1, ..."""
    if x == INF:
        return -INF
    b, c = x + 1.0 - a, INF
    h = d = 1.0 / b
    for i in count(1):
        # a_i = -i (i - a), multiplied in an order that stays finite
        b += 2.0
        d = 1.0 / (b - i * ((i - a) * d))
        c = b - i * ((i - a) / c)
        h *= d * c
        if not abs(d * c - 1.0) > 2.0 ** -52:
            return -x + a * math.log(x) + math.log(h)


def _seg_integral(terms, lo, hi):
    if len(terms) == 1:
        return 0 + _term_integral(terms[0], lo, hi)  # sum() of one term
    return sum(_term_integral(tm, lo, hi) for tm in terms)


def integral(f, a, b):
    """Integral of f over (a, b); +inf where it diverges at an end of the
    domain (detected from the end exponents) or passes the float range."""
    if not (0.0 <= a < b <= INF):
        raise DomainError("bad interval")
    b = min(b, f.domain_hi)
    at_0, at_inf = map(admits, integrable(1.0), end_keys(f))
    if (a == 0.0 and not at_0) or (b == INF and not at_inf):
        return INF
    total = 0.0
    for seg in f.segs:
        lo, hi = max(seg.lo, a), min(seg.hi, b)
        if hi <= lo or seg.is_zero():
            continue
        try:
            total += _seg_integral(seg.terms, lo, hi)
        except OverflowError:
            return INF
    return total


# ---------------------------------------------------------------------------
# domination


def dominated_by(f, g):
    """Least C with f <= C*g pointwise, or None when no finite C exists."""
    from scipy import optimize
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
        for at_zero, at_end in ((True, lo == 0.0), (False, hi == INF)):
            if not at_end:
                continue
            # f's end key may not pass g's; equal keys bound C by the
            # ratio of the coefficients
            (pf, qf, cf), (pg, qg, cg) = (_dominant(tf, at_zero),
                                          _dominant(tg, at_zero))
            kf, kg = end_key(pf, qf, at_zero), end_key(pg, qg, at_zero)
            if kf > kg:
                return None
            if kf == kg:
                best = max(best, cf / cg)

        def ratio(t):
            num = sum(tm.value(t) for tm in tf)
            den = sum(tm.value(t) for tm in tg)
            return num / den

        pts = _probe_points(lo, hi, n=33)
        if not pts:
            continue  # no float lies inside (lo, hi)
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
    # the segments as normalize leaves them, once the empty ones are
    # dropped: ascending, each with the coefficient _merge_terms makes of
    # its value; scales that do not ascend (a NaN) go through make
    segs = [Seg(0.0, ts[0], (Term(0.0 + sups[0]),) if sups[0] else ())]
    for i in range(len(samples)):
        v = sups[i]
        if i + 1 < len(samples):
            hi = samples[i + 1][0]
        elif tail == "hold":
            hi = domain_hi
        else:
            # last sample still needs cover at its own point
            hi = min(ts[i] * (1 + 1e-9), domain_hi)
        segs.append(Seg(ts[i], hi, (Term(0.0 + v),) if v else ()))
    if not all(map(operator.lt, ts, ts[1:])):
        return make(segs, domain_hi, validate=False)
    return tile([s for s in segs if not s.hi <= s.lo], domain_hi, False)


def _scaled(terms, pairs):
    """The terms times the least c >= 1 keeping them >= v at each (t, v).

    The terms are evaluated at all samples at once (_terms_values); where
    that raises, one sample at a time, so that a comparison that fails
    comes before a later error."""
    ts = [t for t, _ in pairs]
    try:
        tvs = _terms_values(terms, ts)
    except Exception:
        tvs = (sum(tm.value(t) for tm in terms) for t in ts)
    c = 1.0
    for (t, v), tv in zip(pairs, tvs):
        if v > c * tv and tv > 0.0:
            c = v / tv
    return tuple(Term(tm.coeff * c, tm.pow, tm.logpow, tm.scale)
                 for tm in terms)


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
        # replace(s, lo=max(s.lo, t)), and below replace(s, hi=min(s.hi,
        # t)), built only where the segment changes
        segs = [Seg(0.0, t, ends)] + [
            Seg(t, s.hi, s.terms, s.phase) if t > s.lo else s
            for s in steps.segs if s.hi > t]
    else:
        ends = _scaled(ends, samples[k:])
        top = (t, sum(tm.value(t) for tm in ends))
        steps = least_decreasing_majorant(samples[:k] + [top], domain_hi)
        segs = [Seg(s.lo, t, s.terms, s.phase) if t < s.hi else s
                for s in steps.segs if s.lo < t]
        segs.append(Seg(t, domain_hi, ends))
    return make(segs, domain_hi, validate=False)

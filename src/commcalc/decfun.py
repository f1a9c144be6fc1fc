"""Piecewise power-log algebra of nonincreasing functions.

Functions live on (0, oo) or (0, 1) and are finite sums, per segment, of
terms coeff*(t/scale)^(-pow)*|log(t/scale)|^(-logpow).  The class is closed
under sum, max, product, and dyadic dilation, and supports exact integral
divergence tests from the exponents.
"""

import bisect
import math
from dataclasses import dataclass, field, replace

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
        return v

    def values(self, ts):
        if self.coeff == 0.0:
            return np.zeros_like(ts)
        u = np.asarray(ts, dtype=float) / self.scale
        v = self.coeff * u ** (-self.pow)
        if self.logpow:
            v = v * np.abs(np.log(u)) ** (-self.logpow)
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
        if term.logpow == 0.0:
            continue
        # log(t/scale) must keep one sign on [lo, hi)
        lo_u = seg.lo / term.scale
        hi_u = seg.hi / term.scale
        if hi_u <= 1.0 or lo_u >= 1.0:
            continue
        raise DomainError(
            "log-power segment [%g, %g) straddles its scale %g"
            % (seg.lo, seg.hi, term.scale)
        )


@dataclass(frozen=True)
class PLFun:
    domain_hi: float
    segs: tuple
    fit_error: float = field(default=0.0, compare=False)

    @property
    def breaks(self):
        return [s.lo for s in self.segs]

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


def make(segs, domain_hi=INF, validate=True, fit_error=0.0):
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
    f = PLFun(domain_hi, tuple(merged), fit_error)
    if validate:
        for seg in merged:
            _check_log_guard(seg)
        _check_monotone(f)
    return f


def _probe_points(lo, hi, n=17):
    a = lo if lo > 0.0 else min(hi, 1.0) * 2.0 ** -60
    b = hi if hi < INF else max(a, 1.0) * 2.0 ** 60
    if a >= b:
        return []
    return list(np.geomspace(a * (1 + 1e-12), b * (1 - 1e-12), n))


def _check_monotone(f, rtol=1e-9):
    prev = INF
    for seg in f.segs:
        pts = _probe_points(seg.lo, min(seg.hi, f.domain_hi))
        for t in pts:
            v = seg.value(t)
            if v > prev * (1 + rtol) + 1e-300:
                raise DomainError("not nonincreasing near t=%g" % t)
            prev = v
        # junction: compare right limit of next seg against left value here
        if seg.hi < f.domain_hi:
            tj = seg.hi
            prev = min(prev, seg.value(tj * (1 - 1e-12)))


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
    if f.domain_hi < INF:
        if k < 0:
            raise DomainError("negative dilation leaves the (0,1) domain")
        segs = []
        for s in f.segs:
            lo, hi = s.lo * factor, s.hi * factor
            if lo >= f.domain_hi:
                break
            terms = tuple(replace(tm, scale=tm.scale * factor) for tm in s.terms)
            segs.append(Seg(lo, min(hi, f.domain_hi), terms))
        return make(segs, f.domain_hi, validate=False)
    segs = [
        Seg(
            s.lo * factor,
            s.hi * factor,
            tuple(replace(tm, scale=tm.scale * factor) for tm in s.terms),
        )
        for s in f.segs
    ]
    return make(segs, INF, validate=False)


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

    def fn(t):
        v = sum(tm.value(t) for tm in terms)
        return math.log1p(v) if log1p else v ** p

    val, _ = integrate.quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=500)
    return val


def integral(f, a, b, p=1.0, log1p=False):
    """Integral of f^p (or log(1+f)) over (a, b); +inf detected symbolically."""
    if not (0.0 <= a < b <= INF):
        raise DomainError("bad interval")
    b = min(b, f.domain_hi)
    if a == 0.0:
        dom = dominant_at_0(f)
        if not log1p and _diverges_at_0(dom, p):
            return INF
    if b == INF:
        dom = dominant_at_inf(f)
        if log1p:
            if dom is not None and dom[2] > 0.0 and _diverges_at_inf(dom, 1.0):
                return INF
        elif _diverges_at_inf(dom, p):
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


SNAP_DENOM = 24


def _snap(x, tol=0.02):
    q = round(x * SNAP_DENOM) / SNAP_DENOM
    return q if abs(q - x) <= tol else x


def powerlog_fit(samples, side):
    """Least-squares power-log envelope of (t, v) samples.

    side 'head' fits the small-t asymptotics (needs t < e^-1), side 'tail'
    the large-t ones (t > e).  Returns (term, resid) with the term
    inflated so term.value(t) >= v on every fitted sample, or None when too
    few usable samples or all values vanish.
    """
    if side == "head":
        use = [(t, v) for t, v in samples if t < math.exp(-LOG_GUARD) and v > 0.0]
    else:
        use = [(t, v) for t, v in samples if t > math.exp(LOG_GUARD) and v > 0.0]
    if len(use) < 6:
        return None
    # keep the asymptotic half of the log-range so lower-order terms at
    # moderate scales cannot drag the fitted exponents
    lmin = math.log(min(t for t, _ in use))
    lmax = math.log(max(t for t, _ in use))
    mid = 0.5 * (lmin + lmax)
    if side == "head":
        deep = [(t, v) for t, v in use if math.log(t) <= mid]
    else:
        deep = [(t, v) for t, v in use if math.log(t) >= mid]
    if len(deep) >= 6:
        use = deep
    ts = np.array([t for t, _ in use])
    vs = np.array([v for _, v in use])
    A = np.column_stack(
        [np.ones_like(ts), -np.log(ts), -np.log(np.abs(np.log(ts)))]
    )
    y = np.log(vs)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    logc, gamma, delta = sol
    resid = float(np.max(np.abs(A @ sol - y)))
    gs, ds = _snap(gamma), _snap(delta)
    sol2 = np.array([float(np.mean(y + gs * np.log(ts) + ds * np.log(np.abs(np.log(ts))))), gs, ds])
    resid2 = float(np.max(np.abs(A @ sol2 - y)))
    if resid2 <= max(1.5 * resid, resid + 0.005):
        logc, gamma, delta, resid = sol2[0], gs, ds, resid2
    if gamma < 0.0 or (gamma == 0.0 and delta < 0.0):
        # a growing envelope cannot majorize decreasingly; use a constant
        gamma, delta = 0.0, 0.0
        logc = float(np.log(np.max(vs)))
        resid = float(np.max(np.abs(np.log(vs) - logc)))
    term = Term(math.exp(logc), float(gamma), float(delta))
    worst = max(v / term.value(t) for t, v in use)
    if worst > 1.0:
        term = replace(term, coeff=term.coeff * worst * (1 + 1e-12))
    return term, resid


def envelope_majorant(samples, domain_hi=INF, fit_head=True, fit_tail=False,
                      tail="hold"):
    """Decreasing majorant of the samples with asymptotic power-log envelopes.

    Returns (PLFun, info) where info records fit exponents and residuals.
    The step majorant is used mid-scale; the head (and optionally tail)
    region is replaced by the fitted envelope so the true asymptotic
    exponents survive into membership tests.
    """
    steps = least_decreasing_majorant(samples, domain_hi, tail=tail)
    info = {"head": None, "tail": None}
    f = steps
    tpos = [t for t, v in samples if v > 0.0]
    # an asymptotic fit is meaningful only when positive values persist to
    # that end of the sampled range; otherwise the data is genuinely zero
    # there and the step majorant already tells the truth
    if tpos:
        fit_head = fit_head and min(tpos) <= samples[0][0] * 4.0
        fit_tail = fit_tail and max(tpos) >= samples[-1][0] * 0.25
    else:
        fit_head = fit_tail = False
    if fit_head:
        fit = powerlog_fit(samples, "head")
        if fit is not None:
            term, resid = fit
            cut = max(t for t, v in samples if t < math.exp(-LOG_GUARD))
            if term.logpow == 0.0:
                cut = max(t for t, _ in samples)
                cut = min(cut, domain_hi)
            right = steps(cut * (1 + 1e-12)) if cut < domain_hi else 0.0
            vcut = term.value(cut)
            if vcut < right:
                term = replace(term, coeff=term.coeff * right / vcut * (1 + 1e-12))
            segs = [Seg(0.0, cut, (term,))]
            for s in steps.segs:
                lo, hi = max(s.lo, cut), s.hi
                if hi > lo:
                    segs.append(Seg(lo, hi, s.terms))
            f = make(segs, domain_hi, validate=False)
            info["head"] = {"pow": term.pow, "logpow": term.logpow,
                            "coeff": term.coeff, "resid": resid}
    if fit_tail and domain_hi == INF:
        fit = powerlog_fit(samples, "tail")
        if fit is not None:
            term, resid = fit
            cut = min(t for t, v in samples if t > math.exp(LOG_GUARD))
            left = f(cut * (1 - 1e-12))
            vcut = term.value(cut)
            if vcut > left and left > 0.0:
                # keep monotone: cap the envelope by the mid-scale level
                term = replace(term, coeff=term.coeff * left / vcut)
            segs = [Seg(s.lo, min(s.hi, cut), s.terms)
                    for s in f.segs if s.lo < cut]
            segs.append(Seg(cut, INF, (term,)))
            f = make(segs, INF, validate=False)
            info["tail"] = {"pow": term.pow, "logpow": term.logpow,
                            "coeff": term.coeff, "resid": resid}
    return f, info


# ---------------------------------------------------------------------------
# geometric mean transform


def log_average(h, ppo=2, octaves=40, tol=1e-7):
    """g(t) = exp(t^-1 * integral_0^t log h), piecewise-power approximant.

    Exact on an initial pure-power segment; elsewhere interpolated in
    log-log coordinates on a dyadic grid (ppo points/octave spanning
    `octaves` octaves) refined adaptively until the midpoint relative
    error is below tol.  The worst accepted error is reported as
    fit_error on the result.
    """
    first = h.segs[0]
    if first.is_zero():
        raise DomainError("log_average of a function vanishing near 0")
    supp = support_hi(h)
    segs = []
    fit_err = 0.0

    def logh(t):
        return math.log(h(t))

    def chunk(a, b):
        val, _ = integrate.quad(logh, a, b, epsabs=1e-13, epsrel=1e-12,
                                limit=500)
        return val

    if len(first.terms) == 1 and first.terms[0].logpow == 0.0:
        tm = first.terms[0]
        g0 = Term(tm.coeff * math.exp(tm.pow), tm.pow, 0.0, tm.scale)
        b1 = min(first.hi, supp)
        segs.append(Seg(0.0, b1, (g0,)))
        if b1 >= min(supp, h.domain_hi):
            # the head covers everything; past the support g collapses to 0
            return make(segs, h.domain_hi, validate=False)
        L = b1 * math.log(g0.value(b1))
        start = b1
    else:
        # no pure-power head: start the grid deep below the first break
        b1 = min(first.hi, supp)
        start = b1 * 2.0 ** -octaves
        L = chunk(0.0, start)
        segs.append(Seg(0.0, start, (Term(math.exp(L / start)),)))
        fit_err = max(fit_err, 1e-3)  # crude below the grid, flagged

    grid_end = min(supp, start * 2.0 ** octaves, h.domain_hi)
    if grid_end > start:
        n = max(2, int(math.ceil(math.log2(grid_end / start) * ppo)) + 1)
        gs = list(np.geomspace(start, grid_end, n))
        # (t, L(t)) knots; refine cells until the midpoint error is small
        knots = [(gs[0], L)]
        for t in gs[1:]:
            knots.append((t, knots[-1][1] + chunk(knots[-1][0], t)))
        stack = list(zip(knots, knots[1:]))
        accepted = []
        while stack:
            (t0, L0), (t1, L1) = stack.pop()
            tm_mid = math.sqrt(t0 * t1)
            Lm = L0 + chunk(t0, tm_mid)
            g0v, g1v = math.exp(L0 / t0), math.exp(L1 / t1)
            gamma = -math.log(g1v / g0v) / math.log(t1 / t0)
            approx = g0v * (tm_mid / t0) ** (-gamma)
            true_mid = math.exp(Lm / tm_mid)
            err = abs(approx / true_mid - 1.0)
            if err <= tol or t1 / t0 < 1.0 + 1e-9:
                accepted.append((t0, t1, Term(g0v * t0 ** gamma, gamma)))
                fit_err = max(fit_err, err)
            else:
                stack.append(((t0, L0), (tm_mid, Lm)))
                stack.append(((tm_mid, Lm), (t1, L1)))
        for t0, t1, term in sorted(accepted):
            segs.append(Seg(t0, t1, (term,)))
        prev_t = grid_end
        prev_g = math.exp(knots[-1][1] / grid_end)
    else:
        prev_t, prev_g = start, math.exp(L / start)

    if prev_t < h.domain_hi:
        if prev_t >= supp:
            # h vanishes beyond: the geometric mean collapses to 0
            segs.append(Seg(prev_t, h.domain_hi, ()))
        else:
            # continue with the symbolic tail exponents of h
            dom = dominant_at_inf(h) if h.domain_hi == INF else None
            if dom is not None:
                g_exp, d_exp, _ = dom
                coeff = prev_g * prev_t ** g_exp
                if d_exp:
                    coeff *= abs(math.log(prev_t)) ** d_exp
                segs.append(Seg(prev_t, INF,
                                (Term(coeff * (1 + 1e-6), g_exp, d_exp),)))
                fit_err = max(fit_err, 1e-6)
            else:
                segs.append(Seg(prev_t, h.domain_hi, (Term(prev_g),)))
    return make(segs, h.domain_hi, validate=False, fit_error=fit_err)

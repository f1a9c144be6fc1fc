"""Function model of normal measurable operators.

An operator is multiplication by v(t) = phase * modulus(t) on its domain,
with the modulus globally nonincreasing so that the singular-number
function is the modulus itself.  Its segments are decfun.Seg: the terms
give the modulus and the phase field the unimodular factor on the segment.

NormalOp.segs are sorted by lo, nonempty, with merged terms (NormalOp
names the constructors that keep this); the profile tiles them as they
are and rejects overlaps before any band query runs.  Band queries rely
on this: edge reads a band edge at a scale exactly off the segment there,
dist_fun bisects the level table of the profile (decfun.Levels) for a
level, and integrate_v the segment-integral table of the operator
(SegIntegrals).  Both tables are filled lazily, only as far as the
queries reach, so every answer is the float a scan over all segments
from the left gives, and a segment whose integral diverges or raises
fails exactly where that scan would.

Band queries come in batches: edges yields the edges of an ascending
grid of scales, reading each segment's kind and a constant segment's
edge once, and integrate_bands integrates a list of bands, each with the
float additions of the scan.  Both read their input in order, so the
bands of a grid can come from its edges as they are found and the first
error is the one a query per point meets first; edge and integrate_v
are their one-point cases.  The decision grids (commutator.head_values,
BoundedPart.tails), the certificate table and the Brown probe bands
(brown.phi_table) are such batches.

split_fs_b cuts T at D(mu_1(T)) into T truncated there and T read past
the cut (BoundedPart), whose band queries are exact band queries on T:
no shifted or discretized copy is built.
"""

import bisect
import cmath
import functools
import math
import sys
from dataclasses import dataclass, replace

from . import decfun as df
from .decfun import INF, DomainError, Seg, Term

II_INF = "II_inf"
II_1 = "II_1"


@dataclass(frozen=True)
class NormalOp:
    """Multiplication by v on (0, domain_hi).  segs come out of
    decfun.normalize less the segments without terms (make_op), or are T's
    own with each coefficient scaled (scale_op), only the phase changed
    (adjoint) or the last one clipped (truncate)."""
    factor_type: str
    segs: tuple

    @property
    def domain_hi(self):
        return 1.0 if self.factor_type == II_1 else INF

    @functools.cached_property
    def profile(self):
        """Singular-number function as a PLFun, built on first use."""
        return df.tile(self.segs, self.domain_hi)

    @functools.cached_property
    def integrals(self):
        """Segment-integral table behind integrate_v, filled on demand."""
        return SegIntegrals(self.segs)

    @functools.cached_property
    def integrable(self):
        """Whether |v| is integrable (at 0, at infinity), decided on first
        use from the end keys of the profile.  A profile that fails to
        build raises here, and again on the next use."""
        return tuple(map(df.admits, df.integrable(1.0),
                         df.end_keys(self.profile)))

    def value(self, t):
        for seg in self.segs:
            if seg.lo <= t < seg.hi:
                return seg.phase * seg.value(t)
        return 0.0

    def is_zero(self):
        return not self.segs


class SegIntegrals:
    """Integrals of v over whole segments, and their running sums.

    whole(k) is the integral over segment k, computed on first use.
    prefix[k] is the sum of whole(0..k-1) added left to right, as a scan
    adds them.
    """

    def __init__(self, segs):
        self.segs = segs
        self.his = [s.hi for s in segs]
        self._whole = [None] * len(segs)
        self.prefix = [0.0 + 0.0j]

    def whole(self, k):
        c = self._whole[k]
        if c is None:
            seg = self.segs[k]
            c = seg.phase * df._seg_integral(seg.terms, seg.lo, seg.hi)
            self._whole[k] = c
        return c

    def head_sum(self, k):
        """Sum over the first k segments, extending prefix as needed."""
        p = self.prefix
        while len(p) <= k:
            i = len(p) - 1
            p.append(p[i] + self.whole(i))
        return p[k]


def make_op(segs, factor_type=II_INF, validate=True):
    cleaned = []
    for seg in df.normalize(segs):
        if not seg.terms:
            continue
        if validate and abs(abs(seg.phase) - 1.0) > 1e-12:
            raise DomainError("phase %r is not unimodular" % (seg.phase,))
        cleaned.append(Seg(seg.lo, seg.hi, seg.terms,
                           seg.phase / abs(seg.phase)))
    op = NormalOp(factor_type, tuple(cleaned))
    if validate:
        mu(op)  # builds and keeps the profile; checks tiling and monotonicity
    return op


def zero_op(factor_type=II_INF):
    return NormalOp(factor_type, ())


def _phase(z):
    """z / |z| for z != 0.  A subnormal |z| is first brought into the
    normal range by an exact power of two, where z / |z| is unimodular;
    other phases keep their bits."""
    if abs(z) < sys.float_info.min:
        z = (complex(z.real * 2.0 ** 600, z.imag * 2.0 ** 600)
             if isinstance(z, complex) else z * 2.0 ** 600)
    return z / abs(z)


def from_atoms(atoms, factor_type=II_INF):
    """atoms: list of (z, length); profile is the decreasing arrangement."""
    items = []
    for i, (z, ln) in enumerate(atoms):
        if ln <= 0:
            raise DomainError("atom length must be positive")
        if z == 0:
            continue
        # math.atan2, not cmath.phase: that raises when the angle underflows
        items.append((-abs(z), math.atan2(z.imag, z.real), i, z, ln))
    items.sort(key=lambda x: x[:3])
    segs = []
    lo = 0.0
    for _, _, _, z, ln in items:
        segs.append(Seg(lo, lo + ln, (Term(abs(z)),), _phase(z)))
        lo += ln
    return make_op(segs, factor_type)


def mu(T):
    """Singular-number function as a PLFun."""
    return T.profile


def distribution(T, x):
    """Measure of {mu > x}."""
    return dist_fun(mu(T), x)


def dist_fun(f, x):
    """For nonincreasing f: measure of {f > x}."""
    if x < 0:
        raise DomainError("negative level")
    # segments before k lie above x; segment k's right limit is not (the
    # table's running minimum fails there first), so the crossing is in it
    k, D = f.levels.first_below(x)
    if k == len(f.segs) or f.segs[k].is_zero():
        return D
    seg = f.segs[k]
    vL = seg.value(seg.lo) if seg.lo > 0 else df.value_at_0(f)
    # vL == vR on a constant segment: it never reaches _level_cross
    return D if vL <= x else _level_cross(seg, min(seg.hi, f.domain_hi), x)


def edge(f, t):
    """D(f(t)), the band edge at scale t > 0: t inside a non-constant (so
    strictly decreasing) segment, the lo of a constant one that the level
    table puts first at its value, the support end past the domain; else
    (a segment start, a junction rising within rtol) dist_fun(f, f(t))."""
    (e,) = edges(f, (t,))
    return e


def edges(f, ts):
    """edge(f, t) for each t in ts, in order and on demand, so that a band
    read between two edges fails where a query per point did.  Each
    segment's kind is read once, and so is the edge of a constant segment:
    its value, and so its edge, is one float."""
    breaks, segs, hi = f.breaks, f.segs, f.domain_hi
    known = {}  # segment index -> (constant, its edge or its lo)
    for t in ts:
        if not 0.0 < t < hi:
            yield dist_fun(f, 0.0) if t >= hi else f(t)  # t <= 0 raises
            continue
        i = bisect.bisect_right(breaks, t) - 1
        kind = known.get(i)
        if kind is None:
            seg = segs[i]
            if seg.is_const():
                k, D = f.levels.first_below(seg.const_value())
                kind = (True, D if k == i else dist_fun(f, f(t)))
            else:
                kind = (False, seg.lo)
            known[i] = kind
        const, x = kind
        yield x if const else (t if x < t else dist_fun(f, f(t)))


def _level_cross(seg, hi, x):
    """First t in [lo, hi) with seg value <= x, for a nonincreasing,
    non-constant segment."""
    from scipy import optimize

    def d(t):
        return seg.value(t) - x

    # a head segment starts from 2^-120 min(hi, 1), or from the least
    # positive float where that underflows; halving stops there too
    least = math.ulp(0.0)
    a = seg.lo if seg.lo > 0 else max(min(hi, 1.0) * 2.0 ** -120, least)
    while d(a) < 0.0 and a > least:
        a *= 0.5  # numeric fuzz right at the left edge
    b = hi
    if b == INF:
        b = max(a, 1.0) * 2.0
        while d(b) > 0.0 and b < 2.0 ** 1023:
            b *= 2.0
    else:
        b *= 1 - 1e-14
    if d(a) <= 0.0:
        return a
    if d(b) > 0.0:
        if hi == INF:
            raise OverflowError("the level %r is crossed past the float "
                                "range" % x)
        return b
    return optimize.brentq(d, a, b, xtol=1e-300, rtol=1e-13, maxiter=1000)


def _check_band_integrable(T, u, w):
    """Refuse a band that reaches an end where |v| is not integrable.

    Every call reads NormalOp.integrable, which builds the profile or
    fails as building it does; the ends are decided once per operator.
    """
    at_0, at_inf = T.integrable
    if (u == 0.0 and not at_0) or (w == INF and not at_inf):
        raise DomainError("non-integrable band")


def integrate_v(T, u, w):
    """Integral of the complex profile over the scale interval (u, w)."""
    return integrate_bands(T, ((u, w),))[0]


def integrate_bands(T, bands):
    """[integrate_v(T, u, w) for u, w in bands], read in order, so that
    the bands may come from edges as they are found.  Each band makes the
    float additions of a scan from the left: the running sum of whole
    segments where it starts at the first, then each segment it meets.
    The first band is checked as _check_band_integrable says, and so is
    each later one that reaches 0, or infinity where |v| is not integrable
    there: the others pass that check.  A band equal to the one before
    it is that band's float again: no segment starts below 0 once the
    first band is checked (the profile tiles), so an end at 0 meets only
    comparisons, where its sign cannot tell two equal bands apart."""
    segs, tab, hi_dom = T.segs, T.integrals, T.domain_hi
    his, whole, n = tab.his, tab.whole, len(segs)
    bisect_right, seg_integral = bisect.bisect_right, df._seg_integral
    first = segs[0].lo if segs else None
    out = []
    at_inf = None  # T.integrable[1], read once the first band is checked
    lu = lw = None
    for u, w in bands:
        if hi_dom < w:
            w = hi_dom  # min(w, hi_dom)
        if u == lu and w == lw:
            out.append(out[-1])
            continue
        lu, lw = u, w
        if at_inf is None or u == 0.0 or (w == INF and not at_inf):
            _check_band_integrable(T, u, w)
            at_inf = T.integrable[1]
        if first is None or u <= first:
            # segments ending by w are whole: their running sum, then the
            # rest
            k = bisect_right(his, w)
            total = tab.head_sum(k)
        else:
            # segments ending by u lie outside the band
            k = bisect_right(his, u)
            total = 0.0 + 0.0j
        while k < n:
            seg = segs[k]
            lo, hi = seg.lo, seg.hi
            if lo >= w:
                break
            # max(lo, u) and min(hi, w), as those builtins treat a NaN
            a, b = (u if u > lo else lo), (w if w < hi else hi)
            if a < b:
                total += whole(k) if a == lo and b == hi else \
                    seg.phase * seg_integral(seg.terms, a, b)
            k += 1
        out.append(total)
    return out


def band_trace(T, mode, r=None, s=None, a=None, b=None):
    """Trace of T against a spectral band of |T|.

    mode 'by_scale': band E(mu_s, mu_r], 0 < r < s
    mode 'by_modulus': band E(a, b], moduli 0 <= a < b
    mode 'head': band E[0, mu_r]
    mode 'tail': band E(mu_s, oo)
    """
    m = mu(T)
    if mode == "by_scale":
        if not (0 < r < s):
            raise DomainError("need 0 < r < s")
        return integrate_v(T, edge(m, r), edge(m, s))
    if mode == "by_modulus":
        if not (0 <= a < b):
            raise DomainError("need 0 <= a < b")
        return integrate_v(T, dist_fun(m, b), dist_fun(m, a))
    if mode == "head":
        return integrate_v(T, edge(m, r), T.domain_hi)
    if mode == "tail":
        return BoundedPart(T, 0.0).tail(s)
    raise ValueError("unknown mode %r" % mode)


def trace(T):
    total = integrate_v(T, 0.0, T.domain_hi)
    if not cmath.isfinite(total):
        raise OverflowError("the trace overflows a float")
    return total


# ---------------------------------------------------------------------------
# structural operations


def scale_op(T, alpha):
    if alpha == 0:
        return zero_op(T.factor_type)
    m = abs(alpha)
    ph = _phase(alpha)
    # an underflowing coefficient is the least float with its sign, as an
    # end term is (decfun._nonzero): no term or segment is dropped
    segs = tuple(Seg(s.lo, s.hi, tuple(
        replace(tm, coeff=df._nonzero(tm.coeff * m, tm.coeff))
        for tm in s.terms), s.phase * ph) for s in T.segs)
    return NormalOp(T.factor_type, segs)


def adjoint(T):
    segs = [replace(s, phase=s.phase.conjugate()) for s in T.segs]
    return NormalOp(T.factor_type, tuple(segs))


@dataclass(frozen=True)
class BoundedPart:
    """The bounded part T_b of split_fs_b: T read past cut.

    The singular numbers of T_b are mu(T)(t + cut), so each band query of
    T_b is one on T over (cut, oo); nothing is copied or discretized.  An
    operator is its own bounded part with cut 0.
    """
    T: NormalOp
    cut: float

    @property
    def segs(self):
        """T's segments past the cut, on T's axis; the one across it is
        clipped at the cut."""
        cut = self.cut
        return tuple(s if s.lo >= cut else replace(s, lo=cut)
                     for s in self.T.segs if s.hi > cut)

    def tail(self, s):
        """tau(T_b E(mu_s(T_b), oo)): v over (cut, D(mu_{cut + s}(T)))."""
        return self.tails((s,))[0]

    def tails(self, ss):
        """[self.tail(s) for s in ss], the edges and bands of ascending ss
        read in one pass."""
        T, cut = self.T, self.cut
        return integrate_bands(T, ((cut, max(cut, e)) for e in
                                   edges(mu(T), [cut + s for s in ss])))


def truncate(T, cut):
    """T on (0, cut): T's own segments, the last one clipped, so phases
    and terms keep their bits; T itself, with the profile and tables built
    on it, when it ends by cut."""
    if not T.segs or T.segs[-1].hi <= cut:
        return T
    segs = [s for s in T.segs if s.lo < cut]
    if segs and segs[-1].hi > cut:
        segs[-1] = replace(segs[-1], hi=cut)
    return NormalOp(T.factor_type, tuple(segs))


def split_fs_b(T):
    """T = T_fs + T_b, cut at D(mu_1(T)): the tau-finite-support head
    T_fs, T truncated exactly to (0, cut), and the bounded part T_b, T
    read past the cut (BoundedPart)."""
    if T.factor_type != II_INF:
        raise DomainError("split_fs_b needs the semifinite model")
    cut = edge(mu(T), 1.0)
    return truncate(T, cut), BoundedPart(T, cut)

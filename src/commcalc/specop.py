"""Function model of normal measurable operators.

An operator is multiplication by v(t) = phase * modulus(t) on its domain,
with the modulus globally nonincreasing so that the singular-number
function is the modulus itself.  Its segments are decfun.Seg: the terms
give the modulus and the phase field the unimodular factor on the segment.

NormalOp.segs is sorted by lo and its segments do not overlap; make_op,
scale_op and adjoint keep this, and building the profile rejects overlaps
before any band query runs.  Band queries rely on it: dist_fun bisects
the level table of the profile (decfun.Levels) and integrate_v the
segment-integral table of the operator (SegIntegrals).  Both tables are
filled lazily, only as far as the queries reach, so every answer is the
float a scan over all segments from the left gives, and a segment whose
integral diverges or raises fails exactly where that scan would.
"""

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import decfun as df
from .decfun import INF, DomainError, Seg, Term

II_INF = "II_inf"
II_1 = "II_1"


@dataclass(frozen=True)
class NormalOp:
    factor_type: str
    segs: tuple

    @property
    def domain_hi(self):
        return 1.0 if self.factor_type == II_1 else INF

    @functools.cached_property
    def profile(self):
        """Singular-number function as a PLFun, built on first use."""
        return df.make(self.segs, self.domain_hi)

    @functools.cached_property
    def integrals(self):
        """Segment-integral table behind integrate_v, filled on demand."""
        return SegIntegrals(self.segs)

    @functools.cached_property
    def integrable_at_0(self):
        """Whether |v| is integrable at 0, decided on first use."""
        return not df._diverges_at_0(df.dominant_at_0(self.profile), 1.0)

    @functools.cached_property
    def integrable_at_inf(self):
        """Whether |v| is integrable at infinity, decided on first use.  A
        finite support is: its last profile segment is zero, so it has no
        dominant term."""
        return not df._diverges_at_inf(df.dominant_at_inf(self.profile), 1.0)

    @functools.cached_property
    def band_tables(self):
        """The band-edge and band-value tables of brown.phi_of, so that
        every phi_of(T) of this operator shares them."""
        return {}, {}

    def value(self, t):
        for seg in self.segs:
            if seg.lo <= t < seg.hi:
                return seg.phase * seg.value(t)
        return 0.0

    def is_zero(self):
        return all(s.is_zero() for s in self.segs)


class SegIntegrals:
    """Integrals of v over whole segments, and their running sums.

    whole(k) is the integral over segment k, computed on first use.
    prefix[k] is the sum of whole(0..k-1) added left to right, as a scan
    adds them; empty segments add nothing.
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
            c = seg.phase * df._seg_integral(seg.terms, seg.lo, seg.hi,
                                             1.0, False)
            self._whole[k] = c
        return c

    def head_sum(self, k):
        """Sum over the first k segments, extending prefix as needed."""
        p = self.prefix
        while len(p) <= k:
            i = len(p) - 1
            seg = self.segs[i]
            p.append(p[i] + self.whole(i) if seg.lo < seg.hi else p[i])
        return p[k]


def make_op(segs, factor_type=II_INF, validate=True):
    domain_hi = 1.0 if factor_type == II_1 else INF
    cleaned = []
    for seg in sorted(segs, key=lambda s: s.lo):
        if seg.hi <= seg.lo:
            continue
        terms = df._merge_terms(seg.terms)
        if not terms:
            continue
        phase = seg.phase
        if validate and abs(abs(phase) - 1.0) > 1e-12:
            raise DomainError("phase %r is not unimodular" % (phase,))
        phase = phase / abs(phase)
        cleaned.append(Seg(seg.lo, seg.hi, terms, phase))
    op = NormalOp(factor_type, tuple(cleaned))
    if validate:
        mu(op)  # builds and keeps the profile; checks tiling and monotonicity
    return op


def zero_op(factor_type=II_INF):
    return NormalOp(factor_type, ())


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
        segs.append(Seg(lo, lo + ln, (Term(abs(z)),), z / abs(z)))
        lo += ln
    return make_op(segs, factor_type)


def mu(T):
    """Singular-number function as a PLFun."""
    return T.profile


def distribution(T, x, closed=False):
    """Measure of {mu > x} (open) or {mu >= x} (closed)."""
    return dist_fun(mu(T), x, closed)


def dist_fun(f, x, closed=False):
    """For nonincreasing f: measure of {f > x} resp. {f >= x}."""
    if x < 0:
        raise DomainError("negative level")
    # segments before k lie above x; scan on from the first that does not
    k, D = f.levels.first_below(x, closed)
    for i in range(k, len(f.segs)):
        seg = f.segs[i]
        hi = min(seg.hi, f.domain_hi)
        if seg.is_zero():
            if closed and x == 0.0:
                D = hi
                continue
            break
        vR = df.right_limit(seg, hi)
        inside = (vR >= x) if closed else (vR > x)
        if inside:
            D = hi
            continue
        vL = seg.value(seg.lo) if seg.lo > 0 else df.value_at_0(
            df.PLFun(f.domain_hi, (Seg(0.0, hi, seg.terms),)))
        outside_all = (vL < x) if closed else (vL <= x)
        if outside_all:
            break
        D = _level_cross(seg, hi, x)
        break
    return D


def _level_cross(seg, hi, x):
    """First t in [lo, hi) with seg value <= x (segment is nonincreasing)."""
    from scipy import optimize

    if seg.is_const():
        # value == x handled by callers through the strict/loose tests
        return seg.lo

    def d(t):
        return seg.value(t) - x

    a = seg.lo if seg.lo > 0 else min(hi, 1.0) * 2.0 ** -120
    while d(a) < 0.0 and a > 4.9e-324:
        a *= 0.5  # numeric fuzz right at the left edge
    b = hi
    if b == INF:
        b = max(a, 1.0) * 2.0
        while d(b) > 0.0 and b < 2.0 ** 400:
            b *= 2.0
    else:
        b *= 1 - 1e-14
    if d(a) <= 0.0:
        return a
    if d(b) > 0.0:
        return b
    return optimize.brentq(d, a, b, xtol=1e-300, rtol=1e-13, maxiter=1000)


def _check_band_integrable(T, u, w):
    """Refuse a band that reaches an end where |v| is not integrable.

    Every call builds the profile or fails as building it does.  Each end
    is decided once per operator (NormalOp.integrable_at_0/_inf); a
    decision that raises is not kept, so it raises again on the next call.
    """
    T.profile  # an operator whose profile fails has no band
    if u == 0.0 and not T.integrable_at_0:
        raise DomainError("non-integrable band")
    if w == INF and T.domain_hi == INF and not T.integrable_at_inf:
        raise DomainError("non-integrable band")


def integrate_v(T, u, w):
    """Integral of the complex profile over the scale interval (u, w)."""
    w = min(w, T.domain_hi)
    _check_band_integrable(T, u, w)
    segs, tab = T.segs, T.integrals
    if not segs or u <= segs[0].lo:
        # segments ending by w are whole: their running sum, then the rest
        k = bisect.bisect_right(tab.his, w)
        total = tab.head_sum(k)
    else:
        # segments ending by u lie outside the band
        k = bisect.bisect_right(tab.his, u)
        total = 0.0 + 0.0j
    for i in range(k, len(segs)):
        seg = segs[i]
        if seg.lo >= w:
            break
        lo, hi = max(seg.lo, u), min(seg.hi, w)
        if hi <= lo:
            continue
        if lo == seg.lo and hi == seg.hi:
            total += tab.whole(i)
        else:
            total += seg.phase * df._seg_integral(seg.terms, lo, hi, 1.0,
                                                  False)
    return total


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
        u = dist_fun(m, m(min(r, T.domain_hi * (1 - 1e-15))))
        wv = m(s) if s < T.domain_hi else 0.0
        w = dist_fun(m, wv)
        return integrate_v(T, u, w)
    if mode == "by_modulus":
        if not (0 <= a < b):
            raise DomainError("need 0 <= a < b")
        return integrate_v(T, dist_fun(m, b), dist_fun(m, a))
    if mode == "head":
        u = dist_fun(m, m(min(r, T.domain_hi * (1 - 1e-15))))
        return integrate_v(T, u, T.domain_hi)
    if mode == "tail":
        wv = m(s) if s < T.domain_hi else 0.0
        return integrate_v(T, 0.0, dist_fun(m, wv))
    raise ValueError("unknown mode %r" % mode)


def trace(T):
    return integrate_v(T, 0.0, T.domain_hi)


# ---------------------------------------------------------------------------
# structural operations


def _discretize_seg(seg, ppo=16):
    """Replace a non-constant segment by left-endpoint steps (a majorant)."""
    if seg.is_const():
        return [seg]
    lo = seg.lo
    hi = seg.hi
    if lo == 0.0:
        lo = min(hi, 1.0) * 2.0 ** -60
    if hi == INF:
        hi = max(lo, 1.0) * 2.0 ** 60
    n = max(2, int(math.ceil(math.log2(hi / lo) * ppo)) + 1)
    cuts = list(np.geomspace(lo, hi, n))
    cuts[0], cuts[-1] = seg.lo, seg.hi
    out = []
    for a_, b_ in zip(cuts, cuts[1:]):
        t_ref = a_ if a_ > 0 else b_ / 2.0
        v = seg.value(t_ref)
        out.append(Seg(a_, b_, (Term(v),), seg.phase))
    return out


def is_step(T):
    return all(s.is_const() for s in T.segs)


def oplus(S, T, ppo=16):
    """Direct sum: decreasing rearrangement of the disjoint union."""
    if S.factor_type != T.factor_type:
        raise DomainError("mixed factor types")
    out_type = II_INF  # the ambient semifinite model hosts both summands
    ops = []
    for op in (S, T):
        if is_step(op):
            ops.append(op.segs)
        else:
            segs = []
            for seg in op.segs:
                segs.extend(_discretize_seg(seg, ppo))
            ops.append(tuple(segs))
    atoms = []
    for segs in ops:
        for s in segs:
            atoms.append((s.phase * sum(tm.coeff for tm in s.terms),
                          s.hi - s.lo))
    if not atoms:
        return zero_op(out_type)
    return from_atoms(atoms, out_type)


def scale_op(T, alpha):
    if alpha == 0:
        return zero_op(T.factor_type)
    m = abs(alpha)
    ph = alpha / m
    segs = [
        replace(s, phase=s.phase * ph,
                terms=tuple(replace(tm, coeff=tm.coeff * m) for tm in s.terms))
        for s in T.segs
    ]
    return NormalOp(T.factor_type, tuple(segs))


def adjoint(T):
    segs = [replace(s, phase=s.phase.conjugate()) for s in T.segs]
    return NormalOp(T.factor_type, tuple(segs))


def _shift_left(segs, c, ppo=16):
    """Profile segments shifted by -c in scale; steps shift exactly."""
    out = []
    for seg in segs:
        lo, hi = seg.lo - c, (seg.hi - c if seg.hi < INF else INF)
        if hi <= 0:
            continue
        lo = max(lo, 0.0)
        if seg.is_const() or c == 0.0:
            out.append(replace(seg, lo=lo, hi=hi))
        elif seg.lo >= c * 2.0 ** 20:
            # far from the cut the shift is below every tolerance
            out.append(replace(seg, lo=lo, hi=hi))
        else:
            # discretize on the shifted axis with left-endpoint values of
            # the true shifted profile t -> modulus(t + c), up to the far
            # point, and keep the segment's own terms beyond it
            far = min(hi, c * 2.0 ** 20)
            lo_ = lo if lo > 0 else min(far, c) * 2.0 ** -60
            n = max(2, int(math.ceil(math.log2(max(far / lo_, 2.0)) * ppo)) + 1)
            cuts = [lo] + np.geomspace(lo_, far, n).tolist()[1:]
            cuts[-1] = far
            for a_, b_ in zip(cuts, cuts[1:]):
                if b_ <= a_:
                    continue
                v = seg.value(a_ + c)
                out.append(Seg(a_, b_, (Term(v),), seg.phase))
            if far < hi:
                out.append(replace(seg, lo=far, hi=hi))
    return out


def split_fs_b(T, t0=1.0, ppo=16):
    """T = T_fs + T_b: the tau-finite-support head and the bounded rest."""
    if T.factor_type != II_INF:
        raise DomainError("split_fs_b needs the semifinite model")
    if T.is_zero():
        return zero_op(), zero_op()
    m = mu(T)
    x0 = m(t0)
    cut = dist_fun(m, x0, closed=False)
    fs_segs = []
    b_segs = []
    for seg in T.segs:
        if seg.hi <= cut:
            fs_segs.append(seg)
        elif seg.lo >= cut:
            b_segs.append(seg)
        else:
            fs_segs.append(replace(seg, hi=cut))
            b_segs.append(replace(seg, lo=cut))
    T_fs = make_op(fs_segs, II_INF, validate=False)
    T_b = make_op(_shift_left(b_segs, cut, ppo), II_INF, validate=False)
    # a part equal to T is T, which keeps the profile and tables built on it
    return (T if T_fs == T else T_fs), (T if T_b == T else T_b)


def re_im(T, ppo=16):
    """Profiles of the real and imaginary parts (phases +-1)."""
    parts = []
    for pick in (lambda z: z.real, lambda z: z.imag):
        atoms = []
        for seg in T.segs:
            coef = pick(seg.phase)
            if coef == 0.0:
                continue
            pieces = [seg] if seg.is_const() else _discretize_seg(seg, ppo)
            for p in pieces:
                v = abs(coef) * sum(tm.coeff for tm in p.terms)
                if v:
                    atoms.append((math.copysign(1.0, coef) * v, p.hi - p.lo))
        parts.append(from_atoms(atoms, T.factor_type) if atoms
                     else zero_op(T.factor_type))
    return parts[0], parts[1]

"""Symbolic submodule descriptors and characteristic-set decisions.

A descriptor is a tree over the base spaces (Lp, Llog, finite rank,
compact, bounded, principal) with sum, product, finite-support part,
bounded part, and vanishing-tail nodes.  Membership verdicts quantify over
the piecewise power-log class: "yes" answers are sound outright, "no"
answers are sound within the class (noted in the reason).
"""

import math
from dataclasses import dataclass

from . import decfun as df
from .decfun import INF, DomainError, PLFun, Seg, Term
from .specop import II_1, II_INF

CLASS_NOTE = "verdict quantifies over the power-log class"


@dataclass(frozen=True)
class ModuleExpr:
    kind: str
    p: float = 0.0
    gen: PLFun = None
    children: tuple = ()
    factor_type: str = II_INF

    @property
    def domain_hi(self):
        return 1.0 if self.factor_type == II_1 else INF


@dataclass(frozen=True)
class MembershipVerdict:
    answer: str  # yes | no | inconclusive
    witness: PLFun = None
    reason: str = ""

    def __bool__(self):
        return self.answer == "yes"


def yes(witness, reason):
    return MembershipVerdict("yes", witness, reason)


def no(reason):
    return MembershipVerdict("no", None, reason + "; " + CLASS_NOTE)


def maybe(reason):
    return MembershipVerdict("inconclusive", None, reason + "; " + CLASS_NOTE)


def Lp(p, factor_type=II_INF):
    if p == INF:
        return M(factor_type)
    if p <= 0:
        raise DomainError("p must be positive")
    return ModuleExpr("Lp", p=p, factor_type=factor_type)


def Llog(factor_type=II_INF):
    return ModuleExpr("Llog", factor_type=factor_type)


def F(factor_type=II_INF):
    return ModuleExpr("F", factor_type=factor_type)


def K(factor_type=II_INF):
    return ModuleExpr("K", factor_type=factor_type)


def M(factor_type=II_INF):
    return ModuleExpr("M", factor_type=factor_type)


def Principal(gen):
    ft = II_1 if gen.domain_hi == 1.0 else II_INF
    return ModuleExpr("Principal", gen=gen, factor_type=ft)


def Sum(a, b):
    if a.factor_type != b.factor_type:
        raise DomainError("mixed factor types in Sum")
    return ModuleExpr("Sum", children=(a, b), factor_type=a.factor_type)


def Product(a, b):
    if a.factor_type != b.factor_type:
        raise DomainError("mixed factor types in Product")
    return ModuleExpr("Product", children=(a, b), factor_type=a.factor_type)


def FsPart(a):
    return ModuleExpr("FsPart", children=(a,), factor_type=a.factor_type)


def BPart(a):
    return ModuleExpr("BPart", children=(a,), factor_type=a.factor_type)


def Vanish(a):
    return ModuleExpr("Vanish", children=(a,), factor_type=a.factor_type)


# ---------------------------------------------------------------------------
# function-side predicates


def is_bounded(f):
    return df.value_at_0(f) < INF


def has_finite_support(f):
    return df.support_hi(f) < INF


def vanishes_at_inf(f):
    if f.domain_hi < INF:
        return True
    return df.limit_at_inf(f) == 0.0


def fs_cut(f):
    """f restricted to (0,1), zero after (the finite-support shadow)."""
    return df.clip(f, 0.0, 1.0)


def b_cut(f):
    """min(f, f(1)): constant head, f beyond 1 (the bounded shadow)."""
    if f.domain_hi <= 1.0:
        raise DomainError("b_cut needs the (0, oo) domain")
    v1 = f(1.0)
    segs = [Seg(0.0, 1.0, (Term(v1),) if v1 else ())]
    for s in f.segs:
        lo, hi = max(s.lo, 1.0), s.hi
        if hi > lo:
            segs.append(Seg(lo, hi, s.terms))
    return df.make(segs, f.domain_hi, validate=False)


def termwise_pow(f, lam):
    """Term-wise power: dominates f^lam and (termwise a)(termwise 1-a) >= f."""
    segs = []
    for s in f.segs:
        terms = tuple(
            Term(tm.coeff ** lam, tm.pow * lam, tm.logpow * lam, tm.scale)
            for tm in s.terms
        )
        segs.append(Seg(s.lo, s.hi, terms))
    return df.make(segs, f.domain_hi, validate=False)


# ---------------------------------------------------------------------------
# membership


def contains(I, f):
    if f.domain_hi != I.domain_hi:
        raise DomainError("domain mismatch between module and function")
    if f.is_zero():
        return yes(f, "zero function")
    k = I.kind
    if k in ("Lp", "Llog"):
        # an inf sum is divergence only where the end exponents say so
        name = "L_%g integral" % I.p if k == "Lp" else "log-integral"
        p, log1p = (I.p, False) if k == "Lp" else (1.0, True)
        v = df.integral(f, 0.0, I.domain_hi, p, log1p)
        if v < INF:
            return yes(f, "%s %.6g" % (name, v))
        if df.diverges(f, 0.0, I.domain_hi, p, log1p):
            return no(name + " diverges")
        return yes(f, name + " overflows a float")
    if k == "M":
        if is_bounded(f):
            return yes(f, "bounded by %.6g" % df.value_at_0(f))
        return no("unbounded at 0")
    if k == "F":
        if not is_bounded(f):
            return no("unbounded at 0")
        if not has_finite_support(f):
            return no("infinite support")
        return yes(f, "bounded with finite support")
    if k == "K":
        if not is_bounded(f):
            return no("unbounded at 0")
        if not vanishes_at_inf(f):
            return no("does not vanish at infinity")
        return yes(f, "bounded, vanishing at infinity")
    if k == "Principal":
        return _contains_principal(I, f)
    if k == "FsPart":
        if not has_finite_support(f):
            return no("infinite support")
        return contains(I.children[0], f)
    if k == "BPart":
        if not is_bounded(f):
            return no("unbounded at 0")
        return contains(I.children[0], f)
    if k == "Vanish":
        if not vanishes_at_inf(f):
            return no("does not vanish at infinity")
        return contains(I.children[0], f)
    if k == "Sum":
        return _contains_sum(I, f)
    if k == "Product":
        return _contains_product(I, f)
    raise ValueError("unknown module kind %r" % k)


def _exponents_fit(f, g):
    """Necessary test: can some dilate of g dominate f at both ends?"""
    dz_f, dz_g = df.dominant_at_0(f), df.dominant_at_0(g)
    if dz_f is not None:
        if dz_g is None:
            return False
        if (dz_f[0], -dz_f[1]) > (dz_g[0], -dz_g[1]):
            return False
    if f.domain_hi == INF:
        if df.support_hi(f) == INF and df.support_hi(g) < INF:
            return False
        di_f, di_g = df.dominant_at_inf(f), df.dominant_at_inf(g)
        if di_f is not None and di_f[2] > 0:
            if di_g is None or di_g[2] == 0:
                return False
            if (-di_f[0], -di_f[1]) > (-di_g[0], -di_g[1]):
                return False
    return True


def _end_limit(g, end):
    """Left limit of g at its support end: a log factor vanishing there
    (|log(t/s)|^-d, d < 0, at t = s) counts as an exact 0."""
    seg = [s for s in g.segs if not s.is_zero()][-1]
    return sum(0.0 if tm.logpow < 0.0 and tm.scale == end else tm.value(end)
               for tm in seg.terms)


def _covering_dilation(f, g):
    """The least k >= 0 for which g(./2^k) has a positive left limit at the
    support end of f; 0 when f never vanishes or g never does."""
    s, end = df.support_hi(f), df.support_hi(g)
    if INF in (s, end):
        return 0
    # s <= end * 2^k, compared exactly on mantissas and exponents
    (ms, es), (mg, eg) = math.frexp(s), math.frexp(end)
    k = es - eg + (ms > mg)
    if k < 0:
        return 0
    if ms == mg and not _end_limit(g, end) > 0.0:
        k += 1  # s == end * 2^k, where g(./2^k) tends to 0
    return k


def _contains_principal(I, f):
    """f in <g> means f <= C g(./2^k) for some C and k.  Dilation keeps the
    end exponents, so _exponents_fit decides membership; the one k whose
    dilate stays positive on the support of f is computed, and the probe
    in dominated_by only sizes C."""
    g = I.gen
    if not _exponents_fit(f, g):
        return no("asymptotic exponents exceed the generator's")
    k = _covering_dilation(f, g)
    gk = df.dilate2(g, k)
    C = df.dominated_by(f, gk)
    return yes(df.scale_fun(gk, C),
               "dominated by %g * dilate2(gen, %d)" % (C, k))


def _contains_sum(I, f):
    A, B = I.children
    va, vb = contains(A, f), contains(B, f)
    if va.answer == "yes":
        return va
    if vb.answer == "yes":
        return vb
    if I.domain_hi < INF:
        if va.answer == "no" and vb.answer == "no":
            return no("fails both summands")
        return maybe("sum decomposition undecided on (0,1)")
    ffs, fb = fs_cut(f), b_cut(f)
    for X, Y in ((A, B), (B, A)):
        v1, v2 = contains(X, ffs), contains(Y, fb)
        if v1.answer == "yes" and v2.answer == "yes":
            w = df.combine(v1.witness, v2.witness, "sum")
            return yes(w, "head in one summand, tail in the other")
    heads = [contains(X, ffs).answer for X in (A, B)]
    tails = [contains(X, fb).answer for X in (A, B)]
    if all(a == "no" for a in heads):
        return no("head part fails both summands")
    if all(a == "no" for a in tails):
        return no("tail part fails both summands")
    return maybe("sum decomposition undecided")


def _contains_product(I, f):
    A, B = I.children
    norm = product_module(A, B)
    if norm.kind != "Product":
        return contains(norm, f)
    for lam in (0.5, 0.25, 0.75):
        u1 = termwise_pow(f, lam)
        u2 = termwise_pow(f, 1.0 - lam)
        for X, Y in ((A, B), (B, A)):
            v1, v2 = contains(X, u1), contains(Y, u2)
            if v1.answer == "yes" and v2.answer == "yes":
                return yes(df.combine(u1, u2, "product"),
                           "split as a product of fractional powers")
    return maybe("no product factorization found")


# ---------------------------------------------------------------------------
# products


def product_module(I, J):
    if I.factor_type != J.factor_type:
        raise DomainError("mixed factor types")
    ki, kj = I.kind, J.kind
    if ki == "M":
        return J
    if kj == "M":
        return I
    if ki in ("F", "K") and kj in ("F", "K"):
        return F(I.factor_type) if "F" in (ki, kj) else K(I.factor_type)
    if ki == "Lp" and kj == "Lp":
        return Lp(1.0 / (1.0 / I.p + 1.0 / J.p), I.factor_type)
    if ki == "F":
        return FsPart(J) if I.factor_type == II_INF else J
    if kj == "F":
        return FsPart(I) if I.factor_type == II_INF else I
    if ki == "Principal" and kj == "Principal":
        return Principal(df.combine(I.gen, J.gen, "product"))
    if ki == "Sum":
        return Sum(product_module(I.children[0], J),
                   product_module(I.children[1], J))
    if kj == "Sum":
        return Sum(product_module(I, J.children[0]),
                   product_module(I, J.children[1]))
    if ki == "FsPart":
        return FsPart(product_module(I.children[0], J))
    if kj == "FsPart":
        return FsPart(product_module(I, J.children[0]))
    if ki == "BPart" and kj == "BPart":
        return BPart(product_module(I.children[0], J.children[0]))
    return Product(I, J)


# ---------------------------------------------------------------------------
# omega tests and structure predicates


# the omega functions do not depend on the query: built once, shared
_OMEGA_FS = {II_INF: df.power_fun(1.0, 1.0, hi=1.0),
             II_1: df.power_fun(1.0, 1.0, domain_hi=1.0)}
_OMEGA_B = df.make([Seg(0.0, 1.0, (Term(1.0),)),
                    Seg(1.0, INF, (Term(1.0, 1.0),))])


def omega_fs(factor_type=II_INF):
    """1/t on (0,1), zero after."""
    return _OMEGA_FS[factor_type]


def omega_b_proxy():
    """min(1, 1/t): within a factor 2 of 1/(1+t), membership-equivalent."""
    return _OMEGA_B


def omega_tests(I):
    if I.factor_type != II_INF:
        raise DomainError("omega tests live in the semifinite model")
    return contains(I, omega_fs()), contains(I, omega_b_proxy())


def omega_bools(I):
    vfs, vb = omega_tests(I)
    return vfs.answer == "yes", vb.answer == "yes"


STABLE_KINDS = {"Lp", "Llog", "F", "K", "M"}


def geometrically_stable(I):
    """'yes' or 'no': closure under the log-average
    g(t) = exp(t^-1 int_0^t log h), the condition of Dykema, Figiel, Weiss
    and Wodzicki (Commutator structure of operator ideals, Adv. Math. 185,
    2004).

    Principal(h) is stable exactly when g lies in <h>.  For an end term
    c t^-p L^-q of h (L = |log t|), Karamata's theorem gives
    g ~ e^p c t^-p L^-q at 0 and at oo alike; past a finite support g
    vanishes, and on compact sets g is bounded while h(./2) is bounded
    below.  So g lies in <h> for every h of the class, and the verdict is
    the ambient hypothesis h in M + L_log, read from the end exponents:
    "no" when log(1 + h) is not integrable at oo, "yes" otherwise.
    """
    k = I.kind
    if k in STABLE_KINDS:
        return "yes"
    if k in ("Sum", "Product", "FsPart", "BPart", "Vanish"):
        stable = all(geometrically_stable(c) == "yes" for c in I.children)
        return "yes" if stable else "no"
    if k == "Principal":
        h = I.gen
        if h.domain_hi == INF and df.diverges(h, 1.0, INF, log1p=True):
            return "no"
        return "yes"
    raise ValueError("unknown module kind %r" % k)


def to_II1(I):
    """Restriction of the characteristic set to (0,1)."""
    if I.factor_type != II_INF:
        raise DomainError("already a finite-factor descriptor")
    k = I.kind
    if k == "Lp":
        return Lp(I.p, II_1)
    if k == "Llog":
        return Llog(II_1)
    if k in ("F", "K", "M"):
        return M(II_1)
    if k == "Principal":
        segs = [Seg(s.lo, min(s.hi, 1.0), s.terms)
                for s in I.gen.segs if s.lo < 1.0]
        return Principal(df.make(segs, 1.0, validate=False))
    if k == "Sum":
        return Sum(to_II1(I.children[0]), to_II1(I.children[1]))
    if k == "Product":
        return Product(to_II1(I.children[0]), to_II1(I.children[1]))
    if k in ("FsPart", "Vanish"):
        return to_II1(I.children[0])
    if k == "BPart":
        return BPart(to_II1(I.children[0]))
    raise ValueError("unknown module kind %r" % k)

"""Symbolic submodule descriptors and characteristic-set decisions.

A descriptor is a tree over the base spaces (Lp, Llog, finite rank,
compact, bounded, principal) with sum, product, finite-support part,
bounded part, and vanishing-tail nodes.  Every nonzero module contains F,
which leaves the middle scales free, so within the power-log class
membership depends only on the end terms at 0 and at oo: contains compares
their keys (decfun.end_keys) with the descriptor's two thresholds
(ModuleExpr.ends) by decfun.admits.  An L_p leaf's thresholds are those at
which |f|^p is integrable (decfun.integrable).  "yes" answers are sound
outright, "no" answers are sound within the class.
"""

import functools
import math
from dataclasses import dataclass

from . import decfun as df
from .decfun import INF, DomainError, PLFun, Seg, Term
from .specop import II_1, II_INF

CLASS_NOTE = "verdict quantifies over the power-log class"

# thresholds (a, b, attained, s) on the end keys of decfun.end_keys
_EVERYTHING = (INF, INF, 1, 1.0)

# (end, threshold, why a function fails it): the bounds on a kind's ends
_AT_0 = 0, (0.0, 0.0, 1, 1.0), "unbounded at 0"
_FS = 1, df.BOTTOM + (1, 1.0), "infinite support"
_VANISH = 1, (0.0, 0.0, 0, 1.0), "does not vanish at infinity"
_BOUNDS = {"M": (_AT_0, (1, _AT_0[1], "unbounded at infinity")),
           "F": (_AT_0, _FS), "K": (_AT_0, _VANISH),
           "FsPart": (_FS,), "BPart": (_AT_0,), "Vanish": (_VANISH,)}


def _level(t):
    """A threshold on the unscaled key line, for comparing thresholds."""
    a, b, attained, s = t
    return a / s, b / s, attained


def _times(t, u):
    """Threshold of a product at one end: the keys add.  decfun.BOTTOM
    absorbs the other operand, and so does the key above every key."""
    lo, hi = sorted(map(_level, (t, u)))
    if lo[0] == -INF:
        return lo + (1.0,)
    if hi[0] == INF:
        return hi + (1.0,)
    return lo[0] + hi[0], lo[1] + hi[1], lo[2] & hi[2], 1.0


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

    @functools.cached_property
    def ends(self):
        """The thresholds (at 0, at oo) of the characteristic set."""
        k = self.kind
        if k == "Lp":
            return df.integrable(self.p)
        if k == "Llog":
            return _EVERYTHING, df.integrable(1.0)[1]
        if k == "Principal":  # g's own end keys; none for g = 0
            att = 0 if self.gen.is_zero() else 1
            return tuple(key + (att, 1.0) for key in df.end_keys(self.gen))
        if k in _BOUNDS:
            ends = list(self.children[0].ends if self.children
                        else (_EVERYTHING, _EVERYTHING))
            for end, bound, _ in _BOUNDS[k]:
                ends[end] = min(ends[end], bound, key=_level)
            return tuple(ends)
        a, b = (c.ends for c in self.children)
        if k == "Sum":
            return tuple(max(t, u, key=_level) for t, u in zip(a, b))
        if k == "Product":
            norm = product_module(*self.children)
            return norm.ends if norm.kind != "Product" \
                else tuple(map(_times, a, b))
        raise ValueError("unknown module kind %r" % k)


@dataclass(frozen=True)
class MembershipVerdict:
    answer: str  # yes | no
    witness: PLFun = None
    reason: str = ""

    def __bool__(self):
        return self.answer == "yes"


def yes(witness, reason):
    return MembershipVerdict("yes", witness, reason)


def no(reason):
    return MembershipVerdict("no", None, reason + "; " + CLASS_NOTE)


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
# membership


def is_bounded(f):
    return df.value_at_0(f) < INF


def contains(I, f):
    """Whether f lies in I: f's end keys against I's thresholds.  For a
    principal <g>, f <= C g(./2^k) for some C and k: the one k whose
    dilate stays positive on the support of f is computed, and the probe
    in dominated_by only sizes C."""
    if f.domain_hi != I.domain_hi:
        raise DomainError("domain mismatch between module and function")
    if f.is_zero():
        return yes(f, "zero function")
    keys = df.end_keys(f)
    if not all(map(df.admits, I.ends, keys)):
        return no(_refusal(I, keys))
    if I.kind != "Principal":
        return yes(f, "end terms within the module's thresholds")
    k = _covering_dilation(f, I.gen)
    gk = df.dilate2(I.gen, k)
    C = df.dominated_by(f, gk)
    return yes(df.scale_fun(gk, C),
               "dominated by %g * dilate2(gen, %d)" % (C, k))


def loglog_eps(I, end, eps):
    """The ε of a bracket t^-1 L^ε / (e ε), key (±1, ε), that I admits at
    end 0 or 1 (oo) exactly when it holds t^-1 log L (L = |log t|), whose
    key lies just above (±1, 0): a threshold (a, b, attained, s) admits it
    when it admits (±1, 0) unattained.  eps, or half the room b / s if eps
    is too big."""
    a, b, _, s = I.ends[end]
    at_zero = end == 0
    if df.admits((a, b, 0, s), df.end_key(1.0, 0.0, at_zero)) \
            and not df.admits(I.ends[end], df.end_key(1.0, -eps, at_zero)):
        return b / s / 2.0
    return eps


def _refusal(I, keys):
    """Why I refuses a function with these end keys."""
    k = I.kind
    for end, bound, why in _BOUNDS.get(k, ()):
        if not df.admits(bound, keys[end]):
            return why
    if k in _BOUNDS:
        return _refusal(I.children[0], keys)
    if k == "Product":
        norm = product_module(*I.children)
        if norm.kind != "Product":
            return _refusal(norm, keys)
    if k in ("Sum", "Product"):
        end = "tail" if df.admits(I.ends[0], keys[0]) else "head"
        return end + (" part fails both summands" if k == "Sum"
                      else " part fails the product")
    if k == "Lp":
        return "L_%g integral diverges" % I.p
    return "log-integral diverges" if k == "Llog" \
        else "asymptotic exponents exceed the generator's"


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
    "no" when log(1 + h) is not integrable at oo, "yes" otherwise.  That
    is h's end key at oo against L_1's threshold there: log(1 + h) ~ h
    where h tends to 0, and is not integrable where h has a positive
    limit.  On the (0, 1) domain the key at oo is decfun.BOTTOM, which
    every threshold admits.
    """
    k = I.kind
    if k in STABLE_KINDS:
        return "yes"
    if k in ("Sum", "Product", "FsPart", "BPart", "Vanish"):
        stable = all(geometrically_stable(c) == "yes" for c in I.children)
        return "yes" if stable else "no"
    if k == "Principal":
        at_inf = df.end_keys(I.gen)[1]
        return "yes" if df.admits(df.integrable(1.0)[1], at_inf) else "no"
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

"""Membership decisions for commutator spaces and witness machinery.

The semifinite criterion asks for a decreasing h with
|tau(T E(mu_s, mu_r])| <= r h(r) + s h(s); after splitting T into its
finite-support and bounded parts the two single-variable criteria
|a - tau(T_fs E[0, mu_r])| <= r h(r) and |a + tau(T_b E(mu_s, oo))| <= s h(s)
decide membership.  T_b is T read past the cut (specop.BoundedPart): its
tail traces, trace, |v| integral and end term are read from T exactly.

The constant of each side is free (0) when the module holds that side's
omega test function, and otherwise forced to the limit of that side's
trace: the head trace as r -> 0, minus the tail trace as s -> oo.  These
limits are exact in the power-log model, since an end segment carries a
single phase: the trace converges to tau of that part exactly when |v| is
integrable at that end, and a divergent limit rules membership out.  So
one constant is tried per side, shared by both sides for [I, J] and kept
apart for F + [I, M].

Each side is then decided from the exact class of its side function at
the end (side_classes): Karamata's mean of the profile's end term, plus
|a - lim| / t where a misses a convergent limit.  The module judges the
witness h, that class past the samples and their step majorant at mid
scale, so no verdict depends on a fit.  At the one end outside the
class, c t^-1 |log t|^-1, the module judges the mean through a bracket.

A member of [I, J] in II_inf carries the alpha/beta block data of the
first witness scaling 2^j, j < SCALINGS, that passes (_attach_block_data).
"""

import functools
import math
import operator
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import decfun as df
from . import modules as md
from . import specop as so
from .decfun import INF, DomainError, PLFun, Term
from .specop import II_1, II_INF

GRID_K = 60
GRID_PPO = 2
TRACE_TOL = 1e-9
# c t^-1 log L (L = |log t|) lies below c t^-1 L^ε / (e ε) for every ε > 0
LOGLOG_EPS = 0.125
# the constant 1: a module holds it exactly when it holds the bounded carpet
ONE = df.const(1.0)
# _attach_block_data tries the witness scaled by 2^j, j < SCALINGS
SCALINGS = 13


@dataclass(frozen=True)
class WitnessCertificate:
    a: complex = 0.0
    h_fs: PLFun = None
    h_b: PLFun = None
    alpha: dict = None
    beta: dict = None
    beta0_interval: tuple = None
    phi: PLFun = None
    block_bounds: tuple = ()
    total_count: int = 14

    @property
    def h(self):
        """The witness h_fs + h_b, or whichever of the two is set."""
        if self.h_fs is None or self.h_b is None:
            return self.h_b if self.h_fs is None else self.h_fs
        return df.combine(self.h_fs, self.h_b, "sum")


@dataclass(frozen=True)
class Decision:
    answer: str  # member | not_member | inconclusive
    certificate: WitnessCertificate = None
    obstruction: dict = None
    notes: str = ""


def member(cert, notes=""):
    return Decision("member", certificate=cert, notes=notes)


def not_member(obstruction, notes=""):
    return Decision("not_member", obstruction=obstruction, notes=notes)


def inconclusive(notes):
    return Decision("inconclusive", notes=notes)


# ---------------------------------------------------------------------------
# sampled trace data


# the decision grid, built once
HEAD_GRID = tuple(df.dyadic_grid(-GRID_K, 0, GRID_PPO))
TAIL_GRID = tuple(df.dyadic_grid(0, GRID_K, GRID_PPO))


def head_values(T):
    """(r, tau(T E[0, mu_r])) over the decision grid in [2^-GRID_K, 1],
    at the points inside T's domain (a II_1 operator stops before 1): the
    bands from the edges of the grid to the domain end, in one pass."""
    rs = [r for r in HEAD_GRID if r < T.domain_hi]
    hi = T.domain_hi
    vals = so.integrate_bands(T, ((e, hi) for e in so.edges(so.mu(T), rs)))
    return list(zip(rs, vals))


def tail_values(T_b):
    """(s, tau(T_b E(mu_s, oo))) over the decision grid in [1, 2^GRID_K]."""
    return list(zip(TAIL_GRID, T_b.tails(TAIL_GRID)))


@dataclass(frozen=True)
class Side:
    """A side of the split criterion, its facts computed once (side_facts)."""
    name: str  # "head" (part T_fs) or "tail" (part a specop.BoundedPart)
    part: object
    status: str  # converged | diverges | overflows, with the limit
    limit: complex
    noise: float  # TRACE_TOL * int |v|: a trace below it is noise
    end: tuple  # dominant term of the profile there; None past the support
    reach: float  # inner end of the end segment, on the part's axis


def side_facts(X, name):
    """The Side of T_fs = X (name "head") or of T_b = X (name "tail"); an
    operator X is its own bounded part, cut at 0.

    The end segment carries a single phase, so the band trace converges
    exactly when |v| is integrable at that end, and then to tau of the
    part; a finite support has no dominant term at oo.  A limit within
    noise is snapped to 0.0; a nonzero trace that passes the float range,
    or whose noise does, "overflows": it is never a limit of 0.
    """
    if name == "head":
        T, lo = X, 0.0
        m = so.mu(T)
        end, reach = df.dominant_at_0(m), m.segs[0].hi
    elif name == "tail":
        if not isinstance(X, so.BoundedPart):
            X = so.BoundedPart(X, 0.0)
        T, lo = X.T, X.cut
        m = so.mu(T)
        end, reach = df.dominant_at_inf(m), max(0.0, m.segs[-1].lo - lo)
    else:
        raise ValueError("side must be head or tail")
    if not T.integrable[name == "tail"]:
        return Side(name, X, "diverges", None, None, end, reach)
    v = so.integrate_v(T, lo, T.domain_hi)
    # tau's float cancellation is bounded relative to int |v|, at any scale
    noise = TRACE_TOL * df.integral(m, lo, m.domain_hi)
    if v == 0.0 or abs(v) <= noise < INF:
        status, v = "converged", 0.0
    elif abs(v) < INF and noise < INF:
        status = "converged"
    else:
        status, v = "overflows", None
    return Side(name, X, status, v, noise, end, reach)


def trace_limit(T, side):
    """Exact limit of the head trace (r -> 0) or the tail trace (s -> oo),
    as side_facts decides it: ("converged", value) or (status, None)."""
    facts = side_facts(T, side)
    return facts.status, facts.limit


# ---------------------------------------------------------------------------
# per-side decisions


@dataclass(frozen=True)
class SideResult:
    answer: str  # yes | no
    h: PLFun = None
    worst: tuple = None  # (r, required) sample behind a "no"
    reason: str = ""


def _clean_samples(pairs, a):
    """|a - v| / t samples with float noise flushed to an exact zero."""
    floor = 1e-12 * max([abs(v) for _, v in pairs] + [abs(a), 1e-300])
    out = []
    for t, v in pairs:
        g = abs(a - v)
        out.append((t, 0.0 if g <= floor else g / t))
    return out


def side_classes(side, a, module):
    """Exact end class, a tuple of terms, of |a - head(r)| / r as r -> 0
    (side "head") or of |a + tail(s)| / s as s -> oo (side "tail").

    mean_term of the end term of the profile, plus |a - lim| / t when the
    trace converges to lim (minus the tail limit) and a != lim.  A miss
    |a - lim| within the side's noise is float noise and counts as 0.  For
    p = q = 1 the mean c log L / t lies outside the class, and its bracket
    c L^ε / (e ε t), ε from md.loglog_eps, stands in: module holds it
    exactly when it holds c log L / t.
    """
    lim = side.limit
    d = (a - lim if side.name == "head" else a + lim) \
        if lim is not None else 0.0
    if d and abs(d) <= side.noise:
        d = 0.0
    near = (Term(abs(d), 1.0),) if d else ()
    if side.end is None:
        return near
    term = df.mean_term(side.end)
    if term is None:
        eps = md.loglog_eps(module, int(side.name == "tail"), LOGLOG_EPS)
        c = side.end[2] / (math.e * eps) if eps else INF
        if c == INF:
            raise OverflowError("the t^-1 log|log t| bracket overflows")
        term = Term(c, 1.0, -eps)
    return near + (term,)


def decide_side(side, module, a=0.0):
    """Whether module holds a majorant of the sampled side function
    |a - head(r)| / r or |a + tail(s)| / s, "yes" or "no": the step
    majorant with the exact end class attached (envelope_majorant), held
    past the samples on the tail side or a finite domain."""
    samples = _clean_samples(
        head_values(side.part) if side.name == "head"
        else [(s, -v) for s, v in tail_values(side.part)], a)
    domain_hi = module.domain_hi
    ends = side_classes(side, a, module)
    if not ends and all(v == 0.0 for _, v in samples):
        return SideResult("yes", df.zero(domain_hi), None, "zero bound")
    h = df.envelope_majorant(samples, domain_hi, reach=side.reach,
                             hold=side.name == "tail" or domain_hi < INF,
                             **{side.name: ends})
    verdict = md.contains(module, h)
    if verdict.answer == "yes":
        return SideResult("yes", h, None, verdict.reason)
    return SideResult("no", h, max(samples, key=lambda tv: tv[1]),
                      verdict.reason)


# ---------------------------------------------------------------------------
# the constant a


def _side_constant(side, absorbed):
    """(status, a) for a Side: free, forced by the trace limit,
    impossible when that limit diverges, or overflows."""
    if absorbed:
        return "free", 0.0
    if side.status == "diverges":
        return "impossible", None
    if side.status == "overflows":
        return side.status, None
    return "forced", side.limit if side.name == "head" else -side.limit


def member_with_a(T_fs, T_b, I, shared_a=True):
    """Decide via the split criteria with a trace constant a.

    shared_a=True is the commutator-space criterion (one a for both
    sides); shared_a=False allows independent constants, which
    characterizes membership up to a finite-rank correction.  Each side's
    constant is free (0.0) when the module absorbs its omega function and
    forced to the exact trace limit otherwise, so the single a tried is
    the one every witness must use and a failed side test is a rejection.
    """
    vfs, vb = md.omega_tests(I)
    fs, b = side_facts(T_fs, "head"), side_facts(T_b, "tail")
    fs_status, a_fs = _side_constant(fs, vfs.answer == "yes")
    b_status, a_b = _side_constant(b, vb.answer == "yes")
    if fs_status == "impossible":
        return not_member({"side": "fs", "reason":
                           "head trace diverges with no absorbing omega_fs"})
    if b_status == "impossible":
        return not_member({"side": "b", "reason":
                           "tail trace diverges with no absorbing omega_b"})
    if "overflows" in (fs_status, b_status):
        return inconclusive("trace overflows a float")
    if shared_a:
        # a = a_fs below, and side b fails its |a - lim| / t term exactly
        # where the constants differ by more than its own noise
        if fs_status == b_status == "forced" and abs(a_fs - a_b) > b.noise:
            return not_member(
                {"side": "both", "reason":
                 "forced constants disagree: %r vs %r" % (a_fs, a_b)})
        # + 0.0 turns the -0.0 of a vanishing tail limit into 0.0
        a_fs = a_b = (a_fs if fs_status == "forced" else a_b) + 0.0
    sides = []
    for name, side, module, a in (("fs", fs, md.FsPart(I), a_fs),
                                  ("b", b, md.BPart(I), a_b)):
        res = decide_side(side, module, a)
        if res.answer == "no":
            return not_member({"side": name, "a": a, "r": res.worst[0],
                               "required": res.worst[1],
                               "reason": res.reason})
        sides.append(res)
    cert = WitnessCertificate(a=a_fs, h_fs=sides[0].h, h_b=sides[1].h)
    if shared_a:
        return member(cert, "split criteria hold with a=%r" % a_fs)
    return member(cert, "independent side constants a_fs=%r a_b=%r"
                  % (a_fs, a_b))


# ---------------------------------------------------------------------------
# top-level membership


def _outside(I, m, name):
    """The not_member Decision where mu(T) = m lies outside I, else None."""
    nec = md.contains(I, m)
    if nec.answer == "no":
        return not_member({"side": "module", "reason": "mu(T) outside the "
                           "%s: %s" % (name, nec.reason)})


def member_IIinf(T, I, J):
    """T in [I, J] for the semifinite model (T normal by construction)."""
    if T.factor_type != II_INF:
        raise DomainError("member_IIinf needs the semifinite model")
    IJ = md.product_module(I, J)
    m = so.mu(T)
    if T.is_zero():
        return member(WitnessCertificate(h_fs=df.zero(), h_b=df.zero()),
                      "zero operator")
    if dec := _outside(IJ, m, "product module"):
        return dec
    if md.is_bounded(m) and md.contains(IJ, ONE).answer == "yes":
        cert = WitnessCertificate(h_fs=df.zero(),
                                  h_b=df.const(2.0 * df.value_at_0(m)))
        return member(cert, "bounded operator; module contains the bounded"
                      " carpet, so the full-algebra identity applies")
    d = df.limit_at_inf(m)
    if d > 0.0:
        # IJ holds mu(T) >= d, so 1 too: mu(T) is unbounded, the cut > 0
        cut = so.dist_fun(m, d * (1.0 + 1e-6))
        dec = member_IIinf(so.truncate(T, cut), I, J)  # a finite support
        note = "tail at level %g handled by the full-algebra identity" % d
        return Decision(dec.answer, dec.certificate, dec.obstruction,
                        (dec.notes + "; " + note).strip("; "))
    T_fs, T_b = so.split_fs_b(T)
    dec = member_with_a(T_fs, T_b, IJ, shared_a=True)
    if dec.answer == "member":
        dec = _attach_block_data(T, dec)
    return dec


def member_II1(T, I, J):
    if T.factor_type != II_1:
        raise DomainError("member_II1 needs the finite model")
    IJ = md.product_module(I, J)
    m = so.mu(T)
    if T.is_zero():
        return member(WitnessCertificate(h_fs=df.zero(1.0), total_count=12),
                      "zero operator")
    if dec := _outside(IJ, m, "product module"):
        return dec
    res = decide_side(side_facts(T, "head"), IJ)
    if res.answer == "yes":
        return member(WitnessCertificate(h_fs=res.h, total_count=12),
                      res.reason)
    return not_member({"side": "fs", "r": res.worst[0],
                       "required": res.worst[1], "reason": res.reason})


def member_F_plus(T, I):
    """T in F + [I, M]: the split criteria with independent constants."""
    m = so.mu(T)
    if dec := _outside(I, m, "module"):
        return dec
    if md.is_bounded(m) and md.contains(I, ONE).answer == "yes":
        return member(WitnessCertificate(h_b=df.const(2.0 * df.value_at_0(m))),
                      "bounded operator against a bounded-carpet module")
    if md.contains(md.F(), m).answer == "yes":
        return member(WitnessCertificate(h_fs=df.zero(), h_b=df.zero()),
                      "T lies in F (bounded with finite support): T = T + 0")
    T_fs, T_b = so.split_fs_b(T)
    return member_with_a(T_fs, T_b, I, shared_a=False)


# ---------------------------------------------------------------------------
# the beta construction


@functools.lru_cache(maxsize=8)
def _pair_masks(n):
    """The n x n masks of the pairs k < ell and of the others, read-only,
    built once per n."""
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    lower = ~upper
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


@functools.lru_cache(maxsize=8)
def _dyadic_points(K):
    """2^n for -K <= n <= K, at index n + K: the floats of
    df.dyadic_grid(-K, K, 1), built once per K."""
    return tuple(2.0 ** n for n in range(-K, K + 1))


def beta_sequence(alpha, phi, K):
    """Feasible beta_0 interval and a beta sequence from real alpha data.

    alpha: map n -> real for -K <= n <= K; phi: decreasing positive PLFun.
    Raises when the summed-block hypothesis fails.  The data for n are at
    list index n + K.
    """
    idx = range(-K, K + 1)
    two = _dyadic_points(K)
    a = [float(alpha.get(n, 0.0)) for n in idx]
    phival = list(map(phi, two))
    # prefix sums P[m + K] = sum_{j=-K}^{m-1} 2^j a_j, and w_n = 2^n phi(2^n)
    P = list(accumulate(map(operator.mul, two, a), initial=0.0))
    w = list(map(operator.mul, two, phival))
    # |P[ell] - P[k]| <= w_k + w_ell for all k < ell, at [k + K, ell + K];
    # float64 ops are the scalar ones, and numpy's overflow and nan
    # warnings are silenced as float arithmetic's are
    Pn, wn = np.array(P[:-1]), np.array(w)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = (np.abs(Pn[None, :] - Pn[:, None])
               > (wn[:, None] + wn[None, :]) * (1.0 + 1e-9) + 1e-300)
    bad &= _pair_masks(len(idx))[0]
    if bad.any():
        k, ell = divmod(int(np.argmax(bad)), len(idx))  # row-major first
        raise DomainError(
            "summed-block bound violated at (%d, %d)" % (idx[k], idx[ell]))
    # beta_0 within w_m of the block sums S_m (m = 1..K) and of -R_m
    # (m = 0..K), in that order: max and min keep the first of equals and
    # pass over a NaN as the running max(lo, x) and min(hi, x) do
    P1 = P[K + 1]
    S = [0.5 * (p - P1) for p in P[K + 2:]]
    R = [0.5 * (P1 - p) for p in P[K + 1:0:-1]]
    lo = max([-INF] + [x - y for x, y in zip(S, w[K + 1:])]
             + [-x - y for x, y in zip(R, w[K::-1])])
    hi = min([INF] + [x + y for x, y in zip(S, w[K + 1:])]
             + [-x + y for x, y in zip(R, w[K::-1])])
    if lo > hi:
        if lo - hi <= 1e-9 * max(1.0, abs(lo), abs(hi)):
            lo = hi = 0.5 * (lo + hi)
        else:
            raise DomainError("empty feasible interval despite the "
                              "hypothesis; data inconsistent")
    # beta_n at index n + K, from beta_0 up to beta_K and down to beta_-K
    beta = [0.0] * len(idx)
    beta[K] = 0.5 * (lo + hi)
    for i in range(K + 1, 2 * K + 1):
        beta[i] = 0.5 * (beta[i - 1] - a[i])
    for i in range(K, 0, -1):
        beta[i - 1] = 2.0 * beta[i] + a[i]
    # in the order beta_0, ..., beta_K, beta_-1, ..., beta_-K
    order = [*range(0, K + 1), *range(-1, -K - 1, -1)]
    for n in order:
        if abs(beta[n + K]) > phival[n + K] * (1.0 + 1e-9) + 1e-12:
            raise DomainError("beta bound violated at n=%d" % n)
    return (lo, hi), {n: beta[n + K] for n in order}


def fdh_certificate(T, h, K=40):
    """Norm-certificate data for the block decomposition, without the
    inner block operators.

    T's side of the two-variable bound does not depend on h, so it is
    tabled once (_certificate_table) and h is read at the 2K + 1 dyadic
    points only (_certificate_for).  The bits are unchanged: the array
    comparison makes the products, sums and slacks of the pair loop in
    float64, which is IEEE arithmetic as Python floats are, and the first
    failing (r, s) is the first the row-major loop met.  An error of T's
    own side (a nonvanishing tail, an out-of-domain level) and a failing
    pair now come before one from combine(h, mu(T)).
    """
    return _certificate_for(_certificate_table(T, K), h)


def _certificate_table(T, K):
    """The h-free half of fdh_certificate.

    The dyadic levels 2^-K..2^K, their band edges, the running band
    integrals between them, |tau(T E(mu_s, mu_r])| for each pair r < s
    (at [i + K, j + K] for r = 2^i, s = 2^j; -inf on and below the
    diagonal, where no bound fails), and the block averages alpha.
    """
    m = so.mu(T)
    if df.limit_at_inf(m) > 0.0:
        raise DomainError("certificate requires vanishing singular values")
    pts = _dyadic_points(K)
    edges = list(so.edges(m, pts))
    bands = list(zip(edges, edges[1:]))
    ints = so.integrate_bands(T, bands)
    # abs(cj - ci) for every pair of running sums: the libm hypot that
    # abs() calls (numpy's complex abs rounds differently), and abs()'s
    # error where it overflows
    c = np.array(list(accumulate(ints, initial=0.0 + 0.0j)))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = c[None, :] - c[:, None]
        lhs = np.hypot(diff.real, diff.imag)
    inf = np.isinf(lhs)
    if inf.any() and (inf & np.isfinite(diff)).any():
        raise OverflowError("absolute value too large")
    lhs[_pair_masks(len(c))[1]] = -INF
    # a block band is its edge band where both edges are its own scales:
    # the same pair of floats, so the same integral
    blocks = list(zip(pts, pts[1:]))
    rest = iter(so.integrate_bands(
        T, [b for b, e in zip(blocks, bands) if b != e]))
    alpha = {n: 2.0 ** -n * (v if b == e else next(rest))
             for n, b, e, v in zip(range(-K, K), blocks, bands, ints)}
    return K, pts, m, lhs, alpha


def _certificate_for(table, h):
    """The h half of fdh_certificate: h at the 2K + 1 dyadic points, the
    two-variable bound on every pair as one float64 array comparison, then
    the beta sequences and the block bounds."""
    pts = table[1]
    pair = _failing_pair(table, _row(h, pts))
    if pair is not None:
        raise DomainError("criterion bound fails at (r, s)=(%g, %g)"
                          % (pts[pair[0]], pts[pair[1]]))
    return _block_data(table, h)


def _row(h, pts):
    """t h(t) at each of the ascending pts as a float64 array, h read a
    segment at a time (PLFun.values): h(t)'s floats and first error."""
    return np.array([t * v for t, v in zip(pts, h.values(pts))])


def _failing_pair(table, rh):
    """The first pair (i, j), row-major as the pair loop meets them, where
    |tau(T E(mu_s, mu_r])| exceeds the bound of the witness row rh[k] =
    t_k h(t_k); None when every pair holds."""
    lhs = table[3]
    # overflow to inf and inf - inf are silent in float arithmetic too
    with np.errstate(over="ignore", invalid="ignore"):
        bad = lhs > (rh[:, None] + rh[None, :]) * (1.0 + 1e-9) + 1e-12
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), len(rh))


def _block_data(table, h):
    """The certificate of a witness h that passes the pair test: phi =
    h + mu(T), built only now as most scalings fail that test, the beta
    sequences and the block bounds."""
    K, pts, m, _, alpha = table
    phi = df.combine(h, m, "sum")
    # both beta sequences read phi at the same dyadic points
    phi_at = dict(zip(pts, phi.values(pts))).__getitem__
    iv_re, beta_re = beta_sequence(
        {n: v.real for n, v in alpha.items()}, phi_at, K)
    iv_im, beta_im = beta_sequence(
        {n: v.imag for n, v in alpha.items()}, phi_at, K)
    blocks = []
    for n, v in zip(range(-K, K), m.values(pts[:-1])):
        s_bound = 2.0 * v
        blocks.append({"n": n, "S_norm_bound": s_bound,
                       "X_norm_bound": 12.0 * s_bound,
                       "Y_norm_bound": 2.0, "commutators": 10})
    return WitnessCertificate(
        a=0.0, h_fs=None, h_b=None, alpha=alpha,
        beta={n: (beta_re[n], beta_im[n]) for n in beta_re},
        beta0_interval=(iv_re, iv_im), phi=phi,
        block_bounds=tuple(blocks), total_count=14)


def _attach_block_data(T, dec, K=40):
    """Certificate data for the first witness scaling 2^j, j < SCALINGS,
    that passes; the h-free table of T is built once for all of them.

    Each scaled witness is evaluated (_row) and its pairs tested; phi and
    the beta sequences are built only where they hold.  The search ends
    where no scaling changes the outcome: at a failing pair whose points
    both lie on segments of h without terms, which scale_fun keeps empty,
    and at the first failure of a zero witness, the same at every scaling."""
    cert = dec.certificate
    h = cert.h
    if h is None:
        return dec
    if abs(cert.a) > 0:
        h = df.combine(h, df.scale_fun(md.omega_fs(), abs(cert.a)), "sum")
    try:
        table = _certificate_table(T, K)
    except (DomainError, OverflowError):
        return dec
    pts = table[1]
    for j in range(SCALINGS):
        pair = None
        try:
            hj = df.scale_fun(h, 2.0 ** j)
            pair = _failing_pair(table, _row(hj, pts))
            if pair is None:
                full = replace(_block_data(table, hj), a=cert.a,
                               h_fs=cert.h_fs, h_b=cert.h_b)
                note = "" if j == 0 else " (witness scaled by 2^%d)" % j
                return Decision("member", full, None, dec.notes + note)
        except (DomainError, OverflowError):
            pass
        if h.is_zero() or pair and all(h.seg_at(pts[k]).is_zero()
                                       for k in pair):
            return dec
    return dec

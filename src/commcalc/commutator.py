"""Membership decisions for commutator spaces and witness machinery.

The semifinite criterion asks for a decreasing h with
|tau(T E(mu_s, mu_r])| <= r h(r) + s h(s); after splitting T into its
finite-support and bounded parts the two single-variable criteria
|a - tau(T_fs E[0, mu_r])| <= r h(r) and |a + tau(T_b E(mu_s, oo))| <= s h(s)
decide membership.

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
scale, so no verdict depends on a fit.  The one end outside the class,
c t^-1 |log t|^-1, is decided from its two brackets.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import decfun as df
from . import modules as md
from . import specop as so
from .decfun import INF, DomainError, PLFun, Term
from .specop import II_1, II_INF

GRID_K = 60
GRID_PPO = 2
TRACE_TOL = 1e-9
# c t^-1 log L (L = |log t|) lies below c t^-1 L^EPS / (e EPS) for L > 1
LOGLOG_EPS = 0.125


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


def dyadic_grid(lo_oct, hi_oct, ppo=GRID_PPO):
    """The points 2^(j/ppo) from 2^lo_oct to 2^hi_oct, ppo per octave."""
    return [2.0 ** (j / ppo) for j in range(lo_oct * ppo, hi_oct * ppo + 1)]


def head_values(T, K=GRID_K, ppo=GRID_PPO):
    """(r, tau(T E[0, mu_r])) over the dyadic grid in (0, 1]."""
    return [(r, so.band_trace(T, "head", r=r))
            for r in dyadic_grid(-K, 0, ppo)]


def tail_values(T, K=GRID_K, ppo=GRID_PPO):
    """(s, tau(T E(mu_s, oo))) over the dyadic grid in [1, oo)."""
    return [(s, so.band_trace(T, "tail", s=s))
            for s in dyadic_grid(0, K, ppo)]


def trace_limit(T, side):
    """Exact limit of the head trace (r -> 0) or the tail trace (s -> oo).

    The end segment carries a single phase, so the band trace converges
    exactly when |v| is integrable at that end, and then to tau(T); a
    finite support has no dominant term at oo, so its tail converges.
    Returns ("diverges", None) or ("converged", value), with a value below
    TRACE_TOL * max(1, int |v|), the size of the cancellation error,
    snapped to 0.0.  A nonzero trace that passes the float range, or whose
    noise level does, returns ("overflows", None): never a limit of 0.
    """
    ends = {"head": (0.0, 1.0), "tail": (1.0, INF)}
    if side not in ends:
        raise ValueError("side must be head or tail")
    if df.diverges(so.mu(T), *ends[side]):
        return "diverges", None
    v, noise = so.trace(T), trace_noise(T)
    if v == 0.0 or abs(v) <= noise < INF:
        return "converged", 0.0
    if abs(v) < INF and noise < INF:
        return "converged", v
    return "overflows", None


def trace_noise(T):
    """TRACE_TOL * max(1, int |v|): below it a trace is cancellation error."""
    m = so.mu(T)
    return TRACE_TOL * max(1.0, df.integral(m, 0.0, m.domain_hi))


# ---------------------------------------------------------------------------
# per-side decisions


@dataclass(frozen=True)
class SideResult:
    answer: str
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


def side_classes(T, side, a):
    """Exact end class of |a - head(r)| / r as r -> 0 (side "head") or of
    |a + tail(s)| / s as s -> oo (side "tail").

    mean_term of the end term of mu(T), plus |a - lim| / t when the trace
    converges to lim (minus the tail limit) and a != lim.  Returns the list
    of classes (two for p = q = 1: the brackets c L^EPS / (e EPS t) above
    c log L / t and c / t below it) and the inner end of the end segment.
    A miss |a - lim| within trace_noise(T) is float noise and counts as 0.
    """
    m = so.mu(T)
    if side == "head":
        dom, reach = df.dominant_at_0(m), m.segs[0].hi
    else:
        dom, reach = df.dominant_at_inf(m), m.segs[-1].lo
    _, lim = trace_limit(T, side)
    d = (a - lim if side == "head" else a + lim) if lim is not None else 0.0
    if d and abs(d) <= trace_noise(T):
        d = 0.0
    near = (Term(abs(d), 1.0),) if d else ()
    if dom is None:
        return [near], reach
    term = df.mean_term(dom)
    if term is not None:
        return [near + (term,)], reach
    c = dom[2]
    return [near + (Term(c / (math.e * LOGLOG_EPS), 1.0, -LOGLOG_EPS),),
            near + (Term(c, 1.0),)], reach


def _decide_side(T, samples, module, domain_hi, side, a, hold):
    """Whether module holds a majorant of the sampled side function: the
    step majorant with the exact end class attached (envelope_majorant).
    Of two brackets, "yes" comes from the upper and "no" from the lower."""
    classes, reach = side_classes(T, side, a)
    if classes == [()] and all(v == 0.0 for _, v in samples):
        return SideResult("yes", df.zero(domain_hi), None, "zero bound")
    worst = max(samples, key=lambda tv: tv[1])
    for i, ends in enumerate(classes):
        h = df.envelope_majorant(samples, domain_hi, reach=reach, hold=hold,
                                 **{side: ends})
        verdict = md.contains(module, h)
        if verdict.answer == "yes" and i == 0:
            return SideResult("yes", h, None, verdict.reason)
    if verdict.answer == "no":
        return SideResult("no", h, worst, verdict.reason)
    if len(classes) == 2:
        return SideResult("inconclusive", h, worst,
                          "the brackets of t^-1 log|log t| disagree")
    return SideResult("inconclusive", h, worst, verdict.reason)


def decide_fs(T_fs, I, a=0.0, K=GRID_K, ppo=GRID_PPO):
    """Existence of h in mu(FsPart(I)) with |a - head(r)| <= r h(r), r < 1."""
    samples = _clean_samples(head_values(T_fs, K, ppo), a)
    return _decide_side(T_fs, samples, md.FsPart(I), INF, "head", a, False)


def decide_b(T_b, I, a=0.0, K=GRID_K, ppo=GRID_PPO):
    """Existence of h in mu(BPart(I)) with |a + tail(s)| <= s h(s), s >= 1."""
    samples = _clean_samples([(s, -v) for s, v in tail_values(T_b, K, ppo)],
                             a)
    return _decide_side(T_b, samples, md.BPart(I), INF, "tail", a, True)


def member_side(Tside, I, side, a=0.0):
    """Single-side membership criterion; side in {fs, b}."""
    if side == "fs":
        if df.support_hi(so.mu(Tside)) == INF:
            raise DomainError("fs side requires finite support")
        res = decide_fs(Tside, I, a)
    elif side == "b":
        if not md.is_bounded(so.mu(Tside)):
            raise DomainError("b side requires a bounded operator")
        res = decide_b(Tside, I, a)
    else:
        raise ValueError("side must be fs or b")
    return _side_to_decision(res, a, side)


def _side_to_decision(res, a, side):
    if res.answer == "yes":
        cert = WitnessCertificate(
            a=a,
            h_fs=res.h if side == "fs" else None,
            h_b=res.h if side == "b" else None,
        )
        return member(cert, res.reason)
    if res.answer == "no":
        return not_member(
            {"side": side, "r": res.worst[0], "required": res.worst[1],
             "reason": res.reason},
        )
    return inconclusive(res.reason)


# ---------------------------------------------------------------------------
# the constant a


def _side_constant(T, side, absorbed):
    """(status, a) for the head or tail side: free, forced by the trace
    limit, impossible when that limit diverges, or overflows."""
    if absorbed:
        return "free", 0.0
    status, val = trace_limit(T, side)
    if status == "diverges":
        return "impossible", None
    if status == "overflows":
        return status, None
    return "forced", val if side == "head" else -val


def member_with_a(T_fs, T_b, I, shared_a=True, K=GRID_K, ppo=GRID_PPO):
    """Decide via the split criteria with a trace constant a.

    shared_a=True is the commutator-space criterion (one a for both
    sides); shared_a=False allows independent constants, which
    characterizes membership up to a finite-rank correction.  Each side's
    constant is free (0.0) when the module absorbs its omega function and
    forced to the exact trace limit otherwise, so the single a tried is
    the one every witness must use and a failed side test is a rejection.
    """
    vfs, vb = md.omega_tests(I)
    if "inconclusive" in (vfs.answer, vb.answer):
        return inconclusive("omega tests undecided: %s / %s"
                            % (vfs.reason, vb.reason))
    fs_status, a_fs = _side_constant(T_fs, "head", vfs.answer == "yes")
    b_status, a_b = _side_constant(T_b, "tail", vb.answer == "yes")
    if fs_status == "impossible":
        return not_member({"side": "fs", "reason":
                           "head trace diverges with no absorbing omega_fs"})
    if b_status == "impossible":
        return not_member({"side": "b", "reason":
                           "tail trace diverges with no absorbing omega_b"})
    if "overflows" in (fs_status, b_status):
        return inconclusive("trace overflows a float")
    if shared_a:
        if fs_status == b_status == "forced" \
                and abs(a_fs - a_b) > max(trace_noise(T_fs), trace_noise(T_b)):
            return not_member(
                {"side": "both", "reason":
                 "forced constants disagree: %r vs %r" % (a_fs, a_b)})
        # + 0.0 turns the -0.0 of a vanishing tail limit into 0.0
        a_fs = a_b = (a_fs if fs_status == "forced" else a_b) + 0.0
    sides = []
    for side, decide, T, a in (("fs", decide_fs, T_fs, a_fs),
                               ("b", decide_b, T_b, a_b)):
        res = decide(T, I, a, K, ppo)
        if res.answer == "no":
            return not_member({"side": side, "a": a, "r": res.worst[0],
                               "required": res.worst[1],
                               "reason": res.reason})
        sides.append(res)
    fs_res, b_res = sides
    if fs_res.answer != "yes" or b_res.answer != "yes":
        return inconclusive("side tests undecided")
    cert = WitnessCertificate(a=a_fs, h_fs=fs_res.h, h_b=b_res.h)
    if shared_a:
        return member(cert, "split criteria hold with a=%r" % a_fs)
    return member(cert, "independent side constants a_fs=%r a_b=%r"
                  % (a_fs, a_b))


# ---------------------------------------------------------------------------
# top-level membership


def member_IIinf(T, I, J, K=GRID_K, ppo=GRID_PPO, _depth=0):
    """T in [I, J] for the semifinite model (T normal by construction)."""
    if T.factor_type != II_INF:
        raise DomainError("member_IIinf needs the semifinite model")
    IJ = md.product_module(I, J)
    m = so.mu(T)
    if T.is_zero():
        return member(WitnessCertificate(h_fs=df.zero(), h_b=df.zero()),
                      "zero operator")
    nec = md.contains(IJ, m)
    if nec.answer == "no":
        return not_member({"side": "module",
                           "reason": "mu(T) outside the product module: "
                           + nec.reason})
    if nec.answer == "inconclusive":
        return inconclusive("mu(T) membership in the product undecided: "
                            + nec.reason)
    ones_ok = md.contains(IJ, df.const(1.0)).answer == "yes"
    if md.is_bounded(m) and ones_ok:
        cert = WitnessCertificate(h_fs=df.zero(),
                                  h_b=df.const(2.0 * df.value_at_0(m)))
        return member(cert, "bounded operator; module contains the bounded"
                      " carpet, so the full-algebra identity applies")
    d = df.limit_at_inf(m)
    if d > 0.0:
        if not ones_ok or _depth > 0:
            return inconclusive("nonvanishing tail but constants undecided")
        cut = so.dist_fun(m, d * (1.0 + 1e-6))
        if cut == 0.0:
            cert = WitnessCertificate(h_fs=df.zero(),
                                      h_b=df.const(2.0 * df.value_at_0(m)))
            return member(cert, "flat profile handled by the full-algebra"
                          " identity")
        head = so.make_op([replace(s, hi=min(s.hi, cut))
                           for s in T.segs if s.lo < cut],
                          II_INF, validate=False)
        dec = member_IIinf(head, I, J, K, ppo, _depth + 1)
        note = "tail at level %g handled by the full-algebra identity" % d
        return Decision(dec.answer, dec.certificate, dec.obstruction,
                        (dec.notes + "; " + note).strip("; "))
    T_fs, T_b = so.split_fs_b(T)
    dec = member_with_a(T_fs, T_b, IJ, shared_a=True, K=K, ppo=ppo)
    if dec.answer == "member":
        dec = _attach_block_data(T, dec, K=min(K, 40), ppo=ppo)
    return dec


def member_II1(T, I, J, K=GRID_K, ppo=GRID_PPO):
    if T.factor_type != II_1:
        raise DomainError("member_II1 needs the finite model")
    IJ = md.product_module(I, J)
    m = so.mu(T)
    if T.is_zero():
        return member(WitnessCertificate(h_fs=df.zero(1.0), total_count=12),
                      "zero operator")
    nec = md.contains(IJ, m)
    if nec.answer == "no":
        return not_member({"side": "module",
                           "reason": "mu(T) outside the product module: "
                           + nec.reason})
    if nec.answer == "inconclusive":
        return inconclusive("mu(T) membership in the product undecided")
    heads = head_values(T, K, ppo)
    samples = _clean_samples([(r, v) for r, v in heads if r < 1.0], 0.0)
    dec = _side_to_decision(
        _decide_side(T, samples, IJ, 1.0, "head", 0.0, True), 0.0, "fs")
    if dec.certificate is None:
        return dec
    return replace(dec, certificate=replace(dec.certificate, total_count=12))


def member_F_plus(T, I, K=GRID_K, ppo=GRID_PPO):
    """T in F + [I, M]: the split criteria with independent constants."""
    m = so.mu(T)
    nec = md.contains(I, m)
    if nec.answer == "no":
        return not_member({"side": "module",
                           "reason": "mu(T) outside the module: "
                           + nec.reason})
    if nec.answer == "inconclusive":
        return inconclusive("mu(T) membership undecided")
    if md.is_bounded(m) and md.contains(I, df.const(1.0)).answer == "yes":
        return member(WitnessCertificate(h_b=df.const(2.0 * df.value_at_0(m))),
                      "bounded operator against a bounded-carpet module")
    T_fs, T_b = so.split_fs_b(T)
    return member_with_a(T_fs, T_b, I, shared_a=False, K=K, ppo=ppo)


# ---------------------------------------------------------------------------
# the beta construction


def beta_sequence(alpha, phi, K):
    """Feasible beta_0 interval and a beta sequence from real alpha data.

    alpha: map n -> real for -K <= n <= K; phi: decreasing positive PLFun.
    Raises when the summed-block hypothesis fails.
    """
    idx = list(range(-K, K + 1))
    a = {n: float(alpha.get(n, 0.0)) for n in idx}
    phival = {n: phi(2.0 ** n) for n in idx}
    # prefix sums P[m] = sum_{j=-K}^{m-1} 2^j a_j
    P = {-K: 0.0}
    for n in idx:
        P[n + 1] = P[n] + 2.0 ** n * a[n]
    # |P[ell] - P[k]| <= 2^k phi(2^k) + 2^ell phi(2^ell) for all k < ell,
    # at [k + K, ell + K]; float64 ops are the scalar ones, and numpy's
    # overflow and nan warnings are silenced as float arithmetic's are
    Pn = np.array([P[n] for n in idx])
    w = np.array([2.0 ** n * phival[n] for n in idx])
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.triu(np.abs(Pn[None, :] - Pn[:, None])
                      > (w[:, None] + w[None, :]) * (1.0 + 1e-9) + 1e-300, 1)
    if bad.any():
        k, ell = divmod(int(np.argmax(bad)), len(idx))  # row-major first
        raise DomainError(
            "summed-block bound violated at (%d, %d)" % (idx[k], idx[ell]))
    lo, hi = -INF, INF
    for mpos in range(1, K + 1):
        S = 0.5 * (P[mpos + 1] - P[1])
        w = 2.0 ** mpos * phival[mpos]
        lo, hi = max(lo, S - w), min(hi, S + w)
    for mneg in range(0, K + 1):
        R = 0.5 * (P[1] - P[-mneg + 1])
        w = 2.0 ** -mneg * phival[-mneg]
        lo, hi = max(lo, -R - w), min(hi, -R + w)
    if lo > hi:
        if lo - hi <= 1e-9 * max(1.0, abs(lo), abs(hi)):
            lo = hi = 0.5 * (lo + hi)
        else:
            raise DomainError("empty feasible interval despite the "
                              "hypothesis; data inconsistent")
    beta0 = 0.5 * (lo + hi)
    beta = {0: beta0}
    for n in range(1, K + 1):
        beta[n] = 0.5 * (beta[n - 1] - a[n])
    for n in range(0, -K, -1):
        beta[n - 1] = 2.0 * beta[n] + a[n]
    for n in beta:
        if abs(beta[n]) > phival.get(n, INF) * (1.0 + 1e-9) + 1e-12:
            raise DomainError("beta bound violated at n=%d" % n)
    return (lo, hi), beta


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

    The band edges of the 2K + 1 dyadic levels, the running band integrals
    between them, |tau(T E(mu_s, mu_r])| for each pair of levels r < s
    (at [i + K, j + K] for r = 2^i, s = 2^j; -inf on and below the
    diagonal, where no bound fails), and the block averages alpha.
    """
    m = so.mu(T)
    if df.limit_at_inf(m) > 0.0:
        raise DomainError("certificate requires vanishing singular values")
    edges = [so.dist_fun(m, m(2.0 ** i)) for i in range(-K, K + 1)]
    cumul = [0.0 + 0.0j]
    for u, w in zip(edges, edges[1:]):
        cumul.append(cumul[-1] + so.integrate_v(T, u, w))
    lhs = np.full((len(cumul), len(cumul)), -INF)
    for i, ci in enumerate(cumul):
        lhs[i, i + 1:] = [abs(cj - ci) for cj in cumul[i + 1:]]
    alpha = {n: 2.0 ** -n * so.integrate_v(T, 2.0 ** n, 2.0 ** (n + 1))
             for n in range(-K, K)}
    return K, m, lhs, alpha


def _certificate_for(table, h):
    """The h half of fdh_certificate: h at the 2K + 1 dyadic points, the
    two-variable bound on every pair as one float64 array comparison, then
    the beta sequences and the block bounds.  phi = h + mu(T) is built
    only once the pair test has passed, as most scalings fail it."""
    K, m, lhs, alpha = table
    pts = [2.0 ** i for i in range(-K, K + 1)]
    rh = np.array([t * h(t) for t in pts])
    # overflow to inf and inf - inf are silent in float arithmetic too
    with np.errstate(over="ignore", invalid="ignore"):
        bad = lhs > (rh[:, None] + rh[None, :]) * (1.0 + 1e-9) + 1e-12
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), len(pts))  # row-major first
        raise DomainError(
            "criterion bound fails at (r, s)=(%g, %g)" % (pts[i], pts[j]))
    phi = df.combine(h, m, "sum")
    iv_re, beta_re = beta_sequence(
        {n: v.real for n, v in alpha.items()}, phi, K)
    iv_im, beta_im = beta_sequence(
        {n: v.imag for n, v in alpha.items()}, phi, K)
    blocks = []
    for n in range(-K, K):
        s_bound = 2.0 * m(2.0 ** n)
        blocks.append({"n": n, "S_norm_bound": s_bound,
                       "X_norm_bound": 12.0 * s_bound,
                       "Y_norm_bound": 2.0, "commutators": 10})
    return WitnessCertificate(
        a=0.0, h_fs=None, h_b=None, alpha=alpha,
        beta={n: (beta_re[n], beta_im[n]) for n in beta_re},
        beta0_interval=(iv_re, iv_im), phi=phi,
        block_bounds=tuple(blocks), total_count=14)


def _attach_block_data(T, dec, K=40, ppo=GRID_PPO):
    """Certificate data for the first witness scaling 2^j, j < 13, that
    passes; the h-free table of T is built once for all of them."""
    cert = dec.certificate
    hs = [h for h in (cert.h_fs, cert.h_b) if h is not None]
    if not hs:
        return dec
    h = hs[0] if len(hs) == 1 else df.combine(hs[0], hs[1], "sum")
    if abs(cert.a) > 0:
        h = df.combine(h, df.scale_fun(md.omega_fs(), abs(cert.a)), "sum")
    try:
        table = _certificate_table(T, K)
    except DomainError:
        return dec
    for j in range(13):
        try:
            full = _certificate_for(table, df.scale_fun(h, 2.0 ** j))
        except DomainError:
            continue
        cert2 = WitnessCertificate(
            a=cert.a, h_fs=cert.h_fs, h_b=cert.h_b, alpha=full.alpha,
            beta=full.beta, beta0_interval=full.beta0_interval,
            phi=full.phi, block_bounds=full.block_bounds, total_count=14)
        note = "" if j == 0 else " (witness scaled by 2^%d)" % j
        return Decision("member", cert2, None, dec.notes + note)
    return dec


# ---------------------------------------------------------------------------
# auxiliary criteria


def dfww_discrete_test(lambdas, I_d, tail=None, K=40):
    """Cesaro-mean test for sequences against a discrete module.

    A cross-check used only by tests: the discrete (type I) form of the
    criterion, the Dykema-Figiel-Weiss-Wodzicki theorem that a normal
    diag(lambda) in I lies in [I, B(H)] exactly when the Cesaro means
    (lambda_1 + ... + lambda_n) / n stay within I.

    lambdas: finite list of complex values with nonincreasing modulus;
    tail: optional (coeff, gamma) continuing |lambda_k| = coeff*k^-gamma
    beyond the list (positive reals assumed for the tail).  The tail's
    block sums at mid scale are integral estimates; past the samples the
    means follow their exact class (mean_term, plus |S_oo| / k with the
    series sum S_oo, a Hurwitz zeta value, counted as 0 at float noise).
    """
    n0 = len(lambdas)
    mods = [abs(z) for z in lambdas]
    if any(b > a + 1e-12 for a, b in zip(mods, mods[1:])):
        raise DomainError("sequence modulus must be nonincreasing")
    S = 0.0
    samples = []
    for k, z in enumerate(lambdas, start=1):
        S += z
        req = max(0.0, abs(S) / k - abs(z))
        samples.append((float(k), req))
    if tail is None:
        # past the list the means are S / k exactly
        ends = (Term(abs(S), 1.0),) if S else ()
    else:
        c, g = tail
        Sn = S
        prev = float(n0)
        for i in range(1, K + 1):
            ell = float(n0) * 2.0 ** i
            # integral midpoint estimate of the block sum
            if g == 1.0:
                Sn += c * math.log(ell / prev)
            else:
                Sn += c * (ell ** (1 - g) - prev ** (1 - g)) / (1 - g)
            lam_ell = c * ell ** -g
            samples.append((ell, max(0.0, abs(Sn) / ell - lam_ell)))
            prev = ell
        # |S + sum_{k > n0} c k^-g|, float noise flushed to 0
        S_oo = _clean_samples([(1.0, -c * special.zeta(g, n0 + 1))], S)[0][1] \
            if g > 1.0 else 0.0
        ends = ((Term(S_oo, 1.0),) if S_oo else ()) \
            + (df.mean_term((g, 0.0, c)),)
    if not ends and all(v == 0.0 for _, v in samples):
        return member(WitnessCertificate(h_b=df.zero()), "Cesaro means vanish")
    h = df.envelope_majorant(samples, INF, tail=ends)
    v = md.contains(I_d, h)
    if v.answer == "yes":
        return member(WitnessCertificate(h_b=h), v.reason)
    if v.answer == "no":
        worst = max(samples, key=lambda tv: tv[1])
        return not_member({"side": "b", "r": worst[0],
                           "required": worst[1], "reason": v.reason})
    return inconclusive(v.reason)


def necessary_h(T, parts):
    """The explicit necessary bound from an N-term decomposition.

    A cross-check used only by tests of the necessity half of the paper's
    characterization of [I, J]: T = sum of N commutators [A_j, B_j] obeys
    |tau(T E(mu_s, mu_r])| <= r h(r) + s h(s) with this h, which lies in
    mu(IJ); parts lists the pairs (mu(A_j), mu(B_j)).
    """
    N = len(parts)
    h = df.scale_fun(so.mu(T), 8.0 * N + 2.0)
    for muA, muB in parts:
        prod = df.combine(muA, muB, "product")
        h = df.combine(h, df.scale_fun(prod, 16.0 * N + 4.0), "sum")
    return h

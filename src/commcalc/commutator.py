"""Membership decisions for commutator spaces and witness machinery.

The semifinite criterion asks for a decreasing h with
|tau(T E(mu_s, mu_r])| <= r h(r) + s h(s); after splitting T into its
finite-support and bounded parts the two single-variable criteria
|a - tau(T_fs E[0, mu_r])| <= r h(r) and |a + tau(T_b E(mu_s, oo))| <= s h(s)
decide membership, with the constant a forced by trace limits whenever the
omega test functions are missing from the module.
"""

import math
from dataclasses import dataclass, replace

from . import decfun as df
from . import modules as md
from . import specop as so
from .decfun import INF, DomainError, PLFun
from .specop import II_1, II_INF

GRID_K = 60
GRID_PPO = 2
FIT_RESID_TOL = 0.05
TRACE_TOL = 1e-9


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


def _class_extrapolate(vals, ts, side, ppo, scale):
    """Limit of a sequence whose increments decay like a power-log term.

    vals ordered toward the limit; ts are the matching scales.  Returns
    (status, value) like trace_limit.
    """
    diffs = [(ts[i + 1], vals[i + 1] - vals[i])
             for i in range(len(vals) - 1)]
    diffs = diffs[-80:]
    samples = [(t, abs(d)) for t, d in diffs]
    fit = df.powerlog_fit(samples, side)
    if fit is None:
        return "unsettled", None
    term, resid = fit
    if resid > 0.1:
        return "unsettled", None
    # sum of the remaining increments ~ (ppo/ln 2) * integral of f(t)/t
    term2 = df.Term(term.coeff, term.pow + 1.0, term.logpow)
    try:
        if side == "head":
            f = df.make([df.Seg(0.0, ts[-1], (term2,))], validate=False)
            I = df.integral(f, 0.0, ts[-1])
        else:
            f = df.make([df.Seg(ts[-1], INF, (term2,))], validate=False)
            I = df.integral(f, ts[-1], INF)
    except DomainError:
        return "unsettled", None
    if I == INF:
        return "diverges", None
    R = ppo / math.log(2.0) * I
    if R <= TRACE_TOL * scale:
        return "converged", vals[-1]
    units = [d / abs(d) for _, d in diffs[-12:] if abs(d) > 0.0]
    if not units:
        return "converged", vals[-1]
    mean = sum(units) / len(units)
    if abs(mean) < 0.9:
        return "unsettled", None
    a = vals[-1] + mean / abs(mean) * R
    return "converged", 0.0 if abs(a) <= 1e-4 * scale else a


def trace_limit(vals, tol=TRACE_TOL, ts=None, side="head", ppo=GRID_PPO):
    """Classify the sequence (ordered toward its limit end).

    Returns (status, value) with status in {converged, diverges, unsettled}.
    When the matching scales ts are given, increments with power-log decay
    are extrapolated analytically.
    """
    if not vals:
        return "converged", 0.0
    last = vals[-min(12, len(vals)):]
    scale = max(1.0, max(abs(v) for v in last))
    spread = max(abs(v - last[-1]) for v in last)
    if spread <= tol * scale:
        v = last[-1]
        return "converged", 0.0 if abs(v) <= tol * scale else v
    diffs = [b - a for a, b in zip(last, last[1:])]
    mags = [abs(d) for d in diffs]
    if len(mags) >= 4 and all(m > 0.0 for m in mags):
        ratios = [b / a for a, b in zip(mags, mags[1:])]
        q = max(ratios)
        if q < 0.95 and mags[-1] * q / (1.0 - q) <= 1e-6 * scale:
            # geometric decay of the increments: extrapolate the limit
            return "converged", last[-1] + diffs[-1] * q / (1.0 - q)
    if ts is not None and len(vals) >= 20:
        st, v = _class_extrapolate(vals, ts, side, ppo, scale)
        if st != "unsettled":
            return st, v
    mags = [abs(v) for v in vals[-min(16, len(vals)):]]
    if all(b >= a - 1e-15 for a, b in zip(mags, mags[1:])) \
            and mags[-1] > 1.25 * mags[0] + 10.0 * tol:
        return "diverges", None
    return "unsettled", None


# ---------------------------------------------------------------------------
# per-side decisions


@dataclass(frozen=True)
class SideResult:
    answer: str
    h: PLFun = None
    resid: float = 0.0
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


def _decide_samples(samples, module, domain_hi, fit_head, fit_tail, tail):
    positive = [(t, v) for t, v in samples if v > 0.0]
    if not positive:
        return SideResult("yes", df.zero(domain_hi), 0.0, None, "zero bound")
    h, info = df.envelope_majorant(samples, domain_hi, fit_head=fit_head,
                                   fit_tail=fit_tail, tail=tail)
    resid = max(
        (info[k] or {}).get("resid", 0.0) for k in ("head", "tail")
    )
    verdict = md.contains(module, h)
    worst = max(positive, key=lambda tv: tv[1])
    if verdict.answer == "yes":
        return SideResult("yes", h, resid, None, verdict.reason)
    if verdict.answer == "no" and resid <= FIT_RESID_TOL:
        return SideResult("no", h, resid, worst, verdict.reason)
    if verdict.answer == "no":
        return SideResult("inconclusive", h, resid, worst,
                          "envelope fit too loose for a sound rejection")
    return SideResult("inconclusive", h, resid, worst, verdict.reason)


def decide_fs(T_fs, I, a=0.0, K=GRID_K, ppo=GRID_PPO, heads=None):
    """Existence of h in mu(FsPart(I)) with |a - head(r)| <= r h(r), r < 1."""
    if heads is None:
        heads = head_values(T_fs, K, ppo)
    samples = _clean_samples(heads, a)
    return _decide_samples(samples, md.FsPart(I), INF,
                           fit_head=True, fit_tail=False, tail="zero")


def decide_b(T_b, I, a=0.0, K=GRID_K, ppo=GRID_PPO, tails=None):
    """Existence of h in mu(BPart(I)) with |a + tail(s)| <= s h(s), s >= 1."""
    if tails is None:
        tails = tail_values(T_b, K, ppo)
    samples = _clean_samples([(s, -v) for s, v in tails], a)
    return _decide_samples(samples, md.BPart(I), INF,
                           fit_head=False, fit_tail=True, tail="hold")


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


def _fs_candidates(heads, wfs):
    """(status, candidates) for the fs-side constant."""
    if wfs:
        return "free", [0.0]
    rev = list(reversed(heads))
    status, val = trace_limit([v for _, v in rev],
                              ts=[r for r, _ in rev], side="head")
    if status == "converged":
        return "forced", [val]
    if status == "diverges":
        return "impossible", []
    return "unsettled", [0.0]


def _b_candidates(tails, wb):
    if wb:
        return "free", [0.0]
    status, val = trace_limit([v for _, v in tails],
                              ts=[s for s, _ in tails], side="tail")
    if status == "converged":
        return "forced", [-val]
    if status == "diverges":
        return "impossible", []
    return "unsettled", [0.0]


def member_with_a(T_fs, T_b, I, shared_a=True, K=GRID_K, ppo=GRID_PPO):
    """Decide via the split criteria with a trace constant a.

    shared_a=True is the commutator-space criterion (one a for both
    sides); shared_a=False allows independent constants, which
    characterizes membership up to a finite-rank correction.
    """
    vfs, vb = md.omega_tests(I)
    if "inconclusive" in (vfs.answer, vb.answer):
        return inconclusive("omega tests undecided: %s / %s"
                            % (vfs.reason, vb.reason))
    wfs, wb = vfs.answer == "yes", vb.answer == "yes"
    heads = head_values(T_fs, K, ppo)
    tails = tail_values(T_b, K, ppo)
    fs_status, fs_cand = _fs_candidates(heads, wfs)
    b_status, b_cand = _b_candidates(tails, wb)

    if fs_status == "impossible":
        return not_member({"side": "fs", "reason":
                           "head trace diverges with no absorbing omega_fs"})
    if b_status == "impossible":
        return not_member({"side": "b", "reason":
                           "tail trace diverges with no absorbing omega_b"})

    if shared_a and fs_status == "forced" and b_status == "forced":
        a1, a2 = fs_cand[0], b_cand[0]
        scale = max(1.0, abs(a1), abs(a2))
        if abs(a1 - a2) > 1e-6 * scale:
            return not_member(
                {"side": "both", "reason":
                 "forced constants disagree: %r vs %r" % (a1, a2)})
        cands = [a1]
    elif shared_a:
        cands = []
        for c in fs_cand + b_cand:
            if all(abs(c - o) > 1e-12 for o in cands):
                cands.append(c)
        if 0.0 not in cands and not any(abs(c) < 1e-15 for c in cands):
            cands.append(0.0)
    else:
        cands = None  # sides handled independently below

    if not shared_a:
        fs_res = _best_side(lambda a: decide_fs(T_fs, I, a, heads=heads),
                            fs_cand, fs_status)
        b_res = _best_side(lambda a: decide_b(T_b, I, a, tails=tails),
                           b_cand, b_status)
        return _combine_sides(fs_res, b_res)

    results = []
    for a in cands:
        fs_res = decide_fs(T_fs, I, a, heads=heads)
        b_res = decide_b(T_b, I, a, tails=tails)
        if fs_res.answer == "yes" and b_res.answer == "yes":
            cert = WitnessCertificate(a=a, h_fs=fs_res.h, h_b=b_res.h)
            return member(cert, "split criteria hold with a=%r" % a)
        results.append((a, fs_res, b_res))
    # no candidate worked; a rejection is sound only at a value of a that
    # every admissible witness must use
    if wfs and wb:
        forced_a = 0.0
    elif fs_status == "forced" and (wb or b_status == "forced"):
        forced_a = fs_cand[0]
    elif b_status == "forced" and wfs:
        forced_a = b_cand[0]
    else:
        forced_a = None
    if forced_a is not None:
        for a, fs_res, b_res in results:
            if abs(a - forced_a) > 1e-12:
                continue
            for side, res in (("fs", fs_res), ("b", b_res)):
                if res.answer == "no":
                    return not_member(
                        {"side": side, "a": a, "r": res.worst[0],
                         "required": res.worst[1], "reason": res.reason})
        return inconclusive("side tests undecided at the forced a")
    return inconclusive("constant a not determined by trace limits")


def _best_side(decider, cands, status):
    picked = None
    for a in cands or [0.0]:
        res = decider(a)
        if res.answer == "yes":
            return ("yes", a, res)
        picked = (res.answer, a, res)
    if status in ("forced",) and picked and picked[0] == "no":
        return picked
    if picked and picked[0] == "no" and status == "free":
        return picked
    if picked is None:
        return ("inconclusive", 0.0,
                SideResult("inconclusive", reason="no candidates"))
    if status == "unsettled":
        return ("inconclusive", picked[1],
                SideResult("inconclusive", reason="trace limit unsettled"))
    return picked


def _combine_sides(fs_res, b_res):
    af, ares = fs_res[0], fs_res[2]
    ab, bres = b_res[0], b_res[2]
    if af == "yes" and ab == "yes":
        cert = WitnessCertificate(a=complex(fs_res[1]),
                                  h_fs=ares.h, h_b=bres.h)
        return member(cert, "independent side constants a_fs=%r a_b=%r"
                      % (fs_res[1], b_res[1]))
    for side, ans, res, a in (("fs", af, ares, fs_res[1]),
                              ("b", ab, bres, b_res[1])):
        if ans == "no":
            ob = {"side": side, "a": a, "reason": res.reason}
            if res.worst:
                ob.update({"r": res.worst[0], "required": res.worst[1]})
            return not_member(ob)
    return inconclusive("side tests undecided")


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
    res = _decide_samples(samples, IJ, 1.0, fit_head=True,
                          fit_tail=False, tail="hold")
    if res.answer == "yes":
        cert = WitnessCertificate(h_fs=res.h, total_count=12)
        return member(cert, res.reason)
    if res.answer == "no":
        return not_member({"side": "fs", "r": res.worst[0],
                           "required": res.worst[1], "reason": res.reason})
    return inconclusive(res.reason)


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
    for k in idx:
        for ell in range(k + 1, K + 1):
            lhs = abs(P[ell] - P[k])
            rhs = 2.0 ** k * phival[k] + 2.0 ** ell * phival[ell]
            if lhs > rhs * (1.0 + 1e-9) + 1e-300:
                raise DomainError(
                    "summed-block bound violated at (%d, %d)" % (k, ell))
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
    inner block operators."""
    m = so.mu(T)
    if df.limit_at_inf(m) > 0.0:
        raise DomainError("certificate requires vanishing singular values")
    phi = df.combine(h, m, "sum")
    # two-variable bound probe on the dyadic grid
    levels = list(range(-K, K + 1))
    edges = {i: so.dist_fun(m, m(2.0 ** i)) for i in levels}
    cumul = {-K: 0.0 + 0.0j}
    for i in levels[:-1]:
        cumul[i + 1] = cumul[i] + so.integrate_v(T, edges[i], edges[i + 1])
    for i in levels:
        for j in levels:
            if j <= i:
                continue
            r, s = 2.0 ** i, 2.0 ** j
            lhs = abs(cumul[j] - cumul[i])
            rhs = r * h(r) + s * h(s)
            if lhs > rhs * (1.0 + 1e-9) + 1e-12:
                raise DomainError(
                    "criterion bound fails at (r, s)=(%g, %g)" % (r, s))
    alpha = {}
    for n in range(-K, K):
        alpha[n] = 2.0 ** -n * so.integrate_v(T, 2.0 ** n, 2.0 ** (n + 1))
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
    cert = dec.certificate
    hs = [h for h in (cert.h_fs, cert.h_b) if h is not None]
    if not hs:
        return dec
    h = hs[0] if len(hs) == 1 else df.combine(hs[0], hs[1], "sum")
    if abs(cert.a) > 0:
        h = df.combine(h, df.scale_fun(md.omega_fs(), abs(cert.a)), "sum")
    for j in range(13):
        try:
            full = fdh_certificate(T, df.scale_fun(h, 2.0 ** j), K)
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
    beyond the list (positive reals assumed for the tail).
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
        Sn = S
        for i in range(1, K + 1):
            ell = n0 * 2.0 ** i
            samples.append((ell, max(0.0, abs(Sn) / ell)))
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
    if all(v == 0.0 for _, v in samples):
        return member(WitnessCertificate(h_b=df.zero()), "Cesaro means vanish")
    h, info = df.envelope_majorant(samples, INF, fit_head=False,
                                   fit_tail=True, tail="hold")
    v = md.contains(I_d, h)
    if v.answer == "yes":
        return member(WitnessCertificate(h_b=h), v.reason)
    resid = (info["tail"] or {}).get("resid", 0.0)
    if v.answer == "no" and resid <= FIT_RESID_TOL:
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

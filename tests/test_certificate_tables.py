"""Certificate layers computed from per-point tables.

commutator.fdh_certificate splits into an h-free table of T and a test
of h against it, _attach_block_data builds that table once for all its
witness scalings, beta_sequence checks its summed blocks as one array
comparison, brown.phi_table integrates the probe bands of T in one batch,
and brown.verify_certificate tables V's side of its bound per probe
point.  The pair loops below are the definitions they replace; every
outcome must equal theirs bit for bit, errors included.
"""

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from commcalc import brown as br
from commcalc import cli
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import modules as md
from commcalc import serialize as sz
from commcalc import specop as so
from commcalc.decfun import INF, DomainError, Seg, Term

DIGESTS = os.path.join(os.path.dirname(__file__), "brown_digests.json")


# ---------------------------------------------------------------------------
# the pair loops the tables replace


def ref_beta_sequence(alpha, phi, K):
    idx = list(range(-K, K + 1))
    a = {n: float(alpha.get(n, 0.0)) for n in idx}
    phival = {n: phi(2.0 ** n) for n in idx}
    P = {-K: 0.0}
    for n in idx:
        P[n + 1] = P[n] + 2.0 ** n * a[n]
    for k in idx:
        for ell in range(k + 1, K + 1):
            lhs = abs(P[ell] - P[k])
            rhs = 2.0 ** k * phival[k] + 2.0 ** ell * phival[ell]
            if lhs > rhs * (1.0 + 1e-9) + 1e-12:
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


def ref_fdh_certificate(T, h, K=40):
    m = so.mu(T)
    if df.limit_at_inf(m) > 0.0:
        raise DomainError("certificate requires vanishing singular values")
    phi = df.combine(h, m, "sum")
    levels = list(range(-K, K + 1))
    # the same exact edges as the table: this reference checks the pair
    # loop, not the edges
    edges = {i: so.edge(m, 2.0 ** i) for i in levels}
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
    iv_re, beta_re = ref_beta_sequence(
        {n: v.real for n, v in alpha.items()}, phi, K)
    iv_im, beta_im = ref_beta_sequence(
        {n: v.imag for n, v in alpha.items()}, phi, K)
    blocks = []
    for n in range(-K, K):
        s_bound = 2.0 * m(2.0 ** n)
        blocks.append({"n": n, "S_norm_bound": s_bound,
                       "X_norm_bound": 12.0 * s_bound,
                       "Y_norm_bound": 2.0, "commutators": 10})
    return cm.WitnessCertificate(
        a=0.0, h_fs=None, h_b=None, alpha=alpha,
        beta={n: (beta_re[n], beta_im[n]) for n in beta_re},
        beta0_interval=(iv_re, iv_im), phi=phi,
        block_bounds=tuple(blocks), total_count=14)


def ref_attach_block_data(T, dec, K=40):
    cert = dec.certificate
    hs = [h for h in (cert.h_fs, cert.h_b) if h is not None]
    if not hs:
        return dec
    h = hs[0] if len(hs) == 1 else df.combine(hs[0], hs[1], "sum")
    if abs(cert.a) > 0:
        h = df.combine(h, df.scale_fun(md.omega_fs(), abs(cert.a)), "sum")
    for j in range(13):
        try:
            full = ref_fdh_certificate(T, df.scale_fun(h, 2.0 ** j), K)
        except (DomainError, OverflowError):
            continue
        cert2 = cm.WitnessCertificate(
            a=cert.a, h_fs=cert.h_fs, h_b=cert.h_b, alpha=full.alpha,
            beta=full.beta, beta0_interval=full.beta0_interval,
            phi=full.phi, block_bounds=full.block_bounds, total_count=14)
        note = "" if j == 0 else " (witness scaled by 2^%d)" % j
        return cm.Decision("member", cert2, None, dec.notes + note)
    return dec


def ref_build_V(T, h=None):
    atoms = [(z, 4.0 * mass)
             for z, mass in br.brown_of_normal(br._abs_op(T)).atoms]
    if h is not None and not h.is_zero():
        hop = so.make_op(h.segs, so.II_INF, validate=False)
        atoms += [(z, 4.0 * mass)
                  for z, mass in br.brown_of_normal(hop).atoms]
    V = br.normal_model(br.BrownMeasure(tuple(atoms)))
    lhs = table_of(ref_phi_of(T))
    for _ in range(60):
        rep = br.verify_certificate(lhs, V, "F")
        if rep["ok"]:
            return V, lhs
        factor = 2.0 ** math.ceil(math.log2(max(rep["worst_ratio"], 2.0)))
        atoms = [(z, factor * mass) for z, mass in atoms]
        V = br.normal_model(br.BrownMeasure(tuple(atoms)))
    raise DomainError("certificate amplification did not converge")


def ref_phi_of(T):
    return lambda r, s: br.phi(T, r, s)


def table_of(F):
    """|F(r, s)| over the probe pairs r < s, called in row-major order."""
    pts = br.PROBE_PTS.tolist()
    return np.array([abs(F(r, s)) for k, r in enumerate(pts)
                     for s in pts[k + 1:]])


def ref_class_bound(V, nu_V, cls):
    """(r, s) -> the class bound of V, the float each pair computes; the
    part of one probe point is computed once and kept."""
    parts = {}
    if cls == "F":
        def part(x):
            if x not in parts:
                parts[x] = x * so.distribution(V, x)
            return parts[x]

        return lambda r, s: part(r) + part(s)
    if cls == "G":
        def part(x):
            if x not in parts:
                parts[x] = [x * math.log(q) if (q := abs(z) / x) > 1.0
                            else 0.0 for z, _ in nu_V.atoms]
            return parts[x]

        def bound(r, s):
            acc = 0.0
            for (_, mass), a, b in zip(nu_V.atoms, part(r), part(s)):
                acc += mass * (a + b)
            return acc

        return bound
    raise ValueError("unknown class %r" % cls)


def ref_verify_certificate(F, V, cls):
    nu_V = br.brown_of_normal(V) if cls == "G" else None
    class_bound = ref_class_bound(V, nu_V, cls)
    pts = np.geomspace(2.0 ** -20, 2.0 ** 20, 40)
    worst = 0.0
    worst_rs = (pts[0], pts[1])
    violations = 0
    for i, r in enumerate(pts):
        for s in pts[i + 1:]:
            lhs = abs(F(r, s))
            if lhs == 0.0:
                continue
            bound = class_bound(r, s)
            ratio = lhs / bound if bound > 0.0 else INF
            if ratio > worst:
                worst, worst_rs = ratio, (float(r), float(s))
            if ratio > 1.0 + 1e-9:
                violations += 1
    return {"ok": violations == 0, "class": cls, "worst_ratio": worst,
            "worst_rs": worst_rs, "violations": violations}


# ---------------------------------------------------------------------------
# outcomes, as bits


def _hex(x):
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return float(x).hex()


def cert_bits(cert):
    return {
        "a": _hex(complex(cert.a)), "h": (cert.h_fs, cert.h_b),
        "alpha": sorted((n, _hex(v)) for n, v in cert.alpha.items()),
        "beta": sorted((n, _hex(re), _hex(im))
                       for n, (re, im) in cert.beta.items()),
        "beta0_interval": [[_hex(x) for x in iv]
                           for iv in cert.beta0_interval],
        "phi": cert.phi,
        "blocks": [sorted((k, _hex(v)) for k, v in b.items())
                   for b in cert.block_bounds],
        "total_count": cert.total_count,
    }


def decision_bits(dec):
    cert = dec.certificate
    block = "no block data" if cert.alpha is None else cert_bits(cert)
    return dec.answer, dec.notes, block


def table_bits(lhs):
    return [x.hex() for x in lhs.tolist()]


def report_bits(rep):
    return (rep["ok"], rep["class"], _hex(rep["worst_ratio"]),
            tuple(_hex(x) for x in rep["worst_rs"]), rep["violations"])


def outcome(fn, bits, *args):
    """bits of fn's result, or the type and message of what it raises."""
    try:
        return "ok", bits(fn(*args))
    except Exception as exc:  # the loops define which errors are right
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# random operators and witnesses


def balanced(atoms):
    """The atoms plus one unit-mass atom that cancels the trace."""
    return atoms + [(-sum(z * m for z, m in atoms), 1.0)]


atom_lists = st.lists(
    st.tuples(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                 allow_infinity=False),
              st.floats(0.1, 2.0)),
    min_size=1, max_size=4)


@st.composite
def operators(draw):
    """Atom operators, balanced or raw, and power heads c t^-p on (0, a)
    with atoms below them; the last atom may be tiny."""
    atoms = draw(atom_lists)
    if draw(st.booleans()):
        atoms = balanced(atoms)
    atoms = [(z, m) for z, m in atoms if abs(z) > 1e-3]
    assume(atoms)
    if draw(st.booleans()):
        # a band sum near the absolute slack of the two-variable bound
        atoms.append((draw(st.floats(1e-13, 1e-10)),
                      draw(st.floats(0.1, 2.0))))
    if draw(st.booleans()):
        return so.from_atoms(atoms)
    p = draw(st.sampled_from([0.25, 0.5, 0.75]))
    a, c = draw(st.floats(0.05, 2.0)), draw(st.floats(0.1, 3.0))
    phase = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    top = max(abs(z) for z, _ in atoms)
    shrink = min(1.0, c * a ** -p / top)
    segs, lo = [Seg(0.0, a, (Term(c, p),), phase)], a
    for z, m in sorted(atoms, key=lambda zm: -abs(zm[0])):
        segs.append(Seg(lo, lo + m, (Term(abs(z) * shrink),), z / abs(z)))
        lo += m
    try:
        return so.make_op(segs)
    except DomainError:
        assume(False)


@st.composite
def witnesses(draw):
    """Nonincreasing h: zero, a tiny constant that fails at every 2^j,
    or a power head and steps that may end in a zero segment."""
    kind = draw(st.sampled_from(["zero", "tiny", "shaped", "shaped"]))
    if kind == "zero":
        return df.zero()
    if kind == "tiny":
        return df.const(1e-30)
    level = draw(st.sampled_from([0.01, 0.3, 1.0, 5.0, 40.0, 500.0]))
    p = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    cuts = sorted(set(draw(st.lists(st.floats(0.01, 50.0), min_size=1,
                                    max_size=3))))
    segs = [Seg(0.0, cuts[0], (Term(level * cuts[0] ** p, p),))]
    level = level * draw(st.floats(0.2, 1.0))
    for lo, hi in zip(cuts, cuts[1:] + [INF]):
        terms = (Term(level),) if draw(st.booleans()) or hi < INF else ()
        segs.append(Seg(lo, hi, terms))
        level *= draw(st.floats(0.2, 1.0))
    try:
        return df.make(segs)
    except DomainError:
        assume(False)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(T=operators(), h=witnesses(), K=st.sampled_from([2, 5, 12, 40]))
def test_fdh_certificate_equals_the_pair_loop(T, h, K):
    assert (outcome(cm.fdh_certificate, cert_bits, T, h, K)
            == outcome(ref_fdh_certificate, cert_bits, T, h, K))


@settings(max_examples=40, deadline=None)
@given(T=operators(), h1=st.none() | witnesses(),
       h2=st.none() | witnesses(),
       a=st.sampled_from([0.0, 0.5, 1.5 - 2j]),
       K=st.sampled_from([3, 8, 40]))
def test_block_data_equals_the_scaling_loop(T, h1, h2, a, K):
    dec = cm.member(cm.WitnessCertificate(a=a, h_fs=h1, h_b=h2), "criteria")
    assert (outcome(cm._attach_block_data, decision_bits, T, dec, K)
            == outcome(ref_attach_block_data, decision_bits, T, dec, K))


def test_absolute_slack_does_not_scale_with_the_witness():
    # the witness vanishes from 1.5 on, so the band (2, 3] of the 3e-12
    # atom meets only the 1e-12 slack, at every scaling 2^j of h
    T = so.from_atoms([(1.0, 1.0), (-1.0, 1.0), (3e-12, 1.0)])
    h = df.make([Seg(0.0, 1.5, (Term(10.0),)), Seg(1.5, INF, ())])
    dec = cm.member(cm.WitnessCertificate(h_fs=h), "criteria")
    for K in (3, 40):
        assert decision_bits(cm._attach_block_data(T, dec, K)) == (
            "member", "criteria", "no block data")
        assert (decision_bits(ref_attach_block_data(T, dec, K))
                == ("member", "criteria", "no block data"))


# the golden +-1 pair, a constant profile on (0, 2), so that every band
# edge below 2 is 2; with 1/2 on (2, 4) after it the running trace steps
# from 0 to 1 at 2
PAIR = [(1.0, 1.0), (-1.0, 1.0)]
PAIR_AND_HALF = PAIR + [(0.5, 2.0)]
# 1/t on (0, 0.3), then 0: r h(r) = 1 holds every pair from r < 0.3, and
# the first pair from r = 1/2 on has the bound 0 at both of its points
HOPELESS = df.make([Seg(0.0, 0.3, (Term(1.0, 1.0),)), Seg(0.3, INF, ())])


def counted_tests(monkeypatch):
    """The results of the pair tests of the witness scalings and the
    witnesses of the block data runs of _attach_block_data, recorded as
    they happen; the summed-block tests inside a block data run are the
    same pair test and are not counted."""
    pairs, blocks, inside = [], [], []
    failing_pair, block_data = cm._failing_pair, cm._block_data

    def counted_pair(lhs, row):
        pair = failing_pair(lhs, row)
        if not inside:
            pairs.append(pair)
        return pair

    def counted_block(table, h):
        blocks.append(h)
        inside.append(h)
        try:
            return block_data(table, h)
        finally:
            inside.pop()

    monkeypatch.setattr(cm, "_failing_pair", counted_pair)
    monkeypatch.setattr(cm, "_block_data", counted_block)
    return pairs, blocks


@pytest.mark.parametrize("atoms, h, tries", [
    (PAIR_AND_HALF, df.zero(), 1),  # a zero witness gets one try
    (PAIR_AND_HALF, HOPELESS, 1),  # no scaling moves a bound of 0
    (PAIR_AND_HALF, df.const(1e-30), 13),  # each scaling fails
    # a witness that rises from 0 (unvalidated): a bound of 0 at r alone
    # is moved by scaling, so the search goes on
    (PAIR_AND_HALF, df.make([Seg(0.0, 1.0, ()), Seg(1.0, INF, (Term(0.1),))],
                            validate=False), 13),
    # every pair holds, and the summed blocks at (-40, 1) tie with their
    # bound: the one rule's slack takes the tie, so block data at one try
    ([(1.37, 1.0), (-1.37, 1.0)], df.zero(), 1),
])
def test_block_data_stop_where_no_scaling_helps(monkeypatch, atoms, h,
                                                 tries):
    T = so.from_atoms(atoms)
    dec = cm.member(cm.WitnessCertificate(h_fs=h), "criteria")
    want = decision_bits(ref_attach_block_data(T, dec))
    assert want[1].startswith("criteria")
    pairs, blocks = counted_tests(monkeypatch)
    assert decision_bits(cm._attach_block_data(T, dec)) == want
    assert len(pairs) == tries
    # block data are built exactly for the scalings whose pairs hold
    assert len(blocks) == pairs.count(None)


# witness coefficients at the edges of the float range, where a row t h(t)
# may hold subnormals or overflow at some scaling 2^j: each outcome is the
# scaling loop's
EDGE_COEFFS = [5e-324, 1e-310, 2.2250738585072014e-308, 2.0 ** -980, 1e-300,
               1.0, 2.0 ** 960, 2.0 ** 972, 2.0 ** 973, 1e300, 1.7e308]


@pytest.mark.parametrize("c", EDGE_COEFFS)
@pytest.mark.parametrize("shape", ["const", "power", "log", "steep"])
def test_block_data_at_the_float_range_edges(c, shape):
    if shape == "const":
        h = df.const(c)
    elif shape == "steep":
        # t^-400 passes the float range at the small dyadic points, where
        # the power itself raises OverflowError
        h = df.make([Seg(0.0, 0.5, (Term(c, 400.0),)), Seg(0.5, INF, ())])
    elif shape == "power":
        h = df.make([Seg(0.0, 2.0, (Term(c, 0.5), Term(c / 4.0))),
                     Seg(2.0, INF, (Term(c / 2.0, 0.75),))])
    else:
        # c/2 t^-1/2 |log t|^-1 decreases on (0, e^-2)
        h = df.make([Seg(0.0, 0.1, (Term(c / 2.0, 0.5, 1.0),)),
                     Seg(0.1, INF, (Term(c / 4.0 * 0.1 ** -0.5
                                         / math.log(10.0)),))])
    for atoms in (PAIR, PAIR_AND_HALF, [(c, 1.0), (-c, 1.0)]):
        T = so.from_atoms(atoms)
        dec = cm.member(cm.WitnessCertificate(h_fs=h), "criteria")
        for K in (12, 40):
            assert (outcome(cm._attach_block_data, decision_bits, T, dec, K)
                    == outcome(ref_attach_block_data, decision_bits, T,
                               dec, K))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), K=st.integers(1, 12))
def test_beta_sequence_equals_the_pair_loop(data, K):
    # alpha from a beta sequence within phi passes; a bump makes it fail
    c, p = data.draw(st.floats(0.5, 4.0)), data.draw(st.floats(0.0, 0.9))
    phi = df.power_fun(c, p)
    u = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * K + 2,
                           max_size=2 * K + 2))
    beta = {n: u[n + K + 1] * phi(2.0 ** (n + 1))
            for n in range(-K - 1, K + 1)}
    alpha = {n: beta[n - 1] - 2.0 * beta[n] for n in range(-K, K + 1)}
    bump = data.draw(st.sampled_from([0.0, 1e-9, 0.5, 40.0]))
    alpha[data.draw(st.integers(-K, K))] += bump
    assert (outcome(cm.beta_sequence, repr, alpha, phi, K)
            == outcome(ref_beta_sequence, repr, alpha, phi, K))


def test_summed_block_slack_absorbs_a_subnormal_sum():
    # phi vanishes from 1 on, so the block sum 4e-305 at (2, 3) meets only
    # the absolute slack of the one rule, the pair test's 1e-12
    phi = df.make([Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, INF, ())])
    got = outcome(cm.beta_sequence, repr, {2: 1e-305}, phi, 4)
    assert got[0] == "ok"
    assert got == outcome(ref_beta_sequence, repr, {2: 1e-305}, phi, 4)


# the modules of the golden rows whose +-1 pair met the summed-block
# bound with equality: f_zero_trace_pair, lp_half_b_zero, lp_two_fs_zero
# and example_ii_zero
TIE_MODULES = [md.F(), md.BPart(md.Lp(0.5)), md.FsPart(md.Lp(2.0)),
               md.Sum(md.FsPart(md.Lp(2.0)), md.BPart(md.Lp(0.5)))]


def assert_pair_has_block_data(s, u, I):
    T = so.from_atoms([(s * u, 1.0), (-s * u, 1.0)])
    dec = cm.member_IIinf(T, I, md.M())
    assert dec.answer == "member"
    cert = dec.certificate
    assert None not in (cert.alpha, cert.beta, cert.phi), dec.notes


@settings(max_examples=40, deadline=None)
@given(s=st.floats(-60.0, 12.0).map(lambda e: 2.0 ** e),
       u=st.sampled_from([1.0, -1.0, 1j, -1j]))
@example(s=1.37, u=1.0)
def test_a_zero_trace_pair_carries_block_data(s, u):
    # the summed blocks of the zero witness tie with their bound at
    # (-40, 1) in exact arithmetic; the pair test's slack takes the tie
    # whichever way it rounds
    for I in TIE_MODULES:
        assert_pair_has_block_data(s, u, I)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the absolute slack "
                   "1e-12 does not grow with s, nor does beta_0's snap "
                   "tolerance 1e-9 max(1, |lo|, |hi|)")
@pytest.mark.parametrize("I", TIE_MODULES)
def test_a_large_zero_trace_pair_loses_its_block_data(I):
    assert_pair_has_block_data(1.37 * 2.0 ** 14, 1.0, I)


@st.composite
def certificate_operators(draw):
    """V for the class bounds: positive atoms, or a power profile whose
    spectral measure is chopped into many atoms."""
    if draw(st.booleans()):
        return so.from_atoms([(abs(z) + 1e-3, m)
                              for z, m in draw(atom_lists)])
    c, p = draw(st.floats(0.1, 4.0)), draw(st.sampled_from([0.3, 0.7]))
    return so.make_op([Seg(0.0, draw(st.floats(0.1, 4.0)), (Term(c, p),))])


@settings(max_examples=40, deadline=None)
@given(T=operators())
def test_phi_table_equals_the_pair_loop(T):
    # the floats of abs(phi) pair by pair, and the first error it raises
    assert (outcome(br.phi_table, table_bits, T)
            == outcome(table_of, table_bits, ref_phi_of(T)))


def verified(T, V, cls):
    return br.verify_certificate(br.phi_table(T), V, cls)


@settings(max_examples=40, deadline=None)
@given(T=operators(), V=certificate_operators())
def test_verify_certificate_equals_the_pair_loop(T, V):
    for cls, W in (("F", V), ("G", so.scale_op(V, math.e))):
        assert (outcome(verified, report_bits, T, W, cls)
                == outcome(ref_verify_certificate, report_bits,
                           ref_phi_of(T), W, cls))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cls=st.sampled_from(["F", "G"]), huge=st.booleans())
def test_verify_certificate_with_nan_inf_and_ties(data, cls, huge):
    # |F| may be 0, NaN, inf or tied at the maximum; a huge V makes the
    # class-G bound overflow to inf, so inf / inf ratios are NaN.  One
    # drawn value fills the pairs, and up to 24 pairs get values of their
    # own.
    V = so.from_atoms([(1e308, 1e308)] if huge else [(2.0, 1.5), (0.5, 1.0)])
    pts = br.PROBE_PTS.tolist()
    pairs = [(r, s) for k, r in enumerate(pts) for s in pts[k + 1:]]
    value = st.sampled_from([0.0, math.nan, INF, 1e-300, 0.5, 3.0, 1e308])
    table = dict.fromkeys(pairs, data.draw(value))
    own = data.draw(st.dictionaries(st.sampled_from(pairs), value,
                                    max_size=24))
    table.update(own)

    def F(r, s):
        return complex(table[float(r), float(s)])

    with warnings.catch_warnings():
        # both sides warn on overflow in float64 arithmetic
        warnings.simplefilter("ignore", RuntimeWarning)
        assert (outcome(br.verify_certificate, report_bits, table_of(F), V,
                        cls)
                == outcome(ref_verify_certificate, report_bits, F, V, cls))


def test_verify_certificate_on_the_full_grid():
    T = so.from_atoms(balanced([(1.5 - 0.5j, 0.75), (0.2 + 0.9j, 0.4)]))
    V, lhs = br.build_V(T)
    for cls, W in (("F", V), ("G", so.scale_op(V, math.e))):
        rep = br.verify_certificate(lhs, W, cls)
        assert rep["ok"]
        assert report_bits(rep) == report_bits(
            ref_verify_certificate(ref_phi_of(T), W, cls))


def test_class_G_bound_of_atoms_far_below_the_probes(tmp_path):
    # |z| / r underflows to 0 for a 5e-324 atom and r >= 2, where
    # max(0, log(|z| / r)) raised a math domain error; the term is 0
    V = so.from_atoms([(5e-324, 1.0), (-5e-324, 1.0)])
    lhs = table_of(lambda r, s: 1e-300)
    rep = br.verify_certificate(lhs, V, "G")
    assert report_bits(rep) == report_bits(
        ref_verify_certificate(lambda r, s: 1e-300, V, "G"))
    assert rep["violations"] == 780
    path = tmp_path / "query.json"
    path.write_text(json.dumps({
        "schema_version": sz.SCHEMA_VERSION,
        "operator": sz.op_to_json(so.make_op(
            [Seg(0.0, 1.0, (Term(5e-324),)),
             Seg(1.0, 2.0, (Term(5e-324),), -1.0)])),
        "module_I": sz.module_to_json(md.F())}))
    out = tmp_path / "out"
    assert cli.main(["brown", "--input", str(path), "--out", str(out)]) \
        == cli.EXIT_OK
    doc = json.loads((out / "member_F.json").read_text())
    assert doc["decision"]["answer"] == "member"
    assert doc["decision"]["notes"].endswith(
        "band-functional certificate verified")


def test_phi_checks_its_arguments_on_every_call():
    T = so.from_atoms([(1.0, 1.0)])
    for _ in range(2):
        assert outcome(br.phi, repr, T, 2.0, 1.0) == (
            DomainError, "need 0 < r <= s")
    assert br.phi(T, 0.5, 0.5) == 0.0 + 0.0j
    assert br.phi(T, 0.5, 2.0) == 1.0 + 0.0j


def test_unknown_class_is_refused():
    V = so.from_atoms([(1.0, 1.0)])
    with pytest.raises(ValueError, match="unknown class 'H'"):
        br.verify_certificate(table_of(lambda r, s: 1.0), V, "H")


# ---------------------------------------------------------------------------
# pinned member_F reports

# atom documents with module_I = L_1: balanced ones reach member_F's
# certificates, at witness scalings 2^0, 2^3 and 2^5, and one whose block
# data fail at every scaling; raw ones are rejected
DOCS = {
    "balanced_two": balanced([(1.5 - 0.5j, 0.75)]),
    "balanced_three": balanced([(0.3 + 1.1j, 0.4), (-2.0 + 0.2j, 0.9)]),
    "balanced_four": balanced([(1.0, 1.2), (0.5j, 0.3), (-0.7 - 0.7j, 0.6)]),
    "balanced_scaled_by_8": balanced([(0.06 + 0.06j, 1.33),
                                      (0.26 + 1.01j, 1.48),
                                      (0.86 - 0.89j, 1.45),
                                      (-2.19 - 0.55j, 0.47)]),
    "balanced_scaled_by_32": balanced([(-1.84 - 1.59j, 0.23),
                                       (-1.33 + 1.84j, 1.26),
                                       (0.08 + 0.08j, 0.92)]),
    "raw_two": [(0.8 + 0.6j, 0.5), (-1.2 + 0.3j, 1.0)],
    "raw_four": [(1.0 - 1.0j, 0.3), (0.4 + 0.2j, 1.2), (-0.6, 0.7),
                 (2.0j, 0.45)],
}


def brown_report(atoms, tmp_dir):
    """stdout of `commcalc brown` on the atoms against L_1, as bytes."""
    doc = {"schema_version": sz.SCHEMA_VERSION,
           "operator": sz.op_to_json(so.from_atoms(atoms)),
           "module_I": sz.module_to_json(md.Lp(1.0))}
    path = os.path.join(tmp_dir, "query.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(out):
        code = cli.main(["brown", "--input", path, "--format", "json"])
    assert code == cli.EXIT_OK
    return out.buffer.getvalue()


def brown_digests(tmp_dir):
    return {name: hashlib.sha256(brown_report(atoms, tmp_dir)).hexdigest()
            for name, atoms in DOCS.items()}


def test_member_F_checks_class_F_once(monkeypatch):
    # build_V returns V once class F holds on member_F's own grid, so
    # member_F is left with class G: one passing class-F check per query
    checks = []
    verify = br.verify_certificate

    def recorded(lhs, V, cls):
        rep = verify(lhs, V, cls)
        checks.append((cls, rep["ok"]))
        return rep

    monkeypatch.setattr(br, "verify_certificate", recorded)
    verified = 0
    for atoms in DOCS.values():
        checks.clear()
        dec = br.member_F(so.from_atoms(atoms), md.Lp(1.0))
        if "certificate verified" in dec.notes:
            verified += 1
            assert checks[-2:] == [("F", True), ("G", True)]
            assert checks.count(("F", True)) == 1
    assert verified >= 3


def test_member_F_integrates_the_probe_bands_in_one_call(monkeypatch):
    # the 780 probe bands of T go to one integrate_bands call per query,
    # for both classes, and no band of them to integrate_v alone
    sizes = []
    integrate_bands = so.integrate_bands

    def recorded(T, bands):
        bands = list(bands)
        sizes.append(len(bands))
        return integrate_bands(T, bands)

    monkeypatch.setattr(so, "integrate_bands", recorded)
    verified = 0
    for atoms in DOCS.values():
        sizes.clear()
        dec = br.member_F(so.from_atoms(atoms), md.Lp(1.0))
        if "certificate verified" in dec.notes:
            verified += 1
            assert sizes.count(780) == 1
            assert sizes.count(1) <= 2  # side_facts' two trace limits
    assert verified >= 3


def test_pair_table_raises_where_abs_overflows():
    # the running band integrals 1.31e308 and 1.31e308 + 1.29e308j are
    # finite and their distance is not: abs() raises there, and so does
    # the table
    T = so.from_atoms([(6.4e304, 2.0 ** 11), (6.3e304j, 2.0 ** 11)])
    with pytest.raises(OverflowError, match="absolute value too large"):
        cm._certificate_table(T, 12)


def test_member_F_report_bytes(tmp_path):
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    assert brown_digests(str(tmp_path)) == expected


# ---------------------------------------------------------------------------
# float overflow in the block data, and the amplification of V


# 1e308 on (0, 1/2), -1e308 on (1/2, 1), then -t^-2: a member of [K, M]
# whose witness plus mu(T) passes the float range at every scaling
OVERFLOWING = [Seg(0.0, 0.5, (Term(1e308),)),
               Seg(0.5, 1.0, (Term(1e308),), -1.0),
               Seg(1.0, INF, (Term(1.0, 2.0),), -1.0)]


def test_block_data_keep_the_verdict_past_a_float_overflow():
    T = so.make_op(OVERFLOWING)
    dec = cm.member_with_a(*so.split_fs_b(T), md.K())
    assert dec.answer == "member"
    with pytest.raises(OverflowError):
        cm.fdh_certificate(T, dec.certificate.h)
    expected = ("member", "split criteria hold with a=0.0", "no block data")
    assert decision_bits(cm._attach_block_data(T, dec)) == expected
    assert decision_bits(ref_attach_block_data(T, dec)) == expected
    # the pair table itself overflows here
    T = so.from_atoms([(6.4e304, 2.0 ** 11), (6.3e304j, 2.0 ** 11)])
    dec = cm.member(cm.WitnessCertificate(h_fs=df.const(1.0)), "criteria")
    assert decision_bits(cm._attach_block_data(T, dec, 12)) == (
        "member", "criteria", "no block data")
    assert decision_bits(ref_attach_block_data(T, dec, 12)) == (
        "member", "criteria", "no block data")


def v_bits(V_lhs):
    V, lhs = V_lhs
    return V.segs, table_bits(lhs)


@settings(max_examples=40, deadline=None)
@given(T=operators(), h=st.none() | witnesses())
def test_build_V_equals_the_amplification_loop(T, h):
    # one amplification where the loop converges; an infinite ratio, on
    # which the loop raised OverflowError, is a DomainError naming the pair
    got = outcome(br.build_V, v_bits, T, h)
    want = outcome(ref_build_V, v_bits, T, h)
    if want[0] is OverflowError:
        assert got[0] is DomainError
        assert got[1].startswith("class-F bound of V vanishes at (r, s)=")
    else:
        assert got == want


def test_build_V_checks_class_F_at_most_twice(monkeypatch):
    checks = []
    verify = br.verify_certificate

    def recorded(lhs, V, cls):
        rep = verify(lhs, V, cls)
        checks.append(rep["ok"])
        return rep

    monkeypatch.setattr(br, "verify_certificate", recorded)
    amplified = 0
    for atoms in DOCS.values():
        checks.clear()
        br.build_V(so.from_atoms(atoms))
        assert checks in ([True], [False, True])
        amplified += checks == [False, True]
    assert amplified >= 1


# 2 on (0, 3/4), phase 1j, then 3/2 on (3/4, 7/4), phase -5e-324 - 1j: the
# band sums cancel to subnormals, whose ratios a 2^k moves off bit
SUBNORMAL_SUMS = [Seg(0.0, 0.75, (Term(2.0),), 1j),
                  Seg(0.75, 1.75, (Term(1.5),), -5e-324 - 1j)]
TINY = np.finfo(float).tiny  # the least normal float


@settings(max_examples=60, deadline=None)
@given(T=operators(), atoms=atom_lists, k=st.integers(-40, 60))
@example(T=so.make_op(SUBNORMAL_SUMS), atoms=[((1 + 0j), 1.0)], k=1)
@example(T=so.make_op(SUBNORMAL_SUMS), atoms=[((2 + 0j), 1.0)], k=22)
def test_class_F_ratios_scale_exactly_with_the_masses(T, atoms, k):
    # every atom mass times 2^k: each class-F bound times 2^k, and each
    # ratio divided by 2^k bit for bit where it stays a normal float
    # before and after; a subnormal quotient is rounded apart
    atoms = [(z, m) for z, m in atoms if z != 0.0]
    assume(atoms)
    V = so.from_atoms(atoms)
    Vk = so.from_atoms([(z, m * 2.0 ** k) for z, m in atoms])
    pts = br.PROBE_PTS
    i, j = np.triu_indices(len(pts), 1)
    b = br._class_bound(V, "F")(i, j)
    bk = br._class_bound(Vk, "F")(i, j)
    assert (bk == b * 2.0 ** k).all()
    lhs = br.phi_table(T)
    pos = b > 0.0
    ratio, ratio_k = lhs[pos] / b[pos], lhs[pos] / bk[pos]
    normal = (ratio >= TINY) & (ratio_k >= TINY)
    assert (ratio_k[normal] == ratio[normal] / 2.0 ** k).all()
    rep, repk = (br.verify_certificate(lhs, W, "F") for W in (V, Vk))
    # a violation is a ratio above 1 (or infinite), never a subnormal
    # one, so the counts follow the scaled ratios on every draw
    violations = (np.count_nonzero(lhs[~pos] != 0.0)
                  + np.count_nonzero(ratio / 2.0 ** k > 1.0 + 1e-9))
    assert (repk["ok"], repk["violations"]) == (violations == 0, violations)
    if min(rep["worst_ratio"], repk["worst_ratio"]) >= TINY:
        assert repk["worst_ratio"] == rep["worst_ratio"] / 2.0 ** k
        assert repk["worst_rs"] == rep["worst_rs"]


# t^-0.1 on (0, 1), then -1 on (1, 1 + 1/0.9), so that tau = 0; the probe
# grid reaches above the largest modulus of V while T has band mass there
INFINITE_RATIO = [Seg(0.0, 1.0, (Term(1.0, 0.1),)),
                  Seg(1.0, 1.0 + 1.0 / 0.9, (Term(1.0),), -1.0)]


def test_an_infinite_class_F_ratio_is_inconclusive(tmp_path):
    T = so.make_op(INFINITE_RATIO)
    assert cm.member_IIinf(T, md.Lp(1.0), md.M()).answer == "member"
    with pytest.raises(DomainError, match="class-F bound of V vanishes"):
        br.build_V(T, cm.member_IIinf(T, md.Lp(1.0), md.M()).certificate.h)
    dec = br.member_F(T, md.Lp(1.0))
    assert dec.answer == "inconclusive"
    assert dec.notes.startswith("certificate construction failed: class-F"
                                " bound of V vanishes at (r, s)=")
    path = tmp_path / "query.json"
    path.write_text(json.dumps({
        "schema_version": sz.SCHEMA_VERSION, "operator": sz.op_to_json(T),
        "module_I": sz.module_to_json(md.Lp(1.0))}))
    out = tmp_path / "out"
    assert cli.main(["brown", "--input", str(path), "--out", str(out)]) \
        == cli.EXIT_INCONCLUSIVE
    doc = json.loads((out / "member_F.json").read_text())
    assert doc["decision"]["answer"] == "inconclusive"


if __name__ == "__main__":
    # regenerate the pinned digests: python tests/test_certificate_tables.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = brown_digests(tmp)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")

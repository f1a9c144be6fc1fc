"""Batched paths of the decision layers against the per-point code they
replace.

decfun._check_monotone evaluates a segment's probe points at once
(Seg.values) from a cached _probe_points, _scaled reads its samples the
same way, least_decreasing_majorant tiles its steps without normalize,
specop.integrate_bands reuses the float of a band equal to the one before
it, serialize._num builds its error path only when it raises, and the
matrix oracle's trials table mu_t over arrays and take their determinants
from batched SVDs.  The ref_* functions below are the per-point
definitions; every outcome must equal theirs bit for bit, errors included.
(beta_sequence and the certificate table are compared in
test_certificate_tables.)
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcalc import decfun as df
from commcalc import matrix_oracle as mo
from commcalc import serialize as sz
from commcalc import specop as so
from commcalc.decfun import INF, DomainError, Seg, Term

RTOL, ATOL = df.MONOTONE_RTOL, df.MONOTONE_ATOL


# ---------------------------------------------------------------------------
# the per-point definitions


def ref_probe_points(lo, hi, n=17):
    ends = df._probe_ends(lo, hi)
    if ends is None:
        return []
    a, b = ends
    return np.geomspace(a * (1 + 1e-12), b * (1 - 1e-12), n).tolist()


def ref_value_or_inf(seg, t):
    try:
        return seg.value(t)
    except OverflowError:
        return INF


def ref_check_monotone(f):
    prev = INF
    for seg in f.segs:
        hi = min(seg.hi, f.domain_hi)
        if seg.is_const():
            ends = df._probe_ends(seg.lo, hi)
            if ends is not None:
                v = seg.value(ends[0])
                for i, fails in enumerate((v > prev * (1 + RTOL) + ATOL,
                                           v < 0.0)):
                    if fails:
                        raise DomainError("not nonincreasing near t=%g"
                                          % ref_probe_points(seg.lo, hi)[i])
                prev = v
        else:
            for t in ref_probe_points(seg.lo, hi):
                v = ref_value_or_inf(seg, t)
                if v > prev * (1 + RTOL) + ATOL or v < 0.0:
                    raise DomainError("not nonincreasing near t=%g" % t)
                prev = v
        if seg.hi < f.domain_hi:
            prev = min(prev, ref_value_or_inf(seg, seg.hi * (1 - 1e-12)))


def ref_scaled(terms, pairs):
    c = 1.0
    for t, v in pairs:
        tv = sum(tm.value(t) for tm in terms)
        if v > c * tv and tv > 0.0:
            c = v / tv
    return tuple(replace(tm, coeff=tm.coeff * c) for tm in terms)


def ref_least_decreasing_majorant(samples, domain_hi=INF, tail="hold"):
    if not samples:
        raise DomainError("empty sample list")
    ts = [t for t, _ in samples]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("sample scales must be strictly increasing")
    sups, run = [], 0.0
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
            hi = min(ts[i] * (1 + 1e-9), domain_hi)
        segs.append(Seg(ts[i], hi, (Term(v),) if v else ()))
    return df.make(segs, domain_hi, validate=False)


def ref_merge_terms(terms):
    out = {}
    for term in terms:
        if term.coeff == 0.0:
            continue
        key = (term.pow, term.logpow, term.scale)
        out[key] = out.get(key, 0.0) + term.coeff
    return tuple(Term(c, p, lp, s) for (p, lp, s), c in sorted(out.items())
                 if c != 0.0)


def ref_normalize(segs):
    return [Seg(seg.lo, seg.hi, ref_merge_terms(seg.terms), seg.phase)
            for seg in sorted(segs, key=lambda s: s.lo)
            if not seg.hi <= seg.lo]


def ref_integrate_bands(T, bands):
    """integrate_v per band, stopping at the first error."""
    return [so.integrate_v(T, u, w) for u, w in bands]


def ref_num(obj, path, allow_null_inf=False):
    if obj is None and allow_null_inf:
        return INF
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise sz.SchemaError(path, "expected a number, got %r" % (obj,))
    try:
        x = float(obj)
    except OverflowError:
        raise sz.SchemaError(path, "expected a number within the float range")
    if not math.isfinite(x):
        raise sz.SchemaError(path, "expected a finite number")
    return x


def ref_mu_at(sig, t):
    n = len(sig)
    if t >= 1.0:
        return 0.0
    x = t * n
    k = int(x)
    if x - k > 1.0 - 1e-9:
        k += 1
    return float(sig[min(k, n - 1)])


def ref_fk_det_matrix(a):
    n = a.shape[0]
    sig = np.linalg.svd(a, compute_uv=False)
    if sig[-1] <= n * np.finfo(float).eps * sig[0]:
        return 0.0
    return float(math.exp(np.log(sig).sum() / n))


def ref_snumb_trial(rng, n, cfg):
    S = mo._draw(rng, n, mo._KINDS[int(rng.integers(3))])
    T = mo._draw(rng, n, mo._KINDS[int(rng.integers(3))])
    sS, sT = mo._mu_values(S), mo._mu_values(T)
    sST = mo._mu_values(S + T)
    worst = math.inf
    for i in range(n):
        for j in range(n):
            s, t = i / n, j / n
            if s + t >= 1.0:
                continue
            lhs = ref_mu_at(sST, s + t)
            rhs = ref_mu_at(sS, s) + ref_mu_at(sT, t)
            worst = min(worst, rhs - lhs + cfg.tol
                        + cfg.tol * (float(sS[0]) + float(sT[0])))
    return worst


def ref_soplus_trial(rng, n, cfg):
    S = mo._draw(rng, n, mo._KINDS[int(rng.integers(3))])
    T = mo._draw(rng, n, mo._KINDS[int(rng.integers(3))])
    D = np.zeros((2 * n, 2 * n), dtype=complex)
    D[:n, :n] = S
    D[n:, n:] = T
    sS, sT = mo._mu_values(S), mo._mu_values(T)
    sD = mo._mu_values(D)
    worst = math.inf
    for k in range(2 * n):
        a = k / (2 * n)
        best = math.inf
        for i in range(k + 1):
            b, c = i / n, (k - i) / n
            best = min(best, max(ref_mu_at(sS, b), ref_mu_at(sT, c)))
        err = abs(ref_mu_at(sD, a) - best)
        worst = min(worst, cfg.tol + cfg.tol * float(sD[0]) - err)
    return worst


def ref_lemma_nec_trial(rng, n, cfg, N):
    parts = [(mo._draw(rng, n, "gaussian"), mo._draw(rng, n, "gaussian"))
             for _ in range(N)]
    T = sum(A @ B - B @ A for A, B in parts)
    sT = mo._mu_values(T)
    sAB = [(mo._mu_values(A), mo._mu_values(B)) for A, B in parts]

    def h(t):
        acc = (8 * N + 2) * ref_mu_at(sT, t)
        for sA, sB in sAB:
            acc += (16 * N + 4) * ref_mu_at(sA, t) * ref_mu_at(sB, t)
        return acc

    _, sig, vh = np.linalg.svd(T)
    masses = df.dyadic_grid(-((2 * n).bit_length() - 1), 0, 1)[::-1]
    worst = math.inf
    for r in masses:
        for s in masses:
            if s <= r:
                continue
            E = mo._band_projection(sig, vh, ref_mu_at(sT, s),
                                    ref_mu_at(sT, r))
            lhs = abs(np.trace(T @ E)) / n
            rhs = r * h(r) + s * h(s)
            worst = min(worst, rhs - lhs + cfg.tol
                        + cfg.tol * float(sT[0]))
    return worst


def ref_pluri_trial(rng, n, cfg):
    S = mo._draw(rng, n, mo._KINDS[int(rng.integers(3))])
    T = mo._draw(rng, n, mo._KINDS[int(rng.integers(3))])
    eye = np.eye(n)
    lhs = math.log(max(ref_fk_det_matrix(eye + S), 1e-300))
    thetas = 2.0 * np.pi * np.arange(256) / 256
    vals = [math.log(max(ref_fk_det_matrix(
        eye + S + np.exp(1j * th) * T), 1e-300)) for th in thetas]
    m256 = float(np.mean(vals))
    m128 = float(np.mean(vals[::2]))
    quad_err = abs(m256 - m128)
    return m256 - lhs + quad_err + cfg.tol


# ---------------------------------------------------------------------------
# outcomes, as bits


def _hex(x):
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return float(x).hex() if isinstance(x, (int, float)) else repr(x)


def term_bits(terms):
    return [(type(tm).__name__, type(tm.coeff).__name__, _hex(tm.coeff),
             _hex(tm.pow), _hex(tm.logpow), _hex(tm.scale)) for tm in terms]


def plfun_bits(f):
    return _hex(f.domain_hi), [(_hex(s.lo), _hex(s.hi), term_bits(s.terms),
                                repr(s.phase)) for s in f.segs]


def outcome(fn, bits, *args):
    """bits of fn's result, or the type and message of what it raises."""
    try:
        return "ok", bits(fn(*args))
    except Exception as exc:  # the per-point code defines the right errors
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# the probe points and the monotonicity check


@settings(max_examples=100, deadline=None)
@given(lo=st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e200])
       | st.floats(0.0, 1e6),
       hi=st.sampled_from([INF, 1e-310, 1.0, 2.0, 1e308])
       | st.floats(1e-6, 1e9),
       n=st.sampled_from([17, 33, 2]))
def test_probe_points_equal_a_fresh_geomspace(lo, hi, n):
    want = [x.hex() for x in ref_probe_points(lo, hi, n)]
    for _ in range(2):  # computed, then from the cache
        got = df._probe_points(lo, hi, n)
        assert type(got) is tuple
        assert [x.hex() for x in got] == want


# terms whose probe values overflow (1e300 t^-400 near 0, 1e300 t^10 far
# out), raise ValueError (a log of a negative ratio), raise
# ZeroDivisionError (a log factor at its own scale, at one probe point),
# rise, fall below 0, or sit at the subnormal edge
COEFFS = [1.0, 0.5, 3.0, -1.0, -0.25, 1e300, 1e-300, 5e-324, 2e-323]
POWS = [0.0, 0.0, 0.5, 1.0, 2.0, -0.5, -10.0, 400.0]
LOGPOWS = [0.0, 0.0, 0.5, 1.0, -1.0]


@st.composite
def unchecked_profiles(draw):
    """PLFuns built without validation: 1-4 segments of 0-2 terms."""
    domain_hi = draw(st.sampled_from([INF, INF, 1.0]))
    cap = 1.0 if domain_hi < INF else 50.0
    cuts = sorted(set(draw(st.lists(st.floats(1e-3, cap, exclude_max=True),
                                    min_size=0, max_size=3))))
    ends = cuts + [domain_hi if draw(st.booleans()) else cap]
    segs, lo = [], 0.0
    for hi in ends:
        if hi <= lo:
            continue
        terms = []
        for _ in range(draw(st.integers(0, 2))):
            logpow = draw(st.sampled_from(LOGPOWS))
            scale = 1.0
            if logpow:
                probes = ref_probe_points(lo, min(hi, domain_hi))
                scale = draw(st.sampled_from(
                    [1e-9, 1e12, -1.0] + [probes[i] for i in (0, 5, 16)
                                          if i < len(probes)]))
            terms.append(Term(draw(st.sampled_from(COEFFS)),
                              draw(st.sampled_from(POWS)), logpow, scale))
        segs.append(Seg(lo, hi, tuple(terms)))
        lo = hi
    return df.make(segs, domain_hi, validate=False)


@settings(max_examples=300, deadline=None)
@given(f=unchecked_profiles())
def test_check_monotone_equals_the_per_point_loop(f):
    assert (outcome(df._check_monotone, repr, f)
            == outcome(ref_check_monotone, repr, f))


def test_check_monotone_reports_a_failure_before_a_later_error():
    # 100 - 1e-3 |log(t/s)|^-1 falls on (1, 2) up to the sixth probe point
    # s, where the log factor raises ZeroDivisionError; the rising term t
    # fails at a probe before that, and without it the error is the one
    # the loop meets
    s = ref_probe_points(1.0, 2.0)[5]
    falling = (Term(100.0), Term(-1e-3, 0.0, 1.0, s))
    for terms, want in [(falling + (Term(1.0, -1.0),), DomainError),
                        (falling, ZeroDivisionError)]:
        f = df.make([Seg(0.0, 1.0, (Term(200.0),)), Seg(1.0, 2.0, terms)],
                    2.0, validate=False)
        got = outcome(df._check_monotone, repr, f)
        assert got == outcome(ref_check_monotone, repr, f)
        assert got[0] is want


def test_a_subnormal_rise_is_refused():
    # 5e-324 on (0, 1) then 1e-305 on (1, 2): a 2e18-fold rise at t = 1,
    # refused at every scale, as its 2^1000 multiple is
    segs = [Seg(0.0, 1.0, (Term(5e-324),)), Seg(1.0, 2.0, (Term(1e-305),))]
    for k in (0, 1000):
        scaled = [Seg(s.lo, s.hi, (Term(s.terms[0].coeff * 2.0 ** k),))
                  for s in segs]
        with pytest.raises(DomainError, match="not nonincreasing near t=1$"):
            so.make_op(scaled)


def test_subnormal_rounding_is_forgiven_and_negatives_are_not():
    # a sum of subnormal terms may round a few least floats above a
    # constant before it; a value below 0 fails at any scale
    df.make([Seg(0.0, 1.0, (Term(2 * 5e-324),)),
             Seg(1.0, 2.0, (Term(3 * 5e-324),))])
    for c in (-5e-324, -1e-300, -1.0):
        with pytest.raises(DomainError, match="not nonincreasing"):
            df.make([Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, 2.0, (Term(c),))])


@st.composite
def operator_segments(draw):
    """Operator segments c t^-p on (0, 1) and beyond, with mantissas and
    exponents that keep every probe value (at most 2^130 apart) normal
    at each scaling 2^k, -800 <= k <= 800."""
    segs, lo = [], 0.0
    for hi in sorted(set(draw(st.lists(st.floats(0.1, 20.0), min_size=1,
                                       max_size=3)))) + [INF]:
        terms = tuple(Term(draw(st.sampled_from([1.0, -1.0, 1.0])) *
                           draw(st.floats(0.1, 10.0)),
                           draw(st.sampled_from([0.0, 0.5, 1.5, -0.5])))
                      for _ in range(draw(st.integers(1, 2))))
        segs.append(Seg(lo, hi, terms))
        lo = hi
    return segs


@settings(max_examples=150, deadline=None)
@given(segs=operator_segments(), k=st.integers(-800, 800))
def test_monotonicity_is_scale_free(segs, k):
    scaled = [Seg(s.lo, s.hi, tuple(Term(tm.coeff * 2.0 ** k, tm.pow)
                                    for tm in s.terms)) for s in segs]
    assert (outcome(so.make_op, lambda T: "ok", segs)
            == outcome(so.make_op, lambda T: "ok", scaled))


# ---------------------------------------------------------------------------
# normalize: segments whose terms are merged already are kept


class Float(float):
    pass


any_terms = st.lists(st.builds(
    Term, st.sampled_from([1.0, -1.0, 2.5, 0.0, -0.0, 3, math.nan, INF,
                           5e-324, Float(1.5)]),
    st.sampled_from([0.0, 0.5, 1.0, math.nan]),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([1.0, 2.0])), max_size=4)


@settings(max_examples=300, deadline=None)
@given(terms=any_terms, data=st.data())
def test_normalize_equals_the_merging_pass(terms, data):
    if data.draw(st.booleans()):
        terms = list(ref_merge_terms(terms))  # merged, so kept as is
    segs = [Seg(0.0, 1.0, tuple(terms)),
            Seg(data.draw(st.sampled_from([1.0, 0.5, 3.0])), 2.0,
                tuple(terms[::-1]), data.draw(st.sampled_from([1.0, 1j, 1])))]

    def bits(segs):
        return [(_hex(s.lo), _hex(s.hi), term_bits(s.terms), repr(s.phase))
                for s in segs]

    assert bits(df.normalize(segs)) == bits(ref_normalize(segs))


# ---------------------------------------------------------------------------
# step majorants and their scaled end terms


samples_scales = st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1e-3, 0.25, 0.5,
                                           1.0, 2.0, 8.0])
                          | st.floats(1e-6, 1e6), min_size=1, max_size=8,
                          unique=True).map(sorted)
sample_values = st.sampled_from([0.0, -0.0, 1.0, 3, 0.5, -1.0, 1e308, INF,
                                 5e-324]) | st.floats(0.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(ts=samples_scales, data=st.data(),
       domain_hi=st.sampled_from([INF, 1e6, 0.75]),
       tail=st.sampled_from(["hold", "zero"]))
def test_step_majorant_equals_the_make_path(ts, data, domain_hi, tail):
    if data.draw(st.booleans()):
        # no pair with a NaN scale is refused, so the scales around it
        # need not ascend
        i = data.draw(st.integers(0, len(ts)))
        ts = ts[i:] + [math.nan] + ts[:i]
    samples = [(t, data.draw(sample_values)) for t in ts]
    assert (outcome(df.least_decreasing_majorant, plfun_bits, samples,
                    domain_hi, tail)
            == outcome(ref_least_decreasing_majorant, plfun_bits, samples,
                       domain_hi, tail))


def test_step_majorant_of_scales_that_do_not_ascend():
    # no pair holding the NaN is refused: -1 then -2 is not ascending, and
    # make sorts the segments, so the error names -2
    samples = [(-1.0, 1.0), (math.nan, 1.0), (-2.0, 0.5)]
    got = outcome(df.least_decreasing_majorant, plfun_bits, samples)
    assert got == outcome(ref_least_decreasing_majorant, plfun_bits, samples)
    assert got == (DomainError, "overlapping segments at -2")


end_terms = st.lists(st.builds(
    Term, st.sampled_from([1.0, 0.5, 1e300, 5e-324, -1.0]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 400.0, -300.0]),
    st.sampled_from([0.0, 0.0, 1.0, -0.5]),
    st.sampled_from([1.0, 1.0, 0.5, 1e9])), min_size=0, max_size=3)


@settings(max_examples=200, deadline=None)
@given(terms=end_terms, ts=samples_scales, data=st.data())
def test_scaled_equals_the_per_point_sums(terms, ts, data):
    pairs = [(t, data.draw(sample_values)) for t in ts]
    assert (outcome(df._scaled, term_bits, tuple(terms), pairs)
            == outcome(ref_scaled, term_bits, tuple(terms), pairs))


def test_scaled_reports_a_failed_comparison_before_a_later_error():
    # t^-1/2 at -2 is complex, which no comparison accepts (TypeError),
    # before 0 raises ZeroDivisionError in the batch
    pairs = [(-2.0, 0.0), (0.0, 0.0)]
    got = outcome(df._scaled, term_bits, (Term(1.0, 0.5),), pairs)
    assert got == outcome(ref_scaled, term_bits, (Term(1.0, 0.5),), pairs)
    assert got[0] is TypeError


# ---------------------------------------------------------------------------
# band integrals with repeated bands


OPS = {
    "steps": (so.II_INF, [Seg(0.0, 1.0, (Term(2.0),), 1j),
                          Seg(1.0, 3.0, (Term(1.0),)),
                          Seg(3.0, 4.0, (Term(0.5),), -1.0)]),
    "head": (so.II_INF, [Seg(0.0, 1.0, (Term(1.0, 0.5),), 0.6 + 0.8j),
                         Seg(1.0, INF, (Term(1.0, 2.0),))]),
    "finite": (so.II_1, [Seg(0.0, 0.5, (Term(1.0, 0.5),)),
                         Seg(0.5, 1.0, (Term(0.25),), -1j)]),
    "zero": (so.II_INF, []),
    # |v| is not integrable at 0: a band from 0 is refused
    "divergent": (so.II_INF, [Seg(0.0, 1.0, (Term(1.0, 1.5),)),
                              Seg(1.0, 2.0, (Term(0.5),))]),
    # segments that do not tile: the first band is refused
    "overlapping": (so.II_INF, [Seg(0.0, 2.0, (Term(1.0),)),
                                Seg(1.0, 3.0, (Term(0.5),))]),
}
band_ends = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, 2.0, 3.5, INF,
                             math.nan, 1e-300])


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(OPS)), data=st.data())
def test_repeated_bands_equal_integrate_v_per_band(name, data):
    bands = []
    for _ in range(data.draw(st.integers(1, 6))):
        u, w = sorted([data.draw(band_ends), data.draw(band_ends)],
                      key=lambda x: (x != x, x))
        # the band again, itself or with a zero of the other sign
        bands += [(u, w)] * data.draw(st.integers(1, 3))
        if u == 0.0 and data.draw(st.booleans()):
            bands.append((-u, w))

    def bits(vals):
        return [_hex(complex(v)) for v in vals]

    def batch(bands):
        return so.integrate_bands(so.NormalOp(ft, tuple(segs)), bands)

    def per_band(bands):
        return ref_integrate_bands(so.NormalOp(ft, tuple(segs)), bands)

    ft, segs = OPS[name]
    assert outcome(batch, bits, bands) == outcome(per_band, bits, bands)


def test_a_repeated_band_is_its_float_again(monkeypatch):
    T = so.make_op(OPS["steps"][1])
    calls = []
    seg_integral = df._seg_integral

    def counted(terms, lo, hi):
        calls.append((lo, hi))
        return seg_integral(terms, lo, hi)

    monkeypatch.setattr(df, "_seg_integral", counted)
    first, again = so.integrate_bands(T, [(0.5, 2.0), (0.5, 2.0)])
    assert first is again and len(calls) == 2  # (0.5, 1) and (1, 2)


# ---------------------------------------------------------------------------
# JSON numbers: the path string is built only for an error


@pytest.mark.parametrize("obj", [True, False, 10 ** 400, -10 ** 400,
                                 math.nan, INF, -INF, None, "1.0", [1.0],
                                 3, -0.0, 2.5])
@pytest.mark.parametrize("allow_null_inf", [False, True])
def test_num_raises_as_the_string_path_did(obj, allow_null_inf):
    # a huge int is a SchemaError naming its field, as NaN and inf are

    def num(fn, *args):
        try:
            return "ok", repr(fn(*args))
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "path", None)

    assert (num(sz._num, obj, ("operator.segments", 3), "hi", allow_null_inf)
            == num(ref_num, obj, "operator.segments[3].hi", allow_null_inf))


@pytest.mark.parametrize("field, value, path", [
    ("lo", True, "operator.segments[1].lo"),
    ("hi", math.inf, "operator.segments[1].hi"),
    ("coeff", None, "operator.segments[1].coeff"),
    ("logscale", -1.0, "operator.segments[1].logscale"),
    ("phase_re", "x", "operator.segments[1].phase_re"),
])
def test_op_from_json_names_the_record_path(field, value, path):
    recs = [{"lo": 0.0, "hi": 1.0, "coeff": 2.0, "pow": 0.0, "logpow": 0.0,
             "phase_re": 1.0, "phase_im": 0.0} for _ in range(2)]
    recs[1].update(lo=1.0, hi=2.0)
    recs[1][field] = value
    with pytest.raises(sz.SchemaError) as err:
        sz.op_from_json({"factor_type": so.II_INF, "segments": recs})
    assert err.value.path == path


# ---------------------------------------------------------------------------
# the matrix oracle: mu_t on arrays, tabled margins, batched determinants


@pytest.mark.parametrize("n", [1, 3, 7])
def test_mu_at_on_an_array_is_the_scalar_rule(n):
    sig = np.arange(n, 0, -1, dtype=float)
    ts = [0.0, 0.5, 1.0, 1.5, 2.0, 1.0 - 1e-12]
    for k in range(1, n + 1):
        # just below the breakpoint k/n: within the 1e-9 nudge and past it
        ts += [k / n, (k - 1e-11) / n, (k - 2e-9) / n]
    got = mo._mu_at(sig, np.array(ts))
    assert [_hex(v) for v in got] == [_hex(ref_mu_at(sig, t)) for t in ts]


@pytest.mark.parametrize("t, want", [((1 - 1e-11) / 3, 2.0),
                                     ((1 - 2e-9) / 3, 3.0),
                                     (1.0 - 1e-12, 1.0), (1.0, 0.0)])
def test_mu_at_nudges_only_within_1e_9_of_a_breakpoint(t, want):
    assert mo._mu_at(np.array([3.0, 2.0, 1.0]), np.array([t]))[0] == want


ORACLE_REFS = {"snumb": ref_snumb_trial, "soplus": ref_soplus_trial,
               "lemma_nec": ref_lemma_nec_trial, "pluri": ref_pluri_trial}


@settings(max_examples=150, deadline=None)
@given(suite=st.sampled_from(sorted(ORACLE_REFS)),
       seed=st.integers(0, 2 ** 31 - 1), trial=st.integers(0, 99),
       N=st.sampled_from([1, 2, 3]), data=st.data())
def test_oracle_trials_equal_the_per_point_loops(suite, seed, trial, N, data):
    n = data.draw(st.integers(1, 32 if suite == "pluri" else 64), label="n")
    cfg = mo.OracleConfig(seed=seed)
    extra = (N,) if suite == "lemma_nec" else ()

    def margin(fn):
        return fn(np.random.default_rng([seed, n, trial]), n, cfg, *extra)

    assert (_hex(margin(mo._TRIALS[suite]))
            == _hex(margin(ORACLE_REFS[suite])))

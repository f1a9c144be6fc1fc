"""Band queries answered from the compiled tables of a profile.

specop.dist_fun and specop.integrate_v bisect over tables kept on the
profile and on the operator.  The linear scans below are the definitions
they replace; every answer must equal the scan's bit for bit.  A band edge
at a scale, specop.edge, is the level query at the profile's own value.
The batches specop.edges and specop.integrate_bands answer a grid of
scales and a list of bands in one pass; they must equal the per-point
queries, the first error included.
"""

import bisect
import cmath
import json
import math
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commcalc import cli
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import paperchecks as pc
from commcalc import serialize as sz
from commcalc import specop as so
from commcalc.decfun import INF, DomainError, Seg, Term

BITS = os.path.join(os.path.dirname(__file__), "band_trace_bits.json")

# the operator t^-1/2 on (0, 1), t^-0.6 beyond, split at 1; the head grid
# runs over its finite-support part and the tail grid over its bounded part
ROADMAP_OP = [Seg(0.0, 1.0, (Term(1.0, 0.5),)),
              Seg(1.0, INF, (Term(1.0, 0.6),))]
# 1,280 left-endpoint steps of t^-0.6 on (0, 2^20), then t^-0.6 itself:
# the many-segment operator that the explicit bands run over
STAIRCASE = pc._discretize_seg(Seg(0.0, 2.0 ** 20, (Term(1.0, 0.6),))) \
    + [Seg(2.0 ** 20, INF, (Term(1.0, 0.6),))]
BY_SCALE = [(2.0 ** -20, 1.0), (0.5, 2.0), (1.0, 2.0 ** 10),
            (2.0 ** -3, 2.0 ** 40), (3.0, 7.5), (2.0 ** -10, 2.0 ** 59)]
BY_MODULUS = [(0.01, 0.5), (0.1, 0.3), (0.25, 1.0), (1e-6, 2.0)]


# ---------------------------------------------------------------------------
# the linear scans the tables replace


def scan_right_limit(seg, hi):
    if hi == INF:
        return sum(tm.coeff for tm in seg.terms
                   if tm.pow == 0.0 and tm.logpow == 0.0)
    return seg.value(hi * (1 - 1e-14))


def scan_dist_fun(f, x):
    if x < 0:
        raise DomainError("negative level")
    D = 0.0
    for seg in f.segs:
        hi = min(seg.hi, f.domain_hi)
        if seg.is_zero():
            break
        if scan_right_limit(seg, hi) > x:
            D = hi
            continue
        vL = seg.value(seg.lo) if seg.lo > 0 else df.value_at_0(
            df.PLFun(f.domain_hi, (Seg(0.0, hi, seg.terms),)))
        if vL <= x:
            break
        D = so._level_cross(seg, hi, x)
        break
    return D


def loop_dist_fun(f, x):
    """The level table, then a scan on from the first segment it finds."""
    if x < 0:
        raise DomainError("negative level")
    k, D = f.levels.first_below(x)
    for i in range(k, len(f.segs)):
        seg = f.segs[i]
        hi = min(seg.hi, f.domain_hi)
        if seg.is_zero():
            break
        if df.right_limit(seg, hi) > x:
            D = hi
            continue
        vL = seg.value(seg.lo) if seg.lo > 0 else df.value_at_0(
            df.PLFun(f.domain_hi, (Seg(0.0, hi, seg.terms),)))
        if vL <= x:
            break
        D = so._level_cross(seg, hi, x)
        break
    return D


def scan_integrate_v(T, u, w):
    w = min(w, T.domain_hi)
    so._check_band_integrable(T, u, w)
    total = 0.0 + 0.0j
    for seg in T.segs:
        lo, hi = max(seg.lo, u), min(seg.hi, w)
        if hi <= lo:
            continue
        total += seg.phase * df._seg_integral(seg.terms, lo, hi)
    return total


def ref_edge(f, t):
    """The band edge at one scale, as it was read point by point."""
    if not 0.0 < t < f.domain_hi:
        return so.dist_fun(f, 0.0) if t >= f.domain_hi else f(t)
    i = bisect.bisect_right(f.breaks, t) - 1
    seg = f.segs[i]
    if seg.is_const():
        k, D = f.levels.first_below(seg.const_value())
        if k == i:
            return D
    elif seg.lo < t:
        return t
    return so.dist_fun(f, f(t))


def outcome(fn, *args):
    """The bits of fn's result, or the type of the exception it raises."""
    try:
        z = fn(*args)
    except Exception as exc:  # the scans define which errors are right
        return type(exc)
    if isinstance(z, complex):
        return "complex", z.real.hex(), z.imag.hex()
    return type(z).__name__, float(z).hex()


# ---------------------------------------------------------------------------
# random profiles


@st.composite
def profile_segs(draw, domain_hi):
    """Operator segments with a nonincreasing modulus.

    Steps, powers (divergent at 0 when first), a 1/(t log^2 t) head, steps
    whose value rises within the rtol of the monotonicity check, random
    phases, and a support that may end before the domain does.
    """
    n = draw(st.integers(1, 7))
    span = (0.001, 0.999) if domain_hi == 1.0 else (0.01, 100.0)
    cuts = sorted(set(draw(st.lists(st.floats(*span), min_size=n - 1,
                                    max_size=n - 1))))
    bounds = list(zip([0.0] + cuts, cuts + [domain_hi]))
    support = draw(st.integers(1, len(bounds)))
    level = draw(st.floats(0.5, 8.0))  # the left value allowed next
    segs = []
    for lo, hi in bounds[:support]:
        kind = draw(st.sampled_from(["step", "power", "rise", "log"]))
        phase = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        ratio = draw(st.floats(0.2, 1.0))
        if kind == "log" and lo == 0.0:
            top = min(hi, 0.1)  # 1/(t log^2 t) decreases on (0, e^-2)
            term = Term(level * top * math.log(top) ** 2, 1.0, 2.0)
            segs.append(Seg(0.0, top, (term,), phase))
            level = term.value(top)
            if top == hi:
                continue
            lo = top
            kind = "step"
        if kind == "power":
            p = draw(st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.2, 1.5]))
            if lo == 0.0:
                term = Term(level, p)
            else:
                term = Term(ratio * level * lo ** p, p)
            segs.append(Seg(lo, hi, (term,), phase))
            level = term.value(hi) if hi < INF else 0.0
        elif kind == "rise" and segs:
            level *= 1.0 + draw(st.floats(1e-12, 5e-10))
            segs.append(Seg(lo, hi, (Term(level),), phase))
        else:
            level *= ratio
            segs.append(Seg(lo, hi, (Term(level),), phase))
        if level <= 0.0:
            break
    return segs


def _hex(z):
    return [float(z.real).hex(), float(z.imag).hex()]


def band_bits():
    """float.hex of band traces: the head grid over the finite-support part
    of ROADMAP_OP (the head trace of its bounded part diverges), the tail
    grid over its bounded part, and the explicit bands over STAIRCASE.
    """
    T_fs, T_b = so.split_fs_b(so.make_op(ROADMAP_OP))
    S = so.make_op(STAIRCASE)
    return {
        "segments": len(S.segs),
        "head": [[r.hex()] + _hex(v) for r, v in cm.head_values(T_fs)],
        "tail": [[s.hex()] + _hex(v) for s, v in cm.tail_values(T_b)],
        "by_scale": [_hex(so.band_trace(S, "by_scale", r=r, s=s))
                     for r, s in BY_SCALE],
        "by_modulus": [_hex(so.band_trace(S, "by_modulus", a=a, b=b))
                       for a, b in BY_MODULUS],
        "by_scale_phased": [_hex(so.band_trace(so.scale_op(S, 0.6 + 0.8j),
                                               "by_scale", r=r, s=s))
                            for r, s in BY_SCALE],
    }


@settings(max_examples=120, deadline=None)
@given(data=st.data(), factor_type=st.sampled_from([so.II_INF, so.II_1]))
def test_band_queries_equal_the_scans(data, factor_type):
    domain_hi = 1.0 if factor_type == so.II_1 else INF
    try:
        T = so.make_op(data.draw(profile_segs(domain_hi)), factor_type)
    except DomainError:
        assume(False)
    m = so.mu(T)
    levels = {0.0, 1.0, 2.5}
    for seg in m.segs:
        hi = min(seg.hi, domain_hi)
        levels.add(scan_right_limit(seg, hi))
        if seg.lo > 0.0:
            levels.add(seg.value(seg.lo))
    points = {-1.0, 0.0, 0.5, 3.0, INF}
    for seg in T.segs:
        points.update((seg.lo, seg.hi))
    queries = [("dist", x) for x in levels]
    queries += [("band", u, w) for u in points for w in points]
    # the tables fill lazily, so the order of the queries matters
    for kind, *args in data.draw(st.permutations(queries)):
        if kind == "dist":
            assert (outcome(so.dist_fun, m, *args)
                    == outcome(scan_dist_fun, m, *args))
        else:
            assert (outcome(so.integrate_v, T, *args)
                    == outcome(scan_integrate_v, T, *args))


@settings(max_examples=120, deadline=None)
@given(data=st.data(),
       values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-10, 2.0]),
                       min_size=1, max_size=8))
def test_dist_fun_equals_the_scan_on_any_steps(data, values):
    """Unvalidated steps: zero segments inside the support, rising limits."""
    f = df.make([Seg(float(k), k + 1.0, (Term(v),) if v else ())
                 for k, v in enumerate(values)], validate=False)
    xs = (0.0, 0.25, 0.5, 1.0, 1.0 + 1e-10, 2.0, 3.0)
    for x in data.draw(st.permutations(xs)):
        assert outcome(so.dist_fun, f, x) == outcome(scan_dist_fun, f, x)


@st.composite
def levels_of(draw, m):
    """Levels at, just off, and between the profile's segment limits."""
    marks = [0.0]
    for seg in m.segs:
        marks.append(scan_right_limit(seg, min(seg.hi, m.domain_hi)))
        if seg.lo > 0.0:
            marks.append(seg.value(seg.lo))
    x = draw(st.sampled_from(marks))
    how = draw(st.sampled_from(["at", "up", "down", "free"]))
    if how == "up":
        x = math.nextafter(x, INF)
    elif how == "down" and x > 0.0:
        x = math.nextafter(x, 0.0)
    elif how == "free":
        x = draw(st.floats(0.0, 10.0))
    return x


@settings(max_examples=200, deadline=None)
@given(data=st.data(), factor_type=st.sampled_from([so.II_INF, so.II_1]))
def test_dist_fun_reads_one_segment_past_the_table(data, factor_type):
    # the loop past the level table never takes a second step: the table
    # stops at the first segment not above x, which is zero or holds the
    # crossing
    domain_hi = 1.0 if factor_type == so.II_1 else INF
    try:
        T = so.make_op(data.draw(profile_segs(domain_hi)), factor_type)
    except DomainError:
        assume(False)
    m = so.mu(T)
    for _ in range(4):
        x = data.draw(levels_of(m))
        got = outcome(so.dist_fun, m, x)
        assert got == outcome(loop_dist_fun, m, x)
        assert got == outcome(scan_dist_fun, m, x)


@settings(max_examples=120, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-10, 2.0]),
                       min_size=1, max_size=8),
       x=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0 + 1e-10, 2.0, 3.0]))
def test_dist_fun_equals_the_table_loop_on_any_steps(values, x):
    f = df.make([Seg(float(k), k + 1.0, (Term(v),) if v else ())
                 for k, v in enumerate(values)], validate=False)
    assert outcome(so.dist_fun, f, x) == outcome(loop_dist_fun, f, x)


def test_divergent_head_fails_where_the_scan_fails():
    # 1/t at 0: the band from 0 is refused, a band that reaches 0 from
    # below raises in the segment integral, and bands away from 0 work
    T = so.make_op([Seg(0.0, 1.0, (Term(1.0, 1.0),)),
                    Seg(1.0, 2.0, (Term(0.5),))])
    for u, w in [(0.0, 2.0), (-1.0, 0.5), (0.5, 2.0), (-1.0, 2.0), (1.0, 2.0)]:
        assert outcome(so.integrate_v, T, u, w) == outcome(scan_integrate_v,
                                                           T, u, w)
    assert outcome(so.integrate_v, T, -1.0, 2.0) is ValueError


# ---------------------------------------------------------------------------
# band edges at a scale, read off the segment


def scale_points(m, data):
    """Each segment's start, a point drawn inside it, and points at and
    past the end of the domain."""
    points = {m.domain_hi, 4.0 * m.domain_hi}
    for seg in m.segs:
        top = seg.hi if seg.hi < m.domain_hi else seg.lo + 100.0
        if seg.lo > 0.0:
            points.add(seg.lo)
        frac = data.draw(st.floats(1e-6, 1.0 - 1e-6))
        points.add(seg.lo + frac * (top - seg.lo))
    return sorted(points)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), factor_type=st.sampled_from([so.II_INF, so.II_1]))
def test_edge_is_the_level_query_at_its_own_level(data, factor_type):
    """edge(m, t) is dist_fun(m, m(t)) bit for bit on constant and zero
    segments and past the domain, and t itself inside a non-constant
    segment, where dist_fun finds t to its brentq tolerance."""
    domain_hi = 1.0 if factor_type == so.II_1 else INF
    try:
        T = so.make_op(data.draw(profile_segs(domain_hi)), factor_type)
    except DomainError:
        assume(False)
    m = so.mu(T)
    for t in scale_points(m, data):
        if t >= domain_hi:
            assert outcome(so.edge, m, t) == outcome(so.dist_fun, m, 0.0)
            continue
        seg = m.seg_at(t)
        if seg.is_const() or seg.lo == t:
            assert outcome(so.edge, m, t) == outcome(
                lambda: so.dist_fun(m, m(t)))
        else:
            assert so.edge(m, t) == t
            assert abs(so.dist_fun(m, m(t)) - t) <= 1e-12 * t


def test_edge_refuses_a_scale_outside_the_domain():
    m = so.mu(so.make_op(ROADMAP_OP))
    for t in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            so.edge(m, t)


# ---------------------------------------------------------------------------
# the batches equal the per-point queries

# 1 + 1e-9 |log t|^0.001 on (0, 1e-300), then 1/2: a head level crossed
# below 2^-120 of the segment end, which underflows, so its bracket starts
# at the least float
DEEP_LOG_HEAD = [Seg(0.0, 1e-300, (Term(1.0), Term(1e-9, 0.0, -0.001))),
                 Seg(1e-300, 1.0, (Term(0.5),))]
# a segment on (0, 5e-324), the least float, then a power and a constant
LEAST_FLOAT_CUT = [Seg(0.0, 5e-324, (Term(2.0),)),
                   Seg(5e-324, 1.0, (Term(1.0, 0.0, -0.001),), -1.0),
                   Seg(1.0, 3.0, (Term(0.5),), 1j)]
# a power segment that starts within rtol above the constant before it:
# the edge at its start is the level query there, 0, not the start 1
RISE_AT_A_POWER = [Seg(0.0, 1.0, (Term(1.0),)),
                   Seg(1.0, 4.0, (Term(1.0 + 1e-10, 0.5),), -1.0)]


@st.composite
def batch_operators(draw):
    """The profiles of profile_segs, II_1 and II_inf, the two operators
    that reach the least float, or a rise within rtol at a power."""
    factor_type = draw(st.sampled_from([so.II_INF, so.II_1]))
    domain_hi = 1.0 if factor_type == so.II_1 else INF
    fixed = [DEEP_LOG_HEAD, LEAST_FLOAT_CUT[:2]] if domain_hi == 1.0 \
        else [DEEP_LOG_HEAD, LEAST_FLOAT_CUT, RISE_AT_A_POWER]
    segs = draw(st.sampled_from(fixed) | profile_segs(domain_hi))
    try:
        return so.make_op(segs, factor_type)
    except DomainError:
        assume(False)


def hexed(z):
    if isinstance(z, complex):
        return z.real.hex(), z.imag.hex()
    return float(z).hex()


def per_point(fn, items):
    """fn at each item in order: the bits up to the first error, and that
    error's type and message (None when there is none)."""
    bits = []
    for x in items:
        try:
            bits.append(hexed(fn(x)))
        except Exception as exc:  # the per-point queries define the errors
            return bits, (type(exc), str(exc))
    return bits, None


def drained(values):
    """per_point of an iterator that may raise: its bits up to the error,
    and the error."""
    bits = []
    try:
        for z in values:
            bits.append(hexed(z))
    except Exception as exc:  # compared with the per-point errors
        return bits, (type(exc), str(exc))
    return bits, None


def batch_points(m, data):
    """An ascending grid: the scale points, the least float, and points
    the decision grids reach; a nonpositive first point fails at once."""
    ts = set(scale_points(m, data)) | {5e-324, 1e-300, 2.0 ** -60, 1.0}
    ts = sorted(data.draw(st.lists(st.sampled_from(sorted(ts)),
                                   min_size=1, max_size=12)))
    if data.draw(st.integers(0, 9)) == 0:
        ts.insert(0, data.draw(st.sampled_from([0.0, -1.0])))
    return ts


@settings(max_examples=150, deadline=None)
@given(data=st.data(), T=batch_operators())
def test_edges_equal_the_per_point_edges(data, T):
    m = so.mu(T)
    ts = batch_points(m, data)
    want = per_point(lambda t: ref_edge(m, t), ts)
    # a fresh profile: the level table fills as the batch reads it
    m2 = so.mu(so.NormalOp(T.factor_type, T.segs))
    assert drained(so.edges(m2, ts)) == want
    assert per_point(lambda t: so.edge(m, t), ts) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data(), T=batch_operators())
def test_band_batch_equals_the_scans(data, T):
    points = {0.0, 5e-324, 0.5, 3.0, INF, -1.0}
    for seg in T.segs:
        points.update((seg.lo, seg.hi))
    points = sorted(points)
    bands = data.draw(st.lists(st.tuples(st.sampled_from(points),
                                         st.sampled_from(points)),
                               min_size=1, max_size=10))
    want = per_point(lambda b: scan_integrate_v(T, *b), bands)
    read = []

    def feed():
        for band in bands:
            read.append(band)
            yield band

    try:
        got = [hexed(z) for z in so.integrate_bands(T, feed())]
    except Exception as exc:  # compared with the scan's error
        assert want[1] == (type(exc), str(exc))
        assert len(read) == len(want[0]) + 1  # it stopped at that band
    else:
        assert (got, None) == want


@settings(max_examples=100, deadline=None)
@given(T=batch_operators())
def test_decision_grids_equal_the_per_point_bands(T):
    # the head bands run to the domain end, the tail bands from the cut to
    # the edge past it; the first error is the per-point one
    m, hi = so.mu(T), T.domain_hi
    rs = [r for r in cm.HEAD_GRID if r < hi]
    want = per_point(lambda r: scan_integrate_v(T, ref_edge(m, r), hi), rs)
    assert grid_bits(cm.head_values, T) == grid_bits(None, want)
    if T.factor_type == so.II_INF:
        cut = ref_edge(m, 1.0)
        want = per_point(lambda s: scan_integrate_v(
            T, cut, max(cut, ref_edge(m, cut + s))), cm.TAIL_GRID)
        assert grid_bits(cm.tail_values, so.BoundedPart(T, cut)) \
            == grid_bits(None, want)


def grid_bits(fn, X):
    """The bits of the values of fn(X), or fn's error alone; with no fn,
    the same of the per_point outcome X."""
    if fn is None:
        return X if X[1] is None else ([], X[1])
    try:
        return [hexed(v) for _, v in fn(X)], None
    except Exception as exc:  # compared with the per-point errors
        return [], (type(exc), str(exc))


def test_edge_at_a_rise_is_the_level_query():
    m = so.mu(so.make_op(RISE_AT_A_POWER))
    # the level table reads no segment above 1 before the rise
    assert list(so.edges(m, [0.5, 1.0, 2.0])) == [0.0, 0.0, 2.0]


def test_level_crossing_below_the_bracket_start():
    # 2^-120 * 1e-300 underflows to 0, where log t fails; the bracket
    # starts at the least float instead, and the level 1.5 is crossed there
    T = so.make_op(DEEP_LOG_HEAD)
    assert so.dist_fun(so.mu(T), 1.5) == 5e-324
    assert so.band_trace(T, "by_modulus", a=1.2, b=1.5) == 0.0
    assert so.dist_fun(so.mu(T), 0.75) == 1e-300


def test_golden_table_solves_no_level_crossing(monkeypatch):
    # every band of the decisions and certificates is at a scale, so no
    # edge goes through _level_cross's brentq (989 calls when it did)
    from scipy import optimize

    calls = []
    brentq = optimize.brentq

    def counted(*args, **kwargs):
        calls.append(args)
        return brentq(*args, **kwargs)

    monkeypatch.setattr(optimize, "brentq", counted)
    rows = cli.run_table("all")
    assert all(r["ok"] for r in rows) and len(rows) == 19
    assert calls == []


# ---------------------------------------------------------------------------
# integrability of each end, decided once per operator


def diverges_at_0(dom, s):
    """The float-product rule for c t^-p L^-q, dom = (p, q, c), at 0."""
    if dom is None or dom[2] == 0.0:
        return False
    ps, qs = dom[0] * s, dom[1] * s
    return ps > 1.0 or (ps == 1.0 and qs <= 1.0)


def diverges_at_inf(dom, s):
    """The float-product rule at infinity."""
    if dom is None or dom[2] == 0.0:
        return False
    ps, qs = dom[0] * s, dom[1] * s
    return not (ps > 1.0 or (ps == 1.0 and qs > 1.0))


def ref_check_band_integrable(T, u, w):
    """The check integrate_v made on every call, from the profile."""
    m = so.mu(T)
    if u == 0.0:
        dom = df.dominant_at_0(m)
        if diverges_at_0(dom, 1.0):
            raise DomainError("non-integrable band")
    if w == INF and T.domain_hi == INF:
        dom = df.dominant_at_inf(m)
        if diverges_at_inf(dom, 1.0) and df.support_hi(m) == INF:
            raise DomainError("non-integrable band")


def refused(fn, T, u, w):
    """The message of the DomainError fn raises, or None."""
    try:
        fn(T, u, w)
    except DomainError as exc:
        return str(exc)
    return None


EXPONENTS = [(p, q) for p in (0.5, 1.0, 1.5) for q in (0.0, 0.5, 1.0, 1.5)]
HEAD_TOP = math.exp(-4.0)  # t^-p |log t|^-q decreases on (0, e^-4)


def head_seg(p, q, phase=1.0):
    return Seg(0.0, HEAD_TOP, (Term(1.0, p, q),), phase)


def integrability_ops():
    """Power-log heads and tails, II_1 and II_inf, finite supports, the
    zero operator, and unvalidated overlapping segments."""
    ops = {"zero": so.zero_op(), "zero_II_1": so.zero_op(so.II_1)}
    for p, q in EXPONENTS:
        head = head_seg(p, q, 0.6 + 0.8j)
        below = 0.5 * head.value(HEAD_TOP)
        tail = Term(0.5 * below * 2.0 ** p * math.log(2.0) ** q, p, q)
        ops["head_%g_%g" % (p, q)] = so.make_op(
            [head, Seg(HEAD_TOP, 1.0, (Term(below),), -1.0)])
        ops["head_%g_%g_II_1" % (p, q)] = so.make_op(
            [head, Seg(HEAD_TOP, 1.0, (Term(below),))], so.II_1)
        ops["tail_%g_%g" % (p, q)] = so.make_op(
            [Seg(0.0, 2.0, (Term(below),)), Seg(2.0, INF, (tail,), 1j)])
        ops["both_%g_%g" % (p, q)] = so.make_op(
            [head, Seg(HEAD_TOP, 2.0, (Term(below),)),
             Seg(2.0, INF, (tail,))])
        edge = Term(0.5 * 2.0 ** p * math.log(2.0) ** q, p, q, 0.5)
        ops["finite_%g_%g" % (p, q)] = so.make_op(
            [Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, 4.0, (edge,))])
    ops["overlap"] = so.make_op([Seg(0.0, 2.0, (Term(1.0),)),
                                 Seg(1.0, 3.0, (Term(0.5),))], validate=False)
    return ops


BANDS = [(u, w) for u in (0.0, 1e-3, 0.5, 1.0) for w in (0.5, 3.0, INF)]


@pytest.mark.parametrize("name", sorted(integrability_ops()))
def test_integrate_v_refuses_exactly_as_the_check_did(name):
    fresh = integrability_ops()[name]
    T = integrability_ops()[name]
    for u, w in BANDS + BANDS[::-1]:  # both ends decided in either order
        expected = refused(ref_check_band_integrable, fresh, u,
                           min(w, fresh.domain_hi))
        assert refused(so.integrate_v, T, u, w) == expected
        assert refused(so._check_band_integrable, T, u,
                       min(w, T.domain_hi)) == expected


def test_integrability_cases_cover_both_answers():
    ops = integrability_ops()
    head = {n: refused(ref_check_band_integrable, T, 0.0, 0.5)
            for n, T in ops.items() if n.startswith("head_")}
    tail = {n: refused(ref_check_band_integrable, T, 1.0, INF)
            for n, T in ops.items() if n.startswith("tail_")}
    for answers in (head, tail):
        assert None in answers.values()
        assert "non-integrable band" in answers.values()
    # the overlap fails in the profile, on every band
    assert "overlapping" in refused(so.integrate_v, ops["overlap"], 0.5, 1.0)


# ---------------------------------------------------------------------------
# split_fs_b: T_fs is T truncated at the cut, T_b is T read past it


def test_split_keeps_a_head_only_operator():
    T = so.make_op([Seg(0.0, 1.0, (Term(1.0, 0.5),))])
    T_fs, T_b = so.split_fs_b(T)
    assert T_fs is T
    assert (T_b.T, T_b.cut, T_b.segs) == (T, 1.0, ())
    assert [v for _, v in cm.tail_values(T_b)] == [0.0] * 121


def test_split_keeps_a_bounded_operator_cut_at_zero():
    T = so.from_atoms([(2.0, 3.0), (1.0, 1.0)])
    T_fs, T_b = so.split_fs_b(T)
    assert T_fs.is_zero()
    assert T_b.T is T and T_b.cut == 0.0 and T_b.segs == T.segs
    assert cm.tail_values(T_b) == [(s, so.band_trace(T, "tail", s=s))
                                   for s in df.dyadic_grid(0, cm.GRID_K,
                                                           cm.GRID_PPO)]


def test_split_of_both_sides_builds_both_parts():
    T = so.make_op(ROADMAP_OP)
    T_fs, T_b = so.split_fs_b(T)
    assert T_fs is not T and so.mu(T_fs)(0.25) == 2.0
    # the power segment on (1, oo) starts at the cut and is T's own
    assert T_b.T is T and T_b.cut == 1.0 and T_b.segs == T.segs[1:]
    assert len(T_fs.segs) + len(T_b.segs) == 2


# ---------------------------------------------------------------------------
# the monotonicity check names the same t as the 17-point probe


@pytest.mark.parametrize("segs, domain_hi, t", [
    # increasing step: the first probe of the second step
    ([Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, 2.0, (Term(2.0),))], INF, "1"),
    ([Seg(0.0, 0.5, (Term(1.0),)), Seg(0.5, 1.0, (Term(1.0000001),))],
     1.0, "0.5"),
    # a negative constant fails at its second probe point
    ([Seg(0.0, 1.0, (Term(-1.0),))], INF, "1.16698e-17"),
    ([Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, 3.0, (Term(-0.5),))],
     INF, "1.07108"),
    # rising non-constant segments
    ([Seg(0.0, 1.0, (Term(1.0, -0.5),))], 1.0, "1.16698e-17"),
    ([Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, 4.0, (Term(0.5, -1.0),))],
     INF, "1.09051"),
])
def test_monotone_check_names_the_probe(segs, domain_hi, t):
    with pytest.raises(DomainError) as err:
        df.make(segs, domain_hi)
    assert str(err.value) == "not nonincreasing near t=" + t


def test_monotone_check_refuses_a_negative_power_segment():
    # 1 on (0, 1), then -t^(1/2): nonincreasing, but below 0 from t = 1 on
    segs = [Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, INF, (Term(-1.0, -0.5),))]
    with pytest.raises(DomainError, match="not nonincreasing near t=1$"):
        df.make(segs)
    with pytest.raises(sz.SchemaError) as err:
        sz.plfun_from_json(sz.plfun_to_json(df.make(segs, validate=False)))
    assert str(err.value) == "plfun: not nonincreasing near t=1"
    # a power segment that falls to 0 at its end passes
    f = df.make([Seg(0.0, 1.0, (Term(1.0),)),
                 Seg(1.0, 2.0, (Term(0.5, 1.0), Term(-0.25)))])
    assert f(1.5) == 0.5 / 1.5 - 0.25


def test_monotone_check_allows_a_rise_within_rtol():
    f = df.make([Seg(0.0, 1.0, (Term(1.0),)),
                 Seg(1.0, 2.0, (Term(1.0 + 5e-10),))])
    assert f(1.5) == 1.0 + 5e-10


# ---------------------------------------------------------------------------
# pinned bits on the staircase operator


def test_band_trace_bits_pinned():
    with open(BITS) as fh:
        expected = json.load(fh)
    assert band_bits() == expected


if __name__ == "__main__":
    # regenerate the pinned bits: python tests/test_band_tables.py
    with open(BITS, "w") as fh:
        json.dump(band_bits(), fh, indent=0)
        fh.write("\n")
